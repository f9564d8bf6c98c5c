//! Plan comparison reports (the rows of Fig. 14).

use pspdg_ir::interp::{ExecError, Interpreter, NullSink};
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{build_plan, Abstraction};

use crate::machine::{emulate, EmulationResult};

/// One benchmark row: critical paths under every abstraction and the
/// speedups over the programmer-encoded plan.
#[derive(Debug, Clone)]
pub struct CriticalPathRow {
    /// Benchmark name.
    pub name: String,
    /// (abstraction, emulation result) in [`Abstraction::ALL`] order.
    pub results: Vec<(Abstraction, EmulationResult)>,
}

impl CriticalPathRow {
    /// Critical path under `a`.
    pub fn critical_path(&self, a: Abstraction) -> u64 {
        self.results
            .iter()
            .find(|(x, _)| *x == a)
            .map(|(_, r)| r.critical_path)
            .unwrap_or(0)
    }

    /// Critical-path reduction of `a` over the OpenMP plan (Fig. 14's
    /// y-axis): > 1 means the compiler found a better plan.
    pub fn reduction_over_openmp(&self, a: Abstraction) -> f64 {
        let omp = self.critical_path(Abstraction::OpenMp) as f64;
        let other = self.critical_path(a) as f64;
        if other == 0.0 {
            1.0
        } else {
            omp / other
        }
    }
}

/// Profile `program`, build all four plans, and emulate each. The four
/// plan emulations are independent trace replays, so they run across the
/// shared worker pool (result order stays [`Abstraction::ALL`] order).
///
/// # Errors
///
/// Propagates interpreter faults from the profiling run or any emulation.
pub fn compare_plans(name: &str, program: &ParallelProgram) -> Result<CriticalPathRow, ExecError> {
    let mut interp = Interpreter::new(&program.module);
    interp.run_main(&mut NullSink)?;
    let profile = interp.profile().clone();
    let results: Result<Vec<(Abstraction, EmulationResult)>, ExecError> =
        pspdg_pool::par_map(Abstraction::ALL.to_vec(), |a| {
            let plan = build_plan(program, &profile, a, 0.01);
            emulate(program, &plan).map(|r| (a, r))
        })
        .into_iter()
        .collect();
    Ok(CriticalPathRow {
        name: name.to_string(),
        results: results?,
    })
}

/// One benchmark's predicted-vs-measured comparison: the emulator's
/// ideal-machine parallelism next to real wall-clock numbers from the
/// `pspdg-runtime` executor. Kept as plain data so the emulator does not
/// depend on the runtime crate; `pspdg-bench`'s `bench_runtime_json`
/// assembles the rows.
#[derive(Debug, Clone)]
pub struct PredictedVsMeasured {
    /// Benchmark name.
    pub name: String,
    /// Parallelism the ideal machine predicts for the executed plan
    /// (total dynamic instructions / plan-constrained critical path).
    pub predicted_parallelism: f64,
    /// Sequential interpreter wall time.
    pub sequential_ns: u64,
    /// Parallel runtime wall time under the same plan.
    pub parallel_ns: u64,
    /// Why measured activations ran sequentially: `(reason, count)`
    /// pairs from the runtime's fallback counters (empty when every
    /// scheduled activation parallelized). This is what turns "the
    /// speedup fell short of the prediction" into an actionable
    /// diagnosis — cost-gated short activations, worker faults, plans the
    /// runtime does not execute, … each count its own cause.
    pub fallback_reasons: Vec<(String, u64)>,
    /// State of the runtime's observability recorder during the
    /// measured run (`"absent"`, `"disabled"`, or `"enabled"`), so a
    /// published number carries its own instrumentation provenance —
    /// an enabled recorder pays the profiling cost inside the loop.
    pub recorder_state: &'static str,
}

impl PredictedVsMeasured {
    /// Measured wall-clock speedup (sequential / parallel).
    pub fn measured_speedup(&self) -> f64 {
        if self.parallel_ns == 0 {
            1.0
        } else {
            self.sequential_ns as f64 / self.parallel_ns as f64
        }
    }

    /// Fraction of the ideal-machine prediction the real execution
    /// achieved (1.0 = the hardware kept up with the ideal machine; real
    /// interpreter runs land far below on loop-level parallelism).
    pub fn efficiency(&self) -> f64 {
        if self.predicted_parallelism <= 0.0 {
            0.0
        } else {
            self.measured_speedup() / self.predicted_parallelism
        }
    }

    /// Compact `reason:count` summary (`"-"` when nothing fell back).
    pub fn fallback_summary(&self) -> String {
        if self.fallback_reasons.is_empty() {
            return "-".to_string();
        }
        self.fallback_reasons
            .iter()
            .map(|(r, n)| format!("{r}:{n}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;

    #[test]
    fn row_accessors() {
        let p = compile(
            r#"
            int v[128];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) { v[i] = i; }
            }
            int main() { k(); return 0; }
            "#,
        )
        .unwrap();
        let row = compare_plans("demo", &p).unwrap();
        assert_eq!(row.results.len(), 4);
        assert!(row.critical_path(Abstraction::OpenMp) > 0);
        // The OpenMP reduction over itself is 1.
        let r = row.reduction_over_openmp(Abstraction::OpenMp);
        assert!((r - 1.0).abs() < 1e-9);
        // PS-PDG never loses programmer parallelism.
        assert!(row.reduction_over_openmp(Abstraction::PsPdg) >= 0.99);
    }
}
