//! Plan comparison reports (the rows of Fig. 14).

use pspdg_core::{build_pspdg_module, FeatureSet};
use pspdg_ir::interp::{ExecError, Interpreter, NullSink, ObjId, ObjOrigin, Step, TraceSink};
use pspdg_ir::{BlockId, FuncId};
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{plan_built, Abstraction};

use crate::machine::{EmulationResult, IdealMachine};

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

/// Every event of one traced run, handed to one machine per plan.
struct EachMachine([IdealMachine; 4]);

impl EachMachine {
    fn each(&mut self, event: impl Fn(&mut IdealMachine)) {
        self.0.iter_mut().for_each(event);
    }
}

impl TraceSink for EachMachine {
    fn on_step(&mut self, step: &Step<'_>) {
        self.each(|m| m.on_step(step));
    }
    fn on_block(&mut self, frame: u64, func: FuncId, block: BlockId) {
        self.each(|m| m.on_block(frame, func, block));
    }
    fn on_enter(&mut self, frame: u64, func: FuncId, call_step: u64) {
        self.each(|m| m.on_enter(frame, func, call_step));
    }
    fn on_exit(&mut self, frame: u64, func: FuncId, ret_step: u64) {
        self.each(|m| m.on_exit(frame, func, ret_step));
    }
    fn on_alloc(&mut self, obj: ObjId, origin: ObjOrigin) {
        self.each(|m| m.on_alloc(obj, origin));
    }
}

/// Profile `program`, build all four plans from one module build, and
/// emulate them side by side on one traced run (results in
/// [`Abstraction::ALL`] order).
///
/// # Errors
///
/// Propagates interpreter faults from the profiling run or the traced run.
pub fn compare_plans(name: &str, program: &ParallelProgram) -> Result<CriticalPathRow, ExecError> {
    let mut interp = Interpreter::new(&program.module);
    interp.run_main(&mut NullSink)?;
    let built = build_pspdg_module(program, FeatureSet::all());
    let plan = |a| plan_built(program, &built, interp.profile(), a, 0.01);
    let mut sink = EachMachine(Abstraction::ALL.map(|a| IdealMachine::new(program, &plan(a))));
    let mut traced = Interpreter::new(&program.module);
    traced.run_main(&mut sink)?;
    let results = Abstraction::ALL
        .into_iter()
        .zip(sink.0.iter().map(|m| m.result(traced.steps())))
        .collect();
    Ok(CriticalPathRow {
        name: name.to_string(),
        results,
    })
}

/// One benchmark's ideal-machine parallelism next to the runtime's wall
/// clock: plain data, so the emulator does not depend on the runtime.
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
    /// Why measured activations ran sequentially: `(reason, count)` pairs
    /// from the runtime's fallback counters, empty when none did.
    pub fallback_reasons: Vec<(String, u64)>,
    /// The runtime's recorder during the measured run: `"absent"`,
    /// `"disabled"` or `"enabled"` (which pays for profiling in the loop).
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
