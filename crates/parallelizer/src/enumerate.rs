//! Parallelization-option enumeration (paper §6.2, Fig. 13).
//!
//! For every loop with ≥ 1 % coverage, count the execution-plan options the
//! compiler can choose from under each abstraction:
//!
//! * DOALL loop: `cores × chunk_sizes` options (and DOALL-able loops are
//!   *only* considered as DOALL);
//! * non-DOALL loop: HELIX options (possible sequential-segment counts ×
//!   cores) + DSWP options (pipeline-stage counts up to `cores`);
//! * the source OpenMP plan: `cores × chunk_sizes` environment-variable
//!   variations per programmer-parallelized loop.

use std::collections::BTreeMap;

use pspdg_core::{build_pspdg_module, FeatureSet, FunctionPsPdg};
use pspdg_ir::interp::Profile;
use pspdg_ir::{FuncId, LoopId};
use pspdg_parallel::ParallelProgram;

use crate::assess::assess_loop;
use crate::hotloops::hot_loops;
use crate::machine::MachineModel;
use crate::views::{Abstraction, AbstractionView};

/// Option counts for one function.
#[derive(Debug, Clone)]
pub struct FunctionOptions {
    /// The function.
    pub func: FuncId,
    /// Total options per abstraction.
    pub totals: BTreeMap<Abstraction, u64>,
    /// Per-(loop, abstraction) breakdown.
    pub per_loop: Vec<(LoopId, Abstraction, u64)>,
}

/// Option counts for a whole program.
#[derive(Debug, Clone, Default)]
pub struct ProgramOptions {
    /// Totals per abstraction.
    pub totals: BTreeMap<Abstraction, u64>,
    /// Per-function breakdown.
    pub functions: Vec<FunctionOptions>,
}

impl ProgramOptions {
    /// Total for one abstraction.
    pub fn total(&self, a: Abstraction) -> u64 {
        self.totals.get(&a).copied().unwrap_or(0)
    }
}

/// Enumerate options for one function whose analyses/PDG/PS-PDG were
/// already built (by [`build_pspdg_module`]'s parallel driver).
fn enumerate_prepared(
    program: &ParallelProgram,
    prepared: &FunctionPsPdg,
    profile: &Profile,
    machine: &MachineModel,
    threshold: f64,
) -> FunctionOptions {
    let FunctionPsPdg { func, analyses, .. } = prepared;
    let func = *func;

    let hot = hot_loops(&program.module, func, analyses, profile, threshold);
    let mut totals: BTreeMap<Abstraction, u64> = BTreeMap::new();
    let mut per_loop = Vec::new();
    // Built once per function, and only for a function with a hot loop.
    let views = (!hot.is_empty()).then(|| {
        [Abstraction::Pdg, Abstraction::Jk, Abstraction::PsPdg].map(|a| {
            let graph = a.graph(prepared.pspdg.features);
            (a, AbstractionView::select(graph, program, prepared))
        })
    });

    for h in &hot {
        let l = h.loop_id;
        // OpenMP: options only where the programmer parallelized.
        let header = analyses.forest.info(l).header;
        if program.worksharing_loop_directive(func, header).is_some() {
            let n = machine.openmp_env_options();
            *totals.entry(Abstraction::OpenMp).or_insert(0) += n;
            per_loop.push((l, Abstraction::OpenMp, n));
        }
        // Non-canonical loops (unknown trip count) are still HELIX/DSWP
        // candidates; only DOALL requires the canonical shape.
        for (abstraction, view) in views.iter().flatten() {
            let a = assess_loop(&view.at(l));
            let n = if a.doall {
                machine.doall_options()
            } else {
                machine.helix_options(a.seq_sccs as u64) + machine.dswp_options(a.total_sccs as u64)
            };
            *totals.entry(*abstraction).or_insert(0) += n;
            per_loop.push((l, *abstraction, n));
        }
    }
    FunctionOptions {
        func,
        totals,
        per_loop,
    }
}

/// Enumerate options for every function of a program (the per-benchmark
/// totals of Fig. 13).
pub fn enumerate_program(
    program: &ParallelProgram,
    profile: &Profile,
    machine: &MachineModel,
    threshold: f64,
) -> ProgramOptions {
    enumerate_program_with_features(program, profile, machine, threshold, FeatureSet::all())
}

/// [`enumerate_program`] with an ablated PS-PDG feature set.
///
/// Analyses, PDGs, and PS-PDGs are built for all functions through the
/// parallel module driver, and per-function enumeration also fans out
/// across threads; the returned totals and per-function order are
/// deterministic (module function order).
pub fn enumerate_program_with_features(
    program: &ParallelProgram,
    profile: &Profile,
    machine: &MachineModel,
    threshold: f64,
    features: FeatureSet,
) -> ProgramOptions {
    // `build_pspdg_module` already skips declared-but-bodyless functions.
    let built = build_pspdg_module(program, features);
    let functions: Vec<FunctionOptions> = pspdg_pool::par_map(built.iter().collect(), |prepared| {
        enumerate_prepared(program, prepared, profile, machine, threshold)
    });
    let mut out = ProgramOptions::default();
    for f in functions {
        for (a, n) in &f.totals {
            *out.totals.entry(*a).or_insert(0) += n;
        }
        out.functions.push(f);
    }
    for a in Abstraction::ALL {
        out.totals.entry(a).or_insert(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_ir::interp::{Interpreter, NullSink};

    fn options_for(src: &str) -> ProgramOptions {
        let p = compile(src).unwrap();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).unwrap();
        enumerate_program(&p, interp.profile(), &MachineModel::paper(), 0.01)
    }

    #[test]
    fn histogram_kernel_option_ordering() {
        // hist[key[i]]++ under omp parallel for: the PDG sees a sequential
        // SCC (few options), J&K and PS-PDG see DOALL (448), OpenMP has its
        // env-var options (448).
        let o = options_for(
            r#"
            int key[256]; int hist[256];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 256; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let m = MachineModel::paper();
        assert_eq!(o.total(Abstraction::OpenMp), m.openmp_env_options());
        assert_eq!(o.total(Abstraction::PsPdg), m.doall_options());
        assert_eq!(o.total(Abstraction::Jk), m.doall_options());
        assert!(o.total(Abstraction::Pdg) < o.total(Abstraction::PsPdg));
        assert!(
            o.total(Abstraction::Pdg) > 0,
            "HELIX/DSWP still offer options"
        );
    }

    #[test]
    fn unannotated_parallel_loop_gives_compiler_options_only() {
        let o = options_for(
            r#"
            int v[512];
            void k() { int i; for (i = 0; i < 512; i++) { v[i] = i; } }
            int main() { k(); return 0; }
            "#,
        );
        let m = MachineModel::paper();
        assert_eq!(o.total(Abstraction::OpenMp), 0);
        assert_eq!(o.total(Abstraction::Pdg), m.doall_options());
        assert_eq!(o.total(Abstraction::Jk), m.doall_options());
        assert_eq!(o.total(Abstraction::PsPdg), m.doall_options());
    }

    #[test]
    fn pspdg_dominates_all_abstractions() {
        // A mixed kernel: one annotated histogram loop, one plain loop, one
        // reduction loop. PS-PDG options ⊇ J&K ⊇ PDG and ≥ OpenMP.
        let o = options_for(
            r#"
            int key[256]; int hist[256]; int v[256]; int s;
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 256; i++) { hist[key[i]] += 1; }
                for (i = 0; i < 256; i++) { v[i] = 2 * i; }
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 256; i++) { s += v[i]; }
            }
            int main() { k(); return 0; }
            "#,
        );
        assert!(o.total(Abstraction::PsPdg) >= o.total(Abstraction::Jk));
        assert!(o.total(Abstraction::Jk) >= o.total(Abstraction::Pdg));
        assert!(o.total(Abstraction::PsPdg) > o.total(Abstraction::OpenMp));
    }
}
