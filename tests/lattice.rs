//! The §4 ablations as a lattice of plans.
//!
//! Every weaker abstraction is the PS-PDG minus some of its extensions, so
//! adding an extension may only add knowledge: over the 32 feature sets,
//! each inclusion edge `S ⊂ S ∪ {f}` must plan at least the loops `S`
//! runs DOALL, lock no instruction `S` does not, and emulate a critical
//! path no longer than `S`'s. And knowing less must never make a plan
//! unsound: the PS-PDG plans of the bottom of the lattice and of each
//! "PS-PDG w/o f" run on the runtime exactly as the sequential
//! interpreter does.

use std::collections::BTreeSet;

use pspdg::core::{build_pspdg_module, Feature, FeatureSet};
use pspdg::emulator::emulate;
use pspdg::ir::interp::{Interpreter, NullSink};
use pspdg::ir::{FuncId, InstId, LoopId};
use pspdg::nas::{fault_suite, Class};
use pspdg::parallel::ParallelProgram;
use pspdg::parallelizer::{plan_built, Abstraction, PlannedTechnique, ProgramPlan};
use pspdg::runtime::{
    globals_mismatch, line_equivalent, observable_globals, rtval_equivalent, Runtime,
};

/// The feature set whose bit `i` says whether `Feature::ALL[i]` is on.
fn feature_set(bits: usize) -> FeatureSet {
    Feature::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| bits >> i & 1 == 1)
        .fold(FeatureSet::none(), |fs, (_, f)| fs.with(f))
}

/// The PS-PDG plan of `p` built with `features`.
fn plan(p: &ParallelProgram, interp: &Interpreter<'_>, features: FeatureSet) -> ProgramPlan {
    let built = build_pspdg_module(p, features);
    plan_built(p, &built, interp.profile(), Abstraction::PsPdg, 0.01)
}

/// What one plan of the lattice is judged by.
struct Point {
    doall: BTreeSet<(FuncId, LoopId)>,
    locked: BTreeSet<(FuncId, InstId)>,
    critical_path: u64,
}

impl Point {
    fn of(p: &ParallelProgram, plan: &ProgramPlan) -> Point {
        let doall = plan
            .loops
            .values()
            .filter(|s| s.technique == PlannedTechnique::Doall);
        let locked = plan.mutexes.iter();
        Point {
            doall: doall.map(|s| (s.func, s.loop_id)).collect(),
            locked: locked
                .flat_map(|m| m.insts.iter().map(|&i| (m.func, i)))
                .collect(),
            critical_path: emulate(p, plan).expect("emulates").critical_path,
        }
    }
}

/// Every inclusion edge of the lattice, over the Test class. No kernel
/// breaks it; a break must be explained, and the two that were are fixed:
/// CG (442 → 458), EP (14,352 → 14,364) and MG (342/350 → 352) gained
/// critical path by adding PSV or HN+UE, because the ideal machine charged
/// no merge for the accumulators such a graph discharges (it merges them
/// now, as the runtime does); and GMAX gained 9 by adding HN+UE, because
/// then a critical-protected accumulator was charged a merge while its
/// lock also serialized it (it is not charged any more).
#[test]
fn each_extension_only_adds_parallelism() {
    let mut violations = Vec::new();
    for b in fault_suite(Class::Test) {
        let p = b.program();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).expect("profile run");
        let points: Vec<Point> = (0..32)
            .map(|bits| Point::of(&p, &plan(&p, &interp, feature_set(bits))))
            .collect();
        for (bits, lo) in points.iter().enumerate() {
            for (i, f) in Feature::ALL.into_iter().enumerate() {
                if bits >> i & 1 == 1 {
                    continue;
                }
                let hi = &points[bits | 1 << i];
                let edge = format!("{}: {} + {}", b.name, feature_set(bits), f.short_name());
                if !lo.doall.is_subset(&hi.doall) {
                    violations.push(format!(
                        "{edge}: DOALL loops {:?} → {:?}",
                        lo.doall, hi.doall
                    ));
                }
                if !hi.locked.is_subset(&lo.locked) {
                    let (n, m) = (lo.locked.len(), hi.locked.len());
                    violations.push(format!(
                        "{edge}: locked {n} → {m} instructions, not a subset"
                    ));
                }
                if hi.critical_path > lo.critical_path {
                    let (n, m) = (lo.critical_path, hi.critical_path);
                    violations.push(format!("{edge}: critical path {n} → {m}"));
                }
            }
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

#[test]
fn ablated_plans_match_the_interpreter() {
    let mut sets = vec![FeatureSet::none()];
    sets.extend(Feature::ALL.map(|f| FeatureSet::all().without(f)));
    for class in [Class::Test, Class::Mini] {
        for b in fault_suite(class) {
            let p = b.program();
            let mut interp = Interpreter::new(&p.module);
            let seq_ret = interp.run_main(&mut NullSink).expect("sequential run");
            let seq_globals = observable_globals(&p.module, interp.mem());
            for &features in &sets {
                let plan = plan(&p, &interp, features);
                for workers in [2, 4] {
                    let name = format!("{} {class:?} {features} W={workers}", b.name);
                    let rt = Runtime::new(&p, &plan).workers(workers).cost_threshold(0);
                    let out = rt.run_main().unwrap_or_else(|e| panic!("{name}: {e}"));
                    match (seq_ret, out.ret) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert!(rtval_equivalent(a, b), "{name}: ret {a:?} vs {b:?}")
                        }
                        (a, b) => panic!("{name}: ret {a:?} vs {b:?}"),
                    }
                    let lines = interp.output().iter().zip(&out.output);
                    assert!(
                        interp.output().len() == out.output.len()
                            && lines.into_iter().all(|(a, b)| line_equivalent(a, b)),
                        "{name}: output differs"
                    );
                    let par_globals = observable_globals(&p.module, &out.mem);
                    let mismatch = globals_mismatch(&seq_globals, &par_globals);
                    assert_eq!(mismatch, None, "{name}: globals differ");
                }
            }
        }
    }
}
