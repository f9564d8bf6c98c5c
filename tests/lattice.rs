//! The §4 ablations as a lattice of plans.
//!
//! Every weaker abstraction is the PS-PDG minus some of its extensions, so
//! adding an extension may only add knowledge: over the 32 feature sets,
//! each inclusion edge `S ⊂ S ∪ {f}` must plan at least the loops `S`
//! runs DOALL, lock no instruction `S` does not, and emulate a critical
//! path no longer than `S`'s. Knowing less must never make a plan
//! unsound: ablated and per-abstraction plans run on the runtime exactly
//! as the sequential interpreter does. And a plan reads only its graph:
//! the same graph plans alike whichever abstraction or build reaches it.

use std::collections::BTreeSet;

use pspdg::core::{build_pspdg_module, Feature, FeatureSet};
use pspdg::emulator::emulate;
use pspdg::frontend::compile;
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

/// One worksharing loop per operator the runtime merges. Each operator's
/// decisive cells sit in the first chunk, so a run that keeps any later
/// chunk's partial value by last-writer commit returns something else.
const REDUCTIONS: &str = r#"
    int v[1024]; int w[1024];
    int s; int p; int lo; int hi; int ba; int bo; int bx; int la; int lr;
    int main() {
        int i;
        for (i = 0; i < 1024; i++) { v[i] = i % 7; w[i] = 1; }
        v[5] = 100000; v[6] = -3; w[3] = 3;
        p = 1; lo = 1000; ba = -1; la = 1;
        #pragma omp parallel for reduction(+: s)
        for (i = 0; i < 1024; i++) { s += v[i]; }
        #pragma omp parallel for reduction(*: p)
        for (i = 0; i < 1024; i++) { p = p * w[i]; }
        #pragma omp parallel for reduction(min: lo)
        for (i = 0; i < 1024; i++) { lo = imin(lo, v[i]); }
        #pragma omp parallel for reduction(max: hi)
        for (i = 0; i < 1024; i++) { hi = imax(hi, v[i]); }
        #pragma omp parallel for reduction(&: ba)
        for (i = 0; i < 1024; i++) { ba = ba & (0 - w[i]); }
        #pragma omp parallel for reduction(|: bo)
        for (i = 0; i < 1024; i++) { bo = bo | (w[i] - 1); }
        #pragma omp parallel for reduction(^: bx)
        for (i = 0; i < 1024; i++) { bx = bx ^ w[i]; }
        #pragma omp parallel for reduction(&&: la)
        for (i = 0; i < 1024; i++) { la = la && w[i] == 1; }
        #pragma omp parallel for reduction(||: lr)
        for (i = 0; i < 1024; i++) { lr = lr || w[i] == 3; }
        print_i64(s); print_i64(p); print_i64(lo); print_i64(ba);
        print_i64(bo); print_i64(bx); print_i64(la); print_i64(lr);
        return hi;
    }
"#;

/// Knowing less must never make a plan unsound. Every plan runs on the
/// runtime as the sequential interpreter does: the PS-PDG plans of the
/// bottom of the lattice, of `{C}` and of each "PS-PDG w/o f", and the
/// PDG and J&K plans of the full build.
#[test]
fn ablated_plans_match_the_interpreter() {
    let mut sets = vec![
        FeatureSet::none(),
        FeatureSet::none().with(Feature::Contexts),
    ];
    sets.extend(Feature::ALL.map(|f| FeatureSet::all().without(f)));
    let mut programs = Vec::new();
    for class in [Class::Test, Class::Mini] {
        let suite = fault_suite(class).into_iter();
        programs.extend(suite.map(|b| (format!("{} {class:?}", b.name), b.program())));
    }
    programs.push((
        "REDUCTIONS".to_string(),
        compile(REDUCTIONS).expect("compiles"),
    ));
    for (program, p) in programs {
        let mut interp = Interpreter::new(&p.module);
        let seq_ret = interp.run_main(&mut NullSink).expect("sequential run");
        let seq_globals = observable_globals(&p.module, interp.mem());
        let mut plans: Vec<(String, ProgramPlan)> = sets
            .iter()
            .map(|&fs| (fs.to_string(), plan(&p, &interp, fs)))
            .collect();
        let full = build_pspdg_module(&p, FeatureSet::all());
        for a in [Abstraction::Pdg, Abstraction::Jk] {
            let plan = plan_built(&p, &full, interp.profile(), a, 0.01);
            plans.push((format!("{a} of the full build"), plan));
        }
        for (label, plan) in &plans {
            for workers in [2, 4] {
                let name = format!("{program} {label} W={workers}");
                let rt = Runtime::new(&p, plan).workers(workers).cost_threshold(0);
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
                    "{name}: output {:?} vs {:?}",
                    interp.output(),
                    out.output
                );
                let par_globals = observable_globals(&p.module, &out.mem);
                let mismatch = globals_mismatch(&seq_globals, &par_globals);
                assert_eq!(mismatch, None, "{name}: globals differ");
            }
        }
    }
}

/// Everything a plan decides, apart from the abstraction that asked: its
/// loops in `(function, loop)` order with technique, discharges and
/// barrier, its mutex groups, and whether spawns run in their own strand.
fn decisions(plan: &ProgramPlan) -> String {
    let mut loops: Vec<_> = plan.loops.values().collect();
    loops.sort_by_key(|s| (s.func, s.loop_id));
    let loops: Vec<_> = loops
        .iter()
        .map(|s| {
            (
                s.func,
                s.loop_id,
                &s.technique,
                &s.discharged,
                s.end_barrier,
            )
        })
        .collect();
    let mutexes: Vec<_> = plan
        .mutexes
        .iter()
        .map(|m| (m.func, &m.lock, &m.insts))
        .collect();
    format!("{loops:?}\n{mutexes:?}\nspawns {}", plan.parallel_spawns)
}

/// A plan is a function of its graph: J&K reads `{C}` however the module
/// was built, and the PS-PDG plan of a module built with `{C}` reads the
/// same graph, so all three decide alike.
#[test]
fn a_plan_is_a_function_of_its_graph() {
    let c_only = FeatureSet::none().with(Feature::Contexts);
    for b in fault_suite(Class::Test) {
        let p = b.program();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).expect("profile run");
        let profile = interp.profile();
        let of = |built: FeatureSet, a| {
            let built = build_pspdg_module(&p, built);
            decisions(&plan_built(&p, &built, profile, a, 0.01))
        };
        let jk = of(FeatureSet::all(), Abstraction::Jk);
        let without_c = FeatureSet::all().without(Feature::Contexts);
        assert_eq!(
            of(without_c, Abstraction::Jk),
            jk,
            "{}: J&K over {without_c}",
            b.name
        );
        assert_eq!(
            of(c_only, Abstraction::PsPdg),
            jk,
            "{}: PS-PDG over {{C}}",
            b.name
        );
    }
}
