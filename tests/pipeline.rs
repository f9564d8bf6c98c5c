//! End-to-end pipeline tests: ParC → IR → PDG → PS-PDG → plans → ideal
//! machine, asserting the cross-crate invariants the paper's claims rest
//! on.

use pspdg::core::{build_pspdg, query, FeatureSet};
use pspdg::emulator::{compare_plans, emulate};
use pspdg::frontend::compile;
use pspdg::ir::interp::{Interpreter, NullSink};
use pspdg::parallelizer::{build_plan, enumerate_program, Abstraction, MachineModel};
use pspdg::pdg::{FunctionAnalyses, Pdg};

const MIXED_KERNEL: &str = r#"
    int key[256]; int hist[256]; int v[256];
    double s;
    void k() {
        int i;
        #pragma omp parallel for
        for (i = 0; i < 256; i++) { hist[key[i]] += 1; }
        for (i = 0; i < 256; i++) { v[i] = 3 * i; }
        #pragma omp parallel for reduction(+: s)
        for (i = 0; i < 256; i++) { s += (double) v[i]; }
    }
    int main() {
        int i;
        for (i = 0; i < 256; i++) { key[i] = (i * 7) % 256; }
        k();
        return (int) s % 251;
    }
"#;

#[test]
fn options_are_monotone_in_abstraction_power() {
    let p = compile(MIXED_KERNEL).unwrap();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    let opts = enumerate_program(&p, interp.profile(), &MachineModel::paper(), 0.01);
    assert!(opts.total(Abstraction::PsPdg) >= opts.total(Abstraction::Jk));
    assert!(opts.total(Abstraction::Jk) >= opts.total(Abstraction::Pdg));
    assert!(opts.total(Abstraction::PsPdg) > opts.total(Abstraction::OpenMp));
}

#[test]
fn pspdg_critical_path_never_worse_than_openmp() {
    let p = compile(MIXED_KERNEL).unwrap();
    let row = compare_plans("mixed", &p).unwrap();
    assert!(
        row.reduction_over_openmp(Abstraction::PsPdg) >= 0.999,
        "PS-PDG must keep every piece of programmer parallelism"
    );
    // J&K sits between PDG and PS-PDG.
    assert!(row.critical_path(Abstraction::Jk) <= row.critical_path(Abstraction::Pdg));
    assert!(row.critical_path(Abstraction::PsPdg) <= row.critical_path(Abstraction::Jk));
}

#[test]
fn critical_path_is_bounded_by_trace_length() {
    let p = compile(MIXED_KERNEL).unwrap();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    for a in Abstraction::ALL {
        let plan = build_plan(&p, interp.profile(), a, 0.01);
        let r = emulate(&p, &plan).unwrap();
        assert!(r.critical_path <= r.total_steps, "{a}: cp > steps");
        assert!(r.critical_path > 0);
    }
}

#[test]
fn plans_agree_with_views_on_doall() {
    let p = compile(MIXED_KERNEL).unwrap();
    let f = p.module.function_by_name("k").unwrap();
    let analyses = FunctionAnalyses::compute(&p.module, f);
    let pdg = Pdg::build(&p.module, f, &analyses);
    let pspdg = build_pspdg(&p, f, &analyses, &pdg, FeatureSet::all());
    // Every loop of k is DOALL under the PS-PDG.
    for l in analyses.forest.loop_ids() {
        let blocking = query::blocking_carried_edges(&pspdg, &analyses, l);
        assert!(
            blocking.is_empty(),
            "loop {l:?} should have no blocking deps under PS-PDG: {blocking:?}"
        );
    }
    // The histogram loop is NOT DOALL under the plain PDG.
    let hist_loop = analyses.forest.loop_ids().next().unwrap();
    assert!(pdg.carried_edges(hist_loop).any(|e| e.kind.is_memory()));
}

#[test]
fn sequential_program_has_trivial_plans() {
    let p =
        compile("int main() { int x = 0; int i; for (i = 0; i < 4; i++) { x += i; } return x; }")
            .unwrap();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    // The OpenMP plan is empty (no pragmas).
    let omp = build_plan(&p, interp.profile(), Abstraction::OpenMp, 0.01);
    assert!(omp.is_empty());
    // Its emulation is fully sequential.
    let r = emulate(&p, &omp).unwrap();
    assert_eq!(r.critical_path, r.total_steps);
}

#[test]
fn feature_ablation_degrades_monotonically() {
    // Disabling features can only shrink the set of discharged deps (i.e.
    // blocking-carried counts never decrease when a feature is removed).
    let p = compile(MIXED_KERNEL).unwrap();
    let f = p.module.function_by_name("k").unwrap();
    let analyses = FunctionAnalyses::compute(&p.module, f);
    let pdg = Pdg::build(&p.module, f, &analyses);
    let full = build_pspdg(&p, f, &analyses, &pdg, FeatureSet::all());
    for feat in pspdg::core::Feature::ALL {
        let ablated = build_pspdg(&p, f, &analyses, &pdg, FeatureSet::all().without(feat));
        for l in analyses.forest.loop_ids() {
            let b_full = query::blocking_carried_edges(&full, &analyses, l).len();
            let b_ablated = query::blocking_carried_edges(&ablated, &analyses, l).len();
            assert!(
                b_ablated >= b_full,
                "removing {feat:?} must not discharge more deps (loop {l:?}: {b_ablated} < {b_full})"
            );
        }
    }
}

#[test]
fn interpreter_and_emulator_agree_on_step_counts() {
    let p = compile(MIXED_KERNEL).unwrap();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let r = emulate(&p, &plan).unwrap();
    assert_eq!(r.total_steps, interp.steps());
}
