use std::sync::Arc;

use pspdg_frontend::compile;
use pspdg_ir::interp::{Interpreter, NullSink};
use pspdg_nas::{synth, Class};
use pspdg_parallelizer::{build_plan, realize_executable, Abstraction, LoopExec, PlannedTechnique};
use pspdg_runtime::{
    globals_identical_mismatch, globals_mismatch, observable_globals, FallbackWhy, Runtime,
};

/// One loop that chunks, then one whose prints carry an I/O dependence:
/// its plan is HELIX, with the prints in the sequential segment.
const DOALL_THEN_PRINT_SRC: &str = r#"
    int v[256]; int w[256];
    void k() {
        int i;
        for (i = 0; i < 256; i++) { v[i] = i * 3; }
        for (i = 0; i < 256; i++) { w[i] = v[i] + 1; print_i64(w[i]); }
    }
    int main() { k(); return w[255]; }
"#;

/// A recurrence feeding a consumer: a HELIX plan whose sequential segment
/// is the recurrence.
const RECURRENCE_SRC: &str = r#"
    int t; int v[256]; int w[256];
    void k() {
        int i;
        for (i = 0; i < 256; i++) {
            t = t + v[i] + i;
            w[i] = t * 2;
        }
    }
    int main() { k(); return w[200]; }
"#;

#[test]
fn doall_smoke() {
    let p = compile(DOALL_THEN_PRINT_SRC).unwrap();
    let mut interp = Interpreter::new(&p.module);
    let seq_ret = interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    // Gate off: this test asserts the parallel path itself.
    let rt = Runtime::new(&p, &plan).workers(4).cost_threshold(0);
    let stats = rt.realization();
    assert_eq!((stats.chunked, stats.sequential), (1, 1), "{stats:?}");
    let out = rt.run_main().unwrap();
    assert_eq!(out.ret, seq_ret);
    assert_eq!(out.output, interp.output());
    assert_eq!(out.stats.chunked_loops, 1, "{:?}", out.stats);
    let a = observable_globals(&p.module, interp.mem());
    let b = observable_globals(&p.module, &out.mem);
    assert_eq!(globals_mismatch(&a, &b), None);
}

/// Loops whose *plan* is HELIX are not split by any strategy: they lower
/// sequential, say why, and run on the master bit-identical to the
/// interpreter at every worker count. PIPE is the suite's kernel of that
/// shape.
#[test]
fn pipeline_smoke() {
    let programs = [
        compile(DOALL_THEN_PRINT_SRC).unwrap(),
        compile(RECURRENCE_SRC).unwrap(),
        synth::pipe(Class::Test).program(),
    ];
    for p in programs.map(Arc::new) {
        let mut interp = Interpreter::new(&p.module);
        let seq_ret = interp.run_main(&mut NullSink).unwrap();
        let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
        let exec = Arc::new(realize_executable(&p, &plan));
        let helix: Vec<_> = exec
            .schedules()
            .iter()
            .filter(|s| plan.loops[&(s.func, s.loop_id)].technique != PlannedTechnique::Doall)
            .collect();
        assert_eq!(helix.len(), 1, "{:?}", exec.schedules());
        match &helix[0].exec {
            LoopExec::Sequential { reason } => assert_eq!(
                reason,
                "HELIX plans are enumerated and emulated, not executed"
            ),
            other => panic!("a HELIX plan must not execute: {other:?}"),
        }
        let want = observable_globals(&p.module, interp.mem());
        for workers in [1, 2, 4] {
            let rt = Runtime::from_shared(Arc::clone(&p), Arc::clone(&exec))
                .workers(workers)
                .cost_threshold(0);
            let out = rt.run_main().unwrap();
            assert_eq!(out.ret, seq_ret);
            assert_eq!(out.output, interp.output());
            assert!(
                out.stats.fallbacks[FallbackWhy::ScheduledSequential] >= 1,
                "{:?}",
                out.stats
            );
            assert_eq!(out.stats.pipelined_loops, 0, "{:?}", out.stats);
            let got = observable_globals(&p.module, &out.mem);
            assert_eq!(globals_identical_mismatch(&want, &got), None);
        }
    }
}

#[test]
fn reduction_smoke() {
    let p = compile(
        r#"
        double s; double v[512];
        void init() { int i; for (i = 0; i < 512; i++) { v[i] = 0.5; } }
        void k() {
            int i;
            #pragma omp parallel for reduction(+: s)
            for (i = 0; i < 512; i++) { s += v[i] * 2.0; }
        }
        int main() { init(); k(); print_f64(s); return 0; }
        "#,
    )
    .unwrap();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let rt = Runtime::new(&p, &plan).workers(4).cost_threshold(0);
    let out = rt.run_main().unwrap();
    assert!(
        out.stats.chunked_loops >= 1,
        "{:?} realization {:?}",
        out.stats,
        rt.realization()
    );
    assert_eq!(out.output.len(), interp.output().len());
    for (a, b) in out.output.iter().zip(interp.output()) {
        assert!(pspdg_runtime::line_equivalent(a, b), "{a} vs {b}");
    }
}

#[test]
fn gated_activation_pays_no_fork_traffic() {
    // Regression: the activation cost gate must fire *before* worker
    // heaps are forked or pool jobs dispatched — a gated activation
    // contributes zero CoW pages, fork bytes, committed cells, and pool
    // dispatches, so `BENCH_runtime.json`'s fork-volume counters can't
    // report phantom traffic for kernels that run fully inline.
    let p = compile(
        r#"
        int v[24]; int s;
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 24; i++) { v[i] = i * 3; s += i; }
        }
        int main() { k(); return v[7]; }
        "#,
    )
    .unwrap();
    let mut interp = Interpreter::new(&p.module);
    let seq_ret = interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::OpenMp, 0.01);
    let rt = Runtime::new(&p, &plan).workers(4); // default gates on
    let out = rt.run_main().unwrap();
    assert_eq!(out.ret, seq_ret);
    assert!(
        out.stats.fallbacks[FallbackWhy::BelowCostThreshold] >= 1,
        "the tiny activation must be gated: {:?}",
        out.stats
    );
    assert_eq!(out.stats.chunked_loops, 0, "{:?}", out.stats);
    assert_eq!(
        (
            out.stats.cow_pages,
            out.stats.fork_bytes(),
            out.stats.fork_cells_committed,
            out.stats.pool_dispatches
        ),
        (0, 0, 0, 0),
        "a gated activation must leave no fork/pool traces: {:?}",
        out.stats
    );
}

#[test]
fn cost_model_gates_short_activations() {
    // 16 iterations of a tiny body: far below the default threshold, so
    // the activation must run inline — and say why.
    let p = compile(
        r#"
        int v[16];
        void k() { int i; for (i = 0; i < 16; i++) { v[i] = i; } }
        int main() { k(); return v[3]; }
        "#,
    )
    .unwrap();
    let mut interp = Interpreter::new(&p.module);
    let seq_ret = interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let rt = Runtime::new(&p, &plan).workers(4);
    let out = rt.run_main().unwrap();
    assert_eq!(out.ret, seq_ret);
    assert_eq!(out.stats.chunked_loops, 0, "{:?}", out.stats);
    assert!(
        out.stats.fallbacks[FallbackWhy::BelowCostThreshold] >= 1,
        "the gate must record its reason: {:?}",
        out.stats
    );
    assert_eq!(out.stats.pool_dispatches, 0, "no parallel setup paid");
    // The same activation parallelizes once the gate is off.
    let rt = Runtime::new(&p, &plan).workers(4).cost_threshold(0);
    let out = rt.run_main().unwrap();
    assert_eq!(out.stats.chunked_loops, 1, "{:?}", out.stats);
    assert!(out.stats.pool_dispatches >= 2);
}

/// `main` calls a function with a 4096-cell local array 200 times: each
/// return releases the frame's array, so the heap ends holding only the
/// globals' cells, on the master as in the interpreter.
#[test]
fn returning_frames_release_their_stack_objects() {
    let p = compile(
        r#"
        int out[8];
        int fill(int n) {
            int a[4096]; int j;
            for (j = 0; j < 4; j++) { a[j * 1000] = n + j; }
            return a[0] + a[3000];
        }
        int main() {
            int i; int s;
            s = 0;
            for (i = 0; i < 200; i++) { s = s + fill(i); out[i % 8] = s; }
            return s;
        }
        "#,
    )
    .unwrap();
    let mut interp = Interpreter::new(&p.module);
    let seq_ret = interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let out = Runtime::new(&p, &plan).workers(2).run_main().unwrap();
    assert_eq!(out.ret, seq_ret);
    let global_cells: usize = p
        .module
        .global_ids()
        .map(|g| p.module.global(g).ty.flat_len() as usize)
        .sum();
    for mem in [interp.mem(), &out.mem] {
        let cells: usize = mem.objects().map(|(obj, _)| mem.object_len(obj)).sum();
        assert_eq!(cells, global_cells);
    }
}
