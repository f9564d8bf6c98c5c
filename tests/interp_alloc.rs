//! Allocation counts that must not scale: neither interpreter allocates
//! per executed instruction, and the planner does not allocate per
//! (loop × function edge).
//!
//! The same loop kernel — loads, stores and geps on a global array, a
//! `sqrt` intrinsic call — runs at trip count N and at 8N; the number of
//! heap allocations must be the *same*, under the sequential oracle with
//! the sink that elides tracing, with a sink that reads every step's
//! cells, and under a one-worker `Runtime`. A count is deterministic where
//! an Msteps/s floor would depend on the host. (Thread-local
//! counting-allocator idiom of `crates/obs/tests/recorder.rs`.) The ideal
//! machine keeps its register finish times per live frame, not per step,
//! so the one table of it that grows with the trace is the last finish per
//! lane: `emulate` may differ between N and 8N only by that map's
//! doublings. What tracing adds does not grow with the calls either: a
//! traced run reuses one loads/stores scratch across every call frame.
//!
//! The same counter tells an emulation from a wait: of the threads that ask
//! a fresh `PlanBundle` for its predicted parallelism at the same moment,
//! one allocates what an emulation allocates and the rest next to nothing.
//!
//! `synth::wide(n)` is one function of `n` sibling loops over `n` arrays,
//! so doubling `n` doubles both the loops and the function's edges. A
//! planner that reads each loop through the shared dependence view
//! allocates in proportion to the loops; one that copies the function's
//! graph per loop (as `Pdg::filtered` did: 3.62× from `wide(32)` to
//! `wide(64)` under PDG and J&K) allocates in proportion to the product.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pspdg::core::{build_pspdg_module, FeatureSet};
use pspdg::emulator::emulate;
use pspdg::frontend::compile;
use pspdg::ir::interp::{Interpreter, NullSink, Step, TraceSink};
use pspdg::nas::synth;
use pspdg::obs::Recorder;
use pspdg::parallel::ParallelProgram;
use pspdg::parallelizer::{build_plan, plan_built, Abstraction};
use pspdg::runtime::Runtime;
use pspdg::Session;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread (`const`-initialised and
    /// destructor-free, so the allocator hooks can touch it).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// A tracing sink that reads every step's cells and keeps nothing.
struct CountingSink(usize);

impl TraceSink for CountingSink {
    fn on_step(&mut self, step: &Step<'_>) {
        self.0 += step.loads.len() + step.stores.len();
    }
}

fn kernel(trip: usize) -> ParallelProgram {
    compile(&format!(
        "double a[64];
         int main() {{
             int i;
             for (i = 0; i < {trip}; i++) {{ a[i % 64] = sqrt(a[(i + 1) % 64] + 1.5); }}
             return 0;
         }}"
    ))
    .expect("compiles")
}

/// Allocations `run` makes on this thread.
fn allocs_during(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    run();
    ALLOCS.get() - before
}

#[test]
fn allocations_do_not_scale_with_executed_instructions() {
    const N: usize = 500;
    let counts = [N, 8 * N].map(|trip| {
        let p = kernel(trip);
        let mut interp = Interpreter::new(&p.module);
        let oracle = allocs_during(|| {
            interp.run_main(&mut NullSink).expect("runs");
        });
        let steps = interp.steps();
        let mut traced_interp = Interpreter::new(&p.module);
        let traced = allocs_during(|| {
            traced_interp.run_main(&mut CountingSink(0)).expect("runs");
        });
        let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
        let rt = Runtime::new(&p, &plan).workers(1);
        let mut out = None;
        let runtime = allocs_during(|| out = Some(rt.run_main().expect("runs")));
        assert_eq!(out.expect("ran").steps, steps);
        // One lane per iteration, so the lane table grows with the trip too.
        assert_eq!(plan.len(), 1, "the loop is planned");
        let emulator = allocs_during(|| {
            assert_eq!(emulate(&p, &plan).expect("emulates").total_steps, steps);
        });
        (steps, [oracle, traced, runtime], emulator)
    });
    let [(steps_n, flat_n, emulator_n), (steps_8n, flat_8n, emulator_8n)] = counts;
    assert!(
        steps_8n > 7 * steps_n,
        "the longer run executes ~8x the steps"
    );
    assert_eq!(
        flat_n, flat_8n,
        "(untraced ir::interp, traced ir::interp, Runtime) allocations at N vs 8N"
    );
    // 8x the lanes: three doublings of the lane map (123 -> 126 measured).
    assert!(
        emulator_8n <= emulator_n + 3,
        "emulate allocations: {emulator_n} at N, {emulator_8n} at 8N"
    );
}

/// A traced run keeps one loads/stores scratch for the whole run, not one
/// per call frame: a loop calling a leaf that loads and stores a global
/// costs the same extra allocations over the untraced run at N calls and
/// at 8N.
#[test]
fn traced_run_scratch_is_per_run_not_per_call() {
    const N: usize = 200;
    let [at_n, at_8n] = [N, 8 * N].map(|calls| {
        let p = compile(&format!(
            "int g;
             void leaf() {{ g = g + 1; }}
             int main() {{
                 int i;
                 for (i = 0; i < {calls}; i++) {{ leaf(); }}
                 return g;
             }}"
        ))
        .expect("compiles");
        let untraced = allocs_during(|| {
            Interpreter::new(&p.module)
                .run_main(&mut NullSink)
                .expect("runs");
        });
        let traced = allocs_during(|| {
            Interpreter::new(&p.module)
                .run_main(&mut CountingSink(0))
                .expect("runs");
        });
        traced - untraced
    });
    assert_eq!(at_n, at_8n, "traced minus untraced allocations, N vs 8N");
}

/// What an *enabled* recorder adds to a one-worker run is paid per span —
/// the run and each loop activation — never per block or per step: the
/// same three activations of a DOALL loop cost the same extra allocations
/// at trip N and at 8N. Once every span name has a total, a repeat run on
/// the same runtime and recorder allocates only each activation's
/// formatted name, and nothing for `runtime/run`. Without a recorder a
/// run records nothing: absent is the only off state.
#[test]
fn enabled_recorder_allocations_scale_with_activations_not_steps() {
    const N: usize = 500;
    const ACTIVATIONS: u64 = 3;
    let [at_n, at_8n] = [N, 8 * N].map(|trip| {
        let p = compile(&format!(
            "double v[4096];
             void k() {{
                 int i;
                 for (i = 0; i < {trip}; i++) {{ v[i] = v[i] * 0.5 + 1.0; }}
             }}
             int main() {{ k(); k(); k(); return 0; }}"
        ))
        .expect("compiles");
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).expect("runs");
        let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
        let absent = Runtime::new(&p, &plan).workers(1);
        let rec = Arc::new(Recorder::new());
        let enabled = Runtime::new(&p, &plan)
            .workers(1)
            .recorder(Arc::clone(&rec));
        let without = allocs_during(|| {
            absent.run_main().expect("runs");
        });
        let with = allocs_during(|| {
            enabled.run_main().expect("runs");
        });
        let spans: u64 = rec.totals().span_summary().iter().map(|s| s.1).sum();
        let repeat = allocs_during(|| {
            enabled.run_main().expect("runs");
        });
        (with - without, spans, repeat - without)
    });
    let (_, spans, repeat) = at_n;
    assert_eq!(spans, 1 + ACTIVATIONS, "the run and three activations");
    assert_eq!(at_8n, at_n, "(extra allocations, spans, repeat) at 8N vs N");
    assert!(
        repeat <= ACTIVATIONS,
        "a repeat run allocated {repeat} times for {ACTIVATIONS} activations"
    );
}

#[test]
fn planning_allocations_scale_with_loops_not_loops_times_edges() {
    for a in Abstraction::ALL {
        let [narrow, wide] = [32, 64].map(|bases| {
            let p = synth::wide(bases).program();
            let mut interp = Interpreter::new(&p.module);
            interp.run_main(&mut NullSink).expect("runs");
            let built = build_pspdg_module(&p, FeatureSet::all());
            let k = p.module.function_by_name("k").expect("kernel function");
            let k = built.iter().find(|f| f.func == k).expect("k was built");
            // A one-function slice keeps `par_map` inline, so this
            // thread's count sees every allocation the planner makes.
            let mut loops = 0;
            let allocs = allocs_during(|| {
                let only_k = std::slice::from_ref(k);
                loops = plan_built(&p, only_k, interp.profile(), a, 0.01).len();
            });
            (loops, allocs)
        });
        assert_eq!(wide.0, 2 * narrow.0, "{a}: twice the planned loops");
        assert!(
            2 * wide.1 <= 5 * narrow.1,
            "{a}: {} allocations on wide(32), {} on wide(64): more than 2.5x",
            narrow.1,
            wide.1
        );
    }
}

#[test]
fn concurrent_first_callers_of_predicted_parallelism_share_one_emulation() {
    const CALLERS: usize = 4;
    // Long enough (~200k dynamic instructions) that every caller released
    // by the barrier arrives while the first emulation is still running.
    let session = Session::from_program(kernel(16_384)).expect("profiles");
    let program = session.program();
    // What one emulation allocates, on a bundle of its own (a second
    // session's, so the bundle the callers share is still fresh).
    let solo = Session::from_program(kernel(16_384))
        .expect("profiles")
        .plan(Abstraction::PsPdg);
    let mut want = 0.0;
    let one_emulation =
        allocs_during(|| want = solo.predicted_parallelism(program).expect("emulates"));
    assert!(one_emulation > 50, "an emulation is recognisable");

    let bundle = session.plan(Abstraction::PsPdg);
    let barrier = std::sync::Barrier::new(CALLERS);
    let paid: Vec<u64> = std::thread::scope(|s| {
        let call = || {
            barrier.wait();
            allocs_during(|| {
                let got = bundle.predicted_parallelism(program).expect("emulates");
                assert_eq!(got, want);
            })
        };
        let callers: Vec<_> = (0..CALLERS).map(|_| s.spawn(call)).collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("called"))
            .collect()
    });
    let emulated = paid.iter().filter(|n| **n > one_emulation / 2).count();
    assert_eq!(emulated, 1, "allocations per caller: {paid:?}");
}
