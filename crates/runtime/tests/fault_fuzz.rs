//! Fault-injection differential suite: every recovery path, provable on
//! demand.
//!
//! Directed tests cover each `FaultKind` × injection-site family with the
//! sequential interpreter as oracle (final heaps **bit-identical** on the
//! integer/critical kernels used here — fallback re-runs are exact, DOALL
//! per-cell commits are exact, and critical replay preserves sequential
//! association), plus correct `FallbackCounts` attribution and a
//! still-usable `Runtime` afterward. The fuzz loop then drives random
//! seeded `FaultPlan`s across the whole kernel suite × plan abstractions
//! × worker counts. Seed the fuzz loop via `FAULT_FUZZ_SEED` (CI pins it
//! for determinism).

use std::collections::HashSet;
use std::sync::Arc;

use pspdg_frontend::compile;
use pspdg_ir::interp::{Interpreter, NullSink};
use pspdg_nas::{fault_suite, synth, Class};
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{build_plan, Abstraction, ProgramPlan};
use pspdg_runtime::{
    globals_identical_mismatch, globals_mismatch, line_equivalent, observable_globals,
    rtval_equivalent, FallbackCounts, FaultInjector, FaultKind, FaultPlan, FaultSite, RunOutcome,
    Runtime,
};

/// Sequential oracle: return value, printed lines, observable globals.
struct Oracle {
    ret: Option<pspdg_ir::interp::RtVal>,
    output: Vec<String>,
    globals: Vec<(String, Vec<pspdg_ir::interp::RtVal>)>,
    plan_pspdg: ProgramPlan,
    plan_openmp: ProgramPlan,
}

fn oracle(p: &ParallelProgram) -> Oracle {
    let mut interp = Interpreter::new(&p.module);
    let ret = interp.run_main(&mut NullSink).expect("oracle runs");
    Oracle {
        ret,
        output: interp.output().to_vec(),
        globals: observable_globals(&p.module, interp.mem()),
        plan_pspdg: build_plan(p, interp.profile(), Abstraction::PsPdg, 0.01),
        plan_openmp: build_plan(p, interp.profile(), Abstraction::OpenMp, 0.01),
    }
}

/// Assert a runtime outcome matches the oracle: exact ints/bools, floats
/// within rtol (parallel reductions re-associate); when the run reports
/// zero parallel activations, everything executed sequentially and the
/// heap and output must match **bit-for-bit**.
fn assert_matches(name: &str, p: &ParallelProgram, o: &Oracle, out: &RunOutcome, ctx: &str) {
    assert!(
        rtval_equivalent(
            out.ret.unwrap_or(pspdg_ir::interp::RtVal::Undef),
            o.ret.unwrap_or(pspdg_ir::interp::RtVal::Undef),
        ),
        "{name} [{ctx}]: ret {:?} vs oracle {:?}",
        out.ret,
        o.ret
    );
    assert_eq!(
        out.output.len(),
        o.output.len(),
        "{name} [{ctx}]: output length"
    );
    for (a, b) in out.output.iter().zip(&o.output) {
        assert!(line_equivalent(a, b), "{name} [{ctx}]: line {a} vs {b}");
    }
    let got = observable_globals(&p.module, &out.mem);
    assert_eq!(
        globals_mismatch(&o.globals, &got),
        None,
        "{name} [{ctx}]: globals diverge (stats {:?})",
        out.stats
    );
    if out.stats.chunked_loops == 0 {
        // Fully sequential run (every parallel attempt fell back): the
        // fallback-parity contract is bit-exactness, not tolerance.
        assert_eq!(
            globals_identical_mismatch(&o.globals, &got),
            None,
            "{name} [{ctx}]: sequential run must be bit-identical"
        );
        assert_eq!(out.output, o.output, "{name} [{ctx}]: exact output");
    }
}

/// An integer two-loop DOALL kernel: both loops chunk under a PS-PDG
/// plan with the gate off, and every committed cell is an integer, so
/// the final heap is bit-identical even when activations parallelize.
fn doall_program() -> ParallelProgram {
    compile(
        r#"
        int v[512]; int w[512];
        void k() {
            int i;
            for (i = 0; i < 512; i++) { v[i] = i * 3 + 1; }
            for (i = 0; i < 512; i++) { w[i] = v[i] * 2 + 5; }
        }
        int main() { k(); return (v[100] + w[501]) % 251; }
        "#,
    )
    .unwrap()
}

/// A faulted runtime for `p` with the cost gate off.
fn faulted_runtime(
    p: &ParallelProgram,
    plan: &ProgramPlan,
    workers: usize,
    inj: &Arc<FaultInjector>,
) -> Runtime {
    Runtime::new(p, plan)
        .workers(workers)
        .cost_threshold(0)
        .fault_injector(Arc::clone(inj))
}

/// Run the directed scenario twice on one runtime: the faulting first run
/// must match the oracle and attribute the fault; the second (clean —
/// every injection is spent) run must also match, report zero injected
/// faults, and prove the runtime healed.
fn directed(
    name: &str,
    p: &ParallelProgram,
    site: FaultSite,
    kind: FaultKind,
    check: impl Fn(&RunOutcome),
) {
    let o = oracle(p);
    let inj = FaultInjector::arm(FaultPlan::single(site, kind));
    let rt = faulted_runtime(p, &o.plan_pspdg, 4, &inj);
    let ids_before: HashSet<_> = rt.worker_thread_ids().into_iter().collect();

    let out = rt.run_main().expect("faulted run completes");
    assert_eq!(inj.fired_total(), 1, "{name}: the injection must fire");
    assert_eq!(out.stats.injected_faults, 1, "{name}: {:?}", out.stats);
    assert_matches(name, p, &o, &out, "faulted run");
    // These kernels are integer/critical-only: bit-identical even when
    // the non-faulted activations parallelized.
    let got = observable_globals(&p.module, &out.mem);
    assert_eq!(
        globals_identical_mismatch(&o.globals, &got),
        None,
        "{name}: final heap must be bit-identical to the interpreter"
    );
    check(&out);

    // Reuse: the same runtime, now with the injection spent, runs clean.
    let clean = rt.run_main().expect("clean rerun completes");
    assert_eq!(clean.stats.injected_faults, 0, "{name}: injection spent");
    assert_eq!(
        fault_cause_total(&clean.stats.fallbacks),
        0,
        "{name}: clean rerun must have no fault-caused fallbacks: {:?}",
        clean.stats
    );
    assert_matches(name, p, &o, &clean, "clean rerun");
    let ids_after: HashSet<_> = rt.worker_thread_ids().into_iter().collect();
    assert_eq!(
        ids_after, ids_before,
        "{name}: the same pool threads serve the clean rerun"
    );
}

/// Sum of the fallback causes only faults (organic or injected) produce.
fn fault_cause_total(c: &FallbackCounts) -> u64 {
    c.worker_fault + c.speculation_fault + c.replay_fault + c.irregular_control
}

// ---- directed: FaultKind × site family --------------------------------

#[test]
fn chunk_worker_panic_falls_back_and_heals() {
    let p = doall_program();
    directed(
        "chunk-panic",
        &p,
        FaultSite::ChunkWorker(0),
        FaultKind::WorkerPanic,
        |out| {
            assert!(out.stats.fallbacks.worker_fault >= 1, "{:?}", out.stats);
        },
    );
}

#[test]
fn chunk_worker_fault_falls_back_and_heals() {
    let p = doall_program();
    directed(
        "chunk-fault",
        &p,
        FaultSite::ChunkWorker(5),
        FaultKind::WorkerFault,
        |out| {
            assert!(out.stats.fallbacks.worker_fault >= 1, "{:?}", out.stats);
        },
    );
}

#[test]
fn speculation_fault_in_critical_slice_falls_back() {
    let p = synth::gmax(Class::Test).program();
    directed(
        "crit-spec",
        &p,
        FaultSite::CritSlice(0),
        FaultKind::SpeculationFault,
        |out| {
            assert!(
                out.stats.fallbacks.speculation_fault >= 1,
                "{:?}",
                out.stats
            );
        },
    );
}

#[test]
fn replay_packet_fault_discards_staging_heap() {
    let p = synth::gmax(Class::Test).program();
    directed(
        "replay-fault",
        &p,
        FaultSite::ReplayPacket(0),
        FaultKind::ReplayFault,
        |out| {
            assert!(out.stats.fallbacks.replay_fault >= 1, "{:?}", out.stats);
        },
    );
}

/// The one organic input known to reach a speculation fault: the guarded
/// division only runs sequentially when `v[i] > best >= 0`, but a chunk
/// worker's speculative slice suppresses the guard and divides by the
/// zero `v[i]` too.
#[test]
fn organic_speculation_fault_falls_back_to_the_oracle() {
    let p = compile(
        r#"
        int v[64]; int best; int q;
        int main() {
            int i;
            for (i = 0; i < 64; i++) { v[i] = (i * 7) % 13; }
            #pragma omp parallel for
            for (i = 0; i < 64; i++) {
                #pragma omp critical
                { if (v[i] > best) { best = v[i]; q = 100 / v[i]; } }
            }
            return best + q;
        }
        "#,
    )
    .unwrap();
    let o = oracle(&p);
    for workers in [2, 4] {
        let rt = Runtime::new(&p, &o.plan_openmp)
            .workers(workers)
            .cost_threshold(0);
        assert_eq!(rt.realization().chunked, 1, "the annotated loop is chunked");
        let out = rt.run_main().expect("the sequential re-run completes");
        assert!(
            out.stats.fallbacks.speculation_fault >= 1,
            "{workers} workers: {:?}",
            out.stats
        );
        assert_eq!(out.stats.injected_faults, 0);
        assert_matches("organic-spec", &p, &o, &out, &format!("{workers} workers"));
    }
}

// ---- satellites -------------------------------------------------------

#[test]
fn fallback_counts_serialization_is_complete() {
    // A new cause must flow through `table()` or fail here: the struct
    // must be exactly CAUSES u64 fields (a new field changes the size),
    // and a literal construction (no `..Default::default()`) with
    // distinct values must surface each field under a unique name.
    assert_eq!(
        std::mem::size_of::<FallbackCounts>(),
        FallbackCounts::CAUSES * std::mem::size_of::<u64>(),
        "FallbackCounts gained or lost a field; update CAUSES and table()"
    );
    let c = FallbackCounts {
        scheduled_sequential: 1,
        short_trip: 2,
        single_worker: 3,
        below_cost_threshold: 4,
        unevaluable: 5,
        irregular_control: 6,
        worker_fault: 7,
        speculation_fault: 8,
        replay_fault: 9,
    };
    let table = c.table();
    assert_eq!(table.len(), FallbackCounts::CAUSES);
    let names: HashSet<&str> = table.iter().map(|(n, _)| *n).collect();
    assert_eq!(names.len(), table.len(), "cause names must be unique");
    let values: Vec<u64> = table.iter().map(|(_, v)| *v).collect();
    assert_eq!(
        values,
        (1..=FallbackCounts::CAUSES as u64).collect::<Vec<_>>(),
        "table() must visit every field exactly once, in field order"
    );
    assert_eq!(c.nonzero().len(), FallbackCounts::CAUSES);
    assert!(FallbackCounts::default().nonzero().is_empty());
}

#[test]
fn runtime_reuse_after_fallback_restores_baseline_fork_volume() {
    // Satellite: faulting run, then clean run on the same Runtime — same
    // pool threads, clean stats, and fork volume (cow_pages/fork_bytes)
    // back to the baseline of a never-faulted runtime.
    let p = doall_program();
    let o = oracle(&p);
    let baseline_rt = Runtime::new(&p, &o.plan_pspdg).workers(4).cost_threshold(0);
    let baseline = baseline_rt.run_main().expect("baseline runs");
    assert!(baseline.stats.chunked_loops >= 2, "{:?}", baseline.stats);

    let inj = FaultInjector::arm(FaultPlan::single(
        FaultSite::ChunkWorker(0),
        FaultKind::WorkerPanic,
    ));
    let rt = faulted_runtime(&p, &o.plan_pspdg, 4, &inj);
    let ids_before: HashSet<_> = rt.worker_thread_ids().into_iter().collect();
    let faulted = rt.run_main().expect("faulted run completes");
    assert!(faulted.stats.fallbacks.worker_fault >= 1);

    let clean = rt.run_main().expect("clean run completes");
    assert_eq!(
        rt.worker_thread_ids().into_iter().collect::<HashSet<_>>(),
        ids_before,
        "the same pool threads serve the post-fault run"
    );
    assert_eq!(clean.stats.injected_faults, 0);
    assert_eq!(
        fault_cause_total(&clean.stats.fallbacks),
        0,
        "{:?}",
        clean.stats
    );
    // No leaked fork pages: the clean run's fork volume equals a
    // never-faulted runtime's, not baseline-plus-residue.
    assert_eq!(
        (clean.stats.cow_pages, clean.stats.fork_bytes()),
        (baseline.stats.cow_pages, baseline.stats.fork_bytes()),
        "fork volume must return to baseline after a fault"
    );
    assert_eq!(clean.stats.chunked_loops, baseline.stats.chunked_loops);
    assert_matches("reuse", &p, &o, &clean, "post-fault clean run");
}

// ---- fuzz loop --------------------------------------------------------

/// Map a fired single injection to the stat that must record it.
fn assert_attributed(name: &str, site: FaultSite, kind: FaultKind, out: &RunOutcome) {
    let c = &out.stats.fallbacks;
    match (kind, site) {
        (FaultKind::WorkerPanic | FaultKind::WorkerFault, FaultSite::ChunkWorker(_)) => {
            assert!(c.worker_fault >= 1, "{name}: {:?}", out.stats);
        }
        (FaultKind::SpeculationFault, _) => {
            assert!(c.speculation_fault >= 1, "{name}: {:?}", out.stats);
        }
        (FaultKind::ReplayFault, _) => {
            assert!(c.replay_fault >= 1, "{name}: {:?}", out.stats);
        }
        // Remaining pairs are rejected by FaultPlan::inject's validation.
        (kind, site) => unreachable!("invalid injection fired: {kind:?} at {site:?}"),
    }
}

#[test]
fn fuzz_random_fault_schedules_across_the_suite() {
    let base_seed: u64 = std::env::var("FAULT_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC60_2026);
    let mut fired_some = 0u64;
    for bench in fault_suite(Class::Test) {
        let p = bench.program();
        let o = oracle(&p);
        for (ai, plan) in [&o.plan_pspdg, &o.plan_openmp].into_iter().enumerate() {
            for round in 0..3u64 {
                let seed = base_seed
                    ^ (round.wrapping_mul(0x9E37_79B9))
                    ^ ((ai as u64) << 17)
                    ^ ((bench.name.len() as u64) << 33)
                    ^ u64::from(bench.name.as_bytes()[0]);
                let plan_rand = FaultPlan::random(seed);
                let workers = [2, 4, 3][round as usize];
                let inj = FaultInjector::arm(plan_rand.clone());
                let rt = faulted_runtime(&p, plan, workers, &inj);
                let ctx = format!(
                    "seed {seed:#x}, workers {workers}, abstraction {}, plan {:?}",
                    if ai == 0 { "pspdg" } else { "openmp" },
                    plan_rand
                );
                let out = rt.run_main().expect("faulted run completes");
                assert_matches(bench.name, &p, &o, &out, &ctx);
                assert_eq!(
                    out.stats.injected_faults,
                    inj.fired_total(),
                    "{}: [{ctx}]",
                    bench.name
                );
                let fired = inj.fired();
                fired_some += fired.len() as u64;
                // Attribution is only unambiguous for single-injection
                // schedules (with several faults on one activation only
                // the first abort names the cause).
                if let [only] = fired.as_slice() {
                    assert_attributed(bench.name, only.site, only.kind, &out);
                }
            }
        }
    }
    assert!(
        fired_some >= 10,
        "the fuzz schedules are expected to actually fire faults ({fired_some})"
    );
}
