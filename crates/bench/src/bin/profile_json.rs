//! End-to-end profiling driver: runs the runtime suite with one
//! [`Recorder`] threaded through the whole Fig. 2 pipeline — PS-PDG
//! build, plan enumeration, schedule lowering, and every runtime
//! activation — and exports the result three ways:
//!
//! * `profile_trace.json` — Chrome trace-event JSON; load it in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to see
//!   the pipeline phases, per-loop activations and worker lanes on a
//!   timeline;
//! * `profile_metrics.json` — the recorder's totals: counters and
//!   per-name span summaries;
//! * stdout — the flat "top opcodes / top spans" report. The opcode
//!   table is not recorded: it is the oracle run's per-block counts times
//!   each block's static mix (`Profile::opcode_counts`), summed over the
//!   suite.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p pspdg-bench --bin profile_json [-- OUTDIR [--smoke]]
//! ```
//!
//! `OUTDIR` defaults to `target/profile`. `--smoke` switches to the
//! `Class::Test` suite and asserts the observability acceptance gates:
//! an opcode table that accounts for every oracle step and a
//! structurally valid (parse + per-lane nesting) Chrome trace that holds
//! every span recorded (none dropped), the pipeline and activation spans
//! among them. What carrying the recorder costs
//! is measured once, by `bench_runtime_json`.

use std::collections::BTreeMap;
use std::sync::Arc;

use pspdg_core::{build_pspdg_module_recorded, FeatureSet};
use pspdg_ir::interp::{Interpreter, NullSink};
use pspdg_nas::{runtime_suite, Class};
use pspdg_obs::{json, Recorder, DROPPED_EVENTS};
use pspdg_parallelizer::{plan_built_recorded, realize_executable_recorded, Abstraction};
use pspdg_runtime::Runtime;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "target/profile".to_string());
    let class = if smoke { Class::Test } else { Class::Mini };
    let workers = pspdg_pool::default_width().max(2);

    let rec = Arc::new(Recorder::new());
    let mut opcodes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut oracle_steps = 0u64;
    for b in &runtime_suite(class) {
        let mut kernel_span = rec.span("pipeline/kernel", "pipeline");
        kernel_span.arg("kernel", b.name);
        let p = b.program();
        let mut oracle = Interpreter::new(&p.module);
        oracle
            .run_main(&mut NullSink)
            .unwrap_or_else(|e| panic!("{}: sequential oracle failed: {e}", b.name));
        oracle_steps += oracle.profile().total;
        for (op, n) in oracle.profile().opcode_counts(&p.module, None) {
            *opcodes.entry(op).or_default() += n;
        }
        let built = build_pspdg_module_recorded(&p, FeatureSet::all(), Some(&rec));
        let plan = plan_built_recorded(
            &p,
            &built,
            oracle.profile(),
            Abstraction::PsPdg,
            0.01,
            Some(&rec),
        );
        let exec = realize_executable_recorded(&p, &built, &plan, Some(&rec));
        let rt = Runtime::from_shared(Arc::new(p), Arc::new(exec))
            .workers(workers)
            .recorder(Arc::clone(&rec));
        rt.run_main()
            .unwrap_or_else(|e| panic!("{}: profiled run failed: {e}", b.name));
    }

    let snap = rec.snapshot();
    std::fs::create_dir_all(&out_dir).expect("create profile output dir");
    let trace_path = format!("{out_dir}/profile_trace.json");
    let metrics_path = format!("{out_dir}/profile_metrics.json");
    let trace = snap.chrome_trace_json();
    std::fs::write(&trace_path, &trace).expect("write trace");
    std::fs::write(&metrics_path, snap.metrics_json()).expect("write metrics");

    let derived: u64 = opcodes.values().sum();
    let mut ranked: Vec<_> = opcodes.into_iter().collect();
    ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("== top opcodes ({derived} dynamic instructions) ==");
    for (op, n) in ranked.iter().take(10) {
        let pct = 100.0 * *n as f64 / derived.max(1) as f64;
        println!("  {op:<10} {n:>12}  {pct:5.1}%");
    }
    print!("{}", snap.text_report(10));
    println!("trace:   {trace_path}  (load in https://ui.perfetto.dev)");
    println!("metrics: {metrics_path}");

    if !smoke {
        return;
    }

    // --- smoke gates -----------------------------------------------------
    assert!(
        derived > 0 && derived == oracle_steps,
        "--smoke: opcode table ({derived}) must account for every oracle step ({oracle_steps})"
    );
    assert!(
        !snap.counters.iter().any(|(n, _)| n == DROPPED_EVENTS),
        "--smoke: the trace dropped events: {:?}",
        snap.counters
    );
    let check = json::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("--smoke: trace must parse and nest: {e}"));
    assert!(
        check.spans > 0 && check.max_depth >= 2,
        "--smoke: trace must contain nested spans: {check:?}"
    );
    // Pipeline phases and runtime activations are both present.
    for needle in ["pspdg/pdg_build", "plan/enumerate", "plan/schedule"] {
        assert!(
            snap.events.iter().any(|e| e.name == needle),
            "--smoke: span {needle} missing from the stream"
        );
    }
    assert!(
        snap.events
            .iter()
            .any(|e| e.name.starts_with("runtime/activation/")),
        "--smoke: no runtime activation spans recorded"
    );

    println!("profile smoke OK");
}
