//! Writes `BENCH_runtime.json`: per-kernel predicted-vs-measured numbers
//! for the parallel runtime — the sequential interpreter's wall time, the
//! plan-driven runtime's wall time under the PS-PDG best plan, the
//! ideal-machine emulator's predicted parallelism for the same plan, the
//! plan's realization (how many loops chunked / fell back to
//! sequential), and the runtime-overhead counters introduced with the
//! persistent-pool/CoW substrate: per-cause dynamic fallback counts, pool
//! dispatches, copy-on-write fork volume, and the critical-replay
//! counters (operand packets logged, store instances applied).
//!
//! The measured suite is [`pspdg_nas::runtime_suite`]: the eight NAS
//! kernels plus GMAX, whose guarded argmax/argmin criticals exercise the
//! commit-time critical replay, guards re-decided on the true heap.
//!
//! A kernel that fails its correctness gate (or faults) is **skipped and
//! recorded**, never silently folded into the geomean: the geomean is
//! computed over the kernels actually timed, the skip list lands in the
//! JSON, and `--smoke` fails on any skip.
//!
//! Run from the repository root (or pass an output path):
//!
//! ```text
//! cargo run --release -p pspdg-bench --bin bench_runtime_json [-- OUT.json [--smoke]]
//! ```
//!
//! `--smoke` runs the `Class::Test` suite with one sample (CI wiring) and
//! additionally asserts the critical-replay invariants on GMAX: both
//! guarded-critical loops chunk with zero mutex fallbacks and replay
//! packets flow at commit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pspdg_emulator::{emulate, PredictedVsMeasured};
use pspdg_ir::interp::{Interpreter, NullSink, Step, TraceSink};
use pspdg_nas::{runtime_suite, Class};
use pspdg_obs::Recorder;
use pspdg_parallelizer::{build_plan, realize_executable, Abstraction};
use pspdg_runtime::{globals_mismatch, observable_globals, FallbackWhy, Runtime};

/// A sink that looks at every slice of every step and keeps nothing: what
/// the traced interpreter costs on its own, the floor under `emulate`.
struct CountingSink(usize);

impl TraceSink for CountingSink {
    fn on_step(&mut self, step: &Step<'_>) {
        self.0 += step.loads.len() + step.stores.len();
    }
}

fn one_run_ns<T>(f: &mut impl FnMut() -> T) -> u64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_nanos() as u64
}

/// A dynamic opcode table as a JSON object: the total and the per-opcode
/// counts, most frequent first.
fn opcodes_json(mut counts: Vec<(&'static str, u64)>) -> String {
    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    let rows: Vec<String> = counts
        .iter()
        .map(|(op, n)| format!("\"{op}\": {n}"))
        .collect();
    format!(
        "{{\"total\": {total}, \"counts\": {{{}}}}}",
        rows.join(", ")
    )
}

/// Geometric mean of `n` ratios from the sum of their logarithms (1.0,
/// "no change", over none).
fn geomean(ln_sum: f64, n: u32) -> f64 {
    (ln_sum / f64::from(n.max(1))).exp()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_runtime.json".to_string());
    let (class, samples) = if smoke {
        (Class::Test, 1)
    } else {
        (Class::Mini, 5)
    };
    let class_name = match class {
        Class::Test => "Test",
        Class::Mini => "Mini",
    };
    let workers = pspdg_pool::default_width().max(2);

    let mut rows = String::new();
    let mut speedup_ln_sum = 0.0f64;
    let mut engine_ln_sum = 0.0f64;
    let mut emulator_ln_sum = 0.0f64;
    let mut timed = 0u32;
    let mut skipped: Vec<(String, String)> = Vec::new();
    let mut gmax_checked = false;
    for b in &runtime_suite(class) {
        let p = Arc::new(b.program());
        // Profile once for plan construction and as the differential
        // oracle.
        let mut oracle = Interpreter::new(&p.module);
        if let Err(e) = oracle.run_main(&mut NullSink) {
            skipped.push((b.name.to_string(), format!("sequential oracle failed: {e}")));
            continue;
        }
        let plan = build_plan(&p, oracle.profile(), Abstraction::PsPdg, 0.01);
        let predicted = match emulate(&p, &plan) {
            Ok(r) => r.parallelism(),
            Err(e) => {
                skipped.push((b.name.to_string(), format!("emulation failed: {e}")));
                continue;
            }
        };
        let exec = Arc::new(realize_executable(&p, &plan));
        let realization = exec.stats();
        let rt = Runtime::from_shared(Arc::clone(&p), Arc::clone(&exec)).workers(workers);
        // The sequential baseline is the *same* engine with one worker
        // (every loop falls back), so the speedup isolates parallel
        // execution from engine overhead differences against `ir::interp`.
        let rt_seq = Runtime::from_shared(Arc::clone(&p), exec).workers(1);

        // Correctness gate before timing anything; a failing kernel is
        // recorded and skipped so it cannot skew the geomean.
        let outcome = match rt.run_main() {
            Ok(o) => o,
            Err(e) => {
                skipped.push((b.name.to_string(), format!("runtime failed: {e}")));
                continue;
            }
        };
        let seq_globals = observable_globals(&p.module, oracle.mem());
        let par_globals = observable_globals(&p.module, &outcome.mem);
        if let Some((global, cell)) = globals_mismatch(&seq_globals, &par_globals) {
            skipped.push((
                b.name.to_string(),
                format!("diverged from the sequential interpreter at {global}[{cell}]"),
            ));
            continue;
        }
        let stats = outcome.stats;
        if b.name == "GMAX" && smoke {
            // The critical-replay acceptance gate: both guarded-critical
            // loops chunk (no loop serialized on the mutex rule), packets
            // flow, and nothing faulted out of the replay path.
            assert!(
                stats.chunked_loops >= 2,
                "GMAX guarded loops must chunk: {stats:?}"
            );
            assert!(
                stats.critical_packets > 0 && stats.critical_replays > 0,
                "GMAX must replay critical packets at commit: {stats:?}"
            );
            assert_eq!(
                realization.sequential, 0,
                "GMAX must realize with zero mutex fallbacks: {realization:?}"
            );
            assert_eq!(
                (
                    stats.fallbacks[FallbackWhy::ScheduledSequential],
                    stats.fallbacks[FallbackWhy::SpeculationFault],
                    stats.fallbacks[FallbackWhy::ReplayFault]
                ),
                (0, 0, 0),
                "GMAX must run with zero mutex-related fallbacks: {stats:?}"
            );
            gmax_checked = true;
        }

        // Interleaved best-of timing: interpreter, one-worker runtime,
        // parallel runtime; then the emulation next to a traced run that
        // only counts.
        let (mut interp_ns, mut seq_ns, mut par_ns) = (u64::MAX, u64::MAX, u64::MAX);
        let (mut emulate_ns, mut traced_ns) = (u64::MAX, u64::MAX);
        for _ in 0..samples {
            emulate_ns = emulate_ns.min(one_run_ns(&mut || emulate(&p, &plan)));
            traced_ns = traced_ns.min(one_run_ns(&mut || {
                let mut sink = CountingSink(0);
                let mut i = Interpreter::new(&p.module);
                i.run_main(&mut sink).expect("kernel runs");
                sink.0
            }));
            interp_ns = interp_ns.min(one_run_ns(&mut || {
                let mut i = Interpreter::new(&p.module);
                i.run_main(&mut NullSink).expect("kernel runs");
            }));
            seq_ns = seq_ns.min(one_run_ns(&mut || {
                rt_seq.run_main().expect("runtime runs");
            }));
            par_ns = par_ns.min(one_run_ns(&mut || {
                rt.run_main().expect("runtime runs");
            }));
        }
        let row = PredictedVsMeasured {
            name: b.name.to_string(),
            predicted_parallelism: predicted,
            sequential_ns: seq_ns,
            parallel_ns: par_ns,
            fallback_reasons: stats
                .fallbacks
                .nonzero()
                .into_iter()
                .map(|(r, n)| (r.to_string(), n))
                .collect(),
        };
        println!(
            "{:<4} interp {:>11} ns  seq {:>11} ns  par {:>11} ns  speedup {:>6.3}x  predicted {:>8.2}x  loops: {} chunked / {} sequential  dyn: {} chunked / {} packets / {} replays / {} pool jobs / {} fallbacks [{}]",
            row.name,
            interp_ns,
            row.sequential_ns,
            row.parallel_ns,
            row.measured_speedup(),
            row.predicted_parallelism,
            realization.chunked,
            realization.sequential,
            stats.chunked_loops,
            stats.critical_packets,
            stats.critical_replays,
            stats.pool_dispatches,
            stats.sequential_fallbacks,
            row.fallback_summary(),
        );
        speedup_ln_sum += row.measured_speedup().max(1e-12).ln();
        engine_ln_sum += (seq_ns.max(1) as f64 / interp_ns.max(1) as f64).ln();
        emulator_ln_sum += (emulate_ns.max(1) as f64 / traced_ns.max(1) as f64).ln();
        timed += 1;
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let reasons: String = row
            .fallback_reasons
            .iter()
            .map(|(r, n)| format!("\"{r}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            rows,
            "    {{\"kernel\": \"{}\", \"interpreter_ns\": {}, \"sequential_ns\": {}, \"parallel_ns\": {}, \"measured_speedup\": {:.3}, \"predicted_parallelism\": {:.3}, \"emulate_ns\": {}, \"traced_interp_ns\": {}, \"loops_chunked\": {}, \"loops_sequential\": {}, \"dyn_chunked\": {}, \"dyn_fallbacks\": {}, \"dyn_fallback_reasons\": {{{}}}, \"pool_dispatches\": {}, \"critical_packets\": {}, \"critical_replays\": {}, \"fork_cells_committed\": {}, \"cow_pages\": {}, \"fork_bytes\": {}}}",
            row.name,
            interp_ns,
            row.sequential_ns,
            row.parallel_ns,
            row.measured_speedup(),
            row.predicted_parallelism,
            emulate_ns,
            traced_ns,
            realization.chunked,
            realization.sequential,
            stats.chunked_loops,
            stats.sequential_fallbacks,
            reasons,
            stats.pool_dispatches,
            stats.critical_packets,
            stats.critical_replays,
            stats.fork_cells_committed,
            stats.cow_pages,
            stats.fork_bytes(),
        );
    }

    // Profiled pass: re-run the suite with one recorder shared across
    // kernels (span summaries), plus a per-kernel overhead measurement —
    // absent vs attached recorder on the one-worker runtime, interleaved
    // best-of-samples — so the cost of recording is itself a recorded
    // number, not folklore. The opcode tables come off the oracle run's
    // profile. One pair is too few for a ratio on a loaded host, so the
    // overhead takes at least five.
    let overhead_samples = samples.max(5);
    let rec = Arc::new(Recorder::new());
    let mut suite_ops: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut oracle_steps = 0u64;
    let mut ena_ln_sum = 0.0f64;
    let mut prof_n = 0u32;
    let mut prof_rows = String::new();
    for b in &runtime_suite(class) {
        let p = b.program();
        let mut oracle = Interpreter::new(&p.module);
        if oracle.run_main(&mut NullSink).is_err() {
            continue; // already recorded as a skip above
        }
        let plan = build_plan(&p, oracle.profile(), Abstraction::PsPdg, 0.01);
        let rt_prof = Runtime::new(&p, &plan)
            .workers(workers)
            .recorder(Arc::clone(&rec));
        if rt_prof.run_main().is_err() {
            continue;
        }
        let rt_absent = Runtime::new(&p, &plan).workers(1);
        let rt_ena = Runtime::new(&p, &plan)
            .workers(1)
            .recorder(Arc::new(Recorder::new()));
        let (mut absent_ns, mut ena_ns) = (u64::MAX, u64::MAX);
        for _ in 0..overhead_samples {
            absent_ns = absent_ns.min(one_run_ns(&mut || rt_absent.run_main().expect("runs")));
            ena_ns = ena_ns.min(one_run_ns(&mut || rt_ena.run_main().expect("runs")));
        }
        let ena_ratio = ena_ns as f64 / absent_ns.max(1) as f64;
        ena_ln_sum += ena_ratio.max(1e-12).ln();
        prof_n += 1;
        println!(
            "PROFILE {:<4} seq absent {absent_ns:>11} ns  enabled {ena_ns:>11} ns ({ena_ratio:.4}x)",
            b.name
        );
        let per_kernel = oracle.profile().opcode_counts(&p.module, None);
        oracle_steps += oracle.profile().total;
        for &(op, n) in &per_kernel {
            *suite_ops.entry(op).or_default() += n;
        }
        if !prof_rows.is_empty() {
            prof_rows.push_str(",\n");
        }
        let _ = write!(
            prof_rows,
            "      {{\"kernel\": \"{}\", \"seq_absent_ns\": {absent_ns}, \"seq_enabled_ns\": {ena_ns}, \"opcodes\": {}}}",
            b.name,
            opcodes_json(per_kernel),
        );
    }
    let ena_geomean = geomean(ena_ln_sum, prof_n);
    let total_ops: u64 = suite_ops.values().sum();
    let spans_json: String = rec
        .totals()
        .span_summary()
        .iter()
        .take(12)
        .map(|(name, count, total, max)| {
            format!(
                "      {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"max_ns\": {max}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    println!(
        "recorder overhead geomean over {prof_n} kernels: enabled {ena_geomean:.4}x  ({total_ops} dynamic instructions in the opcode table)"
    );
    if smoke {
        assert_eq!(
            total_ops, oracle_steps,
            "--smoke: the derived opcode table must account for every oracle step"
        );
        assert!(
            ena_geomean < 1.15,
            "--smoke: recorder overhead out of bounds: enabled {ena_geomean:.4}x"
        );
    }

    // Geomean over the kernels actually timed — a skipped kernel must
    // surface as a skip, not silently deflate the mean.
    let speedup = geomean(speedup_ln_sum, timed);
    // The same instruction stream through both engines: what the runtime's
    // engine costs over the oracle before any parallelism.
    let engine_vs_oracle = geomean(engine_ln_sum, timed);
    println!("geomean measured speedup: {speedup:.3}x over {timed} timed kernels");
    println!("geomean one-worker runtime / sequential interpreter: {engine_vs_oracle:.3}x");
    let emulator_vs_traced = geomean(emulator_ln_sum, timed);
    println!("geomean emulate / counting traced run: {emulator_vs_traced:.3}x");
    for (name, why) in &skipped {
        eprintln!("SKIPPED {name}: {why}");
    }
    // Reasons embed arbitrary error Display text; escape for JSON.
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let skipped_json: String = skipped
        .iter()
        .map(|(name, why)| {
            format!(
                "{{\"kernel\": \"{}\", \"reason\": \"{}\"}}",
                esc(name),
                esc(why)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let opcodes_json = opcodes_json(suite_ops.into_iter().collect());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"suite\": \"NAS Class::{class_name} + GMAX\",\n  \"plan\": \"PS-PDG best plan (build_plan, threshold 0.01)\",\n  \"host_cores\": {host_cores},\n  \"workers\": {workers},\n  \"samples_per_entry\": {samples},\n  \"metric\": \"min wall ns over interleaved samples; runtime validated against the sequential interpreter before timing\",\n  \"sequential_ns\": \"the runtime engine with one worker (every loop sequential) — the like-for-like baseline\",\n  \"interpreter_ns\": \"the sequential interpreter run untraced (NullSink: profile counts and every check, no dependence bookkeeping), for reference; engine_vs_oracle_geomean is the geomean of sequential_ns / interpreter_ns\",\n  \"predicted_parallelism\": \"ideal-machine emulator, total dynamic instructions / plan-constrained critical path\",\n  \"emulate_ns\": \"that emulation (machine set-up + one traced run into the machine); traced_interp_ns is a traced run into a sink that only counts each step's slices, and emulator_vs_traced_geomean the geomean of emulate_ns / traced_interp_ns: what the machine costs on top of the trace it rides on\",\n  \"dyn_fallback_reasons\": \"per-cause counts of activations that ran sequentially (cost model, short trips, aborts, ...)\",\n  \"critical_packets\": \"operand packets logged at critical-region entries and replayed at commit\",\n  \"critical_replays\": \"protected store instances the master's commit-time replay executed\",\n  \"fork_bytes\": \"bytes actually copied for worker heap forks (copy-on-write pages materialized x page size)\",\n  \"kernels_timed\": {timed},\n  \"kernels_skipped\": [{skipped_json}],\n  \"geomean_measured_speedup\": {speedup:.3},\n  \"engine_vs_oracle_geomean\": {engine_vs_oracle:.3},\n  \"emulator_vs_traced_geomean\": {emulator_vs_traced:.3},\n  \"kernels\": [\n{rows}\n  ],\n  \"profiling_note\": \"one enabled recorder shared across a re-run of the suite ({workers} workers) for the span summaries; opcodes = the oracle run's per-block counts x each block's static instruction mix (Profile::opcode_counts), per kernel and summed; overhead = one-worker runtime with absent / enabled recorder, min over {overhead_samples} interleaved samples, geomean across kernels\",\n  \"profiling\": {{\n    \"enabled_overhead_geomean\": {ena_geomean:.4},\n    \"opcodes\": {opcodes_json},\n    \"spans\": [\n{spans_json}\n    ],\n    \"kernels\": [\n{prof_rows}\n    ]\n  }}\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_runtime.json");
    println!("wrote {out_path}");
    if smoke {
        assert!(gmax_checked, "--smoke must exercise the GMAX replay gate");
        assert!(
            skipped.is_empty(),
            "--smoke fails on skipped kernels: {skipped:?}"
        );
    }
}
