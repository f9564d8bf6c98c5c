//! Fault fuzz suite: programs that really fault reach every recovery.
//!
//! A seeded generator emits ParC loops that divide by zero, index out of
//! bounds or read an undefined cell at a random iteration: in the body, in
//! a critical, or under a critical's guard. Every program runs on the
//! sequential interpreter (the oracle) and on the runtime; the runtime
//! raises the oracle's exact `ExecError`, or leaves its globals, output
//! and return value. Directed tests run a faulting program twice on one
//! `Runtime`: the global pool keeps its threads and nothing is left
//! behind. Seed the generator via `FAULT_FUZZ_SEED` (CI pins it).

use std::collections::BTreeMap;
use std::sync::Arc;

use pspdg_frontend::compile;
use pspdg_ir::interp::{ExecError, Interpreter, NullSink, RtVal};
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{build_plan, Abstraction, ProgramPlan};
use pspdg_runtime::{
    globals_identical_mismatch, globals_mismatch, line_equivalent, observable_globals,
    rtval_equivalent, FallbackCounts, FallbackWhy, Recorder, Rng64, RunOutcome, Runtime,
};

/// Sequential oracle: result, printed lines, observable globals, and the
/// OpenMP plan. That plan follows the annotations whatever the profile of
/// a faulting run says, so annotated loops chunk and workers do fault.
struct Oracle {
    result: Result<Option<RtVal>, ExecError>,
    output: Vec<String>,
    globals: Vec<(String, Vec<RtVal>)>,
    plan: ProgramPlan,
}

fn oracle(p: &ParallelProgram) -> Oracle {
    let mut interp = Interpreter::new(&p.module);
    let result = interp.run_main(&mut NullSink);
    Oracle {
        result,
        output: interp.output().to_vec(),
        globals: observable_globals(&p.module, interp.mem()),
        plan: build_plan(p, interp.profile(), Abstraction::OpenMp, 0.0),
    }
}

/// Assert a runtime run matches the oracle: the oracle's exact error, or
/// its return value, output and globals — exact ints/bools, floats within
/// rtol (parallel reductions re-associate); when the run reports zero
/// chunked loops, everything executed sequentially and the heap and output
/// must match **bit-for-bit**.
fn assert_matches(p: &ParallelProgram, o: &Oracle, got: Result<RunOutcome, ExecError>, ctx: &str) {
    let (ret, out) = match (&o.result, got) {
        (Err(want), got) => {
            assert_eq!(got.err().as_ref(), Some(want), "[{ctx}]");
            return;
        }
        (Ok(_), Err(e)) => panic!("[{ctx}]: the runtime raised {e:?}"),
        (Ok(ret), Ok(out)) => (*ret, out),
    };
    assert!(
        rtval_equivalent(out.ret.unwrap_or(RtVal::Undef), ret.unwrap_or(RtVal::Undef)),
        "[{ctx}]: ret {:?} vs oracle {ret:?}",
        out.ret
    );
    assert_eq!(out.output.len(), o.output.len(), "[{ctx}]: output length");
    for (a, b) in out.output.iter().zip(&o.output) {
        assert!(line_equivalent(a, b), "[{ctx}]: line {a} vs {b}");
    }
    let got = observable_globals(&p.module, &out.mem);
    assert_eq!(
        globals_mismatch(&o.globals, &got),
        None,
        "[{ctx}]: globals diverge (stats {:?})",
        out.stats
    );
    if out.stats.chunked_loops == 0 {
        // Fully sequential run (every parallel attempt fell back): the
        // fallback-parity contract is bit-exactness, not tolerance.
        assert_eq!(
            globals_identical_mismatch(&o.globals, &got),
            None,
            "[{ctx}]: sequential run must be bit-identical"
        );
        assert_eq!(out.output, o.output, "[{ctx}]: exact output");
    }
}

/// The one organic input known to reach a speculation fault: the guarded
/// division only runs sequentially when `v[i] > best >= 0`, but a chunk
/// worker's speculative slice suppresses the guard and divides by the
/// zero `v[i]` too. The first loop chunks and commits cleanly.
const SPECULATION_SRC: &str = r#"
    int v[64]; int best; int q;
    int main() {
        int i;
        #pragma omp parallel for
        for (i = 0; i < 64; i++) { v[i] = (i * 7) % 13; }
        #pragma omp parallel for
        for (i = 0; i < 64; i++) {
            #pragma omp critical
            { if (v[i] > best) { best = v[i]; q = 100 / v[i]; } }
        }
        return best + q;
    }
"#;

#[test]
fn organic_speculation_fault_falls_back_to_the_oracle() {
    let p = compile(SPECULATION_SRC).unwrap();
    let o = oracle(&p);
    for workers in [2, 4] {
        let rt = Runtime::new(&p, &o.plan).workers(workers).cost_threshold(0);
        assert_eq!(rt.realization().chunked, 2, "both loops are chunked");
        let out = rt.run_main().expect("the sequential re-run completes");
        assert_eq!(
            out.stats.chunked_loops, 1,
            "{workers} workers: {:?}",
            out.stats
        );
        assert_eq!(
            out.stats.fallbacks[FallbackWhy::SpeculationFault],
            1,
            "{workers} workers: {:?}",
            out.stats
        );
        assert_matches(&p, &o, Ok(out), &format!("{workers} workers"));
    }
}

/// A runtime reused after a speculation fault: the global pool keeps its
/// threads, and the second run reports exactly the first run's stats —
/// the same fallbacks and the same fork volume (`cow_pages`, hence
/// `fork_bytes`), so the discarded forks left nothing behind.
#[test]
fn runtime_reuse_after_fallback_restores_baseline_fork_volume() {
    let p = compile(SPECULATION_SRC).unwrap();
    let o = oracle(&p);
    let rt = Runtime::new(&p, &o.plan).workers(4).cost_threshold(0);
    let ids = pspdg_pool::global().thread_ids();
    let first = rt.run_main().expect("the first run completes");
    assert_eq!(
        first.stats.fallbacks[FallbackWhy::SpeculationFault],
        1,
        "{:?}",
        first.stats
    );
    assert!(first.stats.cow_pages > 0, "{:?}", first.stats);
    let second = rt.run_main().expect("the second run completes");
    assert_eq!(second.stats, first.stats);
    assert_matches(&p, &o, Ok(second), "second run");
    assert_eq!(
        pspdg_pool::global().thread_ids(),
        ids,
        "the global pool keeps its threads through the faulting runs"
    );
}

/// `fault_identity`'s "div by zero" row, run twice on one runtime at two
/// workers: both runs raise the oracle's error, and the global pool keeps
/// its threads.
#[test]
fn chunk_worker_fault_falls_back_and_heals() {
    let p = compile(
        "int a[64]; int b[64];
         int main() {
             int i;
             #pragma omp parallel for
             for (i = 0; i < 64; i++) { b[i] = 1000 / (37 - i); }
             return b[5];
         }",
    )
    .unwrap();
    let o = oracle(&p);
    assert!(o.result.is_err(), "the row faults");
    let rt = Runtime::new(&p, &o.plan).workers(2).cost_threshold(0);
    let ids = pspdg_pool::global().thread_ids();
    for run in ["first run", "second run"] {
        assert_matches(&p, &o, rt.run_main(), run);
        assert_eq!(
            pspdg_pool::global().thread_ids(),
            ids,
            "{run}: the global pool's threads"
        );
    }
}

/// The cause names are the keys of `BENCH_runtime.json`, of the `report`
/// op and of the recorder's fallback counters: `table()` lists every
/// cause once, in this order.
#[test]
fn fallback_counts_serialization_is_complete() {
    const NAMES: [&str; 9] = [
        "scheduled_sequential",
        "short_trip",
        "single_worker",
        "below_cost_threshold",
        "unevaluable",
        "irregular_control",
        "worker_fault",
        "speculation_fault",
        "replay_fault",
    ];
    let none = FallbackCounts::default();
    assert_eq!(none.table(), NAMES.map(|name| (name, 0)));
    assert_eq!(FallbackWhy::ALL.map(FallbackWhy::name), NAMES);
    assert!(none.nonzero().is_empty());
}

// ---- generated faulting programs --------------------------------------

/// Where a generated program faults, named by the fallback cause its
/// parallel activation reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Spot {
    /// In the loop body: the chunk worker that runs the iteration raises
    /// the fault.
    Body,
    /// Inside a `critical`, on protected cells: only the master's
    /// commit-time replay reads them, so the replay raises the fault.
    Critical,
    /// Under the `v[i] > best` guard of a critical, on unprotected cells:
    /// the sequential program never takes the guard at the faulting
    /// iteration, but a worker's speculative slice runs the guarded code
    /// unconditionally and faults.
    Guarded,
}

impl Spot {
    const ALL: [Spot; 3] = [Spot::Body, Spot::Critical, Spot::Guarded];

    fn cause(self) -> FallbackWhy {
        match self {
            Spot::Body => FallbackWhy::WorkerFault,
            Spot::Critical => FallbackWhy::ReplayFault,
            Spot::Guarded => FallbackWhy::SpeculationFault,
        }
    }
}

/// A ParC program whose `omp parallel for` loop of `n` iterations faults
/// at iteration `k`, at `spot`, by a division by zero, an out-of-bounds
/// index or an undefined read (`fault` 0, 1 or 2). `v[k]` is the only zero
/// of `v`, `c[k]` the only undefined cell of the local `c`, and in a
/// critical `s` counts the regions before this one.
fn faulting_program(rng: &mut Rng64) -> (Spot, String) {
    let n = 16 + rng.below(81);
    let k = rng.below(n);
    let m = 1 + rng.below(12);
    let spot = Spot::ALL[rng.below(3) as usize];
    let fault = rng.below(3) as usize;
    let body = match (spot, fault) {
        (Spot::Body, 0) => "b[i] = 100 / v[i];".to_string(),
        (Spot::Body, 1) => "b[i] = w[v[i] - 1];".to_string(),
        (Spot::Body, _) => "b[i] = v[i] + c[i];".to_string(),
        (Spot::Critical, 0) => format!("s = s + 1; q = 100 / ({} - s);", k + 1),
        (Spot::Critical, 1) => format!("s = s + 1; b[s + {}] = i;", n - k - 1),
        (Spot::Critical, _) => "s = s + 1; c[s - 1] = c[s - 1] + i;".to_string(),
        (Spot::Guarded, _) => format!(
            "if (v[i] > best) {{ best = v[i]; q = {}; }}",
            ["100 / v[i]", "w[v[i] - 1]", "c[i]"][fault]
        ),
    };
    let body = match spot {
        Spot::Body => body,
        _ => format!("\n#pragma omp critical\n{{ {body} }}\n"),
    };
    let src = format!(
        "int v[{n}]; int w[{n}]; int b[{n}]; int best; int q; int s;
         int main() {{
             int i; int c[{n}];
             for (i = 0; i < {n}; i++) {{
                 v[i] = 1 + (i * {m}) % 13; w[i] = i * {m};
                 if (i != {k}) {{ c[i] = i; }}
             }}
             v[{k}] = 0;
             #pragma omp parallel for
             for (i = 0; i < {n}; i++) {{ {body} }}
             return best * 1000 + q + s + b[{n} - 1];
         }}"
    );
    (spot, src)
}

/// The fallback causes `rec` counted, one entry per fallback.
fn activation_outcomes(rec: &Recorder) -> Vec<String> {
    rec.totals()
        .counters
        .into_iter()
        .filter(|(name, _)| FallbackWhy::ALL.iter().any(|w| w.name() == name))
        .flat_map(|(name, n)| std::iter::repeat_n(name, n as usize))
        .collect()
}

/// Programs that really fault: each runs on the sequential interpreter and on the runtime at 2 and 4 workers. The
/// runtime raises the interpreter's exact `ExecError`, or, where the
/// sequential program does not fault, leaves its globals, output and
/// return value. A faulting run returns `Err` and its `RunStats` are lost,
/// so the fallback cause is read from the recorder's counter, bumped
/// before the sequential re-run raises. Each spot reports its own cause,
/// and the seed range reaches all three.
#[test]
fn generated_faulting_programs_match_the_oracle() {
    let base_seed: u64 = std::env::var("FAULT_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC60_2026);
    let mut causes: BTreeMap<String, u64> = BTreeMap::new();
    for j in 0..48u64 {
        let seed = base_seed.wrapping_add(j);
        let (spot, src) = faulting_program(&mut Rng64::new(seed));
        let p = compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{src}"));
        let o = oracle(&p);
        assert_eq!(
            o.result.is_ok(),
            spot == Spot::Guarded,
            "seed {seed}\n{src}"
        );
        for workers in [2, 4] {
            let ctx = format!("seed {seed}, {spot:?}, {workers} workers\n{src}");
            let rec = Arc::new(Recorder::new());
            let rt = Runtime::new(&p, &o.plan)
                .workers(workers)
                .cost_threshold(0)
                .recorder(Arc::clone(&rec));
            assert_eq!(rt.realization().chunked, 1, "{ctx}");
            assert_matches(&p, &o, rt.run_main(), &ctx);
            let outcomes = activation_outcomes(&rec);
            assert_eq!(outcomes, [spot.cause().name()], "{ctx}");
            for cause in outcomes {
                *causes.entry(cause).or_default() += 1;
            }
        }
    }
    for spot in Spot::ALL {
        assert!(
            causes.contains_key(spot.cause().name()),
            "the seed range reaches every recovery: {causes:?}"
        );
    }
}
