//! End-to-end observability contract: the opcode table derived from the
//! oracle's block counts accounts for every step the engine takes,
//! activation spans total per loop, and every sequential fallback counts
//! under its cause — the fallback of a faulting program included.

use std::sync::Arc;

use pspdg_frontend::compile;
use pspdg_ir::interp::{ExecError, Interpreter, NullSink, RtVal};
use pspdg_nas::{runtime_suite, Class};
use pspdg_obs::Recorder;
use pspdg_parallelizer::{build_plan, Abstraction};
use pspdg_runtime::{FallbackWhy, Runtime};

const DOALL_SRC: &str = r#"
    int v[512]; int w[512];
    void k() {
        int i;
        for (i = 0; i < 512; i++) { v[i] = i * 3 + 1; }
        for (i = 0; i < 512; i++) { w[i] = v[i] * v[i] - i; }
    }
    int main() { k(); return w[511]; }
"#;

/// The opcode table is block counts × static mix, and it is exact: on
/// every Mini kernel the derived counts add up to the oracle's
/// `Profile::total` and to the steps of a one-worker `Runtime`, and a hot
/// loop's share of it is that loop's `block_set_cost`. Summed over the
/// suite, the ranking is the order the arms of the one dispatch `match`,
/// in `ir::interp::step`, are written in.
#[test]
fn opcode_totals_match_engine_steps() {
    const DISPATCH_ORDER: [&str; 13] = [
        "load",
        "binary",
        "gep",
        "store",
        "br",
        "cmp",
        "condbr",
        "intrinsic",
        "cast",
        "unary",
        "alloca",
        "ret",
        "call",
    ];
    let mut suite: Vec<(&str, u64)> = Vec::new();
    for b in &runtime_suite(Class::Mini) {
        let p = b.program();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).unwrap();
        let profile = interp.profile();
        let counts = profile.opcode_counts(&p.module, None);
        let derived: u64 = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(derived, profile.total, "{}: derived total", b.name);

        let plan = build_plan(&p, profile, Abstraction::PsPdg, 0.01);
        let rt = Runtime::new(&p, &plan).workers(1);
        let out = rt.run_main().unwrap();
        assert_eq!(derived, out.steps, "{}: one-worker steps", b.name);
        for sched in rt.executable().schedules() {
            let in_loop: u64 = profile
                .opcode_counts(&p.module, Some((sched.func, &sched.blocks)))
                .iter()
                .map(|(_, n)| n)
                .sum();
            let cost = profile.block_set_cost(&p.module, sched.func, &sched.blocks);
            assert_eq!(in_loop, cost, "{}: loop at {}", b.name, sched.header);
        }
        for (op, n) in counts {
            match suite.iter_mut().find(|(o, _)| *o == op) {
                Some((_, total)) => *total += n,
                None => suite.push((op, n)),
            }
        }
    }
    suite.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let ranking: Vec<&str> = suite.iter().map(|(op, _)| *op).collect();
    assert_eq!(ranking, DISPATCH_ORDER, "{suite:?}");
}

/// Each parallelized loop's activation span totals once under its own
/// name, beside the run's span and the chunk workers', and a run whose
/// activations all go parallel counts no fallback cause.
#[test]
fn activation_spans_total_per_loop() {
    let p = compile(DOALL_SRC).unwrap();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);

    let rec = Arc::new(Recorder::new());
    Runtime::new(&p, &plan)
        .workers(3)
        .cost_threshold(0)
        .recorder(Arc::clone(&rec))
        .run_main()
        .unwrap();

    let totals = rec.totals();
    let count = |name: &str| {
        let row = totals.span_summary().iter().find(|s| s.0 == name);
        row.map_or(0, |s| s.1)
    };
    let activations: Vec<_> = totals
        .span_summary()
        .iter()
        .filter(|s| s.0.starts_with("runtime/activation/k.L"))
        .map(|s| s.1)
        .collect();
    assert_eq!(activations, [1, 1], "one span per chunked loop activation");
    assert_eq!(count("runtime/run"), 1);
    assert!(count("runtime/chunk_worker") >= 2, "{totals:?}");
    assert!(totals.counters.is_empty(), "{:?}", totals.counters);
}

/// A run's result.
type Ret = Result<Option<RtVal>, ExecError>;

/// The fallback-cause counters a run of `src` records at four workers,
/// with the run's result.
fn fallback_causes(src: &str) -> (Ret, Vec<(String, u64)>) {
    let p = compile(src).unwrap();
    let mut interp = Interpreter::new(&p.module);
    let seq = interp.run_main(&mut NullSink);
    let plan = build_plan(&p, interp.profile(), Abstraction::OpenMp, 0.0);
    let rec = Arc::new(Recorder::new());
    let got = Runtime::new(&p, &plan)
        .workers(4)
        .cost_threshold(0)
        .recorder(Arc::clone(&rec))
        .run_main()
        .map(|out| out.ret);
    assert_eq!(got, seq, "the fallback reproduces the oracle");
    let causes = rec
        .totals()
        .counters
        .into_iter()
        .filter(|(name, _)| FallbackWhy::ALL.iter().any(|w| w.name() == name))
        .collect();
    (got, causes)
}

/// Faults that real programs raise are counted under their fallback
/// cause — a speculative slice that divides by zero under a guard the
/// sequential program never takes, and a body that faults, whose run
/// returns the oracle's `Err` after the fallback was counted.
#[test]
fn organic_faults_report_their_fallback_outcome() {
    let (ret, causes) = fallback_causes(
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
    );
    assert!(ret.is_ok());
    assert_eq!(causes, [("speculation_fault".to_string(), 1)]);

    let (ret, causes) = fallback_causes(
        r#"
        int b[64];
        int main() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 64; i++) { b[i] = 1000 / (37 - i); }
            return b[5];
        }
        "#,
    );
    assert!(matches!(ret, Err(ExecError::DivByZero { .. })), "{ret:?}");
    assert_eq!(causes, [("worker_fault".to_string(), 1)]);
}
