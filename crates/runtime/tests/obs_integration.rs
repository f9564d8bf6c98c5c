//! End-to-end observability contract: the opcode table derived from the
//! oracle's block counts accounts for every step the engine takes,
//! activation spans land in the trace with strategy/outcome args — the
//! fallback cause of a faulting program included — and the emitted Chrome
//! trace stays structurally valid under real concurrency.

use std::sync::Arc;

use pspdg_frontend::compile;
use pspdg_ir::interp::{ExecError, Interpreter, NullSink, RtVal};
use pspdg_nas::{runtime_suite, Class};
use pspdg_obs::{json, Recorder};
use pspdg_parallelizer::{build_plan, Abstraction};
use pspdg_runtime::Runtime;

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

/// Activation spans appear once per parallelized loop, carry the
/// strategy and outcome args, and the whole trace passes the Chrome
/// nesting validator.
#[test]
fn activation_spans_and_trace_validity() {
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

    let snap = rec.snapshot();
    let activations: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name.starts_with("runtime/activation/"))
        .collect();
    assert_eq!(activations.len(), 2, "one span per chunked loop activation");
    for a in &activations {
        let strat = a.args.iter().find(|(k, _)| *k == "strategy");
        assert!(strat.is_some(), "activation span missing strategy: {a:?}");
        let outcome = a
            .args
            .iter()
            .find(|(k, _)| *k == "outcome")
            .map(|(_, v)| format!("{v:?}"));
        assert_eq!(outcome.as_deref(), Some("S(\"parallel\")"), "{a:?}");
    }
    assert!(
        snap.events.iter().any(|e| e.name == "runtime/chunk_worker"),
        "worker job spans recorded"
    );
    assert!(
        snap.events.iter().any(|e| e.name == "runtime/run"),
        "top-level run span recorded"
    );

    let check =
        json::validate_chrome_trace(&snap.chrome_trace_json()).expect("trace parses and nests");
    assert!(check.spans >= 3);
}

/// The outcome arg of every activation span a run of `src` records at
/// four workers, with the run's result.
fn activation_outcomes(src: &str) -> (Result<Option<RtVal>, ExecError>, Vec<String>) {
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
    let outcomes = rec
        .snapshot()
        .events
        .into_iter()
        .filter(|e| e.name.starts_with("runtime/activation/"))
        .flat_map(|e| e.args)
        .filter(|(k, _)| *k == "outcome")
        .map(|(_, v)| format!("{v:?}"))
        .collect();
    (got, outcomes)
}

/// Faults that real programs raise are visible in the same stream: the
/// activation span reports the fallback cause instead of `parallel` — a
/// speculative slice that divides by zero under a guard the sequential
/// program never takes, and a body that faults, whose run returns the
/// oracle's `Err` after the span has closed.
#[test]
fn organic_faults_report_their_fallback_outcome() {
    let (ret, outcomes) = activation_outcomes(
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
    assert_eq!(outcomes, ["S(\"speculation_fault\")"]);

    let (ret, outcomes) = activation_outcomes(
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
    assert_eq!(outcomes, ["S(\"worker_fault\")"]);
}
