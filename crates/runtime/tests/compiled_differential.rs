//! Compiled-tier differential tests: with the threaded-code tier on, the
//! runtime must stay **bit-identical** to itself with the tier off — same
//! return value, same output lines, same step count, same observable heap
//! down to the last float bit (tiers share chunk partitioning and merge
//! order, so even reduction re-association is identical) — and equivalent
//! to the sequential interpreter, across generated kernels × directive
//! sets × worker counts and the whole NAS suite. Fallback cause tables
//! must agree modulo `compiled_bailout` (the only cause the tier may add).

use pspdg_frontend::compile;
use pspdg_ir::interp::{Interpreter, NullSink, RtVal};
use pspdg_nas::{runtime_suite, Class};
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{build_plan, Abstraction, ProgramPlan};
use pspdg_runtime::{
    globals_identical_mismatch, globals_mismatch, line_equivalent, observable_globals,
    rtval_equivalent, rtval_identical, CompiledTier, RunOutcome, Runtime,
};

/// Run `p` under `plan` at one tier (gates off so parallel paths engage).
fn run_tier(
    p: &ParallelProgram,
    plan: &ProgramPlan,
    workers: usize,
    tier: CompiledTier,
) -> RunOutcome {
    Runtime::new(p, plan)
        .workers(workers)
        .cost_threshold(0)
        .pipeline_min_body(0)
        .compiled_tier(tier)
        .run_main()
        .unwrap_or_else(|e| panic!("{} tier failed: {e}", tier.name()))
}

/// The fallback cause table with the one tier-specific cause removed:
/// everything else must agree exactly between tiers.
fn causes_modulo_bailout(out: &RunOutcome) -> Vec<(&'static str, u64)> {
    out.stats
        .fallbacks
        .table()
        .into_iter()
        .filter(|(name, _)| *name != "compiled_bailout")
        .collect()
}

/// Assert two runtime outcomes are bit-identical: ret, output, steps,
/// observable heap, and fallback causes modulo `compiled_bailout`.
fn assert_tiers_identical(
    name: &str,
    p: &ParallelProgram,
    a: &RunOutcome,
    b: &RunOutcome,
    ctx: &str,
) {
    assert!(
        rtval_identical(a.ret.unwrap_or(RtVal::Undef), b.ret.unwrap_or(RtVal::Undef)),
        "{name} [{ctx}]: return diverged: {:?} vs {:?}",
        a.ret,
        b.ret
    );
    assert_eq!(a.output, b.output, "{name} [{ctx}]: output diverged");
    assert_eq!(
        a.steps, b.steps,
        "{name} [{ctx}]: step accounting diverged ({:?} vs {:?})",
        a.stats, b.stats
    );
    let ga = observable_globals(&p.module, &a.mem);
    let gb = observable_globals(&p.module, &b.mem);
    assert_eq!(
        globals_identical_mismatch(&ga, &gb),
        None,
        "{name} [{ctx}]: heap diverged between tiers ({:?} vs {:?})",
        a.stats,
        b.stats
    );
    assert_eq!(
        causes_modulo_bailout(a),
        causes_modulo_bailout(b),
        "{name} [{ctx}]: fallback causes diverged beyond compiled_bailout"
    );
}

/// Assert a runtime outcome is equivalent to the sequential interpreter
/// (exact ints, floats within rtol — parallel reductions re-associate).
fn assert_matches_interp(name: &str, p: &ParallelProgram, out: &RunOutcome, ctx: &str) {
    let mut interp = Interpreter::new(&p.module);
    let seq_ret = interp
        .run_main(&mut NullSink)
        .unwrap_or_else(|e| panic!("{name} [{ctx}]: sequential run failed: {e}"));
    assert!(
        rtval_equivalent(
            out.ret.unwrap_or(RtVal::Undef),
            seq_ret.unwrap_or(RtVal::Undef)
        ),
        "{name} [{ctx}]: ret {:?} vs interpreter {:?}",
        out.ret,
        seq_ret
    );
    assert_eq!(interp.output().len(), out.output.len(), "{name} [{ctx}]");
    for (x, y) in out.output.iter().zip(interp.output()) {
        assert!(line_equivalent(x, y), "{name} [{ctx}]: line {x} vs {y}");
    }
    let seq = observable_globals(&p.module, interp.mem());
    let par = observable_globals(&p.module, &out.mem);
    assert_eq!(
        globals_mismatch(&seq, &par),
        None,
        "{name} [{ctx}]: heap diverged from interpreter ({:?})",
        out.stats
    );
}

/// Full differential: interpreter vs Off vs Threaded.
fn assert_compiled_differential(
    name: &str,
    p: &ParallelProgram,
    abstraction: Abstraction,
    workers: usize,
) -> RunOutcome {
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).expect("profiling run");
    let plan = build_plan(p, interp.profile(), abstraction, 0.01);
    let off = run_tier(p, &plan, workers, CompiledTier::Off);
    let threaded = run_tier(p, &plan, workers, CompiledTier::Threaded);
    let ctx = format!("{abstraction:?}/{workers}w");
    assert_eq!(off.stats.compiled_blocks, 0, "{name} [{ctx}]: Off compiled");
    assert_tiers_identical(name, p, &off, &threaded, &format!("{ctx} off-vs-threaded"));
    assert_matches_interp(name, p, &threaded, &format!("{ctx} threaded-vs-interp"));
    threaded
}

// ---- directed ---------------------------------------------------------

#[test]
fn straight_line_doall_engages_the_compiled_tier() {
    let p = compile(
        r#"
        int v[512]; int w[512]; int u[512];
        void k() {
            int i;
            for (i = 0; i < 512; i++) { v[i] = i * 3 + 1; }
            for (i = 0; i < 512; i++) { w[i] = v[i] * 2 + 5; }
            for (i = 0; i < 512; i++) { u[i] = v[i] + w[i]; }
        }
        int main() { k(); return (v[100] + w[501] + u[3]) % 251; }
        "#,
    )
    .unwrap();
    for workers in [2, 3, 4] {
        let threaded =
            assert_compiled_differential("straight-line", &p, Abstraction::PsPdg, workers);
        // The whole body of each loop is straight-line: the compiled
        // tier must actually execute blocks, not silently interpret.
        assert!(
            threaded.stats.compiled_blocks > 0,
            "threaded tier never engaged: {:?}",
            threaded.stats
        );
        assert_eq!(
            threaded.stats.fallbacks.compiled_bailout, 0,
            "a pure straight-line kernel must not bail out: {:?}",
            threaded.stats
        );
    }
}

#[test]
fn mid_slice_fault_bails_out_and_reruns_with_interpreter_parity() {
    // The second loop walks out of bounds mid-iteration-space: workers
    // bail out of the compiled slice, and the sequential re-run raises
    // the exact interpreter fault.
    let p = compile(
        r#"
        int v[64];
        void k(int n) {
            int i;
            for (i = 0; i < 128; i++) { v[i * n] = i; }
        }
        int main() { k(1); return 0; }
        "#,
    )
    .unwrap();
    let mut interp = Interpreter::new(&p.module);
    let seq_err = interp.run_main(&mut NullSink).unwrap_err();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    for tier in [CompiledTier::Off, CompiledTier::Threaded] {
        let rt = Runtime::new(&p, &plan)
            .workers(4)
            .cost_threshold(0)
            .compiled_tier(tier);
        let par_err = rt.run_main().unwrap_err();
        assert_eq!(seq_err, par_err, "{}: fault parity", tier.name());
    }
}

#[test]
fn nas_suite_tiers_are_bit_identical() {
    // Every runtime-suite kernel (the bench set), both plans: the two
    // tiers agree bit-for-bit, including float kernels — identical chunk
    // partitioning means identical association.
    for bench in runtime_suite(Class::Test) {
        let p = bench.program();
        for abstraction in [Abstraction::PsPdg, Abstraction::OpenMp] {
            assert_compiled_differential(bench.name, &p, abstraction, 4);
        }
        assert_compiled_differential(bench.name, &p, Abstraction::PsPdg, 3);
    }
}

#[test]
fn compiled_tier_defaults_on_and_respects_off() {
    let p = compile(
        r#"
        int v[256];
        void k() { int i; for (i = 0; i < 256; i++) { v[i] = i * 7; } }
        int main() { k(); return v[200] % 101; }
        "#,
    )
    .unwrap();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let default_rt = Runtime::new(&p, &plan).workers(2).cost_threshold(0);
    assert_eq!(
        default_rt.tier(),
        CompiledTier::Threaded,
        "threaded is the default"
    );
    let out = default_rt.run_main().unwrap();
    assert!(out.stats.compiled_blocks > 0, "{:?}", out.stats);
    let off_rt = Runtime::new(&p, &plan)
        .workers(2)
        .cost_threshold(0)
        .compiled_tier(CompiledTier::Off);
    assert_eq!(off_rt.compiled().compiled_blocks_total(), 0);
    let off = off_rt.run_main().unwrap();
    assert_eq!(off.stats.compiled_blocks, 0, "{:?}", off.stats);
}

#[test]
fn unsupported_shapes_interpret_without_bailout() {
    // Calls and prints inside the body: those blocks never compile, the
    // worker interprets them in place — no bailout, still equivalent.
    let p = compile(
        r#"
        int v[128]; int w[128];
        int f(int x) { return x * 3 + 1; }
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 128; i++) { w[i] = f(v[i]) + v[i]; }
        }
        int main() {
            int i;
            for (i = 0; i < 128; i++) { v[i] = (i * 37) % 19; }
            k();
            return (w[100] + w[3]) % 251;
        }
        "#,
    )
    .unwrap();
    let threaded = assert_compiled_differential("call-body", &p, Abstraction::OpenMp, 4);
    assert_eq!(
        threaded.stats.fallbacks.compiled_bailout, 0,
        "unsupported shapes are compile-time skips, not runtime bailouts: {:?}",
        threaded.stats
    );
}

// ---- generated kernels × directives × workers -------------------------

mod generated {
    use super::*;
    use proptest::prelude::*;

    /// One straight-line-heavy loop body. Constants are bounded so every
    /// subscript stays in range and arithmetic cannot overflow.
    #[derive(Debug, Clone)]
    enum GenLoop {
        /// `w[i] = v[i] * k1 + k2;` — gep+load / load+binary / binary+store.
        Map { k1: i64, k2: i64 },
        /// `w[i] = v[i] * k1 + u[i] * k2 + w[i];` — long load/binary chain.
        Fma { k1: i64, k2: i64 },
        /// `w[i] = v[u[i] % 96];` — indirect load (gep feeds gep).
        Gather,
        /// `w[u[i] % 96] = v[i] + k1;` — indirect store (gep+store).
        Scatter { k1: i64 },
        /// `s += v[i] * k1;` reduction — still straight-line per iteration.
        RedInt { k1: i64 },
        /// `d += dv[i] * 0.5;` — float reduction (tier-vs-tier must stay
        /// bit-identical even though association differs from seq).
        RedDouble,
        /// `if (v[i] > k1) { w[i] = v[i]; }` — branchy: multi-block body,
        /// each block still straight-line.
        Branchy { k1: i64 },
        /// `t = v[i] * 2; w[i] = t + u[i];` under `private(t)`.
        PrivateTemp,
    }

    impl GenLoop {
        fn render(&self, trip: i64, annotated: bool) -> String {
            let pragma = |clause: &str| {
                if annotated {
                    format!("#pragma omp parallel for{clause}\n")
                } else {
                    String::new()
                }
            };
            match self {
                GenLoop::Map { k1, k2 } => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ w[i] = v[i] * {k1} + {k2}; }}\n",
                    pragma("")
                ),
                GenLoop::Fma { k1, k2 } => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ w[i] = v[i] * {k1} + u[i] * {k2} + w[i]; }}\n",
                    pragma("")
                ),
                GenLoop::Gather => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ w[i] = v[u[i] % 96]; }}\n",
                    pragma("")
                ),
                GenLoop::Scatter { k1 } => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ w[u[i] % 96] = v[i] + {k1}; }}\n",
                    pragma("")
                ),
                GenLoop::RedInt { k1 } => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ s += v[i] * {k1}; }}\n",
                    pragma(" reduction(+: s)")
                ),
                GenLoop::RedDouble => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ d += dv[i] * 0.5; }}\n",
                    pragma(" reduction(+: d)")
                ),
                GenLoop::Branchy { k1 } => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ if (v[i] > {k1}) {{ w[i] = v[i]; }} }}\n",
                    pragma("")
                ),
                GenLoop::PrivateTemp => format!(
                    "{}for (i = 0; i < {trip}; i++) {{ t = v[i] * 2; w[i] = t + u[i]; }}\n",
                    pragma(" private(t)")
                ),
            }
        }
    }

    fn arb_loop() -> impl Strategy<Value = GenLoop> {
        prop_oneof![
            (1i64..5, 0i64..9).prop_map(|(k1, k2)| GenLoop::Map { k1, k2 }),
            (1i64..4, 1i64..4).prop_map(|(k1, k2)| GenLoop::Fma { k1, k2 }),
            Just(GenLoop::Gather),
            (0i64..9).prop_map(|k1| GenLoop::Scatter { k1 }),
            (1i64..5).prop_map(|k1| GenLoop::RedInt { k1 }),
            Just(GenLoop::RedDouble),
            (0i64..50).prop_map(|k1| GenLoop::Branchy { k1 }),
            Just(GenLoop::PrivateTemp),
        ]
    }

    fn render_program(trip: i64, loops: &[(GenLoop, bool)]) -> String {
        let body: String = loops.iter().map(|(l, ann)| l.render(trip, *ann)).collect();
        format!(
            r#"
            int v[96]; int w[96]; int u[96]; int s; int t; double d; double dv[96];
            void init() {{
                int i;
                for (i = 0; i < 96; i++) {{
                    v[i] = (i * 37 + 11) % 50;
                    w[i] = i % 9;
                    u[i] = (i * 53 + 5) % 96;
                    dv[i] = (double)(i % 13) * 0.25;
                }}
                s = 3; t = 1; d = 0.5;
            }}
            void k() {{
                int i;
                {body}
            }}
            int main() {{
                int i; int chk;
                init();
                k();
                print_i64(s);
                print_i64(t);
                print_f64(d);
                chk = 0;
                for (i = 0; i < 96; i++) {{ chk += v[i] + w[i] * 3 + u[i]; }}
                print_i64(chk);
                return chk % 251;
            }}
            "#
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Generated straight-line-heavy kernels × directive sets ×
        /// worker counts: tiers bit-identical to each other and
        /// equivalent to the interpreter, under both plan abstractions.
        #[test]
        fn generated_kernels_tiers_bit_identical(
            trip in 8i64..96,
            loops in proptest::collection::vec((arb_loop(), proptest::bool::ANY), 1..4),
            workers in 2usize..6,
        ) {
            let src = render_program(trip, &loops);
            let p = compile(&src).expect("generated kernel compiles");
            assert_compiled_differential("gen/pspdg", &p, Abstraction::PsPdg, workers);
            assert_compiled_differential("gen/openmp", &p, Abstraction::OpenMp, workers);
        }
    }
}
