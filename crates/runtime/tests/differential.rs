//! Differential tests: the parallel runtime must match the sequential
//! interpreter — same output, same observable final memory (global
//! objects), same return value, same errors — on every NAS `Class::Test`
//! kernel under its best (PS-PDG) plan and under the programmer's OpenMP
//! plan, and on generated kernels mixing DOALL loops (direct and
//! indirect subscripts, annotated or not), reductions, privatized
//! temporaries, critical sections, and recurrences.
//!
//! Integers compare exactly; floats compare under
//! [`pspdg_runtime::FLOAT_RTOL`] because parallel reductions associate
//! differently (chunk-order merge), as in any real OpenMP runtime.

use pspdg_frontend::compile;
use pspdg_ir::interp::{Interpreter, NullSink};
use pspdg_nas::{benchmark, fault_suite, suite, Class};
use pspdg_parallel::ParallelProgram;
use pspdg_parallelizer::{build_plan, Abstraction};
use pspdg_runtime::{
    globals_mismatch, line_equivalent, observable_globals, rtval_equivalent, FallbackWhy, RunStats,
    Runtime,
};

/// Run `program` sequentially and under `abstraction`'s plan with
/// `workers` workers; assert observable equivalence and return the
/// runtime's dynamic stats.
///
/// The cost-model gate is disabled so every eligible loop actually
/// exercises its parallel path (a gated loop is trivially equivalent);
/// `nas_differential` additionally runs each kernel once with the default
/// gate on.
fn assert_differential(
    name: &str,
    program: &ParallelProgram,
    abstraction: Abstraction,
    workers: usize,
) -> RunStats {
    let mut interp = Interpreter::new(&program.module);
    let seq_ret = interp
        .run_main(&mut NullSink)
        .unwrap_or_else(|e| panic!("{name}: sequential run failed: {e}"));
    let plan = build_plan(program, interp.profile(), abstraction, 0.01);
    let rt = Runtime::new(program, &plan)
        .workers(workers)
        .cost_threshold(0);
    let out = rt
        .run_main()
        .unwrap_or_else(|e| panic!("{name}: runtime failed: {e}"));
    match (seq_ret, out.ret) {
        (None, None) => {}
        (Some(a), Some(b)) => assert!(
            rtval_equivalent(a, b),
            "{name}: return value diverged: {a:?} vs {b:?}"
        ),
        (a, b) => panic!("{name}: return shape diverged: {a:?} vs {b:?}"),
    }
    assert_eq!(
        interp.output().len(),
        out.output.len(),
        "{name}: output line count diverged"
    );
    for (i, (a, b)) in interp.output().iter().zip(&out.output).enumerate() {
        assert!(
            line_equivalent(a, b),
            "{name}: output line {i} diverged: {a:?} vs {b:?}"
        );
    }
    let seq_globals = observable_globals(&program.module, interp.mem());
    let par_globals = observable_globals(&program.module, &out.mem);
    assert_eq!(
        globals_mismatch(&seq_globals, &par_globals),
        None,
        "{name}: observable memory diverged"
    );
    out.stats
}

fn nas_differential(name: &str) -> RunStats {
    let b = benchmark(name, Class::Test).expect("known NAS kernel");
    let p = b.program();
    // The paper's best plan, with several worker counts (including an odd
    // one, so chunk boundaries vary), plus the programmer-encoded plan.
    let stats = assert_differential(name, &p, Abstraction::PsPdg, 4);
    assert_differential(name, &p, Abstraction::PsPdg, 3);
    assert_differential(name, &p, Abstraction::OpenMp, 4);
    // Once more with the default cost-model gate: the mix of gated and
    // parallel activations must stay equivalent too.
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let rt = Runtime::new(&p, &plan).workers(4);
    let out = rt.run_main().unwrap();
    let seq = observable_globals(&p.module, interp.mem());
    let par = observable_globals(&p.module, &out.mem);
    assert_eq!(
        globals_mismatch(&seq, &par),
        None,
        "{name}: default-gate run diverged"
    );
    stats
}

#[test]
fn nas_bt_matches_sequential() {
    nas_differential("BT");
}

#[test]
fn nas_cg_matches_sequential() {
    let stats = nas_differential("CG");
    assert!(
        stats.chunked_loops > 0,
        "CG's dot products should chunk: {stats:?}"
    );
}

#[test]
fn nas_ep_matches_sequential() {
    let stats = nas_differential("EP");
    // EP's atomic histogram bins must execute *in parallel* through the
    // deferred-critical replay path — not serialize on the mutex rule.
    assert!(
        stats.chunked_loops > 0,
        "EP's main loop should chunk through the replay path: {stats:?}"
    );
    assert!(
        stats.critical_replays > 0,
        "EP's atomic bins should be replayed at commit: {stats:?}"
    );
}

#[test]
fn nas_ft_matches_sequential() {
    nas_differential("FT");
}

#[test]
fn nas_is_matches_sequential() {
    let stats = nas_differential("IS");
    assert!(
        stats.chunked_loops > 0,
        "IS's counting loop should chunk: {stats:?}"
    );
}

#[test]
fn nas_lu_matches_sequential() {
    nas_differential("LU");
}

#[test]
fn nas_mg_matches_sequential() {
    nas_differential("MG");
}

#[test]
fn nas_sp_matches_sequential() {
    nas_differential("SP");
}

#[test]
fn error_parity_with_sequential_interpreter() {
    // A DOALL-looking loop that faults out of bounds mid-iteration-space:
    // the parallel attempt aborts, the sequential re-run reproduces the
    // exact fault the interpreter raises.
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
    // The partial profile of the faulted run still marks the loop hot.
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let rt = Runtime::new(&p, &plan).workers(4);
    let par_err = rt.run_main().unwrap_err();
    assert_eq!(seq_err, par_err);
}

#[test]
fn param_array_reduction_matches_sequential() {
    // A reduction over an *array parameter* resolves to MemBase::Param;
    // the runtime must either merge it through the argument's object or
    // fall back — never commit partial sums last-writer-wins.
    let p = compile(
        r#"
        double acc[4]; double v[128];
        void k(double a[], double src[]) {
            int i;
            #pragma omp parallel for reduction(+: a)
            for (i = 0; i < 128; i++) { a[0] += src[i]; }
        }
        int main() {
            int i;
            for (i = 0; i < 128; i++) { v[i] = (double)(i % 9) * 0.5; }
            k(acc, v);
            print_f64(acc[0]);
            return 0;
        }
        "#,
    )
    .unwrap();
    assert_differential("param-reduction", &p, Abstraction::PsPdg, 4);
    assert_differential("param-reduction", &p, Abstraction::OpenMp, 4);
}

#[test]
fn call_in_chunked_body_matches_sequential() {
    // A user-function call inside a workshared body: the chunk workers
    // push callee frames on their forked heaps and drop them at commit.
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
    let stats = assert_differential("call-body", &p, Abstraction::OpenMp, 4);
    assert!(stats.chunked_loops > 0, "the loop must chunk: {stats:?}");
}

#[test]
fn single_worker_degenerates_to_sequential() {
    let b = benchmark("IS", Class::Test).unwrap();
    let p = b.program();
    let stats = assert_differential("IS/1", &p, Abstraction::PsPdg, 1);
    assert_eq!(stats.chunked_loops, 0, "one worker cannot chunk: {stats:?}");
}

/// Runtimes whose masters are themselves workers of the global pool: with
/// every worker running one, the chunks an activation offers that same
/// pool may find no free thread. Each master must then run its chunks
/// itself, finish, and match the interpreter.
#[test]
fn runtimes_on_global_pool_workers_finish_and_match() {
    let pool = pspdg_pool::global();
    let n = suite(Class::Test).len().max(pool.size());
    let items = suite(Class::Test).into_iter().cycle().take(n).collect();
    let on_worker = pspdg_pool::par_map(items, |b: pspdg_nas::Benchmark| {
        assert_differential(b.name, &b.program(), Abstraction::PsPdg, 2);
        pool.thread_ids().contains(&std::thread::current().id())
    });
    // A one-thread pool maps inline, on the calling thread.
    let ran_on_worker = on_worker.contains(&true);
    assert!(
        ran_on_worker || pool.size() == 1,
        "no master was a pool worker"
    );
}

mod generated {
    use super::*;
    use proptest::prelude::*;

    /// One loop of a generated kernel. Constants are bounded so every
    /// subscript stays in range and integer arithmetic cannot overflow.
    #[derive(Debug, Clone)]
    enum GenLoop {
        /// `w[i] = v[i] * k1 + k2;` (DOALL)
        Map { k1: i64, k2: i64 },
        /// `w[i] = v[i] * k1 + u[i] * k2 + w[i];` — long load/binary chain.
        Fma { k1: i64, k2: i64 },
        /// `w[i] = v[u[i] % 96];` — indirect load (gep feeds gep).
        Gather,
        /// `w[u[i] % 96] = v[i] + k1;` — indirect store; `u` is a
        /// permutation, so iterations still write distinct cells.
        Scatter { k1: i64 },
        /// `s += v[i] + k1;` under `reduction(+: s)`
        RedInt { k1: i64 },
        /// `d += dv[i] * 0.5;` under `reduction(+: d)`
        RedDouble,
        /// `t = t + v[i]; w[i] = t + k1;` (never annotated: a recurrence
        /// plans HELIX and runs on the master inside a scheduled loop)
        Recurrence { k1: i64 },
        /// `critical { c[i] = c[i] + 1; }`: the PS-PDG proves the cells
        /// disjoint and drops the mutex.
        DisjointCritical,
        /// `atomic s += v[i];`: the mutex survives and executes through
        /// the deferred-RMW commit replay.
        AtomicShared,
        /// `t = v[i] * 2; w[i] = t + 1;` under `private(t)`
        PrivateTemp,
        /// `c[v[i] % 16] += 1;`: an indirect accumulator (the IS pattern)
        /// — merged as an auto-reduction.
        IndirectAccum,
        /// `if (v[i] > k1) { w[i] = v[i]; }` (branchy body)
        Branchy { k1: i64 },
    }

    impl GenLoop {
        /// The loop's source. `annotated` puts `#pragma omp parallel for`
        /// (plus the shape's clause) on it; an unannotated loop leaves the
        /// decision to the plan and must match the oracle all the same.
        fn render(&self, trip: i64, annotated: bool) -> String {
            let (clause, body) = match self {
                GenLoop::Map { k1, k2 } => ("", format!("w[i] = v[i] * {k1} + {k2};")),
                GenLoop::Fma { k1, k2 } => {
                    ("", format!("w[i] = v[i] * {k1} + u[i] * {k2} + w[i];"))
                }
                GenLoop::Gather => ("", "w[i] = v[u[i] % 96];".to_string()),
                GenLoop::Scatter { k1 } => ("", format!("w[u[i] % 96] = v[i] + {k1};")),
                GenLoop::RedInt { k1 } => (" reduction(+: s)", format!("s += v[i] + {k1};")),
                GenLoop::RedDouble => (" reduction(+: d)", "d += dv[i] * 0.5;".to_string()),
                GenLoop::Recurrence { k1 } => ("", format!("t = t + v[i]; w[i] = t + {k1};")),
                GenLoop::DisjointCritical => (
                    "",
                    "\n#pragma omp critical\n{ c[i] = c[i] + 1; }\n".to_string(),
                ),
                GenLoop::AtomicShared => ("", "\n#pragma omp atomic\ns += v[i];\n".to_string()),
                GenLoop::PrivateTemp => (" private(t)", "t = v[i] * 2; w[i] = t + 1;".to_string()),
                GenLoop::IndirectAccum => ("", "c[v[i] % 16] += 1;".to_string()),
                GenLoop::Branchy { k1 } => ("", format!("if (v[i] > {k1}) {{ w[i] = v[i]; }}")),
            };
            // A recurrence is not a worksharing loop; it is never annotated.
            let pragma = if annotated && !matches!(self, GenLoop::Recurrence { .. }) {
                format!("#pragma omp parallel for{clause}\n")
            } else {
                String::new()
            };
            format!("{pragma}for (i = 0; i < {trip}; i++) {{ {body} }}\n")
        }
    }

    fn arb_loop() -> impl Strategy<Value = GenLoop> {
        prop_oneof![
            (1i64..5, 0i64..9).prop_map(|(k1, k2)| GenLoop::Map { k1, k2 }),
            (1i64..4, 1i64..4).prop_map(|(k1, k2)| GenLoop::Fma { k1, k2 }),
            Just(GenLoop::Gather),
            (0i64..9).prop_map(|k1| GenLoop::Scatter { k1 }),
            (0i64..9).prop_map(|k1| GenLoop::RedInt { k1 }),
            Just(GenLoop::RedDouble),
            (0i64..9).prop_map(|k1| GenLoop::Recurrence { k1 }),
            Just(GenLoop::DisjointCritical),
            Just(GenLoop::AtomicShared),
            Just(GenLoop::PrivateTemp),
            Just(GenLoop::IndirectAccum),
            (0i64..50).prop_map(|k1| GenLoop::Branchy { k1 }),
        ]
    }

    fn render_program(trip: i64, loops: &[(GenLoop, bool)]) -> String {
        let body: String = loops.iter().map(|(l, ann)| l.render(trip, *ann)).collect();
        format!(
            r#"
            int v[96]; int w[96]; int c[96]; int u[96]; int s; int t; double d; double dv[96];
            void init() {{
                int i;
                for (i = 0; i < 96; i++) {{
                    v[i] = (i * 37 + 11) % 50;
                    w[i] = 0;
                    c[i] = i % 7;
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
                for (i = 0; i < 96; i++) {{ chk += v[i] + w[i] * 3 + c[i] * 7; }}
                print_i64(chk);
                return chk % 251;
            }}
            "#
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Generated kernels with straight-line maps, indirect loads and
        /// stores, reductions, critical sections, privatized temporaries,
        /// indirect accumulators, and recurrences, each loop annotated or
        /// not: runtime == sequential interpreter under both the PS-PDG
        /// and OpenMP plans, across worker counts.
        #[test]
        fn generated_kernels_match_sequential(
            trip in 8i64..96,
            loops in proptest::collection::vec((arb_loop(), proptest::bool::ANY), 1..4),
            workers in 2usize..6,
        ) {
            let src = render_program(trip, &loops);
            let p = compile(&src).expect("generated kernel compiles");
            assert_differential("gen/pspdg", &p, Abstraction::PsPdg, workers);
            assert_differential("gen/openmp", &p, Abstraction::OpenMp, workers);
        }
    }
}

mod criticals {
    use super::*;
    use proptest::prelude::*;

    /// One critical/atomic RMW loop; every variant keeps a surviving
    /// mutex under the OpenMP plan (criticals always serialize there), so
    /// equivalence is only reachable through the commit-replay path.
    #[derive(Debug, Clone, Copy)]
    enum CritLoop {
        /// `atomic s += v[i] + k;` — scalar integer delta.
        AtomicAddScalar { k: i64 },
        /// `atomic d += dv[i];` — float deltas; the replay preserves
        /// sequential association, so this compares *bit-identically*.
        AtomicAddDouble,
        /// `atomic c[v[i] % 16] += v[i];` — the EP/IS indirect-bin shape.
        AtomicIndirect,
        /// `critical { s -= v[i]; }` — subtraction (feedback on the left).
        CriticalSub,
        /// `critical { c[i % 8] *= 2; }` — multiplicative update.
        CriticalMul,
        /// `critical { d = fmax(d, dv[i]); }` — float max (value-predicated
        /// replay; compares bit-identically, min/max commute).
        CriticalFmax,
        /// `critical { s = imin(s, v[i] - k); }` — integer min with the
        /// feedback load on either operand side.
        CriticalImin { k: i64, swapped: bool },
        /// `critical { if (dv[i] > d) { d = dv[i]; } }` — the guarded
        /// max: the store is value-predicated at replay.
        GuardedMax,
        /// `critical { if (v[i] > s) { s = v[i]; si = i; } }` — guarded
        /// argmax: two cells update under one guard.
        GuardedArgmax,
        /// `critical { if (v[i] < s) { s = v[i]; } c[1] = c[1] + 1; }` —
        /// a guarded min chained with an unconditional counter in the
        /// same region (mixed predicated/unpredicated stores).
        GuardedMinChained,
        /// `critical { s += v[i]; c[2] += s; }` — chained updates: the
        /// second chain's operand reads the first chain's cell.
        ChainedAdd,
    }

    impl CritLoop {
        fn render(self, trip: i64) -> String {
            match self {
                CritLoop::AtomicAddScalar { k } => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp atomic\ns += v[i] + {k};\n}}\n"
                ),
                CritLoop::AtomicAddDouble => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp atomic\nd += dv[i];\n}}\n"
                ),
                CritLoop::AtomicIndirect => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp atomic\nc[v[i] % 16] += v[i];\n}}\n"
                ),
                CritLoop::CriticalSub => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ s -= v[i]; }}\n}}\n"
                ),
                CritLoop::CriticalMul => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ c[i % 8] *= 2; }}\n}}\n"
                ),
                CritLoop::CriticalFmax => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ d = fmax(d, dv[i]); }}\n}}\n"
                ),
                CritLoop::CriticalImin { k, swapped } => {
                    let call = if swapped {
                        format!("imin(v[i] - {k}, s)")
                    } else {
                        format!("imin(s, v[i] - {k})")
                    };
                    format!(
                        "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ s = {call}; }}\n}}\n"
                    )
                }
                CritLoop::GuardedMax => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ if (dv[i] > d) {{ d = dv[i]; }} }}\n}}\n"
                ),
                CritLoop::GuardedArgmax => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ if (v[i] > s) {{ s = v[i]; si = i; }} }}\n}}\n"
                ),
                CritLoop::GuardedMinChained => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ if (v[i] < s) {{ s = v[i]; }} c[1] = c[1] + 1; }}\n}}\n"
                ),
                CritLoop::ChainedAdd => format!(
                    "#pragma omp parallel for\nfor (i = 0; i < {trip}; i++) {{\n#pragma omp critical\n{{ s += v[i]; c[2] += s; }}\n}}\n"
                ),
            }
        }
    }

    fn arb_crit() -> impl Strategy<Value = CritLoop> {
        prop_oneof![
            (0i64..5).prop_map(|k| CritLoop::AtomicAddScalar { k }),
            Just(CritLoop::AtomicAddDouble),
            Just(CritLoop::AtomicIndirect),
            Just(CritLoop::CriticalSub),
            Just(CritLoop::CriticalMul),
            Just(CritLoop::CriticalFmax),
            (0i64..5, proptest::bool::ANY)
                .prop_map(|(k, swapped)| CritLoop::CriticalImin { k, swapped }),
            Just(CritLoop::GuardedMax),
            Just(CritLoop::GuardedArgmax),
            Just(CritLoop::GuardedMinChained),
            Just(CritLoop::ChainedAdd),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// Critical/atomic kernels must run their loops in *parallel*
        /// via the deferred-RMW replay (no mutex-rule fallback) and stay
        /// equivalent to the interpreter under both plans.
        #[test]
        fn critical_kernels_execute_through_replay(
            trip in 8i64..96,
            loops in proptest::collection::vec(arb_crit(), 1..3),
            workers in 2usize..5,
        ) {
            let body: String = loops.iter().map(|l| l.render(trip)).collect();
            let src = format!(
                r#"
                int v[96]; int c[96]; int s; int si; double d; double dv[96];
                void init() {{
                    int i;
                    for (i = 0; i < 96; i++) {{
                        v[i] = (i * 29 + 7) % 23;
                        c[i] = 1 + i % 5;
                        dv[i] = (double)(i % 11) * 0.125;
                    }}
                    s = 2; si = -1; d = 0.25;
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
                    print_i64(si);
                    print_f64(d);
                    chk = 0;
                    for (i = 0; i < 96; i++) {{ chk += c[i]; }}
                    print_i64(chk);
                    return 0;
                }}
                "#
            );
            let p = compile(&src).expect("critical kernel compiles");
            // Under the OpenMP plan every critical/atomic survives, so
            // the only parallel route is the replay path.
            let stats = assert_differential("crit/openmp", &p, Abstraction::OpenMp, workers);
            prop_assert_eq!(
                stats.chunked_loops,
                loops.len() as u64,
                "every critical loop must chunk through replay: {:?}",
                stats
            );
            prop_assert!(stats.critical_replays > 0, "no deltas replayed: {:?}", stats);
            assert_differential("crit/pspdg", &p, Abstraction::PsPdg, workers);
        }
    }
}

/// EP-style `best = max(best, e)` criticals: the min/max deferral must let
/// the loop chunk with **zero** mutex-related fallbacks — no loop
/// scheduled sequential, no replay fault — under both the OpenMP plan
/// (where every critical survives) and the PS-PDG plan.
#[test]
fn ep_style_max_critical_chunks_with_zero_mutex_fallbacks() {
    let src = r#"
        double best; int bestbin; double dv[256];
        void init() {
            int i;
            for (i = 0; i < 256; i++) {
                dv[i] = (double)((i * 37 + 11) % 101) * 0.03125;
            }
            best = -1.0; bestbin = -1;
        }
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 256; i++) {
                #pragma omp critical
                { best = fmax(best, dv[i]); }
                #pragma omp critical(bin)
                { bestbin = imax(bestbin, (i * 37 + 11) % 101); }
            }
        }
        int main() {
            init();
            k();
            print_f64(best);
            print_i64(bestbin);
            return bestbin % 101;
        }
        "#;
    let p = compile(src).expect("EP-style max kernel compiles");
    for abstraction in [Abstraction::OpenMp, Abstraction::PsPdg] {
        let stats = assert_differential("ep-max", &p, abstraction, 4);
        assert!(
            stats.chunked_loops > 0,
            "{abstraction:?}: the max-critical loop must chunk: {stats:?}"
        );
        assert!(
            stats.critical_replays > 0,
            "{abstraction:?}: min/max deltas must replay at commit: {stats:?}"
        );
        assert!(
            stats.critical_packets >= stats.critical_replays,
            "{abstraction:?}: every replayed store comes from a logged packet: {stats:?}"
        );
        assert_eq!(
            stats.fallbacks[FallbackWhy::ScheduledSequential],
            0,
            "{abstraction:?}: no loop may serialize on the mutex rule: {stats:?}"
        );
        assert_eq!(
            stats.fallbacks[FallbackWhy::ReplayFault],
            0,
            "{abstraction:?}: replay must not fault: {stats:?}"
        );
    }
}

/// The PR's acceptance criterion: a guarded
/// `if (v > best) { best = v; best_idx = i; }` critical loop executes
/// *chunked* with zero mutex-related fallbacks, and the protected cells
/// finish **bit-identical** to the sequential interpreter — the guard is
/// re-decided against the true heap at commit, not trusted from the
/// fork-local guess.
#[test]
fn guarded_argmax_chunks_bit_identical_with_zero_mutex_fallbacks() {
    let src = r#"
        double best; int best_idx; double dv[256];
        void init() {
            int i;
            for (i = 0; i < 256; i++) {
                dv[i] = (double)((i * 97 + 13) % 251) * 0.0078125
                      + (double)(i % 7) * 0.015625;
            }
            best = -1.0; best_idx = -1;
        }
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 256; i++) {
                #pragma omp critical
                { if (dv[i] > best) { best = dv[i]; best_idx = i; } }
            }
        }
        int main() {
            init();
            k();
            print_f64(best);
            print_i64(best_idx);
            return best_idx % 101;
        }
        "#;
    let p = compile(src).expect("guarded argmax kernel compiles");
    for abstraction in [Abstraction::OpenMp, Abstraction::PsPdg] {
        for workers in [2, 3, 4] {
            let mut interp = Interpreter::new(&p.module);
            interp.run_main(&mut NullSink).unwrap();
            let plan = build_plan(&p, interp.profile(), abstraction, 0.01);
            let rt = Runtime::new(&p, &plan).workers(workers).cost_threshold(0);
            let out = rt.run_main().unwrap();
            let stats = out.stats;
            assert!(
                stats.chunked_loops > 0,
                "{abstraction:?}/{workers}: the guarded loop must chunk: {stats:?}"
            );
            assert!(
                stats.critical_packets > 0,
                "{abstraction:?}/{workers}: workers must log packets: {stats:?}"
            );
            assert!(
                stats.critical_replays > 0,
                "{abstraction:?}/{workers}: predicated stores must apply: {stats:?}"
            );
            assert!(
                stats.critical_replays < stats.critical_packets,
                "{abstraction:?}/{workers}: most guards fail against the true max, \
                 so replayed stores must undercut packets: {stats:?}"
            );
            assert_eq!(
                (
                    stats.fallbacks[FallbackWhy::ScheduledSequential],
                    stats.fallbacks[FallbackWhy::SpeculationFault],
                    stats.fallbacks[FallbackWhy::ReplayFault]
                ),
                (0, 0, 0),
                "{abstraction:?}/{workers}: zero mutex-related fallbacks: {stats:?}"
            );
            // Protected cells: bit-identical, not merely within tolerance.
            let protected = |mem| {
                let mut g = observable_globals(&p.module, mem);
                g.retain(|(name, _)| name == "best" || name == "best_idx");
                assert_eq!(g.len(), 2);
                g
            };
            assert_eq!(
                pspdg_runtime::globals_identical_mismatch(
                    &protected(interp.mem()),
                    &protected(&out.mem)
                ),
                None,
                "{abstraction:?}/{workers}: a protected cell diverged"
            );
        }
    }
}

/// FNV-1a over the output lines, each followed by a newline.
fn output_digest(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every kernel of `fault_suite(Class::Mini)` under the PS-PDG plan at two
/// and four workers with the default cost gate: the steps counted by the
/// master, the chunk workers and the master's critical replay, the return
/// value and a digest of the output lines are pinned exactly, and so are
/// the packet and replayed-store counts of the two kernels whose hot loops
/// are parallel only through the commit-time critical replay (GMAX, EP).
/// Output also equals the interpreter's, and no replay faults.
#[test]
fn mini_replay_kernels_pin_packet_and_store_counts() {
    type Row = (&'static str, u64, i64, u64, u64, u64);
    const PINS: [Row; 10] = [
        ("BT", 959_159, 13, 0x97252a56d83b04d4, 0, 0),
        ("CG", 508_938, 27, 0x551d8f09ae1b2992, 0, 0),
        ("EP", 1_405_845, 151, 0xea67589d16d24cc3, 15_713, 15_713),
        ("FT", 1_234_867, 69, 0x71add6d58c9dd6fe, 0, 0),
        ("IS", 1_506_553, 3, 0x03fb8b49c3770c02, 0, 0),
        ("LU", 579_075, 132, 0x7a4420e3ad8dfd2b, 0, 0),
        ("MG", 1_072_952, 116, 0x31f24ce8f915fb40, 0, 0),
        ("SP", 996_574, 178, 0xc24b26376e514a17, 0, 0),
        ("GMAX", 540_783, 36, 0x4ad4ce077eb445ac, 16_384, 8_226),
        ("PIPE", 147_486, 170, 0x2f7105d53be38945, 0, 0),
    ];
    let mut got: Vec<Row> = Vec::new();
    for b in fault_suite(Class::Mini) {
        let p = b.program();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).unwrap();
        let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
        let rows = [2, 4].map(|workers| {
            let out = Runtime::new(&p, &plan).workers(workers).run_main().unwrap();
            let name = b.name;
            assert_eq!(out.output, interp.output(), "{name}/{workers}: output");
            let stats = out.stats;
            assert_eq!(
                stats.fallbacks[FallbackWhy::ReplayFault],
                0,
                "{name}: {stats:?}"
            );
            let ret = out.ret.and_then(|v| v.as_int()).expect("int return");
            let (pk, rp) = (stats.critical_packets, stats.critical_replays);
            (name, out.steps, ret, output_digest(&out.output), pk, rp)
        });
        assert_eq!(rows[0], rows[1], "2 and 4 workers");
        got.push(rows[0]);
    }
    assert_eq!(got, PINS);
}

/// Equality-guarded test-and-set stays serialized (the realization keeps
/// its own cause) yet remains observably equivalent.
#[test]
fn test_and_set_critical_stays_serialized_and_equivalent() {
    let src = r#"
        int flag; int winner; int v[128];
        void init() {
            int i;
            for (i = 0; i < 128; i++) { v[i] = (i * 53 + 11) % 64; }
            flag = 0; winner = -1;
        }
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 128; i++) {
                #pragma omp critical
                { if (flag == 0) { flag = 1; winner = i; } }
            }
        }
        int main() { init(); k(); print_i64(flag); print_i64(winner); return winner; }
        "#;
    let p = compile(src).expect("test-and-set kernel compiles");
    let stats = assert_differential("test-and-set", &p, Abstraction::OpenMp, 4);
    assert_eq!(
        stats.critical_packets, 0,
        "the equality guard must not reach the replay path: {stats:?}"
    );
    assert!(
        stats.fallbacks[FallbackWhy::ScheduledSequential] > 0,
        "the loop must serialize at realization time: {stats:?}"
    );
}

#[test]
fn pool_threads_survive_across_activations_and_runs() {
    // IS has many loop activations; the global pool's threads must serve
    // all of them (and a second run) without one being lost or replaced,
    // and the runtime creates none of its own.
    let b = benchmark("IS", Class::Test).unwrap();
    let p = b.program();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).unwrap();
    let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
    let pool = pspdg_pool::global();
    let rt = Runtime::new(&p, &plan).workers(3).cost_threshold(0);
    let ids = pool.thread_ids();
    assert_eq!(ids.len(), pool.size());
    let out = rt.run_main().unwrap();
    assert!(
        out.stats.pool_dispatches > ids.len() as u64,
        "many activations must reuse the few pool threads: {:?}",
        out.stats
    );
    assert_eq!(
        pool.thread_ids(),
        ids,
        "activations must keep the same workers"
    );
    rt.run_main().unwrap();
    assert_eq!(
        pool.thread_ids(),
        ids,
        "the global pool persists across runs of the same Runtime"
    );
}
