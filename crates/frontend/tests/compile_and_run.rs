//! End-to-end tests: ParC source → IR → interpreter, checking both the
//! computed results and the structural properties later stages rely on
//! (canonical loops, directive regions).

use pspdg_frontend::compile;
use pspdg_ir::interp::{Interpreter, NullSink, RtVal};
use pspdg_ir::{Cfg, DomTree, LoopForest};
use pspdg_parallel::{DataClause, DirectiveKind, ParallelProgram};

fn run_main(program: &ParallelProgram) -> (Option<RtVal>, Vec<String>) {
    let mut interp = Interpreter::new(&program.module);
    let r = interp.run_main(&mut NullSink).expect("runs");
    (r, interp.output().to_vec())
}

#[test]
fn arithmetic_and_locals() {
    let p = compile(
        r#"
        int main() {
            int x = 6;
            int y = 7;
            double z = 0.5;
            return x * y + (int)(z * 2.0);
        }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(43)));
}

#[test]
fn loops_and_arrays() {
    let p = compile(
        r#"
        int a[10];
        int main() {
            int i;
            int s = 0;
            for (i = 0; i < 10; i++) { a[i] = i * i; }
            for (i = 0; i < 10; i++) { s += a[i]; }
            return s;
        }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(285)));
}

#[test]
fn two_dimensional_arrays() {
    let p = compile(
        r#"
        double m[4][4];
        int main() {
            int i; int j;
            for (i = 0; i < 4; i++) {
                for (j = 0; j < 4; j++) { m[i][j] = i * 10 + j; }
            }
            return (int) m[2][3];
        }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(23)));
}

#[test]
fn functions_params_and_recursion() {
    let p = compile(
        r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(12); }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(144)));
}

#[test]
fn array_parameters() {
    let p = compile(
        r#"
        int buf[8];
        void fill(int a[], int n) {
            int i;
            for (i = 0; i < n; i++) { a[i] = 2 * i; }
        }
        int main() {
            fill(buf, 8);
            return buf[7];
        }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(14)));
}

#[test]
fn while_and_conditions() {
    let p = compile(
        r#"
        int main() {
            int n = 100;
            int steps = 0;
            while (n != 1) {
                if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                steps++;
            }
            return steps;
        }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(25))); // Collatz(100)
}

#[test]
fn builtins_and_output() {
    let p = compile(
        r#"
        int main() {
            double x = sqrt(16.0);
            print_f64(x);
            print_i64(imax(3, 9));
            return (int) pow(2.0, 10.0);
        }
        "#,
    )
    .unwrap();
    let (r, out) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(1024)));
    assert_eq!(out, vec!["4.000000".to_string(), "9".to_string()]);
}

#[test]
fn logical_operators() {
    let p = compile(
        r#"
        int main() {
            int a = 3;
            int r = 0;
            if (a > 1 && a < 10) { r += 1; }
            if (a < 1 || a == 3) { r += 2; }
            if (!(a == 4)) { r += 4; }
            return r;
        }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(7)));
}

#[test]
fn for_loops_are_canonical() {
    let p = compile(
        r#"
        int a[32];
        void k(int n) {
            int i;
            for (i = 0; i < n; i += 2) { a[i] = i; }
        }
        int main() { k(32); return 0; }
        "#,
    )
    .unwrap();
    let f = p.module.function_by_name("k").unwrap();
    let func = p.module.function(f);
    let cfg = Cfg::new(func);
    let dom = DomTree::new(&cfg);
    let forest = LoopForest::new(func, &cfg, &dom);
    assert_eq!(forest.len(), 1);
    let l = forest.loop_ids().next().unwrap();
    let canon = forest
        .canonical(func, l)
        .expect("frontend loops are canonical");
    assert_eq!(canon.step, 2);
}

#[test]
fn pragma_regions_cover_their_loops() {
    let p = compile(
        r#"
        int a[16];
        int b[16];
        void k() {
            int i;
            #pragma omp parallel
            {
                #pragma omp for
                for (i = 0; i < 16; i++) { a[i] = i; }
                #pragma omp for nowait
                for (i = 0; i < 16; i++) { b[i] = i; }
            }
        }
        int main() { k(); return 0; }
        "#,
    )
    .unwrap();
    let kinds: Vec<&str> = p.directives().map(|(_, d)| d.kind.name()).collect();
    assert_eq!(kinds, vec!["for", "for", "parallel"]);
    // The parallel region must enclose both worksharing loops.
    let parallel = p
        .directives()
        .find(|(_, d)| matches!(d.kind, DirectiveKind::Parallel))
        .unwrap()
        .1;
    for (_, d) in p.directives() {
        if let DirectiveKind::For { nowait, .. } = d.kind {
            assert!(parallel.region.encloses(&d.region));
            let _ = nowait;
        }
    }
    // nowait got picked up on the second loop.
    let nowaits: Vec<bool> = p
        .directives()
        .filter_map(|(_, d)| match d.kind {
            DirectiveKind::For { nowait, .. } => Some(nowait),
            _ => None,
        })
        .collect();
    assert_eq!(nowaits, vec![false, true]);
}

#[test]
fn clause_variables_resolve() {
    let p = compile(
        r#"
        double total;
        void k(int n) {
            int i;
            double local = 0.0;
            #pragma omp parallel for reduction(+: total) firstprivate(local)
            for (i = 0; i < n; i++) { total += local + i; }
        }
        int main() { k(4); return 0; }
        "#,
    )
    .unwrap();
    let for_dir = p
        .directives()
        .find(|(_, d)| matches!(d.kind, DirectiveKind::For { .. }))
        .unwrap()
        .1;
    let mut saw_reduction = false;
    let mut saw_firstprivate = false;
    for c in &for_dir.clauses {
        match c {
            DataClause::Reduction { var, .. } => {
                saw_reduction = true;
                assert_eq!(p.var_name(*var), "total");
            }
            DataClause::Firstprivate(var) => {
                saw_firstprivate = true;
                assert_eq!(p.var_name(*var), "local");
            }
            _ => {}
        }
    }
    assert!(saw_reduction && saw_firstprivate);
}

#[test]
fn critical_single_master_atomic_barrier() {
    let p = compile(
        r#"
        int hist[4];
        int done;
        void k() {
            int i;
            #pragma omp parallel
            {
                #pragma omp for
                for (i = 0; i < 4; i++) {
                    #pragma omp critical (histo)
                    { hist[i] += 1; }
                }
                #pragma omp barrier
                #pragma omp single
                { done = 1; }
                #pragma omp master
                { done = done + 1; }
                #pragma omp atomic
                done += 1;
            }
        }
        int main() { k(); return done; }
        "#,
    )
    .unwrap();
    let kinds: Vec<&str> = p.directives().map(|(_, d)| d.kind.name()).collect();
    assert!(kinds.contains(&"critical"));
    assert!(kinds.contains(&"barrier"));
    assert!(kinds.contains(&"single"));
    assert!(kinds.contains(&"master"));
    assert!(kinds.contains(&"atomic"));
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(3)));
}

#[test]
fn cilk_constructs_lower() {
    let p = compile(
        r#"
        int fib(int n) {
            int x; int y;
            if (n < 2) { return n; }
            x = cilk_spawn fib(n - 1);
            y = fib(n - 2);
            cilk_sync;
            return x + y;
        }
        int main() { return fib(10); }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(55)));
    let kinds: Vec<&str> = p.directives().map(|(_, d)| d.kind.name()).collect();
    assert!(kinds.contains(&"cilk_spawn"));
    assert!(kinds.contains(&"cilk_sync"));
}

#[test]
fn cilk_for_and_scope() {
    let p = compile(
        r#"
        int a[8];
        void k() {
            int i;
            cilk_scope {
                cilk_for (i = 0; i < 8; i++) { a[i] = i; }
            }
        }
        int main() { k(); return a[5]; }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(5)));
    let kinds: Vec<&str> = p.directives().map(|(_, d)| d.kind.name()).collect();
    assert!(kinds.contains(&"cilk_for"));
    assert!(kinds.contains(&"cilk_scope"));
}

#[test]
fn tasks_with_depends() {
    let p = compile(
        r#"
        int x; int y;
        void k() {
            #pragma omp task depend(out: x)
            { x = 1; }
            #pragma omp task depend(in: x) depend(out: y)
            { y = x + 1; }
            #pragma omp taskwait
        }
        int main() { k(); return y; }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(2)));
    let task_count = p
        .directives()
        .filter(|(_, d)| matches!(d.kind, DirectiveKind::Task { .. }))
        .count();
    assert_eq!(task_count, 2);
}

#[test]
fn rejects_semantic_errors() {
    for (src, needle) in [
        ("int main() { return y; }", "unknown variable"),
        ("int main() { foo(); return 0; }", "unknown function"),
        (
            "int f(int x) { return x; } int main() { return f(); }",
            "takes 1 args",
        ),
        (
            "int main() { int x; int x; return 0; }",
            "duplicate variable",
        ),
        (
            "void k() { int i;\n#pragma omp for\ni = 3; }\nint main() { return 0; }",
            "must annotate a for loop",
        ),
        (
            "void k() { int x;\n#pragma omp atomic\nx = 3; }\nint main() { return 0; }",
            "compound update",
        ),
        ("int a[4]; int main() { return a; }", "used as a scalar"),
        ("int main() { int s; return s[0]; }", "is not an array"),
    ] {
        let err = compile(src).unwrap_err();
        assert!(
            err.message.contains(needle),
            "source {src:?} produced wrong error: {err}"
        );
    }
}

#[test]
fn schedule_and_collapse_clauses_lower() {
    let p = compile(
        r#"
        int a[64];
        void k() {
            int i;
            #pragma omp parallel for schedule(dynamic, 16) collapse(1) num_threads(8)
            for (i = 0; i < 64; i++) { a[i] = i; }
        }
        int main() { k(); return a[63]; }
        "#,
    )
    .unwrap();
    let f = p.module.function_by_name("k").unwrap();
    let for_dir = p
        .directives_in(f)
        .find(|(_, d)| matches!(d.kind, DirectiveKind::For { .. }))
        .unwrap()
        .1;
    let DirectiveKind::For { schedule, .. } = &for_dir.kind else {
        panic!()
    };
    assert_eq!(schedule.kind, pspdg_parallel::ScheduleKind::Dynamic);
    assert_eq!(schedule.chunk, Some(16));
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(63)));
}

#[test]
fn taskloop_and_simd_are_worksharing() {
    let p = compile(
        r#"
        int a[16]; int b[16];
        void k() {
            int i; int j;
            #pragma omp taskloop
            for (i = 0; i < 16; i++) { a[i] = i; }
            #pragma omp simd
            for (j = 0; j < 16; j++) { b[j] = j; }
        }
        int main() { k(); return a[3] + b[4]; }
        "#,
    )
    .unwrap();
    let f = p.module.function_by_name("k").unwrap();
    let ws: Vec<&str> = p
        .directives_in(f)
        .filter(|(_, d)| d.loop_header.is_some())
        .map(|(_, d)| d.kind.name())
        .collect();
    assert_eq!(ws, vec!["taskloop", "simd"]);
    // Both register as worksharing for the lookup API.
    let headers: Vec<_> = p
        .directives_in(f)
        .filter_map(|(_, d)| d.loop_header)
        .collect();
    assert!(p.worksharing_loop_directive(f, headers[0]).is_some());
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(7)));
}

#[test]
fn named_and_unnamed_criticals_are_distinct_locks() {
    let p = compile(
        r#"
        int x; int y;
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 4; i++) {
                #pragma omp critical (xlock)
                { x += 1; }
                #pragma omp critical (ylock)
                { y += 1; }
            }
        }
        int main() { k(); return x + y; }
        "#,
    )
    .unwrap();
    let f = p.module.function_by_name("k").unwrap();
    let names: Vec<Option<String>> = p
        .directives_in(f)
        .filter_map(|(_, d)| match &d.kind {
            DirectiveKind::Critical { name } => Some(name.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(names.len(), 2);
    assert_ne!(names[0], names[1]);
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(8)));
}

#[test]
fn shadowing_in_nested_scopes() {
    let p = compile(
        r#"
        int main() {
            int x = 1;
            {
                int x = 2;
                x = x + 10;
            }
            return x;
        }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(1)));
}

#[test]
fn scalar_params_are_mutable() {
    let p = compile(
        r#"
        int twice_sum(int n) {
            int s = 0;
            while (n > 0) { s += n; n--; }
            return 2 * s;
        }
        int main() { return twice_sum(5); }
        "#,
    )
    .unwrap();
    let (r, _) = run_main(&p);
    assert_eq!(r, Some(RtVal::Int(30)));
}

/// `main` nested `n` levels deep in one of the ways parsing, lowering and
/// dropping the tree recurse.
fn nested(shape: &str, n: usize) -> String {
    let body = match shape {
        "parens" => format!("return {}1{};", "(".repeat(n), ")".repeat(n)),
        "chain" => format!("return 1{};", " + 1".repeat(n - 1)),
        "negations" => format!("return {}1;", "- ".repeat(n)),
        "blocks" => format!("{}{} return 1;", "{ ".repeat(n), "} ".repeat(n)),
        "ifs" => format!("{} return 1; return 0;", "if (1) ".repeat(n)),
        _ => unreachable!("unknown shape {shape}"),
    };
    format!("int main() {{\n{body}\n}}\n")
}

#[test]
fn nesting_past_the_limit_is_an_error_at_its_line() {
    // (shape, deepest n accepted, main's result there): a statement takes a
    // level, and `return` plus its expression root take two more.
    let shapes = [
        ("parens", 254, 1),
        ("chain", 255, 255),
        ("negations", 254, 1),
        ("blocks", 256, 1),
        ("ifs", 254, 1),
    ];
    for (shape, limit, result) in shapes {
        let program = compile(&nested(shape, limit)).unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert_eq!(run_main(&program).0, Some(RtVal::Int(result)), "{shape}");
        for n in [limit + 1, 10_000] {
            let err = compile(&nested(shape, n)).unwrap_err();
            assert_eq!(
                err.to_string(),
                "line 2: nesting deeper than 256 levels",
                "{shape} {n}"
            );
        }
    }
}
