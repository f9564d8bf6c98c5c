//! SYNTH — a statically-scaled dependence-analysis stress kernel.
//!
//! The NAS kernels scale *dynamically* with [`Class`] (trip counts grow,
//! the static shape stays fixed at a few dozen memory references), so they
//! cannot exhibit the asymptotic O(R²) → O(Σ bucket²) difference between
//! the all-pairs dependence sweep and per-base-object bucketing. This
//! generator scales the *static* reference count instead: `bases` distinct
//! global arrays, each swept by its own recurrence loop plus a
//! cross-statement accumulation — so R grows linearly with `bases` while
//! every bucket stays O(1), making the bucketing win visible at benchmark
//! scale (`BENCH_pdg.json`'s SYNTH rows).

use crate::{Benchmark, Class};

/// Number of distinct base objects (≈ R/3 static memory references) the
/// class generates.
pub(crate) fn bases_for(class: Class) -> usize {
    match class {
        Class::Test => 48,
        Class::Mini => 192,
    }
}

/// The SYNTH benchmark at the given class: static reference count scales
/// with the class (`bases_for`), trip counts stay small.
pub fn benchmark(class: Class) -> Benchmark {
    wide(bases_for(class))
}

/// SYNTH with an explicit base-object count (the `BENCH_pdg.json` sweep
/// uses several widths to show the asymptotic trend).
pub fn wide(bases: usize) -> Benchmark {
    let mut src = String::new();
    for k in 0..bases {
        src.push_str(&format!("int w{k}[64];\n"));
    }
    src.push_str("int acc;\n");
    src.push_str("void k() {\n");
    for k in 0..bases {
        src.push_str(&format!(
            "int i{k}; for (i{k} = 1; i{k} < 64; i{k}++) {{ w{k}[i{k}] = w{k}[i{k} - 1] + {k}; }}\n"
        ));
    }
    // One accumulation per array, outside the loops: an extra static read
    // per base without adding cross-base aliasing.
    src.push_str("int j;\nfor (j = 0; j < 1; j++) {\n");
    for k in 0..bases {
        src.push_str(&format!("acc += w{k}[63];\n"));
    }
    src.push_str("}\n}\n");
    src.push_str("int main() { k(); print_i64(acc); return acc % 251; }\n");
    Benchmark {
        name: "SYNTH",
        description: "statically-scaled multi-array recurrences (bucketing stress)",
        source: src,
    }
}

/// MODULE — a module-scale analysis stress program: `n_funcs`
/// functions over a shared pool of `bases` global arrays, each function
/// touching three arrays (a recurrence, a derived copy, and a global
/// accumulator) so the per-function dependence work is small but real.
///
/// Where [`wide`] scales the reference count of *one* function, `module`
/// scales the *function count* — the axis the module driver
/// (`pspdg_core::build_pspdg_module`) maps over. The `BENCH_pdg.json`
/// module-scale section times the per-function loop on this program.
pub fn module(n_funcs: usize, bases: usize) -> Benchmark {
    let bases = bases.max(1);
    let mut src = String::new();
    for k in 0..bases {
        src.push_str(&format!("int m{k}[64];\n"));
    }
    src.push_str("int macc;\n");
    for k in 0..n_funcs {
        // Six arrays per function, offset so neighbouring functions share
        // bases (function bodies stay distinct: the `+ i` constant and the
        // array mix differ). A doubly-nested recurrence puts most of the
        // references deep in the loop forest — the shape whose per-ref
        // nest lookups the PDG builder amortizes per block.
        let a = [k, k + 1, k + 2, k + 3, k + 5, k + 7].map(|x| x % bases);
        let (a0, a1, a2, a3, a4, a5) = (a[0], a[1], a[2], a[3], a[4], a[5]);
        src.push_str(&format!(
            "void f{k}() {{ int i; int j;\n\
             for (i = 1; i < 8; i++) {{\n\
               for (j = 1; j < 8; j++) {{\n\
                 m{a0}[j] = m{a0}[j - 1] + i;\n\
                 m{a1}[j] = m{a0}[j] + m{a1}[j - 1];\n\
                 m{a2}[j] = m{a1}[j] * 2 + m{a2}[j - 1] + {k};\n\
               }}\n\
               m{a3}[i] = m{a3}[i - 1] + m{a2}[7];\n\
               m{a4}[i] = m{a4}[i - 1] + m{a0}[7];\n\
             }}\n\
             macc += m{a0}[7] + m{a1}[7] + m{a2}[7] + m{a3}[7] + m{a4}[7];\n\
             m{a5}[0] = macc;\n\
             }}\n"
        ));
    }
    // Keep `main` tiny: calling every function would make it the module's
    // largest function and distort the per-function scaling the
    // module-scale section measures.
    src.push_str("int main() { f0(); print_i64(macc); return macc % 251; }\n");
    Benchmark {
        name: "MODULE",
        description: "module-scale many-function program (per-function analysis stress)",
        source: src,
    }
}

/// Iteration count of the GMAX kernel at the given class.
fn gmax_trip(class: Class) -> usize {
    match class {
        Class::Test => 384,
        Class::Mini => 8192,
    }
}

/// GMAX — the guarded-critical stress kernel: an argmax loop
/// (`if (x > best) { best = x; best_idx = i; }` under one critical) and an
/// argmin-plus-counter loop (a guarded two-cell update *chained* with an
/// unconditional `hits += 1` in the same region). Neither loop is a plain
/// read-modify-write, so both are parallel **only** through the runtime's
/// commit-time critical replay, whose guards the master re-decides on the
/// true heap — the bench row that makes the guarded-critical win visible
/// (`BENCH_runtime.json`, asserted by `bench_runtime_json --smoke`).
pub fn gmax(class: Class) -> Benchmark {
    let n = gmax_trip(class);
    let source = format!(
        r#"
double gv[{n}];
double gw[{n}];
double best;
int best_idx;
double low;
int low_idx;
int hits;

void init() {{
    int i;
    for (i = 0; i < {n}; i++) {{
        gv[i] = (double)((i * 131 + 29) % 509) * 0.03125;
    }}
    best = -1.0;
    best_idx = -1;
    low = 1000000.0;
    low_idx = -1;
    hits = 0;
}}

void kmax() {{
    int i; double x;
    #pragma omp parallel for private(x)
    for (i = 0; i < {n}; i++) {{
        x = gv[i] * 1.5 + 0.25;
        gw[i] = x;
        #pragma omp critical
        {{ if (x > best) {{ best = x; best_idx = i; }} }}
    }}
}}

void kmin() {{
    int i;
    #pragma omp parallel for
    for (i = 0; i < {n}; i++) {{
        #pragma omp critical
        {{ if (gw[i] < low) {{ low = gw[i]; low_idx = i; }} hits = hits + 1; }}
    }}
}}

int main() {{
    init();
    kmax();
    kmin();
    print_f64(best);
    print_i64(best_idx);
    print_f64(low);
    print_i64(low_idx);
    print_i64(hits);
    return (best_idx + low_idx + hits) % 251;
}}
"#
    );
    Benchmark {
        name: "GMAX",
        description: "guarded argmax/argmin criticals (value-predicated replay stress)",
        source,
    }
}

/// Iteration count of the PIPE kernel at the given class.
fn pipe_trip(class: Class) -> usize {
    match class {
        Class::Test => 256,
        Class::Mini => 4096,
    }
}

/// PIPE — the DSWP-shaped kernel: a carried scalar recurrence
/// (`t = t + pv[i] + i`) feeding an independent consumer statement
/// (`pw[i] = t * 2`), the canonical two-stage decoupled-software-pipeline
/// shape. Chunking is impossible (the recurrence is cross-iteration), so
/// the planner answers HELIX, which the emulator runs on its ideal
/// machine, and the enumerator counts HELIX and DSWP options. The
/// runtime, whose one parallel strategy is chunking, runs the loop on the
/// master (`scheduled_sequential`).
pub fn pipe(class: Class) -> Benchmark {
    let n = pipe_trip(class);
    let source = format!(
        r#"
int t;
int pv[{n}];
int pw[{n}];

void init() {{
    int i;
    for (i = 0; i < {n}; i++) {{ pv[i] = (i * 37 + 11) % 101; }}
    t = 0;
}}

void k() {{
    int i;
    for (i = 0; i < {n}; i++) {{
        t = t + pv[i] + i;
        pw[i] = t * 2;
    }}
}}

int main() {{
    init();
    k();
    print_i64(t);
    return pw[{last}] % 251;
}}
"#,
        last = n - 1
    );
    Benchmark {
        name: "PIPE",
        description: "carried recurrence + consumer (the DSWP shape; runs on the master)",
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_pdg::{collect_mem_refs, FunctionAnalyses};

    fn static_refs(b: &Benchmark) -> usize {
        let p = b.program();
        p.module
            .function_ids()
            .filter(|f| !p.module.function(*f).blocks.is_empty())
            .map(|f| {
                let a = FunctionAnalyses::compute(&p.module, f);
                collect_mem_refs(&p.module, f, &a).len()
            })
            .sum()
    }

    #[test]
    fn compiles_and_runs_at_both_classes() {
        for class in [Class::Test, Class::Mini] {
            let b = benchmark(class);
            let p = b.program();
            let mut interp = pspdg_ir::interp::Interpreter::new(&p.module);
            let ret = interp
                .run_main(&mut pspdg_ir::interp::NullSink)
                .expect("SYNTH runs");
            assert!(ret.is_some());
        }
    }

    #[test]
    fn mini_scales_static_refs_not_just_trip_counts() {
        let test_refs = static_refs(&benchmark(Class::Test));
        let mini_refs = static_refs(&benchmark(Class::Mini));
        assert!(
            mini_refs >= test_refs * 3,
            "Mini must grow the *static* reference count: {test_refs} -> {mini_refs}"
        );
    }

    #[test]
    fn gmax_compiles_runs_and_keeps_its_criticals() {
        for class in [Class::Test, Class::Mini] {
            let b = gmax(class);
            let p = b.program();
            let mut interp = pspdg_ir::interp::Interpreter::new(&p.module);
            let ret = interp
                .run_main(&mut pspdg_ir::interp::NullSink)
                .expect("GMAX runs");
            assert!(ret.is_some());
            assert_eq!(interp.output().len(), 5);
            // The guarded max over gv*1.5+0.25 and its index are coupled.
            let best: f64 = interp.output()[0].parse().unwrap();
            let best_idx: i64 = interp.output()[1].parse().unwrap();
            assert!(best > 0.0 && best_idx >= 0);
            // Both kernels carry a critical the plans must reckon with.
            for name in ["kmax", "kmin"] {
                let f = p.module.function_by_name(name).unwrap();
                let kinds: Vec<&str> = p.directives_in(f).map(|(_, d)| d.kind.name()).collect();
                assert!(kinds.contains(&"critical"), "{name}: {kinds:?}");
            }
        }
    }

    #[test]
    fn pipe_compiles_runs_and_pipelines() {
        for class in [Class::Test, Class::Mini] {
            let b = pipe(class);
            let p = b.program();
            let mut interp = pspdg_ir::interp::Interpreter::new(&p.module);
            let ret = interp
                .run_main(&mut pspdg_ir::interp::NullSink)
                .expect("PIPE runs");
            assert!(ret.is_some());
            assert_eq!(interp.output().len(), 1);
            let t: i64 = interp.output()[0].parse().unwrap();
            assert!(t > 0, "the recurrence accumulates");
        }
    }

    #[test]
    fn module_scales_function_count_and_runs() {
        let small = module(8, 4);
        let big = module(16, 4);
        // Function count scales with n_funcs (+1 for main).
        let count = |b: &Benchmark| {
            let p = b.program();
            p.module
                .function_ids()
                .filter(|f| !p.module.function(*f).blocks.is_empty())
                .count()
        };
        assert_eq!(count(&small), 9);
        assert_eq!(count(&big), 17);
        // Static reference totals scale ~linearly with the function count.
        let a = static_refs(&small);
        let b = static_refs(&big);
        assert!(b > a && b < a * 3, "refs grow ~linearly: {a} -> {b}");
        // The program actually runs (main calls only f0, so this stays
        // cheap even at large n_funcs).
        let p = small.program();
        let mut interp = pspdg_ir::interp::Interpreter::new(&p.module);
        let ret = interp
            .run_main(&mut pspdg_ir::interp::NullSink)
            .expect("MODULE runs");
        assert!(ret.is_some());
    }

    #[test]
    fn wide_scales_linearly_in_bases() {
        let a = static_refs(&wide(16));
        let b = static_refs(&wide(32));
        assert!(
            b > a && b < a * 3,
            "R grows ~linearly with bases: {a} -> {b}"
        );
    }
}
