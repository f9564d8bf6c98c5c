//! Criterion micro-benchmark: PDG construction (alias analysis, affine
//! subscripts, dependence tests, control dependence) per NAS kernel —
//! bucketed builder vs the naive all-pairs oracle, plus the
//! per-function module loop (analyses included).

use criterion::{criterion_group, criterion_main, Criterion};
use pspdg_nas::{suite, Class};
use pspdg_pdg::{FunctionAnalyses, Pdg};
use std::hint::black_box;

fn bench_pdg(c: &mut Criterion) {
    let mut group = c.benchmark_group("pdg_construction");
    for b in suite(Class::Test) {
        let p = b.program();
        let funcs: Vec<_> = p
            .module
            .function_ids()
            .map(|f| (f, FunctionAnalyses::compute(&p.module, f)))
            .collect();
        group.bench_function(b.name, |bench| {
            bench.iter(|| {
                for (f, a) in &funcs {
                    black_box(Pdg::build(&p.module, *f, a));
                }
            })
        });
        group.bench_function(format!("{}_naive_oracle", b.name), |bench| {
            bench.iter(|| {
                for (f, a) in &funcs {
                    black_box(Pdg::build_naive(&p.module, *f, a));
                }
            })
        });
        group.bench_function(format!("{}_module_loop", b.name), |bench| {
            bench.iter(|| {
                for f in p.module.function_ids() {
                    let a = FunctionAnalyses::compute(&p.module, f);
                    black_box(Pdg::build(&p.module, f, &a));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pdg);
criterion_main!(benches);
