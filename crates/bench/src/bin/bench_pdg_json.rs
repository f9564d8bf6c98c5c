//! Writes `BENCH_pdg.json`: per-kernel PDG-construction and PS-PDG
//! assemble timings for the NAS `Class::Test` suite plus the statically
//! scaled SYNTH widths, comparing
//!
//! * the naive all-pairs dependence oracle vs the bucketed builder, and
//!   the per-function `FunctionAnalyses::compute` + `Pdg::build` loop
//!   (analyses included), and
//! * re-assembling the PS-PDG's effective graph after a directive-set
//!   change through the [`pspdg_pdg::EffectiveView`] **overlay**,
//!
//! plus a **module-scale** section: the same per-function loop over
//! `synth::module` (a ≥1000-function program), checked untimed against
//! the naive oracle.
//!
//! The overlay's per-edge clone count (`overlay_clone_edges`, its sparse
//! rewrite entries) is surfaced so CI can assert the rebuild path
//! allocates no per-edge clones beyond what the directive set forces —
//! zero for the directive-free SYNTH kernels.
//!
//! Run from the repository root (or pass an output path):
//!
//! ```text
//! cargo run --release -p pspdg-bench --bin bench_pdg_json [-- OUT.json [--smoke]]
//! ```
//!
//! `--smoke` runs fewer samples and asserts the overlay invariant (SYNTH
//! clone counts zero). The module-scale oracle (`oracle_mismatches == 0`)
//! is asserted on every run.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use pspdg_core::{build_pspdg_with_refs, FeatureSet};
use pspdg_nas::{suite, synth, Class};
use pspdg_parallel::ParallelProgram;
use pspdg_pdg::{FunctionAnalyses, MemRef, Pdg};

/// One timed run of `f`, in nanoseconds.
fn one_run_ns(f: &mut dyn FnMut()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

/// Best-of-`samples` wall time for each routine, sampled interleaved so
/// machine noise (frequency scaling, other processes) hits all of them
/// equally instead of whichever ran last.
fn time_all(samples: usize, fns: &mut [&mut dyn FnMut()]) -> Vec<u64> {
    for f in fns.iter_mut() {
        one_run_ns(*f); // warm-up (page in code and data)
    }
    let mut best = vec![u64::MAX; fns.len()];
    for _ in 0..samples {
        for (b, f) in best.iter_mut().zip(fns.iter_mut()) {
            *b = (*b).min(one_run_ns(*f));
        }
    }
    best
}

/// The per-function module loop (what `build_pspdg_module` maps over the
/// pool): `FunctionAnalyses::compute` + `Pdg::build` for every bodied
/// function, retaining every result.
fn sequential_module(p: &ParallelProgram) -> Vec<(FunctionAnalyses, Pdg)> {
    p.module
        .function_ids()
        .filter(|f| !p.module.function(*f).blocks.is_empty())
        .map(|func| {
            let analyses = FunctionAnalyses::compute(&p.module, func);
            let pdg = Pdg::build(&p.module, func, &analyses);
            (analyses, pdg)
        })
        .collect()
}

/// Per-function inputs for the assemble timings: analyses, base PDG, and
/// memory references built once (the assemble step is what varies).
struct Prepared {
    func: pspdg_ir::FuncId,
    analyses: FunctionAnalyses,
    pdg: Pdg,
    refs: Vec<MemRef>,
}

fn main() {
    let mut out_path = "BENCH_pdg.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    let samples = if smoke { 4 } else { 40 };
    let mut rows = String::new();

    let mut programs: Vec<(String, ParallelProgram)> = suite(Class::Test)
        .iter()
        .map(|b| (b.name.to_string(), b.program()))
        .collect();
    for n in [48, 96, 192] {
        programs.push((format!("SYNTH{n}"), synth::wide(n).program()));
    }

    for (bi, (name, p)) in programs.iter().enumerate() {
        let prepared: Vec<Prepared> = p
            .module
            .function_ids()
            .filter(|f| !p.module.function(*f).blocks.is_empty())
            .map(|func| {
                let analyses = FunctionAnalyses::compute(&p.module, func);
                let (pdg, refs) = Pdg::build_with_refs(&p.module, func, &analyses);
                Prepared {
                    func,
                    analyses,
                    pdg,
                    refs,
                }
            })
            .collect();
        let refs: usize = prepared.iter().map(|x| x.refs.len()).sum();
        let edges: usize = prepared.iter().map(|x| x.pdg.edges.len()).sum();
        // Per-edge clones the overlay holds after a full-feature assemble
        // (sparse rewrite entries — the only edges the assemble copied).
        let overlay_clones: usize = prepared
            .iter()
            .map(|x| {
                build_pspdg_with_refs(p, x.func, &x.analyses, &x.pdg, &x.refs, FeatureSet::all())
                    .effective
                    .rewrite_count()
            })
            .sum();

        // The module row also recomputes the analyses, so it is not
        // directly comparable to the two rows before it: it times the
        // end-to-end (analyses + PDG, all functions) per-function loop.
        let mut run_seq_module = || {
            std::hint::black_box(sequential_module(p));
        };
        let mut run_naive = || {
            for x in &prepared {
                std::hint::black_box(Pdg::build_naive(&p.module, x.func, &x.analyses));
            }
        };
        let mut run_bucketed = || {
            for x in &prepared {
                std::hint::black_box(Pdg::build(&p.module, x.func, &x.analyses));
            }
        };
        // Re-assemble after a directive-set change: base PDG, analyses,
        // and refs already exist, only the PS-PDG assemble re-runs.
        let mut run_overlay = || {
            for x in &prepared {
                std::hint::black_box(build_pspdg_with_refs(
                    p,
                    x.func,
                    &x.analyses,
                    &x.pdg,
                    &x.refs,
                    FeatureSet::all(),
                ));
            }
        };
        let times = time_all(
            samples,
            &mut [
                &mut run_naive,
                &mut run_bucketed,
                &mut run_seq_module,
                &mut run_overlay,
            ],
        );
        let (naive, bucketed, seq_module, overlay) = (times[0], times[1], times[2], times[3]);

        let speedup = naive as f64 / bucketed as f64;
        println!(
            "{:<8} refs {:>5}  edges {:>6}  naive {:>10} ns  bucketed {:>10} ns  speedup {:>5.2}x  seq_module {:>10} ns  reassemble overlay {:>9} ns  ({} clones)",
            name, refs, edges, naive, bucketed, speedup, seq_module, overlay, overlay_clones
        );
        if bi > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"kernel\": \"{}\", \"mem_refs\": {}, \"pdg_edges\": {}, \"naive_all_pairs_ns\": {}, \"bucketed_ns\": {}, \"speedup\": {:.3}, \"sequential_module_ns\": {}, \"reassemble_overlay_ns\": {}, \"overlay_clone_edges\": {}}}",
            name, refs, edges, naive, bucketed, speedup, seq_module, overlay, overlay_clones
        );

        if smoke && name.starts_with("SYNTH") {
            assert_eq!(
                overlay_clones, 0,
                "{name}: a directive-free kernel must re-assemble with zero per-edge clones"
            );
        }
    }

    let module_scale = bench_module_scale(smoke);

    let json = format!(
        "{{\n  \"suite\": \"NAS Class::Test + SYNTH static-scaling widths + module-scale per-function loop\",\n  \"samples_per_entry\": {samples},\n  \"metric\": \"min wall ns over interleaved samples, all functions per kernel\",\n  \"naive\": \"Pdg::build_naive (all-pairs, feature oracle)\",\n  \"bucketed\": \"Pdg::build (per-MemBase buckets)\",\n  \"sequential_module\": \"per-function FunctionAnalyses::compute + Pdg::build loop (analyses included)\",\n  \"reassemble_overlay\": \"PS-PDG assemble after a directive-set change through the EffectiveView overlay (mask + sparse rewrites, no per-edge clone)\",\n  \"overlay_clone_edges\": \"per-edge clones held by the overlay (sparse rewrites; 0 for directive-free kernels)\",\n  \"kernels\": [\n{rows}\n  ],\n{module_scale}}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_pdg.json");
    println!("wrote {out_path}");
}

/// Time the per-function loop on a ≥1000-function `synth::module`
/// program. Returns the `"module_scale"` JSON object (indented, trailing
/// newline). An untimed pass first checks every function's bucketed edge
/// set against the naive all-pairs oracle.
fn bench_module_scale(smoke: bool) -> String {
    const N_FUNCS: usize = 1200;
    const BASES: usize = 32;
    let samples = if smoke { 5 } else { 10 };
    let p = synth::module(N_FUNCS, BASES).program();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let edge_set =
        |pdg: &Pdg| -> BTreeSet<String> { pdg.edges.iter().map(|e| format!("{e:?}")).collect() };
    let (mut refs, mut edges, mut oracle_mismatches) = (0usize, 0usize, 0usize);
    for (analyses, pdg) in sequential_module(&p) {
        refs += pspdg_pdg::collect_mem_refs(&p.module, pdg.func, &analyses).len();
        edges += pdg.edges.len();
        let naive = Pdg::build_naive(&p.module, pdg.func, &analyses);
        if edge_set(&pdg) != edge_set(&naive) {
            oracle_mismatches += 1;
        }
    }
    assert_eq!(
        oracle_mismatches, 0,
        "module-scale oracle: the bucketed builder's edge sets must equal \
         the naive all-pairs sweep's on every function"
    );

    let mut run_seq = || {
        std::hint::black_box(sequential_module(&p));
    };
    let sequential = time_all(samples, &mut [&mut run_seq])[0];
    println!(
        "MODULE   funcs {N_FUNCS:>5}  refs {refs:>6}  edges {edges:>7}  per-function loop {sequential:>12} ns  host_cores {host_cores}"
    );

    format!(
        "  \"module_scale\": {{\n    \"program\": \"synth::module({N_FUNCS}, {BASES})\",\n    \"n_funcs\": {N_FUNCS},\n    \"bases\": {BASES},\n    \"host_cores\": {host_cores},\n    \"samples_per_entry\": {samples},\n    \"mem_refs\": {refs},\n    \"pdg_edges\": {edges},\n    \"sequential_ns\": {sequential},\n    \"sequential\": \"per-function FunctionAnalyses::compute + Pdg::build loop\",\n    \"oracle\": \"untimed: Pdg::build edge set vs Pdg::build_naive, per function\",\n    \"oracle_mismatches\": {oracle_mismatches}\n  }}\n"
    )
}
