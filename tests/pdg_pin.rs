//! Pins the classical PDG of every bundled program as an edge *set*.
//!
//! `crates/pdg/tests/arena_order.rs` pins the order of the edge arena on
//! the Test class; this file pins what the edges say on every shape the
//! plan service sees — NAS Test and Mini with GMAX and PIPE
//! (`fault_suite`), the module-scale SYNTH programs and the wide ones —
//! independent of the order they are stored in and of how an edge's
//! carried loops are represented. Per program: the edge count, the count
//! of edges carried at some loop, and an FNV-1a digest over the sorted
//! `(function, src, dst, kind, intra, sorted carried loops, base)` of
//! every edge.
//!
//! It also holds two invariants at module scale: the bucketed builder's
//! edge set equals the naive all-pairs sweep's on every function of a
//! 1,200-function program, and a directive-free program's PS-PDG overlay
//! rewrites no edge.

use pspdg::core::{build_pspdg, build_pspdg_module, FeatureSet};
use pspdg::frontend::compile;
use pspdg::ir::{LoopId, Module};
use pspdg::nas::{fault_suite, synth, Benchmark, Class};
use pspdg::pdg::{DepKind, FunctionAnalyses, MemBase, Pdg};

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One row per edge of `pdg`: `(function, src, dst, kind, intra, carried
/// loop count, sorted carried loops, base)`, independent of how the
/// carried set is stored.
fn edge_rows(pdg: &Pdg) -> Vec<Vec<u64>> {
    pdg.edges
        .iter()
        .map(|e| {
            let (tag, intra) = match &e.kind {
                DepKind::Control => (0, false),
                DepKind::Register => (1, false),
                DepKind::Flow { intra, .. } => (2, *intra),
                DepKind::Anti { intra, .. } => (3, *intra),
                DepKind::Output { intra, .. } => (4, *intra),
            };
            let (base_tag, base_id) = match e.base {
                None => (0, 0),
                Some(MemBase::Alloca(i)) => (1, i.index()),
                Some(MemBase::Global(g)) => (2, g.index()),
                Some(MemBase::Param(p)) => (3, p),
                Some(MemBase::Io) => (4, 0),
                Some(MemBase::Unknown) => (5, 0),
            };
            let mut carried: Vec<u64> = e.kind.carried().iter().map(|l| l.index() as u64).collect();
            carried.sort_unstable();
            let mut row = vec![
                pdg.func.index() as u64,
                e.src.index() as u64,
                e.dst.index() as u64,
                tag,
                u64::from(intra),
                carried.len() as u64,
            ];
            row.extend(carried);
            row.extend([base_tag, base_id as u64]);
            row
        })
        .collect()
}

/// `(edges, carried edges, digest)` of every bodied function's PDG.
fn pin(module: &Module) -> (usize, usize, u64) {
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for func in module.function_ids() {
        if module.function(func).blocks.is_empty() {
            continue;
        }
        let analyses = FunctionAnalyses::compute(module, func);
        rows.extend(edge_rows(&Pdg::build(module, func, &analyses)));
    }
    // A row's sixth word is its carried-loop count.
    let carried_edges = rows.iter().filter(|r| r[5] > 0).count();
    rows.sort_unstable();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for w in rows.iter().flatten() {
        h.word(*w);
    }
    (rows.len(), carried_edges, h.0)
}

fn programs() -> Vec<(String, Benchmark)> {
    let mut v: Vec<(String, Benchmark)> = Vec::new();
    for (class, tag) in [(Class::Test, "test"), (Class::Mini, "mini")] {
        for b in fault_suite(class) {
            v.push((format!("{}.{tag}", b.name), b));
        }
    }
    for n in [100, 200] {
        v.push((format!("module{n}"), synth::module(n, 32)));
    }
    for b in [16, 32, 64] {
        v.push((format!("wide{b}"), synth::wide(b)));
    }
    v
}

#[test]
fn pdg_edge_sets_are_pinned() {
    let got: Vec<(String, usize, usize, u64)> = programs()
        .into_iter()
        .map(|(name, b)| {
            let (edges, carried, digest) = pin(&b.program().module);
            (name, edges, carried, digest)
        })
        .collect();
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, e, c, d)| format!("(\"{n}\", {e}, {c}, {d:#018x}),"))
        .collect();
    let matches = got.len() == PINNED.len()
        && got
            .iter()
            .zip(PINNED)
            .all(|((n, e, c, d), p)| (n.as_str(), *e, *c, *d) == p);
    assert!(matches, "a PDG changed; pins now:\n{}", rendered.join("\n"));
}

/// The bucketed builder emits the naive all-pairs sweep's edge set on
/// every function of a module-scale program (1,200 functions and `main`).
#[test]
fn module_scale_edge_sets_equal_the_naive_sweep() {
    let p = synth::module(1200, 32).program();
    let mut funcs = 0;
    for func in p.module.function_ids() {
        if p.module.function(func).blocks.is_empty() {
            continue;
        }
        let analyses = FunctionAnalyses::compute(&p.module, func);
        let mut bucketed = edge_rows(&Pdg::build(&p.module, func, &analyses));
        let mut naive = edge_rows(&Pdg::build_naive(&p.module, func, &analyses));
        bucketed.sort_unstable();
        naive.sort_unstable();
        assert_eq!(bucketed, naive, "{}", p.module.function(func).name);
        funcs += 1;
    }
    assert_eq!(funcs, 1201);
}

/// A program with no directive has nothing for the PS-PDG to rewrite: the
/// module build's overlays hold zero per-edge copies of the base PDG.
#[test]
fn directive_free_wide_programs_assemble_with_no_overlay_rewrites() {
    for bases in [48, 96, 192] {
        let p = synth::wide(bases).program();
        let built = build_pspdg_module(&p, FeatureSet::all());
        let rewrites: usize = built
            .iter()
            .map(|b| b.pspdg.effective.rewrite_count())
            .sum();
        assert_eq!(rewrites, 0, "wide{bases}");
    }
}

/// No bundled program carries a dependence at more than three loops, the
/// sets an edge stores inline; a five-deep nest takes the spill path, and
/// the carried index, a worksharing declaration's narrowing and a second
/// build must all see the same five (then four) loops.
#[test]
fn a_nest_deeper_than_the_inline_set_spills() {
    let p = compile(
        "int v[4];
         void k() {
             int a; int b; int c; int d; int e;
             #pragma omp parallel for
             for (a = 0; a < 2; a++) { for (b = 0; b < 2; b++) { for (c = 0; c < 2; c++) {
                 for (d = 0; d < 2; d++) { for (e = 0; e < 2; e++) { v[0] = v[0] + 1; } } } } }
         }
         int main() { k(); return 0; }",
    )
    .expect("deep nest compiles");
    let f = p.module.function_by_name("k").unwrap();
    let analyses = FunctionAnalyses::compute(&p.module, f);
    let pdg = Pdg::build(&p.module, f, &analyses);
    let on_v = |e: &&pspdg::pdg::PdgEdge| matches!(e.base, Some(MemBase::Global(_)));
    let deep: Vec<_> = pdg.edges.iter().filter(on_v).collect();
    assert!(!deep.is_empty());
    let outer = analyses
        .forest
        .loop_ids()
        .find(|l| analyses.forest.info(*l).depth == 1);
    let outer = outer.expect("an outermost loop");
    for e in &deep {
        let mut loops: Vec<LoopId> = e.kind.carried().to_vec();
        loops.sort_unstable();
        assert_eq!(
            loops,
            analyses.forest.loop_ids().collect::<Vec<_>>(),
            "{e:?}"
        );
        for l in analyses.forest.loop_ids() {
            assert!(pdg.carried_edges(l).any(|c| c == *e));
        }
    }
    let again = Pdg::build(&p.module, f, &analyses);
    assert!(pdg.edges.iter().eq(again.edges.iter()));
    let pspdg = build_pspdg(&p, f, &analyses, &pdg, FeatureSet::all());
    for l in analyses.forest.loop_ids() {
        let narrowed = pspdg.effective.carried_edges(l).filter(on_v).count();
        assert_eq!(narrowed == 0, l == outer, "{l}");
    }
}

/// `(program, edges, carried edges, digest)`, recorded at 81b9cf4 (the
/// last commit whose carried sets were heap `Vec`s).
const PINNED: [(&str, usize, usize, u64); 25] = [
    ("BT.test", 1127, 425, 0xe0c0_3247_5898_4118),
    ("CG.test", 633, 105, 0x093a_f2d2_cfdb_49e6),
    ("EP.test", 327, 66, 0xd1c8_1996_dc03_0194),
    ("FT.test", 787, 146, 0xfe9e_b95a_f26b_9d99),
    ("IS.test", 640, 70, 0x7d2a_a0b5_a166_8124),
    ("LU.test", 357, 73, 0xcf2d_1221_6109_9a65),
    ("MG.test", 458, 81, 0x0675_a3f8_42c7_64da),
    ("SP.test", 776, 228, 0x47b3_cb0d_e66a_71a4),
    ("GMAX.test", 310, 49, 0x7506_b6c2_a3af_4655),
    ("PIPE.test", 138, 25, 0xa800_9132_49fc_e957),
    ("BT.mini", 1127, 425, 0xe0c0_3247_5898_4118),
    ("CG.mini", 633, 105, 0x093a_f2d2_cfdb_49e6),
    ("EP.mini", 327, 66, 0xd1c8_1996_dc03_0194),
    ("FT.mini", 787, 146, 0xfe9e_b95a_f26b_9d99),
    ("IS.mini", 640, 70, 0x7d2a_a0b5_a166_8124),
    ("LU.mini", 357, 73, 0xcf2d_1221_6109_9a65),
    ("MG.mini", 458, 81, 0x0675_a3f8_42c7_64da),
    ("SP.mini", 776, 228, 0x47b3_cb0d_e66a_71a4),
    ("GMAX.mini", 310, 49, 0x7506_b6c2_a3af_4655),
    ("PIPE.mini", 138, 25, 0xa800_9132_49fc_e957),
    ("module100", 28209, 7900, 0x4562_80c7_52e4_26a4),
    ("module200", 56409, 15800, 0x64a4_ed6b_bc86_4d88),
    ("wide16", 1723, 176, 0x14a6_7804_624e_4549),
    ("wide32", 4691, 352, 0x0c40_9abb_e7e0_ed17),
    ("wide64", 14467, 704, 0xa24c_bb14_26fc_cf06),
];
