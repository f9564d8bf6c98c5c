//! Pins the *order* of every function's edge arena across commits.
//!
//! Edge ids (positions in `Pdg::edges`) key the PS-PDG selector table and
//! the `EffectiveView` masks, so a builder refactor that keeps the edge
//! *set* but permutes the arena silently changes what those ids mean. The
//! set is covered by the bucketed-vs-naive oracle in `graph.rs`; this test
//! covers the order, with digests recorded from the builder as it stood
//! before the analysis engine was folded into `Pdg::build_with_refs`.

use pspdg_frontend::compile;
use pspdg_ir::Module;
use pspdg_nas::{suite, synth, Class};
use pspdg_pdg::{DepKind, FunctionAnalyses, MemBase, Pdg};

/// FNV-1a over a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of every bodied function's edge arena, in function order: src,
/// dst, kind, intra flag, carried loops, and base object of each edge, in
/// arena order.
fn arena_digest(module: &Module) -> u64 {
    let mut h = Fnv::new();
    for func in module.function_ids() {
        if module.function(func).blocks.is_empty() {
            continue;
        }
        let analyses = FunctionAnalyses::compute(module, func);
        let pdg = Pdg::build(module, func, &analyses);
        h.word(func.index() as u64);
        h.word(pdg.edges.len() as u64);
        for e in pdg.edges.iter() {
            h.word(e.src.index() as u64);
            h.word(e.dst.index() as u64);
            let (tag, intra) = match &e.kind {
                DepKind::Control => (0, false),
                DepKind::Register => (1, false),
                DepKind::Flow { intra, .. } => (2, *intra),
                DepKind::Anti { intra, .. } => (3, *intra),
                DepKind::Output { intra, .. } => (4, *intra),
            };
            h.word(tag);
            h.word(u64::from(intra));
            h.word(e.kind.carried().len() as u64);
            for l in e.kind.carried() {
                h.word(l.index() as u64);
            }
            let (base_tag, base_id) = match e.base {
                None => (0, 0),
                Some(MemBase::Alloca(i)) => (1, i.index()),
                Some(MemBase::Global(g)) => (2, g.index()),
                Some(MemBase::Param(p)) => (3, p),
                Some(MemBase::Io) => (4, 0),
                Some(MemBase::Unknown) => (5, 0),
            };
            h.word(base_tag);
            h.word(base_id as u64);
        }
    }
    h.0
}

/// One function with enough references to span many buckets plus a tail
/// of small ones sharing its globals (the shape the deleted engine's
/// split/batch tests used).
fn mixed_program() -> pspdg_parallel::ParallelProgram {
    let mut src = String::from("int ga[64]; int gb[64]; int s;\n");
    src.push_str(
        "void big(int n) { int i; for (i = 1; i < 64; i++) { \
         ga[i] = ga[i-1] + n; gb[i] = ga[i] * 2; s += gb[i-1]; \
         ga[i-1] = gb[i] + s; s += ga[i] + gb[i]; } }\n",
    );
    for k in 0..6 {
        src.push_str(&format!(
            "void f{k}() {{ int i; for (i = 1; i < 32; i++) {{ \
             ga[i] = ga[i-1] + {k}; s += gb[i]; }} }}\n"
        ));
    }
    src.push_str("int main() { big(3); f0(); return s % 251; }\n");
    compile(&src).expect("mixed program compiles")
}

#[test]
fn edge_arena_order_is_pinned() {
    let mut programs: Vec<(String, pspdg_parallel::ParallelProgram)> = suite(Class::Test)
        .iter()
        .map(|b| (b.name.to_string(), b.program()))
        .collect();
    programs.push(("SYNTH48".to_string(), synth::wide(48).program()));
    programs.push(("MIXED".to_string(), mixed_program()));

    let got: Vec<(&str, u64)> = programs
        .iter()
        .map(|(name, p)| (name.as_str(), arena_digest(&p.module)))
        .collect();
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, d)| format!("(\"{n}\", {d:#018x}),"))
        .collect();
    assert!(
        got == PINNED,
        "an edge arena's order changed; digests now:\n{}",
        rendered.join("\n")
    );
}

/// Digests recorded at commit ff6695c (the last one with the separate
/// engine and sequential builders).
const PINNED: [(&str, u64); 10] = [
    ("BT", 0xe93d_8392_30d8_24dc),
    ("CG", 0xd9d6_97e4_cfb6_3662),
    ("EP", 0x76bd_804d_209e_a692),
    ("FT", 0xd7d6_82c5_2837_5155),
    ("IS", 0xdad9_5874_ddcc_ff7a),
    ("LU", 0x5e08_c70d_60dd_227f),
    ("MG", 0xed2b_d5b5_a528_7a01),
    ("SP", 0xbef6_ca9b_6d86_82b2),
    ("SYNTH48", 0x6a04_ad51_8f24_b463),
    ("MIXED", 0x588b_bab4_9640_83f4),
];
