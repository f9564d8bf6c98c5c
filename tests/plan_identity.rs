//! Pins what the planner *decides* across commits.
//!
//! The four abstractions differ only in which dependences of one base PDG
//! each may discharge, so how the planner reads that graph (a copy, an
//! overlay, a per-loop predicate) must never show in its output. Per
//! program this pins FNV digests, taken at fa5623a (when every abstraction
//! still planned from an owned copy of the graph), of
//!
//! * the `ProgramPlan` under OpenMP, PDG, J&K and PS-PDG — loops sorted by
//!   `(function, loop)`, each with its technique (`sequential_insts` /
//!   `stage_of`), `ignored_bases`, `reduction_bases` and `end_barrier`, then
//!   the mutex groups — followed by each `LoopSchedule`'s `exec.name()` and
//!   sequential reason, in `schedules()` order (every lowering also has its
//!   header table checked against that list);
//! * the `enumerate_program` totals and per-loop option counts;
//! * the per-loop `blocking_carried_edges` counts.
//!
//! The `-ctx` rows build the PS-PDG without `Feature::Contexts`, so every
//! carried edge is blurred to the sentinel loop and the sentinel path of
//! the per-loop queries is pinned too.

use pspdg::core::{build_pspdg_module, query, Feature, FeatureSet, FunctionPsPdg};
use pspdg::ir::interp::{Interpreter, NullSink};
use pspdg::ir::{BlockId, FuncId, Module};
use pspdg::nas::{fault_suite, synth, Benchmark, Class};
use pspdg::parallelizer::{
    enumerate_program_with_features, plan_built, realize_executable, Abstraction, ExecutablePlan,
    LoopExec, MachineModel, PlannedTechnique, ProgramPlan,
};
use pspdg::pdg::MemBase;

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

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.words(s.bytes().map(u64::from));
    }

    fn bases<'a>(&mut self, bases: impl ExactSizeIterator<Item = &'a MemBase>) {
        self.word(bases.len() as u64);
        for b in bases {
            self.words(match *b {
                MemBase::Alloca(i) => [0, i.index() as u64],
                MemBase::Global(g) => [1, g.index() as u64],
                MemBase::Param(p) => [2, p as u64],
                MemBase::Io => [3, 0],
                MemBase::Unknown => [4, 0],
            });
        }
    }
}

/// Header dispatch and `schedules()` are two views of one list:
/// `schedule_at` answers exactly at the listed `(func, header)` pairs, the
/// list is ordered by them, and ids the module does not have are `None`.
fn check_header_table(m: &Module, exec: &ExecutablePlan) {
    let listed: Vec<(FuncId, BlockId)> = exec
        .schedules()
        .iter()
        .map(|s| (s.func, s.header))
        .collect();
    assert!(listed.windows(2).all(|w| w[0] < w[1]), "{listed:?}");
    let at = |func, bb| exec.schedule_at(func, bb).map(|s| (s.func, s.header));
    let mut found = 0;
    for (fi, f) in m.functions.iter().enumerate() {
        let func = FuncId::from_index(fi);
        for bb in f.block_ids() {
            let want = listed.contains(&(func, bb)).then_some((func, bb));
            assert_eq!(at(func, bb), want, "{func} {bb}");
            found += usize::from(want.is_some());
        }
        assert_eq!(at(func, BlockId::from_index(f.blocks.len())), None);
        assert_eq!(at(func, BlockId(u32::MAX)), None);
    }
    assert_eq!(found, listed.len(), "a listed header outside the module");
    assert_eq!(at(FuncId::from_index(m.functions.len()), BlockId(0)), None);
    assert_eq!(at(FuncId(u32::MAX), BlockId(0)), None);
}

/// The plan in a canonical order, then its executable lowering.
fn plan_digest(p: &pspdg::parallel::ParallelProgram, plan: &ProgramPlan) -> u64 {
    let mut h = Fnv::new();
    h.word(u64::from(plan.parallel_spawns));
    let mut loops: Vec<_> = plan.loops.values().collect();
    loops.sort_by_key(|s| (s.func.0, s.loop_id.0));
    h.word(loops.len() as u64);
    for s in loops {
        h.words([u64::from(s.func.0), u64::from(s.loop_id.0)]);
        match &s.technique {
            PlannedTechnique::Doall => h.word(0),
            PlannedTechnique::Helix { sequential_insts } => {
                h.words([1, sequential_insts.len() as u64]);
                h.words(sequential_insts.iter().map(|i| i.index() as u64));
            }
            PlannedTechnique::Dswp { stage_of, stages } => {
                h.words([2, u64::from(*stages), stage_of.len() as u64]);
                for (i, st) in stage_of {
                    h.words([i.index() as u64, u64::from(*st)]);
                }
            }
        }
        h.bases(s.ignored_bases.iter());
        h.bases(s.reduction_bases.iter());
        h.word(u64::from(s.end_barrier));
    }
    h.word(plan.mutexes.len() as u64);
    for m in &plan.mutexes {
        h.word(u64::from(m.func.0));
        h.text(&m.lock);
        h.word(m.insts.len() as u64);
        h.words(m.insts.iter().map(|i| i.index() as u64));
    }
    let exec = realize_executable(p, plan);
    check_header_table(&p.module, &exec);
    for s in exec.schedules() {
        h.words([
            u64::from(s.func.0),
            u64::from(s.loop_id.0),
            s.header.index() as u64,
        ]);
        h.text(s.exec.name());
        if let LoopExec::Sequential { reason } = &s.exec {
            h.text(reason);
        }
    }
    h.0
}

fn blocking_digest(built: &[FunctionPsPdg]) -> u64 {
    let mut h = Fnv::new();
    for fp in built {
        for l in fp.analyses.forest.loop_ids() {
            let n = query::blocking_carried_edges(&fp.pspdg, &fp.analyses, l).len();
            h.words([u64::from(fp.func.0), u64::from(l.0), n as u64]);
        }
    }
    h.0
}

/// `[OpenMP, PDG, J&K, PS-PDG, options, blocking]` digests of `b` with the
/// PS-PDG built under `features`.
fn digests(b: &Benchmark, features: FeatureSet) -> [u64; 6] {
    let p = b.program();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).expect("profile run");
    let profile = interp.profile();
    let built = build_pspdg_module(&p, features);
    let mut out = [0u64; 6];
    for (slot, a) in Abstraction::ALL.into_iter().enumerate() {
        out[slot] = plan_digest(&p, &plan_built(&p, &built, profile, a, 0.01));
    }
    let options =
        enumerate_program_with_features(&p, profile, &MachineModel::paper(), 0.01, features);
    let mut h = Fnv::new();
    for a in Abstraction::ALL {
        h.word(options.total(a));
    }
    for f in &options.functions {
        h.words([u64::from(f.func.0), f.per_loop.len() as u64]);
        for (l, a, n) in &f.per_loop {
            h.words([u64::from(l.0), *a as u64, *n]);
        }
    }
    out[4] = h.0;
    out[5] = blocking_digest(&built);
    out
}

fn check(rows: &[(String, Benchmark, FeatureSet)], want: &[[u64; 6]]) {
    assert_eq!(rows.len(), want.len());
    let mut bad = Vec::new();
    for ((name, b, features), want) in rows.iter().zip(want) {
        let got = digests(b, *features);
        if got != *want {
            let row: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
            bad.push(format!("    [{}], // {name}", row.join(", ")));
        }
    }
    assert!(bad.is_empty(), "digests moved:\n{}", bad.join("\n"));
}

fn suite_rows(
    class: Class,
    tag: &str,
    features: FeatureSet,
) -> Vec<(String, Benchmark, FeatureSet)> {
    fault_suite(class)
        .into_iter()
        .map(|b| (format!("{}{tag}", b.name), b, features))
        .collect()
}

#[test]
fn test_class_plans_are_pinned() {
    check(
        &suite_rows(Class::Test, ".test", FeatureSet::all()),
        &TEST_WANT,
    );
}

#[test]
fn mini_class_plans_are_pinned() {
    check(
        &suite_rows(Class::Mini, ".mini", FeatureSet::all()),
        &MINI_WANT,
    );
}

#[test]
fn context_ablated_plans_are_pinned() {
    let ablated = FeatureSet::all().without(Feature::Contexts);
    check(&suite_rows(Class::Test, ".test-ctx", ablated), &CTX_WANT);
}

#[test]
fn synth_module_plans_are_pinned() {
    let rows: Vec<_> = [
        ("module100", synth::module(100, 32)),
        ("wide16", synth::wide(16)),
        ("wide64", synth::wide(64)),
    ]
    .into_iter()
    .map(|(name, b)| (name.to_string(), b, FeatureSet::all()))
    .collect();
    check(&rows, &SYNTH_WANT);
}

#[rustfmt::skip]
const TEST_WANT: [[u64; 6]; 10] = [
    [0x7535fb3daa86e5a0, 0xc950147659290d54, 0xfadb4416067c1983, 0x5f8eea360fc5d5e2, 0x7739b83f50b0a7af, 0x885ea03e506a9fca], // BT.test
    [0x2aea1169988c15e9, 0x8f444b6c9cd05f1c, 0xca299ef330d0c5f6, 0xda0405e1bd8ec1f7, 0x3cec937a92235314, 0xcd5a1e14d8d3e665], // CG.test
    [0xf854304c6aec99dd, 0x1069995ed5837861, 0x77e154738d17e41c, 0x06cf0ee83866534a, 0x5af27528de34cbe4, 0xd6e64039803ccae7], // EP.test
    [0x4f28320df3f5856f, 0x4f2780743cc5d99f, 0xaab7d04107af5640, 0x00a43d95f0797cc1, 0xb70068b8f180a9be, 0xdb9af77fb85fb47f], // FT.test
    [0xfa1642c273d6d330, 0xec49e2a8f7b314ff, 0xeb854eb4e258cd73, 0x219658c30a9ac711, 0x54717f27fece8b2b, 0x7d58b9a4983af106], // IS.test
    [0x39bf29c27d4f3e33, 0x59003cdaf17b9e3b, 0x7dcec3cdc245d1ca, 0x1fa5caba9d256a8b, 0x7c35f2de0101314a, 0xb5593cc4dd7468bb], // LU.test
    [0x3f161f6283b07905, 0x1db16ae50bed5034, 0xd207f4d0ec82603d, 0xbe2da6f2316e2d5e, 0x99d11b15ada892c7, 0x47269a855820678a], // MG.test
    [0xf5780788f183b45c, 0x16b462d5ed36107d, 0x2e46f0a6d01aa98b, 0x668752b96b1aad2a, 0xe0e3b9f9d2e3097d, 0x76d263fd05bcba29], // SP.test
    [0x124321d2cccf608b, 0x252c2b0a90b3b1b6, 0x61c222c122bf1695, 0x0d618cb542fe0c74, 0xb98657e377462415, 0x4320dbbd7e301ac6], // GMAX.test
    [0x5b2a969b42d238a4, 0x9f8bfac0a81e0dca, 0x9f8bfac0a81e0dca, 0x865b1397d7c0accb, 0x90699c2e90f26fef, 0x1d0596033ea10e21], // PIPE.test
];
#[rustfmt::skip]
const MINI_WANT: [[u64; 6]; 10] = [
    [0x7535fb3daa86e5a0, 0xc950147659290d54, 0xfadb4416067c1983, 0x5f8eea360fc5d5e2, 0x7739b83f50b0a7af, 0x885ea03e506a9fca], // BT.mini
    [0x2aea1169988c15e9, 0x8f444b6c9cd05f1c, 0xca299ef330d0c5f6, 0xda0405e1bd8ec1f7, 0x3cec937a92235314, 0xcd5a1e14d8d3e665], // CG.mini
    [0xf854304c6aec99dd, 0x1069995ed5837861, 0x77e154738d17e41c, 0x06cf0ee83866534a, 0x5af27528de34cbe4, 0xd6e64039803ccae7], // EP.mini
    [0x4f28320df3f5856f, 0x30a947dc70722cf9, 0x1da342aae073f2b9, 0x6f0aa479a0cdef58, 0x50c29f409e9f55fb, 0xdb9af77fb85fb47f], // FT.mini
    [0xfa1642c273d6d330, 0xe61108c192eead09, 0x41d143a0e3b6aa85, 0x6617af7c738ccd67, 0xc5c0025e59ec6b24, 0x7d58b9a4983af106], // IS.mini
    [0x39bf29c27d4f3e33, 0x59003cdaf17b9e3b, 0x7dcec3cdc245d1ca, 0x1fa5caba9d256a8b, 0x7c35f2de0101314a, 0xb5593cc4dd7468bb], // LU.mini
    [0x3f161f6283b07905, 0x1db16ae50bed5034, 0xd207f4d0ec82603d, 0xbe2da6f2316e2d5e, 0x99d11b15ada892c7, 0x47269a855820678a], // MG.mini
    [0xf5780788f183b45c, 0x16b462d5ed36107d, 0x2e46f0a6d01aa98b, 0x668752b96b1aad2a, 0xe0e3b9f9d2e3097d, 0x76d263fd05bcba29], // SP.mini
    [0x124321d2cccf608b, 0x252c2b0a90b3b1b6, 0x61c222c122bf1695, 0x0d618cb542fe0c74, 0xb98657e377462415, 0x4320dbbd7e301ac6], // GMAX.mini
    [0x5b2a969b42d238a4, 0x9f8bfac0a81e0dca, 0x9f8bfac0a81e0dca, 0x865b1397d7c0accb, 0x90699c2e90f26fef, 0x1d0596033ea10e21], // PIPE.mini
];
#[rustfmt::skip]
const CTX_WANT: [[u64; 6]; 10] = [
    [0x0aa6044cf2ddd066, 0xc950147659290d54, 0xcb7d9a14984c4f45, 0x262d12a60f8ad9a4, 0xfd54f40db6e2dac0, 0x38537d184a305a22], // BT.test-ctx
    [0x0444c04076d59fea, 0x8f444b6c9cd05f1c, 0xf2c1580fb6612755, 0x977066f02b089f94, 0x97df3a751bedeec1, 0x5f923914f0ac261f], // CG.test-ctx
    [0x84a6898256689290, 0x1069995ed5837861, 0xd2871d1b60235f51, 0xc88a459ce7c47407, 0x967931ea25c81a50, 0xcff8f8a8c77d1549], // EP.test-ctx
    [0x0aa6044cf2ddd066, 0x4f2780743cc5d99f, 0x48c0d14dcd96c029, 0xddf034e8236d17a8, 0x045d54c28c39cace, 0x16d043a47e8b6909], // FT.test-ctx
    [0xe4222bc992a2cf50, 0xec49e2a8f7b314ff, 0xb5ffe48de0e229d3, 0x47a7fe1bd196c371, 0x94801a9648de970b, 0x76d1b38079ac8c3b], // IS.test-ctx
    [0x28014a920ee042d1, 0x59003cdaf17b9e3b, 0xf376972e64a96368, 0xef62f4b5118d95a9, 0x2d82f8ffc69e735b, 0xab37f95eda20f54b], // LU.test-ctx
    [0x9f3e8687ac7da145, 0x1db16ae50bed5034, 0x9e1f6d3ea9dab67d, 0xec2f64c3d538161e, 0x7a2970771924b11e, 0xe42985266a57eeef], // MG.test-ctx
    [0x1989e41a037b177b, 0x16b462d5ed36107d, 0x4fe7b3da5490784c, 0x9039e71bce4d772d, 0x37d2cf5b142c3048, 0x7764fadcefd54969], // SP.test-ctx
    [0xe8d723e85114b14d, 0x252c2b0a90b3b1b6, 0xe48f4c9a42fd2b13, 0x22cb8169223c6a32, 0x52c5fa86151e7c10, 0xa32983e7e59230c1], // GMAX.test-ctx
    [0x5b2a969b42d238a4, 0x9f8bfac0a81e0dca, 0x9f8bfac0a81e0dca, 0x865b1397d7c0accb, 0x90699c2e90f26fef, 0x1d0596033ea10e21], // PIPE.test-ctx
];
#[rustfmt::skip]
const SYNTH_WANT: [[u64; 6]; 3] = [
    [0x5b2a969b42d238a4, 0x1cf5a5f2ac25af8d, 0x1cf5a5f2ac25af8d, 0x49accff58adfe20c, 0x066c8ca44f180cb1, 0x00f8d97d6b7ba6e5], // module100
    [0x5b2a969b42d238a4, 0x5f5d655391c620aa, 0x5f5d655391c620aa, 0x6d92b7d72a165e2f, 0xf0a977d3872a52f8, 0xb4a546a98955bd15], // wide16
    [0x5b2a969b42d238a4, 0x8c25dfa7e666779f, 0x8c25dfa7e666779f, 0xf04da03650942cf2, 0x730aa2c209c39fb4, 0xa6b66f316d2a0cc5], // wide64
];
