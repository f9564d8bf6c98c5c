//! Pins what the planner *decides* across commits, apart from how the
//! decision is lowered for execution.
//!
//! The four abstractions differ only in which dependences of one base PDG
//! each may discharge, so how the planner reads that graph (a copy, an
//! overlay, a per-loop predicate) must never show in its output. Per
//! program two rows of FNV digests are pinned.
//!
//! The **plan** row (`*_PLAN`, taken at 9975dcb, the last commit whose
//! runtime also executed stage pipelines) is everything upstream of
//! `lower()` plus the one lowering fact that must not depend on it:
//!
//! * the `ProgramPlan` under OpenMP, PDG, J&K and PS-PDG — loops sorted by
//!   `(function, loop)`, each with its technique (and a HELIX plan's
//!   `sequential_insts`), the bases it discharges, those of them
//!   discharged as a `Reduction`, and `end_barrier`, then the mutex groups;
//! * per abstraction, the `(function, header)` list of the loops lowered
//!   `Chunked`, in `schedules()` order;
//! * the `enumerate_program` totals and per-loop option counts;
//! * the per-loop `blocking_carried_edges` counts.
//!
//! The **lowering** row (`*_LOWERING`) is each `LoopSchedule`'s
//! `exec.name()` per abstraction, in `schedules()` order, followed by a
//! `Chunked` loop's `reductions` as `(base, operator)` and its `protected`
//! bases, or a `Sequential` loop's `SequentialWhy` variant (its name, not
//! its text, so rewording a reason moves no row). Every lowering also has
//! its header table checked against that list and its name checked to be
//! `chunked` or `sequential`.
//!
//! The `-ctx` rows build the PS-PDG without `Feature::Contexts`, so every
//! carried edge is blurred to the sentinel loop and the sentinel path of
//! the per-loop queries is pinned too. Without contexts the graph does not
//! know the worksharing loops, so their PS-PDG plan nests no developer
//! loop (re-pinned at the commit that made the plan read the graph). A
//! J&K plan reads the `{C}` graph however the module was built, so every
//! `-ctx` row's J&K slots equal the plain row's.

use pspdg::core::{build_pspdg_module, query, Feature, FeatureSet, FunctionPsPdg};
use pspdg::ir::interp::{Interpreter, NullSink};
use pspdg::ir::{BlockId, FuncId, Module};
use pspdg::nas::{fault_suite, synth, Benchmark, Class};
use pspdg::parallelizer::{
    enumerate_program_with_features, plan_built, realize_executable, Abstraction, Discharge,
    ExecutablePlan, LoopExec, MachineModel, PlannedTechnique, ProgramPlan,
};
use pspdg::pdg::MemBase;
use pspdg::service::DEFAULT_THRESHOLD;
use pspdg::Session;

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

    fn base(&mut self, b: MemBase) {
        self.words(match b {
            MemBase::Alloca(i) => [0, i.index() as u64],
            MemBase::Global(g) => [1, g.index() as u64],
            MemBase::Param(p) => [2, p as u64],
            MemBase::Io => [3, 0],
            MemBase::Unknown => [4, 0],
        });
    }

    fn bases<'a>(&mut self, bases: impl ExactSizeIterator<Item = &'a MemBase>) {
        self.word(bases.len() as u64);
        for b in bases {
            self.base(*b);
        }
    }
}

/// Header dispatch and `schedules()` are two views of one list:
/// `headers_in` answers exactly at the listed `(func, header)` pairs, the
/// list is ordered by them, and ids the module does not have are `None`.
fn check_header_table(m: &Module, exec: &ExecutablePlan) {
    let listed: Vec<(FuncId, BlockId)> = exec
        .schedules()
        .iter()
        .map(|s| (s.func, s.header))
        .collect();
    assert!(listed.windows(2).all(|w| w[0] < w[1]), "{listed:?}");
    let at = |func, bb| exec.headers_in(func)(bb).map(|s| (s.func, s.header));
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

/// The plan in a canonical order.
fn plan_digest(plan: &ProgramPlan) -> u64 {
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
        }
        h.bases(s.discharged.keys());
        let reductions = s.discharged.iter();
        let reductions = reductions.filter(|(_, d)| matches!(d, Discharge::Reduction(_)));
        h.bases(reductions.map(|(b, _)| b).collect::<Vec<_>>().into_iter());
        h.word(u64::from(s.end_barrier));
    }
    h.word(plan.mutexes.len() as u64);
    for m in &plan.mutexes {
        h.word(u64::from(m.func.0));
        h.text(&m.lock);
        h.word(m.insts.len() as u64);
        h.words(m.insts.iter().map(|i| i.index() as u64));
    }
    h.0
}

/// `[chunked, lowering]` digests of `plan`'s executable lowering: the
/// `(function, header)` list of its `Chunked` loops, and every schedule's
/// strategy name with, for a `Chunked` loop, its merged `(base, operator)`
/// pairs and protected bases, or the sequential reason's variant.
fn lowering_digests(p: &pspdg::parallel::ParallelProgram, plan: &ProgramPlan) -> [u64; 2] {
    let exec = realize_executable(p, plan);
    check_header_table(&p.module, &exec);
    let (mut chunked, mut lowering) = (Fnv::new(), Fnv::new());
    for s in exec.schedules() {
        let name = s.exec.name();
        assert!(matches!(name, "chunked" | "sequential"), "{name}");
        lowering.words([
            u64::from(s.func.0),
            u64::from(s.loop_id.0),
            s.header.index() as u64,
        ]);
        lowering.text(name);
        match &s.exec {
            LoopExec::Chunked(c) => {
                chunked.words([u64::from(s.func.0), s.header.index() as u64]);
                lowering.word(c.reductions.len() as u64);
                for (base, op) in &c.reductions {
                    lowering.base(*base);
                    lowering.text(&format!("{op:?}"));
                }
                lowering.bases(c.protected.iter());
            }
            LoopExec::Sequential { reason } => lowering.text(&format!("{reason:?}")),
        }
    }
    [chunked.0, lowering.0]
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

/// A plan row: `[OpenMP, PDG, J&K, PS-PDG]` plan digests, the same four
/// abstractions' `Chunked` lists, then options and blocking.
type PlanRow = [u64; 10];
/// A lowering row: `[OpenMP, PDG, J&K, PS-PDG]` lowering digests.
type LoweringRow = [u64; 4];

/// Both rows of `b` with the PS-PDG built under `features`.
fn digests(b: &Benchmark, features: FeatureSet) -> (PlanRow, LoweringRow) {
    let p = b.program();
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).expect("profile run");
    let profile = interp.profile();
    let built = build_pspdg_module(&p, features);
    let (mut plan_row, mut lowering_row) = ([0u64; 10], [0u64; 4]);
    for (slot, a) in Abstraction::ALL.into_iter().enumerate() {
        let plan = plan_built(&p, &built, profile, a, 0.01);
        plan_row[slot] = plan_digest(&plan);
        [plan_row[4 + slot], lowering_row[slot]] = lowering_digests(&p, &plan);
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
    plan_row[8] = h.0;
    plan_row[9] = blocking_digest(&built);
    (plan_row, lowering_row)
}

fn check(
    rows: &[(String, Benchmark, FeatureSet)],
    want_plan: &[PlanRow],
    want_lowering: &[LoweringRow],
) {
    assert_eq!(rows.len(), want_plan.len());
    assert_eq!(rows.len(), want_lowering.len());
    let line = |row: &[u64], name: &str| {
        let row: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
        format!("    [{}], // {name}", row.join(", "))
    };
    let (mut bad_plan, mut bad_lowering) = (Vec::new(), Vec::new());
    for (k, (name, b, features)) in rows.iter().enumerate() {
        let (plan, lowering) = digests(b, *features);
        if plan != want_plan[k] {
            bad_plan.push(line(&plan, name));
        }
        if lowering != want_lowering[k] {
            bad_lowering.push(line(&lowering, name));
        }
    }
    assert!(
        bad_plan.is_empty() && bad_lowering.is_empty(),
        "plan rows moved:\n{}\nlowering rows moved:\n{}",
        bad_plan.join("\n"),
        bad_lowering.join("\n")
    );
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
        &TEST_PLAN,
        &TEST_LOWERING,
    );
}

#[test]
fn mini_class_plans_are_pinned() {
    check(
        &suite_rows(Class::Mini, ".mini", FeatureSet::all()),
        &MINI_PLAN,
        &MINI_LOWERING,
    );
}

#[test]
fn context_ablated_plans_are_pinned() {
    let ablated = FeatureSet::all().without(Feature::Contexts);
    check(
        &suite_rows(Class::Test, ".test-ctx", ablated),
        &CTX_PLAN,
        &CTX_LOWERING,
    );
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
    check(&rows, &SYNTH_PLAN, &SYNTH_LOWERING);
}

/// Every `fault_suite` program and the six `module_cold` SYNTH shapes.
fn session_programs() -> Vec<(String, Benchmark)> {
    let mut programs: Vec<(String, Benchmark)> = [Class::Mini, Class::Test]
        .into_iter()
        .flat_map(|class| suite_rows(class, &format!(".{class:?}"), FeatureSet::all()))
        .map(|(name, b, _)| (name, b))
        .collect();
    for n in [100, 200, 400] {
        programs.push((format!("module{n}"), synth::module(n, 32)));
    }
    for bases in [16, 32, 64] {
        programs.push((format!("wide{bases}"), synth::wide(bases)));
    }
    programs
}

/// A `Session` lowers each plan it caches; `realize_executable` lowers
/// the same plan from analyses it computes itself. Both must give the
/// same `ExecutablePlan`: every field of it is a `Vec` of types that
/// derive `Debug`, so equal `Debug` text is structural equality.
#[test]
fn session_lowering_equals_fresh_lowering() {
    for (name, b) in session_programs() {
        let session = Session::from_program(b.program()).expect("session");
        for a in Abstraction::ALL {
            let bundle = session.plan(a);
            let cached = format!("{:?}", bundle.exec);
            let fresh = format!("{:?}", realize_executable(session.program(), &bundle.plan));
            assert!(
                cached == fresh,
                "{name} {a:?}: the session's lowering differs"
            );
        }
    }
}

/// Two functions `main` never calls: one holds an `omp parallel for` with
/// a `critical` inside, the other a directive-free loop.
const UNCALLED_SRC: &str = "\
int a[64]; int b[16]; int s;
void hot() { int i; for (i = 1; i < 64; i++) { a[i] = a[i - 1] + i; } }
void declared() {
    int i;
    #pragma omp parallel for
    for (i = 0; i < 64; i++) {
        #pragma omp critical
        { s += a[i]; }
    }
}
void plain() { int j; for (j = 0; j < 16; j++) { b[j] = j * 3; } }
int main() { hot(); return a[63] % 251; }
";

/// A `Session` plans each abstraction exactly as a build of every
/// function would: the same plan, lowered to the same `ExecutablePlan`.
#[test]
fn session_plans_equal_full_build_plans() {
    let mut programs = session_programs();
    programs.push((
        "uncalled".to_string(),
        Benchmark {
            name: "UNCALLED",
            description: "uncalled functions with and without directives",
            source: UNCALLED_SRC.to_string(),
        },
    ));
    for (name, b) in programs {
        let p = b.program();
        let session = Session::from_program(p.clone()).expect("session");
        let built = build_pspdg_module(&p, FeatureSet::all());
        for a in Abstraction::ALL {
            let bundle = session.plan(a);
            let full = plan_built(&p, &built, session.profile(), a, DEFAULT_THRESHOLD);
            if name == "uncalled" && a == Abstraction::OpenMp {
                // The pin must see the uncalled directives' loop and lock.
                let declared = p.module.function_by_name("declared");
                assert!(full.loops.values().any(|s| Some(s.func) == declared));
                assert!(full.mutexes.iter().any(|m| Some(m.func) == declared));
            }
            assert_eq!(
                plan_digest(&bundle.plan),
                plan_digest(&full),
                "{name} {a:?}: the session's plan differs"
            );
            let fresh = format!("{:?}", realize_executable(&p, &full));
            assert!(
                format!("{:?}", bundle.exec) == fresh,
                "{name} {a:?}: the session's lowering differs"
            );
        }
    }
}

#[rustfmt::skip]
const TEST_PLAN: [PlanRow; 10] = [
    [0x2504b702a63e2d01, 0xdc36adb1cba32c20, 0xffb0d38dcdd039d7, 0xfb6c87958402e8b6, 0x25377a60fd3c19e4, 0xcbf29ce484222325, 0x25377a60fd3c19e4, 0x25377a60fd3c19e4, 0x7739b83f50b0a7af, 0x885ea03e506a9fca], // BT.test
    [0x81c26fba9535b4a7, 0xa4cf504acbcded62, 0x5bbe54872218b5c4, 0x66b7895e85435703, 0x901a0ecf2bc2be69, 0xa84a131385b04f01, 0x28b26f4255b98a4d, 0x28b26f4255b98a4d, 0x3cec937a92235314, 0xcd5a1e14d8d3e665], // CG.test
    [0x79c70f2246e71043, 0xfcfe3bb5d59d73a8, 0x70846422b795fae6, 0x4e3649b70719c1f4, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0x5af27528de34cbe4, 0xd6e64039803ccae7], // EP.test
    [0x335b74f0f2fcb10e, 0xf26e1d0edc6a52df, 0x898d132c208a4e3d, 0xdd28be58f0b7cb5c, 0x25377a60fd3c19e4, 0xfc1ef4bdc7978de6, 0x4f9cb8df159ed945, 0x4f9cb8df159ed945, 0xb70068b8f180a9be, 0xdb9af77fb85fb47f], // FT.test
    [0xe4e3a32ae7fc83a6, 0xe95a3fb666d713fe, 0xd7af297a471c2e44, 0x48986f67b6322c07, 0xbdebe613ce5849af, 0xfc75bf473d8460d6, 0xa7af31e3c53c316b, 0xb761451f7195805c, 0x54717f27fece8b2b, 0x7d58b9a4983af106], // IS.test
    [0x22072dce324d4647, 0xae68703ee9ec024c, 0x84c56a4c9fb0fc09, 0x8b941ffaec9ae6c8, 0x7ff65801b879b56d, 0xc92bf62e665bb684, 0x82cb30cb3e369acc, 0x82cb30cb3e369acc, 0x7c35f2de0101314a, 0xb5593cc4dd7468bb], // LU.test
    [0xdee1a2b15d210650, 0x30c18ef7b5a98063, 0x36db7f6af37ed7b4, 0xa02d3b12ff3f6db6, 0x25377a60fd3c19e4, 0x60a5409512d55d44, 0x60a5409512d55d44, 0x60a5409512d55d44, 0x99d11b15ada892c7, 0x47269a855820678a], // MG.test
    [0x6098ae8600d3d822, 0x67ccd71ddfa2e92b, 0xe86a2a41332c6880, 0xb72c1ecb821ed241, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0xe0e3b9f9d2e3097d, 0x76d263fd05bcba29], // SP.test
    [0xafb44b0e44650108, 0x1cc719bfb2fd59eb, 0xe4903cc0df3ac00e, 0xd7ca8120e2347369, 0xfc1ef4bdc7978de6, 0xa71ae6c26beeae86, 0x4f9cb8df159ed945, 0x4f9cb8df159ed945, 0xb98657e377462415, 0x4320dbbd7e301ac6], // GMAX.test
    [0x5b2a969b42d238a4, 0xeb6b9df520a8ef3c, 0xeb6b9df520a8ef3c, 0xd8126121827140dd, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0x90699c2e90f26fef, 0x1d0596033ea10e21], // PIPE.test
];
#[rustfmt::skip]
const TEST_LOWERING: [LoweringRow; 10] = [
    [0x9af63d746c26cc04, 0x19a2e368f59d1711, 0xe570e2b94c57cdb1, 0xe570e2b94c57cdb1], // BT.test
    [0x9acd746e5cc563af, 0x201075107dcd2d91, 0x9dd2d47ed25c2215, 0x9dd2d47ed25c2215], // CG.test
    [0xcd537a1640387b9a, 0xf8981b74f33c77d0, 0xcd537a1640387b9a, 0xcd537a1640387b9a], // EP.test
    [0x9af63d746c26cc04, 0x1c7f187106c0c38f, 0x6d348b8553bd1ae4, 0x6d348b8553bd1ae4], // FT.test
    [0x841823894b3110d3, 0x664ccb05ce670858, 0x17ebdfcd84f68753, 0xb34839a55c38a033], // IS.test
    [0xb98aba03d65e4551, 0x12b691b2434b4698, 0x25812aa6573c0c4c, 0x25812aa6573c0c4c], // LU.test
    [0x90198f7de196ac9f, 0x67430d761b2de70e, 0xa428bb4384ed6322, 0xa428bb4384ed6322], // MG.test
    [0x93f5f7644d0f847b, 0x213957bfa9d5fd65, 0x298d9f4ad78b164e, 0x298d9f4ad78b164e], // SP.test
    [0x3cac8d6df57c2a60, 0xfa098cb4dc95a838, 0x13cd960da028d23e, 0x13cd960da028d23e], // GMAX.test
    [0xcbf29ce484222325, 0x95104b03a38bde0f, 0x95104b03a38bde0f, 0x95104b03a38bde0f], // PIPE.test
];
#[rustfmt::skip]
const MINI_PLAN: [PlanRow; 10] = [
    [0x2504b702a63e2d01, 0xdc36adb1cba32c20, 0xffb0d38dcdd039d7, 0xfb6c87958402e8b6, 0x25377a60fd3c19e4, 0xcbf29ce484222325, 0x25377a60fd3c19e4, 0x25377a60fd3c19e4, 0x7739b83f50b0a7af, 0x885ea03e506a9fca], // BT.mini
    [0x81c26fba9535b4a7, 0xa4cf504acbcded62, 0x5bbe54872218b5c4, 0x66b7895e85435703, 0x901a0ecf2bc2be69, 0xa84a131385b04f01, 0x28b26f4255b98a4d, 0x28b26f4255b98a4d, 0x3cec937a92235314, 0xcd5a1e14d8d3e665], // CG.mini
    [0x79c70f2246e71043, 0xfcfe3bb5d59d73a8, 0x70846422b795fae6, 0x4e3649b70719c1f4, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0x5af27528de34cbe4, 0xd6e64039803ccae7], // EP.mini
    [0x335b74f0f2fcb10e, 0x2e90a56d2fb71bfa, 0xbc008bc0b7cd0878, 0x7a64b77fbf02b799, 0x25377a60fd3c19e4, 0xcbf29ce484222325, 0x25377a60fd3c19e4, 0x25377a60fd3c19e4, 0x50c29f409e9f55fb, 0xdb9af77fb85fb47f], // FT.mini
    [0xe4e3a32ae7fc83a6, 0x97ecb1253ad2650e, 0x01998cf8cd4c91f4, 0x17160deecb3c8f37, 0xbdebe613ce5849af, 0xfc75bf473d8460d6, 0xa7af31e3c53c316b, 0xb761451f7195805c, 0xc5c0025e59ec6b24, 0x7d58b9a4983af106], // IS.mini
    [0x22072dce324d4647, 0xae68703ee9ec024c, 0x84c56a4c9fb0fc09, 0x8b941ffaec9ae6c8, 0x7ff65801b879b56d, 0xc92bf62e665bb684, 0x82cb30cb3e369acc, 0x82cb30cb3e369acc, 0x7c35f2de0101314a, 0xb5593cc4dd7468bb], // LU.mini
    [0xdee1a2b15d210650, 0x30c18ef7b5a98063, 0x36db7f6af37ed7b4, 0xa02d3b12ff3f6db6, 0x25377a60fd3c19e4, 0x60a5409512d55d44, 0x60a5409512d55d44, 0x60a5409512d55d44, 0x99d11b15ada892c7, 0x47269a855820678a], // MG.mini
    [0x6098ae8600d3d822, 0x67ccd71ddfa2e92b, 0xe86a2a41332c6880, 0xb72c1ecb821ed241, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0xe0e3b9f9d2e3097d, 0x76d263fd05bcba29], // SP.mini
    [0xafb44b0e44650108, 0x1cc719bfb2fd59eb, 0xe4903cc0df3ac00e, 0xd7ca8120e2347369, 0xfc1ef4bdc7978de6, 0xa71ae6c26beeae86, 0x4f9cb8df159ed945, 0x4f9cb8df159ed945, 0xb98657e377462415, 0x4320dbbd7e301ac6], // GMAX.mini
    [0x5b2a969b42d238a4, 0xeb6b9df520a8ef3c, 0xeb6b9df520a8ef3c, 0xd8126121827140dd, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0x90699c2e90f26fef, 0x1d0596033ea10e21], // PIPE.mini
];
#[rustfmt::skip]
const MINI_LOWERING: [LoweringRow; 10] = [
    [0x9af63d746c26cc04, 0x19a2e368f59d1711, 0xe570e2b94c57cdb1, 0xe570e2b94c57cdb1], // BT.mini
    [0x9acd746e5cc563af, 0x201075107dcd2d91, 0x9dd2d47ed25c2215, 0x9dd2d47ed25c2215], // CG.mini
    [0xcd537a1640387b9a, 0xf8981b74f33c77d0, 0xcd537a1640387b9a, 0xcd537a1640387b9a], // EP.mini
    [0x9af63d746c26cc04, 0x52ce357f774233cc, 0xa83f6da2f2f88698, 0xa83f6da2f2f88698], // FT.mini
    [0x841823894b3110d3, 0x8af41fd67d6c6c22, 0xf3c5da6de321aea9, 0xa6620697e4796109], // IS.mini
    [0xb98aba03d65e4551, 0x12b691b2434b4698, 0x25812aa6573c0c4c, 0x25812aa6573c0c4c], // LU.mini
    [0x90198f7de196ac9f, 0x67430d761b2de70e, 0xa428bb4384ed6322, 0xa428bb4384ed6322], // MG.mini
    [0x93f5f7644d0f847b, 0x213957bfa9d5fd65, 0x298d9f4ad78b164e, 0x298d9f4ad78b164e], // SP.mini
    [0x3cac8d6df57c2a60, 0xfa098cb4dc95a838, 0x13cd960da028d23e, 0x13cd960da028d23e], // GMAX.mini
    [0xcbf29ce484222325, 0x95104b03a38bde0f, 0x95104b03a38bde0f, 0x95104b03a38bde0f], // PIPE.mini
];
#[rustfmt::skip]
const CTX_PLAN: [PlanRow; 10] = [
    [0x295edab5b2fc6047, 0xdc36adb1cba32c20, 0xffb0d38dcdd039d7, 0x2bcf30e643eea541, 0x25377a60fd3c19e4, 0xcbf29ce484222325, 0x25377a60fd3c19e4, 0xcbf29ce484222325, 0xfd54f40db6e2dac0, 0x38537d184a305a22], // BT.test-ctx
    [0x9d04ba24a1497424, 0xa4cf504acbcded62, 0x5bbe54872218b5c4, 0x89025ee546f53363, 0x901a0ecf2bc2be69, 0xa84a131385b04f01, 0x28b26f4255b98a4d, 0xa84a131385b04f01, 0x97df3a751bedeec1, 0x5f923914f0ac261f], // CG.test-ctx
    [0x2e0f98ab4403a66e, 0xfcfe3bb5d59d73a8, 0x70846422b795fae6, 0xcf57ee8ba2b93287, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0x967931ea25c81a50, 0xcff8f8a8c77d1549], // EP.test-ctx
    [0x295edab5b2fc6047, 0xf26e1d0edc6a52df, 0x898d132c208a4e3d, 0xb3603955eba3e07e, 0x25377a60fd3c19e4, 0xfc1ef4bdc7978de6, 0x4f9cb8df159ed945, 0xfc1ef4bdc7978de6, 0x045d54c28c39cace, 0x16d043a47e8b6909], // FT.test-ctx
    [0xad90ce0f15d76a86, 0xe95a3fb666d713fe, 0xd7af297a471c2e44, 0xa675c21a0bfeee5f, 0xbdebe613ce5849af, 0xfc75bf473d8460d6, 0xa7af31e3c53c316b, 0xfc75bf473d8460d6, 0x94801a9648de970b, 0x76d1b38079ac8c3b], // IS.test-ctx
    [0x2f294bc515598565, 0xae68703ee9ec024c, 0x84c56a4c9fb0fc09, 0x3bc5c4020e0f5e4d, 0x7ff65801b879b56d, 0xc92bf62e665bb684, 0x82cb30cb3e369acc, 0xc92bf62e665bb684, 0x2d82f8ffc69e735b, 0xab37f95eda20f54b], // LU.test-ctx
    [0x26004574b81ed110, 0x30c18ef7b5a98063, 0x36db7f6af37ed7b4, 0x02004995dbfee834, 0x25377a60fd3c19e4, 0x60a5409512d55d44, 0x60a5409512d55d44, 0x60a5409512d55d44, 0x7a2970771924b11e, 0xe42985266a57eeef], // MG.test-ctx
    [0xb12a8bc45c2d9565, 0x67ccd71ddfa2e92b, 0xe86a2a41332c6880, 0xf7a1447abf72e3ca, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xcbf29ce484222325, 0x37d2cf5b142c3048, 0x7764fadcefd54969], // SP.test-ctx
    [0x3592338b565243ce, 0x1cc719bfb2fd59eb, 0xe4903cc0df3ac00e, 0xbfdb11d4a03c31d2, 0xfc1ef4bdc7978de6, 0xa71ae6c26beeae86, 0x4f9cb8df159ed945, 0xf21de33f05988de7, 0x52c5fa86151e7c10, 0xa32983e7e59230c1], // GMAX.test-ctx
    [0x5b2a969b42d238a4, 0xeb6b9df520a8ef3c, 0xeb6b9df520a8ef3c, 0xd8126121827140dd, 0xcbf29ce484222325, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0xa71ae6c26beeae86, 0x90699c2e90f26fef, 0x1d0596033ea10e21], // PIPE.test-ctx
];
#[rustfmt::skip]
const CTX_LOWERING: [LoweringRow; 10] = [
    [0x9af63d746c26cc04, 0x19a2e368f59d1711, 0xe570e2b94c57cdb1, 0x19a2e368f59d1711], // BT.test-ctx
    [0x462df141392880eb, 0x201075107dcd2d91, 0x9dd2d47ed25c2215, 0x201075107dcd2d91], // CG.test-ctx
    [0xae00265e443fc4d9, 0xf8981b74f33c77d0, 0xcd537a1640387b9a, 0xf8981b74f33c77d0], // EP.test-ctx
    [0x9af63d746c26cc04, 0x1c7f187106c0c38f, 0x6d348b8553bd1ae4, 0x1c7f187106c0c38f], // FT.test-ctx
    [0xca11486e7f69cb93, 0x664ccb05ce670858, 0x17ebdfcd84f68753, 0x664ccb05ce670858], // IS.test-ctx
    [0xb98aba03d65e4551, 0x12b691b2434b4698, 0x25812aa6573c0c4c, 0x12b691b2434b4698], // LU.test-ctx
    [0x90198f7de196ac9f, 0x67430d761b2de70e, 0xa428bb4384ed6322, 0x67430d761b2de70e], // MG.test-ctx
    [0x93f5f7644d0f847b, 0x213957bfa9d5fd65, 0x298d9f4ad78b164e, 0x213957bfa9d5fd65], // SP.test-ctx
    [0x3cac8d6df57c2a60, 0xfa098cb4dc95a838, 0x13cd960da028d23e, 0xa12dd9e3f9ca3856], // GMAX.test-ctx
    [0xcbf29ce484222325, 0x95104b03a38bde0f, 0x95104b03a38bde0f, 0x95104b03a38bde0f], // PIPE.test-ctx
];
#[rustfmt::skip]
const SYNTH_PLAN: [PlanRow; 3] = [
    [0x5b2a969b42d238a4, 0x23d0c3a5956a7aee, 0x23d0c3a5956a7aee, 0xca1e49bf4cf79eaf, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x066c8ca44f180cb1, 0x00f8d97d6b7ba6e5], // module100
    [0x5b2a969b42d238a4, 0x1b3d45d4f3177c6a, 0x1b3d45d4f3177c6a, 0x673e90a36eb8a26f, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xf0a977d3872a52f8, 0xb4a546a98955bd15], // wide16
    [0x5b2a969b42d238a4, 0x8db7c99e8dfab2f4, 0x8db7c99e8dfab2f4, 0xd6ae7e95e764a555, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x730aa2c209c39fb4, 0xa6b66f316d2a0cc5], // wide64
];
#[rustfmt::skip]
const SYNTH_LOWERING: [LoweringRow; 3] = [
    [0xcbf29ce484222325, 0xf8981b74f33c77d0, 0xf8981b74f33c77d0, 0xf8981b74f33c77d0], // module100
    [0xcbf29ce484222325, 0x47c5867f53c52b25, 0x47c5867f53c52b25, 0x47c5867f53c52b25], // wide16
    [0xcbf29ce484222325, 0x817a181663c1dfd2, 0x817a181663c1dfd2, 0x817a181663c1dfd2], // wide64
];
