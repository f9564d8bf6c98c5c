//! Pins what the sequential interpreter *emits* across commits.
//!
//! The ideal-machine emulator consumes the interpreter's event stream
//! (`on_alloc`, `on_enter`, `on_block`, every [`Step`], `on_exit`), and
//! the planner consumes its [`Profile`]; the profiling run `Session`
//! performs uses a sink that elides all of that bookkeeping. Three things
//! must therefore never move: the traced stream itself (FNV digests taken
//! at 9423835, the last commit whose steps also carried register
//! producers), the agreement between an untraced and a traced run on
//! everything observable, and the critical paths the emulator derives from
//! the stream.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pspdg::emulator::emulate;
use pspdg::frontend::compile;
use pspdg::ir::interp::{Interpreter, NullSink, ObjId, ObjOrigin, Profile, Step, TraceSink};
use pspdg::ir::{BlockId, FuncId, Inst, InstId, Module};
use pspdg::nas::{benchmark, fault_suite, synth, Class};
use pspdg::parallel::ParallelProgram;
use pspdg::parallelizer::{
    build_plan, Abstraction, Discharge, LoopPlanSpec, PlannedTechnique, ProgramPlan,
};
use pspdg::pdg::{FunctionAnalyses, MemBase};
use pspdg::runtime::observable_globals;

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
}

/// Digests every event, tagged by kind, in delivery order.
struct DigestSink(Fnv);

impl TraceSink for DigestSink {
    fn on_step(&mut self, s: &Step<'_>) {
        let h = &mut self.0;
        h.words([1, s.frame, s.func.index() as u64, s.inst.index() as u64]);
        h.word(s.index);
        for cells in [s.loads, s.stores] {
            h.word(cells.len() as u64);
            for a in cells {
                h.words([a.obj.index() as u64, u64::from(a.off)]);
            }
        }
    }
    fn on_block(&mut self, frame: u64, func: FuncId, block: BlockId) {
        self.0
            .words([2, frame, func.index() as u64, block.index() as u64]);
    }
    fn on_enter(&mut self, frame: u64, func: FuncId, call_step: u64) {
        self.0.words([3, frame, func.index() as u64, call_step]);
    }
    fn on_exit(&mut self, frame: u64, func: FuncId, ret_step: u64) {
        self.0.words([4, frame, func.index() as u64, ret_step]);
    }
    fn on_alloc(&mut self, obj: ObjId, origin: ObjOrigin) {
        let (tag, a, b) = match origin {
            ObjOrigin::Global(g) => (0, g.index(), 0),
            ObjOrigin::Alloca { func, inst } => (1, func.index(), inst.index()),
        };
        self.0
            .words([5, obj.index() as u64, tag, a as u64, b as u64]);
    }
}

fn stream_digest(module: &Module) -> u64 {
    let mut sink = DigestSink(Fnv::new());
    Interpreter::new(module)
        .run_main(&mut sink)
        .expect("kernel runs");
    sink.0 .0
}

/// Calls that pass arguments and return values (the NAS kernels' calls are
/// all `void f()`), so parameters and call results are in a pinned stream
/// and a pinned critical path too.
const CALLS_SRC: &str = "\
int acc[8];
int scale(int x, int k) { return x * k + 1; }
int fold(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i++) { s = s + scale(i, s); acc[i % 8] = s; }
    return s;
}
int main() { return fold(12) + scale(fold(3), 2); }
";

/// A function with a local array, called from a loop: each call allocates
/// a fresh stack object, which the trace names by its own object id.
const LOCALS_SRC: &str = "\
int out[8];
int fill(int n) {
    int a[64]; int j; int s;
    s = 0;
    for (j = 0; j < 64; j++) { a[j] = j * n + 1; }
    for (j = 0; j < 64; j++) { s = s + a[j]; }
    return s;
}
int main() {
    int i; int t;
    t = 0;
    for (i = 0; i < 8; i++) { out[i] = fill(i); t = t + out[i]; }
    return t;
}
";

#[test]
fn traced_event_stream_is_pinned() {
    // One kernel with calls between its phases, one with criticals, one
    // pipeline — plus the argument-passing program above.
    // Taken at 9423835, over the fields a step keeps.
    for (name, want) in [
        ("BT", 0x82ef_f4ff_0b3a_fa82_u64),
        ("IS", 0x17b4_ffeb_3f2a_0768),
        ("PIPE", 0x2acf_6a6c_a669_cd35),
        ("CALLS", 0xb8b8_40da_5bc0_bb2e),
        // Taken at a7073ad, where no frame released its stack objects.
        ("LOCALS", 0xabbe_24b3_f9a3_9521),
    ] {
        let p = match name {
            "CALLS" => compile(CALLS_SRC).expect("compiles"),
            "LOCALS" => compile(LOCALS_SRC).expect("compiles"),
            _ => benchmark(name, Class::Mini)
                .expect("kernel exists")
                .program(),
        };
        let got = stream_digest(&p.module);
        assert_eq!(got, want, "{name}: event stream digest {got:#018x}");
    }
}

#[test]
fn untraced_and_traced_runs_agree_on_everything_observable() {
    for b in fault_suite(Class::Mini) {
        let p = b.program();
        let mut plain = Interpreter::new(&p.module);
        let plain_ret = plain.run_main(&mut NullSink).expect("untraced run");
        let mut traced = Interpreter::new(&p.module);
        let mut sink = DigestSink(Fnv::new());
        let traced_ret = traced.run_main(&mut sink).expect("traced run");
        assert_eq!(plain_ret, traced_ret, "{}: ret", b.name);
        assert_eq!(plain.output(), traced.output(), "{}: output", b.name);
        assert_eq!(
            observable_globals(&p.module, plain.mem()),
            observable_globals(&p.module, traced.mem()),
            "{}: globals",
            b.name
        );
        assert_eq!(plain.steps(), traced.steps(), "{}: steps", b.name);
        let (a, z) = (plain.profile(), traced.profile());
        assert_eq!(a.total, z.total, "{}: profile total", b.name);
        assert_eq!(a.block_count, z.block_count, "{}: block counts", b.name);
        assert_eq!(a.total, plain.steps(), "{}: total == steps", b.name);
    }
}

/// Counts executed instructions per `(func, inst)` from the event stream,
/// independently of [`Profile`](pspdg::ir::interp::Profile).
struct CountSink(Vec<Vec<u64>>);

impl TraceSink for CountSink {
    fn on_step(&mut self, s: &Step<'_>) {
        self.0[s.func.index()][s.inst.index()] += 1;
    }
}

/// The profile counts block entries only; every instruction must still be
/// accounted for exactly: an instruction ran as often as its block was
/// entered, and `block_set_cost` equals the per-instruction sum.
#[test]
fn per_block_profile_accounts_for_every_instruction() {
    let mut programs: Vec<_> = fault_suite(Class::Mini)
        .iter()
        .map(|b| (b.name, b.program()))
        .collect();
    programs.push(("CALLS", compile(CALLS_SRC).expect("compiles")));
    for (name, p) in &programs {
        let m = &p.module;
        let mut sink = CountSink(m.functions.iter().map(|f| vec![0; f.insts.len()]).collect());
        let mut interp = Interpreter::new(m);
        interp.run_main(&mut sink).expect("kernel runs");
        let profile = interp.profile();
        for (fi, f) in m.functions.iter().enumerate() {
            let ran = &sink.0[fi];
            for (i, owner) in f.inst_blocks().iter().enumerate() {
                let entered = owner.map_or(0, |bb| profile.block_count[fi][bb.index()]);
                assert_eq!(ran[i], entered, "{name}: {}: %{i}", f.name);
            }
            let func = FuncId::from_index(fi);
            let ran_in = |bbs: &[BlockId]| -> u64 {
                let insts = bbs.iter().flat_map(|bb| &f.block(*bb).insts);
                insts.map(|i| ran[i.index()]).sum()
            };
            let all: Vec<BlockId> = f.block_ids().collect();
            for bb in &all {
                let one = std::slice::from_ref(bb);
                let cost = profile.block_set_cost(m, func, one);
                assert_eq!(cost, ran_in(one), "{name}: {}: {bb}", f.name);
            }
            let cost = profile.block_set_cost(m, func, &all);
            assert_eq!(cost, ran_in(&all), "{name}: {}: all blocks", f.name);
        }
        let ran_total: u64 = sink.0.iter().flatten().sum();
        assert_eq!(profile.total, ran_total, "{name}: total");
    }
}

/// FNV over (critical_path, total_steps, parallelism bits) for OpenMp, Pdg,
/// Jk, PsPdg in that order.
fn emulation_digest(p: &ParallelProgram) -> u64 {
    let mut interp = Interpreter::new(&p.module);
    interp.run_main(&mut NullSink).expect("profile run");
    let mut h = Fnv::new();
    for a in Abstraction::ALL {
        let plan = build_plan(p, interp.profile(), a, 0.01);
        let r = emulate(p, &plan).expect("emulates");
        h.words([r.critical_path, r.total_steps, r.parallelism().to_bits()]);
    }
    h.0
}

/// Three worksharing loops nested in one function: three planned
/// activations are live at once, so the machine's two (activation,
/// iteration) pairs per step overflow and no flow dependence on the
/// privatized `t` or the reduced `s` is discharged.
const NEST3_SRC: &str = "\
double a[64]; double s;
void k() {
    int i; int j; int l; double t;
    #pragma omp parallel for private(j, l, t) reduction(+: s)
    for (i = 0; i < 4; i++) {
        #pragma omp parallel for private(l, t)
        for (j = 0; j < 4; j++) {
            #pragma omp parallel for private(t)
            for (l = 0; l < 4; l++) {
                t = a[i * 16 + j * 4 + l] + 1.0;
                a[i * 16 + j * 4 + l] = t * 2.0;
                s += t;
            }
        }
    }
}
int main() { k(); k(); return 0; }
";

/// A Cilk `fib`: recursive frames, spawn lanes, `children_max` joined at
/// every `cilk_sync`.
const FIB_SRC: &str = "\
int fib(int n) {
    int x; int y;
    if (n < 2) { return n; }
    x = cilk_spawn fib(n - 1);
    y = fib(n - 2);
    cilk_sync;
    return x + y;
}
int main() { return fib(11); }
";

/// An explicit `barrier` between two worksharing loops (the second
/// `nowait`) and a named `critical` inside each: `floor` and the lock chain.
const BARRIER_SRC: &str = "\
int hist[8]; int v[64]; int w[64]; int total;
void k() {
    int i;
    #pragma omp parallel
    {
        #pragma omp for nowait
        for (i = 0; i < 64; i++) {
            v[i] = i * 3 + 1;
            #pragma omp critical (histo)
            { hist[i % 8] += v[i]; }
        }
        #pragma omp barrier
        #pragma omp for nowait
        for (i = 0; i < 64; i++) {
            w[i] = v[63 - i] + hist[i % 8];
            #pragma omp critical (histo)
            { total += w[i]; }
        }
    }
}
int main() { k(); return total; }
";

/// Every iteration of `k`'s outer loop calls `step` (itself a loop); no
/// value flows from one call to the next.
const HELIX_CALL_SRC: &str = "\
int v[32]; int w[32];
int step(int x) {
    int j; int r;
    r = x;
    for (j = 0; j < 3; j++) { r = r * 3 + j; }
    return r % 1000;
}
void k() {
    int i; int j; int t;
    for (i = 0; i < 32; i++) {
        t = 0;
        for (j = 0; j < 6; j++) { t = t + i * j; }
        v[i] = t;
        w[i] = step(v[i]);
    }
}
int main() { k(); return w[31]; }
";

/// The HELIX plan of [`HELIX_CALL_SRC`]'s outer loop, built by hand (no
/// abstraction puts a call into a sequential segment on its own): `k`'s
/// locals are privatized and the call is the sequential segment, so the
/// only thing ordering two iterations is that the segment stays locked
/// until `step` returns.
fn helix_call_plan(p: &ParallelProgram) -> ProgramPlan {
    let m = &p.module;
    let k = m.function_by_name("k").expect("k exists");
    let f = m.function(k);
    let analyses = FunctionAnalyses::compute(m, k);
    let forest = &analyses.forest;
    let l = forest.top_level()[0];
    assert_eq!(forest.info(l).children.len(), 1, "the outer loop");
    let is = |i: &InstId, want: fn(&Inst) -> bool| want(&f.inst(*i).inst);
    let sequential_insts: BTreeSet<InstId> = analyses
        .loop_insts(l)
        .into_iter()
        .filter(|i| is(i, |inst| matches!(inst, Inst::Call { .. })))
        .collect();
    assert_eq!(sequential_insts.len(), 1, "the call of step");
    let locals: BTreeMap<MemBase, Discharge> = f
        .inst_ids()
        .filter(|i| is(i, |inst| matches!(inst, Inst::Alloca { .. })))
        .map(|i| (MemBase::Alloca(i), Discharge::Private))
        .collect();
    assert_eq!(locals.len(), 3, "i, j, t");
    let spec = LoopPlanSpec {
        func: k,
        loop_id: l,
        technique: PlannedTechnique::Helix { sequential_insts },
        discharged: locals,
        end_barrier: true,
    };
    ProgramPlan {
        abstraction: Abstraction::PsPdg,
        loops: HashMap::from([((k, l), spec)]),
        mutexes: vec![],
        parallel_spawns: false,
    }
}

#[test]
fn emulated_critical_paths_are_pinned() {
    const TEST: [(&str, u64); 10] = [
        ("BT", 0xcac2_4ddd_45ec_9961),
        ("CG", 0x44fb_4571_2a24_ed37),
        ("EP", 0x122e_1838_13d9_df9a),
        ("FT", 0xc094_1d24_c857_4187),
        ("IS", 0xe8f9_3844_8e68_5fcd),
        // Re-pinned when a HELIX segment began waiting once per iteration.
        ("LU", 0xd577_fde5_e4bf_707d),
        ("MG", 0x6938_2396_8d3a_8c5f),
        ("SP", 0x21e2_8898_dcbd_0831),
        ("GMAX", 0xea5f_3df7_901b_af0c),
        ("PIPE", 0x6571_2d40_5d16_ab2a),
    ];
    // Taken at 061deb6, with the hash-map machine, before it was rewritten.
    const MINI: [(&str, u64); 10] = [
        ("BT", 0x2a3a_0a74_1520_0174),
        ("CG", 0xb301_7b0b_a16f_8b68),
        ("EP", 0x406f_1337_c10a_266d),
        ("FT", 0x005d_552a_b6fa_1d80),
        ("IS", 0xaf3b_8b1f_08f4_bf9f),
        // Re-pinned when a HELIX segment began waiting once per iteration.
        ("LU", 0x3e13_e030_ef76_8430),
        ("MG", 0xe66f_2e56_1058_64fa),
        ("SP", 0xc0ab_533d_6149_66c1),
        ("GMAX", 0xcd23_ce2d_bf38_d31b),
        ("PIPE", 0xbf63_d470_652f_2175),
    ];
    for (class, rows) in [(Class::Test, TEST), (Class::Mini, MINI)] {
        let suite = fault_suite(class);
        assert_eq!(suite.len(), rows.len());
        for (b, (name, want)) in suite.iter().zip(rows) {
            assert_eq!(b.name, name);
            let got = emulation_digest(&b.program());
            assert_eq!(got, want, "{name} {class:?}: emulation digest {got:#018x}");
        }
    }
    // The shapes `plan_identity` pins: module-scale call trees and many
    // base objects. Taken at c572f1e.
    for (name, b, want) in [
        ("module100", synth::module(100, 32), 0x6076_58a7_10d3_0db2),
        ("wide16", synth::wide(16), 0x1bb7_20bb_7114_eb26),
        ("wide64", synth::wide(64), 0xede8_454c_a4ea_6b57),
    ] {
        let got = emulation_digest(&b.program());
        assert_eq!(got, want, "{name}: emulation digest {got:#018x}");
    }
    // Also taken at 061deb6.
    for (name, src, loops_in_k, want) in [
        ("NEST3", NEST3_SRC, 3, 0xe0cf_b4bd_8879_678a_u64),
        ("FIB", FIB_SRC, 0, 0x7eeb_1887_1bc7_5a75),
        ("BARRIER", BARRIER_SRC, 2, 0x30f3_1621_fe05_6398),
        // Taken at 9423835.
        ("CALLS", CALLS_SRC, 0, 0xb63f_7b27_6024_faba),
        // Taken at a7073ad.
        ("LOCALS", LOCALS_SRC, 0, 0xa5f7_68fd_45eb_ba01),
    ] {
        let p = compile(src).expect("compiles");
        if let Some(k) = p.module.function_by_name("k") {
            let plan = build_plan(&p, &Profile::default(), Abstraction::OpenMp, 0.01);
            let planned = plan.loops.keys().filter(|(f, _)| *f == k).count();
            assert_eq!(planned, loops_in_k, "{name}: planned loops in k");
        }
        let got = emulation_digest(&p);
        assert_eq!(got, want, "{name}: emulation digest {got:#018x}");
    }
    let p = compile(HELIX_CALL_SRC).expect("compiles");
    let r = emulate(&p, &helix_call_plan(&p)).expect("emulates");
    assert_eq!(
        (r.critical_path, r.total_steps),
        (1948, 5361),
        "HELIX_CALL: the segment is held across `step`"
    );
}

/// A DOALL plan of the first loop of `func` that privatizes `bases` and
/// joins at `end_barrier`, as the planner's own DOALL plans do.
fn doall_plan(
    p: &ParallelProgram,
    func: &str,
    bases: &[MemBase],
    end_barrier: bool,
) -> ProgramPlan {
    let fid = p.module.function_by_name(func).expect("function exists");
    let l = FunctionAnalyses::compute(&p.module, fid).forest.top_level()[0];
    let spec = LoopPlanSpec {
        func: fid,
        loop_id: l,
        technique: PlannedTechnique::Doall,
        discharged: bases.iter().map(|b| (*b, Discharge::Private)).collect(),
        end_barrier,
    };
    ProgramPlan {
        abstraction: Abstraction::PsPdg,
        loops: HashMap::from([((fid, l), spec)]),
        mutexes: vec![],
        parallel_spawns: false,
    }
}

/// A consumer in the callee's lane starts after its `ret` whichever step
/// produced the result, so the result has to cross lanes: `main`'s loop
/// calls `f` in its header, in each iteration's lane, and the exit block
/// reads the last call's result in the frame's lane after a `nowait` loop.
/// ParC passes every value that leaves a loop through memory, so the
/// module is built by hand.
#[test]
fn a_call_result_is_produced_by_the_callee_ret() {
    use pspdg::ir::{BinOp, CmpOp, FunctionBuilder, Type, Value};
    let mut m = Module::new("m");
    let f = m.declare_function_with("f", &[("x", Type::I64)], Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(f));
    let entry = b.create_block("entry");
    b.switch_to_block(entry);
    let mut r = Value::Param(0);
    for k in 1..=6 {
        let t = b.binary(BinOp::Mul, r, Value::const_int(3));
        r = b.binary(BinOp::Add, t, Value::const_int(k));
    }
    b.ret(Some(r));
    let main = m.declare_function("main", vec![], Type::I64);
    let mut b = FunctionBuilder::new(m.function_mut(main));
    let [entry, header, body, exit] =
        ["entry", "header", "body", "exit"].map(|name| b.create_block(name));
    b.switch_to_block(entry);
    let i = b.alloca(Type::I64, "i");
    b.store(i, Value::const_int(0));
    b.br(header);
    b.switch_to_block(header);
    let iv = b.load(i, Type::I64);
    let r = b.call(f, vec![iv], Type::I64);
    let c = b.cmp(CmpOp::Lt, iv, Value::const_int(8));
    b.cond_br(c, body, exit);
    b.switch_to_block(body);
    let next = b.binary(BinOp::Add, iv, Value::const_int(1));
    b.store(i, next);
    b.br(header);
    b.switch_to_block(exit);
    let mut s = r;
    for k in 1..=8 {
        let t = b.binary(BinOp::Mul, s, Value::const_int(5));
        s = b.binary(BinOp::Add, t, Value::const_int(k));
    }
    b.ret(Some(s));
    let p = ParallelProgram::new(m);
    let i = MemBase::Alloca(i.as_inst().expect("an alloca"));
    let r = emulate(&p, &doall_plan(&p, "main", &[i], false)).expect("emulates");
    // With the call step as the producer the exit chain would start before
    // `f`'s body, and the first iteration's lane would decide (23).
    assert_eq!((r.critical_path, r.total_steps), (33, 197));
}

/// Scalar parameters are copied into locals at entry, after the call; an
/// array parameter is read where it is used. A loop over a local waits for
/// the local's `alloca`, also after the call, so `fill` counts in a global.
/// Each of its iterations past the first then reads `a` in a lane of its
/// own, held back only by the argument's producer, `h`'s `alloca`, which
/// runs after `main`'s sequential loop. The first iteration waits for
/// `n = 0`, which follows the call, so it is kept short.
const PARAM_SRC: &str = "\
int v[64]; int out; int n;
void fill(int a[]) {
    for (n = 0; n < 16; n++) {
        if (n > 0) {
            a[n] = n * 3;
            a[n] = ((a[n] * 5 + 1) * 7 + 2) * 11 + 3;
        }
    }
}
void h() { int loc[16]; fill(loc); out = loc[15]; }
int main() {
    int i;
    for (i = 0; i < 64; i++) { v[i] = i * 2; }
    h();
    return out;
}
";

#[test]
fn a_parameter_is_produced_by_the_argument() {
    let p = compile(PARAM_SRC).expect("compiles");
    let n = MemBase::Global(p.module.global_ids().last().expect("n"));
    let r = emulate(&p, &doall_plan(&p, "fill", &[n], true)).expect("emulates");
    // Were `a` ready at time 0, the first iteration would decide (867).
    assert_eq!((r.critical_path, r.total_steps), (873, 1306));
}
