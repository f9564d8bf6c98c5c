//! Pins what the sequential interpreter *emits* across commits.
//!
//! The ideal-machine emulator consumes the interpreter's event stream
//! (`on_alloc`, `on_enter`, `on_block`, every [`Step`], `on_exit`), and
//! the planner consumes its [`Profile`]; the profiling run `Session`
//! performs uses a sink that elides all of that bookkeeping. Three things
//! must therefore never move: the traced stream itself (FNV digests taken
//! at 427c8b7, before the bookkeeping became conditional on the sink), the
//! agreement between an untraced and a traced run on everything
//! observable, and the critical paths the emulator derives from the
//! stream.

use pspdg::emulator::emulate;
use pspdg::frontend::compile;
use pspdg::ir::interp::{Interpreter, NullSink, ObjId, ObjOrigin, Step, TraceSink};
use pspdg::ir::{BlockId, FuncId, Module};
use pspdg::nas::{benchmark, fault_suite, Class};
use pspdg::parallelizer::{build_plan, Abstraction};
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
        h.word(s.reg_deps.len() as u64);
        h.words(s.reg_deps.iter().copied());
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
/// all `void f()`), so `arg_deps` and the callee-`ret` producer convention
/// are in a pinned stream too.
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

#[test]
fn traced_event_stream_is_pinned() {
    // One kernel with calls between its phases, one with criticals, one
    // pipeline — plus the argument-passing program above.
    for (name, want) in [
        ("BT", 0xd3c3_a987_a828_33f3_u64),
        ("IS", 0x799a_83b4_fa6f_d177),
        ("PIPE", 0x4b16_4ea9_a697_956f),
    ] {
        let p = benchmark(name, Class::Mini)
            .expect("kernel exists")
            .program();
        let got = stream_digest(&p.module);
        assert_eq!(got, want, "{name}: event stream digest {got:#018x}");
    }
    let p = compile(CALLS_SRC).expect("compiles");
    let got = stream_digest(&p.module);
    assert_eq!(
        got, 0xb174_fe79_48df_d115,
        "CALLS: event stream digest {got:#018x}"
    );
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

#[test]
fn emulated_critical_paths_are_pinned() {
    // Per kernel, FNV over (critical_path, total_steps, parallelism bits)
    // for OpenMp, Pdg, Jk, PsPdg in that order.
    const WANT: [(&str, u64); 10] = [
        ("BT", 0xcac2_4ddd_45ec_9961),
        ("CG", 0x44fb_4571_2a24_ed37),
        ("EP", 0x122e_1838_13d9_df9a),
        ("FT", 0xc094_1d24_c857_4187),
        ("IS", 0xa573_1ca2_be43_22d2),
        ("LU", 0x1362_f73c_d314_750d),
        ("MG", 0x3a58_bcb4_90fd_ca06),
        ("SP", 0x21e2_8898_dcbd_0831),
        ("GMAX", 0xea5f_3df7_901b_af0c),
        ("PIPE", 0x6571_2d40_5d16_ab2a),
    ];
    let suite = fault_suite(Class::Test);
    assert_eq!(suite.len(), WANT.len());
    for (b, (name, want)) in suite.iter().zip(WANT) {
        assert_eq!(b.name, name);
        let p = b.program();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).expect("profile run");
        let mut h = Fnv::new();
        for a in Abstraction::ALL {
            let plan = build_plan(&p, interp.profile(), a, 0.01);
            let r = emulate(&p, &plan).expect("emulates");
            h.words([r.critical_path, r.total_steps, r.parallelism().to_bits()]);
        }
        assert_eq!(h.0, want, "{name}: emulation digest {:#018x}", h.0);
    }
}
