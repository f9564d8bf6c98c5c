//! The ideal-machine trace scheduler.

use std::collections::{HashMap, HashSet};

use pspdg_ir::interp::{ExecError, Interpreter, ObjId, ObjOrigin, Step, TraceSink};
use pspdg_ir::{BlockId, Cfg, DomTree, FuncId, Inst, LoopForest, LoopId, Value};
use pspdg_parallel::{DirectiveKind, ParallelProgram};
use pspdg_parallelizer::{Abstraction, Discharge, LoopPlanSpec, PlannedTechnique, ProgramPlan};
use pspdg_pdg::{trace_base, MemBase};
use pspdg_pool::BitSet;

/// Result of one plan emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmulationResult {
    /// Maximum finish time — the number of dynamic instructions that must
    /// run sequentially under the plan.
    pub critical_path: u64,
    /// Total dynamic instructions executed.
    pub total_steps: u64,
}

impl EmulationResult {
    /// Parallelism exposed by the plan (total / critical path).
    pub fn parallelism(&self) -> f64 {
        if self.critical_path == 0 {
            1.0
        } else {
            self.total_steps as f64 / self.critical_path as f64
        }
    }
}

/// Emulate `program` under `plan` (running its `main`).
///
/// # Errors
///
/// Propagates interpreter faults (out-of-bounds, undef reads, fuel).
pub fn emulate(
    program: &ParallelProgram,
    plan: &ProgramPlan,
) -> Result<EmulationResult, ExecError> {
    let mut machine = IdealMachine::new(program, plan);
    let mut interp = Interpreter::new(&program.module);
    interp.run_main(&mut machine)?;
    Ok(machine.result(interp.steps()))
}

const NO_PLAN: u32 = u32::MAX;

// Per-instruction flags. A step with none of `SLOW` set skips
// `IdealMachine::constrain`.
const SPAWN: u8 = 1; // in a `cilk_spawn` region (a spawned call)
const SYNC: u8 = 1 << 1; // joins spawned children (`cilk_sync`, `taskwait`)
const BARRIER: u8 = 1 << 2; // a team-wide barrier
const LOCKED: u8 = 1 << 3; // covered by a mutex (`lock_of` names it)
const SEQUENTIAL: u8 = 1 << 4; // in some HELIX-planned loop's sequential segment
const LONG: u8 = 1 << 5; // a call, or more than two operands
const SLOW: u8 = SYNC | BARRIER | LOCKED | SEQUENTIAL | LONG;

/// `table[i]`, growing the table with `fill` up to `i` first.
fn slot<T: Clone>(table: &mut Vec<T>, i: usize, fill: T) -> &mut T {
    if i >= table.len() {
        table.resize(i + 1, fill);
    }
    &mut table[i]
}

/// A planned loop, pre-resolved for the hot path.
#[derive(Debug)]
struct PlannedLoop {
    /// HELIX: the sequential segment, by instruction.
    sequential_insts: BitSet,
    /// Discharged static objects: a global by its index, a function's
    /// alloca by the function's `alloca_base` + its instruction.
    ignored: BitSet,
    reduce: bool,
    end_barrier: bool,
}

impl PlannedLoop {
    fn from_spec(
        spec: &LoopPlanSpec,
        alloca_base: &[usize],
        locked: &HashSet<(FuncId, MemBase)>,
    ) -> PlannedLoop {
        let sequential_insts = match &spec.technique {
            PlannedTechnique::Doall => BitSet::new(),
            PlannedTechnique::Helix { sequential_insts } => {
                sequential_insts.iter().map(|i| i.index()).collect()
            }
        };
        let ignored = spec.discharged.keys().filter_map(|b| match b {
            MemBase::Global(g) => Some(g.index()),
            MemBase::Alloca(i) => Some(alloca_base[spec.func.index()] + i.index()),
            _ => None,
        });
        // The runtime merges an accumulator from identity-started forks
        // just as it merges a declared reduction, unless a lock's stores
        // write it: then it stays shared, serialized by the lock.
        let merged = |(base, d): (&MemBase, &Discharge)| match d {
            Discharge::Reduction(_) => true,
            Discharge::Accumulator(_) => !locked.contains(&(spec.func, *base)),
            Discharge::Private => false,
        };
        PlannedLoop {
            sequential_insts,
            ignored: ignored.collect(),
            reduce: spec.discharged.iter().any(merged),
            end_barrier: spec.end_barrier,
        }
    }
}

/// An instruction's static facts, packed: all a step reads of them.
#[derive(Debug, Clone, Copy, Default)]
struct InstFacts {
    /// The operands' register slots, padded with slot 0; with `LONG`, where
    /// they start in [`IdealMachine::op_slots`] and how many there are.
    ops: [u32; 2],
    flags: u8,
}

/// A block's static facts: all `on_block` reads of them.
#[derive(Debug, Clone)]
struct BlockFacts {
    /// The loops containing the block, outermost-first.
    nest: Vec<LoopId>,
    spawn: bool,
    /// The header of a planned loop (always the block's innermost).
    planned_header: bool,
}

/// Per-function static info the scheduler needs.
#[derive(Debug, Default)]
struct FuncInfo {
    /// Where the function's instructions start in [`IdealMachine::insts`].
    inst_base: usize,
    /// Slot of parameter 0.
    first_param: usize,
    /// Register slots of a frame.
    slots: usize,
    blocks: Vec<BlockFacts>,
    /// Planned loop index per loop ([`NO_PLAN`] = unplanned).
    plan_of_loop: Vec<u32>,
}

/// One live loop activation of a frame.
#[derive(Debug, Clone)]
struct Activation {
    loop_id: LoopId,
    plan: u32, // index into plans, NO_PLAN = unplanned
    uid: u32,
    /// Counted for planned loops only: no lane or context reads the rest.
    iter: u32,
    /// HELIX: the latest finish of its sequential segment in earlier
    /// iterations, which a segment instance waits for, and in the current
    /// one, folded into `seq_last` when the iteration advances.
    seq_last: u64,
    seq_cur: u64,
    /// Latest finish among the frame's steps under this activation, as of
    /// the last push above it (see [`FrameState::run_max`]).
    max_finish: u64,
}

/// The first two planned activations a step runs under (uid + 1; 0 =
/// none) and their iterations, which discharge flow dependences.
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    act: [u32; 2],
    iter: [u32; 2],
}

#[derive(Debug, Default)]
struct FrameState {
    id: u64,
    inst_base: usize,
    base_lane: u64,
    /// Where this frame's activations and register slots start in
    /// [`IdealMachine::acts`] and [`IdealMachine::regs`].
    act_base: usize,
    reg_base: usize,
    /// The caller's slot that takes this frame's `ret` finish.
    result_slot: Option<usize>,
    spawned: bool,
    children_max: u64,
    /// Entered by a call in a HELIX sequential segment: the caller's
    /// activation whose chain extends to this call's end.
    seq_owner: Option<usize>,
    /// Whether the current block is in a `cilk_spawn` region.
    in_spawn: bool,
    /// Latest finish among this frame's steps since its innermost
    /// activation was pushed, folded into it at a push above or its pop.
    /// Between recomputing blocks, calls and returns it is `Lanes::cur_last`
    /// (one lane, rising finishes).
    run_max: u64,
    // The rest is recomputed by `on_block` from the activations and block.
    /// The current block's lane: a spawn region's fresh one, else the chain's.
    lane: u64,
    context: Context,
    /// Plan of each `context` activation.
    context_plan: [u32; 2],
    /// Over two planned activations are live: none discharges.
    overflow: bool,
}

/// The last step to write a cell.
#[derive(Debug, Clone, Copy, Default)]
struct Writer {
    /// Its finish time; 0 = never written.
    fin: u64,
    context: Context,
}

/// Last writers of one runtime object's cells, grown on demand.
#[derive(Debug, Clone, Default)]
struct ObjWriters {
    /// The object's index in the `ignored` sets.
    stat: usize,
    cells: Vec<Writer>,
}

/// Finish times so far: the last per lane, in a map (lanes are unbounded)
/// behind the one the trace is in, the current block's.
#[derive(Default)]
struct Lanes {
    last: HashMap<u64, u64>,
    cur: u64,
    /// The last finish in `cur`, never below `floor`: a step starts at it.
    cur_last: u64,
    /// The latest finish of every lane but `cur`.
    max: u64,
    /// No step starts before the latest barrier's join.
    floor: u64,
}

impl Lanes {
    /// Make `lane` current.
    fn switch(&mut self, lane: u64) {
        if lane != self.cur {
            self.max = self.max.max(self.cur_last);
            self.last.insert(self.cur, self.cur_last);
            self.cur_last = self.last.get(&lane).map_or(0, |&l| l).max(self.floor);
            self.cur = lane;
        }
    }

    /// Make `lane`, which no step ran in yet, current, leaving one no step
    /// will run in again: the map is not touched.
    fn retire_to(&mut self, lane: u64) {
        self.max = self.max.max(self.cur_last);
        (self.cur, self.cur_last) = (lane, self.floor);
    }

    /// The latest finish of all: a lane's last finish only rises.
    fn max(&self) -> u64 {
        self.max.max(self.cur_last)
    }
}

/// The ideal machine: a [`TraceSink`] computing plan-constrained finish
/// times online.
///
/// An operand names its producing instruction, and the instance it reads is
/// that instruction's latest execution in the frame, so a frame keeps a
/// finish time per register slot: slot 0 (every constant and global) reads
/// 0, slot `1 + i` is instruction `i`'s, and the parameters follow from
/// [`FuncInfo::first_param`]. Two producer conventions cross frames:
///
/// * the producer of a `call`'s *result* is the callee's `ret` step (not
///   the call step), so consumers of the result wait for the callee;
/// * a parameter reads the finish of the call's argument in the caller.
#[derive(Default)]
pub(crate) struct IdealMachine {
    plans: Vec<PlannedLoop>,
    funcs: Vec<FuncInfo>,
    /// Every function's instructions, function after function.
    insts: Vec<InstFacts>,
    /// Every `LONG` instruction's operand slots.
    op_slots: Vec<u32>,
    /// Lock id per `LOCKED` instruction, indexed like `insts`.
    lock_of: Vec<u32>,
    /// Where each function's allocas start in the `ignored` sets.
    alloca_base: Vec<usize>,
    /// The innermost live frame, whose steps the trace is delivering; the
    /// frames below it in `frames`, innermost last.
    top: FrameState,
    frames: Vec<FrameState>,
    /// Live loop activations and register finish times of all frames,
    /// innermost frame's last.
    acts: Vec<Activation>,
    regs: Vec<u64>,
    lanes: Lanes,
    /// By lock id.
    lock_last: Vec<u64>,
    /// By `ObjId`.
    writers: Vec<ObjWriters>,
    next_act_uid: u32,
    next_spawn_lane: u64,
    /// The last `SLOW` step's instruction: every call is one, so `on_enter`
    /// finds its call here.
    call_inst: usize,
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn ceil_log2(n: u64) -> u64 {
    n.next_power_of_two().trailing_zeros() as u64
}

/// Lane of a frame's (planned) activation stack `acts` over `base_lane`:
/// one per iteration of every planned activation.
fn lane_of(base_lane: u64, acts: &[Activation]) -> u64 {
    let planned = acts.iter().filter(|a| a.plan != NO_PLAN);
    planned.fold(base_lane, |lane, act| {
        mix(lane, act.uid as u64, act.iter as u64)
    })
}

/// Whether `inst` is in the sequential segment of `act`'s (HELIX) plan.
fn in_segment(plans: &[PlannedLoop], act: &Activation, inst: usize) -> bool {
    act.plan != NO_PLAN && plans[act.plan as usize].sequential_insts.contains(inst)
}

/// Pop `top`'s innermost activation; a planned loop's continuation (the
/// frame's lane without it) waits for all iterations (+ the merge).
fn pop_activation(
    plans: &[PlannedLoop],
    acts: &mut Vec<Activation>,
    top: &mut FrameState,
    lanes: &mut Lanes,
) {
    let act = acts.pop().expect("the frame has a live activation");
    let max_finish = act.max_finish.max(top.run_max);
    top.run_max = max_finish;
    if act.plan == NO_PLAN {
        return;
    }
    let p = &plans[act.plan as usize];
    let sync_fin = match (p.reduce, p.end_barrier) {
        (true, _) => max_finish + ceil_log2(act.iter as u64 + 1),
        (false, true) => max_finish,
        (false, false) => 0,
    };
    if sync_fin > 0 {
        lanes.switch(lane_of(top.base_lane, &acts[top.act_base..]));
        lanes.cur_last = lanes.cur_last.max(sync_fin);
    }
}

/// Whether a flow dependence through object `stat`, from a step that ran
/// under `writer` to one in `reader`, is discharged: both ran under some
/// activation, in different iterations, whose plan ignores the object.
/// (Two empty context slots agree on iteration 0, so they never match.)
fn discharged(plans: &[PlannedLoop], reader: &FrameState, writer: &Context, stat: usize) -> bool {
    let by = &reader.context;
    !reader.overflow
        && (0..2).any(|i| {
            (0..2).any(|j| writer.act[j] == by.act[i] && writer.iter[j] != by.iter[i])
                && plans[reader.context_plan[i] as usize]
                    .ignored
                    .contains(stat)
        })
}

impl IdealMachine {
    /// Prepare a machine for `program` under `plan`.
    pub(crate) fn new(program: &ParallelProgram, plan: &ProgramPlan) -> IdealMachine {
        let module = &program.module;
        let sizes = module.functions.iter().map(|f| f.insts.len());
        let starts = sizes.scan(module.globals.len(), |next, n| {
            *next += n;
            Some(*next - n)
        });
        let alloca_base: Vec<usize> = starts.collect();
        let locked: HashSet<(FuncId, MemBase)> = plan
            .mutexes
            .iter()
            .flat_map(|m| {
                let f = module.function(m.func);
                m.insts.iter().filter_map(move |&i| match &f.inst(i).inst {
                    Inst::Store { ptr, .. } => Some((m.func, trace_base(f, *ptr))),
                    _ => None,
                })
            })
            .collect();
        let mut plans = Vec::new();
        let mut plan_idx: HashMap<(FuncId, LoopId), u32> = HashMap::new();
        for ((func, l), spec) in &plan.loops {
            plan_idx.insert((*func, *l), plans.len() as u32);
            plans.push(PlannedLoop::from_spec(spec, &alloca_base, &locked));
        }
        let mut lock_ids: HashMap<&str, u32> = HashMap::new();
        let (mut insts, mut op_slots, mut lock_of) = (Vec::new(), Vec::new(), Vec::new());
        let mut funcs = Vec::new();
        for func in module.function_ids() {
            let f = module.function(func);
            let (base, first_param) = (insts.len(), 1 + f.insts.len());
            for data in &f.insts {
                let at = op_slots.len();
                op_slots.extend(data.inst.operands().map(|v| match v {
                    Value::Inst(i) => 1 + i.index() as u32,
                    Value::Param(p) => (first_param + p) as u32,
                    Value::Const(_) | Value::Global(_) => 0,
                }));
                let n = op_slots.len() - at;
                let (ops, flags) = if n > 2 || matches!(data.inst, Inst::Call { .. }) {
                    ([at as u32, n as u32], LONG)
                } else {
                    let ops = [at, at + 1].map(|k| op_slots.get(k).map_or(0, |&s| s));
                    op_slots.truncate(at);
                    (ops, 0)
                };
                insts.push(InstFacts { ops, flags });
            }
            let mut info = FuncInfo {
                inst_base: base,
                first_param,
                slots: first_param + f.params.len(),
                ..FuncInfo::default()
            };
            if f.blocks.is_empty() {
                funcs.push(info);
                continue;
            }
            let cfg = Cfg::new(f);
            let forest = LoopForest::new(f, &cfg, &DomTree::new(&cfg));
            info.plan_of_loop = forest
                .loop_ids()
                .map(|l| plan_idx.get(&(func, l)).copied().unwrap_or(NO_PLAN))
                .collect();
            info.blocks = f
                .block_ids()
                .map(|bb| {
                    let mut nest = forest.nest_of(bb);
                    let planned_header = nest.first().is_some_and(|&l| {
                        forest.info(l).header == bb && info.plan_of_loop[l.index()] != NO_PLAN
                    });
                    nest.reverse(); // outermost-first
                    BlockFacts {
                        nest,
                        spawn: false,
                        planned_header,
                    }
                })
                .collect();
            let flags = &mut insts[base..];
            for m in plan.mutexes.iter().filter(|m| m.func == func) {
                let next = lock_ids.len() as u32;
                let id = *lock_ids.entry(m.lock.as_str()).or_insert(next);
                for &i in &m.insts {
                    flags[i.index()].flags |= LOCKED;
                    *slot(&mut lock_of, base + i.index(), 0) = id;
                }
            }
            for &p in info.plan_of_loop.iter().filter(|p| **p != NO_PLAN) {
                for i in &plans[p as usize].sequential_insts {
                    flags[i].flags |= SEQUENTIAL;
                }
            }
            for (_, d) in program.directives_in(func) {
                let flag = match d.kind {
                    DirectiveKind::CilkSpawn if plan.parallel_spawns => SPAWN,
                    DirectiveKind::CilkSync | DirectiveKind::Taskwait => SYNC,
                    DirectiveKind::Barrier if plan.abstraction == Abstraction::OpenMp => BARRIER,
                    _ => continue,
                };
                for bb in &d.region.blocks {
                    info.blocks[bb.index()].spawn |= flag == SPAWN;
                    for i in &f.block(*bb).insts {
                        flags[i.index()].flags |= flag;
                    }
                }
            }
            funcs.push(info);
        }
        IdealMachine {
            plans,
            funcs,
            insts,
            op_slots,
            lock_of,
            alloca_base,
            lock_last: vec![0; lock_ids.len()],
            next_spawn_lane: 1,
            ..IdealMachine::default()
        }
    }

    /// The measurement after a run of `total_steps` steps completes.
    pub(crate) fn result(&self, total_steps: u64) -> EmulationResult {
        EmulationResult {
            critical_path: self.lanes.max(),
            total_steps,
        }
    }

    /// Delay a `SLOW` step of `inst` ready at `start` for its lock, HELIX
    /// segment, sync or barrier; record its finish (the returned start + 1).
    #[inline(always)]
    fn constrain(&mut self, inst: usize, flags: u8, mut start: u64) -> u64 {
        let top = &mut self.top;
        let lock = (flags & LOCKED != 0).then(|| self.lock_of[top.inst_base + inst] as usize);
        start = start.max(lock.map_or(0, |l| self.lock_last[l]));
        // The live HELIX segments it is in; the innermost one it extends.
        let (acts, seq) = (&self.acts, flags & SEQUENTIAL != 0);
        let mut segments = (if seq { top.act_base } else { acts.len() }..acts.len())
            .filter(|&i| in_segment(&self.plans, &acts[i], inst));
        start = segments.clone().fold(start, |s, i| s.max(acts[i].seq_last));
        let helix_act = segments.next_back();
        if flags & SYNC != 0 {
            start = start.max(top.children_max);
        }
        if flags & BARRIER != 0 {
            self.lanes.floor = self.lanes.floor.max(self.lanes.max());
            start = start.max(self.lanes.floor);
        }
        top.run_max = top.run_max.max(start + 1);
        if let Some(lock) = lock {
            self.lock_last[lock] = start + 1;
        }
        if let Some(i) = helix_act {
            let act = &mut self.acts[i];
            act.seq_cur = act.seq_cur.max(start + 1);
        }
        self.call_inst = inst;
        start
    }
}

impl TraceSink for IdealMachine {
    fn on_alloc(&mut self, obj: ObjId, origin: ObjOrigin) {
        let stat = match origin {
            ObjOrigin::Global(g) => g.index(),
            ObjOrigin::Alloca { func, inst } => self.alloca_base[func.index()] + inst.index(),
        };
        slot(&mut self.writers, obj.index(), ObjWriters::default()).stat = stat;
    }

    fn on_enter(&mut self, frame: u64, func: FuncId, call_step: u64) {
        let callee = &self.funcs[func.index()];
        let reg_base = self.regs.len();
        self.regs.resize(reg_base + callee.slots, 0);
        let state = FrameState {
            id: frame,
            inst_base: callee.inst_base,
            act_base: self.acts.len(),
            reg_base,
            ..FrameState::default()
        };
        let mut caller = std::mem::replace(&mut self.top, state);
        if call_step == u64::MAX {
            return; // the root activation
        }
        // The call is the most recent step: it ends the caller's run, and its
        // lane is current.
        caller.run_max = caller.run_max.max(self.lanes.cur_last);
        let call = self.insts[caller.inst_base + self.call_inst];
        debug_assert!(call.flags & LONG != 0);
        let args = &self.op_slots[call.ops[0] as usize..][..call.ops[1] as usize];
        for (p, &s) in args.iter().enumerate() {
            self.regs[reg_base + callee.first_param + p] = self.regs[caller.reg_base + s as usize];
        }
        let top = &mut self.top;
        top.result_slot = Some(caller.reg_base + 1 + self.call_inst);
        (top.base_lane, top.lane) = (self.lanes.cur, self.lanes.cur);
        // A spawned call already runs in its strand's lane, the callee's too.
        top.spawned = call.flags & SPAWN != 0;
        // A call in a HELIX sequential segment holds it until it returns.
        top.seq_owner = (caller.act_base..self.acts.len())
            .find(|i| in_segment(&self.plans, &self.acts[*i], self.call_inst));
        self.frames.push(caller);
    }

    fn on_exit(&mut self, frame: u64, _func: FuncId, _ret_step: u64) {
        let caller = self.frames.pop().unwrap_or_default();
        let mut state = std::mem::replace(&mut self.top, caller);
        debug_assert_eq!(state.id, frame);
        // The `ret` is the most recent step: it ends the frame's run, and its
        // finish is the call's.
        let fin = self.lanes.cur_last;
        state.run_max = state.run_max.max(fin);
        self.regs.truncate(state.reg_base);
        if let Some(slot) = state.result_slot {
            self.regs[slot] = fin;
        }
        while self.acts.len() > state.act_base {
            pop_activation(&self.plans, &mut self.acts, &mut state, &mut self.lanes);
        }
        if state.spawned {
            self.top.children_max = self.top.children_max.max(fin);
        }
        if let Some(owner) = state.seq_owner {
            let act = &mut self.acts[owner];
            act.seq_cur = act.seq_cur.max(fin);
        }
        self.lanes.switch(self.top.lane);
    }

    // `on_block` and `on_step` are inlined into the interpreter's loop
    // whole: an out-of-line call handed the machine slows the loop around
    // it by more than the code it keeps out.
    #[inline(always)]
    fn on_block(&mut self, frame: u64, func: FuncId, block: BlockId) {
        debug_assert_eq!(self.top.id, frame);
        let info = &self.funcs[func.index()];
        let facts = &info.blocks[block.index()];
        let (nest, top) = (&facts.nest, &mut self.top);
        let base = top.act_base;
        // A block of the last one's loops that does not head a planned loop
        // and is not in or after a spawn region changes no lane or context.
        let innermost = self.acts[base..].last().map(|a| a.loop_id);
        if innermost == nest.last().copied()
            && self.acts.len() - base == nest.len()
            && !(facts.planned_header || facts.spawn || top.in_spawn)
        {
            return;
        }
        // The last step was this frame's, or its call's (before the first).
        top.run_max = top.run_max.max(self.lanes.cur_last);
        // A spawn-region block opens a fresh lane; leaving one returns to the frame's.
        top.in_spawn = facts.spawn;
        let spawn_lane = facts.spawn.then(|| {
            self.next_spawn_lane += 1;
            mix(top.base_lane, 0xC11C, self.next_spawn_lane)
        });
        // Pop what ended: loops nest, so what is left is a prefix of `nest`.
        while let Some(act) = self.acts[base..].last() {
            if nest.get(self.acts.len() - base - 1) == Some(&act.loop_id) {
                break;
            }
            pop_activation(&self.plans, &mut self.acts, top, &mut self.lanes);
        }
        let live = self.acts.len() - base;
        debug_assert!(self.acts[base..]
            .iter()
            .map(|a| a.loop_id)
            .eq(nest[..live].iter().copied()));
        // Push the newly entered loops, outermost-first, or count an iteration.
        if live < nest.len() {
            if let Some(below) = self.acts[base..].last_mut() {
                below.max_finish = below.max_finish.max(top.run_max);
            }
            top.run_max = 0;
            for l in &nest[live..] {
                self.acts.push(Activation {
                    loop_id: *l,
                    plan: info.plan_of_loop[l.index()],
                    uid: self.next_act_uid,
                    iter: 0,
                    seq_last: 0,
                    seq_cur: 0,
                    max_finish: 0,
                });
                self.next_act_uid += 1;
            }
        }
        let bumped = live == nest.len() && facts.planned_header;
        if let Some(act) = self.acts.last_mut().filter(|_| bumped) {
            act.iter += 1;
            act.seq_last = act.seq_cur;
        }
        let acts = &self.acts[base..];
        top.lane = spawn_lane.unwrap_or_else(|| lane_of(top.base_lane, acts));
        top.context = Context::default();
        let mut planned = acts.iter().filter(|a| a.plan != NO_PLAN);
        for (n, act) in planned.by_ref().take(2).enumerate() {
            top.context.act[n] = act.uid + 1;
            top.context.iter[n] = act.iter;
            top.context_plan[n] = act.plan;
        }
        top.overflow = planned.next().is_some();
        if bumped && spawn_lane.is_none() {
            // A planned loop's next iteration: every lane of the last one
            // is dead, and its own is new.
            self.lanes.retire_to(top.lane);
        } else {
            self.lanes.switch(top.lane);
        }
    }

    #[inline(always)]
    fn on_step(&mut self, step: &Step<'_>) {
        debug_assert_eq!(self.top.id, step.frame);
        debug_assert!(step.loads.len() <= 1 && step.stores.len() <= 1);
        let (inst, top) = (step.inst.index(), &self.top);
        let facts = self.insts[top.inst_base + inst];
        debug_assert!(!top.in_spawn || facts.flags & SPAWN != 0);
        let regs = &self.regs[top.reg_base..];
        let mut start = if facts.flags & LONG == 0 {
            let [a, b] = facts.ops.map(|s| regs[s as usize]);
            self.lanes.cur_last.max(a).max(b)
        } else {
            let [at, n] = facts.ops.map(|x| x as usize);
            let max = |s: u64, &o: &u32| s.max(regs[o as usize]);
            self.op_slots[at..at + n]
                .iter()
                .fold(self.lanes.cur_last, max)
        };
        // The cell it loaded, unless the plan discharges that flow dependence.
        if let Some(addr) = step.loads.first() {
            let obj = &self.writers[addr.obj.index()];
            let w = obj.cells.get(addr.off as usize).filter(|w| w.fin > start);
            if let Some(w) = w.filter(|w| !discharged(&self.plans, top, &w.context, obj.stat)) {
                start = w.fin;
            }
        }
        if facts.flags & SLOW != 0 {
            start = self.constrain(inst, facts.flags, start);
        }
        let fin = start + 1;
        self.regs[self.top.reg_base + 1 + inst] = fin;
        self.lanes.cur_last = fin;
        if let Some(addr) = step.stores.first() {
            let cells = &mut self.writers[addr.obj.index()].cells;
            let context = self.top.context;
            *slot(cells, addr.off as usize, Writer::default()) = Writer { fin, context };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_parallelizer::{build_plan, Abstraction};

    fn cp_all(src: &str) -> Vec<(Abstraction, EmulationResult)> {
        let row = crate::compare_plans("test", &compile(src).unwrap());
        row.unwrap().results
    }

    #[test]
    fn ceil_log2_boundaries() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn lane_mixer_separates_iterations() {
        // Distinct (activation, iteration) pairs land in distinct lanes.
        let mut seen = std::collections::HashSet::new();
        for act in 0..64u64 {
            for iter in 0..64u64 {
                assert!(seen.insert(mix(0, act, iter)), "collision at {act},{iter}");
            }
        }
    }

    #[test]
    fn sequential_program_cp_equals_length() {
        let p = compile("int main() { int x = 1; int y = x + 2; return y; }").unwrap();
        let plan = build_plan(
            &p,
            &pspdg_ir::interp::Profile::default(),
            Abstraction::Pdg,
            0.01,
        );
        let r = emulate(&p, &plan).unwrap();
        // Fully sequential chain in a single lane.
        assert_eq!(r.critical_path, r.total_steps);
    }

    #[test]
    fn doall_loop_collapses_critical_path() {
        let results = cp_all(
            r#"
            int v[256];
            void k() { int i; for (i = 0; i < 256; i++) { v[i] = i * 3 + 1; } }
            int main() { k(); return 0; }
            "#,
        );
        let (_, omp) = results[0];
        let (_, pdg) = results[1];
        // OpenMP has no annotations: sequential.
        assert_eq!(omp.critical_path, omp.total_steps);
        // The compiler DOALLs the loop: large parallelism.
        assert!(
            pdg.critical_path < omp.critical_path / 10,
            "pdg {} vs omp {}",
            pdg.critical_path,
            omp.critical_path
        );
    }

    #[test]
    fn histogram_ordering_matches_paper() {
        // OpenMP parallelizes (declared); PDG cannot (indirect); J&K and
        // PS-PDG can. CP(PDG) > CP(OpenMP) ≈ CP(J&K) ≈ CP(PS-PDG).
        let results = cp_all(
            r#"
            int key[512]; int hist[512];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 512; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let cp: HashMap<Abstraction, u64> =
            results.iter().map(|(a, r)| (*a, r.critical_path)).collect();
        assert!(cp[&Abstraction::Pdg] > cp[&Abstraction::OpenMp] * 2);
        assert!(cp[&Abstraction::PsPdg] <= cp[&Abstraction::OpenMp]);
        assert!(cp[&Abstraction::Jk] <= cp[&Abstraction::OpenMp]);
    }

    #[test]
    fn reduction_costs_log_merge() {
        let results = cp_all(
            r#"
            double s; double v[1024];
            void k() {
                int i;
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 1024; i++) { s += v[i] * 2.0; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let (_, omp) = results[0];
        // Much shorter than sequential, but not 1 cycle: per-iteration work
        // plus the log₂(1024)=10 merge.
        assert!(omp.critical_path < omp.total_steps / 20);
        assert!(omp.critical_path > 10);
    }

    #[test]
    fn critical_section_serializes_openmp_but_not_always_pspdg() {
        let results = cp_all(
            r#"
            int a[256]; int b[256];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 256; i++) {
                    #pragma omp critical
                    { a[i] = a[i] + b[i]; }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let cp: HashMap<Abstraction, u64> =
            results.iter().map(|(a, r)| (*a, r.critical_path)).collect();
        // The critical protects provably disjoint cells: PS-PDG drops the
        // serialization; the OpenMP plan must keep it.
        assert!(
            cp[&Abstraction::PsPdg] * 4 < cp[&Abstraction::OpenMp],
            "pspdg {} vs openmp {}",
            cp[&Abstraction::PsPdg],
            cp[&Abstraction::OpenMp]
        );
    }

    #[test]
    fn cilk_spawn_runs_in_parallel_under_openmp_plan() {
        let results = cp_all(
            r#"
            int heavy(int n) {
                int i; int s = 0;
                for (i = 0; i < n; i++) { s += i; }
                return s;
            }
            int main() {
                int x; int y;
                x = cilk_spawn heavy(500);
                y = heavy(500);
                cilk_sync;
                return x - y;
            }
            "#,
        );
        let (_, omp) = results[0]; // "as written" plan honors spawn
                                   // The two heavy calls overlap: the critical path is roughly half
                                   // the dynamic instruction count (each call is ~half the program).
        assert!(
            omp.critical_path < omp.total_steps * 6 / 10,
            "spawn should roughly halve the critical path: cp {} total {}",
            omp.critical_path,
            omp.total_steps
        );
        assert!(
            omp.critical_path > omp.total_steps * 4 / 10,
            "each strand is still internally sequential: cp {} total {}",
            omp.critical_path,
            omp.total_steps
        );
    }

    #[test]
    fn pspdg_never_loses_programmer_parallelism() {
        // Paper: "for benchmarks with good parallelization coverage by the
        // programmer, the PS-PDG ensures no loss of parallelism".
        let results = cp_all(
            r#"
            double v[512]; double w[512];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 512; i++) { w[i] = v[i] * 1.5 + 2.0; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let cp: HashMap<Abstraction, u64> =
            results.iter().map(|(a, r)| (*a, r.critical_path)).collect();
        assert!(cp[&Abstraction::PsPdg] <= cp[&Abstraction::OpenMp]);
    }

    /// The profiled PS-PDG plan of `src` and its emulation.
    fn pspdg_plan(src: &str) -> (ParallelProgram, ProgramPlan, EmulationResult) {
        let p = compile(src).unwrap();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut pspdg_ir::interp::NullSink).unwrap();
        let plan = build_plan(&p, interp.profile(), Abstraction::PsPdg, 0.01);
        let r = emulate(&p, &plan).unwrap();
        (p, plan, r)
    }

    fn is_helix(spec: &LoopPlanSpec) -> bool {
        matches!(spec.technique, PlannedTechnique::Helix { .. })
    }

    /// A HELIX loop with no planned loop inside it: the `s` recurrence is
    /// its sequential segment, one instance chain per iteration, and
    /// `v[i]` runs beside it.
    #[test]
    fn a_helix_loop_orders_its_segment_per_iteration() {
        let (_, plan, r) = pspdg_plan(
            r#"
            int v[256]; int s;
            void k() { int i; for (i = 0; i < 256; i++) { v[i] = v[i] * 3 + i; s = s * 7 + v[i]; } }
            int main() { k(); return s % 251; }
            "#,
        );
        assert_eq!(plan.loops.len(), 1);
        assert!(plan.loops.values().all(is_helix));
        assert_eq!((r.critical_path, r.total_steps), (1821, 6159));
    }

    /// LU's wavefront: a HELIX plane loop around a planned DOALL line loop
    /// whose body is the segment. Each line waits only for the same
    /// segment of the previous plane, not for the line before it, so
    /// planning the outer loop never predicts worse than leaving it out.
    #[test]
    fn a_helix_segment_waits_once_per_iteration_around_a_doall_loop() {
        let (p, mut plan, r) = pspdg_plan(
            r#"
            double v[256];
            void k() {
                int p; int j;
                for (p = 1; p < 16; p++) {
                    #pragma omp parallel for
                    for (j = 0; j < 16; j++) { v[p * 16 + j] = v[(p - 1) * 16 + j] * 0.8 + 1.0; }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let mut helix = plan.loops.iter().filter(|(_, s)| is_helix(s));
        let (&outer, _) = helix.next().expect("the plane loop is HELIX");
        assert!(helix.next().is_none());
        assert_eq!(plan.loops.len(), 2);
        plan.loops.remove(&outer);
        let without = emulate(&p, &plan).unwrap();
        // Were each segment instance to wait for the one before it, the
        // lines of every plane would chain one after another: 1001.
        assert_eq!((r.critical_path, r.total_steps), (101, 5759));
        assert_eq!(without.critical_path, 524);
    }
}
