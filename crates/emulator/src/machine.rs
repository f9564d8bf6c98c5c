//! The ideal-machine trace scheduler.

use std::collections::HashMap;

use pspdg_ir::interp::{ExecError, Interpreter, ObjId, ObjOrigin, Step, TraceSink};
use pspdg_ir::{BlockId, Cfg, DomTree, FuncId, LoopForest, LoopId, Value};
use pspdg_parallel::{DirectiveKind, ParallelProgram};
use pspdg_parallelizer::{Discharge, LoopPlanSpec, PlannedTechnique, ProgramPlan};
use pspdg_pdg::MemBase;
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
    Ok(machine.result())
}

const NO_PLAN: u32 = u32::MAX;

// Per-instruction flags: an instruction with none set touches only the
// lane, dependence and writer state.
/// Inside a `cilk_spawn` region (a spawned call).
const SPAWN: u8 = 1;
/// Joins spawned children (`cilk_sync`, `taskwait`).
const SYNC: u8 = 1 << 1;
/// A team-wide barrier.
const BARRIER: u8 = 1 << 2;
/// Covered by a mutex ([`FuncInfo::lock_of`] names it).
const LOCKED: u8 = 1 << 3;
/// In the sequential segment of some HELIX-planned loop of the function.
const SEQUENTIAL: u8 = 1 << 4;

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
    dswp: bool,
    /// HELIX: the sequential segment, by instruction.
    sequential_insts: BitSet,
    /// DSWP: stage by instruction (stage 0 where the table ends).
    stage_of: Vec<u32>,
    /// Discharged static objects: a global by its index, a function's
    /// alloca by the function's `alloca_base` + its instruction.
    ignored: BitSet,
    reduce: bool,
    end_barrier: bool,
}

impl PlannedLoop {
    fn from_spec(spec: &LoopPlanSpec, alloca_base: &[usize]) -> PlannedLoop {
        let mut sequential_insts = BitSet::new();
        let mut stage_of = Vec::new();
        match &spec.technique {
            PlannedTechnique::Doall => {}
            PlannedTechnique::Helix {
                sequential_insts: seq,
            } => sequential_insts.extend(seq.iter().map(|i| i.index())),
            PlannedTechnique::Dswp { stage_of: of, .. } => {
                for (i, stage) in of {
                    *slot(&mut stage_of, i.index(), 0) = *stage;
                }
            }
        }
        let ignored = spec.discharged.keys().filter_map(|b| match b {
            MemBase::Global(g) => Some(g.index()),
            MemBase::Alloca(i) => Some(alloca_base[spec.func.index()] + i.index()),
            _ => None,
        });
        let reduction = |d: &Discharge| matches!(d, Discharge::Reduction(_));
        PlannedLoop {
            dswp: matches!(spec.technique, PlannedTechnique::Dswp { .. }),
            sequential_insts,
            stage_of,
            ignored: ignored.collect(),
            reduce: spec.discharged.values().any(reduction),
            end_barrier: spec.end_barrier,
        }
    }
}

/// Per-function static info the scheduler needs. The per-instruction
/// tables cover every instruction of the function.
///
/// A frame keeps one finish time per *register slot*: slot 0 stands for
/// every constant and global operand and always reads 0, slot `1 + i` is
/// instruction `i`'s latest execution in the frame, and the parameters
/// follow from [`FuncInfo::first_param`].
#[derive(Debug, Default)]
struct FuncInfo {
    /// Instruction `i`'s operands, as register slots in `Inst::operands()`
    /// order, are `op_slot[op_start[i]..op_start[i + 1]]`.
    op_start: Vec<u32>,
    op_slot: Vec<u32>,
    /// Slot of parameter 0.
    first_param: usize,
    /// Register slots of a frame.
    slots: usize,
    /// Loops containing each block, outermost-first.
    nest_of_block: Vec<Vec<LoopId>>,
    /// Header block of each loop.
    header: Vec<BlockId>,
    /// Planned loop index per loop ([`NO_PLAN`] = unplanned).
    plan_of_loop: Vec<u32>,
    /// `SPAWN | SYNC | BARRIER | LOCKED | SEQUENTIAL` per instruction.
    flags: Vec<u8>,
    /// Lock id per `LOCKED` instruction.
    lock_of: Vec<u32>,
    /// Blocks belonging to `cilk_spawn` regions.
    spawn_blocks: BitSet,
}

impl FuncInfo {
    /// Register slots `inst`'s operands read.
    fn operand_slots(&self, inst: usize) -> &[u32] {
        &self.op_slot[self.op_start[inst] as usize..self.op_start[inst + 1] as usize]
    }
}

/// One live loop activation of a frame.
#[derive(Debug, Clone)]
struct Activation {
    loop_id: LoopId,
    plan: u32, // index into plans, NO_PLAN = unplanned
    uid: u32,
    iter: u32,
    seq_last: u64,
    /// Latest finish among the frame's steps under this activation, as of
    /// the last push above it (see [`FrameState::run_max`]).
    max_finish: u64,
}

/// The first two planned non-DSWP activations a step runs under (uid + 1;
/// 0 = none), with their iterations: what a flow dependence is discharged
/// against.
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    act: [u32; 2],
    iter: [u32; 2],
}

#[derive(Debug, Default)]
struct FrameState {
    id: u64,
    /// The function, by index.
    func: usize,
    base_lane: u64,
    /// Where this frame's activations start in [`IdealMachine::acts`].
    act_base: usize,
    /// Where this frame's register slots start in [`IdealMachine::regs`].
    reg_base: usize,
    /// The caller's slot for the call that entered this frame (an index
    /// into [`IdealMachine::regs`]), which takes the `ret`'s finish.
    result_slot: Option<usize>,
    spawned: bool,
    children_max: u64,
    /// When this activation was entered through a call belonging to a HELIX
    /// sequential segment, the caller's activation (an index into
    /// [`IdealMachine::acts`]; the caller's stack is frozen while this
    /// frame is live) whose chain must extend to this callee's completion.
    seq_owner: Option<usize>,
    /// Whether the current block is in a `cilk_spawn` region.
    in_spawn: bool,
    /// Latest finish among this frame's steps since its innermost
    /// activation was pushed; folded into that activation when another is
    /// pushed above it or it is popped (which hands it to the one below).
    run_max: u64,
    // The rest is a function of the activation stack and the current
    // block, recomputed by `on_block` when either changes.
    /// Lane of the current block's steps: the spawn region's fresh lane,
    /// else the activation chain's.
    lane: u64,
    /// A DSWP activation is live (and no spawn lane overrides it), so the
    /// lane depends on each instruction's stage.
    lane_per_step: bool,
    context: Context,
    /// Plan of each `context` activation.
    context_plan: [u32; 2],
    /// More than two planned non-DSWP activations are live: nothing is
    /// discharged.
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

/// Finish times so far: the last per lane and the latest of all. The ideal
/// machine has unboundedly many lanes, so `last` stays a map, behind the
/// one lane the trace is currently in.
#[derive(Default)]
struct Lanes {
    last: HashMap<u64, u64>,
    cur: u64,
    cur_last: u64,
    max: u64,
}

impl Lanes {
    /// Last finish time in `lane` (0 for a lane nothing ran in yet).
    #[inline]
    fn last_mut(&mut self, lane: u64) -> &mut u64 {
        if lane != self.cur {
            self.last.insert(self.cur, self.cur_last);
            self.cur_last = self.last.get(&lane).copied().unwrap_or(0);
            self.cur = lane;
        }
        &mut self.cur_last
    }
}

/// The ideal machine: a [`TraceSink`] computing plan-constrained finish
/// times online.
///
/// Register dependences are static: an operand names its producing
/// instruction, and the instance it reads is that instruction's latest
/// execution in the same frame, so each frame keeps a finish time per
/// register slot ([`FuncInfo`]). Two producer conventions cross frames:
///
/// * the producer of a `call`'s *result* is the callee's `ret` step (not
///   the call step), so consumers of the result wait for the callee;
/// * a parameter reads the finish of the call's argument in the caller.
#[derive(Default)]
pub(crate) struct IdealMachine {
    plans: Vec<PlannedLoop>,
    funcs: Vec<FuncInfo>,
    /// Where each function's allocas start in the `ignored` sets.
    alloca_base: Vec<usize>,
    /// Live frames, innermost last: the interpreter's activations nest.
    frames: Vec<FrameState>,
    /// Live loop activations of all frames, innermost frame's last.
    acts: Vec<Activation>,
    /// Register finish times of all live frames, innermost frame's last.
    regs: Vec<u64>,
    /// Steps so far.
    steps: u64,
    lanes: Lanes,
    /// By lock id.
    lock_last: Vec<u64>,
    /// By `ObjId`.
    writers: Vec<ObjWriters>,
    floor: u64,
    next_act_uid: u32,
    next_spawn_lane: u64,
    /// Instruction (by index) of the most recent step and its flags —
    /// how `on_enter` identifies the call site (its lane is `lanes.cur`).
    last_inst: usize,
    last_flags: u8,
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// Lane of a frame's (planned) activation stack `acts` over `base_lane`;
/// `inst` selects the DSWP stage where applicable.
fn lane_of(plans: &[PlannedLoop], base_lane: u64, acts: &[Activation], inst: Option<usize>) -> u64 {
    let mut lane = base_lane;
    for act in acts {
        if act.plan == NO_PLAN {
            continue;
        }
        let p = &plans[act.plan as usize];
        let key = if p.dswp {
            inst.and_then(|i| p.stage_of.get(i).copied()).unwrap_or(0)
        } else {
            act.iter
        };
        lane = mix(lane, act.uid as u64, key as u64);
    }
    lane
}

/// Whether `inst` is in the sequential segment of `act`'s (HELIX) plan.
fn in_segment(plans: &[PlannedLoop], act: &Activation, inst: usize) -> bool {
    act.plan != NO_PLAN && plans[act.plan as usize].sequential_insts.contains(inst)
}

/// Pop `top`'s innermost activation; a planned loop's continuation (the
/// frame's lane without it) waits for all iterations (+ the reduction
/// merge).
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
    let mut sync_fin = 0u64;
    if p.end_barrier {
        sync_fin = sync_fin.max(max_finish);
    }
    if p.reduce {
        sync_fin = sync_fin.max(max_finish + ceil_log2(act.iter as u64 + 1));
    }
    if sync_fin > 0 {
        let cont = lane_of(plans, top.base_lane, &acts[top.act_base..], None);
        let last = lanes.last_mut(cont);
        *last = (*last).max(sync_fin);
        lanes.max = lanes.max.max(sync_fin);
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
        let alloca_base: Vec<usize> = module
            .functions
            .iter()
            .scan(module.globals.len(), |next, f| {
                let base = *next;
                *next += f.insts.len();
                Some(base)
            })
            .collect();
        let mut plans = Vec::new();
        let mut plan_idx: HashMap<(FuncId, LoopId), u32> = HashMap::new();
        for ((func, l), spec) in &plan.loops {
            plan_idx.insert((*func, *l), plans.len() as u32);
            plans.push(PlannedLoop::from_spec(spec, &alloca_base));
        }
        let mut lock_ids: HashMap<&str, u32> = HashMap::new();
        let mut funcs = Vec::new();
        for func in module.function_ids() {
            let f = module.function(func);
            if f.blocks.is_empty() {
                funcs.push(FuncInfo::default());
                continue;
            }
            let cfg = Cfg::new(f);
            let dom = DomTree::new(&cfg);
            let forest = LoopForest::new(f, &cfg, &dom);
            let nest_of_block = f
                .block_ids()
                .map(|bb| {
                    let mut nest = forest.nest_of(bb);
                    nest.reverse(); // outermost-first
                    nest
                })
                .collect();
            let header = forest.loop_ids().map(|l| forest.info(l).header).collect();
            let plan_of_loop: Vec<u32> = forest
                .loop_ids()
                .map(|l| plan_idx.get(&(func, l)).copied().unwrap_or(NO_PLAN))
                .collect();
            let first_param = 1 + f.insts.len();
            let mut op_start = Vec::with_capacity(f.insts.len() + 1);
            let mut op_slot = Vec::new();
            for data in &f.insts {
                op_start.push(op_slot.len() as u32);
                op_slot.extend(data.inst.operands().map(|v| match v {
                    Value::Inst(i) => 1 + i.index() as u32,
                    Value::Param(p) => (first_param + p) as u32,
                    Value::Const(_) | Value::Global(_) => 0,
                }));
            }
            op_start.push(op_slot.len() as u32);
            let mut flags = vec![0u8; f.insts.len()];
            let mut lock_of = vec![0u32; f.insts.len()];
            for m in plan.mutexes.iter().filter(|m| m.func == func) {
                let next = lock_ids.len() as u32;
                let id = *lock_ids.entry(m.lock.as_str()).or_insert(next);
                for &i in &m.insts {
                    flags[i.index()] |= LOCKED;
                    lock_of[i.index()] = id;
                }
            }
            for &p in plan_of_loop.iter().filter(|p| **p != NO_PLAN) {
                for i in &plans[p as usize].sequential_insts {
                    flags[i] |= SEQUENTIAL;
                }
            }
            let mut spawn_blocks = BitSet::new();
            for (_, d) in program.directives_in(func) {
                let flag = match d.kind {
                    DirectiveKind::CilkSpawn if plan.parallel_spawns => {
                        spawn_blocks.extend(d.region.blocks.iter().map(|bb| bb.index()));
                        SPAWN
                    }
                    DirectiveKind::CilkSync | DirectiveKind::Taskwait => SYNC,
                    DirectiveKind::Barrier
                        if plan.abstraction == pspdg_parallelizer::Abstraction::OpenMp =>
                    {
                        BARRIER
                    }
                    _ => continue,
                };
                for bb in &d.region.blocks {
                    for i in &f.block(*bb).insts {
                        flags[i.index()] |= flag;
                    }
                }
            }
            funcs.push(FuncInfo {
                op_start,
                op_slot,
                first_param,
                slots: first_param + f.params.len(),
                nest_of_block,
                header,
                plan_of_loop,
                flags,
                lock_of,
                spawn_blocks,
            });
        }
        IdealMachine {
            plans,
            funcs,
            alloca_base,
            lock_last: vec![0; lock_ids.len()],
            next_spawn_lane: 1,
            ..IdealMachine::default()
        }
    }

    /// The measurement after the run completes.
    pub(crate) fn result(&self) -> EmulationResult {
        EmulationResult {
            critical_path: self.lanes.max,
            total_steps: self.steps,
        }
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
        debug_assert_eq!(self.frames.is_empty(), call_step == u64::MAX);
        let callee = &self.funcs[func.index()];
        let reg_base = self.regs.len();
        self.regs.resize(reg_base + callee.slots, 0);
        let mut state = FrameState {
            id: frame,
            func: func.index(),
            act_base: self.acts.len(),
            reg_base,
            ..FrameState::default()
        };
        if let Some(caller) = self.frames.last() {
            // The call step is the most recent step, so the caller is the
            // innermost live frame and the step's lane is current.
            debug_assert_eq!(call_step + 1, self.steps);
            let args = self.funcs[caller.func].operand_slots(self.last_inst);
            for (p, &s) in args.iter().enumerate() {
                self.regs[reg_base + callee.first_param + p] =
                    self.regs[caller.reg_base + s as usize];
            }
            state.result_slot = Some(caller.reg_base + 1 + self.last_inst);
            state.base_lane = self.lanes.cur;
            // A spawned call already executes in its strand's lane (the
            // spawn region's lane); the callee simply inherits it.
            state.spawned = self.last_flags & SPAWN != 0;
            // A call inside a HELIX sequential segment keeps the segment
            // locked until the callee returns.
            state.seq_owner = (caller.act_base..self.acts.len())
                .find(|i| in_segment(&self.plans, &self.acts[*i], self.last_inst));
        }
        state.lane = state.base_lane;
        self.frames.push(state);
    }

    fn on_exit(&mut self, frame: u64, _func: FuncId, ret_step: u64) {
        let mut state = self.frames.pop().expect("a frame is live");
        debug_assert_eq!(state.id, frame);
        // The `ret` is the most recent step: its finish is the call's.
        debug_assert_eq!(ret_step + 1, self.steps);
        let fin = self.regs[state.reg_base + 1 + self.last_inst];
        self.regs.truncate(state.reg_base);
        if let Some(slot) = state.result_slot {
            self.regs[slot] = fin;
        }
        while self.acts.len() > state.act_base {
            pop_activation(&self.plans, &mut self.acts, &mut state, &mut self.lanes);
        }
        if state.spawned {
            if let Some(parent) = self.frames.last_mut() {
                parent.children_max = parent.children_max.max(fin);
            }
        }
        if let Some(owner) = state.seq_owner {
            let act = &mut self.acts[owner];
            act.seq_last = act.seq_last.max(fin);
        }
    }

    fn on_block(&mut self, frame: u64, func: FuncId, block: BlockId) {
        let info = &self.funcs[func.index()];
        let nest = &info.nest_of_block[block.index()];
        let top = self.frames.last_mut().expect("a frame is live");
        debug_assert_eq!(top.id, frame);
        let base = top.act_base;
        // Spawn strands: entering a spawn-region block opens a fresh lane;
        // leaving it returns to the frame's own lane.
        let in_spawn = info.spawn_blocks.contains(block.index());
        let mut changed = in_spawn || top.in_spawn;
        top.in_spawn = in_spawn;
        let spawn_lane = in_spawn.then(|| {
            self.next_spawn_lane += 1;
            mix(top.base_lane, 0xC11C, self.next_spawn_lane)
        });
        // Pop activations that ended.
        while self.acts.len() > base && !nest.contains(&self.acts[self.acts.len() - 1].loop_id) {
            pop_activation(&self.plans, &mut self.acts, top, &mut self.lanes);
            changed = true;
        }
        // Loops nest, so what is left is a prefix of `nest`: push the newly
        // entered loops (outermost-first), or bump the iteration.
        let live = self.acts.len() - base;
        debug_assert!(self.acts[base..]
            .iter()
            .map(|a| a.loop_id)
            .eq(nest[..live].iter().copied()));
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
                    max_finish: 0,
                });
                self.next_act_uid += 1;
            }
            changed = true;
        } else if let Some(innermost) = self.acts[base..].last_mut() {
            if info.header[innermost.loop_id.index()] == block {
                innermost.iter += 1;
                changed = true;
            }
        }
        if !changed {
            return;
        }
        let acts = &self.acts[base..];
        top.lane = spawn_lane.unwrap_or_else(|| lane_of(&self.plans, top.base_lane, acts, None));
        top.lane_per_step = false;
        top.context = Context::default();
        top.overflow = false;
        let mut n = 0;
        for act in acts.iter().filter(|a| a.plan != NO_PLAN) {
            if self.plans[act.plan as usize].dswp {
                top.lane_per_step = spawn_lane.is_none();
            } else if n < 2 {
                top.context.act[n] = act.uid + 1;
                top.context.iter[n] = act.iter;
                top.context_plan[n] = act.plan;
                n += 1;
            } else {
                top.overflow = true;
            }
        }
    }

    fn on_step(&mut self, step: &Step<'_>) {
        debug_assert_eq!(step.index, self.steps);
        let inst = step.inst.index();
        let top = self.frames.last_mut().expect("a frame is live");
        debug_assert_eq!(top.id, step.frame);
        let info = &self.funcs[step.func.index()];
        let flags = info.flags[inst];
        debug_assert!(!top.in_spawn || flags & SPAWN != 0);

        let lane = if top.lane_per_step {
            let acts = &self.acts[top.act_base..];
            lane_of(&self.plans, top.base_lane, acts, Some(inst))
        } else {
            top.lane
        };
        let mut start = self.floor.max(*self.lanes.last_mut(lane));

        // Register dependences.
        let regs = &mut self.regs[top.reg_base..];
        for &s in info.operand_slots(inst) {
            start = start.max(regs[s as usize]);
        }

        // Memory flow dependences (with plan discharges).
        for addr in step.loads {
            let obj = &self.writers[addr.obj.index()];
            if let Some(w) = obj.cells.get(addr.off as usize) {
                if w.fin > start && !discharged(&self.plans, top, &w.context, obj.stat) {
                    start = w.fin;
                }
            }
        }

        // The HELIX activation whose sequential segment this step extends.
        let mut helix_act: Option<usize> = None;
        if flags != 0 {
            // Mutual exclusion.
            if flags & LOCKED != 0 {
                start = start.max(self.lock_last[info.lock_of[inst] as usize]);
            }
            // HELIX sequential segments.
            if flags & SEQUENTIAL != 0 {
                for (i, act) in self.acts.iter().enumerate().skip(top.act_base) {
                    if in_segment(&self.plans, act, inst) {
                        start = start.max(act.seq_last);
                        helix_act = Some(i);
                    }
                }
            }
            // Sync markers.
            if flags & SYNC != 0 {
                start = start.max(top.children_max);
            }
            if flags & BARRIER != 0 {
                self.floor = self.floor.max(self.lanes.max);
                start = start.max(self.floor);
            }
        }

        let fin = start + 1;
        regs[1 + inst] = fin;
        self.steps += 1;
        self.lanes.cur_last = fin;
        self.lanes.max = self.lanes.max.max(fin);
        top.run_max = top.run_max.max(fin);
        if flags & LOCKED != 0 {
            self.lock_last[info.lock_of[inst] as usize] = fin;
        }
        if let Some(i) = helix_act {
            self.acts[i].seq_last = fin;
        }
        for addr in step.stores {
            let cells = &mut self.writers[addr.obj.index()].cells;
            *slot(cells, addr.off as usize, Writer::default()) = Writer {
                fin,
                context: top.context,
            };
        }
        (self.last_inst, self.last_flags) = (inst, flags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_ir::{Function, Inst, InstId, Value};
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
    fn dswp_pipelines_a_two_stage_loop() {
        // Stage 1 is everything that goes through `t` (`t = ..; w[i] = t +
        // 1`), stage 0 the rest (`v[i] * 3` and the loop control).
        let p = compile(
            r#"
            int v[128]; int w[128]; int t;
            void k() {
                int i;
                for (i = 0; i < 128; i++) {
                    t = v[i] * 3;
                    w[i] = t + 1;
                }
            }
            int main() { k(); return w[100]; }
            "#,
        )
        .unwrap();
        let t = Value::Global(p.module.global_ids().last().unwrap());
        let (plan, stage1) = dswp_over_consumers(&p, "k", |_, v| v == t);
        assert_eq!(stage1, 4, "two stores, the load of t and the add");
        let r = emulate(&p, &plan).unwrap();
        // Two pipelined stages: faster than sequential (all steps on one
        // lane), but only two lanes exist.
        assert!(
            r.critical_path < r.total_steps && r.critical_path > r.total_steps / 4,
            "pipeline {} over {} steps",
            r.critical_path,
            r.total_steps
        );
    }

    /// A DSWP plan for the first loop of `func`: stage 1 is every loop
    /// instruction that consumes a `seed` value, directly or through stage
    /// 1; stage 0 is the rest. Also returns the size of stage 1.
    fn dswp_over_consumers(
        p: &ParallelProgram,
        func: &str,
        seed: impl Fn(&Function, Value) -> bool,
    ) -> (ProgramPlan, usize) {
        use std::collections::BTreeMap;
        let fid = p.module.function_by_name(func).unwrap();
        let f = p.module.function(fid);
        let analyses = pspdg_pdg::FunctionAnalyses::compute(&p.module, fid);
        let l = analyses.forest.loop_ids().next().unwrap();
        let mut insts = analyses.loop_insts(l);
        insts.sort();
        let mut stage_of: BTreeMap<InstId, u32> = BTreeMap::new();
        for i in insts {
            let consumes =
                f.inst(i).inst.operands().any(|v| {
                    seed(f, v) || matches!(v, Value::Inst(d) if stage_of.get(&d) == Some(&1))
                });
            stage_of.insert(i, u32::from(consumes));
        }
        let stage1 = stage_of.values().filter(|s| **s == 1).count();
        let spec = LoopPlanSpec {
            func: fid,
            loop_id: l,
            technique: PlannedTechnique::Dswp {
                stage_of,
                stages: 2,
            },
            discharged: BTreeMap::new(),
            end_barrier: true,
        };
        let plan = ProgramPlan {
            abstraction: Abstraction::PsPdg,
            loops: HashMap::from([((fid, l), spec)]),
            mutexes: vec![],
            parallel_spawns: false,
        };
        (plan, stage1)
    }

    #[test]
    fn a_call_result_is_produced_by_the_callee_ret() {
        // The call (and so `f`'s body, which runs in the call's lane) in
        // stage 0, everything consuming its result in stage 1. The last
        // iteration's stage-1 chain outlasts stage 0's latch, so the loop
        // ends when that chain does: it must start at `f`'s `ret` (with the
        // call step as the producer the path would be 1327).
        let p = compile(
            r#"
            int v[16]; int w[16];
            int f(int x) {
                int j; int r;
                r = x;
                for (j = 0; j < 4; j++) { r = r * 3 + j; }
                return r;
            }
            void k() {
                int i;
                for (i = 0; i < 16; i++) {
                    w[i] = (((((f(v[i]) * 5 + 1) * 7 + 2) * 11 + 3) * 13 + 4) * 17 + 5);
                }
            }
            int main() { k(); return w[3]; }
            "#,
        )
        .unwrap();
        let (plan, stage1) = dswp_over_consumers(
            &p,
            "k",
            |f, v| matches!(v, Value::Inst(d) if matches!(f.inst(d).inst, Inst::Call { .. })),
        );
        assert_eq!(stage1, 11, "ten arithmetic steps and the store");
        let r = emulate(&p, &plan).unwrap();
        assert_eq!((r.critical_path, r.total_steps), (1330, 1503));
    }

    #[test]
    fn a_parameter_is_produced_by_the_argument() {
        // Stage 1 of `fill`'s loop is everything reached from the array
        // parameter `a`: it writes each cell before reading it, so its
        // lane, fresh at the call, is held back only by the producer of
        // the argument, `h`'s `alloca`, which runs after `main`'s
        // sequential loop. Stage 1 is the longer stage, so the loop ends a
        // whole stage-1 pipeline after that `alloca` (were `a` ready at
        // time 0, stage 0 would decide and the path would be 1116).
        let p = compile(
            r#"
            int v[64]; int out;
            void fill(int a[]) {
                int i;
                for (i = 0; i < 32; i++) {
                    a[0] = 3;
                    a[1] = a[0] * 5 + 2;
                    a[2] = a[1] * 7 + 3;
                    a[3] = a[2] * 11 + 4;
                }
            }
            void h() { int loc[4]; fill(loc); out = loc[3]; }
            int main() {
                int i;
                for (i = 0; i < 64; i++) { v[i] = i * 2; }
                h();
                return out;
            }
            "#,
        )
        .unwrap();
        let (plan, stage1) = dswp_over_consumers(&p, "fill", |_, v| matches!(v, Value::Param(0)));
        assert_eq!(
            stage1, 20,
            "seven geps, four stores, three loads, six arithmetic steps"
        );
        let r = emulate(&p, &plan).unwrap();
        assert_eq!((r.critical_path, r.total_steps), (1491, 1757));
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
}
