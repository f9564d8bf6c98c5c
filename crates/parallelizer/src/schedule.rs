//! Executable plan realization: lowering a [`ProgramPlan`] into the
//! [`LoopSchedule`]s the `pspdg-runtime` parallel executor runs.
//!
//! Every planned loop gets something *executable*:
//!
//! * **DOALL** loops with a canonical induction structure become
//!   [`LoopExec::Chunked`] — iteration ranges split across workers, with
//!   per-worker forked heaps and the plan's reduction and accumulator
//!   bases merged by their operator;
//! * **HELIX** plans become [`LoopExec::Sequential`]: the paper counts
//!   and emulates them (`enumerate`, `pspdg-emulator`) and never executes
//!   one, and the stage-pipeline executor this repo once had for
//!   pipelined loops ran on one kernel of the suite and lost there;
//! * everything else falls back to [`LoopExec::Sequential`] too, each
//!   with a recorded reason, so reports can say *why* a loop did not
//!   speed up.
//!
//! Lowering runs no dependence query: what a loop merges is the plan's
//! discharge record ([`LoopPlanSpec::discharged`]), which the emulator
//! reads too. A loop failing one of the runtime's capability checks
//! degrades to sequential with the reason. The structural analyses it
//! reads come from the module build the plan was enumerated from
//! ([`realize_executable_recorded`]); [`realize_executable`], which takes
//! only the program and the plan, computes them for the plan's functions.

use std::collections::{BTreeMap, BTreeSet};

use pspdg_core::FunctionPsPdg;
use pspdg_ir::{BlockId, CmpOp, FuncId, Inst, InstId, Intrinsic, LoopId, Value};
use pspdg_parallel::{DirectiveKind, ParallelProgram, ReductionOp};
use pspdg_pdg::{FunctionAnalyses, MemBase};

use crate::plan::{Discharge, LoopPlanSpec, PlannedTechnique, ProgramPlan};

/// A DOALL loop lowered to chunked execution.
#[derive(Debug, Clone)]
pub struct ChunkedLoop {
    /// The induction variable's stack slot.
    pub iv_alloca: InstId,
    /// Constant per-iteration increment.
    pub step: i64,
    /// Continue-predicate `iv <cmp_op> bound`.
    pub cmp_op: CmpOp,
    /// Loop-invariant bound value.
    pub bound: Value,
    /// Whether `bound` is an instruction inside the loop — by canonicality
    /// a load of a slot the loop never stores to — so it has no value yet
    /// when the runtime evaluates the bound at the header.
    pub bound_in_loop: bool,
    /// First in-loop block executed when the predicate holds.
    pub body_entry: BlockId,
    /// Reduction and accumulator bases with their merge operators: worker
    /// copies start at the operator identity and partial results merge in
    /// chunk order.
    pub reductions: Vec<(MemBase, ReductionOp)>,
    /// Surviving critical/atomic regions, each lowered for commit-time
    /// replay (see [`CriticalReplay`]): workers execute the region's
    /// protected-independent slice and log one operand packet per region
    /// entry; the master runs the region's own replay-slice instructions
    /// and branches once per packet — in chunk = iteration order, against
    /// the true heap — so protected cells finish **bit-identical** to the
    /// sequential interpreter even for guarded (`if (v > best)`) updates.
    pub criticals: Vec<CriticalReplay>,
    /// Bases stored to inside the critical/atomic regions (within the
    /// loop). Workers never touch them (protected loads and stores are
    /// only ever executed by the master's replay); their sole committed
    /// mutations are the replayed packets.
    pub protected: Vec<MemBase>,
}

/// One surviving critical/atomic region (nested or overlapping directive
/// regions merged into a single unit), proven *deferrable* and lowered for
/// split execution:
///
/// * the **worker**, when control reaches `entry`, executes
///   `worker_insts` — the region's protected-*independent* instructions
///   (unprotected loads, address arithmetic, plain compute) — in region
///   order with guards suppressed (conditional blocks run speculatively;
///   a fault aborts the parallel attempt), reads `operands` into a
///   packet, logs it, and resumes at `exit` **without executing a single
///   protected load or store**;
/// * the **master**, at commit, once per packet in chunk = sequential
///   iteration order, writes the packet into its registers and walks the
///   region from `entry` to `exit` executing each entered block's
///   `replay` instructions: protected loads read the true heap and the
///   region's own branches decide on the true values — so the protected
///   cells finish bit-identical to the sequential interpreter.
///
/// This is the runtime realization of the PS-PDG's first-class (orderless,
/// mutually exclusive) atomic-update semantics, generalizing the earlier
/// single-op read-modify-write deferral to guarded min/max, multi-cell
/// argmin/argmax, and chained updates in one region.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalReplay {
    /// Region entry block (the worker's detour trigger).
    pub entry: BlockId,
    /// Where worker control resumes: the region's unique successor block
    /// outside it.
    pub exit: BlockId,
    /// Protected-independent region instructions the worker executes, in
    /// region order, before logging the packet.
    pub worker_insts: Vec<InstId>,
    /// The registers the master's replay reads but does not define: the
    /// worker logs their fork-local values as the operand packet.
    pub operands: Vec<InstId>,
    /// Per region block, in block order: its replay-slice instructions
    /// (protected loads, everything data-dependent on them, every store)
    /// followed by its terminator.
    pub replay: Vec<(BlockId, Vec<InstId>)>,
}

/// How the runtime executes one planned loop.
#[derive(Debug, Clone)]
pub enum LoopExec {
    /// Iteration ranges split across workers (DOALL).
    Chunked(ChunkedLoop),
    /// Sequential fallback, with the reason the loop could not be lowered.
    Sequential {
        /// Why the loop executes sequentially.
        reason: String,
    },
}

impl LoopExec {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            LoopExec::Chunked(_) => "chunked",
            LoopExec::Sequential { .. } => "sequential",
        }
    }
}

/// One planned loop, lowered for execution.
#[derive(Debug, Clone)]
pub struct LoopSchedule {
    /// Enclosing function.
    pub func: FuncId,
    /// The loop.
    pub loop_id: LoopId,
    /// Header block (the runtime's trigger point).
    pub header: BlockId,
    /// All loop blocks, sorted.
    pub blocks: Vec<BlockId>,
    /// Static instruction count of the loop body (all loop blocks) — the
    /// size term of the runtime's activation cost model: an activation
    /// whose `trip × body_insts` falls below the runtime's threshold
    /// skips parallel setup entirely.
    pub body_insts: u32,
    /// The executable lowering.
    pub exec: LoopExec,
}

impl LoopSchedule {
    /// Whether `bb` belongs to the loop.
    pub fn contains(&self, bb: BlockId) -> bool {
        self.blocks.binary_search(&bb).is_ok()
    }
}

/// Realization counts (reporting; the runtime records these per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealizationStats {
    /// Loops lowered to chunked DOALL execution.
    pub chunked: usize,
    /// Always 0: nothing writes it. Read only by `benchmark/src/trace.rs`
    /// (the `parallelizer.loops_pipelined` metric), which this crate's PRs
    /// may not edit; the next `benchmark` PR deletes the metric and this
    /// field.
    pub pipeline: usize,
    /// Loops falling back to sequential execution.
    pub sequential: usize,
}

/// A [`ProgramPlan`] lowered to executable loop schedules, found by the
/// loop header the runtime triggers on. Header dispatch is a table
/// lookup: the runtime asks about every block its master enters, so the
/// answer is two index loads, never a hash.
#[derive(Debug, Clone, Default)]
pub struct ExecutablePlan {
    /// Ordered by `(func, header)`.
    schedules: Vec<LoopSchedule>,
    /// `header_index[func][block]` is the position in `schedules` of the
    /// loop headed at `block`; `u32::MAX`, which is no position, for any
    /// other block. Rows stop at the last function that has a schedule,
    /// and each row at its last header.
    header_index: Vec<Vec<u32>>,
}

impl ExecutablePlan {
    /// Index `schedules` (in any order) for header dispatch.
    fn new(mut schedules: Vec<LoopSchedule>) -> ExecutablePlan {
        schedules.sort_by_key(|s| (s.func, s.header));
        let mut header_index: Vec<Vec<u32>> = Vec::new();
        for (k, s) in schedules.iter().enumerate() {
            // In sorted order both resizes only ever grow.
            header_index.resize(s.func.index() + 1, Vec::new());
            let row = &mut header_index[s.func.index()];
            row.resize(s.header.index() + 1, u32::MAX);
            row[s.header.index()] = k as u32;
        }
        ExecutablePlan {
            schedules,
            header_index,
        }
    }

    /// The schedule triggered at a header of `func`, if the block heads a
    /// planned loop (`None` for ids the program does not have). The row is
    /// found once, so a caller asking about every block it enters pays one
    /// index load per block.
    pub fn headers_in<'a>(
        &'a self,
        func: FuncId,
    ) -> impl Fn(BlockId) -> Option<&'a LoopSchedule> + 'a {
        let row = self.header_index.get(func.index());
        let row = row.map_or(&[][..], Vec::as_slice);
        move |header| self.schedules.get(*row.get(header.index())? as usize)
    }

    /// All schedules, ordered by (function, header).
    pub fn schedules(&self) -> &[LoopSchedule] {
        &self.schedules
    }

    /// Count lowerings by kind.
    pub fn stats(&self) -> RealizationStats {
        let mut out = RealizationStats::default();
        for s in &self.schedules {
            match s.exec {
                LoopExec::Chunked(_) => out.chunked += 1,
                LoopExec::Sequential { .. } => out.sequential += 1,
            }
        }
        out
    }
}

/// Lower every loop of `plan` into an executable schedule, computing the
/// structural analyses of each function the plan names.
pub fn realize_executable(program: &ParallelProgram, plan: &ProgramPlan) -> ExecutablePlan {
    let funcs: BTreeSet<FuncId> = plan.loops.values().map(|s| s.func).collect();
    let analyses: BTreeMap<FuncId, FunctionAnalyses> = funcs
        .into_iter()
        .map(|f| (f, FunctionAnalyses::compute(&program.module, f)))
        .collect();
    lower_plan(program, plan, |f| &analyses[&f], None)
}

/// [`realize_executable`] over the analyses in `built` (the module build
/// the plan was enumerated from), so lowering computes none, with
/// optional pipeline tracing: one `plan/schedule` span covers the whole
/// lowering pass, and each loop's lowering gets a `plan/schedule_loop`
/// span tagged with its function and the execution strategy it lowered
/// to.
///
/// # Panics
///
/// If `plan` names a function `built` has no entry for.
pub fn realize_executable_recorded(
    program: &ParallelProgram,
    built: &[FunctionPsPdg],
    plan: &ProgramPlan,
    rec: Option<&pspdg_obs::Recorder>,
) -> ExecutablePlan {
    // `build_pspdg_module` yields functions in module order.
    let analyses_of = |f| match built.binary_search_by_key(&f, |b| b.func) {
        Ok(k) => &built[k].analyses,
        Err(_) => panic!("the plan names {f}, which the module build skipped"),
    };
    lower_plan(program, plan, analyses_of, rec)
}

/// The one lowering pass: every loop of `plan`, grouped per function,
/// against that function's analyses.
fn lower_plan<'a>(
    program: &ParallelProgram,
    plan: &ProgramPlan,
    analyses_of: impl Fn(FuncId) -> &'a FunctionAnalyses,
    rec: Option<&pspdg_obs::Recorder>,
) -> ExecutablePlan {
    let _all = rec.map(|r| r.span("plan/schedule"));
    let mut schedules = Vec::with_capacity(plan.loops.len());
    let mut by_func: BTreeMap<FuncId, Vec<&LoopPlanSpec>> = BTreeMap::new();
    for spec in plan.loops.values() {
        by_func.entry(spec.func).or_default().push(spec);
    }
    for (func, specs) in by_func {
        let cx = FuncRealizer::new(program, plan, func, analyses_of(func));
        for spec in specs {
            let _s = rec.map(|r| r.span("plan/schedule_loop"));
            schedules.push(cx.lower(spec));
        }
    }
    ExecutablePlan::new(schedules)
}

/// Why every HELIX-planned loop lowers [`LoopExec::Sequential`].
/// `plan_identity`'s lowering digest hashes this text, so rewording it
/// moves every pinned row with a HELIX loop.
const PLANNED_NOT_EXECUTED: &str = "HELIX plans are enumerated and emulated, not executed";

/// Per-function realization context.
struct FuncRealizer<'a> {
    program: &'a ParallelProgram,
    func: FuncId,
    analyses: &'a FunctionAnalyses,
    /// Block of each instruction.
    owner: Vec<Option<BlockId>>,
    /// Instructions covered by a surviving mutual-exclusion group.
    mutex_insts: BTreeSet<InstId>,
    /// Per loop: a register defined inside it is used outside it.
    reg_live_out: Vec<bool>,
}

impl<'a> FuncRealizer<'a> {
    fn new(
        program: &'a ParallelProgram,
        plan: &ProgramPlan,
        func: FuncId,
        analyses: &'a FunctionAnalyses,
    ) -> FuncRealizer<'a> {
        let f = program.module.function(func);
        let owner = f.inst_blocks();
        let mutex_insts = plan
            .mutexes
            .iter()
            .filter(|m| m.func == func)
            .flat_map(|m| m.insts.iter().copied())
            .collect();
        // One pass over uses: a use outside the defining block's loop nest
        // marks every loop of that nest the use is outside of. Walking
        // innermost-out, the first loop holding the use ends the walk (its
        // ancestors hold it too).
        let forest = &analyses.forest;
        let mut reg_live_out = vec![false; forest.len()];
        for i in f.inst_ids() {
            let Some(use_bb) = owner[i.index()] else {
                continue;
            };
            for op in f.inst(i).inst.operands() {
                let Some(def_bb) = op.as_inst().and_then(|d| owner[d.index()]) else {
                    continue;
                };
                let mut cur = forest.innermost(def_bb);
                while let Some(l) = cur.filter(|l| !forest.info(*l).contains(use_bb)) {
                    reg_live_out[l.index()] = true;
                    cur = forest.info(l).parent;
                }
            }
        }
        FuncRealizer {
            program,
            func,
            analyses,
            owner,
            mutex_insts,
            reg_live_out,
        }
    }

    fn lower(&self, spec: &LoopPlanSpec) -> LoopSchedule {
        let l = spec.loop_id;
        let info = self.analyses.forest.info(l);
        let f = self.program.module.function(self.func);
        let body_insts: u32 = info
            .blocks
            .iter()
            .map(|bb| f.block(*bb).insts.len() as u32)
            .sum();
        let mk = |exec: LoopExec| LoopSchedule {
            func: self.func,
            loop_id: l,
            header: info.header,
            blocks: info.blocks.clone(),
            body_insts,
            exec,
        };
        let seq = |reason: &str| {
            mk(LoopExec::Sequential {
                reason: reason.to_string(),
            })
        };

        match spec.technique {
            PlannedTechnique::Doall => {}
            // Chunked fork/commit is the runtime's one parallel strategy.
            PlannedTechnique::Helix { .. } => return seq(PLANNED_NOT_EXECUTED),
        }
        // Register live-outs: the master resumes at the exit block without
        // the workers' register files, so loop-defined registers must die
        // inside the loop. (Front-end output always passes loop results
        // through memory; this guards hand-built IR.)
        if self.reg_live_out[l.index()] {
            return seq("loop-defined register used after the loop");
        }
        let Some(canon) = self.analyses.canonical_of(l) else {
            return seq("DOALL loop is not canonical");
        };
        let loop_insts: BTreeSet<InstId> = self.analyses.loop_insts(l).into_iter().collect();
        // Surviving mutual exclusion inside the body: executable when every
        // protected mutation is deferrable (logged by the workers, replayed
        // serially by the master at commit — see [`CriticalReplay`]);
        // anything the deferral analysis rejects serializes.
        let has_mutex = loop_insts.iter().any(|i| self.mutex_insts.contains(i));
        let (criticals, protected) = if has_mutex {
            match self.deferred_criticals(&loop_insts, info) {
                Ok(pair) => pair,
                Err(reason) => return seq(reason),
            }
        } else {
            (Vec::new(), BTreeSet::new())
        };
        let iv_base = MemBase::Alloca(canon.iv_alloca);
        if protected.contains(&iv_base) {
            return seq("critical region protects the induction variable");
        }
        // The plan says what merges; a base a deferred critical protects
        // is replayed at commit instead.
        let mut reductions = Vec::new();
        for (base, how) in &spec.discharged {
            match *how {
                Discharge::Private => {}
                Discharge::Reduction(_) if protected.contains(base) => {
                    return seq("reduction base inside a critical region")
                }
                Discharge::Reduction(ReductionOp::Custom { .. }) => {
                    return seq("custom reduction merge function")
                }
                Discharge::Accumulator(_) if protected.contains(base) => {}
                Discharge::Reduction(op) | Discharge::Accumulator(op) => {
                    reductions.push((*base, op))
                }
            }
        }
        mk(LoopExec::Chunked(ChunkedLoop {
            iv_alloca: canon.iv_alloca,
            step: canon.step,
            cmp_op: canon.cmp_op,
            bound: canon.bound.0,
            bound_in_loop: canon
                .bound
                .0
                .as_inst()
                .and_then(|i| self.owner[i.index()])
                .is_some_and(|bb| info.contains(bb)),
            body_entry: canon.body_entry,
            reductions,
            criticals,
            protected: protected.into_iter().collect(),
        }))
    }

    /// Prove the loop's surviving critical/atomic regions *deferrable*, so
    /// a chunked DOALL activation can execute them without a lock, and
    /// lower each one to a [`CriticalReplay`]. The contract, checked here
    /// and relied on by the runtime:
    ///
    /// 1. every surviving-mutex instruction of the loop belongs to a
    ///    `critical`/`atomic` directive region entirely inside the loop;
    ///    nested/overlapping regions merge into one replay unit, so each
    ///    store is judged against its full (innermost-through-outermost)
    ///    protected scope;
    /// 2. regions contain no calls, allocations, returns, or `print_*`
    ///    intrinsics (their effects could not be deferred), and a region's
    ///    reachable control is acyclic with a single entry and a single
    ///    outside successor;
    /// 3. the *protected bases* — bases stored to inside a region — are
    ///    resolvable (no `Unknown`) and untouched by any loop instruction
    ///    outside the regions, so protected cells influence nothing a
    ///    worker computes;
    /// 4. each region partitions into a protected-independent *worker
    ///    slice* (executable speculatively on the fork) and a *replay
    ///    slice* (everything data-dependent on a protected load, plus all
    ///    stores); replay-slice values never escape their region, and no
    ///    protected value feeds an equality test (test-and-set protocols
    ///    stay serialized) or an unprotected load's address.
    ///
    /// Under 1–4 a worker logs one operand packet per region entry and the
    /// master replays the region's replay slice and branches per packet in
    /// chunk order = sequential iteration order, leaving protected cells
    /// bit-identical to the
    /// sequential interpreter — including guarded min/max, multi-cell
    /// argmin/argmax, and chained updates.
    fn deferred_criticals(
        &self,
        loop_insts: &BTreeSet<InstId>,
        info: &pspdg_ir::loops::LoopInfo,
    ) -> Result<(Vec<CriticalReplay>, BTreeSet<MemBase>), &'static str> {
        let f = self.program.module.function(self.func);
        let loop_mutex: BTreeSet<InstId> = loop_insts
            .iter()
            .copied()
            .filter(|i| self.mutex_insts.contains(i))
            .collect();
        // Collect the critical/atomic regions overlapping the surviving
        // mutex instructions. Unreachable stub blocks (the empty else of
        // an `if`) are dropped up front — they never execute, so they
        // count neither against containment nor into the replay unit.
        let mut raw: Vec<BTreeSet<BlockId>> = Vec::new();
        for (_, d) in self.program.directives_in(self.func) {
            if !matches!(
                d.kind,
                DirectiveKind::Critical { .. } | DirectiveKind::Atomic
            ) {
                continue;
            }
            let blocks: BTreeSet<BlockId> = d
                .region
                .blocks
                .iter()
                .copied()
                .filter(|bb| self.analyses.cfg.is_reachable(*bb))
                .collect();
            let overlaps = blocks
                .iter()
                .flat_map(|bb| f.block(*bb).insts.iter())
                .any(|i| loop_mutex.contains(i));
            if !overlaps {
                continue;
            }
            if blocks.iter().any(|bb| !info.contains(*bb)) {
                return Err("critical region extends beyond the loop");
            }
            raw.push(blocks);
        }
        // Merge overlapping/nested regions into disjoint groups: a store
        // inside nested criticals belongs to exactly one replay unit (its
        // innermost region dissolved into the full enclosing scope), so
        // validity — and any fallback cause — is judged against the right
        // region instead of whichever directive happened to come first.
        let mut groups: Vec<BTreeSet<BlockId>> = Vec::new();
        for r in raw {
            let mut merged = r;
            while let Some(pos) = groups.iter().position(|g| !g.is_disjoint(&merged)) {
                merged.extend(groups.swap_remove(pos));
            }
            groups.push(merged);
        }
        groups.sort_by_key(|g| g.first().copied());
        let region_insts: BTreeSet<InstId> = groups
            .iter()
            .flat_map(|g| g.iter())
            .flat_map(|bb| f.block(*bb).insts.iter().copied())
            .collect();
        if !loop_mutex.is_subset(&region_insts) {
            return Err("surviving mutex outside any critical/atomic region");
        }
        // Protected bases: everything stored to inside any region (across
        // groups, so sibling regions updating the same scalar chain share
        // one protected set).
        let mut protected: BTreeSet<MemBase> = BTreeSet::new();
        for &i in &region_insts {
            if let Inst::Store { ptr, .. } = &f.inst(i).inst {
                let base = pspdg_pdg::trace_base(f, *ptr);
                if matches!(base, MemBase::Unknown) {
                    return Err("critical store to an unresolvable base");
                }
                protected.insert(base);
            }
        }
        // Protected bases are untouched outside the regions: a protected
        // cell read (or written) by ordinary loop code would observe
        // fork-local instead of sequential values — the escaping-read
        // shape, which stays serialized.
        for &i in loop_insts {
            let base = match &f.inst(i).inst {
                Inst::Load { ptr, .. } | Inst::Store { ptr, .. } => pspdg_pdg::trace_base(f, *ptr),
                _ => continue,
            };
            if protected.contains(&base) && !region_insts.contains(&i) {
                return Err("protected base accessed outside the critical region");
            }
        }
        // Lower each group for commit-time replay.
        let mut replays = Vec::new();
        let mut slices: Vec<(BTreeSet<InstId>, BTreeSet<InstId>)> = Vec::new();
        for g in &groups {
            let (replay, group_insts, slice) = self.extract_replay(g, &protected)?;
            replays.push(replay);
            slices.push((group_insts, slice));
        }
        // Replay-slice values never escape their region: any outside user
        // would read a register the worker never computed (the slice is
        // replayed by the master, not executed on the fork).
        for i in f.inst_ids() {
            for v in f.inst(i).inst.operands() {
                let Value::Inst(d) = v else { continue };
                for (group_insts, slice) in &slices {
                    if slice.contains(&d) && !group_insts.contains(&i) {
                        return Err("critical protected value escapes its region");
                    }
                }
            }
        }
        Ok((replays, protected))
    }

    /// Lower one merged critical-region group to a [`CriticalReplay`]:
    /// validate its control shape and split its instructions into the
    /// worker slice and the per-block replay lists. Returns the lowering
    /// plus the group's instruction set and replay slice (for the caller's
    /// escape scan).
    fn extract_replay(
        &self,
        blocks: &BTreeSet<BlockId>,
        protected: &BTreeSet<MemBase>,
    ) -> Result<(CriticalReplay, BTreeSet<InstId>, BTreeSet<InstId>), &'static str> {
        let f = self.program.module.function(self.func);
        // Control shape: single entry, single outside successor, and all
        // in-region edges strictly forward (block-index order is then a
        // topological order of the region, which the classification pass
        // below and the worker's straight-line execution both rely on).
        let mut entry: Option<BlockId> = None;
        let mut exit: Option<BlockId> = None;
        for bb in f.block_ids() {
            if !self.analyses.cfg.is_reachable(bb) {
                continue;
            }
            let Some(&term) = f.block(bb).insts.last() else {
                continue;
            };
            let inside = blocks.contains(&bb);
            for succ in f.inst(term).inst.successors() {
                match (inside, blocks.contains(&succ)) {
                    (false, true) => {
                        if entry.replace(succ).is_some_and(|e| e != succ) {
                            return Err("critical region has multiple entries");
                        }
                    }
                    (true, true) => {
                        if succ.index() <= bb.index() {
                            return Err("cyclic control inside a critical region");
                        }
                    }
                    (true, false) => {
                        if exit.replace(succ).is_some_and(|e| e != succ) {
                            return Err("critical region has multiple exits");
                        }
                    }
                    (false, false) => {}
                }
            }
        }
        let entry = entry.ok_or("critical region is never entered")?;
        let exit = exit.ok_or("critical region has no exit")?;
        // Classify each region instruction (in region order): the replay
        // slice is every protected load, everything data-dependent on one,
        // and every store; each block's replay list ends in its terminator,
        // so the master's walk takes the region's real branches.
        let group_insts: BTreeSet<InstId> = blocks
            .iter()
            .flat_map(|bb| f.block(*bb).insts.iter().copied())
            .collect();
        let mut slice: BTreeSet<InstId> = BTreeSet::new();
        let mut worker_insts: Vec<InstId> = Vec::new();
        let mut operands: Vec<InstId> = Vec::new();
        let mut replay = Vec::with_capacity(blocks.len());
        for &b in blocks {
            let mut listed = Vec::new();
            for &i in &f.block(b).insts {
                let inst = &f.inst(i).inst;
                let replay_dep = inst
                    .operands()
                    .any(|v| v.as_inst().is_some_and(|d| slice.contains(&d)));
                let replayed = match inst {
                    Inst::Ret { .. } => return Err("return inside a critical region"),
                    Inst::Call { .. } => return Err("call inside a critical region"),
                    Inst::Alloca { .. } => return Err("allocation inside a critical region"),
                    Inst::IntrinsicCall {
                        intrinsic: Intrinsic::PrintI64 | Intrinsic::PrintF64,
                        ..
                    } => return Err("print inside a critical region"),
                    Inst::Br { .. } | Inst::CondBr { .. } | Inst::Store { .. } => true,
                    Inst::Load { ptr, .. }
                        if protected.contains(&pspdg_pdg::trace_base(f, *ptr)) =>
                    {
                        true
                    }
                    // Replaying it would read unprotected memory in its
                    // committed (not iteration-time) state.
                    Inst::Load { .. } if replay_dep => {
                        return Err("critical load address depends on a protected value")
                    }
                    // Test-and-set / once-only protocols signal through the
                    // equality; keep them serialized rather than replay an
                    // order-sensitive handshake.
                    Inst::Cmp {
                        op: CmpOp::Eq | CmpOp::Ne,
                        ..
                    } if replay_dep => {
                        return Err("critical equality test on a protected value (test-and-set)")
                    }
                    _ => replay_dep,
                };
                if !replayed {
                    worker_insts.push(i);
                    continue;
                }
                // A register the master does not define is read from the
                // packet: the worker's fork-local value.
                for d in inst.operands().filter_map(|v| v.as_inst()) {
                    if slice.contains(&d) || operands.contains(&d) {
                        continue;
                    }
                    if group_insts.contains(&d) && !worker_insts.contains(&d) {
                        return Err("critical value used before its definition");
                    }
                    operands.push(d);
                }
                if !inst.is_terminator() {
                    slice.insert(i);
                }
                listed.push(i);
            }
            replay.push((b, listed));
        }
        Ok((
            CriticalReplay {
                entry,
                exit,
                worker_insts,
                operands,
                replay,
            },
            group_insts,
            slice,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
    use crate::views::Abstraction;
    use pspdg_frontend::compile;
    use pspdg_ir::interp::{Interpreter, NullSink};
    use pspdg_ir::BinOp;

    fn plan_of(src: &str, a: Abstraction) -> (ParallelProgram, ProgramPlan) {
        let p = compile(src).unwrap();
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).unwrap();
        let plan = build_plan(&p, interp.profile(), a, 0.01);
        (p, plan)
    }

    #[test]
    fn independent_loop_lowers_to_chunked() {
        let (p, plan) = plan_of(
            r#"
            int v[128];
            void k() { int i; for (i = 0; i < 128; i++) { v[i] = i * 2; } }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        let exec = realize_executable(&p, &plan);
        assert_eq!(exec.schedules().len(), 1);
        let s = &exec.schedules()[0];
        assert!(matches!(s.exec, LoopExec::Chunked(_)), "{:?}", s.exec);
        assert_eq!(exec.stats().chunked, 1);
    }

    #[test]
    fn declared_reduction_resolves_operator() {
        let (p, plan) = plan_of(
            r#"
            double s; double v[128];
            void k() {
                int i;
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 128; i++) { s += v[i]; }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        let exec = realize_executable(&p, &plan);
        let s = &exec.schedules()[0];
        match &s.exec {
            LoopExec::Chunked(c) => {
                assert_eq!(c.reductions.len(), 1);
                assert_eq!(c.reductions[0].1, ReductionOp::Add);
            }
            other => panic!("expected chunked, got {other:?}"),
        }
    }

    #[test]
    fn refused_merges_keep_their_reason() {
        // A Cilk-reducer merge function the runtime cannot apply, and a
        // reduction base under a critical OpenMP keeps: merged and replayed.
        let custom = r#"
            double bag;
            double merge_bags(double a, double b) { return a + b; }
            void k() {
                int i;
                #pragma omp parallel for reduction(merge_bags: bag)
                for (i = 0; i < 8; i++) { bag += i; }
            }
            int main() { k(); return 0; }
        "#;
        let critical = r#"
            double s; double v[128];
            void k() {
                int i;
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 128; i++) {
                    #pragma omp critical
                    { s += v[i]; }
                }
            }
            int main() { k(); return 0; }
        "#;
        for (src, want) in [
            (custom, "custom reduction merge function"),
            (critical, "reduction base inside a critical region"),
        ] {
            let (p, plan) = plan_of(src, Abstraction::OpenMp);
            let exec = realize_executable(&p, &plan);
            assert_eq!(sequential_reason(&exec.schedules()[0]), want);
        }
    }

    /// The schedule's reason if it lowered sequential, or a panic.
    fn sequential_reason(s: &LoopSchedule) -> &str {
        match &s.exec {
            LoopExec::Sequential { reason } => reason,
            other => panic!("expected a sequential lowering, got {other:?}"),
        }
    }

    /// A hand-built plan giving each of `func`'s `loops` its technique,
    /// with nothing discharged.
    fn hand_built_plan(
        func: FuncId,
        loops: impl IntoIterator<Item = (LoopId, PlannedTechnique)>,
    ) -> ProgramPlan {
        let loops = loops.into_iter().map(|(loop_id, technique)| {
            let spec = LoopPlanSpec {
                func,
                loop_id,
                technique,
                discharged: BTreeMap::new(),
                end_barrier: true,
            };
            ((func, loop_id), spec)
        });
        ProgramPlan {
            abstraction: Abstraction::PsPdg,
            loops: loops.collect(),
            mutexes: vec![],
            parallel_spawns: false,
        }
    }

    #[test]
    fn recurrence_with_parallel_work_pipelines() {
        // t's recurrence is one sequential SCC; the w[i] store consumes it.
        // The *plan* is a pipeline (HELIX); the lowering runs it on the
        // master and says so.
        let (p, plan) = plan_of(
            r#"
            int t; int v[256]; int w[256];
            void k() {
                int i;
                for (i = 0; i < 256; i++) {
                    t = t + v[i];
                    w[i] = t * 2;
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        assert_eq!(plan.len(), 1);
        let exec = realize_executable(&p, &plan);
        let s = &exec.schedules()[0];
        let technique = &plan.loops[&(s.func, s.loop_id)].technique;
        assert!(matches!(technique, PlannedTechnique::Helix { .. }));
        assert_eq!(sequential_reason(s), PLANNED_NOT_EXECUTED);
        assert_eq!(exec.stats().sequential, 1);
    }

    #[test]
    fn call_in_loop_body_falls_back_to_sequential() {
        let (p, plan) = plan_of(
            r#"
            int t; int v[128];
            void touch() { v[0] = v[0] + 1; }
            void k() {
                int i;
                for (i = 0; i < 128; i++) { t = t + i; touch(); }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        let exec = realize_executable(&p, &plan);
        for s in exec.schedules() {
            assert!(
                matches!(s.exec, LoopExec::Sequential { .. }),
                "call-bearing loop must not parallelize: {:?}",
                s.exec
            );
        }
    }

    /// The chunked lowering of the only critical region, or a panic with
    /// the sequential reason.
    fn chunked_of(exec: &ExecutablePlan) -> ChunkedLoop {
        let s = &exec.schedules()[0];
        match &s.exec {
            LoopExec::Chunked(c) => c.clone(),
            other => panic!("expected a chunked lowering, got {other:?}"),
        }
    }

    /// The instructions of `k` the master replays for `cr`, in region
    /// order, terminators included.
    fn replayed<'p>(p: &'p ParallelProgram, cr: &CriticalReplay) -> Vec<&'p Inst> {
        let f = p.module.function(p.module.function_by_name("k").unwrap());
        let insts = cr.replay.iter().flat_map(|(_, insts)| insts);
        insts.map(|i| &f.inst(*i).inst).collect()
    }

    /// How many of `insts` match `pred`.
    fn count(insts: &[&Inst], pred: impl Fn(&Inst) -> bool) -> usize {
        insts.iter().filter(|i| pred(i)).count()
    }

    fn is_store(i: &Inst) -> bool {
        matches!(i, Inst::Store { .. })
    }

    #[test]
    fn surviving_atomic_rmw_defers_to_commit_replay() {
        let (p, plan) = plan_of(
            r#"
            int key[128]; int hist[16];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp atomic
                    hist[key[i]] += 1;
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        assert!(!plan.mutexes.is_empty(), "the atomic must survive");
        let exec = realize_executable(&p, &plan);
        let c = chunked_of(&exec);
        assert_eq!(c.criticals.len(), 1, "one replayed region");
        let r = replayed(&p, &c.criticals[0]);
        assert_eq!(count(&r, is_store), 1, "one replayed store: {r:?}");
        assert_eq!(
            count(&r, |i| matches!(i, Inst::Binary { op: BinOp::Add, .. })),
            1,
            "{r:?}"
        );
        assert_eq!(
            count(&r, |i| matches!(i, Inst::Load { .. })),
            1,
            "the feedback load reads the true heap: {r:?}"
        );
        assert_eq!(
            c.protected,
            vec![MemBase::Global(pspdg_ir::GlobalId(1))],
            "hist is the protected base"
        );
    }

    #[test]
    fn critical_fmax_update_defers_to_commit_replay() {
        // EP-style `best = fmax(best, e)`: a min/max intrinsic update is a
        // deferrable RMW — the loop must still chunk, with the intrinsic
        // replayed on the true value.
        let (p, plan) = plan_of(
            r#"
            double best; double v[128];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical
                    { best = fmax(best, v[i]); }
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        assert!(!plan.mutexes.is_empty(), "the critical must survive");
        let exec = realize_executable(&p, &plan);
        let c = chunked_of(&exec);
        assert_eq!(c.criticals.len(), 1, "one replayed min/max region");
        let r = replayed(&p, &c.criticals[0]);
        assert_eq!(count(&r, is_store), 1, "{r:?}");
        let fmax = |i: &Inst| {
            matches!(
                i,
                Inst::IntrinsicCall {
                    intrinsic: Intrinsic::Fmax,
                    ..
                }
            )
        };
        assert_eq!(count(&r, fmax), 1, "{r:?}");
        assert_eq!(c.protected, vec![MemBase::Global(pspdg_ir::GlobalId(0))]);
    }

    #[test]
    fn atomic_imin_with_swapped_operands_defers() {
        // min/max are commutative: the feedback load may be either
        // argument of the intrinsic.
        let (p, plan) = plan_of(
            r#"
            int lo; int v[128];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical
                    { lo = imin(v[i], lo); }
                }
            }
            int main() { lo = 1000; k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        let exec = realize_executable(&p, &plan);
        if plan.mutexes.is_empty() {
            return; // nothing survived to defer; other tests cover that
        }
        let c = chunked_of(&exec);
        assert_eq!(c.criticals.len(), 1);
        let r = replayed(&p, &c.criticals[0]);
        let imin = |i: &Inst| {
            matches!(
                i,
                Inst::IntrinsicCall {
                    intrinsic: Intrinsic::Imin,
                    ..
                }
            )
        };
        assert_eq!(count(&r, imin), 1, "{r:?}");
    }

    #[test]
    fn guarded_critical_minmax_chunks_via_replay_program() {
        // MG-style `if (v > best) { best = v; }` inside the critical: the
        // guard compares against a protected cell, so the worker suppresses
        // the whole protected slice and the master re-decides each instance
        // against the *true* heap — the loop chunks, with the guard's
        // compare and branch replayed.
        let (p, plan) = plan_of(
            r#"
            double best; double v[128];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical
                    { if (v[i] > best) { best = v[i]; } }
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        assert!(!plan.mutexes.is_empty(), "the critical must survive");
        let exec = realize_executable(&p, &plan);
        let c = chunked_of(&exec);
        assert_eq!(c.criticals.len(), 1);
        let cr = &c.criticals[0];
        let r = replayed(&p, cr);
        assert_eq!(count(&r, is_store), 1, "{r:?}");
        assert_eq!(
            count(&r, |i| matches!(i, Inst::Cmp { op: CmpOp::Gt, .. })),
            1,
            "the guard is re-decided on the true heap: {r:?}"
        );
        assert_eq!(
            count(&r, |i| matches!(i, Inst::CondBr { .. })),
            1,
            "the master takes the region's own branch: {r:?}"
        );
        assert!(
            !cr.worker_insts.is_empty(),
            "the fork-local v[i] slice feeds the packet"
        );
        assert_eq!(c.protected, vec![MemBase::Global(pspdg_ir::GlobalId(0))]);
    }

    #[test]
    fn guarded_argmax_multi_cell_chunks() {
        // The argmax sibling: `best` *and* `best_idx` update under one
        // guard — two replayed stores behind one replayed branch.
        let (p, plan) = plan_of(
            r#"
            double best; int best_idx; double v[128];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical
                    { if (v[i] > best) { best = v[i]; best_idx = i; } }
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        assert!(!plan.mutexes.is_empty(), "the critical must survive");
        let exec = realize_executable(&p, &plan);
        let c = chunked_of(&exec);
        assert_eq!(c.criticals.len(), 1);
        let r = replayed(&p, &c.criticals[0]);
        assert_eq!(count(&r, is_store), 2, "{r:?}");
        assert_eq!(
            count(&r, |i| matches!(i, Inst::CondBr { .. })),
            1,
            "both cells update under the same guard: {r:?}"
        );
        assert_eq!(
            c.protected,
            vec![
                MemBase::Global(pspdg_ir::GlobalId(0)),
                MemBase::Global(pspdg_ir::GlobalId(1))
            ]
        );
    }

    #[test]
    fn test_and_set_critical_serializes() {
        // `if (flag == 0) { flag = 1; }` is a test-and-set: the equality
        // guard signals an order-sensitive protocol, which stays
        // serialized (and must not be mistaken for a guarded min/max).
        let (p, plan) = plan_of(
            r#"
            int flag; int v[128];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    v[i] = i;
                    #pragma omp critical
                    { if (flag == 0) { flag = 1; } }
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        let exec = realize_executable(&p, &plan);
        let s = &exec.schedules()[0];
        if plan.mutexes.is_empty() {
            return;
        }
        match &s.exec {
            LoopExec::Sequential { reason } => {
                assert!(
                    reason.contains("test-and-set"),
                    "equality guards keep their own cause, got: {reason}"
                );
            }
            other => panic!("test-and-set critical must serialize: {other:?}"),
        }
    }

    #[test]
    fn nested_critical_regions_merge_into_one_replay() {
        // Nested criticals dissolve into one replay unit: the inner
        // region's chained update (`t` fed by the outer chain's `s`) is
        // judged against the full enclosing scope, not whichever directive
        // region happened to come first.
        let (p, plan) = plan_of(
            r#"
            int v[128]; int s; int t;
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical(outer)
                    {
                        s += v[i];
                        #pragma omp critical(inner)
                        { t = imax(t, s); }
                    }
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        if plan.mutexes.is_empty() {
            return;
        }
        let exec = realize_executable(&p, &plan);
        let c = chunked_of(&exec);
        assert_eq!(c.criticals.len(), 1, "nested regions merge into one");
        let r = replayed(&p, &c.criticals[0]);
        assert_eq!(count(&r, is_store), 2, "{r:?}");
        assert_eq!(c.protected.len(), 2, "{:?}", c.protected);
    }

    #[test]
    fn nested_test_and_set_reports_innermost_cause() {
        // Regression: the fallback cause of a store inside *nested*
        // regions must come from the store's own protected scope — the
        // inner equality-guarded store, not a first-match region scan.
        let (p, plan) = plan_of(
            r#"
            int v[128]; int s; int flag;
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical(outer)
                    {
                        s += v[i];
                        #pragma omp critical(inner)
                        { if (flag == 0) { flag = 1; } }
                    }
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        if plan.mutexes.is_empty() {
            return;
        }
        let exec = realize_executable(&p, &plan);
        let s = &exec.schedules()[0];
        match &s.exec {
            LoopExec::Sequential { reason } => {
                assert!(
                    reason.contains("test-and-set"),
                    "nested diagnosis must attribute the inner store, got: {reason}"
                );
            }
            other => panic!("nested test-and-set must serialize: {other:?}"),
        }
    }

    #[test]
    fn critical_with_escaping_read_falls_back_to_sequential() {
        // The protected cells are read by ordinary loop code outside the
        // region — the value escapes the replayed scope, so deferral must
        // refuse under the escaping-read cause.
        let (p, plan) = plan_of(
            r#"
            int key[128]; int hist[16]; int seen[128]; int w[128];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical
                    { seen[i] = hist[key[i]]; hist[key[i]] += 1; }
                    w[i] = seen[i] * 2;
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        let exec = realize_executable(&p, &plan);
        let s = &exec.schedules()[0];
        if !plan.mutexes.is_empty() {
            match &s.exec {
                LoopExec::Sequential { reason } => {
                    assert!(
                        reason.contains("outside the critical region"),
                        "escaping read keeps its cause: {reason}"
                    );
                }
                other => panic!("escaping protected read must serialize: {other:?}"),
            }
        }
    }

    #[test]
    fn chained_critical_updates_chunk() {
        // Two protected chains where one update's operand reads the other
        // chain's base: the second load is just another replayed load of
        // the true heap, so the whole region chunks.
        let (p, plan) = plan_of(
            r#"
            int v[128]; int s; int t;
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 128; i++) {
                    #pragma omp critical
                    { s += v[i]; t += s; }
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        if plan.mutexes.is_empty() {
            return;
        }
        let exec = realize_executable(&p, &plan);
        let c = chunked_of(&exec);
        assert_eq!(c.criticals.len(), 1);
        let r = replayed(&p, &c.criticals[0]);
        assert_eq!(count(&r, is_store), 2, "{r:?}");
        assert_eq!(
            count(&r, |i| matches!(i, Inst::Load { .. })),
            3,
            "every protected load (s twice, t once) replays against the \
             true heap: {r:?}"
        );
        assert_eq!(c.protected.len(), 2);
    }

    #[test]
    fn mutex_in_pipelined_loop_still_serializes() {
        // A recurrence keeps the loop off the DOALL path, the only one on
        // which a surviving atomic is ever executed in parallel.
        let (p, plan) = plan_of(
            r#"
            int t; int v[256]; int w[256]; int s;
            void k() {
                int i;
                for (i = 0; i < 256; i++) {
                    t = t + v[i];
                    w[i] = t * 2;
                    #pragma omp atomic
                    s += v[i];
                }
            }
            int main() { k(); return 0; }
            "#,
            Abstraction::PsPdg,
        );
        let exec = realize_executable(&p, &plan);
        assert!(!plan.is_empty());
        for s in exec.schedules() {
            assert_eq!(sequential_reason(s), PLANNED_NOT_EXECUTED);
        }
    }

    #[test]
    fn register_live_out_serializes_only_the_loops_it_leaves() {
        use pspdg_ir::{FunctionBuilder, Module, Type};
        // for (i..10) { for (j..4) {} use(jv) } return iv: the inner
        // header's load is used in the outer latch, the outer header's in
        // the exit block.
        let build = |ret_iv: bool| {
            let mut m = Module::new("m");
            let func = m.declare_function("main", vec![], Type::I64);
            let mut b = FunctionBuilder::new(m.function_mut(func));
            let [entry, h1, pre2, h2, body2, latch1, exit] =
                ["entry", "h1", "pre2", "h2", "body2", "latch1", "exit"]
                    .map(|name| b.create_block(name));
            b.switch_to_block(entry);
            let i = b.alloca(Type::I64, "i");
            let j = b.alloca(Type::I64, "j");
            b.store(i, Value::const_int(0));
            b.br(h1);
            b.switch_to_block(h1);
            let iv = b.load(i, Type::I64);
            let c = b.cmp(CmpOp::Lt, iv, Value::const_int(10));
            b.cond_br(c, pre2, exit);
            b.switch_to_block(pre2);
            b.store(j, Value::const_int(0));
            b.br(h2);
            b.switch_to_block(h2);
            let jv = b.load(j, Type::I64);
            let c = b.cmp(CmpOp::Lt, jv, Value::const_int(4));
            b.cond_br(c, body2, latch1);
            b.switch_to_block(body2);
            let next = b.binary(BinOp::Add, jv, Value::const_int(1));
            b.store(j, next);
            b.br(h2);
            b.switch_to_block(latch1);
            let next = b.binary(BinOp::Add, iv, jv);
            b.store(i, next);
            b.br(h1);
            b.switch_to_block(exit);
            b.ret(Some(if ret_iv { iv } else { Value::const_int(0) }));
            (ParallelProgram::new(m), func)
        };
        for ret_iv in [false, true] {
            let (p, func) = build(ret_iv);
            let analyses = FunctionAnalyses::compute(&p.module, func);
            let doall = |l| (l, PlannedTechnique::Doall);
            let plan = hand_built_plan(func, analyses.forest.loop_ids().map(doall));
            let exec = realize_executable(&p, &plan);
            let live_out: Vec<bool> = exec
                .schedules()
                .iter()
                .map(|s| {
                    matches!(&s.exec, LoopExec::Sequential { reason }
                        if reason == "loop-defined register used after the loop")
                })
                .collect();
            // Schedules come in header order: outer, then inner.
            assert_eq!(live_out, [ret_iv, true], "{:?}", exec.schedules());
        }
    }
}
