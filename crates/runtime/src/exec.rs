//! The plan-driven parallel execution engine.
//!
//! [`Runtime`] executes a [`ParallelProgram`] under a [`ProgramPlan`] on
//! real threads. The master thread interprets the program sequentially;
//! whenever control reaches the header of a scheduled loop it consults the
//! [`ExecutablePlan`] and either
//!
//! * **chunks** a DOALL loop — the iteration space splits into one range
//!   per worker, each chunk runs on its own *copy-on-write forked heap*
//!   that tracks written cells, and the master commits the forks' dirty
//!   sets back in chunk order (reduction bases start from the
//!   operator identity in each fork and merge with the declared
//!   operator; deferred critical updates replay serially — see below);
//! * **falls back** to sequential execution (HELIX plans, which are
//!   enumerated and emulated but never executed; non-canonical loops;
//!   trips too short — or too cheap, under the activation cost model — to
//!   split; or any safety condition the realization or the runtime itself
//!   could not discharge), recording *why* in [`FallbackCounts`].
//!
//! ## Execution substrate
//!
//! Three mechanisms keep per-activation overhead low enough for measured
//! speedups to track predicted parallelism:
//!
//! * **the master runs chunks too** — an activation's chunks are claimed
//!   from one cursor by the master and by the process-global pool's
//!   persistent threads ([`pspdg_pool::WorkerPool::help`]). No runtime
//!   spawns or owns a thread, the master never sleeps while a chunk waits
//!   for a pool thread to wake, and a pool busy elsewhere (another
//!   request, or the master itself being a pool worker) leaves the chunks
//!   to the master instead of deadlocking;
//! * **copy-on-write heap forks** — [`MemState::fork`] shares pages and
//!   tracks written cells, so forking is O(pages) and commit walks only
//!   the cells a worker actually wrote
//!   ([`MemState::for_each_dirty`]);
//! * an **activation cost model** — `trip × body_insts` below
//!   [`Runtime::cost_threshold`] skips parallel setup entirely.
//!
//! ## Safety argument (why chunked DOALL is sound)
//!
//! A loop is only scheduled `Chunked` when the plan proved (or the
//! programmer declared) that every cross-iteration dependence flows
//! through a *discharged* base: the induction variable (recomputed per
//! chunk), a privatized object (each fork has its own copy), a
//! reduction (merged associatively at commit), or a critical/atomic
//! region's protected base (mutated only through deferred
//! read-modify-writes the master replays serially — see below). All
//! remaining writes of distinct iterations target distinct cells, so
//! per-cell last-writer-wins commit in chunk order reproduces exactly the
//! sequential final memory; worker-local stack objects (callee frames)
//! are dropped at commit. Any run-time surprise — irregular control
//! leaving the loop, a fault inside a worker, a fault while replaying
//! criticals — discards every fork and re-runs the loop sequentially on
//! the master heap (a replay fault first restores it from the rollback
//! copy taken when the forks logged packets), so faulting programs
//! behave exactly as they do under the sequential interpreter. Parallel
//! floating-point reductions are deterministic (fixed chunk count,
//! chunk-order merge) but associate differently from the sequential loop,
//! like any real OpenMP reduction.
//!
//! ## Critical sections: commit-time replay of the region itself
//!
//! A surviving `critical`/`atomic` region no longer forces the whole loop
//! sequential. When the realization proves the region *deferrable*
//! ([`pspdg_parallelizer::CriticalReplay`]), a chunk worker reaching the
//! region executes only its protected-**independent** slice (unprotected
//! loads, address arithmetic, plain compute — speculatively, with guards
//! suppressed), logs one *operand packet* of fork-local register values,
//! and skips to the region's exit without touching a single protected
//! cell. At commit the master writes each packet into a replay frame and
//! runs the region's own replay-slice instructions and branches through
//! the same [`step`] every block goes through — protected loads read
//! the true heap, the region's branches decide on the true values — in
//! chunk order, which equals sequential iteration order, so the protected
//! cells finish **bit-identical** to the sequential interpreter (even for
//! floats: the replay preserves sequential association). This covers
//! plain read-modify-writes, min/max intrinsic updates, guarded
//! `if (v > best)` min/max, multi-cell argmin/argmax, and chained updates
//! in one region; equality-guarded test-and-set protocols and protected
//! reads escaping the region still serialize at realization time.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pspdg_ir::interp::{
    const_val, eval_cmp, step, ExecError, Flow, Frame, Machine, MemAddr, MemState, RtVal,
};
use pspdg_ir::loops::trip_count_from;
use pspdg_ir::{BlockId, FuncId, Function, Inst, InstId, Module, Value};
use pspdg_obs::Recorder;
use pspdg_parallel::{ParallelProgram, ReductionOp};
use pspdg_parallelizer::{
    realize_executable, ChunkedLoop, CriticalReplay, ExecutablePlan, LoopExec, LoopSchedule,
    ProgramPlan, RealizationStats,
};
use pspdg_pdg::MemBase;

/// Default [`Runtime::cost_threshold`]: activations whose estimated
/// dynamic size (`trip × body_insts`) falls below this skip parallel
/// setup. Roughly the break-even point where fork + dispatch + commit
/// overhead matches the interpreter's work on one chunk.
pub const DEFAULT_COST_THRESHOLD: u64 = 4096;

/// Why a loop activation executed sequentially instead of in parallel.
/// Each cause indexes one count of [`FallbackCounts`], and its
/// [`name`](FallbackWhy::name) is the one spelling of it: in
/// [`FallbackCounts::table`], in `BENCH_runtime.json` and as the
/// recorder counter an attached [`Recorder`] bumps per fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackWhy {
    /// The plan itself scheduled the loop sequential (realization-time
    /// reason recorded in the [`LoopSchedule`]).
    ScheduledSequential,
    /// Trip count under 2 (or fewer chunks than 2) — nothing to split.
    ShortTrip,
    /// The runtime has a single worker, so no activation can split.
    SingleWorker,
    /// The activation cost model predicted parallel setup would cost more
    /// than it saves (`trip × body_insts` under the threshold).
    BelowCostThreshold,
    /// The loop bound (or induction slot) could not be evaluated at the
    /// header, or a reduction/protected base had no live object.
    Unevaluable,
    /// A worker observed control leaving the loop irregularly.
    Irregular,
    /// A worker faulted; the sequential re-run reproduces the fault in
    /// sequential order.
    WorkerFault,
    /// A worker faulted while *speculatively* executing a critical
    /// region's protected-independent slice (suppressed guards run
    /// conditional code unconditionally, so a fault here may not exist
    /// sequentially); the sequential re-run decides.
    SpeculationFault,
    /// Replaying deferred critical packets faulted; the sequential re-run
    /// reproduces the fault in order.
    ReplayFault,
}

impl FallbackWhy {
    /// Every cause, in [`FallbackCounts::table`] order.
    pub const ALL: [FallbackWhy; 9] = [
        FallbackWhy::ScheduledSequential,
        FallbackWhy::ShortTrip,
        FallbackWhy::SingleWorker,
        FallbackWhy::BelowCostThreshold,
        FallbackWhy::Unevaluable,
        FallbackWhy::Irregular,
        FallbackWhy::WorkerFault,
        FallbackWhy::SpeculationFault,
        FallbackWhy::ReplayFault,
    ];

    /// The cause's name.
    pub fn name(self) -> &'static str {
        match self {
            FallbackWhy::ScheduledSequential => "scheduled_sequential",
            FallbackWhy::ShortTrip => "short_trip",
            FallbackWhy::SingleWorker => "single_worker",
            FallbackWhy::BelowCostThreshold => "below_cost_threshold",
            FallbackWhy::Unevaluable => "unevaluable",
            FallbackWhy::Irregular => "irregular_control",
            FallbackWhy::WorkerFault => "worker_fault",
            FallbackWhy::SpeculationFault => "speculation_fault",
            FallbackWhy::ReplayFault => "replay_fault",
        }
    }
}

/// Sequential fallbacks counted per cause, indexed by [`FallbackWhy`], so
/// predicted-vs-measured reports can say *why* a kernel fell short (see
/// [`RunStats::fallbacks`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackCounts([u64; FallbackWhy::ALL.len()]);

impl std::ops::Index<FallbackWhy> for FallbackCounts {
    type Output = u64;
    fn index(&self, why: FallbackWhy) -> &u64 {
        &self.0[why as usize]
    }
}

impl FallbackCounts {
    /// All `(reason, count)` pairs, in [`FallbackWhy::ALL`] order — the
    /// serialization of `BENCH_runtime.json` and the `report` op.
    pub fn table(&self) -> [(&'static str, u64); FallbackWhy::ALL.len()] {
        FallbackWhy::ALL.map(|why| (why.name(), self[why]))
    }

    /// `(reason, count)` pairs for the non-zero counters, in table order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        self.table().into_iter().filter(|(_, n)| *n > 0).collect()
    }
}

/// Dynamic execution counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Loop activations executed as chunked DOALL.
    pub chunked_loops: u64,
    /// Always 0: nothing writes it. Read only by `benchmark/src/trace.rs`
    /// (the `runtime.parallel_activations` sum), which this crate's PRs may
    /// not edit; the next `benchmark` PR drops the term and this field.
    pub pipelined_loops: u64,
    /// Loop activations that fell back to sequential execution (the sum
    /// of [`RunStats::fallbacks`]).
    pub sequential_fallbacks: u64,
    /// Per-cause breakdown of `sequential_fallbacks`.
    pub fallbacks: FallbackCounts,
    /// Chunks run by parallel activations, the master's own included
    /// (across all activations — pool reuse means this can far exceed the
    /// pool size without spawning a single thread).
    pub pool_dispatches: u64,
    /// Operand packets logged at critical/atomic region entries and
    /// replayed at commit (one per dynamic region execution).
    pub critical_packets: u64,
    /// Protected store instances the master's replay executed (stores on
    /// a branch the true heap did not take are not counted).
    pub critical_replays: u64,
    /// Cells committed from worker forks (the dirty-set walk — compare
    /// with `cow_pages × 64` for per-page write density).
    pub fork_cells_committed: u64,
    /// Heap pages privately materialized by copy-on-write across all
    /// worker forks (`× PAGE_BYTES` ≈ bytes actually copied; everything
    /// else was shared).
    pub cow_pages: u64,
    /// Always 0: nothing writes it. Read only by `benchmark/src/trace.rs`
    /// (the `runtime.compiled_blocks` metric), which this crate's PRs may
    /// not edit; the next `benchmark` PR deletes the metric and this field.
    pub compiled_blocks: u64,
}

impl RunStats {
    /// Approximate bytes of heap actually copied for worker forks
    /// (copy-on-write pages materialized × page payload size). Before
    /// CoW forks this was the whole heap per worker per activation.
    pub fn fork_bytes(&self) -> u64 {
        self.cow_pages * pspdg_ir::interp::PAGE_BYTES as u64
    }
}

/// Human-readable table of the run's dynamic counters. Fallback causes
/// come from [`FallbackCounts::table`] (non-zero rows only), so the
/// vocabulary matches `BENCH_runtime.json` exactly.
impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "run stats")?;
        writeln!(f, "  chunked loops          {:>12}", self.chunked_loops)?;
        writeln!(
            f,
            "  sequential fallbacks   {:>12}",
            self.sequential_fallbacks
        )?;
        for (cause, n) in self.fallbacks.nonzero() {
            writeln!(f, "    {cause:<20} {n:>12}")?;
        }
        writeln!(f, "  pool dispatches        {:>12}", self.pool_dispatches)?;
        writeln!(f, "  critical packets       {:>12}", self.critical_packets)?;
        writeln!(f, "  critical replays       {:>12}", self.critical_replays)?;
        writeln!(
            f,
            "  fork cells committed   {:>12}",
            self.fork_cells_committed
        )?;
        write!(
            f,
            "  cow pages              {:>12}  (~{} KiB copied)",
            self.cow_pages,
            self.fork_bytes() / 1024
        )
    }
}

/// The result of one runtime execution.
#[derive(Debug)]
pub struct RunOutcome {
    /// The executed function's return value.
    pub ret: Option<RtVal>,
    /// Lines printed by `print_*` intrinsics, in sequential order.
    pub output: Vec<String>,
    /// Final memory (globals plus surviving stack objects).
    pub mem: MemState,
    /// Total dynamic instructions executed (master plus workers),
    /// counting the master's replay of deferred critical regions.
    pub steps: u64,
    /// Dynamic loop counters.
    pub stats: RunStats,
}

/// The plan-driven parallel runtime for one program.
///
/// Holds the lowered plan and the tuning knobs of the activation cost
/// model. A runtime owns no threads: its chunked activations run on the
/// calling thread and on the process-global pool ([`pspdg_pool::global`]),
/// whose threads every runtime and every analysis sweep share.
///
/// Both the program and the lowered plan are held behind [`Arc`]s, so a
/// runtime is `'static` and [`Send`]: a plan service can realize a plan
/// once, share it, and construct a fresh `Runtime` per request on any
/// thread ([`Runtime::from_shared`]) without re-running realization —
/// constructing from shared parts is O(1). The borrow-based constructor
/// [`Runtime::new`] clones the program into a private `Arc` for callers
/// that don't share.
pub struct Runtime {
    program: Arc<ParallelProgram>,
    plan: Arc<ExecutablePlan>,
    workers: usize,
    fuel: u64,
    cost_threshold: u64,
    /// Observability sink: a span per run, activation and chunk worker.
    /// Consulted per activation, never per block or per instruction.
    obs: Option<Arc<Recorder>>,
}

impl Runtime {
    /// Prepare a runtime executing `program` under `plan` (lowered through
    /// [`realize_executable`]). Worker count defaults to the shared pool
    /// width. The program is cloned into a private [`Arc`]; callers that
    /// already share it should use [`Runtime::from_shared`].
    pub fn new(program: &ParallelProgram, plan: &ProgramPlan) -> Runtime {
        let exec = realize_executable(program, plan);
        Runtime::from_shared(Arc::new(program.clone()), Arc::new(exec))
    }

    /// Prepare a runtime from **shared** parts: an `Arc`-held program and
    /// an `Arc`-held lowered plan. This is the reentrant constructor the
    /// plan service uses — no program clone, no re-realization; the same
    /// plan can back any number of concurrent runtimes.
    pub fn from_shared(program: Arc<ParallelProgram>, plan: Arc<ExecutablePlan>) -> Runtime {
        Runtime {
            program,
            plan,
            workers: pspdg_pool::default_width().max(1),
            fuel: 1 << 48,
            cost_threshold: DEFAULT_COST_THRESHOLD,
            obs: None,
        }
    }

    /// Override the worker count: chunked loops split into at most this
    /// many chunks. The calling thread runs chunks itself; the global
    /// pool's free threads run the rest.
    pub fn workers(mut self, n: usize) -> Runtime {
        self.workers = n.max(1);
        self
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Override the dynamic-instruction budget. Under parallel execution
    /// the budget is approximate: each worker checks it independently.
    pub fn fuel(mut self, fuel: u64) -> Runtime {
        self.fuel = fuel;
        self
    }

    /// Override the activation cost model's threshold
    /// ([`DEFAULT_COST_THRESHOLD`]): a chunked activation runs in
    /// parallel only when `trip × body_insts` reaches the threshold.
    /// `0` disables the gate (every eligible activation parallelizes).
    pub fn cost_threshold(mut self, threshold: u64) -> Runtime {
        self.cost_threshold = threshold;
        self
    }

    /// Attach an observability recorder: every `run` then records
    /// activation spans (strategy, trip, packets, fallback cause,
    /// duration) into it. Without one, a run records nothing.
    pub fn recorder(mut self, rec: Arc<Recorder>) -> Runtime {
        self.obs = Some(rec);
        self
    }

    /// The lowered plan (schedules per loop).
    pub fn executable(&self) -> &ExecutablePlan {
        &self.plan
    }

    /// Static realization counts.
    pub fn realization(&self) -> RealizationStats {
        self.plan.stats()
    }

    /// Execute the program's `main`.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] sequential execution would raise; parallel
    /// attempts that fault internally fall back to sequential execution
    /// first, so error behavior matches the sequential interpreter.
    ///
    /// # Panics
    ///
    /// Panics if the module has no `main` function.
    pub fn run_main(&self) -> Result<RunOutcome, ExecError> {
        let main = self
            .program
            .module
            .function_by_name("main")
            .expect("module has a main function");
        self.run(main, &[])
    }

    /// Execute `func` with `args`.
    ///
    /// # Errors
    ///
    /// See [`Runtime::run_main`].
    pub fn run(&self, func: FuncId, args: &[RtVal]) -> Result<RunOutcome, ExecError> {
        let rec = self.obs.as_deref();
        let _run_span = rec.map(|r| r.span("runtime/run"));
        let mut engine = Engine {
            module: &self.program.module,
            plan: Some(&self.plan),
            workers: self.workers,
            cost_threshold: self.cost_threshold,
            rec,
            mem: MemState::for_module(&self.program.module),
            output: Vec::new(),
            steps: 0,
            fuel: self.fuel,
            depth: 0,
            crit_log: Vec::new(),
            stats: RunStats::default(),
        };
        let ret = engine.exec_function(func, args.to_vec())?;
        Ok(RunOutcome {
            ret,
            output: engine.output,
            mem: engine.mem,
            steps: engine.steps,
            stats: engine.stats,
        })
    }
}

/// The interpreter core shared by the master and chunk workers. Exactly
/// one of them holds `plan: Some(..)` (the master); forks never trigger
/// nested parallelism.
struct Engine<'a> {
    module: &'a Module,
    plan: Option<&'a ExecutablePlan>,
    workers: usize,
    cost_threshold: u64,
    /// The recorder, if one is attached; shared by the master and its
    /// chunk workers.
    rec: Option<&'a Recorder>,
    mem: MemState,
    output: Vec<String>,
    steps: u64,
    fuel: u64,
    /// Calls live below the root activation; a chunk worker starts at its
    /// master's, so a call nests no deeper on a worker than on the master.
    depth: u32,
    /// Logged operand packets `(region index, fork-local operand values)`
    /// in execution order (chunk workers only).
    crit_log: Vec<(u32, Vec<RtVal>)>,
    stats: RunStats,
}

impl<'a> Engine<'a> {
    /// Record one sequential fallback and its cause.
    fn note_fallback(&mut self, why: FallbackWhy) {
        self.stats.sequential_fallbacks += 1;
        self.stats.fallbacks.0[why as usize] += 1;
        if let Some(r) = self.rec {
            r.add(why.name(), 1);
        }
    }

    fn exec_function(
        &mut self,
        func_id: FuncId,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, ExecError> {
        let f = self.module.function(func_id);
        let mut frame = Frame::new(f, args);
        let live = self.mem.objects().len();
        // Scheduled loops currently executing sequentially (either
        // mid-activation after a fallback, or re-run once to exit after a
        // parallel completion); pruned when control leaves the loop.
        let mut no_par: Vec<&LoopSchedule> = Vec::new();
        // The plan's header table for this function: asked about every
        // block the master enters, so its row is found once, here.
        let header_at = self.plan.map(|plan| plan.headers_in(func_id));
        let mut block = f.entry();
        loop {
            if let Some(header_at) = &header_at {
                no_par.retain(|s| s.contains(block));
                if let Some(sched) =
                    header_at(block).filter(|_| no_par.iter().all(|s| s.header != block))
                {
                    match &sched.exec {
                        LoopExec::Chunked(c) => {
                            let _span = self.rec.map(|r| {
                                r.span(format!("runtime/activation/{}.L{}", f.name, block.index()))
                            });
                            match self.run_chunked(func_id, f, &mut frame, sched, c)? {
                                None => self.stats.chunked_loops += 1,
                                Some(why) => self.note_fallback(why),
                            }
                        }
                        LoopExec::Sequential { .. } => {
                            self.note_fallback(FallbackWhy::ScheduledSequential);
                        }
                    }
                    // The master now executes the header sequentially (a
                    // completed chunked run exits through it immediately).
                    no_par.push(sched);
                }
            }
            match self.exec_block(func_id, f, &mut frame, block)? {
                Flow::Jump(b) => block = b,
                Flow::Return(v) => {
                    self.mem.release_from(live);
                    return Ok(v);
                }
                Flow::Next => unreachable!("blocks end in terminators"),
            }
        }
    }

    fn exec_block(
        &mut self,
        func_id: FuncId,
        f: &Function,
        frame: &mut Frame,
        bb: BlockId,
    ) -> Result<Flow, ExecError> {
        for &i in &f.block(bb).insts {
            match step(self, func_id, f, frame, i)? {
                Flow::Next => {}
                other => return Ok(other),
            }
        }
        unreachable!("block without terminator survived verification")
    }

    // ---- chunked DOALL ---------------------------------------------------

    /// Resolve a discharged base to its live runtime object, if any.
    fn resolve_base(&self, frame: &Frame, base: &MemBase) -> Option<pspdg_ir::interp::ObjId> {
        match base {
            MemBase::Global(g) => Some(self.mem.global_object(*g)),
            MemBase::Alloca(i) => match frame.regs[i.index()] {
                RtVal::Ptr { obj, .. } => Some(obj),
                _ => None,
            },
            MemBase::Param(p) => match frame.args.get(*p) {
                Some(RtVal::Ptr { obj, .. }) => Some(*obj),
                _ => None,
            },
            _ => None,
        }
    }

    /// Try to execute a chunked DOALL activation in parallel. Returns
    /// `Ok(Some(why))` (master state untouched) when the loop should
    /// instead run sequentially, `Ok(None)` on parallel success.
    #[allow(clippy::too_many_lines)]
    fn run_chunked(
        &mut self,
        func_id: FuncId,
        f: &Function,
        frame: &mut Frame,
        sched: &LoopSchedule,
        c: &ChunkedLoop,
    ) -> Result<Option<FallbackWhy>, ExecError> {
        if self.workers < 2 {
            return Ok(Some(FallbackWhy::SingleWorker));
        }
        // Resolve the induction slot: its alloca must have executed.
        let RtVal::Ptr { obj: iv_obj, .. } = frame.regs[c.iv_alloca.index()] else {
            return Ok(Some(FallbackWhy::Unevaluable));
        };
        let iv_addr = MemAddr {
            obj: iv_obj,
            off: 0,
        };
        let Some(init) = self.mem.read(iv_addr).as_int() else {
            return Ok(Some(FallbackWhy::Unevaluable));
        };
        let Some(bound) = self.eval_bound(f, frame, c) else {
            return Ok(Some(FallbackWhy::Unevaluable));
        };
        let trip = trip_count_from(init, bound, c.step, c.cmp_op);
        if trip < 2 {
            return Ok(Some(FallbackWhy::ShortTrip));
        }
        // Activation cost model: when the whole activation is cheaper
        // than parallel setup (fork + dispatch + commit), run it inline.
        if (trip as u64).saturating_mul(u64::from(sched.body_insts)) < self.cost_threshold {
            return Ok(Some(FallbackWhy::BelowCostThreshold));
        }
        let chunks = self.workers.min(trip as usize);
        if chunks < 2 {
            return Ok(Some(FallbackWhy::ShortTrip));
        }
        // The final induction value must fail the continue predicate, or
        // sequential execution would keep looping (`!=` bounds that the
        // step jumps over).
        let final_iv = init as i128 + trip as i128 * c.step as i128;
        let Ok(final_iv) = i64::try_from(final_iv) else {
            return Ok(Some(FallbackWhy::Unevaluable));
        };
        if eval_cmp(c.cmp_op, RtVal::Int(final_iv), RtVal::Int(bound)) != Ok(false) {
            return Ok(Some(FallbackWhy::Unevaluable));
        }

        // Reduction objects, with worker forks starting from the operator
        // identity. A base that cannot be resolved to a live object means
        // its partial results could not be merged — fall back rather than
        // silently committing last-writer-wins.
        let mut red_objs: HashMap<u32, ReductionOp> = HashMap::new();
        for (base, op) in &c.reductions {
            match self.resolve_base(frame, base) {
                Some(obj) => {
                    red_objs.insert(obj.0, *op);
                }
                None => return Ok(Some(FallbackWhy::Unevaluable)),
            }
        }
        // Protected objects (deferred criticals): workers never read or
        // write them (only the master's replay executes the protected
        // slice); the dirty-set skip below is defensive.
        let mut prot_objs: HashSet<u32> = HashSet::new();
        for base in &c.protected {
            match self.resolve_base(frame, base) {
                Some(obj) => {
                    prot_objs.insert(obj.0);
                }
                None => return Ok(Some(FallbackWhy::Unevaluable)),
            }
        }

        let mut fork_base = self.mem.clone();
        for (&obj, &op) in &red_objs {
            let obj = pspdg_ir::interp::ObjId(obj);
            for off in 0..fork_base.object_len(obj) as u32 {
                let addr = MemAddr { obj, off };
                let v = fork_base.read(addr);
                fork_base.write(addr, reduction_identity(op, v));
            }
        }

        let fuel_left = self.fuel.saturating_sub(self.steps);
        let n = chunks as i64;
        let frame: &Frame = frame;
        let slots: Vec<Mutex<Option<Result<Engine, FallbackWhy>>>> =
            (0..chunks).map(|_| Mutex::default()).collect();
        let cursor = AtomicUsize::new(0);
        // The master and up to `chunks - 1` global-pool threads claim
        // chunks from one cursor; a pool busy elsewhere leaves them all to
        // the master. A panicked chunk (an engine bug) must demote to a
        // sequential fallback, not take the master down: its slot stays
        // empty, and that alone names the fault below.
        pspdg_pool::global().help(chunks - 1, &|| loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= chunks {
                break;
            }
            let (lo, hi) = (trip * k as i64 / n, trip * (k as i64 + 1) / n);
            let chunk = catch_unwind(AssertUnwindSafe(|| {
                let _span = self.rec.map(|r| r.span("runtime/chunk_worker"));
                // O(pages) fork: pages stay shared until the chunk writes
                // them; the fork records which cells it writes.
                let mut worker = Engine {
                    module: self.module,
                    plan: None,
                    workers: 1,
                    cost_threshold: 0,
                    rec: self.rec,
                    mem: fork_base.fork(),
                    output: Vec::new(),
                    steps: 0,
                    fuel: fuel_left,
                    depth: self.depth,
                    crit_log: Vec::new(),
                    stats: RunStats::default(),
                };
                let mut wframe = frame.clone();
                (lo..hi).try_for_each(|iter| {
                    worker.mem.write(iv_addr, RtVal::Int(init + iter * c.step));
                    worker.run_iteration(func_id, f, &mut wframe, sched, &c.criticals)
                })?;
                Ok(worker)
            }));
            if let Ok(chunk) = chunk {
                *slots[k].lock().expect("chunk slot poisoned") = Some(chunk);
            }
        });
        self.stats.pool_dispatches += chunks as u64;
        // The first failing chunk (in chunk = iteration order) names the
        // cause; the fallback leaves the master heap untouched, and the
        // sequential re-run reproduces faults in sequential order.
        let outs: Result<Vec<Engine>, FallbackWhy> = slots
            .into_iter()
            .map(|s| {
                let s = s.into_inner().expect("chunk slot poisoned");
                s.unwrap_or(Err(FallbackWhy::WorkerFault))
            })
            .collect();
        let outs = match outs {
            Ok(outs) => outs,
            Err(why) => return Ok(Some(why)),
        };

        // Commit in place, in chunk order: per-cell last-writer-wins over
        // each fork's dirty set equals the sequential final state (see
        // module-level safety argument); reduction cells merge their
        // chunk-final values; the protected cells receive only the stores
        // of the replayed regions — chunk order = iteration order, so the
        // replay is the exact sequential serialization, branches decided
        // on the true heap. Only a replay can fault mid-commit, so the
        // master heap and its step count are copied for rollback (an
        // O(pages) clone) only when some fork logged a packet.
        let rollback = outs
            .iter()
            .any(|out| !out.crit_log.is_empty())
            .then(|| (self.mem.clone(), self.steps));
        // The replay's registers: one clone of the master frame, made when
        // the first packet replays.
        let mut rframe: Option<Frame> = None;
        let mut committed = 0u64;
        let mut packets = 0u64;
        let mut replayed = 0u64;
        let mut cow_pages = 0u64;
        for out in &outs {
            cow_pages += out.mem.cow_pages();
            let mem = &mut self.mem;
            out.mem.for_each_dirty(|addr, v| {
                if addr.obj == iv_obj || prot_objs.contains(&addr.obj.0) {
                    return;
                }
                committed += 1;
                if let Some(&op) = red_objs.get(&addr.obj.0) {
                    let cur = mem.read(addr);
                    mem.write(addr, reduction_merge(op, cur, v));
                } else {
                    mem.write(addr, v);
                }
            });
            for (idx, packet) in &out.crit_log {
                let rframe = rframe.get_or_insert_with(|| frame.clone());
                let cr = &c.criticals[*idx as usize];
                // `Err`: e.g. an uninitialized protected cell, where
                // sequential execution faults at this instance in order.
                let Ok(stores) = self.replay_region(func_id, f, rframe, cr, packet) else {
                    let (mem, steps) = rollback.expect("a logged packet took a rollback copy");
                    self.mem = mem;
                    self.steps = steps;
                    return Ok(Some(FallbackWhy::ReplayFault));
                };
                packets += 1;
                replayed += stores;
            }
        }
        self.mem.write(iv_addr, RtVal::Int(final_iv));
        for out in outs {
            self.output.extend(out.output);
            self.steps = self.steps.saturating_add(out.steps);
        }
        self.stats.fork_cells_committed += committed;
        self.stats.critical_packets += packets;
        self.stats.critical_replays += replayed;
        self.stats.cow_pages += cow_pages;
        Ok(None)
    }

    /// Evaluate a canonical loop's invariant bound at loop entry.
    fn eval_bound(&self, f: &Function, frame: &Frame, c: &ChunkedLoop) -> Option<i64> {
        match c.bound {
            Value::Const(k) => const_val(k).as_int(),
            Value::Param(p) => frame.args.get(p).and_then(RtVal::as_int),
            Value::Global(_) => None,
            Value::Inst(i) if !c.bound_in_loop => frame.regs[i.index()].as_int(),
            // In-loop bound: canonicality guarantees it is a load of a
            // slot the loop never stores to; read the slot directly.
            Value::Inst(i) => match &f.inst(i).inst {
                Inst::Load { ptr, .. } => {
                    let obj = match ptr {
                        Value::Global(g) => self.mem.global_object(*g),
                        Value::Inst(a) => match frame.regs[a.index()] {
                            RtVal::Ptr { obj, .. } => obj,
                            _ => return None,
                        },
                        _ => return None,
                    };
                    self.mem.read(MemAddr { obj, off: 0 }).as_int()
                }
                _ => None,
            },
        }
    }

    /// Execute one iteration of a chunked loop: from the header until
    /// control returns to it. Any other escape is irregular. Entering one
    /// of the loop's deferred `criticals` detours through
    /// [`Engine::run_critical_region`] instead of its blocks; the region's
    /// index is its packet tag.
    fn run_iteration(
        &mut self,
        func_id: FuncId,
        f: &Function,
        frame: &mut Frame,
        sched: &LoopSchedule,
        criticals: &[CriticalReplay],
    ) -> Result<(), FallbackWhy> {
        let mut block = sched.header;
        loop {
            // A loop has a handful of regions at most: a scan, not a hash.
            let flow = match criticals.iter().position(|cr| cr.entry == block) {
                Some(idx) => {
                    let cr = &criticals[idx];
                    self.run_critical_region(func_id, f, frame, idx as u32, cr)?;
                    Flow::Jump(cr.exit)
                }
                None => self
                    .exec_block(func_id, f, frame, block)
                    .map_err(|_| FallbackWhy::WorkerFault)?,
            };
            match flow {
                Flow::Jump(t) if t == sched.header => return Ok(()),
                Flow::Jump(t) => {
                    if !sched.contains(t) {
                        return Err(FallbackWhy::Irregular);
                    }
                    block = t;
                }
                Flow::Return(_) => return Err(FallbackWhy::Irregular),
                Flow::Next => unreachable!(),
            }
        }
    }

    /// A chunk worker's detour through a deferred critical region: execute
    /// the protected-independent slice in region order (speculatively —
    /// guards are suppressed, so conditionally-executed fork-local code
    /// runs unconditionally; any fault aborts the parallel attempt and the
    /// sequential re-run decides), then log the operand packet — the
    /// registers the master's replay reads — for the master to replay at
    /// commit. No protected cell is read or written here.
    fn run_critical_region(
        &mut self,
        func_id: FuncId,
        f: &Function,
        frame: &mut Frame,
        idx: u32,
        cr: &CriticalReplay,
    ) -> Result<(), FallbackWhy> {
        for &i in &cr.worker_insts {
            match step(self, func_id, f, frame, i) {
                Ok(Flow::Next) => {}
                // The slice contains no terminators/returns (validated).
                Ok(_) => return Err(FallbackWhy::Irregular),
                Err(_) => return Err(FallbackWhy::SpeculationFault),
            }
        }
        let packet = cr.operands.iter().map(|r| frame.regs[r.index()]).collect();
        self.crit_log.push((idx, packet));
        Ok(())
    }

    /// The master's replay of one logged packet against the master heap
    /// as committed so far: write the packet into the replay frame,
    /// then walk the region from `entry` to `exit` executing each entered
    /// block's replay instructions — protected loads read the true cells
    /// and the region's own branches decide on the true values, so the
    /// replayed cells finish bit-identical to sequential execution.
    /// Returns the number of stores executed; any fault aborts the whole
    /// activation's commit, the master heap rolls back, and the loop
    /// re-runs sequentially.
    fn replay_region(
        &mut self,
        func_id: FuncId,
        f: &Function,
        frame: &mut Frame,
        cr: &CriticalReplay,
        packet: &[RtVal],
    ) -> Result<u64, ExecError> {
        for (r, v) in cr.operands.iter().zip(packet) {
            frame.regs[r.index()] = *v;
        }
        let mut stores = 0u64;
        let mut block = cr.entry;
        while block != cr.exit {
            let (_, insts) = cr
                .replay
                .iter()
                .find(|(b, _)| *b == block)
                .expect("in-region successors are region blocks");
            for &i in insts {
                match step(self, func_id, f, frame, i)? {
                    Flow::Next => stores += u64::from(matches!(f.inst(i).inst, Inst::Store { .. })),
                    Flow::Jump(t) => block = t,
                    Flow::Return(_) => unreachable!("returns are rejected at extraction"),
                }
            }
        }
        Ok(stores)
    }
}

impl Machine for Engine<'_> {
    fn state(&mut self) -> (&mut MemState, &mut Vec<String>, &mut u64, u64) {
        (&mut self.mem, &mut self.output, &mut self.steps, self.fuel)
    }

    fn depth(&mut self) -> &mut u32 {
        &mut self.depth
    }

    fn call(
        &mut self,
        _: FuncId,
        _: InstId,
        callee: FuncId,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, ExecError> {
        self.exec_function(callee, args)
    }
}

/// The identity a worker-fork cell starts from under a reduction operator,
/// typed by the cell's current value (`Undef` cells stay undefined — a
/// well-formed reduction initializes before reducing).
fn reduction_identity(op: ReductionOp, v: RtVal) -> RtVal {
    match (op, v) {
        (ReductionOp::Add, RtVal::Int(_)) => RtVal::Int(0),
        (ReductionOp::Add, RtVal::Float(_)) => RtVal::Float(0.0),
        (ReductionOp::Mul, RtVal::Int(_)) => RtVal::Int(1),
        (ReductionOp::Mul, RtVal::Float(_)) => RtVal::Float(1.0),
        (ReductionOp::Min, RtVal::Int(_)) => RtVal::Int(i64::MAX),
        (ReductionOp::Min, RtVal::Float(_)) => RtVal::Float(f64::INFINITY),
        (ReductionOp::Max, RtVal::Int(_)) => RtVal::Int(i64::MIN),
        (ReductionOp::Max, RtVal::Float(_)) => RtVal::Float(f64::NEG_INFINITY),
        (ReductionOp::BitAnd, RtVal::Int(_)) => RtVal::Int(-1),
        (ReductionOp::BitOr | ReductionOp::BitXor, RtVal::Int(_)) => RtVal::Int(0),
        (ReductionOp::LogAnd, RtVal::Bool(_)) => RtVal::Bool(true),
        (ReductionOp::LogOr, RtVal::Bool(_)) => RtVal::Bool(false),
        // ParC's `&&` and `||` yield the ints 0 and 1.
        (ReductionOp::LogAnd, RtVal::Int(_)) => RtVal::Int(1),
        (ReductionOp::LogOr, RtVal::Int(_)) => RtVal::Int(0),
        (_, other) => other,
    }
}

/// Merge a chunk's final reduction value into the master's (chunk order,
/// so the result is deterministic).
fn reduction_merge(op: ReductionOp, master: RtVal, chunk: RtVal) -> RtVal {
    match (op, master, chunk) {
        (ReductionOp::Add, RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(a.wrapping_add(b)),
        (ReductionOp::Add, RtVal::Float(a), RtVal::Float(b)) => RtVal::Float(a + b),
        (ReductionOp::Mul, RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(a.wrapping_mul(b)),
        (ReductionOp::Mul, RtVal::Float(a), RtVal::Float(b)) => RtVal::Float(a * b),
        (ReductionOp::Min, RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(a.min(b)),
        (ReductionOp::Min, RtVal::Float(a), RtVal::Float(b)) => RtVal::Float(a.min(b)),
        (ReductionOp::Max, RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(a.max(b)),
        (ReductionOp::Max, RtVal::Float(a), RtVal::Float(b)) => RtVal::Float(a.max(b)),
        (ReductionOp::BitAnd, RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(a & b),
        (ReductionOp::BitOr, RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(a | b),
        (ReductionOp::BitXor, RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(a ^ b),
        (ReductionOp::LogAnd, RtVal::Bool(a), RtVal::Bool(b)) => RtVal::Bool(a && b),
        (ReductionOp::LogOr, RtVal::Bool(a), RtVal::Bool(b)) => RtVal::Bool(a || b),
        (ReductionOp::LogAnd, RtVal::Int(a), RtVal::Int(b)) => {
            RtVal::Int(i64::from(a != 0 && b != 0))
        }
        (ReductionOp::LogOr, RtVal::Int(a), RtVal::Int(b)) => {
            RtVal::Int(i64::from(a != 0 || b != 0))
        }
        // A master cell the loop never initialized: take the chunk value.
        (_, RtVal::Undef, b) => b,
        // A type mismatch cannot arise from verified programs; prefer the
        // chunk's value (what last-writer commit would have done).
        (_, _, b) => b,
    }
}
