//! The plan-driven parallel execution engine.
//!
//! [`Runtime`] executes a [`ParallelProgram`] under a [`ProgramPlan`] on
//! real threads. The master thread interprets the program sequentially;
//! whenever control reaches the header of a scheduled loop it consults the
//! [`ExecutablePlan`] and either
//!
//! * **chunks** a DOALL loop — the iteration space splits into one range
//!   per worker, each worker runs its range on a *copy-on-write forked
//!   heap* that tracks written cells, and the master commits the forks'
//!   dirty sets back in chunk order (reduction bases start from the
//!   operator identity in each fork and merge with the declared
//!   operator; deferred critical updates replay serially — see below);
//! * **falls back** to sequential execution (HELIX and DSWP plans, which
//!   are enumerated and emulated but never executed; non-canonical loops;
//!   trips too short — or too cheap, under the activation cost model — to
//!   split; or any safety condition the realization or the runtime itself
//!   could not discharge), recording *why* in [`FallbackCounts`].
//!
//! ## Execution substrate
//!
//! Three mechanisms keep per-activation overhead low enough for measured
//! speedups to track predicted parallelism:
//!
//! * a **persistent worker pool** ([`pspdg_pool::WorkerPool`]) created
//!   once per [`Runtime`] — activations enqueue jobs instead of spawning
//!   OS threads;
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
//! criticals — discards every fork (and the staging heap) untouched and
//! re-runs the loop sequentially on the master heap, so faulting programs
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
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

use pspdg_ir::interp::{
    const_val, eval_cmp, step, ExecError, Flow, Frame, Machine, MemAddr, MemState, RtVal,
};
use pspdg_ir::loops::trip_count_from;
use pspdg_ir::{BlockId, FuncId, Function, Inst, InstId, Module, Value};
use pspdg_obs::{Recorder, SpanGuard};
use pspdg_parallel::{ParallelProgram, ReductionOp};
use pspdg_parallelizer::{
    realize_executable, ChunkedLoop, CriticalReplay, ExecutablePlan, LoopExec, LoopSchedule,
    ProgramPlan, RealizationStats,
};
use pspdg_pdg::MemBase;
use pspdg_pool::WorkerPool;

use crate::fault::{FaultInjector, FaultKind};

/// Default [`Runtime::cost_threshold`]: activations whose estimated
/// dynamic size (`trip × body_insts`) falls below this skip parallel
/// setup. Roughly the break-even point where fork + dispatch + commit
/// overhead matches the interpreter's work on one chunk.
pub const DEFAULT_COST_THRESHOLD: u64 = 4096;

/// Why a loop activation executed sequentially instead of in parallel —
/// one counter per cause, so predicted-vs-measured reports can say *why*
/// a kernel fell short (see [`RunStats::fallbacks`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackCounts {
    /// The plan itself scheduled the loop sequential (realization-time
    /// reason recorded in the [`LoopSchedule`]).
    pub scheduled_sequential: u64,
    /// Trip count under 2 (or fewer chunks than 2) — nothing to split.
    pub short_trip: u64,
    /// The runtime has a single worker, so no activation can split.
    pub single_worker: u64,
    /// The activation cost model predicted parallel setup would cost more
    /// than it saves (`trip × body_insts` under the threshold).
    pub below_cost_threshold: u64,
    /// The loop bound (or induction slot) could not be evaluated at the
    /// header, or a reduction/protected base had no live object.
    pub unevaluable: u64,
    /// A worker observed control leaving the loop irregularly.
    pub irregular_control: u64,
    /// A worker faulted; the sequential re-run reproduces the fault in
    /// sequential order.
    pub worker_fault: u64,
    /// A worker faulted while *speculatively* executing a critical
    /// region's protected-independent slice (suppressed guards run
    /// conditional code unconditionally, so a fault here may not exist
    /// sequentially); the sequential re-run decides.
    pub speculation_fault: u64,
    /// Replaying deferred critical packets faulted; the sequential re-run
    /// reproduces the fault in order.
    pub replay_fault: u64,
    /// Committing a fork's dirty set into the staging heap faulted
    /// mid-walk; the half-applied staging heap is discarded and the loop
    /// re-runs sequentially on the untouched master heap.
    pub commit_fault: u64,
}

impl FallbackCounts {
    /// Number of distinct fallback causes (fields of this struct).
    pub const CAUSES: usize = 10;

    /// All `(reason, count)` pairs, in field order — the single source of
    /// truth for serialization (`BENCH_runtime.json`). A completeness
    /// test pins this table against the struct layout so a new cause
    /// cannot silently vanish from reports.
    pub fn table(&self) -> [(&'static str, u64); Self::CAUSES] {
        [
            ("scheduled_sequential", self.scheduled_sequential),
            ("short_trip", self.short_trip),
            ("single_worker", self.single_worker),
            ("below_cost_threshold", self.below_cost_threshold),
            ("unevaluable", self.unevaluable),
            ("irregular_control", self.irregular_control),
            ("worker_fault", self.worker_fault),
            ("speculation_fault", self.speculation_fault),
            ("replay_fault", self.replay_fault),
            ("commit_fault", self.commit_fault),
        ]
    }

    /// `(reason, count)` pairs for the non-zero counters, in field order.
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
    /// Jobs handed to the persistent worker pool (chunk workers across
    /// all activations — pool reuse means this can far exceed the pool
    /// size without spawning a single thread).
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
    /// Synthetic faults fired by an attached
    /// [`FaultInjector`] during this run
    /// (0 without one — real runs never inject).
    pub injected_faults: u64,
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
        writeln!(
            f,
            "  cow pages              {:>12}  (~{} KiB copied)",
            self.cow_pages,
            self.fork_bytes() / 1024
        )?;
        write!(f, "  injected faults        {:>12}", self.injected_faults)
    }
}

/// Why a parallel attempt fell back (maps onto one [`FallbackCounts`]
/// field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FallbackWhy {
    ScheduledSequential,
    ShortTrip,
    SingleWorker,
    BelowCostThreshold,
    Unevaluable,
    Irregular,
    WorkerFault,
    SpeculationFault,
    ReplayFault,
    CommitFault,
}

impl FallbackWhy {
    /// The cause's name in [`FallbackCounts::table`] vocabulary (span
    /// args reuse it, so causes never fork spellings).
    fn name(self) -> &'static str {
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
            FallbackWhy::CommitFault => "commit_fault",
        }
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
/// Holds the lowered plan, the tuning knobs of the activation cost model,
/// and the **persistent worker pool**: the pool's threads are created on
/// the first parallel activation and reused by every later one (across
/// `run` calls too), so activation-heavy kernels no longer pay a
/// thread-spawn per loop entry.
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
    /// Deterministic fault source for robustness testing; `None` (the
    /// only production configuration) costs one never-taken branch on
    /// each cold path.
    faults: Option<Arc<FaultInjector>>,
    /// Observability sink: a span per run, activation and chunk worker,
    /// fault instants. Consulted per activation, never per block
    /// or per instruction.
    obs: Option<Arc<Recorder>>,
    /// Created lazily on the first parallel activation; lives as long as
    /// the `Runtime`.
    pool: OnceLock<WorkerPool>,
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
            faults: None,
            obs: None,
            pool: OnceLock::new(),
        }
    }

    /// Override the worker count. Chunked loops split into at most this
    /// many ranges. Resets the worker pool; the next parallel activation
    /// re-creates it at the new width.
    pub fn workers(mut self, n: usize) -> Runtime {
        self.workers = n.max(1);
        self.pool = OnceLock::new();
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

    /// Attach a deterministic fault injector (robustness testing only).
    /// Its site counters are **cumulative across `run` calls** on this
    /// runtime, so a schedule can address "the 7th chunk worker ever".
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Runtime {
        self.faults = Some(injector);
        self
    }

    /// The attached fault injector, if any (to inspect what fired).
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Attach an observability recorder: every `run` then records
    /// activation spans (strategy, trip, packets, fallback cause,
    /// duration) and fault instants into it. A disabled recorder records
    /// nothing and costs what an absent one costs — the production
    /// configuration keeps it attached and toggles
    /// [`Recorder::set_enabled`].
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

    /// The persistent worker pool (created on first use).
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.workers))
    }

    /// OS thread identities of the persistent worker pool (creating it if
    /// needed). Stable across activations *and* across `run` calls —
    /// regression tests assert the same threads serve every activation.
    pub fn worker_thread_ids(&self) -> Vec<std::thread::ThreadId> {
        self.pool().thread_ids()
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
        let fired_before = self.faults.as_ref().map_or(0, |fi| fi.fired_total());
        // A disabled recorder resolves to `None` here: "attached but
        // off" and "absent" are the same run.
        let rec = self.obs.as_deref().filter(|r| r.enabled());
        let mut run_span = rec.map(|r| {
            let mut s = r.span("runtime/run", "runtime");
            s.arg("workers", self.workers);
            s
        });
        let mut engine = Engine {
            module: &self.program.module,
            plan: Some(&self.plan),
            pool: (self.workers >= 2).then(|| self.pool()),
            workers: self.workers,
            cost_threshold: self.cost_threshold,
            faults: self.faults.as_deref(),
            rec,
            last_trip: 0,
            mem: MemState::for_module(&self.program.module),
            output: Vec::new(),
            steps: 0,
            fuel: self.fuel,
            depth: 0,
            crit_log: Vec::new(),
            stats: RunStats::default(),
        };
        let ret = engine.exec_function(func, args.to_vec())?;
        let mut stats = engine.stats;
        stats.injected_faults = self
            .faults
            .as_ref()
            .map_or(0, |fi| fi.fired_total() - fired_before);
        if let Some(sp) = run_span.as_mut() {
            sp.arg("steps", engine.steps);
            sp.arg("chunked", stats.chunked_loops);
            sp.arg("fallbacks", stats.sequential_fallbacks);
        }
        Ok(RunOutcome {
            ret,
            output: engine.output,
            mem: engine.mem,
            steps: engine.steps,
            stats,
        })
    }
}

/// The interpreter core shared by the master and chunk workers. Exactly
/// one of them holds `plan: Some(..)` (the master); forks never trigger
/// nested parallelism.
struct Engine<'a> {
    module: &'a Module,
    plan: Option<&'a ExecutablePlan>,
    /// The persistent worker pool (master only, with ≥ 2 workers).
    pool: Option<&'a WorkerPool>,
    workers: usize,
    cost_threshold: u64,
    /// Deterministic fault source; shared by the master and chunk workers
    /// so site counters are global.
    faults: Option<&'a FaultInjector>,
    /// Observability sink (already gated on [`Recorder::enabled`]:
    /// `Some` here means record). Shared by master and chunk workers so
    /// spans land in one stream.
    rec: Option<&'a Recorder>,
    /// Trip count of the most recent chunked attempt (span arg).
    last_trip: u64,
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
    /// Open the span covering one parallel-loop activation attempt.
    fn activation_span(
        &self,
        f: &Function,
        header: BlockId,
        strategy: &'static str,
    ) -> Option<SpanGuard<'a>> {
        self.rec.map(|r| {
            let mut s = r.span(
                &format!("runtime/activation/{}.L{}", f.name, header.index()),
                "runtime",
            );
            s.arg("strategy", strategy);
            s
        })
    }

    /// Close out an activation span: outcome, trip, and the volume
    /// counters this attempt moved (packets, replays, fork commits,
    /// CoW pages, pool jobs), plus the duration histogram sample.
    fn finish_activation(
        &self,
        sp: Option<&mut SpanGuard<'_>>,
        cause: Option<FallbackWhy>,
        before: RunStats,
    ) {
        let Some(sp) = sp else { return };
        let d = self.stats;
        sp.arg("outcome", cause.map_or("parallel", FallbackWhy::name));
        sp.arg("trip", self.last_trip);
        sp.arg("pool_jobs", d.pool_dispatches - before.pool_dispatches);
        sp.arg("packets", d.critical_packets - before.critical_packets);
        sp.arg("replays", d.critical_replays - before.critical_replays);
        sp.arg(
            "fork_cells",
            d.fork_cells_committed - before.fork_cells_committed,
        );
        sp.arg("cow_pages", d.cow_pages - before.cow_pages);
        if let Some(r) = self.rec {
            r.observe("runtime/activation_ns", sp.elapsed_ns());
        }
    }

    /// Record a fault-injection instant in the trace stream.
    fn fault_instant(&self, kind: FaultKind) {
        if let Some(r) = self.rec {
            r.instant(kind.label(), "fault");
        }
    }

    /// Record one sequential fallback and its cause.
    fn note_fallback(&mut self, why: FallbackWhy) {
        self.stats.sequential_fallbacks += 1;
        let c = &mut self.stats.fallbacks;
        match why {
            FallbackWhy::ScheduledSequential => c.scheduled_sequential += 1,
            FallbackWhy::ShortTrip => c.short_trip += 1,
            FallbackWhy::SingleWorker => c.single_worker += 1,
            FallbackWhy::BelowCostThreshold => c.below_cost_threshold += 1,
            FallbackWhy::Unevaluable => c.unevaluable += 1,
            FallbackWhy::Irregular => c.irregular_control += 1,
            FallbackWhy::WorkerFault => c.worker_fault += 1,
            FallbackWhy::SpeculationFault => c.speculation_fault += 1,
            FallbackWhy::ReplayFault => c.replay_fault += 1,
            FallbackWhy::CommitFault => c.commit_fault += 1,
        }
    }

    fn exec_function(
        &mut self,
        func_id: FuncId,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, ExecError> {
        let f = self.module.function(func_id);
        let mut frame = Frame::new(f, args);
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
                            let before = self.stats;
                            let mut sp = self.activation_span(f, block, "chunked");
                            let outcome = self.run_chunked(func_id, f, &mut frame, sched, c)?;
                            match outcome {
                                None => self.stats.chunked_loops += 1,
                                Some(why) => self.note_fallback(why),
                            }
                            self.finish_activation(sp.as_mut(), outcome, before);
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
                Flow::Return(v) => return Ok(v),
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
        self.last_trip = 0;
        let Some(pool) = self.pool else {
            return Ok(Some(FallbackWhy::SingleWorker));
        };
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
        self.last_trip = trip.max(0) as u64;
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
        let ranges: Vec<(i64, i64)> = (0..chunks as i64)
            .map(|k| (trip * k / chunks as i64, trip * (k + 1) / chunks as i64))
            .collect();

        struct ChunkOut {
            mem: MemState,
            crit_log: Vec<(u32, Vec<RtVal>)>,
            output: Vec<String>,
            steps: u64,
        }
        let module = self.module;
        let faults = self.faults;
        let rec = self.rec;
        let depth = self.depth;
        let mut slots: Vec<Option<Result<ChunkOut, FallbackWhy>>> =
            ranges.iter().map(|_| None).collect();
        // `scope_catch`: a panicked chunk worker (organic or injected)
        // must demote to a sequential fallback, not take the master down.
        let ((), any_panicked) = pool.scope_catch(|scope| {
            for (slot, &(lo, hi)) in slots.iter_mut().zip(&ranges) {
                // O(pages) fork: pages stay shared until a worker writes
                // them; the fork records which cells it writes.
                let fork = fork_base.fork();
                let regs = frame.regs.clone();
                let args = frame.args.clone();
                scope.spawn(move || {
                    let _job_span = rec.map(|r| {
                        let mut s = r.span("runtime/chunk_worker", "runtime");
                        s.arg("lo", lo);
                        s.arg("hi", hi);
                        s
                    });
                    match faults.and_then(FaultInjector::on_chunk_worker) {
                        Some(kind @ FaultKind::WorkerPanic) => {
                            if let Some(r) = rec {
                                r.instant(kind.label(), "fault");
                            }
                            panic!("injected chunk worker panic")
                        }
                        Some(kind @ FaultKind::WorkerFault) => {
                            if let Some(r) = rec {
                                r.instant(kind.label(), "fault");
                            }
                            *slot = Some(Err(FallbackWhy::WorkerFault));
                            return;
                        }
                        _ => {}
                    }
                    let mut worker = Engine {
                        module,
                        plan: None,
                        pool: None,
                        workers: 1,
                        cost_threshold: 0,
                        faults,
                        rec,
                        last_trip: 0,
                        mem: fork,
                        output: Vec::new(),
                        steps: 0,
                        fuel: fuel_left,
                        depth,
                        crit_log: Vec::new(),
                        stats: RunStats::default(),
                    };
                    let mut wframe = Frame { regs, args };
                    let result = (lo..hi).try_for_each(|iter| {
                        worker.mem.write(iv_addr, RtVal::Int(init + iter * c.step));
                        worker.run_iteration(func_id, f, &mut wframe, sched, &c.criticals)
                    });
                    *slot = Some(result.map(|()| ChunkOut {
                        mem: worker.mem,
                        crit_log: std::mem::take(&mut worker.crit_log),
                        output: std::mem::take(&mut worker.output),
                        steps: worker.steps,
                    }));
                });
            }
        });
        self.stats.pool_dispatches += ranges.len() as u64;
        let mut outs = Vec::with_capacity(slots.len());
        // First failing chunk (in chunk = iteration order) names the
        // cause; a panicked worker never filled its slot and counts as a
        // worker fault (its heap fork is simply discarded).
        let mut fault_abort: Option<FallbackWhy> = None;
        for s in slots {
            match s.unwrap_or(Err(FallbackWhy::WorkerFault)) {
                Ok(out) => outs.push(out),
                // Fall back with the master heap untouched: the sequential
                // re-run reproduces faults in sequential order.
                Err(why) => fault_abort = fault_abort.or(Some(why)),
            }
        }
        if let Some(why) = fault_abort.or(any_panicked.then_some(FallbackWhy::WorkerFault)) {
            return Ok(Some(why));
        }

        // Commit into a staging heap (an O(pages) clone) swapped in as
        // `self.mem`, so a replay fault can still fall back with the master
        // heap untouched. In chunk order: per-cell last-writer-wins over
        // each fork's dirty set equals the sequential final state (see
        // module-level safety argument); reduction cells merge their
        // chunk-final values; the protected cells receive only the stores
        // of the replayed regions — chunk order = iteration order, so the
        // replay is the exact sequential serialization, branches decided
        // on the true heap.
        let staging = self.mem.clone();
        let master_mem = std::mem::replace(&mut self.mem, staging);
        let master_steps = self.steps;
        // The replay's registers: one clone of the master frame, made when
        // the first packet replays.
        let mut rframe: Option<Frame> = None;
        let mut committed = 0u64;
        let mut packets = 0u64;
        let mut replayed = 0u64;
        let mut cow_pages = 0u64;
        let mut abort: Option<FallbackWhy> = None;
        for out in &outs {
            cow_pages += out.mem.cow_pages();
            // Injected commit fault: abort the dirty-set walk after one
            // applied cell, leaving the staging heap *half-written* — the
            // strongest possible probe that staging really isolates the
            // master heap from a mid-commit fault.
            let inject_commit =
                self.faults.and_then(FaultInjector::on_heap_commit) == Some(FaultKind::CommitFault);
            if inject_commit {
                self.fault_instant(FaultKind::CommitFault);
            }
            let mut commit_budget = if inject_commit { 1u64 } else { u64::MAX };
            let staging = &mut self.mem;
            let walk = out.mem.try_for_each_dirty(|addr, v| {
                if addr.obj == iv_obj || prot_objs.contains(&addr.obj.0) {
                    return ControlFlow::Continue(());
                }
                if commit_budget == 0 {
                    return ControlFlow::Break(());
                }
                commit_budget -= 1;
                committed += 1;
                if let Some(&op) = red_objs.get(&addr.obj.0) {
                    let cur = staging.read(addr);
                    staging.write(addr, reduction_merge(op, cur, v));
                } else {
                    staging.write(addr, v);
                }
                ControlFlow::Continue(())
            });
            // An injected commit fault aborts even when the fork dirtied
            // too few cells for the budget to trip mid-walk, so the
            // injection's attribution is deterministic.
            if walk.is_break() || inject_commit {
                abort = Some(FallbackWhy::CommitFault);
                break;
            }
            for (idx, packet) in &out.crit_log {
                if self.faults.and_then(FaultInjector::on_replay_packet)
                    == Some(FaultKind::ReplayFault)
                {
                    self.fault_instant(FaultKind::ReplayFault);
                    abort = Some(FallbackWhy::ReplayFault);
                    break;
                }
                let rframe = rframe.get_or_insert_with(|| frame.clone());
                let cr = &c.criticals[*idx as usize];
                match self.replay_region(func_id, f, rframe, cr, packet) {
                    Ok(stores) => {
                        packets += 1;
                        replayed += stores;
                    }
                    // E.g. an uninitialized protected cell: sequential
                    // execution faults at this instance in order.
                    Err(_) => {
                        abort = Some(FallbackWhy::ReplayFault);
                        break;
                    }
                }
            }
            if abort.is_some() {
                break;
            }
        }
        if let Some(why) = abort {
            self.mem = master_mem;
            self.steps = master_steps;
            return Ok(Some(why));
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
        if self.faults.and_then(FaultInjector::on_crit_slice) == Some(FaultKind::SpeculationFault) {
            self.fault_instant(FaultKind::SpeculationFault);
            return Err(FallbackWhy::SpeculationFault);
        }
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

    /// The master's replay of one logged packet against the staging heap
    /// (`self.mem` during commit): write the packet into the replay frame,
    /// then walk the region from `entry` to `exit` executing each entered
    /// block's replay instructions — protected loads read the true cells
    /// and the region's own branches decide on the true values, so the
    /// replayed cells finish bit-identical to sequential execution.
    /// Returns the number of stores executed; any fault aborts the whole
    /// activation's commit and the loop re-runs sequentially.
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
        // A master cell the loop never initialized: take the chunk value.
        (_, RtVal::Undef, b) => b,
        // A type mismatch cannot arise from verified programs; prefer the
        // chunk's value (what last-writer commit would have done).
        (_, _, b) => b,
    }
}
