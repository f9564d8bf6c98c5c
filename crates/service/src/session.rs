//! The thread-safe compile-once / plan-and-execute-many facade.
//!
//! A [`Session`] is one compiled program plus everything the Fig. 2
//! pipeline derives from it, owned behind `Arc`s so any number of threads
//! can plan and execute concurrently:
//!
//! * the parsed [`ParallelProgram`] (shared with every runtime built
//!   from the session);
//! * the sequential profile **and** the sequential baseline (return
//!   value, printed output, observable globals) from one profiling run —
//!   the differential oracle every parallel execution is checked against;
//! * the per-function analysis artifacts ([`FunctionPsPdg`]: structural
//!   analyses, base PDG, overlay-assembled PS-PDG) built once;
//! * a per-[`Abstraction`] plan cache: the enumerated [`ProgramPlan`]
//!   and its lowered, `Arc`-shared [`ExecutablePlan`].
//!
//! Planning an abstraction twice returns the cached bundle; executing
//! constructs a fresh [`Runtime`] from the shared parts
//! ([`Runtime::from_shared`]) — O(1), reentrant, no rebuilds.

use std::mem::{size_of, size_of_val};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pspdg_core::{build_pspdg_module_recorded, FeatureSet, FunctionPsPdg, NodeKind};
use pspdg_emulator::emulate;
use pspdg_frontend::{compile, FrontendError};
use pspdg_ir::interp::{ExecError, Interpreter, NullSink, Profile, RtVal};
use pspdg_ir::BlockId;
use pspdg_obs::Recorder;
use pspdg_parallel::{ParallelError, ParallelProgram};
use pspdg_parallelizer::{
    plan_built_recorded, realize_executable_recorded, Abstraction, ExecutablePlan, LoopPlanSpec,
    ProgramPlan,
};
use pspdg_pdg::PdgEdge;
use pspdg_runtime::{globals_mismatch, observable_globals, rtval_identical, RunStats, Runtime};

use crate::hash::content_key;

/// Hot-loop coverage threshold handed to the planner.
pub const DEFAULT_THRESHOLD: f64 = 0.01;

/// Why a session could not be established.
#[derive(Debug)]
pub enum SessionError {
    /// ParC source failed to compile.
    Frontend(FrontendError),
    /// The program (or its directives) failed validation.
    Invalid(ParallelError),
    /// The sequential profiling run faulted; a program that cannot run
    /// sequentially has no baseline to plan against.
    Profile(ExecError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Frontend(e) => write!(f, "compile error: {e}"),
            SessionError::Invalid(e) => write!(f, "invalid program: {e}"),
            SessionError::Profile(e) => write!(f, "sequential profiling run faulted: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<FrontendError> for SessionError {
    fn from(e: FrontendError) -> SessionError {
        SessionError::Frontend(e)
    }
}

/// The sequential run every parallel execution is diffed against.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// `main`'s return value.
    pub ret: Option<RtVal>,
    /// Everything the program printed.
    pub output: Vec<String>,
    /// Observable global memory after the run.
    pub globals: Vec<(String, Vec<RtVal>)>,
    /// Dynamic instructions executed.
    pub steps: u64,
    /// Wall time of the profiling run (the `sequential_ns` of every
    /// predicted-vs-measured report this session produces). The run uses
    /// `NullSink`, so this is the *untraced* oracle — profile counts and
    /// every check, no dependence bookkeeping — and `measured_speedup` is
    /// not flattered by tracing overhead the runtime never paid.
    pub sequential_ns: u64,
}

/// One abstraction's cached plan: the enumerated plan and its lowered,
/// shareable executable form.
#[derive(Debug)]
pub struct PlanBundle {
    /// The abstraction that produced the plan.
    pub abstraction: Abstraction,
    /// The enumerated plan (techniques, discharged bases, mutexes).
    pub plan: ProgramPlan,
    /// The lowered plan, shared by every runtime executing it.
    pub exec: Arc<ExecutablePlan>,
    /// Ideal-machine parallelism of `plan`, memoized on first use (the
    /// emulation is deterministic, so a fault is memoized too).
    predicted: OnceLock<Result<f64, ExecError>>,
}

impl PlanBundle {
    /// Parallelism the ideal machine predicts for this plan (total
    /// dynamic instructions / plan-constrained critical path), memoized:
    /// concurrent first callers block on the one emulation (single-flight).
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults from the emulation run.
    pub fn predicted_parallelism(&self, program: &ParallelProgram) -> Result<f64, ExecError> {
        self.predicted
            .get_or_init(|| emulate(program, &self.plan).map(|r| r.parallelism()))
            .clone()
    }
}

/// One parallel execution's observable result, pre-diffed against the
/// session's sequential baseline.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The abstraction whose plan ran.
    pub abstraction: Abstraction,
    /// Worker threads the runtime was configured with.
    pub workers: usize,
    /// `main`'s return value.
    pub ret: Option<RtVal>,
    /// Everything the program printed.
    pub output: Vec<String>,
    /// The runtime's dynamic counters.
    pub stats: RunStats,
    /// Dynamic instructions executed (master + workers).
    pub steps: u64,
    /// First observable-global divergence from the sequential baseline
    /// (`None` = the parallel run matches the interpreter).
    pub globals_mismatch: Option<(String, usize)>,
    /// Wall time of the parallel run.
    pub parallel_ns: u64,
}

impl Execution {
    /// Whether this execution is observably identical to the sequential
    /// baseline (globals, return value, and printed output). The return
    /// value is compared bit for bit, so a NaN matches its own bits.
    pub fn matches_baseline(&self, baseline: &Baseline) -> bool {
        let ret_identical = match (self.ret, baseline.ret) {
            (Some(a), Some(b)) => rtval_identical(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        self.globals_mismatch.is_none() && ret_identical && self.output == baseline.output
    }
}

/// A compiled program with cached analyses and plans; `Send + Sync`, so
/// one session serves any number of concurrent planners and executors.
pub struct Session {
    program: Arc<ParallelProgram>,
    key: u64,
    built: Vec<FunctionPsPdg>,
    profile: Profile,
    baseline: Baseline,
    rec: Option<Arc<Recorder>>,
    /// One write-once plan slot per abstraction, indexed by its
    /// discriminant (the order of [`Abstraction::ALL`]).
    plans: [OnceLock<Arc<PlanBundle>>; Abstraction::ALL.len()],
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("key", &format_args!("{:016x}", self.key))
            .field("functions", &self.built.len())
            .field("steps", &self.baseline.steps)
            .finish()
    }
}

impl Session {
    /// Compile ParC `source`, profile it sequentially, and build the
    /// per-function analysis artifacts — the whole cacheable prefix of
    /// the Fig. 2 pipeline, exactly once.
    ///
    /// # Errors
    ///
    /// See [`SessionError`].
    pub fn compile(source: &str) -> Result<Session, SessionError> {
        // The frontend hands back a validated program.
        let program = compile(source)?;
        let key = content_key(&program);
        Session::with_key(Arc::new(program), key, None)
    }

    /// Build a session from an already-constructed program (the NAS
    /// kernels, generated kernels, anything assembled via the builders).
    ///
    /// # Errors
    ///
    /// See [`SessionError`].
    pub fn from_program(program: ParallelProgram) -> Result<Session, SessionError> {
        program.validate().map_err(SessionError::Invalid)?;
        let key = content_key(&program);
        Session::with_key(Arc::new(program), key, None)
    }

    /// The session of an already-validated `program` whose caller holds
    /// `key == content_key(&program)` (the store's slot shares the `Arc`).
    /// With `rec`, the build records `pspdg/pdg_build` and
    /// `pspdg/overlay_assemble` spans, planning `plan/enumerate` spans and
    /// each execution its fallback causes; a reused session records no
    /// build span, which is what the cache tests check.
    pub(crate) fn with_key(
        program: Arc<ParallelProgram>,
        key: u64,
        rec: Option<Arc<Recorder>>,
    ) -> Result<Session, SessionError> {
        // One sequential run doubles as profiler and baseline oracle.
        let t0 = Instant::now();
        let mut interp = Interpreter::new(&program.module);
        let ret = interp
            .run_main(&mut NullSink)
            .map_err(SessionError::Profile)?;
        let sequential_ns = t0.elapsed().as_nanos() as u64;
        let baseline = Baseline {
            ret,
            output: interp.output().to_vec(),
            globals: observable_globals(&program.module, interp.mem()),
            steps: interp.steps(),
            sequential_ns,
        };
        let profile = interp.profile().clone();
        drop(interp);
        let built = build_pspdg_module_recorded(&program, FeatureSet::all(), rec.as_deref());
        Ok(Session {
            program,
            key,
            built,
            profile,
            baseline,
            rec,
            plans: Default::default(),
        })
    }

    /// The content key of the parsed program (cache identity).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The program, shareable.
    pub fn program(&self) -> &Arc<ParallelProgram> {
        &self.program
    }

    /// The sequential execution profile driving hot-loop selection.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The sequential baseline (differential oracle).
    pub fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// The per-function analysis artifacts built at session creation.
    pub fn built(&self) -> &[FunctionPsPdg] {
        &self.built
    }

    /// The plan for `abstraction`, enumerated on first request and cached
    /// — concurrent callers of the same abstraction block until the first
    /// build finishes (single-flight), so a plan is never built twice;
    /// callers of different abstractions never wait on each other.
    pub fn plan(&self, abstraction: Abstraction) -> Arc<PlanBundle> {
        let slot = &self.plans[abstraction as usize];
        Arc::clone(slot.get_or_init(|| Arc::new(self.enumerate(abstraction))))
    }

    /// Enumerate and lower `abstraction`'s plan from the session's
    /// analysis artifacts: the assembled `EffectiveView` PS-PDGs, the
    /// loops and the CFGs — never the PDG build nor the structural
    /// analyses.
    fn enumerate(&self, abstraction: Abstraction) -> PlanBundle {
        let rec = self.rec.as_deref();
        let plan = plan_built_recorded(
            &self.program,
            &self.built,
            &self.profile,
            abstraction,
            DEFAULT_THRESHOLD,
            rec,
        );
        let exec = realize_executable_recorded(&self.program, &self.built, &plan, rec);
        PlanBundle {
            abstraction,
            plan,
            exec: Arc::new(exec),
            predicted: OnceLock::new(),
        }
    }

    /// A fresh runtime for `abstraction`'s cached plan, built from the
    /// shared parts — call freely from any thread, configure with the
    /// usual builder knobs, then `run_main`.
    pub fn runtime(&self, abstraction: Abstraction) -> Runtime {
        let bundle = self.plan(abstraction);
        Runtime::from_shared(Arc::clone(&self.program), Arc::clone(&bundle.exec))
    }

    /// Plan (cached) and execute under `abstraction` with `workers`
    /// threads, returning the result pre-diffed against the sequential
    /// baseline.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] sequential execution would raise (parallel
    /// faults fall back and re-run sequentially first).
    pub fn execute(
        &self,
        abstraction: Abstraction,
        workers: usize,
    ) -> Result<Execution, ExecError> {
        let rt = self.runtime(abstraction).workers(workers);
        self.run_configured(abstraction, &rt)
    }

    /// Execute an already-configured runtime (from [`Session::runtime`],
    /// with whatever builder knobs the caller chose) and diff it against
    /// the baseline. A session with a recorder counts the run's fallback
    /// causes in it.
    ///
    /// # Errors
    ///
    /// See [`Session::execute`].
    pub fn run_configured(
        &self,
        abstraction: Abstraction,
        rt: &Runtime,
    ) -> Result<Execution, ExecError> {
        let t0 = Instant::now();
        let out = rt.run_main()?;
        let parallel_ns = t0.elapsed().as_nanos() as u64;
        // Only the causes: the runtime's spans are named per function and
        // loop, so a daemon that records them keeps an entry for every
        // loop any client ever ran.
        if let Some(rec) = &self.rec {
            for (cause, n) in out.stats.fallbacks.nonzero() {
                rec.add(cause, n);
            }
        }
        let par = observable_globals(&self.program.module, &out.mem);
        Ok(Execution {
            abstraction,
            workers: rt.worker_count(),
            ret: out.ret,
            output: out.output,
            stats: out.stats,
            steps: out.steps,
            globals_mismatch: globals_mismatch(&self.baseline.globals, &par),
            parallel_ns,
        })
    }

    /// Bytes this session keeps alive — the
    /// [`PlanStore`](crate::store::PlanStore)'s LRU currency: each array
    /// it retains, as its length times the `size_of` of what it stores.
    /// Counted: the IR's instruction, block and block-row arenas; per
    /// function its artifacts' own struct, the analyses' block rows
    /// (instructions, CFG successors and predecessors), the PDG's edge
    /// arena and its CSR adjacency by source, and the PS-PDG's node arena,
    /// loop and region rows, leaf map and overlay rewrites;
    /// the profile counters, the baseline's globals and each cached plan's
    /// loops and schedules. Left out: maps, strings, the loop forests and
    /// the per-base and per-loop edge sets. `tests/session_footprint.rs`
    /// holds the charge within 1.5× of a counting allocator's live bytes.
    pub fn approx_bytes(&self) -> usize {
        // Per block the analyses also keep a successor and a predecessor
        // row.
        let block_tables = 2 * size_of::<Vec<BlockId>>();
        let mut bytes = size_of_val(&self.built[..]);
        for f in &self.program.module.functions {
            bytes += size_of_val(&f.insts[..]) + size_of_val(&f.blocks[..]);
        }
        for fp in &self.built {
            let (a, pdg, ps) = (&fp.analyses, &fp.pdg, &fp.pspdg);
            // The analyses' copy of the block rows; the IR's own elements.
            bytes += 2 * rows(&a.block_insts) - size_of_val(&a.block_insts[..]);
            bytes += a.block_insts.len() * block_tables;
            // CSR by source: an edge id per edge and an offset per node.
            bytes += size_of_val(&pdg.edges[..]);
            bytes += size_of::<u32>() * (pdg.edges.len() + pdg.len() + 1);
            bytes += size_of_val(&ps.nodes[..]) + size_of_val(&ps.inst_node[..]);
            bytes += ps.effective.rewrite_count() * size_of::<(u32, PdgEdge)>();
            for node in &ps.nodes[ps.inst_node.len()..] {
                if let NodeKind::Hierarchical { children, .. } = &node.kind {
                    bytes += size_of_val(&children[..]);
                }
            }
        }
        bytes += rows(&self.profile.block_count);
        for (_, cells) in &self.baseline.globals {
            bytes += size_of_val(&cells[..]);
        }
        for b in self.plans.iter().filter_map(OnceLock::get) {
            bytes += size_of::<PlanBundle>() + size_of_val(b.exec.schedules());
            bytes += b.plan.loops.len() * size_of::<LoopPlanSpec>();
        }
        bytes
    }
}

/// Bytes of a table of rows: the row headers and every row's elements.
fn rows<T>(rows: &[Vec<T>]) -> usize {
    size_of_val(rows) + rows.iter().map(|r| size_of_val(&r[..])).sum::<usize>()
}
