//! # pspdg-runtime — the plan-driven multi-threaded executor
//!
//! Closes the loop of the paper's Fig. 2 pipeline: the chosen parallel
//! execution plan is not only *emulated* on an ideal machine
//! (`pspdg-emulator`) but *executed* on real threads, turning predicted
//! parallelism into measured wall-clock behavior with the sequential
//! interpreter as the correctness oracle.
//!
//! ```text
//!   ParallelProgram ──▶ ProgramPlan ──▶ realize_executable ──▶ LoopSchedule*
//!                                                        │
//!                        ┌───────────────────────────────┘
//!                        ▼
//!                  Runtime::run_main
//!                        │ master thread interprets sequentially;
//!                        │ a persistent WorkerPool serves every
//!                        │ parallel activation (no per-loop spawns)
//!         ┌──────────────┼──────────────────┐
//!         ▼              ▼                  ▼
//!     Chunked        Pipeline          Sequential
//!   (DOALL: CoW     (DSWP: stage     (anything unproven
//!    forks, dirty-   jobs over        or under the cost
//!    set commit,     bounded chans,   threshold: exact
//!    critical        stages com-      sequential order,
//!    commit replay)  pressed to       with the cause
//!                    the pool width)  counted)
//! ```
//!
//! Correctness contract: for any program, `Runtime` produces the same
//! output and the same observable final memory as
//! [`pspdg_ir::interp::Interpreter`] — exactly for integers and booleans,
//! and up to reduction re-association ([`check::FLOAT_RTOL`]) for floats;
//! cells protected by critical/atomic regions are reproduced
//! **bit-identically** through the value-predicated critical replay
//! programs (guarded min/max, multi-cell argmin/argmax, and chained
//! updates included — see [`pspdg_parallelizer::CriticalReplay`]). The
//! differential test suite (`tests/differential.rs`) enforces this over
//! the whole NAS suite and generated kernels, including criticals through
//! the replay path, and a pool-reuse regression test asserts the worker
//! threads survive across activations.
//!
//! Every recovery path above is *provable on demand*: the [`fault`]
//! module injects deterministic, site-addressed faults (worker panics,
//! speculative-slice faults, replay faults, stage stalls, pool-thread
//! deaths) behind a zero-cost-when-disabled hook, the pool **respawns**
//! dead workers without losing jobs, and pipeline channels carry watchdog
//! timeouts so a silent stage aborts the activation (`stage_timeout`)
//! instead of hanging the master. The fault-schedule fuzz suite
//! (`tests/fault_fuzz.rs`) drives random seeded schedules across every
//! kernel and asserts the fallback-parity contract held.
//!
//! There is **one engine**: [`exec`]'s per-instruction interpreter runs
//! the master, every chunk worker, every pipeline stage, every critical
//! slice and every fallback re-run, so the bit-identity chain has two
//! links — [`pspdg_ir::interp`] (the oracle) → `exec.rs`. Deciding whether
//! a block the master enters heads a scheduled loop is a table lookup
//! ([`pspdg_parallelizer::ExecutablePlan::headers_in`]), not a hash.
//!
//! Module map: [`exec`] — the engine ([`Runtime`], [`RunStats`],
//! [`FallbackCounts`]); [`fault`] — deterministic fault injection
//! ([`FaultPlan`], [`FaultInjector`]);
//! [`check`] — observable-state extraction for differential testing.
//! The persistent, self-healing scoped [`WorkerPool`] and the bounded
//! DSWP decoupling buffer with watchdog sends/recvs
//! ([`pspdg_pool::Channel`]) live in the shared `pspdg-pool` crate.

#![warn(missing_docs)]

pub mod check;
pub mod exec;
pub mod fault;

pub use check::{
    global_cells, globals_identical_mismatch, globals_mismatch, line_equivalent,
    observable_globals, rtval_equivalent, rtval_identical, FLOAT_RTOL,
};
pub use exec::{
    FallbackCounts, RunOutcome, RunStats, Runtime, DEFAULT_COST_THRESHOLD,
    DEFAULT_PIPELINE_MIN_BODY, DEFAULT_STAGE_WATCHDOG,
};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSite, Injection, Rng64};
pub use pspdg_obs::{Recorder, Snapshot};
pub use pspdg_pool::WorkerPool;
