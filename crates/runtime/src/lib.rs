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
//!                        │ at a chunked activation it claims chunks
//!                        │ from one cursor with the global pool's
//!                        │ threads (no per-loop or per-runtime spawns)
//!              ┌─────────┴─────────┐
//!              ▼                   ▼
//!          Chunked             Sequential
//!   (DOALL: CoW forks,      (HELIX plans,
//!    dirty-set commit,       anything unproven or
//!    critical commit         under the cost threshold:
//!    replay)                 exact sequential order on
//!                            the master, cause counted)
//! ```
//!
//! Correctness contract: for any program, `Runtime` produces the same
//! output and the same observable final memory as
//! [`pspdg_ir::interp::Interpreter`] — exactly for integers and booleans,
//! and up to reduction re-association ([`check::FLOAT_RTOL`]) for floats;
//! cells protected by critical/atomic regions are reproduced
//! **bit-identically** by the master replaying each region's own
//! instructions at commit (guarded min/max, multi-cell argmin/argmax, and
//! chained updates included — see
//! [`pspdg_parallelizer::CriticalReplay`]). The differential test suite
//! (`tests/differential.rs`) enforces this over the whole NAS suite and
//! generated kernels, including criticals through the replay path, and
//! with runtimes whose masters are themselves global-pool workers.
//!
//! A commit writes each fork's dirty set into the master heap in place.
//! Only a critical replay can abort a commit, so the master copies its
//! heap for rollback only when some fork logged a packet.
//!
//! Every recovery path above is reached by programs that really fault:
//! the fuzz suite (`tests/fault_fuzz.rs`) generates seeded ParC loops
//! that divide by zero, index out of bounds or read an undefined cell in
//! a loop body, inside a critical, or under a critical's guard, and
//! checks each against the sequential interpreter.
//!
//! There is **one engine** and **one parallel strategy**: [`exec`]'s
//! per-instruction interpreter runs the master, every chunk worker, every
//! critical slice and every fallback re-run, and chunked fork/commit is
//! the only way a loop leaves the master, so the bit-identity chain has two
//! links — [`pspdg_ir::interp`] (the oracle) → `exec.rs`. Deciding whether
//! a block the master enters heads a scheduled loop is a table lookup
//! ([`pspdg_parallelizer::ExecutablePlan::headers_in`]), not a hash.
//!
//! Module map: [`exec`] — the engine ([`Runtime`], [`RunStats`],
//! [`FallbackCounts`]); [`Rng64`] — the seeded generator behind fuzz
//! inputs; [`check`] — observable-state extraction for differential testing.
//! The threads live in the shared `pspdg-pool` crate's global pool.

#![warn(missing_docs)]

pub mod check;
pub mod exec;
mod rng;

pub use check::{
    globals_identical_mismatch, globals_mismatch, line_equivalent, observable_globals,
    rtval_equivalent, rtval_identical, FLOAT_RTOL,
};
pub use exec::{
    FallbackCounts, FallbackWhy, RunOutcome, RunStats, Runtime, DEFAULT_COST_THRESHOLD,
};
pub use pspdg_obs::{Recorder, Snapshot};
pub use rng::Rng64;
