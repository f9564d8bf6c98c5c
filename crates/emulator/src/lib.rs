//! # pspdg-emulator — ideal-machine critical-path measurement
//!
//! Reproduces the paper's §6.3 methodology: "we measure, via an emulator,
//! the critical path of the available parallelism on an ideal machine with
//! unlimited cores, zero cost communication, and perfect memory access …
//! The critical path is computed as the number of dynamic LLVM instructions
//! that must run sequentially given a parallelization plan."
//!
//! ## The machine model
//!
//! Every dynamic instruction costs one cycle. An instruction starts when
//! all its constraints are satisfied:
//!
//! * **lane order** — the plan assigns each dynamic instruction to a lane
//!   (a sequential worker): instructions in the same lane execute in trace
//!   order. Unparallelized code shares one lane, and a DOALL/HELIX
//!   iteration gets its own. A plan is one of those two shapes (DSWP is
//!   counted among Fig. 13's options, never planned), so a lane is fixed
//!   per block: only block boundaries, calls and returns change it;
//! * **true dependences** — register dependences and memory flow (RAW)
//!   dependences: registers from a finish time per instruction of each live
//!   frame (a call's result waits for the callee's `ret`), memory from the
//!   addresses each traced step carries. Anti and output dependences are
//!   ignored (perfect renaming). A cross-iteration flow dependence is
//!   *discharged* when the plan privatizes/reduces the object or the
//!   abstraction declared the iterations independent
//!   (the keys of [`pspdg_parallelizer::LoopPlanSpec::discharged`]);
//! * **mutual exclusion** — dynamic instances of serialized
//!   `critical`/`atomic` groups chain in arrival order;
//! * **HELIX sequential segments** — instructions of sequential SCCs
//!   execute in iteration order;
//! * **reductions** — a parallelized reduction, or an accumulator the
//!   runtime merges the same way (one no lock's stores write), adds a
//!   `⌈log₂(n)⌉`-deep merge at loop exit (tree reduction);
//! * **barriers** — OpenMP worksharing loops without `nowait` and explicit
//!   `barrier` directives join all lanes.
//!
//! The critical path is the maximum finish time; the plan-exposed
//! parallelism of Fig. 14 is `CP(OpenMP) / CP(plan)`.
//!
//! [`emulate`] rides one traced interpreter run on the calling thread; a
//! call nested past [`pspdg_ir::interp::MAX_CALL_DEPTH`] ends it with an
//! error.

#![warn(missing_docs)]

mod machine;
pub mod report;

pub use machine::{emulate, EmulationResult};
pub use report::{compare_plans, CriticalPathRow, PredictedVsMeasured};
