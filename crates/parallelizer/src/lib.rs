//! # pspdg-parallelizer — the NOELLE-style automatic parallelizer
//!
//! Implements the paper's evaluation pipeline (§6.1–§6.2): profile-driven
//! hot-loop selection (≥ 1 % coverage), SCC-based applicability of three
//! loop parallelization techniques (DOALL, HELIX, DSWP), parallelization-
//! option enumeration under four abstractions, and the construction of
//! concrete parallel execution plans for the ideal-machine emulator. A
//! plan parallelizes a loop with DOALL or HELIX; DSWP lives only in the
//! option counts of Fig. 13.
//!
//! The four abstractions compared throughout (paper Figs. 13 & 14):
//!
//! * [`Abstraction::OpenMp`] — the programmer-encoded plan: only the loops
//!   the source annotates are parallel, tunable through environment
//!   variables (threads × chunk sizes);
//! * [`Abstraction::Pdg`] — NOELLE's PDG over the *sequential* version of
//!   the program;
//! * [`Abstraction::Jk`] — the PDG improved with worksharing-loop
//!   information, after Jensen & Karlsson: the PS-PDG with contexts only;
//! * [`Abstraction::PsPdg`] — the paper's contribution.
//!
//! Each of the last three is one graph of the §4 feature lattice, and
//! the planner and the option enumerator read only that graph; only the
//! OpenMP plan follows the annotations as written.

#![warn(missing_docs)]

pub mod assess;
pub mod enumerate;
pub mod hotloops;
pub mod machine;
pub mod plan;
pub mod schedule;
pub mod views;

pub use enumerate::{
    enumerate_program, enumerate_program_with_features, FunctionOptions, ProgramOptions,
};
pub use machine::MachineModel;
pub use plan::{
    build_plan, plan_built, Discharge, LoopPlanSpec, MutexSpec, PlannedTechnique, ProgramPlan,
};
pub use schedule::{
    realize_built, realize_executable, ChunkedLoop, CriticalReplay, ExecutablePlan, LoopExec,
    LoopSchedule, RealizationStats, SequentialWhy,
};
pub use views::Abstraction;
