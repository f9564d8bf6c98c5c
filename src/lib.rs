//! # pspdg — facade crate for the PS-PDG reproduction
//!
//! Re-exports every crate of the workspace under one roof so examples and
//! downstream users can depend on a single crate. See `ARCHITECTURE.md`
//! at the repository root for the crate map and pipeline walkthrough.
//!
//! # Example: compile, plan, and execute a program end-to-end
//!
//! The whole Fig. 2 loop in one doctest. A [`Session`] compiles the ParC
//! source, profiles it sequentially (keeping the run as the correctness
//! baseline), builds the per-function PDG/PS-PDG artifacts once, and
//! caches a plan per abstraction; executing checks the parallel run
//! against the sequential baseline automatically. Sessions are
//! `Send + Sync` — plan and execute from as many threads as you like.
//!
//! ```
//! use pspdg::parallelizer::Abstraction;
//! use pspdg::Session;
//!
//! let session = Session::compile(
//!     r#"
//!     int v[64]; int s;
//!     void k() {
//!         int i;
//!         #pragma omp parallel for reduction(+: s)
//!         for (i = 0; i < 64; i++) { v[i] = i * 2; s += i; }
//!     }
//!     int main() { k(); return s; }
//!     "#,
//! )
//! .unwrap();
//!
//! // The best plan under the PS-PDG abstraction (enumerated once, cached).
//! let bundle = session.plan(Abstraction::PsPdg);
//! assert!(!bundle.plan.loops.is_empty(), "the hot loop was planned");
//!
//! // Execute on real threads (cost gate off so the tiny example
//! // actually parallelizes) and diff against the sequential baseline.
//! let rt = session
//!     .runtime(Abstraction::PsPdg)
//!     .workers(2)
//!     .cost_threshold(0);
//! let out = session.run_configured(Abstraction::PsPdg, &rt).unwrap();
//!
//! assert_eq!(out.ret, session.baseline().ret);
//! assert!(out.stats.chunked_loops >= 1, "the loop ran in parallel");
//! assert_eq!(out.globals_mismatch, None, "memory matches the interpreter");
//! ```
//!
//! For many programs, wrap sessions in a [`PlanStore`]: a
//! content-addressed cache (keyed on the *parsed* module, so reformatting
//! the source still hits) with single-flight builds and an LRU byte
//! budget. The `pspdg_serve` daemon exposes the same pipeline over
//! localhost TCP — see `pspdg::service`.

#![warn(missing_docs)]

pub use pspdg_core as core;
pub use pspdg_emulator as emulator;
pub use pspdg_frontend as frontend;
pub use pspdg_ir as ir;
pub use pspdg_nas as nas;
pub use pspdg_obs as obs;
pub use pspdg_parallel as parallel;
pub use pspdg_parallelizer as parallelizer;
pub use pspdg_pdg as pdg;
pub use pspdg_runtime as runtime;
pub use pspdg_service as service;

pub use pspdg_service::{PlanStore, Session};
