//! # pspdg-pool — the shared execution substrate
//!
//! One crate, three building blocks, no dependency on any analysis or
//! runtime code — so both layers of the PS-PDG pipeline (the analysis
//! sweeps that *build* dependence graphs and the runtime that
//! *executes* the resulting plans) run on the same battle-hardened
//! threads:
//!
//! - [`WorkerPool`] / [`Scope`] — the persistent worker pool, with scoped
//!   borrowing jobs and [`WorkerPool::help`], which runs one closure on the
//!   caller and on whichever workers are free; a panicking job is caught
//!   on its worker, so the pool keeps its threads.
//! - [`Channel`] — the bounded queue that drains after close (the plan
//!   daemon's job queue).
//! - [`BitSet`] — packed dense-id sets with one-shift membership
//!   and ascending iteration, the representation behind the PDG's edge
//!   indexes and the directive passes' instruction sets.
//!
//! Plus [`par_map`], the order-preserving pool-backed map behind the
//! per-function analysis sweeps, and [`global`], the lazily-created
//! process-wide pool those sweeps share.

#![warn(missing_docs)]

pub mod bitset;
pub mod channel;
pub mod par;
pub mod pool;

pub use bitset::BitSet;
pub use channel::Channel;
pub use par::{default_width, global, par_map};
pub use pool::{Scope, WorkerPool};
