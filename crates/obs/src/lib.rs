//! # pspdg-obs — low-overhead observability for the PS-PDG pipeline
//!
//! A self-contained (std-only) recording substrate threaded through the
//! whole Fig. 2 pipeline as plain data: no `#[cfg]` gates, and
//! `Option`-cheap when absent. Absent is the one off switch.
//!
//! ```text
//!             ┌──────────── Arc<Recorder> ─────────────┐
//!             │  counters · exact per-name span totals │
//!             └──────▲───────────────────────▲─────────┘
//!                    │ lock per              │ lock per
//!                    │ span close            │ bump
//!              SpanGuard                   add
//!              (phases, activations,       (cache hits/misses/evictions,
//!               chunk workers)              fallback causes, queue depth)
//! ```
//!
//! Everything is recorded at phase or activation granularity — one mutex
//! lock per event — and nothing per interpreted instruction:
//!
//! * **Spans** ([`Recorder::span`]) — RAII guards for phase- and
//!   activation-granularity timing. A span that closes adds to its
//!   name's exact total (count, total, max).
//! * **Counters** ([`Recorder::add`]) — named totals.
//!
//! Both are read together through [`Recorder::totals`], as the plan
//! daemon's `metrics` op and the bench bins do. Dynamic opcode
//! frequencies are not recorded here: they are the sequential
//! interpreter's per-block counts times each block's static instruction
//! mix (`pspdg_ir::interp::Profile::opcode_counts`).
//!
//! The overhead contract: **absent is off** — a run with no recorder
//! attached touches none of this crate and costs the engines nothing per
//! instruction; an attached recorder costs per activation, never per
//! block or per step (`tests/interp_alloc.rs`), and holds one entry per
//! distinct name however long it records.
//!
//! The [`json`] module is a dependency-free JSON parser and [`export`]
//! its string escaper: the plan service's wire format is written and read
//! with them.

#![warn(missing_docs)]

pub mod export;
pub mod json;
mod recorder;

pub use recorder::{Recorder, Snapshot, SpanGuard};
