//! # pspdg-obs — low-overhead observability for the PS-PDG pipeline
//!
//! A self-contained (std-only) recording substrate threaded through the
//! whole Fig. 2 pipeline as plain data: no `#[cfg]` gates, and
//! `Option`-cheap when absent or disabled.
//!
//! ```text
//!             ┌──────────── Arc<Recorder> ────────────┐
//!             │  spans · counters · log2 histograms,  │
//!             │  one monotonic epoch                  │
//!             └──────▲──────────────▲─────────────────┘
//!                    │ lock per     │ lock per
//!                    │ span close   │ sample
//!              SpanGuard        add · observe
//!              (phases, activations,   (pool dispatches,
//!               chunk workers)          daemon queue depth)
//! ```
//!
//! Everything is recorded at phase or activation granularity — one mutex
//! lock per event — and nothing per interpreted instruction:
//!
//! * **Spans** ([`Recorder::span`]) — RAII guards for phase- and
//!   activation-granularity timing (one mutex lock per span close).
//!   Exported as Chrome trace-event `"X"` complete events, loadable in
//!   Perfetto / `chrome://tracing`.
//! * **Counters and histograms** ([`Recorder::add`],
//!   [`Recorder::observe`]) — named totals and log2-bucketed samples.
//!
//! Dynamic opcode frequencies are not recorded here: they are the
//! sequential interpreter's per-block counts times each block's static
//! instruction mix (`pspdg_ir::interp::Profile::opcode_counts`).
//!
//! The overhead contract: a **disabled** recorder (or none attached)
//! performs **zero allocations** (`tests/recorder.rs` pins this with a
//! counting global allocator) and costs the engines nothing per
//! instruction; an **enabled** one costs per activation, never per block
//! or per step (`tests/interp_alloc.rs`).
//!
//! Exporters live on [`Snapshot`]: [`Snapshot::chrome_trace_json`]
//! (Perfetto-loadable), [`Snapshot::metrics_json`], and
//! [`Snapshot::text_report`]. The [`json`] module is a dependency-free
//! JSON parser used by the tests and the `profile_json --smoke` gate to
//! validate that emitted traces parse and spans nest properly.

#![warn(missing_docs)]

pub mod export;
pub mod json;
mod recorder;

pub use recorder::{ArgVal, Histogram, Recorder, Snapshot, SpanGuard, TraceEvent};
