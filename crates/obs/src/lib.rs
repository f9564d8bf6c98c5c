//! # pspdg-obs — low-overhead observability for the PS-PDG pipeline
//!
//! A self-contained (std-only) recording substrate threaded through the
//! whole Fig. 2 pipeline as plain data: no `#[cfg]` gates, and
//! `Option`-cheap when absent. Absent is the one off switch.
//!
//! ```text
//!             ┌──────────────── Arc<Recorder> ─────────────────┐
//!             │  counters · exact per-name span totals ·       │
//!             │  trace of the newest TRACE_EVENTS spans,       │
//!             │  one monotonic epoch                           │
//!             └──────▲───────────────────────▲─────────────────┘
//!                    │ lock per              │ lock per
//!                    │ span close            │ bump
//!              SpanGuard                   add
//!              (phases, activations,       (cache hits/misses/evictions,
//!               chunk workers)              daemon queue depth)
//! ```
//!
//! Everything is recorded at phase or activation granularity — one mutex
//! lock per event — and nothing per interpreted instruction:
//!
//! * **Spans** ([`Recorder::span`]) — RAII guards for phase- and
//!   activation-granularity timing. A span that closes adds to its
//!   name's exact total (count, total, max) and joins the trace, which
//!   keeps the newest [`TRACE_EVENTS`] events and counts each one it
//!   overwrites under [`DROPPED_EVENTS`]. The trace exports as Chrome
//!   trace-event `"X"` complete events, loadable in Perfetto /
//!   `chrome://tracing`.
//! * **Counters** ([`Recorder::add`]) — named totals.
//!
//! Dynamic opcode frequencies are not recorded here: they are the
//! sequential interpreter's per-block counts times each block's static
//! instruction mix (`pspdg_ir::interp::Profile::opcode_counts`).
//!
//! The overhead contract: **absent is off** — a run with no recorder
//! attached touches none of this crate and costs the engines nothing per
//! instruction; an attached recorder costs per activation, never per
//! block or per step (`tests/interp_alloc.rs`), and holds bounded memory
//! however long it records.
//!
//! Exporters live on [`Snapshot`]: [`Snapshot::chrome_trace_json`]
//! (the trace, Perfetto-loadable), [`Snapshot::metrics_json`] and
//! [`Snapshot::text_report`] (the totals). The [`json`] module is a
//! dependency-free JSON parser used by the tests and the
//! `profile_json --smoke` gate to validate that emitted traces parse and
//! spans nest properly.

#![warn(missing_docs)]

pub mod export;
pub mod json;
mod recorder;

pub use recorder::{
    ArgVal, Recorder, Snapshot, SpanGuard, TraceEvent, DROPPED_EVENTS, TRACE_EVENTS,
};
