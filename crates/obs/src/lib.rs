//! # pspdg-obs — low-overhead observability for the PS-PDG pipeline
//!
//! A self-contained (std-only) recording substrate threaded through the
//! whole Fig. 2 pipeline the same way `FaultInjector` is: plain data
//! handed to the drivers, no `#[cfg]` gates, and `Option`-cheap when
//! absent or disabled.
//!
//! ```text
//!             ┌─────────────── Arc<Recorder> ───────────────┐
//!             │  spans · counters · log2 histograms · ctxs  │
//!             └──────▲──────────────▲───────────────▲───────┘
//!                    │ lock per     │ flush on      │ flush on
//!                    │ span/event   │ drop/drain    │ drop/drain
//!              SpanGuard        ObsHandle        ObsHandle
//!              (master,         (master engine    (pool worker,
//!               phases,          shard: opcode     per-job shard)
//!               activations)     + pair counts)
//! ```
//!
//! Three recording paths, chosen by frequency:
//!
//! * **Spans** ([`Recorder::span`]) — RAII guards for phase- and
//!   activation-granularity timing (one mutex lock per span close).
//!   Exported as Chrome trace-event `"X"` complete events, loadable in
//!   Perfetto / `chrome://tracing`.
//! * **Instants** ([`Recorder::instant`]) — point events for
//!   fault injections and pool respawns, in the same stream.
//! * **Shards** ([`ObsHandle`]) — per-thread, lock-free opcode frequency
//!   and opcode-pair profiles (superinstruction candidates) plus local
//!   counters, merged into the central recorder on flush/drop. This is
//!   the only path hot enough to run per interpreted instruction.
//!
//! The overhead contract: a **disabled** recorder (or none attached)
//! costs the engines exactly one never-taken branch per instruction and
//! performs **zero allocations** (`tests/recorder.rs` pins this with a
//! counting global allocator). An **enabled** recorder costs one array
//! index + store per instruction on the shard path.
//!
//! Exporters live on [`Snapshot`]: [`Snapshot::chrome_trace_json`]
//! (Perfetto-loadable), [`Snapshot::metrics_json`], and
//! [`Snapshot::text_report`]. The [`json`] module is a dependency-free
//! JSON parser used by the tests and the `profile_json --smoke` gate to
//! validate that emitted traces parse and spans nest properly.

#![warn(missing_docs)]

pub mod export;
pub mod json;
mod opcode;
mod recorder;

pub use opcode::{Opcode, OpcodeProfile, OPCODE_COUNT};
pub use recorder::{ArgVal, Histogram, ObsHandle, Recorder, Snapshot, SpanGuard, TraceEvent};
