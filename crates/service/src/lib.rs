//! # pspdg-service — the plan service
//!
//! Everything the PS-PDG pipeline produces, behind a thread-safe,
//! content-addressed, cache-everything facade — plus a long-running
//! daemon serving it over localhost TCP.
//!
//! The layers, bottom up:
//!
//! * [`hash`] — FNV-1a content keys over the **parsed** program's own
//!   structure, so formatting-only edits still hit the cache and any
//!   semantic change misses;
//! * [`Session`] — compile once, plan and execute many, concurrently:
//!   one `Arc`-shared program + profile + baseline + per-function
//!   analyses, with a write-once plan per abstraction
//!   ([`Session::plan`] / [`Session::execute`]);
//! * [`PlanStore`] — the content-addressed session cache: equality-checked
//!   hits, a source memo for byte-identical repeats, single-flight builds,
//!   LRU eviction under a byte budget, live hit/miss counters;
//! * [`PlanService`] — the daemon: newline-delimited JSON over TCP, a
//!   bounded request queue drained by plain handler threads, and
//!   graceful shutdown that drains every in-flight request;
//! * [`Client`] — the matching blocking client.
//!
//! The `pspdg_serve` and `pspdg_client` bins wrap the last two.

#![warn(missing_docs)]

pub mod client;
pub mod hash;
pub mod proto;
pub mod server;
pub mod session;
pub mod store;

pub use client::{Client, ClientError};
pub use hash::{content_key, key_hex};
pub use server::{PlanService, ServiceConfig, MAX_REQUEST_BYTES};
pub use session::{Baseline, Execution, PlanBundle, Session, SessionError, DEFAULT_THRESHOLD};
pub use store::{PlanStore, StoreStats, DEFAULT_BUDGET_BYTES};

#[cfg(test)]
mod send_sync_asserts {
    //! The ownership-spine guarantees the whole service rests on,
    //! checked at compile time.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_types_are_send_sync() {
        assert_send_sync::<Session>();
        assert_send_sync::<PlanStore>();
        assert_send_sync::<PlanBundle>();
        assert_send_sync::<pspdg_runtime::Runtime>();
        assert_send_sync::<std::sync::Arc<pspdg_parallelizer::ExecutablePlan>>();
        assert_send_sync::<std::sync::Arc<pspdg_parallel::ParallelProgram>>();
    }
}
