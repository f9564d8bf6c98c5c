//! # pspdg-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation:
//!
//! * `cargo run -p pspdg-bench --bin fig11` — the §4 necessity study
//!   (program pairs indistinguishable without each PS-PDG feature);
//! * `cargo run -p pspdg-bench --bin fig13` — parallelization options per
//!   NAS benchmark under OpenMP / PDG / J&K / PS-PDG;
//! * `cargo run -p pspdg-bench --bin fig14` — ideal-machine critical-path
//!   reduction over the OpenMP plan.
//!
//! The `bench_pdg_json` and `bench_runtime_json` bins write the committed
//! `BENCH_pdg.json` / `BENCH_runtime.json` layer numbers.
//! `bench_runtime_json` also attaches a recorder to the suite and reports
//! its span totals, its overhead over an absent recorder, and the opcode
//! tables derived from the oracle run; with `--smoke` it checks that those
//! tables account for every oracle step.

#![warn(missing_docs)]

pub mod necessity;

pub use necessity::{necessity_cases, signature_of, NecessityCase};
