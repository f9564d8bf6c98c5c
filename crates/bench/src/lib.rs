//! # pspdg-bench — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation:
//!
//! * `cargo run -p pspdg-bench --bin fig11` — the §4 necessity study
//!   (program pairs indistinguishable without each PS-PDG feature);
//! * `cargo run -p pspdg-bench --bin fig13` — parallelization options per
//!   NAS benchmark under OpenMP / PDG / J&K / PS-PDG;
//! * `cargo run -p pspdg-bench --bin fig14` — ideal-machine critical-path
//!   reduction over the OpenMP plan;
//! * `cargo bench -p pspdg-bench` — Criterion micro-benchmarks of the
//!   pipeline itself (front-end, PDG/PS-PDG construction, enumeration).

#![warn(missing_docs)]

pub mod necessity;

pub use necessity::{necessity_cases, signature_of, NecessityCase};
