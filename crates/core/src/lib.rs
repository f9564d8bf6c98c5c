//! # pspdg-core — the Parallel Semantics Program Dependence Graph
//!
//! The paper's primary contribution: an abstraction that captures the
//! *precise parallel constraints* of an explicitly parallel (OpenMP/Cilk)
//! program, decoupled from the parallel execution plan the programmer
//! happened to encode.
//!
//! The data model ([`graph`]) follows Table 1 of the paper exactly; the
//! builder ([`build`]) implements the §5 sufficiency mapping from OpenMP
//! (and Appendix A from Cilk) onto that model; [`features`] reproduces the
//! §4 ablations ("PS-PDG w/o X"); [`query`] exposes the dependence
//! information an automatic parallelizer consumes.
//!
//! ## The pipeline (paper Fig. 12)
//!
//! ```text
//! ParC + pragmas ──frontend──▶ IR + directives ──pdg──▶ PDG
//!                                        │                │
//!                                        └──── build ─────┘
//!                                                 ▼
//!                                              PS-PDG ──query──▶ parallelizer
//! ```
//!
//! # Example
//!
//! ```
//! use pspdg_frontend::compile;
//! use pspdg_pdg::{FunctionAnalyses, Pdg};
//! use pspdg_core::{build_pspdg, FeatureSet, query};
//!
//! // A histogram loop the PDG must serialize (indirect subscript) but the
//! // programmer declared parallel.
//! let program = compile(r#"
//!     int key[64]; int hist[64];
//!     void k() {
//!         int i;
//!         #pragma omp parallel for
//!         for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
//!     }
//!     int main() { k(); return 0; }
//! "#).unwrap();
//! let f = program.module.function_by_name("k").unwrap();
//! let analyses = FunctionAnalyses::compute(&program.module, f);
//! let pdg = Pdg::build(&program.module, f, &analyses);
//! let pspdg = build_pspdg(&program, f, &analyses, &pdg, FeatureSet::all());
//!
//! let l = analyses.forest.loop_ids().next().unwrap();
//! // Under the plain PDG the loop has a blocking carried dependence...
//! assert!(pdg.carried_edges(l).any(|e| e.kind.is_memory()));
//! // ...under the PS-PDG the declaration of independence removed it.
//! assert!(query::blocking_carried_edges(&pspdg, &analyses, l).is_empty());
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod cilk;
pub mod features;
pub mod graph;
pub mod openmp;
pub mod query;

pub use build::{
    build_pspdg, build_pspdg_module, build_pspdg_module_recorded, build_pspdg_with_refs,
    FunctionPsPdg, UNKNOWN_LOOP,
};
pub use features::{Feature, FeatureSet};
pub use graph::{
    Context, ContextId, ContextOrigin, DataSelector, Node, NodeId, NodeKind, NodeTrait, PsEdge,
    PsPdg, SelectorKind, TraitKind, Variable, VariableAccess, VariableKind,
};
