//! # pspdg-pdg — the classical Program Dependence Graph
//!
//! This crate implements the sequential-compiler machinery the paper's
//! baseline uses (NOELLE's PDG over LLVM IR, §6.1):
//!
//! * [`alias`] — base-object alias analysis: every pointer is traced
//!   through `gep` chains to its base object (alloca, global, pointer
//!   parameter); distinct base objects do not alias;
//! * [`affine`] — a miniature scalar-evolution analysis that rewrites
//!   subscript expressions as affine forms over canonical induction
//!   variables and loop-invariant symbols;
//! * [`ddtest`] — ZIV / strong-SIV / GCD dependence tests classifying each
//!   memory dependence as loop-carried (per enclosing loop) or
//!   iteration-local;
//! * [`control`] — control dependence via the post-dominator tree
//!   (Ferrante–Ottenstein–Warren);
//! * [`graph`] — the [`Pdg`] itself: one node per IR instruction, edges for
//!   control, flow (RAW), anti (WAR), and output (WAW) dependences;
//! * [`scc`] — Tarjan's SCCs over a loop's dependence subgraph, classifying
//!   each SCC as *sequential* (contains a loop-carried dependence) or
//!   *parallel*, exactly the classification NOELLE's DOALL/HELIX/DSWP use.
//!
//! # Example
//!
//! ```
//! use pspdg_frontend::compile;
//! use pspdg_pdg::{scc::loop_scc_dag, EffectiveView, FunctionAnalyses, Pdg};
//!
//! let program = compile(r#"
//!     int a[64];
//!     void k() {
//!         int i;
//!         for (i = 0; i < 64; i++) { a[i] = i; }   // independent iterations
//!     }
//!     int main() { k(); return 0; }
//! "#).unwrap();
//! let f = program.module.function_by_name("k").unwrap();
//! let analyses = FunctionAnalyses::compute(&program.module, f);
//! let pdg = Pdg::build(&program.module, f, &analyses);
//! let l = analyses.forest.loop_ids().next().unwrap();
//! // The loop body's SCC DAG as the raw PDG sees it, nothing discharged.
//! let view = EffectiveView::identity(&pdg);
//! let sccs = loop_scc_dag(&view, &analyses, l, |e| Some(e.kind.carried_at(l)));
//! // The a[i] store is independent across iterations: the only sequential
//! // SCC is the induction variable's own update chain.
//! let seq: Vec<_> = sccs.sccs.iter().filter(|s| s.sequential).collect();
//! assert_eq!(seq.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod affine;
pub mod alias;
pub mod control;
pub mod ddtest;
pub mod effective;
pub mod graph;
pub mod scc;

pub use affine::{Affine, SymBase, TermVec};
pub use alias::{base_of_varref, trace_base, MemBase};
pub use ddtest::MemRef;
pub use effective::EffectiveView;
pub use graph::{collect_mem_refs, CarriedSet, DepKind, Pdg, PdgEdge};
pub use scc::{LoopScc, SccDag};

use pspdg_ir::{Cfg, DomTree, FuncId, LoopForest, Module};

/// The per-function structural analyses every dependence construction
/// needs, bundled so they are computed once.
#[derive(Debug, Clone)]
pub struct FunctionAnalyses {
    /// The analyzed function.
    pub func: FuncId,
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Natural-loop forest.
    pub forest: LoopForest,
    /// Canonical descriptors for every loop that has one, indexed by loop.
    pub canonical: Vec<Option<pspdg_ir::CanonicalLoop>>,
    /// Instructions of each block (a snapshot of the function's block
    /// lists, so loop instruction sets can be recovered without the module).
    pub block_insts: Vec<Vec<pspdg_ir::InstId>>,
}

impl FunctionAnalyses {
    /// Run all structural analyses for `func`.
    pub fn compute(module: &Module, func: FuncId) -> FunctionAnalyses {
        let f = module.function(func);
        let cfg = Cfg::new(f);
        // The loop forest is the dominator tree's only reader; the
        // post-dominator tree is built by the control-dependence pass.
        let forest = LoopForest::new(f, &cfg, &DomTree::new(&cfg));
        let canonical = forest.loop_ids().map(|l| forest.canonical(f, l)).collect();
        let block_insts = f.blocks.iter().map(|b| b.insts.clone()).collect();
        FunctionAnalyses {
            func,
            cfg,
            forest,
            canonical,
            block_insts,
        }
    }

    /// The canonical descriptor of `loop_id`, if the loop is canonical.
    pub fn canonical_of(&self, loop_id: pspdg_ir::LoopId) -> Option<&pspdg_ir::CanonicalLoop> {
        self.canonical[loop_id.index()].as_ref()
    }
}
