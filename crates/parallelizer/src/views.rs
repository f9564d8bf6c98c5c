//! Per-abstraction dependence views.
//!
//! Every abstraction is an [`EffectiveView`] over the one base PDG its
//! function was built with — a removal mask and sparse kind rewrites, never
//! a second graph; the planners and enumerators are abstraction-agnostic
//! and read each loop through the view's [`LoopDeps`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use pspdg_core::query::LoopDeps;
use pspdg_core::{FunctionPsPdg, PsPdg};
use pspdg_ir::{InstId, LoopId};
use pspdg_parallel::{Directive, DirectiveKind, ParallelProgram};
use pspdg_pdg::{EffectiveView, FunctionAnalyses, Pdg};
use pspdg_pool::BitSet;

/// The program abstraction driving the parallelizer (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Abstraction {
    /// The programmer-encoded OpenMP plan.
    OpenMp,
    /// The PDG over the sequential program.
    Pdg,
    /// PDG + worksharing-loop dependence removal (Jensen & Karlsson).
    Jk,
    /// The PS-PDG.
    PsPdg,
}

impl Abstraction {
    /// All four, in the paper's legend order.
    pub const ALL: [Abstraction; 4] = [
        Abstraction::OpenMp,
        Abstraction::Pdg,
        Abstraction::Jk,
        Abstraction::PsPdg,
    ];
}

impl fmt::Display for Abstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abstraction::OpenMp => write!(f, "OpenMP"),
            Abstraction::Pdg => write!(f, "PDG"),
            Abstraction::Jk => write!(f, "J&K"),
            Abstraction::PsPdg => write!(f, "PS-PDG"),
        }
    }
}

/// The Jensen & Karlsson view: worksharing-loop information removes
/// loop-carried dependences from the PDG \[28\], and nothing else — no
/// orderless/critical reasoning, no data-property knowledge. Dependences
/// with an endpoint inside a `critical`/`atomic`/`ordered` region are kept
/// (the runtime calls those regions lower to are opaque to the analysis).
///
/// Built from each worksharing loop's carried-edge index: only those edges
/// can change, so the overlay's cost follows the annotated loops, not the
/// function's edge count.
pub(crate) fn jk_overlay(
    program: &ParallelProgram,
    analyses: &FunctionAnalyses,
    pdg: &Pdg,
) -> EffectiveView {
    let func = pdg.func;
    let f = program.module.function(func);
    let region_insts = |d: &Directive| -> BitSet {
        d.region
            .blocks
            .iter()
            .flat_map(|&bb| f.block(bb).insts.iter().map(|i| i.index()))
            .collect()
    };
    // Instructions covered by synchronization constructs stay opaque.
    let mut synced = BitSet::new();
    for (_, d) in program.directives_in(func) {
        if matches!(
            d.kind,
            DirectiveKind::Critical { .. } | DirectiveKind::Atomic | DirectiveKind::Ordered
        ) {
            synced.union_with(&region_insts(d));
        }
    }
    // The carried loops each edge loses: a dependence may still be carried
    // at loops the programmer did not annotate.
    let mut gone: BTreeMap<usize, Vec<LoopId>> = BTreeMap::new();
    for (_, d) in program.directives_in(func) {
        if !matches!(
            d.kind,
            DirectiveKind::For { .. }
                | DirectiveKind::CilkFor
                | DirectiveKind::Taskloop
                | DirectiveKind::Simd
        ) {
            continue;
        }
        let Some(l) = d.loop_header.and_then(|header| {
            analyses
                .forest
                .loop_ids()
                .find(|l| analyses.forest.info(*l).header == header)
        }) else {
            continue;
        };
        let insts = region_insts(d);
        let free = |i: InstId| insts.contains(i.index()) && !synced.contains(i.index());
        for ei in pdg.carried_edge_indices(l).iter() {
            let e = &pdg.edges[ei];
            if free(e.src) && free(e.dst) {
                gone.entry(ei).or_default().push(l);
            }
        }
    }
    // Narrow the carried sets; an edge with nothing left is removed.
    let mut removed = BitSet::new();
    let mut rewrites = BTreeMap::new();
    for (ei, gone) in gone {
        let mut e = pdg.edges[ei];
        if e.kind.narrow_carried(|l| gone.contains(&l)) {
            rewrites.insert(ei as u32, e);
        } else {
            removed.insert(ei);
        }
    }
    EffectiveView::new(pdg, removed, rewrites)
}

/// What one abstraction may discharge in one function: its dependence view
/// and, for the PS-PDG, the variables whose semantics apply per loop. The
/// plan builder and the option enumerator both select through here.
pub(crate) struct AbstractionView<'a> {
    view: Cow<'a, EffectiveView>,
    variables: Option<&'a PsPdg>,
    analyses: &'a FunctionAnalyses,
}

impl<'a> AbstractionView<'a> {
    /// PDG is the identity view, J&K its own overlay (built here, so only
    /// when J&K is asked for), and the PS-PDG the overlay its builder
    /// assembled, borrowed. The OpenMP plan discovers no loops of its own;
    /// the loops it declares are read through the PS-PDG.
    pub(crate) fn select(
        abstraction: Abstraction,
        program: &ParallelProgram,
        prepared: &'a FunctionPsPdg,
    ) -> AbstractionView<'a> {
        let FunctionPsPdg {
            analyses,
            pdg,
            pspdg,
            ..
        } = prepared;
        let (view, variables) = match abstraction {
            Abstraction::Pdg => (Cow::Owned(EffectiveView::identity(pdg)), None),
            Abstraction::Jk => (Cow::Owned(jk_overlay(program, analyses, pdg)), None),
            Abstraction::OpenMp | Abstraction::PsPdg => {
                (Cow::Borrowed(&pspdg.effective), Some(pspdg))
            }
        };
        AbstractionView {
            view,
            variables,
            analyses,
        }
    }

    /// How loop `l` reads this view.
    pub(crate) fn at(&self, l: LoopId) -> LoopDeps<'_> {
        LoopDeps::new(&self.view, self.variables, self.analyses, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;

    #[test]
    fn jk_removes_worksharing_carried_deps() {
        let p = compile(
            r#"
            int key[64]; int hist[64];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
        )
        .unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let l = a.forest.loop_ids().next().unwrap();
        let before = pdg.carried_edges(l).count();
        let jk = jk_overlay(&p, &a, &pdg);
        let after = jk.carried_edges(l).count();
        assert!(
            after < before,
            "J&K must remove the histogram's carried deps"
        );
    }

    #[test]
    fn jk_keeps_critical_protected_deps() {
        let p = compile(
            r#"
            int key[64]; int hist[64];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 64; i++) {
                    #pragma omp critical
                    { hist[key[i]] += 1; }
                }
            }
            int main() { k(); return 0; }
            "#,
        )
        .unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let l = a.forest.loop_ids().next().unwrap();
        let jk = jk_overlay(&p, &a, &pdg);
        // The hist accesses are inside the critical region: J&K cannot
        // remove their carried deps.
        let hist_carried = jk
            .carried_edges(l)
            .any(|e| matches!(e.base, Some(pspdg_pdg::MemBase::Global(g)) if g.index() == 1));
        assert!(hist_carried);
    }

    #[test]
    fn jk_ignores_unannotated_loops() {
        let p = compile(
            r#"
            int key[64]; int hist[64];
            void k() {
                int i;
                for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
        )
        .unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let jk = jk_overlay(&p, &a, &pdg);
        assert_eq!(jk.surviving_len(), pdg.edges.len());
        assert_eq!(jk.rewrite_count(), 0);
    }

    #[test]
    fn abstraction_display() {
        assert_eq!(Abstraction::OpenMp.to_string(), "OpenMP");
        assert_eq!(Abstraction::Jk.to_string(), "J&K");
        assert_eq!(Abstraction::ALL.len(), 4);
    }
}
