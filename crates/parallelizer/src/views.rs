//! Per-abstraction dependence views.
//!
//! Every abstraction is one graph of the §4 lattice over the base PDG its
//! function was built with (`Abstraction::graph`): the PDG itself, or a
//! PS-PDG with some feature set — J&K is `{C}`. Each is an
//! [`EffectiveView`] of that PDG (a removal mask and sparse kind rewrites,
//! never a second graph); the planners and enumerators are
//! abstraction-agnostic and read each loop through the view's
//! [`LoopDeps`].

use std::borrow::Cow;
use std::fmt;

use pspdg_core::query::LoopDeps;
use pspdg_core::{build_pspdg, Feature, FeatureSet, FunctionPsPdg, PsPdg};
use pspdg_ir::LoopId;
use pspdg_parallel::ParallelProgram;
use pspdg_pdg::{EffectiveView, FunctionAnalyses};

/// The program abstraction driving the parallelizer (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Abstraction {
    /// The programmer-encoded OpenMP plan.
    OpenMp,
    /// The PDG over the sequential program.
    Pdg,
    /// PDG + worksharing-loop dependence removal (Jensen & Karlsson): the
    /// PS-PDG with contexts only.
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

    /// The graph this abstraction plans from, when the module's PS-PDG was
    /// built with `built`: `None` is the base PDG, `Some(fs)` the PS-PDG
    /// with features `fs`. J&K is the point `{C}` of the §4 lattice: the
    /// PDG plus worksharing-loop independence \[28\], with every region
    /// that synchronizes kept opaque.
    pub(crate) fn graph(self, built: FeatureSet) -> Option<FeatureSet> {
        match self {
            Abstraction::Pdg => None,
            Abstraction::Jk => Some(FeatureSet::none().with(Feature::Contexts)),
            Abstraction::OpenMp | Abstraction::PsPdg => Some(built),
        }
    }
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

/// One abstraction's graph of one function, as its loops read it. The plan
/// builder and the option enumerator both select through here.
pub(crate) struct AbstractionView<'a> {
    graph: Graph<'a>,
    analyses: &'a FunctionAnalyses,
}

enum Graph<'a> {
    /// The base PDG's identity view.
    Pdg(EffectiveView),
    /// A PS-PDG: its overlay and its variables.
    PsPdg(Cow<'a, PsPdg>),
}

impl<'a> AbstractionView<'a> {
    /// The view of `graph` (see [`Abstraction::graph`]): the base PDG's
    /// identity view, the PS-PDG `prepared` holds when the features match,
    /// borrowed, and otherwise that point of the lattice, built here from
    /// `prepared`'s PDG (so only for a function that asks).
    pub(crate) fn select(
        graph: Option<FeatureSet>,
        program: &ParallelProgram,
        prepared: &'a FunctionPsPdg,
    ) -> AbstractionView<'a> {
        let FunctionPsPdg {
            func,
            analyses,
            pdg,
            pspdg,
        } = prepared;
        let graph = match graph {
            None => Graph::Pdg(EffectiveView::identity(pdg)),
            Some(fs) if fs == pspdg.features => Graph::PsPdg(Cow::Borrowed(pspdg)),
            Some(fs) => Graph::PsPdg(Cow::Owned(build_pspdg(program, *func, analyses, pdg, fs))),
        };
        AbstractionView { graph, analyses }
    }

    /// The PS-PDG this view reads, if it is one.
    pub(crate) fn pspdg(&self) -> Option<&PsPdg> {
        match &self.graph {
            Graph::Pdg(_) => None,
            Graph::PsPdg(ps) => Some(ps),
        }
    }

    /// How loop `l` reads this view.
    pub(crate) fn at(&self, l: LoopId) -> LoopDeps<'_> {
        match &self.graph {
            Graph::Pdg(view) => LoopDeps::new(view, self.analyses, l),
            Graph::PsPdg(ps) => LoopDeps::of_pspdg(ps, self.analyses, l),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abstraction_display() {
        assert_eq!(Abstraction::OpenMp.to_string(), "OpenMP");
        assert_eq!(Abstraction::Jk.to_string(), "J&K");
        assert_eq!(Abstraction::ALL.len(), 4);
    }
}
