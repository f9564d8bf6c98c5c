//! A copy-on-write *effective graph*: a base [`Pdg`] overlaid with the
//! edge removals and carried-set rewrites a semantic abstraction (the
//! PS-PDG's directive passes) justifies.
//!
//! Re-assembling the effective graph after a directive-set change used to
//! deep-clone every surviving edge into a fresh [`Pdg`] — an O(E) copy per
//! build, paid once per candidate directive set by the enumeration sweep.
//! An [`EffectiveView`] instead *borrows* the base graph's edge arena
//! (shared through the `Pdg`'s reference-counted storage) and carries only
//!
//! * a **removed-edge bitmask** — one bit per base edge;
//! * a **sparse rewrite map** — the few edges whose
//!   [`DepKind`](crate::DepKind) changed
//!   (a worksharing declaration *narrowing* the carried set, or the
//!   context ablation *blurring* it to the sentinel loop);
//! * small per-loop **carried deltas** derived from the rewrites, so
//!   carried-loop queries stay index-driven even for loops (the blur
//!   sentinel) absent from the base index.
//!
//! The queries the planner reads (the surviving edges, out-edges for the
//! SCC walk, the edges carried at a loop) are answered through the mask
//! without rebuilding CSR indexes; the directive passes that build the
//! overlay read the base [`Pdg`]'s indexes directly. It is the one
//! dependence view every abstraction plans from: the plain PDG is
//! [`EffectiveView::identity`], J&K narrows the worksharing loops' carried
//! edges, the PS-PDG applies its directive passes. Nothing owns a second
//! graph; `materialize` (behind the `oracle` feature, next to
//! `Pdg::build_naive`) exists only as the reference the overlay tests
//! compare every query against.
//!
//! ## Invariants
//!
//! * A rewrite never changes an edge's `src`, `dst`, or `base` — only its
//!   kind (checked in debug builds). Out-edge queries can therefore
//!   filter the base adjacency by the mask alone.
//! * Rewrite keys are never removed edges.
//! * A rewrite never turns an uncarried edge into a carried one except
//!   through loops recorded in the carried deltas (the constructor derives
//!   the deltas, so this holds by construction).

use std::collections::BTreeMap;

use pspdg_ir::{InstId, LoopId};
use pspdg_pool::BitSet;

use crate::graph::{Pdg, PdgEdge};

/// A base [`Pdg`] plus the edge-overlay (removals, kind rewrites) of an
/// effective dependence graph. See the module docs for the representation
/// and its invariants.
#[derive(Debug, Clone)]
pub struct EffectiveView {
    /// The base graph (shares the edge arena with whoever built it).
    base: Pdg,
    /// Removed base edge ids, as a packed [`BitSet`] over the arena.
    removed: BitSet,
    /// Sparse per-edge kind rewrites (same `src`/`dst`/`base` as the base
    /// edge). Each entry is the overlay's only per-edge clone.
    rewrites: BTreeMap<u32, PdgEdge>,
    /// Rewritten edges carried at a loop the base index does not list them
    /// under (the blur sentinel), per loop.
    carried_added: BTreeMap<LoopId, Vec<u32>>,
}

impl EffectiveView {
    /// Build a view of `base` removing the edge ids in `removed` and
    /// replacing the kinds of the `rewrites` entries.
    ///
    /// Debug builds assert the rewrite invariants (keys survive, only the
    /// kind differs from the base edge).
    pub fn new(base: &Pdg, removed: BitSet, rewrites: BTreeMap<u32, PdgEdge>) -> EffectiveView {
        let mut carried_added: BTreeMap<LoopId, Vec<u32>> = BTreeMap::new();
        for (&ei, e) in &rewrites {
            let orig = &base.edges[ei as usize];
            debug_assert!(!removed.contains(ei as usize), "rewrite of a removed edge");
            debug_assert_eq!((e.src, e.dst, e.base), (orig.src, orig.dst, orig.base));
            for &l in e.kind.carried() {
                if !orig.kind.carried_at(l) {
                    carried_added.entry(l).or_default().push(ei);
                }
            }
        }
        EffectiveView {
            base: base.clone(),
            removed,
            rewrites,
            carried_added,
        }
    }

    /// A view that removes and rewrites nothing (the plain PDG; allocates
    /// nothing, the arena is shared).
    pub fn identity(base: &Pdg) -> EffectiveView {
        EffectiveView::new(base, BitSet::new(), BTreeMap::new())
    }

    /// The base graph the overlay refines.
    pub fn base(&self) -> &Pdg {
        &self.base
    }

    /// Whether base edge `ei` is removed in the effective graph.
    pub fn is_removed(&self, ei: u32) -> bool {
        self.removed.contains(ei as usize)
    }

    /// Number of surviving edges.
    pub fn surviving_len(&self) -> usize {
        self.base.edges.len() - self.removed.len()
    }

    /// Number of per-edge clones the overlay carries (its rewrite entries)
    /// — the *only* edges the assemble step copied. Surfaced by the bench
    /// harness to certify the rebuild path allocates no per-edge clones
    /// beyond the rewrites a directive set forces.
    pub fn rewrite_count(&self) -> usize {
        self.rewrites.len()
    }

    /// The effective edge with base-arena id `ei` (the rewritten kind if
    /// the overlay changed it). Callable for removed ids too; pair with
    /// [`EffectiveView::is_removed`] when that matters.
    pub fn edge(&self, ei: u32) -> &PdgEdge {
        self.rewrites
            .get(&ei)
            .unwrap_or_else(|| &self.base.edges[ei as usize])
    }

    /// Ids of every surviving edge, ascending.
    pub fn edge_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.base.edges.len() as u32).filter(move |ei| !self.is_removed(*ei))
    }

    /// Every surviving edge (with rewrites applied), in id order.
    pub fn edges(&self) -> impl Iterator<Item = &PdgEdge> + '_ {
        self.edge_ids().map(move |ei| self.edge(ei))
    }

    /// Surviving outgoing edges of `inst` (the SCC walk's adjacency).
    pub fn edges_from(&self, inst: InstId) -> impl Iterator<Item = &PdgEdge> + '_ {
        self.base
            .edge_indices_from(inst)
            .iter()
            .filter(move |ei| !self.is_removed(**ei))
            .map(move |&ei| self.edge(ei))
    }

    /// Surviving edges whose *effective* kind is carried at `l`: the base
    /// per-loop index filtered by the mask and by rewrites that narrowed
    /// `l` away, plus rewrites that made the edge carried at `l` (the blur
    /// sentinel). No duplicates; order is unspecified.
    pub fn carried_edges(&self, l: LoopId) -> impl Iterator<Item = &PdgEdge> + '_ {
        let from_base = self
            .base
            .carried_edge_indices(l)
            .iter()
            .map(|ei| ei as u32)
            .filter(move |&ei| !self.is_removed(ei) && self.edge(ei).kind.carried_at(l));
        let added = self
            .carried_added
            .get(&l)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(move |&ei| !self.is_removed(ei));
        from_base.chain(added).map(move |ei| self.edge(ei))
    }

    /// The effective graph as an owned [`Pdg`]: an O(E) clone plus a CSR
    /// rebuild, kept only as the oracle the overlay tests hold every view
    /// query against.
    #[cfg(any(test, feature = "oracle"))]
    pub fn materialize(&self) -> Pdg {
        let edges: Vec<PdgEdge> = self.edges().cloned().collect();
        Pdg::from_edges(self.base.func, self.base.len(), edges)
    }
}
