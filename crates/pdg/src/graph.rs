//! The Program Dependence Graph.
//!
//! Memory-dependence construction is *bucketed by base object*: the
//! all-pairs O(R²) sweep over memory references is replaced by pair
//! enumeration within [`MemBase`] buckets, plus the two cross-bucket
//! families the alias lattice allows (`Unknown` against every non-I/O
//! bucket, and pointer parameters against globals). The naive sweep,
//! [`Pdg::build_naive`], is kept as the reference: property tests and
//! `tests/pdg_pin.rs` assert both builders emit identical edge sets.
//!
//! Edges are stored once in a flat arena and served through an
//! `EdgeIndex`: CSR-style per-source adjacency (the SCC walk's direction;
//! no reader walks edges backwards, so no per-destination index is kept),
//! a per-base-object index, and a per-loop carried-dependence index, so
//! the PS-PDG directive passes and per-loop queries never rescan the full
//! edge list.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use pspdg_ir::{BlockId, FuncId, Inst, InstId, Intrinsic, LoopId, Module, PostDomTree, Value};
use pspdg_pool::BitSet;

use crate::affine::{affine_of, Affine};
use crate::alias::{may_alias, trace_base, MemBase};
use crate::control::control_dependences;
use crate::ddtest::{test_dependence, DepTestResult, MemRef};
use crate::FunctionAnalyses;

/// Loops a carried set holds without a heap allocation: 3 is the deepest
/// carried nest any bundled program produces.
const INLINE_LOOPS: usize = 3;

/// The loops a memory dependence is carried at, in the order the
/// dependence test found them (innermost first). Up to three are stored
/// inline; a longer set is interned once per distinct content for the
/// life of the process (a nest that deep is rare and its sets repeat), so
/// the set — and every edge holding one — is `Copy` and never frees.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CarriedSet(Loops);

/// Unused inline slots stay `LoopId(0)`, so the derived equality sees only
/// the set's contents.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Loops {
    Inline(u8, [LoopId; INLINE_LOOPS]),
    Spilled(&'static Vec<LoopId>),
}

impl Default for CarriedSet {
    fn default() -> CarriedSet {
        CarriedSet(Loops::Inline(0, [LoopId(0); INLINE_LOOPS]))
    }
}

impl std::ops::Deref for CarriedSet {
    type Target = [LoopId];

    fn deref(&self) -> &[LoopId] {
        match &self.0 {
            Loops::Inline(n, loops) => &loops[..*n as usize],
            Loops::Spilled(loops) => loops,
        }
    }
}

impl FromIterator<LoopId> for CarriedSet {
    fn from_iter<I: IntoIterator<Item = LoopId>>(iter: I) -> CarriedSet {
        let (mut iter, mut loops, mut n) = (iter.into_iter(), [LoopId(0); INLINE_LOOPS], 0);
        while let Some(l) = iter.next() {
            if n == INLINE_LOOPS {
                let all = loops.into_iter().chain([l]).chain(iter).collect();
                return CarriedSet(Loops::Spilled(intern(all)));
            }
            loops[n] = l;
            n += 1;
        }
        CarriedSet(Loops::Inline(n as u8, loops))
    }
}

/// `loops`, leaked once per distinct content.
fn intern(loops: Vec<LoopId>) -> &'static Vec<LoopId> {
    static SPILLED: Mutex<BTreeSet<&'static Vec<LoopId>>> = Mutex::new(BTreeSet::new());
    let mut spilled = SPILLED.lock().expect("spilled carried-set lock");
    if let Some(interned) = spilled.get(&loops) {
        return interned;
    }
    let interned = Box::leak(Box::new(loops));
    spilled.insert(interned);
    interned
}

impl From<&[LoopId]> for CarriedSet {
    fn from(loops: &[LoopId]) -> CarriedSet {
        loops.iter().copied().collect()
    }
}

impl std::fmt::Debug for CarriedSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The kind of a PDG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Control dependence: `dst` executes only if `src` (a branch) takes a
    /// particular direction.
    Control,
    /// Read-after-write through a register operand (never loop-carried in
    /// this alloca-based IR).
    Register,
    /// Read-after-write through memory.
    Flow {
        /// Loops at which the dependence is (possibly) carried.
        carried: CarriedSet,
        /// Whether an equal-iteration dependence is possible.
        intra: bool,
    },
    /// Write-after-read through memory.
    Anti {
        /// Loops at which the dependence is (possibly) carried.
        carried: CarriedSet,
        /// Whether an equal-iteration dependence is possible.
        intra: bool,
    },
    /// Write-after-write through memory.
    Output {
        /// Loops at which the dependence is (possibly) carried.
        carried: CarriedSet,
        /// Whether an equal-iteration dependence is possible.
        intra: bool,
    },
}

impl DepKind {
    /// Whether this is a memory dependence (flow/anti/output).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            DepKind::Flow { .. } | DepKind::Anti { .. } | DepKind::Output { .. }
        )
    }

    /// Loops this dependence is carried at (empty for control/register).
    pub fn carried(&self) -> &[LoopId] {
        match self {
            DepKind::Flow { carried, .. }
            | DepKind::Anti { carried, .. }
            | DepKind::Output { carried, .. } => carried,
            _ => &[],
        }
    }

    /// Whether the dependence is carried at `l`.
    pub fn carried_at(&self, l: LoopId) -> bool {
        self.carried().contains(&l)
    }

    /// Drop the loops `gone` accepts from a memory dependence's carried set
    /// (a worksharing declaration says they carry nothing); returns whether
    /// the edge still constrains anything — some carried loop left, or an
    /// equal-iteration dependence.
    pub fn narrow_carried(&mut self, gone: impl Fn(LoopId) -> bool) -> bool {
        match self {
            DepKind::Flow { carried, intra }
            | DepKind::Anti { carried, intra }
            | DepKind::Output { carried, intra } => {
                *carried = carried.iter().copied().filter(|l| !gone(*l)).collect();
                !carried.is_empty() || *intra
            }
            _ => true,
        }
    }

    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            DepKind::Control => "control",
            DepKind::Register => "register",
            DepKind::Flow { .. } => "flow",
            DepKind::Anti { .. } => "anti",
            DepKind::Output { .. } => "output",
        }
    }
}

/// One dependence edge: a 48-byte `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdgEdge {
    /// Producer / controller instruction.
    pub src: InstId,
    /// Consumer / controlled instruction.
    pub dst: InstId,
    /// Dependence kind and carried classification.
    pub kind: DepKind,
    /// For memory dependences, the base object the dependence flows through.
    pub base: Option<MemBase>,
}

/// The empty edge set served when a base object or loop has no index entry.
static NO_EDGE_SET: BitSet = BitSet::new();

/// Secondary indexes over a [`Pdg`]'s edge arena: CSR adjacency by source
/// instruction, edges grouped by base object, and memory edges grouped by
/// the loop carrying them.
///
/// The grouped indexes are packed [`BitSet`]s over edge ids: membership
/// tests are one shift, set combination is O(words), and iteration walks
/// ascending edge-id order — the same order the previous sorted-`Vec`
/// representation produced, so every index-driven traversal is unchanged.
#[derive(Debug, Clone)]
pub(crate) struct EdgeIndex {
    /// CSR offsets into `succ` (length `n_insts + 1`).
    succ_off: Vec<u32>,
    /// Edge ids ordered by source instruction.
    succ: Vec<u32>,
    /// Memory-edge ids per base object.
    by_base: BTreeMap<MemBase, BitSet>,
    /// Memory-edge ids per carrying loop (includes sentinel loop ids used
    /// by ablated PS-PDGs).
    carried: BTreeMap<LoopId, BitSet>,
    /// Memory-edge ids with a non-empty carried set.
    carried_any: BitSet,
}

impl EdgeIndex {
    /// Index `edges` over `n_insts` instruction nodes.
    pub fn build(n_insts: usize, edges: &[PdgEdge]) -> EdgeIndex {
        let mut succ_off = vec![0u32; n_insts + 1];
        for e in edges {
            succ_off[e.src.index() + 1] += 1;
        }
        for i in 0..n_insts {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ = vec![0u32; edges.len()];
        let mut succ_cur = succ_off.clone();
        let mut by_base: BTreeMap<MemBase, BitSet> = BTreeMap::new();
        let mut carried: BTreeMap<LoopId, BitSet> = BTreeMap::new();
        let mut carried_any = BitSet::new();
        for (idx, e) in edges.iter().enumerate() {
            succ[succ_cur[e.src.index()] as usize] = idx as u32;
            succ_cur[e.src.index()] += 1;
            if let Some(base) = e.base {
                by_base.entry(base).or_default().insert(idx);
            }
            let carried_at = e.kind.carried();
            if !carried_at.is_empty() {
                carried_any.insert(idx);
                for &l in carried_at {
                    carried.entry(l).or_default().insert(idx);
                }
            }
        }
        EdgeIndex {
            succ_off,
            succ,
            by_base,
            carried,
            carried_any,
        }
    }
}

/// The Program Dependence Graph of one function: a node per instruction and
/// control/register/memory dependence edges, with secondary indexes for
/// adjacency, base-object, and carried-loop queries.
///
/// The edge arena and its indexes are reference-counted: cloning a `Pdg`
/// shares both in O(1) instead of copying every edge. Overlay abstractions
/// (the PS-PDG's [`crate::EffectiveView`]) exploit this to keep a handle on
/// their base graph without borrowing it.
#[derive(Debug, Clone)]
pub struct Pdg {
    /// The function this PDG describes.
    pub func: FuncId,
    /// All edges (shared; a clone of the `Pdg` aliases the same arena).
    pub edges: Arc<Vec<PdgEdge>>,
    index: Arc<EdgeIndex>,
    n_insts: usize,
}

impl Pdg {
    /// Build the PDG of `func` with base-object-bucketed dependence
    /// testing.
    pub fn build(module: &Module, func: FuncId, analyses: &FunctionAnalyses) -> Pdg {
        Pdg::build_with_refs(module, func, analyses).0
    }

    /// [`Pdg::build`], also returning the collected memory references so
    /// callers that need them (the PS-PDG variables pass, the module
    /// driver) do not collect them a second time.
    pub fn build_with_refs(
        module: &Module,
        func: FuncId,
        analyses: &FunctionAnalyses,
    ) -> (Pdg, Vec<MemRef>) {
        let f = module.function(func);
        let mut edges = non_memory_edges(module, func, analyses);
        let refs = collect_mem_refs(module, func, analyses);
        let tables = PairTables::new(analyses, &refs, f.blocks.len());
        let buckets = Buckets::new(&refs);
        let mut common = Vec::new();
        for_each_bucketed_pair(&buckets, |ai, bi| {
            test_pair(analyses, &refs, &tables, ai, bi, &mut common, &mut edges)
        });
        (Pdg::from_edges(func, f.insts.len(), edges), refs)
    }

    /// Build the PDG of `func` with the naive all-pairs dependence sweep.
    ///
    /// This is the reference the bucketed builder is tested against (its
    /// property tests, and every function of a 1,200-function module in
    /// `tests/pdg_pin.rs`); both must produce the same edge *set* (order
    /// may differ). Nothing on the pipeline's path calls it.
    pub fn build_naive(module: &Module, func: FuncId, analyses: &FunctionAnalyses) -> Pdg {
        let f = module.function(func);
        let mut edges = non_memory_edges(module, func, analyses);
        let refs = collect_mem_refs(module, func, analyses);
        let tables = PairTables::new(analyses, &refs, f.blocks.len());
        let mut common = Vec::new();
        for ai in 0..refs.len() {
            for bi in ai..refs.len() {
                if !may_alias(refs[ai].base, refs[bi].base) {
                    continue;
                }
                test_pair(analyses, &refs, &tables, ai, bi, &mut common, &mut edges);
            }
        }
        Pdg::from_edges(func, f.insts.len(), edges)
    }

    /// Index an edge list (the two builders;
    /// [`crate::EffectiveView::materialize`]).
    /// The arena is trimmed to its length: it is kept as long as the graph.
    pub(crate) fn from_edges(func: FuncId, n_insts: usize, mut edges: Vec<PdgEdge>) -> Pdg {
        edges.shrink_to_fit();
        let index = EdgeIndex::build(n_insts, &edges);
        Pdg {
            func,
            edges: Arc::new(edges),
            index: Arc::new(index),
            n_insts,
        }
    }

    /// Number of instruction nodes.
    pub fn len(&self) -> usize {
        self.n_insts
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n_insts == 0
    }

    /// The edge with arena id `idx`.
    pub fn edge(&self, idx: u32) -> &PdgEdge {
        &self.edges[idx as usize]
    }

    /// Ids of edges leaving `inst`.
    pub fn edge_indices_from(&self, inst: InstId) -> &[u32] {
        let i = inst.index();
        &self.index.succ[self.index.succ_off[i] as usize..self.index.succ_off[i + 1] as usize]
    }

    /// Ids of memory edges through base object `base`, as a packed set
    /// iterating in ascending edge-id order.
    pub fn edge_indices_with_base(&self, base: MemBase) -> &BitSet {
        self.index.by_base.get(&base).unwrap_or(&NO_EDGE_SET)
    }

    /// Ids of memory edges carried at `l`, as a packed set iterating in
    /// ascending edge-id order.
    pub fn carried_edge_indices(&self, l: LoopId) -> &BitSet {
        self.index.carried.get(&l).unwrap_or(&NO_EDGE_SET)
    }

    /// Edges carried at `l` (the loop-carried dependences of that loop).
    pub fn carried_edges(&self, l: LoopId) -> impl Iterator<Item = &PdgEdge> + '_ {
        self.carried_edge_indices(l)
            .iter()
            .map(move |i| &self.edges[i])
    }

    /// Ids of memory edges carried at any loop, as a packed set iterating
    /// in ascending edge-id order.
    pub fn carried_any_indices(&self) -> &BitSet {
        &self.index.carried_any
    }
}

/// Register and control dependence edges of `func` (the non-memory part of
/// the PDG, shared by the bucketed and naive builders).
fn non_memory_edges(module: &Module, func: FuncId, analyses: &FunctionAnalyses) -> Vec<PdgEdge> {
    let f = module.function(func);
    // Register + control edges come to 1.2-1.9 per instruction on every
    // NAS and SYNTH function; starting there leaves the memory edges one
    // or two doublings instead of the whole growth ladder from empty.
    let mut edges: Vec<PdgEdge> = Vec::with_capacity(2 * f.insts.len());

    // 1. Register dependences.
    for i in f.inst_ids() {
        for op in f.inst(i).inst.operands() {
            if let Value::Inst(d) = op {
                edges.push(PdgEdge {
                    src: d,
                    dst: i,
                    kind: DepKind::Register,
                    base: None,
                });
            }
        }
    }

    // 2. Control dependences: the branch terminator of each controlling
    // block → every instruction of the dependent block.
    let postdom = PostDomTree::new(f, &analyses.cfg);
    let block_deps = control_dependences(f, &analyses.cfg, &postdom);
    for bb in f.block_ids() {
        for &ctrl in &block_deps[bb.index()] {
            let Some(term) = f.block(ctrl).insts.last().copied() else {
                continue;
            };
            for &i in &f.block(bb).insts {
                if i != term {
                    edges.push(PdgEdge {
                        src: term,
                        dst: i,
                        kind: DepKind::Control,
                        base: None,
                    });
                }
            }
        }
    }
    edges
}

/// Test one (ordered-by-ref-index) pair of memory references, appending
/// the resulting dependence edges. The bucketed builder and the naive
/// oracle both funnel through here; `common` is a scratch buffer for the
/// common-loop set, reused across pairs.
fn test_pair(
    analyses: &FunctionAnalyses,
    refs: &[MemRef],
    tables: &PairTables,
    ai: usize,
    bi: usize,
    common: &mut Vec<LoopId>,
    edges: &mut Vec<PdgEdge>,
) {
    let (a, b) = (&refs[ai], &refs[bi]);
    if !a.is_write && !b.is_write {
        return;
    }
    if a.inst == b.inst && !(a.is_write && b.is_write) {
        return;
    }
    debug_assert!(may_alias(a.base, b.base), "bucketing must imply may-alias");
    // Loops containing both references: a's nest filtered by membership
    // in b's nest (a loop contains b.block iff it is in b's nest).
    let b_nest = tables.nest(bi);
    common.clear();
    common.extend(tables.nest(ai).iter().filter(|l| b_nest.contains(l)));
    let res = test_dependence(analyses, a, b, common);
    if !res.dependent {
        return;
    }
    push_memory_edges(edges, a, b, &res);
}

/// Per-ref loop nests flattened into one arena, computed once per *block*
/// instead of once per reference ([`pspdg_ir::LoopForest::nest_of`]
/// allocates a fresh `Vec` per call, and hot functions hold many
/// references per block).
struct PairTables {
    /// All distinct block nests back to back, innermost first.
    nest_flat: Vec<LoopId>,
    /// Per-ref `(start, end)` range into `nest_flat`.
    nest_ranges: Vec<(u32, u32)>,
}

impl PairTables {
    /// Tables for `refs`; `n_blocks` bounds the block indices the refs can
    /// mention.
    fn new(analyses: &FunctionAnalyses, refs: &[MemRef], n_blocks: usize) -> PairTables {
        let mut nest_flat = Vec::new();
        let mut nest_ranges = Vec::with_capacity(refs.len());
        // Per-block range into `nest_flat` (`u32::MAX` start = not yet
        // computed), dense so the per-ref lookup is an array index.
        let mut block_ranges = vec![(u32::MAX, u32::MAX); n_blocks];
        for r in refs {
            let slot = &mut block_ranges[r.block.index()];
            if slot.0 == u32::MAX {
                let start = nest_flat.len() as u32;
                let mut cur = analyses.forest.innermost(r.block);
                while let Some(l) = cur {
                    nest_flat.push(l);
                    cur = analyses.forest.info(l).parent;
                }
                *slot = (start, nest_flat.len() as u32);
            }
            nest_ranges.push(*slot);
        }
        PairTables {
            nest_flat,
            nest_ranges,
        }
    }

    /// Loops containing `refs[i]`, innermost first.
    fn nest(&self, i: usize) -> &[LoopId] {
        let (s, e) = self.nest_ranges[i];
        &self.nest_flat[s as usize..e as usize]
    }
}

/// Per-base-object buckets of a function's memory references, in `MemBase`
/// order with members in reference order — the grouping behind the
/// canonical pair enumeration.
struct Buckets {
    /// `(base, ref index)` sorted by base, ties in reference order.
    entries: Vec<(MemBase, u32)>,
    /// Ranges into `entries`, one per distinct base, in base order.
    groups: Vec<(u32, u32)>,
}

impl Buckets {
    /// Group `refs` by base object.
    fn new(refs: &[MemRef]) -> Buckets {
        let mut entries: Vec<(MemBase, u32)> = refs
            .iter()
            .enumerate()
            .map(|(i, r)| (r.base, i as u32))
            .collect();
        // Stable: members of a bucket stay in ascending reference order.
        entries.sort_by_key(|(b, _)| *b);
        let mut groups = Vec::new();
        let mut start = 0;
        while start < entries.len() {
            let base = entries[start].0;
            let mut end = start + 1;
            while end < entries.len() && entries[end].0 == base {
                end += 1;
            }
            groups.push((start as u32, end as u32));
            start = end;
        }
        Buckets { entries, groups }
    }

    fn base_of(&self, group: usize) -> MemBase {
        self.entries[self.groups[group].0 as usize].0
    }

    fn members(&self, group: usize) -> impl Iterator<Item = u32> + '_ {
        let (s, e) = self.groups[group];
        self.entries[s as usize..e as usize].iter().map(|(_, i)| *i)
    }
}

/// Walk the canonical bucketed pair order: (a) within each base's bucket
/// in base order, (b) `Unknown` against every non-I/O object bucket, (c)
/// pointer parameters against globals — exactly the pairs [`may_alias`]
/// admits, skipping every provably disjoint pair. Every pair is yielded
/// ordered (`ai <= bi`). This order fixes the edge ids of the arena, which
/// key the PS-PDG selector table and the `EffectiveView` masks
/// (`tests/arena_order.rs` pins it).
fn for_each_bucketed_pair(buckets: &Buckets, mut f: impl FnMut(usize, usize)) {
    // (a) Same base object: every base may alias itself.
    for g in 0..buckets.groups.len() {
        let (s, e) = buckets.groups[g];
        for i in s..e {
            let ai = buckets.entries[i as usize].1;
            for j in i..e {
                f(ai as usize, buckets.entries[j as usize].1 as usize);
            }
        }
    }

    // (b) Unknown provenance (calls) conflicts with every object bucket;
    // `Unknown`-vs-`Unknown` is handled above and `Io` never aliases
    // `Unknown`.
    let unknown = (0..buckets.groups.len()).find(|g| buckets.base_of(*g) == MemBase::Unknown);
    if let Some(ug) = unknown {
        for g in 0..buckets.groups.len() {
            if matches!(buckets.base_of(g), MemBase::Unknown | MemBase::Io) {
                continue;
            }
            for u in buckets.members(ug) {
                for m in buckets.members(g) {
                    let (x, y) = if u <= m { (u, m) } else { (m, u) };
                    f(x as usize, y as usize);
                }
            }
        }
    }

    // (c) A pointer parameter may be bound to a global at the call site.
    let params: Vec<usize> = (0..buckets.groups.len())
        .filter(|g| matches!(buckets.base_of(*g), MemBase::Param(_)))
        .collect();
    if !params.is_empty() {
        let globals: Vec<usize> = (0..buckets.groups.len())
            .filter(|g| matches!(buckets.base_of(*g), MemBase::Global(_)))
            .collect();
        for &pg in &params {
            for &gg in &globals {
                for p in buckets.members(pg) {
                    for g in buckets.members(gg) {
                        let (x, y) = if p <= g { (p, g) } else { (g, p) };
                        f(x as usize, y as usize);
                    }
                }
            }
        }
    }
}

fn push_memory_edges(edges: &mut Vec<PdgEdge>, a: &MemRef, b: &MemRef, res: &DepTestResult) {
    let (carried, intra) = (res.carried, res.intra);
    let edge = |src: &MemRef, dst: &MemRef, kind| PdgEdge {
        src: src.inst,
        dst: dst.inst,
        kind,
        base: Some(if a.is_write { a.base } else { b.base }),
    };
    match (a.is_write, b.is_write) {
        (true, true) => edges.push(edge(a, b, DepKind::Output { carried, intra })),
        (true, false) => {
            edges.push(edge(a, b, DepKind::Flow { carried, intra }));
            edges.push(edge(b, a, DepKind::Anti { carried, intra }));
        }
        (false, true) => {
            edges.push(edge(b, a, DepKind::Flow { carried, intra }));
            edges.push(edge(a, b, DepKind::Anti { carried, intra }));
        }
        (false, false) => {}
    }
}

/// Outermost loop containing `bb` (what `forest.nest_of(bb).last()`
/// returns), without the per-call `Vec` that `nest_of` allocates.
fn top_region(analyses: &FunctionAnalyses, bb: BlockId) -> Option<LoopId> {
    let mut cur = analyses.forest.innermost(bb)?;
    while let Some(p) = analyses.forest.info(cur).parent {
        cur = p;
    }
    Some(cur)
}

/// Collect every memory reference of `func` with its affine subscript.
pub fn collect_mem_refs(module: &Module, func: FuncId, analyses: &FunctionAnalyses) -> Vec<MemRef> {
    let mut refs = Vec::new();
    let f = module.function(func);
    let owner = f.inst_blocks();
    // Top-level region of every block, one forest walk each.
    let regions: Vec<Option<LoopId>> = f.block_ids().map(|bb| top_region(analyses, bb)).collect();
    // Pre-compute per-region invariance maps: one per top-level loop plus
    // one for code outside loops. A single pass over the stores fills every
    // region's map (each store lands in the whole-function map and, if
    // inside a loop, its top-level region's map) — O(insts) instead of
    // rescanning the function once per region.
    let mut region_stores: HashMap<Option<LoopId>, BTreeMap<MemBase, u32>> = HashMap::new();
    region_stores.insert(None, BTreeMap::new());
    for t in analyses.forest.top_level() {
        region_stores.insert(Some(t), BTreeMap::new());
    }
    for i in f.inst_ids() {
        if let Inst::Store { ptr, .. } = &f.inst(i).inst {
            let Some(bb) = owner[i.index()] else { continue };
            let base = trace_base(f, *ptr);
            if let Some(m) = region_stores.get_mut(&None) {
                *m.entry(base).or_insert(0) += 1;
            }
            let top = regions[bb.index()];
            if top.is_some() {
                if let Some(m) = region_stores.get_mut(&top) {
                    *m.entry(base).or_insert(0) += 1;
                }
            }
        }
    }

    for i in f.inst_ids() {
        let Some(bb) = owner[i.index()] else { continue };
        let region = regions[bb.index()];
        let stores = &region_stores[&region];
        match &f.inst(i).inst {
            Inst::Load { ptr, .. } => {
                let base = trace_base(f, *ptr);
                let subscript = address_affine(f, analyses, stores, region, *ptr);
                refs.push(MemRef {
                    inst: i,
                    base,
                    is_write: false,
                    subscript,
                    block: bb,
                    region,
                });
            }
            Inst::Store { ptr, .. } => {
                let base = trace_base(f, *ptr);
                let subscript = address_affine(f, analyses, stores, region, *ptr);
                refs.push(MemRef {
                    inst: i,
                    base,
                    is_write: true,
                    subscript,
                    block: bb,
                    region,
                });
            }
            Inst::Call { .. } => {
                // Unknown side effects: reads and writes everything.
                refs.push(MemRef {
                    inst: i,
                    base: MemBase::Unknown,
                    is_write: true,
                    subscript: None,
                    block: bb,
                    region,
                });
            }
            Inst::IntrinsicCall { intrinsic, .. } => {
                if matches!(intrinsic, Intrinsic::PrintI64 | Intrinsic::PrintF64) {
                    refs.push(MemRef {
                        inst: i,
                        base: MemBase::Io,
                        is_write: true,
                        subscript: None,
                        block: bb,
                        region,
                    });
                }
            }
            _ => {}
        }
    }
    refs
}

/// Affine cell offset of an address value relative to its base object.
fn address_affine(
    f: &pspdg_ir::Function,
    analyses: &FunctionAnalyses,
    stores: &BTreeMap<MemBase, u32>,
    region: Option<LoopId>,
    ptr: Value,
) -> Option<Affine> {
    match ptr {
        Value::Global(_) | Value::Param(_) => Some(Affine::constant(0)),
        Value::Inst(i) => match &f.inst(i).inst {
            Inst::Alloca { .. } => Some(Affine::constant(0)),
            Inst::Gep {
                base,
                index,
                elem_ty,
            } => {
                let b = address_affine(f, analyses, stores, region, *base)?;
                let idx = affine_of(f, analyses, stores, region, *index)?;
                Some(b.add(&idx.scale(elem_ty.flat_len() as i64)))
            }
            _ => None,
        },
        Value::Const(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;

    fn pdg_for(src: &str, name: &str) -> (pspdg_parallel::ParallelProgram, FunctionAnalyses, Pdg) {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name(name).unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        (p, a, pdg)
    }

    /// Canonical, order-independent rendering of an edge set.
    fn edge_set(pdg: &Pdg) -> Vec<String> {
        let mut s: Vec<String> = pdg.edges.iter().map(|e| format!("{e:?}")).collect();
        s.sort();
        s
    }

    /// The bucketed builder and the naive all-pairs oracle must agree on
    /// every function of a program.
    fn assert_matches_oracle(src: &str) {
        let p = compile(src).unwrap();
        for f in p.module.function_ids() {
            let a = FunctionAnalyses::compute(&p.module, f);
            let bucketed = Pdg::build(&p.module, f, &a);
            let naive = Pdg::build_naive(&p.module, f, &a);
            assert_eq!(
                edge_set(&bucketed),
                edge_set(&naive),
                "edge sets diverge for {}",
                p.module.function(f).name
            );
        }
    }

    #[test]
    fn independent_loop_has_no_carried_array_dep() {
        let (_, a, pdg) = pdg_for(
            r#"
            int v[64];
            void k() { int i; for (i = 0; i < 64; i++) { v[i] = i; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        // carried edges exist only through the induction variable slot.
        for e in pdg.carried_edges(l) {
            match e.base {
                Some(MemBase::Alloca(slot)) => {
                    let canon = a.canonical_of(l).unwrap();
                    assert_eq!(slot, canon.iv_alloca, "unexpected carried edge {e:?}");
                }
                other => panic!("unexpected carried edge base {other:?}"),
            }
        }
    }

    #[test]
    fn recurrence_has_carried_flow_dep() {
        let (_, a, pdg) = pdg_for(
            r#"
            int v[64];
            void k() { int i; for (i = 1; i < 64; i++) { v[i] = v[i - 1] + 1; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let canon = a.canonical_of(l).unwrap();
        let has_array_carried_flow = pdg.carried_edges(l).any(|e| {
            matches!(e.kind, DepKind::Flow { .. })
                && e.base.is_some_and(|b| match b {
                    MemBase::Global(_) => true,
                    MemBase::Alloca(s) => s != canon.iv_alloca,
                    _ => false,
                })
        });
        assert!(has_array_carried_flow, "v[i] = v[i-1] must be carried");
    }

    #[test]
    fn scalar_accumulation_is_carried() {
        let (_, a, pdg) = pdg_for(
            r#"
            int v[64];
            int s;
            void k() { int i; for (i = 0; i < 64; i++) { s += v[i]; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let has_carried_on_s = pdg
            .carried_edges(l)
            .any(|e| matches!(e.base, Some(MemBase::Global(_))));
        assert!(has_carried_on_s);
    }

    #[test]
    fn distinct_arrays_do_not_interfere() {
        let (_, a, pdg) = pdg_for(
            r#"
            int x[64];
            int y[64];
            void k() { int i; for (i = 0; i < 64; i++) { x[i] = y[i]; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let canon = a.canonical_of(l).unwrap();
        assert!(pdg
            .carried_edges(l)
            .all(|e| e.base == Some(MemBase::Alloca(canon.iv_alloca))));
    }

    #[test]
    fn indirect_subscript_is_conservatively_carried() {
        let (_, a, pdg) = pdg_for(
            r#"
            int key[64];
            int hist[64];
            void k() { int i; for (i = 0; i < 64; i++) { hist[key[i]] += 1; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let has_carried_hist = pdg
            .carried_edges(l)
            .any(|e| matches!(e.base, Some(MemBase::Global(g)) if g.index() == 1));
        assert!(
            has_carried_hist,
            "hist[key[i]] must be conservatively carried"
        );
    }

    #[test]
    fn register_and_control_edges_exist() {
        let (_, _, pdg) = pdg_for(
            r#"
            void k(int n) { if (n > 0) { n = n + 1; } }
            int main() { k(1); return 0; }
            "#,
            "k",
        );
        assert!(pdg.edges.iter().any(|e| e.kind == DepKind::Register));
        assert!(pdg.edges.iter().any(|e| e.kind == DepKind::Control));
    }

    #[test]
    fn calls_serialize_with_memory() {
        let (_, a, pdg) = pdg_for(
            r#"
            int v[8];
            void touch() { v[0] = 1; }
            void k() { int i; for (i = 0; i < 8; i++) { touch(); v[i] = 2; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        // The call conservatively conflicts with v's stores, carried.
        let call_carried = pdg
            .carried_edges(l)
            .any(|e| matches!(e.base, Some(MemBase::Unknown)));
        assert!(call_carried);
    }

    #[test]
    fn prints_serialize_with_each_other() {
        let (_, a, pdg) = pdg_for(
            r#"
            void k() { int i; for (i = 0; i < 4; i++) { print_i64(i); } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let io_carried = pdg
            .carried_edges(l)
            .any(|e| matches!(e.base, Some(MemBase::Io)));
        assert!(io_carried);
    }

    #[test]
    fn filtered_removes_edges() {
        let (_, _, pdg) = pdg_for(
            r#"
            int s;
            void k() { int i; for (i = 0; i < 4; i++) { s += i; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let no_mem = pdg.edges.iter().filter(|e| !e.kind.is_memory()).count();
        assert!(no_mem > 0 && no_mem < pdg.edges.len());
    }

    #[test]
    fn adjacency_indexes_cover_every_edge() {
        let (_, _, pdg) = pdg_for(
            r#"
            int v[64]; int s;
            void k() { int i; for (i = 0; i < 64; i++) { s += v[i]; v[i] = s; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let mut from_succ = 0usize;
        for i in 0..pdg.len() {
            let inst = InstId::from_index(i);
            for &ei in pdg.edge_indices_from(inst) {
                assert_eq!(pdg.edge(ei).src, inst);
                from_succ += 1;
            }
        }
        assert_eq!(from_succ, pdg.edges.len());
        // The base index partitions exactly the memory edges.
        let mem_edges = pdg.edges.iter().filter(|e| e.base.is_some()).count();
        let indexed: usize = pdg
            .edges
            .iter()
            .filter_map(|e| e.base)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|b| pdg.edge_indices_with_base(b).len())
            .sum();
        assert_eq!(mem_edges, indexed);
    }

    #[test]
    fn unknown_call_refs_depend_on_every_bucket() {
        // Regression: a call (MemBase::Unknown) must still conflict with
        // every object bucket under bucketed pair enumeration — globals,
        // locals, and other calls — but not with I/O.
        const KERNEL: &str = r#"
            int g[16];
            void touch() { g[0] = 1; }
            void k() {
                int i; int local = 0;
                for (i = 0; i < 8; i++) {
                    touch();
                    g[i] = local;
                    local = local + 1;
                    print_i64(local);
                }
            }
            int main() { k(); return 0; }
            "#;
        let (_, a, pdg) = pdg_for(KERNEL, "k");
        let l = a.forest.loop_ids().next().unwrap();
        let call_edges: Vec<&PdgEdge> = pdg
            .edges
            .iter()
            .filter(|e| e.base == Some(MemBase::Unknown) && e.kind.is_memory())
            .collect();
        assert!(
            !call_edges.is_empty(),
            "the call must produce Unknown-based edges"
        );
        // The call conflicts with the global stores (carried at the loop).
        assert!(
            pdg.carried_edges(l)
                .any(|e| e.base == Some(MemBase::Unknown)),
            "Unknown refs must be carried against the loop's memory traffic"
        );
        // And never against I/O: the call instruction (the Unknown
        // self-dependence) has no memory edge to any print instruction.
        let call_inst = call_edges
            .iter()
            .find(|e| e.src == e.dst)
            .map(|e| e.src)
            .expect("call self-dependence");
        let io_insts: Vec<InstId> = pdg
            .edges
            .iter()
            .filter(|e| e.base == Some(MemBase::Io))
            .flat_map(|e| [e.src, e.dst])
            .collect();
        for e in pdg.edges.iter().filter(|e| e.kind.is_memory()) {
            let touches_call = e.src == call_inst || e.dst == call_inst;
            let touches_io = io_insts.contains(&e.src) || io_insts.contains(&e.dst);
            assert!(
                !(touches_call && touches_io) || e.src == e.dst,
                "calls must not serialize against the I/O stream: {e:?}"
            );
        }
        assert_matches_oracle(KERNEL);
    }

    #[test]
    fn bucketed_matches_oracle_on_mixed_kernels() {
        assert_matches_oracle(
            r#"
            int a[64]; int b[64]; int s; int key[64];
            void k(int n) {
                int i; int t = 0;
                for (i = 0; i < 64; i++) {
                    a[i] = b[i] + 1;
                    s += a[key[i]];
                    t = t + i;
                }
                b[0] = t + n;
            }
            int main() { k(3); return 0; }
            "#,
        );
        assert_matches_oracle(
            r#"
            int v[128];
            void k() {
                int i; int j;
                for (i = 0; i < 8; i++) {
                    for (j = 1; j < 16; j++) { v[16 * i + j] = v[16 * i + j - 1]; }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
    }

    mod generated_kernels {
        use super::*;
        use proptest::prelude::*;

        /// One statement of a generated kernel loop body. Subscript
        /// coefficients are bounded so every rendered subscript stays well
        /// inside the declared array size (the programs are only compiled
        /// and analyzed, never run, but keep them plausible).
        #[derive(Debug, Clone)]
        enum Stmt {
            /// `A[s·i + c] = B[s'·i + c'] + 1;`
            Copy {
                dst: usize,
                src: usize,
                ds: i64,
                dc: i64,
                ss: i64,
                sc: i64,
            },
            /// `s += A[i + c];`
            Accum { arr: usize, c: i64 },
            /// `A[B[i]] += 1;` (indirect, conservatively carried)
            Indirect { dst: usize, idx: usize },
            /// `A[i] = n + i;` (parameter symbol in the stored value)
            Param { dst: usize },
            /// `touch();` (opaque call — `MemBase::Unknown`)
            Call,
            /// `print_i64(i);` (`MemBase::Io`)
            Print,
        }

        const ARRAYS: [&str; 3] = ["ga", "gb", "gc"];

        impl Stmt {
            fn render(&self, iv: &str) -> String {
                match self {
                    Stmt::Copy {
                        dst,
                        src,
                        ds,
                        dc,
                        ss,
                        sc,
                    } => format!(
                        "{}[{} * {iv} + {}] = {}[{} * {iv} + {}] + 1;",
                        ARRAYS[*dst], ds, dc, ARRAYS[*src], ss, sc
                    ),
                    Stmt::Accum { arr, c } => format!("s += {}[{iv} + {}];", ARRAYS[*arr], c),
                    Stmt::Indirect { dst, idx } => {
                        format!("{}[{}[{iv}]] += 1;", ARRAYS[*dst], ARRAYS[*idx])
                    }
                    Stmt::Param { dst } => format!("{}[{iv}] = n + {iv};", ARRAYS[*dst]),
                    Stmt::Call => "touch();".to_string(),
                    Stmt::Print => format!("print_i64({iv});"),
                }
            }
        }

        fn arb_stmt() -> impl Strategy<Value = Stmt> {
            prop_oneof![
                3 => (0usize..3, 0usize..3, 1i64..4, 0i64..8, 1i64..4, 0i64..8)
                    .prop_map(|(dst, src, ds, dc, ss, sc)| Stmt::Copy { dst, src, ds, dc, ss, sc }),
                2 => (0usize..3, 0i64..8).prop_map(|(arr, c)| Stmt::Accum { arr, c }),
                2 => (0usize..3, 0usize..3).prop_map(|(dst, idx)| Stmt::Indirect { dst, idx }),
                1 => (0usize..3).prop_map(|dst| Stmt::Param { dst }),
                1 => Just(Stmt::Call),
                1 => Just(Stmt::Print),
            ]
        }

        fn render_kernel(trip: i64, body: &[Stmt], inner: &[Stmt]) -> String {
            let mut loop_body = String::new();
            for s in body {
                loop_body.push_str(&s.render("i"));
                loop_body.push('\n');
            }
            if !inner.is_empty() {
                loop_body.push_str("for (j = 1; j < 8; j++) {\n");
                for s in inner {
                    loop_body.push_str(&s.render("j"));
                    loop_body.push('\n');
                }
                loop_body.push_str("}\n");
            }
            format!(
                r#"
                int ga[256]; int gb[256]; int gc[256]; int s;
                void touch() {{ ga[0] = 1; }}
                void k(int n) {{
                    int i; int j;
                    for (i = 0; i < {trip}; i++) {{
                        {loop_body}
                    }}
                }}
                int main() {{ k(2); return 0; }}
                "#
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The bucketed builder and the all-pairs oracle emit identical
            /// edge sets on randomly generated kernels mixing affine
            /// copies, reductions, indirect subscripts, parameter symbols,
            /// opaque calls, and I/O — across every function of the
            /// program (kernel, helper, and main).
            #[test]
            fn bucketed_equals_naive_on_generated_kernels(
                trip in 4i64..32,
                body in proptest::collection::vec(arb_stmt(), 1..5),
                inner in proptest::collection::vec(arb_stmt(), 0..3),
            ) {
                let src = render_kernel(trip, &body, &inner);
                let p = compile(&src).expect("generated kernel compiles");
                for f in p.module.function_ids() {
                    let a = FunctionAnalyses::compute(&p.module, f);
                    let bucketed = Pdg::build(&p.module, f, &a);
                    let naive = Pdg::build_naive(&p.module, f, &a);
                    prop_assert_eq!(
                        edge_set(&bucketed),
                        edge_set(&naive),
                        "edge sets diverge for {} in:\n{}",
                        p.module.function(f).name,
                        src
                    );
                }
            }
        }
    }
}
