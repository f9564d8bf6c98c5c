//! PS-PDG construction from a parallel program and its PDG.
//!
//! The builder realizes the §5 mapping:
//!
//! * **Declarations of independence** (`for`, `sections`, `task`,
//!   `taskloop`, `simd`, `cilk_spawn`, `cilk_for`) remove the dependences
//!   the programmer declared not to exist — loop-carried dependences of
//!   worksharing loops, dependences between sibling sections/tasks —
//!   *except* those the program still constrains through `ordered` regions
//!   (kept directed) and `critical`/`atomic` regions (converted to
//!   undirected mutual-exclusion edges between hierarchical nodes);
//! * **Data properties** (`private`, `threadprivate`, `reduction`) become
//!   [`Variable`]s with use/def edges; `firstprivate`/`lastprivate` become
//!   `AllConsumers`/`LastProducer` data selectors, and unsynchronized
//!   shared live-outs of worksharing loops get `AnyProducer`;
//! * **Ordering** (`critical`, `atomic`) becomes hierarchical nodes with
//!   the `atomic`+`orderless` traits and undirected edges; `ordered`
//!   keeps the sequential (directed, carried) edges.
//!
//! Every step is gated on the corresponding [`Feature`] so the §4 ablation
//! study can be reproduced: disabling a feature always degrades to the
//! *stricter* (more constrained) semantics. Without HN+UE a synchronized
//! region is opaque, so a worksharing loop keeps every carried dependence
//! with an end inside a `critical`, `atomic` or `ordered` region; the
//! contexts-only graph `{C}` is then exactly Jensen & Karlsson's view.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pspdg_ir::{FuncId, InstId, LoopId};
use pspdg_parallel::{
    DataClause, Depend, DependKind, Directive, DirectiveId, DirectiveKind, ParallelProgram,
};
use pspdg_pdg::{
    base_of_varref, collect_mem_refs, DepKind, EffectiveView, FunctionAnalyses, MemBase, Pdg,
    PdgEdge,
};
use pspdg_pool::BitSet;

use crate::features::{Feature, FeatureSet};
use crate::graph::{
    Context, ContextId, ContextOrigin, DataSelector, Node, NodeId, NodeKind, NodeTrait, PsEdge,
    PsPdg, SelectorKind, TraitKind, Variable, VariableAccess, VariableKind,
};

/// Sentinel loop id meaning "carried at some unspecified loop" (used when
/// the `Contexts` feature is ablated).
pub const UNKNOWN_LOOP: LoopId = LoopId(u32::MAX);

/// One function's PS-PDG together with the artifacts planning reads (the
/// unit [`build_pspdg_module`] produces per function). A session caches
/// these for its lifetime, so nothing else is kept: the memory references
/// both graphs were built from are dropped when the function's job ends.
#[derive(Debug, Clone)]
pub struct FunctionPsPdg {
    /// The analyzed function.
    pub func: FuncId,
    /// Its structural analyses.
    pub analyses: FunctionAnalyses,
    /// Its classical PDG.
    pub pdg: Pdg,
    /// Its PS-PDG.
    pub pspdg: PsPdg,
}

/// What [`build_pspdg_module`] builds: a bare [`FeatureSet`] builds every
/// function under it, `(features, keep)` only the functions `keep`
/// accepts (a session keeps those a plan can read).
pub trait ModuleScope {
    /// The features every built PS-PDG has.
    fn features(&self) -> FeatureSet;
    /// Whether to build `func` (by default, every function).
    fn keeps(&self, _func: FuncId) -> bool {
        true
    }
}

impl ModuleScope for FeatureSet {
    fn features(&self) -> FeatureSet {
        *self
    }
}

impl<K: Fn(FuncId) -> bool> ModuleScope for (FeatureSet, K) {
    fn features(&self) -> FeatureSet {
        self.0
    }

    fn keeps(&self, func: FuncId) -> bool {
        (self.1)(func)
    }
}

/// Build analyses, PDG, and PS-PDG for every function of `program` that
/// has a body and `scope` keeps, in module order, distributing functions
/// across threads. Declared-but-bodyless functions are skipped (the
/// structural analyses require an entry block).
pub fn build_pspdg_module(
    program: &ParallelProgram,
    scope: impl ModuleScope,
) -> Vec<FunctionPsPdg> {
    let features = scope.features();
    let funcs: Vec<FuncId> = program
        .module
        .function_ids()
        .filter(|f| !program.module.function(*f).blocks.is_empty() && scope.keeps(*f))
        .collect();
    pspdg_pool::par_map(funcs, |func| {
        let analyses = FunctionAnalyses::compute(&program.module, func);
        let (pdg, mem_refs) = Pdg::build_with_refs(&program.module, func, &analyses);
        let pspdg = build_pspdg_with_refs(program, func, &analyses, &pdg, &mem_refs, features);
        FunctionPsPdg {
            func,
            analyses,
            pdg,
            pspdg,
        }
    })
}

/// Build the PS-PDG of `func`, collecting the memory references afresh
/// when the parallel semantic variables, their only reader, are on.
///
/// Callers that already hold the references the PDG was built from (the
/// module driver, anything using [`Pdg::build_with_refs`]) should use
/// [`build_pspdg_with_refs`] to avoid the second collection pass.
pub fn build_pspdg(
    program: &ParallelProgram,
    func: FuncId,
    analyses: &FunctionAnalyses,
    pdg: &Pdg,
    features: FeatureSet,
) -> PsPdg {
    let refs = if features.has(Feature::ParallelVariables) {
        collect_mem_refs(&program.module, func, analyses)
    } else {
        Vec::new()
    };
    build_pspdg_with_refs(program, func, analyses, pdg, &refs, features)
}

/// Build the PS-PDG of `func` from pre-collected memory references.
pub fn build_pspdg_with_refs(
    program: &ParallelProgram,
    func: FuncId,
    analyses: &FunctionAnalyses,
    pdg: &Pdg,
    mem_refs: &[pspdg_pdg::MemRef],
    features: FeatureSet,
) -> PsPdg {
    Builder {
        program,
        func,
        analyses,
        pdg,
        mem_refs,
        features,
    }
    .run()
}

struct Builder<'a> {
    program: &'a ParallelProgram,
    func: FuncId,
    analyses: &'a FunctionAnalyses,
    pdg: &'a Pdg,
    mem_refs: &'a [pspdg_pdg::MemRef],
    features: FeatureSet,
}

/// A region-backed directive resolved to instruction sets.
#[derive(Debug, Clone)]
struct DirInfo {
    id: DirectiveId,
    kind: DirectiveKind,
    /// Packed instruction-index set of the directive's region.
    insts: BitSet,
    /// For loop constructs, the associated natural loop.
    loop_id: Option<LoopId>,
    clauses: Vec<DataClause>,
    depends: Vec<Depend>,
    /// First block index of the region (used to order sibling regions).
    first_block: usize,
}

impl Builder<'_> {
    fn run(self) -> PsPdg {
        let f = self.program.module.function(self.func);
        let n_insts = f.insts.len();
        let hn = self.features.has(Feature::HierarchicalUndirected);
        let traits_on = self.features.has(Feature::NodeTraits);
        let ctx_on = self.features.has(Feature::Contexts);
        let sel_on = self.features.has(Feature::DataSelectors);
        let vars_on = self.features.has(Feature::ParallelVariables);

        // ---- resolve directives -------------------------------------------
        let dirs: Vec<DirInfo> = self
            .program
            .directives_in(self.func)
            .map(|(id, d)| self.resolve_dir(id, d))
            .collect();

        // ---- nodes ---------------------------------------------------------
        // Room for every hierarchical node (a loop's, at most one per
        // directive), trimmed at assembly: the arena lives as the graph does.
        let hier = self.analyses.forest.len() + dirs.len();
        let mut nodes: Vec<Node> = Vec::with_capacity(n_insts + hier);
        nodes.extend((0..n_insts).map(|i| Node {
            kind: NodeKind::Instruction(InstId::from_index(i)),
            traits: Vec::new(),
            label: String::new(),
        }));
        let inst_node: Vec<NodeId> = (0..n_insts).map(|i| NodeId(i as u32)).collect();
        let mut contexts: Vec<Context> = Vec::new();

        // Hierarchical node per natural loop (labeled = context).
        let mut loop_node: HashMap<LoopId, NodeId> = HashMap::new();
        let mut loop_ctx: HashMap<LoopId, ContextId> = HashMap::new();
        if hn {
            for l in self.analyses.forest.loop_ids() {
                let insts = self.analyses.loop_insts(l);
                let node_id = NodeId(nodes.len() as u32);
                let ctx = if ctx_on {
                    let c = ContextId(contexts.len() as u32);
                    contexts.push(Context {
                        node: node_id,
                        origin: ContextOrigin::Loop(l),
                    });
                    loop_ctx.insert(l, c);
                    Some(c)
                } else {
                    None
                };
                nodes.push(Node {
                    kind: NodeKind::Hierarchical {
                        children: insts.iter().map(|i| inst_node[i.index()]).collect(),
                        context: ctx,
                    },
                    traits: Vec::new(),
                    label: format!("loop {}", self.analyses.forest.info(l).header),
                });
                loop_node.insert(l, node_id);
            }
        }

        // Hierarchical node per region directive. Worksharing-loop
        // directives and `ordered` reuse/annotate existing structure and get
        // no node of their own (see module docs).
        let mut dir_node: HashMap<DirectiveId, NodeId> = HashMap::new();
        let mut dir_ctx: HashMap<DirectiveId, ContextId> = HashMap::new();
        if hn {
            for d in &dirs {
                let makes_node = matches!(
                    d.kind,
                    DirectiveKind::Parallel
                        | DirectiveKind::Critical { .. }
                        | DirectiveKind::Atomic
                        | DirectiveKind::Single { .. }
                        | DirectiveKind::Master
                        | DirectiveKind::Sections
                        | DirectiveKind::Section
                        | DirectiveKind::Task { .. }
                        | DirectiveKind::Barrier
                        | DirectiveKind::Taskwait
                        | DirectiveKind::CilkSpawn
                        | DirectiveKind::CilkSync
                        | DirectiveKind::CilkScope
                );
                if !makes_node {
                    continue;
                }
                let node_id = NodeId(nodes.len() as u32);
                // Parallel regions and Cilk scopes are labeled (contexts):
                // they are the regions other semantics reference.
                let ctx = if ctx_on
                    && matches!(d.kind, DirectiveKind::Parallel | DirectiveKind::CilkScope)
                {
                    let c = ContextId(contexts.len() as u32);
                    contexts.push(Context {
                        node: node_id,
                        origin: ContextOrigin::Directive(d.id),
                    });
                    Some(c)
                } else {
                    None
                };
                nodes.push(Node {
                    kind: NodeKind::Hierarchical {
                        children: d.insts.iter().map(|i| inst_node[i]).collect(),
                        context: ctx,
                    },
                    traits: Vec::new(),
                    label: d.kind.name().to_string(),
                });
                dir_node.insert(d.id, node_id);
                if let Some(c) = ctx {
                    dir_ctx.insert(d.id, c);
                }
            }
        }

        // ---- traits ---------------------------------------------------------
        if hn && traits_on {
            for d in &dirs {
                let Some(&node) = dir_node.get(&d.id) else {
                    continue;
                };
                let ctx = self.semantic_context(d, &dirs, &dir_ctx, &loop_ctx);
                match &d.kind {
                    DirectiveKind::Critical { .. } | DirectiveKind::Atomic => {
                        nodes[node.index()].traits.push(NodeTrait {
                            kind: TraitKind::Atomic,
                            context: ctx,
                        });
                        nodes[node.index()].traits.push(NodeTrait {
                            kind: TraitKind::Orderless,
                            context: ctx,
                        });
                    }
                    DirectiveKind::Single { .. } | DirectiveKind::Master => {
                        nodes[node.index()].traits.push(NodeTrait {
                            kind: TraitKind::Singular,
                            context: ctx,
                        });
                    }
                    DirectiveKind::Task { .. }
                    | DirectiveKind::Section
                    | DirectiveKind::CilkSpawn => {
                        nodes[node.index()].traits.push(NodeTrait {
                            kind: TraitKind::Orderless,
                            context: ctx,
                        });
                    }
                    _ => {}
                }
            }
        }

        // ---- variables ------------------------------------------------------
        let mut variables: Vec<Variable> = Vec::new();
        let mut accesses: Vec<VariableAccess> = Vec::new();
        let refs = self.mem_refs;
        if vars_on {
            // Per-base reference index so each clause touches only its own
            // variable's accesses instead of rescanning every reference.
            let mut refs_by_base: BTreeMap<MemBase, Vec<usize>> = BTreeMap::new();
            for (ri, r) in refs.iter().enumerate() {
                refs_by_base.entry(r.base).or_default().push(ri);
            }
            let mut seen: BTreeSet<(MemBase, bool)> = BTreeSet::new();
            for d in &dirs {
                let ctx = self.semantic_context(d, &dirs, &dir_ctx, &loop_ctx);
                for clause in &d.clauses {
                    let (kind, var) = match clause {
                        DataClause::Private(v) | DataClause::Threadprivate(v) => {
                            (VariableKind::Privatizable, *v)
                        }
                        DataClause::Reduction { op, var } => (VariableKind::Reducible(*op), *var),
                        // first/lastprivate map to data selectors (§5.2).
                        _ => continue,
                    };
                    let Some(base) = base_of_varref(self.func, var) else {
                        continue;
                    };
                    let key = (base, matches!(kind, VariableKind::Reducible(_)));
                    if !seen.insert(key) {
                        continue;
                    }
                    let mut acc = VariableAccess::default();
                    for ri in refs_by_base.get(&base).map(Vec::as_slice).unwrap_or(&[]) {
                        let r = &refs[*ri];
                        if r.is_write {
                            acc.defs.push(inst_node[r.inst.index()]);
                        } else {
                            acc.uses.push(inst_node[r.inst.index()]);
                        }
                    }
                    variables.push(Variable {
                        base,
                        kind,
                        context: ctx,
                        name: self.program.var_name(var),
                    });
                    accesses.push(acc);
                }
            }
        }

        // ---- effective dependence graph -------------------------------------
        let mut removed = vec![false; self.pdg.edges.len()];
        // Worksharing declarations *narrow* an edge's carried set (the
        // dependence may still be carried at other loops); an edge disappears
        // only when nothing remains.
        let mut uncarried: BTreeMap<usize, BTreeSet<LoopId>> = BTreeMap::new();
        let mut undirected: Vec<PsEdge> = Vec::new();
        let mut selectors: BTreeMap<u32, DataSelector> = BTreeMap::new();

        // Independence declarations and ordering conversions need the
        // protecting-region maps. Precompute instruction → (lock identity,
        // directive index), first matching directive winning, so the edge
        // passes below do O(1) lookups.
        let mut lock_map: HashMap<InstId, (String, usize)> = HashMap::new();
        for (di, d) in dirs.iter().enumerate() {
            let lock = match &d.kind {
                DirectiveKind::Critical { name } => {
                    format!("critical:{}", name.clone().unwrap_or_default())
                }
                DirectiveKind::Atomic => format!("atomic:{}", d.first_block),
                _ => continue,
            };
            for i in d.insts.iter() {
                lock_map
                    .entry(InstId::from_index(i))
                    .or_insert_with(|| (lock.clone(), di));
            }
        }
        let lock_of = |inst: InstId| -> Option<(String, usize)> { lock_map.get(&inst).cloned() };
        // Mutual-exclusion conversion only applies when the protected
        // region *re-executes* inside the carried loop (region ⊆ loop); a
        // dependence carried by a loop nested inside the critical region is
        // an ordinary within-instance sequential dependence. Unreachable
        // stub blocks (e.g. the empty else of an `if`) are ignored.
        let reachable: BitSet = {
            let f = self.program.module.function(self.func);
            let owner = f.inst_blocks();
            f.inst_ids()
                .filter(|i| owner[i.index()].is_some_and(|bb| self.analyses.cfg.is_reachable(bb)))
                .map(|i| i.index())
                .collect()
        };
        // Loop-membership sets, computed once per loop rather than once per
        // (directive, edge) query. Only needed by `region_inside_loop`,
        // which is reachable only through lock-protected edges — skip the
        // whole computation for functions without critical/atomic regions.
        let loop_inst_sets: HashMap<LoopId, BitSet> = if lock_map.is_empty() {
            HashMap::new()
        } else {
            self.analyses
                .forest
                .loop_ids()
                .map(|l| {
                    let insts = self
                        .analyses
                        .loop_insts(l)
                        .into_iter()
                        .map(|i| i.index())
                        .collect();
                    (l, insts)
                })
                .collect()
        };
        let region_inside_loop = |di: usize, l: LoopId| -> bool {
            let loop_insts = &loop_inst_sets[&l];
            dirs[di]
                .insts
                .iter()
                .filter(|&i| reachable.contains(i))
                .all(|i| loop_insts.contains(i))
        };
        // The protecting region's node is the node of the lock directive.
        let region_node_of = |inst: InstId| -> Option<NodeId> {
            dir_node.get(&dirs[lock_map.get(&inst)?.1].id).copied()
        };
        let ordered_insts: BitSet = dirs
            .iter()
            .filter(|d| matches!(d.kind, DirectiveKind::Ordered))
            .flat_map(|d| d.insts.iter())
            .collect();
        let in_ordered = |inst: InstId| -> bool { ordered_insts.contains(inst.index()) };

        // 1. Worksharing independence: carried deps of worksharing loops.
        if ctx_on {
            for d in &dirs {
                if !matches!(
                    d.kind,
                    DirectiveKind::For { .. }
                        | DirectiveKind::CilkFor
                        | DirectiveKind::Taskloop
                        | DirectiveKind::Simd
                ) {
                    continue;
                }
                let Some(l) = d.loop_id else { continue };
                // Only edges carried at this worksharing loop are candidates:
                // walk the per-loop carried index, not the full edge arena.
                for ei in self.pdg.carried_edge_indices(l).iter() {
                    let e = &self.pdg.edges[ei];
                    if removed[ei] {
                        continue;
                    }
                    if !d.insts.contains(e.src.index()) || !d.insts.contains(e.dst.index()) {
                        continue;
                    }
                    if in_ordered(e.src) && in_ordered(e.dst) {
                        continue; // ordered keeps the sequential order
                    }
                    // Without hierarchical nodes a synchronized region is
                    // opaque: nothing says what it orders, so a dependence
                    // touching one stays carried (Jensen & Karlsson's rule).
                    let synced = |i: InstId| lock_map.contains_key(&i) || in_ordered(i);
                    if !hn && (synced(e.src) || synced(e.dst)) {
                        continue;
                    }
                    match (lock_of(e.src), lock_of(e.dst)) {
                        (Some((la, da)), Some((lb, db)))
                            if la == lb
                                && region_inside_loop(da, l)
                                && region_inside_loop(db, l) =>
                        {
                            removed[ei] = true;
                            let (na, nb) = (
                                region_node_of(e.src).unwrap(),
                                region_node_of(e.dst).unwrap(),
                            );
                            let ctx = loop_ctx.get(&l).copied();
                            push_undirected(&mut undirected, na, nb, ctx);
                        }
                        (Some(_), Some(_)) => {
                            // Same-instance dependence (loop inside the
                            // region) or different locks: keep directed.
                        }
                        _ => {
                            uncarried.entry(ei).or_default().insert(l);
                        }
                    }
                }
            }
        }

        // 2. Critical/atomic mutual exclusion in every loop of the enclosing
        //    parallel (or scope) region, not only worksharing ones.
        if hn {
            // Candidates are exactly the carried memory edges: walk the
            // carried-anywhere index.
            for ei in self.pdg.carried_any_indices().iter() {
                let e = &self.pdg.edges[ei];
                if removed[ei] {
                    continue;
                }
                let (Some((la, da)), Some((lb, db))) = (lock_of(e.src), lock_of(e.dst)) else {
                    continue;
                };
                if la != lb {
                    continue;
                }
                // Some carried loop must contain both regions (the regions
                // are what re-execute and mutually exclude).
                let convertible = e
                    .kind
                    .carried()
                    .iter()
                    .any(|l| region_inside_loop(da, *l) && region_inside_loop(db, *l));
                if !convertible {
                    continue;
                }
                removed[ei] = true;
                let (na, nb) = (
                    region_node_of(e.src).unwrap(),
                    region_node_of(e.dst).unwrap(),
                );
                // Context: the enclosing parallel region if any.
                let ctx = if ctx_on {
                    self.enclosing_parallel_ctx(e.src, &dirs, &dir_ctx)
                } else {
                    None
                };
                push_undirected(&mut undirected, na, nb, ctx);
            }
        }

        // 3. Sections / tasks / spawns: independence between sibling regions.
        if ctx_on {
            self.sibling_independence(&dirs, &mut removed);
        }

        // 4. Data selectors on loop-boundary flow edges.
        if sel_on && ctx_on {
            for d in &dirs {
                let Some(l) = d.loop_id else { continue };
                if !matches!(
                    d.kind,
                    DirectiveKind::For { .. } | DirectiveKind::CilkFor | DirectiveKind::Taskloop
                ) {
                    continue;
                }
                let ctx = loop_ctx.get(&l).copied();
                let lastprivs: BTreeSet<MemBase> = d
                    .clauses
                    .iter()
                    .filter_map(|c| match c {
                        DataClause::Lastprivate(v) => base_of_varref(self.func, *v),
                        _ => None,
                    })
                    .collect();
                let firstprivs: BTreeSet<MemBase> = d
                    .clauses
                    .iter()
                    .filter_map(|c| match c {
                        DataClause::Firstprivate(v) => base_of_varref(self.func, *v),
                        _ => None,
                    })
                    .collect();
                // Reduction live-outs carry the merged value, not "any
                // iteration's" — visible only with parallel variables on.
                let reductions: BTreeSet<MemBase> = if vars_on {
                    d.clauses
                        .iter()
                        .filter_map(|c| match c {
                            DataClause::Reduction { var, .. } => base_of_varref(self.func, *var),
                            _ => None,
                        })
                        .collect()
                } else {
                    BTreeSet::new()
                };
                // Live-out flow edges leave the region: walk the out-edges
                // of the region's instructions instead of every edge.
                for i in d.insts.iter() {
                    for &ei in self.pdg.edge_indices_from(InstId::from_index(i)) {
                        let ei = ei as usize;
                        let e = &self.pdg.edges[ei];
                        if removed[ei] {
                            continue;
                        }
                        let DepKind::Flow { .. } = e.kind else {
                            continue;
                        };
                        let Some(base) = e.base else { continue };
                        if d.insts.contains(e.dst.index()) {
                            continue; // region-internal, not a live-out
                        }
                        if lastprivs.contains(&base) {
                            selectors.insert(
                                ei as u32,
                                DataSelector {
                                    kind: SelectorKind::LastProducer,
                                    context: ctx,
                                },
                            );
                        } else if self.scalar_base(base) && !reductions.contains(&base) {
                            selectors.insert(
                                ei as u32,
                                DataSelector {
                                    kind: SelectorKind::AnyProducer,
                                    context: ctx,
                                },
                            );
                        }
                    }
                }
                // Live-in flow edges only matter for firstprivate bases:
                // walk the per-base edge index of each declared base.
                for &base in &firstprivs {
                    for ei in self.pdg.edge_indices_with_base(base).iter() {
                        let e = &self.pdg.edges[ei];
                        if removed[ei] {
                            continue;
                        }
                        let DepKind::Flow { .. } = e.kind else {
                            continue;
                        };
                        if !d.insts.contains(e.src.index()) && d.insts.contains(e.dst.index()) {
                            selectors.insert(
                                ei as u32,
                                DataSelector {
                                    kind: SelectorKind::AllConsumers,
                                    context: ctx,
                                },
                            );
                        }
                    }
                }
            }
        }

        // ---- assemble -------------------------------------------------------
        // No per-edge clone of the surviving graph: the effective graph is
        // an overlay (removal mask + sparse kind rewrites) on the base PDG.
        // Only edges whose carried set actually changes — worksharing
        // narrowing, or the context-ablation blur — are copied into the
        // rewrite map; an edge narrowed to nothing is removed outright.
        let mut rewrites: BTreeMap<u32, PdgEdge> = BTreeMap::new();
        for (&ei, gone) in &uncarried {
            if removed[ei] {
                continue;
            }
            let mut e2 = self.pdg.edges[ei];
            if !e2.kind.narrow_carried(|l| gone.contains(&l)) {
                removed[ei] = true; // nothing left of the dependence
                continue;
            }
            rewrites.insert(ei as u32, e2);
        }
        if !ctx_on {
            // Blurring touches exactly the carried edges; walk that index.
            for ei in self.pdg.carried_any_indices().iter() {
                if removed[ei] {
                    continue;
                }
                let e2 = rewrites.entry(ei as u32).or_insert(self.pdg.edges[ei]);
                blur_carried(&mut e2.kind);
            }
        }
        // Selectors attached to edges later narrowed away must not survive.
        selectors.retain(|ei, _| !removed[*ei as usize]);

        let removed = (0..removed.len()).filter(|&ei| removed[ei]).collect();
        let effective = EffectiveView::new(self.pdg, removed, rewrites);
        nodes.shrink_to_fit();
        PsPdg {
            func: self.func,
            nodes,
            undirected,
            selectors,
            contexts,
            variables,
            accesses,
            inst_node,
            effective,
            features: self.features,
        }
    }

    /// Resolve a directive's region to instruction sets.
    fn resolve_dir(&self, id: DirectiveId, d: &Directive) -> DirInfo {
        let f = self.program.module.function(self.func);
        let mut insts = BitSet::new();
        for &bb in &d.region.blocks {
            insts.extend(f.block(bb).insts.iter().map(|i| i.index()));
        }
        let loop_id = d.loop_header.and_then(|h| {
            self.analyses
                .forest
                .loop_ids()
                .find(|l| self.analyses.forest.info(*l).header == h)
        });
        let depends = match &d.kind {
            DirectiveKind::Task { depends } => depends.clone(),
            _ => Vec::new(),
        };
        DirInfo {
            id,
            kind: d.kind.clone(),
            insts,
            loop_id,
            clauses: d.clauses.clone(),
            depends,
            first_block: d.region.blocks.first().map(|b| b.index()).unwrap_or(0),
        }
    }

    /// The context a directive's semantics applies to: the innermost
    /// enclosing parallel/scope directive, else the innermost enclosing
    /// loop, else none.
    fn semantic_context(
        &self,
        d: &DirInfo,
        dirs: &[DirInfo],
        dir_ctx: &HashMap<DirectiveId, ContextId>,
        loop_ctx: &HashMap<LoopId, ContextId>,
    ) -> Option<ContextId> {
        if !self.features.has(Feature::Contexts) {
            return None;
        }
        // A directive that is itself a labeled region (parallel, scope) is
        // its own semantic context.
        if let Some(c) = dir_ctx.get(&d.id) {
            return Some(*c);
        }
        // Worksharing loops: their own loop is the context.
        if let Some(l) = d.loop_id {
            if let Some(c) = loop_ctx.get(&l) {
                return Some(*c);
            }
        }
        // Innermost enclosing parallel/scope region.
        let mut best: Option<(&DirInfo, ContextId)> = None;
        for other in dirs {
            if other.id == d.id {
                continue;
            }
            if !matches!(
                other.kind,
                DirectiveKind::Parallel | DirectiveKind::CilkScope
            ) {
                continue;
            }
            if !d.insts.is_subset(&other.insts) {
                continue;
            }
            let Some(c) = dir_ctx.get(&other.id) else {
                continue;
            };
            best = Some(match best {
                None => (other, *c),
                Some((cur, curc)) => {
                    if other.insts.len() < cur.insts.len() {
                        (other, *c)
                    } else {
                        (cur, curc)
                    }
                }
            });
        }
        if let Some((_, c)) = best {
            return Some(c);
        }
        // Innermost enclosing loop.
        let first = d.insts.first()?;
        let owner = self.program.module.function(self.func).inst_blocks();
        let bb = owner[first]?;
        self.analyses
            .forest
            .innermost(bb)
            .and_then(|l| loop_ctx.get(&l).copied())
    }

    /// The context of the parallel region enclosing `inst`, if any.
    fn enclosing_parallel_ctx(
        &self,
        inst: InstId,
        dirs: &[DirInfo],
        dir_ctx: &HashMap<DirectiveId, ContextId>,
    ) -> Option<ContextId> {
        dirs.iter()
            .filter(|d| matches!(d.kind, DirectiveKind::Parallel | DirectiveKind::CilkScope))
            .filter(|d| d.insts.contains(inst.index()))
            .min_by_key(|d| d.insts.len())
            .and_then(|d| dir_ctx.get(&d.id).copied())
    }

    /// Independence between sibling sections / tasks / spawned calls.
    fn sibling_independence(&self, dirs: &[DirInfo], removed: &mut [bool]) {
        // Sections inside the same `sections` container.
        for container in dirs
            .iter()
            .filter(|d| matches!(d.kind, DirectiveKind::Sections))
        {
            let members: Vec<&DirInfo> = dirs
                .iter()
                .filter(|d| {
                    matches!(d.kind, DirectiveKind::Section) && d.insts.is_subset(&container.insts)
                })
                .collect();
            for (i, a) in members.iter().enumerate() {
                for b in members.iter().skip(i + 1) {
                    self.remove_between(&a.insts, &b.insts, removed, None);
                }
            }
        }
        // Tasks: independent unless their depend clauses conflict.
        let tasks: Vec<&DirInfo> = dirs
            .iter()
            .filter(|d| matches!(d.kind, DirectiveKind::Task { .. }))
            .collect();
        for (i, a) in tasks.iter().enumerate() {
            for b in tasks.iter().skip(i + 1) {
                if depends_conflict(&a.depends, &b.depends) {
                    continue;
                }
                self.remove_between(&a.insts, &b.insts, removed, None);
            }
        }
        // cilk_spawn: the spawned region is independent of the continuation
        // until the next sync point (cilk_sync or the end of the enclosing
        // scope); memory dependences between them are declared absent.
        let syncs: Vec<&DirInfo> = dirs
            .iter()
            .filter(|d| {
                matches!(
                    d.kind,
                    DirectiveKind::CilkSync | DirectiveKind::Barrier | DirectiveKind::Taskwait
                )
            })
            .collect();
        for spawn in dirs
            .iter()
            .filter(|d| matches!(d.kind, DirectiveKind::CilkSpawn))
        {
            let spawn_end = spawn.first_block;
            // The continuation: instructions in blocks after the spawn
            // region and before the next sync directive's block.
            let next_sync_block = syncs
                .iter()
                .map(|s| s.first_block)
                .filter(|b| *b > spawn_end)
                .min()
                .unwrap_or(usize::MAX);
            let f = self.program.module.function(self.func);
            let owner = f.inst_blocks();
            let continuation: BitSet = f
                .inst_ids()
                .filter(|i| {
                    let Some(bb) = owner[i.index()] else {
                        return false;
                    };
                    bb.index() > spawn_end
                        && bb.index() < next_sync_block
                        && !spawn.insts.contains(i.index())
                })
                .map(|i| i.index())
                .collect();
            self.remove_between(&spawn.insts, &continuation, removed, None);
        }
    }

    /// Remove memory dependences between two instruction sets (except
    /// through `keep_base`). Walks the out-edges of the two sets via the
    /// adjacency index rather than the whole edge arena.
    fn remove_between(
        &self,
        a: &BitSet,
        b: &BitSet,
        removed: &mut [bool],
        keep_base: Option<MemBase>,
    ) {
        let mut sweep = |from: &BitSet, to: &BitSet| {
            for i in from.iter() {
                for &ei in self.pdg.edge_indices_from(InstId::from_index(i)) {
                    let ei = ei as usize;
                    let e = &self.pdg.edges[ei];
                    if removed[ei] || !e.kind.is_memory() {
                        continue;
                    }
                    if keep_base.is_some() && e.base == keep_base {
                        continue;
                    }
                    if to.contains(e.dst.index()) {
                        removed[ei] = true;
                    }
                }
            }
        };
        sweep(a, b);
        sweep(b, a);
    }

    /// Whether a base object is a single-cell scalar.
    fn scalar_base(&self, base: MemBase) -> bool {
        match base {
            MemBase::Alloca(i) => match &self.program.module.function(self.func).inst(i).inst {
                pspdg_ir::Inst::Alloca { ty, .. } => ty.flat_len() == 1,
                _ => false,
            },
            MemBase::Global(g) => self.program.module.global(g).ty.flat_len() == 1,
            _ => false,
        }
    }
}

fn push_undirected(edges: &mut Vec<PsEdge>, a: NodeId, b: NodeId, context: Option<ContextId>) {
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    let candidate = PsEdge::Undirected { a, b, context };
    if !edges.contains(&candidate) {
        edges.push(candidate);
    }
}

/// Replace precise carried-loop annotations with the UNKNOWN sentinel
/// (ablating the `Contexts` feature loses *where* a dependence is carried).
fn blur_carried(kind: &mut DepKind) {
    if let DepKind::Flow { carried, .. }
    | DepKind::Anti { carried, .. }
    | DepKind::Output { carried, .. } = kind
    {
        if !carried.is_empty() {
            *carried = [UNKNOWN_LOOP][..].into();
        }
    }
}

/// Do two tasks' depend clauses force an ordering?
fn depends_conflict(a: &[Depend], b: &[Depend]) -> bool {
    for da in a {
        for db in b {
            if da.var != db.var {
                continue;
            }
            let writes = |k: DependKind| matches!(k, DependKind::Out | DependKind::Inout);
            if writes(da.kind) || writes(db.kind) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;

    /// `k`'s base PDG and its `{C}` PS-PDG (Jensen & Karlsson's view).
    fn contexts_only(src: &str) -> (FunctionAnalyses, Pdg, PsPdg) {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let fs = FeatureSet::none().with(Feature::Contexts);
        let ps = build_pspdg(&p, f, &a, &pdg, fs);
        (a, pdg, ps)
    }

    #[test]
    fn contexts_remove_worksharing_carried_deps() {
        let (a, pdg, ps) = contexts_only(
            r#"
            int key[64]; int hist[64];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let l = a.forest.loop_ids().next().unwrap();
        let before = pdg.carried_edges(l).count();
        let after = ps.effective.carried_edges(l).count();
        assert!(
            after < before,
            "{{C}} must remove the histogram's carried deps"
        );
    }

    #[test]
    fn contexts_alone_keep_deps_touching_a_critical() {
        let (a, pdg, ps) = contexts_only(
            r#"
            int key[64]; int hist[64]; int t[64];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 64; i++) {
                    #pragma omp critical
                    { hist[key[i]] += 1; }
                    t[i] = hist[i];
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let l = a.forest.loop_ids().next().unwrap();
        // A critical region is opaque without HN+UE: every carried dep on
        // hist has an end inside it, so none is removed, not even the
        // ones to the read outside the region.
        let hist = |e: &&PdgEdge| matches!(e.base, Some(MemBase::Global(g)) if g.index() == 1);
        let base = pdg.carried_edges(l).filter(hist).count();
        assert!(base > 0);
        assert_eq!(ps.effective.carried_edges(l).filter(hist).count(), base);
    }

    #[test]
    fn contexts_ignore_unannotated_loops() {
        let (_, pdg, ps) = contexts_only(
            r#"
            int key[64]; int hist[64];
            void k() {
                int i;
                for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
        );
        assert_eq!(ps.effective.surviving_len(), pdg.edges.len());
        assert_eq!(ps.effective.rewrite_count(), 0);
    }
}
