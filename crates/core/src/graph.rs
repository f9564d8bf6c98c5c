//! The PS-PDG data model, following Table 1 of the paper verbatim:
//!
//! ```text
//! PS-PDG        ::= (Node+, Edge*, Variable*, VariableAccess*)
//! Node          ::= (Instruction, Trait*) | (HierarchicalNode, Trait*)
//! Hierarchical  ::= (Node+, Context?)
//! Trait         ::= (Singular | Orderless | Atomic, Context)
//! Edge          ::= DirectedEdge | UndirectedEdge
//! DirectedEdge  ::= (Node_producer, Node_consumer, Data-selector?)
//! UndirectedEdge::= (Node, Node, Context)
//! Data-selector ::= (Any-Producer | Last-Producer | All-Consumers, Context)
//! Variable      ::= (Privatizable | Reducible, Context)
//! VariableAccess::= (Variable, Node*_use, Node*_def)
//! Context       ::= unique identifier (a labeled hierarchical node)
//! ```

use std::collections::BTreeMap;
use std::fmt;

use pspdg_ir::{FuncId, InstId, LoopId};
use pspdg_parallel::{DirectiveId, ReductionOp};
use pspdg_pdg::{DepKind, EffectiveView, MemBase};

/// Identifier of a PS-PDG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index into the node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a context (a *labeled* hierarchical node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub u32);

impl ContextId {
    /// Raw index into the context arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// What gave rise to a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextOrigin {
    /// A natural loop of the function.
    Loop(LoopId),
    /// A directive region (e.g. `omp parallel`).
    Directive(DirectiveId),
    /// The whole function body.
    Function,
}

/// A context: a labeled hierarchical node (paper §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    /// The hierarchical node carrying the label.
    pub node: NodeId,
    /// Provenance.
    pub origin: ContextOrigin,
}

/// Node-trait kinds (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraitKind {
    /// Instances execute atomically (no overlap).
    Atomic,
    /// Instances may execute in any order within the context.
    Orderless,
    /// Executed by a single instance per context instance.
    Singular,
}

impl TraitKind {
    /// Lowercase name for signatures and DOT output.
    pub fn name(self) -> &'static str {
        match self {
            TraitKind::Atomic => "atomic",
            TraitKind::Orderless => "orderless",
            TraitKind::Singular => "singular",
        }
    }
}

/// A trait attached to a node, valid within a context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTrait {
    /// The trait.
    pub kind: TraitKind,
    /// Context in which it applies (`None` only when contexts are ablated).
    pub context: Option<ContextId>,
}

/// Node payload: a single instruction or a hierarchy of nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Leaf: one IR instruction.
    Instruction(InstId),
    /// A hierarchical node (paper §3.1); labeled ones are contexts.
    Hierarchical {
        /// Direct children.
        children: Vec<NodeId>,
        /// The context label, if this hierarchical node is labeled.
        context: Option<ContextId>,
    },
}

/// A PS-PDG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    /// Traits (paper §3.2).
    pub traits: Vec<NodeTrait>,
    /// Diagnostic label (e.g. `"critical"`, `"loop bb3"`).
    pub label: String,
}

/// Data-selector kinds (paper §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SelectorKind {
    /// The consumer may use data generated by any instance of the producer.
    AnyProducer,
    /// The consumer must use data generated by the last instance.
    LastProducer,
    /// All consumers must use the data generated by the producer.
    AllConsumers,
}

impl SelectorKind {
    /// Lowercase name for signatures and DOT output.
    pub fn name(self) -> &'static str {
        match self {
            SelectorKind::AnyProducer => "any-producer",
            SelectorKind::LastProducer => "last-producer",
            SelectorKind::AllConsumers => "all-consumers",
        }
    }
}

/// A data selector attached to a directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSelector {
    /// Which instances may produce/consume.
    pub kind: SelectorKind,
    /// Context in which the selector applies.
    pub context: Option<ContextId>,
}

/// A PS-PDG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PsEdge {
    /// Ordinary PDG-style dependence: consumer waits for producer.
    Directed {
        /// Producer node.
        src: NodeId,
        /// Consumer node.
        dst: NodeId,
        /// Underlying dependence kind (from the PDG).
        dep: DepKind,
        /// Base object, for memory dependences.
        base: Option<MemBase>,
        /// Optional data selector (paper §3.5).
        selector: Option<DataSelector>,
    },
    /// Mutual exclusion without ordering (paper §3.4): the endpoints'
    /// dynamic instances may not overlap, but any order is allowed.
    Undirected {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint (may equal `a`: self mutual-exclusion).
        b: NodeId,
        /// Context in which the constraint applies.
        context: Option<ContextId>,
    },
}

/// Parallel-semantic-variable kinds (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariableKind {
    /// Can be cloned per thread/task.
    Privatizable,
    /// Clonable and mergeable with the given reduction.
    Reducible(ReductionOp),
}

/// A parallel semantic variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variable {
    /// The program object it describes.
    pub base: MemBase,
    /// Privatizable or reducible.
    pub kind: VariableKind,
    /// Context in which the property holds.
    pub context: Option<ContextId>,
    /// Source-level name (diagnostics).
    pub name: String,
}

/// Use/def edges from a variable to nodes (paper §3.6).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VariableAccess {
    /// Nodes reading the variable.
    pub uses: Vec<NodeId>,
    /// Nodes writing the variable.
    pub defs: Vec<NodeId>,
}

/// The Parallel Semantics Program Dependence Graph of one function.
///
/// Alongside the Table-1 structure, the PS-PDG keeps an *effective*
/// dependence graph: the PDG after applying every dependence removal the
/// parallel semantics justify. Loop queries (SCCs, carried dependences) run
/// against it; the structural fields are what the §4 necessity study
/// compares.
///
/// The effective graph is an [`EffectiveView`] overlay on the base PDG
/// (removal mask + sparse carried-set rewrites), so assembling a PS-PDG no
/// longer clones the surviving edges. Directed PS-PDG edges are derived
/// from the overlay on demand ([`PsPdg::edges`]); only the undirected
/// mutual-exclusion edges and the [`DataSelector`] table (keyed by base-PDG
/// edge id) are stored explicitly.
#[derive(Debug, Clone)]
pub struct PsPdg {
    /// Function this graph describes.
    pub func: FuncId,
    /// Node arena; leaves first, then hierarchical nodes.
    pub nodes: Vec<Node>,
    /// Undirected (mutual-exclusion) edges. The directed edges live in the
    /// effective overlay; [`PsPdg::edges`] yields both.
    pub undirected: Vec<PsEdge>,
    /// Data selectors, keyed by the *base-PDG edge id* of the surviving
    /// directed edge they annotate.
    pub selectors: BTreeMap<u32, DataSelector>,
    /// Context arena.
    pub contexts: Vec<Context>,
    /// Parallel semantic variables.
    pub variables: Vec<Variable>,
    /// Use/def relations, parallel to `variables`.
    pub accesses: Vec<VariableAccess>,
    /// Leaf node of each instruction.
    pub inst_node: Vec<NodeId>,
    /// The dependence graph after semantic removals (see type docs).
    pub effective: EffectiveView,
    /// Features the graph was built with.
    pub features: crate::features::FeatureSet,
}

impl PsPdg {
    /// The directed PS-PDG edge for surviving base edge `ei` (instruction
    /// endpoints mapped to leaf nodes, selector attached from the table).
    fn directed_edge(&self, ei: u32) -> PsEdge {
        let e = self.effective.edge(ei);
        PsEdge::Directed {
            src: self.inst_node[e.src.index()],
            dst: self.inst_node[e.dst.index()],
            dep: e.kind,
            base: e.base,
            selector: self.selectors.get(&ei).copied(),
        }
    }

    /// Every PS-PDG edge: the directed edges derived from the effective
    /// overlay (in base-edge-id order), then the undirected edges. Each
    /// directed edge is materialized on the fly — use the overlay queries
    /// directly on hot paths.
    pub fn edges(&self) -> impl Iterator<Item = PsEdge> + '_ {
        self.effective
            .edge_ids()
            .map(|ei| self.directed_edge(ei))
            .chain(self.undirected.iter().cloned())
    }

    /// Total edge count (directed survivors + undirected).
    pub fn edge_count(&self) -> usize {
        self.effective.surviving_len() + self.undirected.len()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Borrow a context.
    pub fn context(&self, id: ContextId) -> &Context {
        &self.contexts[id.index()]
    }

    /// Undirected edges (mutual exclusions).
    pub fn undirected_edges(&self) -> impl Iterator<Item = (&PsEdge, NodeId, NodeId)> + '_ {
        self.undirected.iter().filter_map(|e| match e {
            PsEdge::Undirected { a, b, .. } => Some((e, *a, *b)),
            _ => None,
        })
    }

    /// All instructions contained (transitively) in node `id`.
    pub fn node_insts(&self, id: NodeId) -> Vec<InstId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            match &self.node(n).kind {
                NodeKind::Instruction(i) => out.push(*i),
                NodeKind::Hierarchical { children, .. } => stack.extend(children.iter().copied()),
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// A canonical structural signature, used by the §4 necessity study to
    /// decide whether two programs map to the *same* abstraction instance.
    ///
    /// Two programs whose IR matches instruction-for-instruction get equal
    /// signatures exactly when their PS-PDGs are structurally identical
    /// (same nodes, traits, contexts, edges, selectors, variables).
    pub fn signature(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let mut traits: Vec<String> = n
                .traits
                .iter()
                .map(|t| {
                    format!(
                        "{}@{}",
                        t.kind.name(),
                        t.context
                            .map(|c| c.to_string())
                            .unwrap_or_else(|| "-".into())
                    )
                })
                .collect();
            traits.sort();
            match &n.kind {
                NodeKind::Instruction(id) => {
                    lines.push(format!("node n{i} inst {id} [{}]", traits.join(",")));
                }
                NodeKind::Hierarchical { children, context } => {
                    let mut kids: Vec<u32> = children.iter().map(|c| c.0).collect();
                    kids.sort_unstable();
                    lines.push(format!(
                        "node n{i} hier {:?} ctx {} [{}]",
                        kids,
                        context.map(|c| c.to_string()).unwrap_or_else(|| "-".into()),
                        traits.join(",")
                    ));
                }
            }
        }
        let mut edge_lines: Vec<String> = self
            .edges()
            .map(|e| match &e {
                PsEdge::Directed {
                    src,
                    dst,
                    dep,
                    base,
                    selector,
                } => {
                    let sel = selector
                        .map(|s| {
                            format!(
                                "{}@{}",
                                s.kind.name(),
                                s.context
                                    .map(|c| c.to_string())
                                    .unwrap_or_else(|| "-".into())
                            )
                        })
                        .unwrap_or_else(|| "-".into());
                    let carried = if e.carried_anywhere() {
                        "carried"
                    } else {
                        "local"
                    };
                    format!(
                        "edge {src}->{dst} {} {carried} base {:?} sel {sel}",
                        dep.name(),
                        base
                    )
                }
                PsEdge::Undirected { a, b, context } => {
                    format!(
                        "uedge {a}--{b} ctx {}",
                        context.map(|c| c.to_string()).unwrap_or_else(|| "-".into())
                    )
                }
            })
            .collect();
        edge_lines.sort();
        lines.extend(edge_lines);
        let mut var_lines: Vec<String> = self
            .variables
            .iter()
            .zip(&self.accesses)
            .map(|(v, a)| {
                format!(
                    "var {:?} {} ctx {} uses {} defs {}",
                    v.base,
                    match v.kind {
                        VariableKind::Privatizable => "privatizable".to_string(),
                        VariableKind::Reducible(op) => format!("reducible({op:?})"),
                    },
                    v.context
                        .map(|c| c.to_string())
                        .unwrap_or_else(|| "-".into()),
                    a.uses.len(),
                    a.defs.len()
                )
            })
            .collect();
        var_lines.sort();
        lines.extend(var_lines);
        lines.join("\n")
    }
}

impl PsEdge {
    /// Whether this is a directed dependence carried at some loop.
    fn carried_anywhere(&self) -> bool {
        match self {
            PsEdge::Directed { dep, .. } => !dep.carried().is_empty(),
            PsEdge::Undirected { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_and_selector_names() {
        assert_eq!(TraitKind::Atomic.name(), "atomic");
        assert_eq!(TraitKind::Orderless.name(), "orderless");
        assert_eq!(TraitKind::Singular.name(), "singular");
        assert_eq!(SelectorKind::AnyProducer.name(), "any-producer");
        assert_eq!(SelectorKind::LastProducer.name(), "last-producer");
        assert_eq!(SelectorKind::AllConsumers.name(), "all-consumers");
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ContextId(1).to_string(), "ctx1");
    }
}
