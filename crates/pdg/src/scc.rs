//! Strongly-connected components of a loop's dependence subgraph.
//!
//! NOELLE's loop-parallelization pipeline partitions a loop body into SCCs
//! of its PDG subgraph and classifies each SCC as *sequential* (it contains
//! a loop-carried dependence, so its dynamic instances must run in
//! iteration order) or *parallel*. DOALL requires no sequential SCCs
//! (beyond recognized induction variables); HELIX builds sequential
//! segments from the sequential SCCs; DSWP pipelines the SCC DAG.

use std::collections::HashMap;

use pspdg_ir::{InstId, LoopId};

use crate::alias::MemBase;
use crate::effective::EffectiveView;
use crate::graph::PdgEdge;
use crate::FunctionAnalyses;

/// One SCC of a loop body's dependence subgraph.
#[derive(Debug, Clone)]
pub struct LoopScc {
    /// Member instructions (sorted).
    pub insts: Vec<InstId>,
    /// Whether the SCC contains an internal loop-carried dependence.
    pub sequential: bool,
    /// Base objects of the internal carried dependences (for removal
    /// queries by the J&K / PS-PDG refinements).
    pub carried_bases: Vec<MemBase>,
}

/// The SCC DAG of one loop body.
#[derive(Debug, Clone)]
pub struct SccDag {
    /// SCCs in topological order (producers before consumers).
    pub sccs: Vec<LoopScc>,
    /// DAG edges `(from, to)` between SCC indices.
    pub edges: Vec<(usize, usize)>,
}

impl SccDag {
    /// Number of sequential SCCs.
    pub fn sequential_count(&self) -> usize {
        self.sccs.iter().filter(|s| s.sequential).count()
    }

    /// Number of parallel SCCs.
    pub fn parallel_count(&self) -> usize {
        self.sccs.len() - self.sequential_count()
    }
}

/// Compute the SCC DAG of loop `l` as one reader of `view` sees it.
///
/// `carried_at` is that reader's verdict on each surviving edge between two
/// loop instructions: `None` discharges the edge for this loop (a
/// rematerialized induction variable, a privatized or reduced variable),
/// `Some(c)` keeps it and says whether it counts as carried at `l`. Only the
/// loop instructions' out-edges in the base arena are walked, and no graph
/// is built: every per-loop refinement is a predicate over the shared view.
pub fn loop_scc_dag(
    view: &EffectiveView,
    analyses: &FunctionAnalyses,
    l: LoopId,
    carried_at: impl Fn(&PdgEdge) -> Option<bool>,
) -> SccDag {
    let nodes = analyses.loop_insts(l);
    let in_loop: HashMap<InstId, u32> = nodes
        .iter()
        .enumerate()
        .map(|(idx, &i)| (i, idx as u32))
        .collect();
    let n = nodes.len();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    // (from, to, carried at `l`, base object)
    let mut edge_refs: Vec<(u32, u32, bool, Option<MemBase>)> = Vec::new();
    for (s, &inst) in nodes.iter().enumerate() {
        for e in view.edges_from(inst) {
            let Some(&d) = in_loop.get(&e.dst) else {
                continue;
            };
            let Some(carried) = carried_at(e) else {
                continue;
            };
            adj[s].push(d);
            edge_refs.push((s as u32, d, carried, e.base));
        }
    }

    // Tarjan (iterative).
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![u32::MAX; n];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    let mut counter = 0u32;
    #[allow(clippy::needless_range_loop)]
    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        // (node, next child index)
        let mut call: Vec<(u32, usize)> = vec![(root as u32, 0)];
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            let vu = v as usize;
            if *ci < adj[vu].len() {
                let w = adj[vu][*ci];
                *ci += 1;
                let wu = w as usize;
                if index[wu] == u32::MAX {
                    index[wu] = counter;
                    low[wu] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[wu] = true;
                    call.push((w, 0));
                } else if on_stack[wu] {
                    low[vu] = low[vu].min(index[wu]);
                }
            } else {
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    let pu = p as usize;
                    low[pu] = low[pu].min(low[vu]);
                }
                if low[vu] == index[vu] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comps.len() as u32;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order.
    comps.reverse();
    for c in comp_of.iter_mut() {
        *c = (comps.len() as u32 - 1) - *c;
    }

    // Classify and collect DAG edges.
    let mut sccs: Vec<LoopScc> = comps
        .iter()
        .map(|members| {
            let mut insts: Vec<InstId> = members.iter().map(|m| nodes[*m as usize]).collect();
            insts.sort();
            LoopScc {
                insts,
                sequential: false,
                carried_bases: Vec::new(),
            }
        })
        .collect();
    let mut dag_edges: Vec<(usize, usize)> = Vec::new();
    for (s, d, carried, base) in edge_refs {
        let cs = comp_of[s as usize] as usize;
        let cd = comp_of[d as usize] as usize;
        if cs == cd {
            if carried {
                sccs[cs].sequential = true;
                if let Some(b) = base {
                    if !sccs[cs].carried_bases.contains(&b) {
                        sccs[cs].carried_bases.push(b);
                    }
                }
            }
        } else if !dag_edges.contains(&(cs, cd)) {
            dag_edges.push((cs, cd));
        }
    }
    // A single-instruction SCC with a carried self-edge is also sequential
    // (handled above since cs == cd).
    SccDag {
        sccs,
        edges: dag_edges,
    }
}

impl FunctionAnalyses {
    /// Instructions inside loop `l`'s blocks, in block order. Requires the
    /// block→instruction map captured at construction.
    pub fn loop_insts(&self, l: LoopId) -> Vec<InstId> {
        let info = self.forest.info(l);
        let mut out = Vec::new();
        for &bb in &info.blocks {
            out.extend(self.block_insts[bb.index()].iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Pdg;
    use pspdg_frontend::compile;

    fn dag_for(src: &str, name: &str) -> (FunctionAnalyses, SccDag) {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name(name).unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let l = a.forest.loop_ids().next().unwrap();
        let view = EffectiveView::identity(&pdg);
        let dag = loop_scc_dag(&view, &a, l, |e| Some(e.kind.carried_at(l)));
        (a, dag)
    }

    #[test]
    fn doall_loop_has_one_sequential_scc() {
        let (_, dag) = dag_for(
            r#"
            int v[32];
            void k() { int i; for (i = 0; i < 32; i++) { v[i] = i; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        // Only the induction-variable chain is sequential.
        assert_eq!(dag.sequential_count(), 1);
        assert!(dag.parallel_count() >= 1);
    }

    #[test]
    fn accumulation_adds_a_sequential_scc() {
        let (_, dag) = dag_for(
            r#"
            int v[32];
            int s;
            void k() { int i; for (i = 0; i < 32; i++) { s += v[i]; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        // IV chain + accumulation chain.
        assert_eq!(dag.sequential_count(), 2);
    }

    #[test]
    fn recurrence_scc_records_its_base() {
        let (_, dag) = dag_for(
            r#"
            int v[32];
            void k() { int i; for (i = 1; i < 32; i++) { v[i] = v[i - 1]; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let rec = dag
            .sccs
            .iter()
            .find(|s| {
                s.sequential
                    && s.carried_bases
                        .iter()
                        .any(|b| matches!(b, MemBase::Global(_)))
            })
            .expect("recurrence SCC");
        assert!(rec.insts.len() >= 2);
    }

    #[test]
    fn dag_edges_are_acyclic_and_topological() {
        let (_, dag) = dag_for(
            r#"
            int a[32]; int b[32];
            void k() { int i; for (i = 0; i < 32; i++) { a[i] = i; b[i] = a[i] * 2; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        for &(s, d) in &dag.edges {
            assert!(
                s < d,
                "edges must go forward in topological order: {s} -> {d}"
            );
        }
    }
}
