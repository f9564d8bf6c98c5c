//! Queries over a built PS-PDG: the interface the automatic parallelizer
//! consumes (paper §6.1: "we utilize any PS-PDG features within the SCC to
//! determine if the loop-carried dependences can be removed").

use std::collections::BTreeSet;

use pspdg_ir::LoopId;
use pspdg_pdg::scc::loop_scc_dag;
use pspdg_pdg::{DepKind, EffectiveView, FunctionAnalyses, MemBase, PdgEdge, SccDag};

use crate::build::UNKNOWN_LOOP;
use crate::graph::{ContextOrigin, PsPdg, VariableKind};

/// Whether `kind` must be treated as carried at `l`, honoring the
/// context-ablation sentinel (carried-somewhere ⇒ carried everywhere).
fn carried_at(kind: &DepKind, l: LoopId) -> bool {
    kind.carried_at(l) || kind.carried().contains(&UNKNOWN_LOOP)
}

/// Whether variable `var_idx`'s parallel semantics applies when
/// parallelizing loop `l` (its context must enclose the loop).
pub fn variable_applies_to_loop(
    pspdg: &PsPdg,
    analyses: &FunctionAnalyses,
    var_idx: usize,
    l: LoopId,
) -> bool {
    let Some(ctx) = pspdg.variables[var_idx].context else {
        return false; // context unknown (ablated) ⇒ cannot be used
    };
    match pspdg.context(ctx).origin {
        ContextOrigin::Function => true,
        ContextOrigin::Loop(outer) => analyses.forest.loop_contains(outer, l),
        ContextOrigin::Directive(_) => {
            // The context node must contain all of the loop's instructions.
            let node = pspdg.context(ctx).node;
            let node_insts = pspdg.node_insts(node);
            analyses
                .loop_insts(l)
                .iter()
                .all(|i| node_insts.binary_search(i).is_ok())
        }
    }
}

/// The bases whose carried dependences loop `l` can discharge through
/// parallel semantic variables:
///
/// * privatizable variables license removing carried **anti** and **output**
///   dependences (each worker gets its own copy);
/// * reducible variables license removing **all** carried dependences on
///   the variable (the merge function reconstitutes the final value).
#[derive(Default)]
struct RemovableBases {
    reducible: BTreeSet<MemBase>,
    privatizable: BTreeSet<MemBase>,
}

impl RemovableBases {
    fn for_loop(pspdg: &PsPdg, analyses: &FunctionAnalyses, l: LoopId) -> RemovableBases {
        let mut out = RemovableBases::default();
        for (i, v) in pspdg.variables.iter().enumerate() {
            if !variable_applies_to_loop(pspdg, analyses, i, l) {
                continue;
            }
            match v.kind {
                VariableKind::Reducible(_) => {
                    out.reducible.insert(v.base);
                }
                VariableKind::Privatizable => {
                    out.privatizable.insert(v.base);
                }
            }
        }
        out
    }

    fn removes(&self, edge: &PdgEdge) -> bool {
        let Some(base) = edge.base else { return false };
        self.reducible.contains(&base)
            || (self.privatizable.contains(&base)
                && matches!(edge.kind, DepKind::Anti { .. } | DepKind::Output { .. }))
    }
}

/// How one loop reads a dependence view: the per-loop refinements every
/// abstraction shares, as predicates over the view's edges instead of a
/// graph per loop.
///
/// * the context-ablation sentinel counts as carried at every loop;
/// * a carried edge on a base the loop can privatize or reduce is
///   discharged (only when the reader brings a PS-PDG's variables).
///
/// Consumers add their own exemptions on top (the planner's induction
/// variables) through [`LoopDeps::sccs`].
pub struct LoopDeps<'a> {
    /// The abstraction's dependence view of the function.
    pub view: &'a EffectiveView,
    /// The function's structural analyses.
    pub analyses: &'a FunctionAnalyses,
    /// The loop being read.
    pub loop_id: LoopId,
    removable: RemovableBases,
}

impl<'a> LoopDeps<'a> {
    /// Loop `l` under `view`, with no parallel semantic variables (how the
    /// base PDG is read).
    pub fn new(view: &'a EffectiveView, analyses: &'a FunctionAnalyses, l: LoopId) -> LoopDeps<'a> {
        LoopDeps {
            view,
            analyses,
            loop_id: l,
            removable: RemovableBases::default(),
        }
    }

    /// Loop `l` with the full power of a PS-PDG: its effective view and
    /// its variables.
    pub fn of_pspdg(pspdg: &'a PsPdg, analyses: &'a FunctionAnalyses, l: LoopId) -> LoopDeps<'a> {
        LoopDeps {
            removable: RemovableBases::for_loop(pspdg, analyses, l),
            ..LoopDeps::new(&pspdg.effective, analyses, l)
        }
    }

    /// This loop's verdict on a surviving edge of the view: `None` when the
    /// loop discharges it, else whether it counts as carried here.
    fn classify(&self, e: &PdgEdge) -> Option<bool> {
        let carried = carried_at(&e.kind, self.loop_id);
        (!(carried && self.removable.removes(e))).then_some(carried)
    }

    /// The dependences this loop still sees as carried, straight from the
    /// view's carried index (sentinel-carried edges constrain every loop,
    /// wherever they sit in the function).
    pub fn carried_edges<'s>(&'s self) -> impl Iterator<Item = &'a PdgEdge> + 's {
        let view = self.view;
        view.carried_edges(self.loop_id)
            .chain(view.carried_edges(UNKNOWN_LOOP))
            .filter(|e| !self.removable.removes(e))
    }

    /// The loop's SCC DAG, with the carried edges `exempt` accepts
    /// discharged as well.
    pub fn sccs(&self, exempt: impl Fn(&PdgEdge) -> bool) -> SccDag {
        loop_scc_dag(self.view, self.analyses, self.loop_id, |e| {
            self.classify(e).filter(|&c| !(c && exempt(e)))
        })
    }
}

/// Remaining carried dependences of loop `l` under the PS-PDG, excluding
/// the canonical induction variable's own update chain (recognized the same
/// way for every abstraction).
pub fn blocking_carried_edges<'a>(
    pspdg: &'a PsPdg,
    analyses: &'a FunctionAnalyses,
    l: LoopId,
) -> Vec<&'a PdgEdge> {
    let iv = analyses
        .canonical_of(l)
        .map(|c| MemBase::Alloca(c.iv_alloca));
    LoopDeps::of_pspdg(pspdg, analyses, l)
        .carried_edges()
        .filter(|e| iv.is_none() || e.base != iv)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_pspdg;
    use crate::features::FeatureSet;
    use pspdg_frontend::compile;
    use pspdg_pdg::Pdg;

    fn pspdg_of(src: &str, name: &str) -> (FunctionAnalyses, PsPdg) {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name(name).unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let ps = build_pspdg(&p, f, &a, &pdg, FeatureSet::all());
        (a, ps)
    }

    #[test]
    fn worksharing_loop_loses_carried_deps() {
        // hist[key[i]]++ is conservatively carried in the PDG; the omp-for
        // declaration removes it.
        let (a, ps) = pspdg_of(
            r#"
            int key[64]; int hist[64];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let blocking = blocking_carried_edges(&ps, &a, l);
        assert!(blocking.is_empty(), "blocking edges remain: {blocking:?}");
    }

    #[test]
    fn sequential_loop_keeps_carried_deps() {
        // No pragma ⇒ nothing removed.
        let (a, ps) = pspdg_of(
            r#"
            int v[64];
            void k() { int i; for (i = 1; i < 64; i++) { v[i] = v[i - 1]; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let blocking = blocking_carried_edges(&ps, &a, l);
        assert!(!blocking.is_empty());
    }

    #[test]
    fn privatizable_variable_removes_anti_output_elsewhere() {
        // `tmp` is private to the parallel region; the i-loop is NOT
        // worksharing, but the PS-PDG still knows tmp can be privatized, so
        // its carried anti/output deps in that loop are removable. Carried
        // *flow* deps must NOT be removed by privatization (the analysis
        // cannot prove each iteration kills the buffer before reading it).
        let (a, ps) = pspdg_of(
            r#"
            int tmp[16]; int out[256];
            void k() {
                int i; int j;
                #pragma omp parallel private(tmp)
                {
                    for (i = 0; i < 256; i++) {
                        for (j = 0; j < 16; j++) { tmp[j] = i + j; }
                        out[i] = tmp[0] + tmp[15];
                    }
                }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let outer = a
            .forest
            .loop_ids()
            .find(|l| a.forest.info(*l).depth == 1)
            .unwrap();
        let blocking = blocking_carried_edges(&ps, &a, outer);
        let tmp_blocking: Vec<_> = blocking
            .iter()
            .filter(|e| matches!(e.base, Some(pspdg_pdg::MemBase::Global(g)) if g.index() == 0))
            .collect();
        assert!(
            tmp_blocking
                .iter()
                .all(|e| matches!(e.kind, DepKind::Flow { .. })),
            "anti/output on tmp must be removable, flow must remain: {tmp_blocking:?}"
        );
        assert!(
            !tmp_blocking.is_empty(),
            "conservative carried flow through tmp is expected to remain"
        );
    }

    #[test]
    fn reduction_variable_removes_flow() {
        let (a, ps) = pspdg_of(
            r#"
            double s; double v[64];
            void k() {
                int i;
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 64; i++) { s += v[i]; }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let blocking = blocking_carried_edges(&ps, &a, l);
        assert!(blocking.is_empty(), "{blocking:?}");
        assert!(ps
            .variables
            .iter()
            .any(|v| matches!(v.kind, VariableKind::Reducible(_))));
    }

    #[test]
    fn context_ablation_is_conservative() {
        // Without contexts the worksharing declaration cannot be scoped, so
        // the histogram's carried dependence must survive — and the sentinel
        // must make it count as carried at *every* loop.
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
        let ablated = build_pspdg(
            &p,
            f,
            &a,
            &pdg,
            crate::features::FeatureSet::all().without(crate::features::Feature::Contexts),
        );
        let l = a.forest.loop_ids().next().unwrap();
        let blocking = blocking_carried_edges(&ablated, &a, l);
        assert!(
            !blocking.is_empty(),
            "w/o contexts the declaration cannot be used; deps must remain"
        );
        // The sentinel resolves to the queried loop.
        for e in &blocking {
            assert!(carried_at(&e.kind, l));
        }
    }

    #[test]
    fn parallel_module_driver_matches_sequential_builds() {
        let p = compile(
            r#"
            int key[64]; int hist[64]; int v[64];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
            }
            void m() { int i; for (i = 1; i < 64; i++) { v[i] = v[i - 1]; } }
            int main() { k(); m(); return 0; }
            "#,
        )
        .unwrap();
        let built = crate::build::build_pspdg_module(&p, FeatureSet::all());
        assert_eq!(built.len(), p.module.function_ids().count());
        for fp in &built {
            let a = FunctionAnalyses::compute(&p.module, fp.func);
            let pdg = Pdg::build(&p.module, fp.func, &a);
            let ps = build_pspdg(&p, fp.func, &a, &pdg, FeatureSet::all());
            assert_eq!(fp.pdg.edges.len(), pdg.edges.len());
            assert_eq!(fp.pspdg.edge_count(), ps.edge_count());
            assert_eq!(
                fp.pspdg.effective.surviving_len(),
                ps.effective.surviving_len()
            );
            for l in a.forest.loop_ids() {
                assert_eq!(
                    blocking_carried_edges(&fp.pspdg, &fp.analyses, l).len(),
                    blocking_carried_edges(&ps, &a, l).len()
                );
            }
        }
    }

    #[test]
    fn sentinel_counts_as_carried_everywhere() {
        use crate::build::UNKNOWN_LOOP;
        use pspdg_ir::LoopId;
        let kind = DepKind::Flow {
            carried: [UNKNOWN_LOOP][..].into(),
            intra: false,
        };
        assert!(carried_at(&kind, LoopId(0)));
        assert!(carried_at(&kind, LoopId(7)));
        let none = DepKind::Flow {
            carried: Default::default(),
            intra: true,
        };
        assert!(!carried_at(&none, LoopId(0)));
    }

    #[test]
    fn prefix_sum_on_private_var_stays_sequential() {
        // Privatization must NOT remove carried *flow* deps: the prefix sum
        // over the private buffer is a real recurrence.
        let (a, ps) = pspdg_of(
            r#"
            int buf[64];
            void k() {
                int j;
                #pragma omp parallel private(buf)
                {
                    for (j = 1; j < 64; j++) { buf[j] += buf[j - 1]; }
                }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let blocking = blocking_carried_edges(&ps, &a, l);
        assert!(
            blocking
                .iter()
                .any(|e| matches!(e.kind, DepKind::Flow { .. })),
            "the recurrence flow dep must survive privatization"
        );
    }
}
