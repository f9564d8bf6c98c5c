//! Technique applicability for one loop under one dependence view.

use pspdg_core::query::LoopDeps;
use pspdg_ir::LoopId;
use pspdg_pdg::{FunctionAnalyses, MemBase, SccDag};

/// The SCC-level facts the planners need about a (loop, dependence-view)
/// pair.
#[derive(Debug, Clone)]
pub(crate) struct LoopAssessment {
    /// Whether DOALL applies: canonical and no sequential SCC remains.
    pub doall: bool,
    /// Number of sequential SCCs (drives HELIX's sequential segments).
    pub seq_sccs: usize,
    /// Number of parallel SCCs.
    pub par_sccs: usize,
    /// Total SCCs (drives DSWP's pipeline stages).
    pub total_sccs: usize,
    /// The SCC DAG itself (for plan construction).
    pub dag: SccDag,
}

/// Assess the loop `deps` reads under its dependence view.
///
/// The canonical induction variables of the loop *and of every canonical
/// loop nested inside it* are exempted before classification — every
/// production parallelizer recognizes induction variables and
/// rematerializes them per worker, for every abstraction equally. (An inner
/// loop's IV slot is re-initialized each outer iteration; treating its
/// conservative outer-carried self-dependence as real would glue the whole
/// inner body into one sequential SCC.)
pub(crate) fn assess_loop(deps: &LoopDeps<'_>) -> LoopAssessment {
    let (analyses, loop_id) = (deps.analyses, deps.loop_id);
    let canonical = analyses.canonical_of(loop_id).is_some();
    let ivs = nested_canonical_ivs(analyses, loop_id);
    let dag = deps.sccs(|e| matches!(e.base, Some(MemBase::Alloca(a)) if ivs.contains(&a)));
    let seq_sccs = dag.sequential_count();
    let par_sccs = dag.parallel_count();
    let total_sccs = dag.sccs.len();
    LoopAssessment {
        doall: canonical && seq_sccs == 0,
        seq_sccs,
        par_sccs,
        total_sccs,
        dag,
    }
}

/// Canonical IV slots of `loop_id` and all loops nested within it.
fn nested_canonical_ivs(analyses: &FunctionAnalyses, loop_id: LoopId) -> Vec<pspdg_ir::InstId> {
    let mut out = Vec::new();
    let mut stack = vec![loop_id];
    while let Some(l) = stack.pop() {
        if let Some(c) = analyses.canonical_of(l) {
            out.push(c.iv_alloca);
        }
        stack.extend(analyses.forest.info(l).children.iter().copied());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_core::{build_pspdg, FeatureSet, PsPdg};
    use pspdg_frontend::compile;
    use pspdg_pdg::{EffectiveView, Pdg};

    /// Analyses, the plain-PDG view and the PS-PDG of function `k`.
    fn setup(src: &str) -> (FunctionAnalyses, EffectiveView, PsPdg) {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let ps = build_pspdg(&p, f, &a, &pdg, FeatureSet::all());
        (a, EffectiveView::identity(&pdg), ps)
    }

    fn under_pdg(a: &FunctionAnalyses, pdg: &EffectiveView, l: LoopId) -> LoopAssessment {
        assess_loop(&LoopDeps::new(pdg, a, l))
    }

    fn under_pspdg(a: &FunctionAnalyses, ps: &PsPdg, l: LoopId) -> LoopAssessment {
        assess_loop(&LoopDeps::of_pspdg(ps, a, l))
    }

    #[test]
    fn independent_loop_is_doall_everywhere() {
        let (a, pdg, ps) = setup(
            r#"
            int v[64];
            void k() { int i; for (i = 0; i < 64; i++) { v[i] = i; } }
            int main() { k(); return 0; }
            "#,
        );
        let l = a.forest.loop_ids().next().unwrap();
        let base = under_pdg(&a, &pdg, l);
        assert!(base.doall, "PDG view: {base:?}");
        assert!(under_pspdg(&a, &ps, l).doall);
    }

    #[test]
    fn histogram_is_doall_only_under_pspdg() {
        let (a, pdg, ps) = setup(
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
        let base = under_pdg(&a, &pdg, l);
        assert!(!base.doall, "PDG must not prove the histogram independent");
        assert!(base.seq_sccs >= 1);
        assert!(
            under_pspdg(&a, &ps, l).doall,
            "PS-PDG knows the programmer declared independence"
        );
    }

    #[test]
    fn recurrence_is_never_doall() {
        let (a, pdg, ps) = setup(
            r#"
            int v[64];
            void k() { int i; for (i = 1; i < 64; i++) { v[i] = v[i - 1]; } }
            int main() { k(); return 0; }
            "#,
        );
        let l = a.forest.loop_ids().next().unwrap();
        assert!(!under_pdg(&a, &pdg, l).doall);
        assert!(!under_pspdg(&a, &ps, l).doall);
    }

    #[test]
    fn scc_counts_feed_helix_and_dswp() {
        let (a, pdg, _) = setup(
            r#"
            int v[64]; int s; int t;
            void k() {
                int i;
                for (i = 0; i < 64; i++) {
                    s += v[i];      // sequential SCC 1
                    t *= 2;         // sequential SCC 2
                    v[i] = i;       // parallel
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let l = a.forest.loop_ids().next().unwrap();
        let assessment = under_pdg(&a, &pdg, l);
        assert!(!assessment.doall);
        assert_eq!(assessment.seq_sccs, 2);
        assert!(assessment.par_sccs >= 1);
        assert!(assessment.total_sccs >= 3);
    }
}
