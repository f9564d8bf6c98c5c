//! The Appendix-A sufficiency mapping for Cilk (OpenCilk 2.0).
//!
//! * `cilk_spawn f(...)` — a hierarchical single-entry single-exit node;
//!   the spawned call is independent of the continuation until the next
//!   sync point (the *knot* structure of the appendix is realized as the
//!   region node plus the removal of spawn↔continuation dependences);
//! * `cilk_sync` — a node with (implicit) incoming edges from all spawned
//!   regions of the enclosing scope;
//! * `cilk_scope { ... }` — a SESE hierarchical node whose exit is an
//!   implicit sync; it is labeled, providing the context for the scope's
//!   spawn semantics;
//! * `cilk_for` — represented identically to `omp parallel for`
//!   (appendix: "cilk_for is represented identically to omp parallel for");
//! * hyperobjects (reducers, holders) — reducible parallel semantic
//!   variables whose merge function is the programmer's reducer.
//!
//! Cilk constructs share the OpenMP table ([`crate::openmp_mapping`]) and
//! the builder ([`crate::build`]); this module's tests check the mapping
//! on Cilk sources.

#[cfg(test)]
mod tests {
    use crate::build::build_pspdg;
    use crate::features::FeatureSet;
    use crate::graph::{NodeKind, PsPdg};
    use crate::query::blocking_carried_edges;
    use pspdg_frontend::compile;
    use pspdg_pdg::{FunctionAnalyses, Pdg};

    fn pspdg_of(
        src: &str,
        func: &str,
    ) -> (pspdg_parallel::ParallelProgram, FunctionAnalyses, PsPdg) {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name(func).unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let ps = build_pspdg(&p, f, &a, &pdg, FeatureSet::all());
        (p, a, ps)
    }

    #[test]
    fn spawn_creates_sese_node_and_independence() {
        let (_, _, ps) = pspdg_of(
            r#"
            int work(int n) { return n * 2; }
            int k() {
                int x; int y;
                x = cilk_spawn work(10);
                y = work(20);
                cilk_sync;
                return x + y;
            }
            int main() { return k(); }
            "#,
            "k",
        );
        let spawn = ps
            .nodes
            .iter()
            .find(|n| n.label == "cilk_spawn")
            .expect("spawn node");
        assert!(matches!(spawn.kind, NodeKind::Hierarchical { .. }));
        let sync = ps
            .nodes
            .iter()
            .find(|n| n.label == "cilk_sync")
            .expect("sync node");
        assert!(matches!(sync.kind, NodeKind::Hierarchical { .. }));
        // Independence: no memory dependence survives between the spawned
        // call and the continuation call (both are opaque calls, so the
        // plain PDG *would* serialize them). Edges from the spawn region to
        // code *after* the sync (e.g. `return x + y`) legitimately remain.
        let spawn_node = crate::graph::NodeId(
            ps.nodes
                .iter()
                .position(|n| n.label == "cilk_spawn")
                .unwrap() as u32,
        );
        let spawn_insts = ps.node_insts(spawn_node);
        // The spawned call must not be serialized against the continuation
        // call `work(20)`: no memory edge may connect them. (Edges to the
        // post-sync loads of x/y legitimately remain — the sync orders them.)
        let spawned_call = *spawn_insts
            .iter()
            .find(|_| true)
            .expect("spawn region has instructions");
        let _ = spawned_call;
        let surviving = ps.effective.edges().any(|e| {
            e.kind.is_memory()
                && spawn_insts.binary_search(&e.src).is_ok()
                    != spawn_insts.binary_search(&e.dst).is_ok()
                && {
                    // other endpoint in the continuation region (before sync)
                    let other = if spawn_insts.binary_search(&e.src).is_ok() {
                        e.dst
                    } else {
                        e.src
                    };
                    let sync_node = crate::graph::NodeId(
                        ps.nodes
                            .iter()
                            .position(|n| n.label == "cilk_sync")
                            .unwrap() as u32,
                    );
                    let sync_first = *ps.node_insts(sync_node).first().unwrap();
                    other < sync_first && !spawn_insts.contains(&other)
                }
        });
        assert!(
            !surviving,
            "spawned call must not be serialized against the continuation"
        );
    }

    #[test]
    fn cilk_scope_is_a_labeled_context() {
        let (_, _, ps) = pspdg_of(
            r#"
            int v[4];
            void k() {
                int i;
                cilk_scope {
                    cilk_for (i = 0; i < 4; i++) { v[i] = i; }
                }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let scope = ps
            .nodes
            .iter()
            .find(|n| n.label == "cilk_scope")
            .expect("scope node");
        let NodeKind::Hierarchical { context, .. } = &scope.kind else {
            panic!()
        };
        assert!(context.is_some(), "cilk_scope is labeled (a context)");
    }

    #[test]
    fn cilk_for_behaves_like_parallel_for() {
        let (_, a, ps) = pspdg_of(
            r#"
            int hist[32]; int key[32];
            void k() {
                int i;
                cilk_for (i = 0; i < 32; i++) { hist[key[i]] += 1; }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let l = a.forest.loop_ids().next().unwrap();
        let blocking = blocking_carried_edges(&ps, &a, l);
        assert!(
            blocking.is_empty(),
            "cilk_for declares independence: {blocking:?}"
        );
    }

    #[test]
    fn hyperobject_maps_to_reducible() {
        // A custom reducer function models a Cilk reducer hyperobject.
        let (_, _, ps) = pspdg_of(
            r#"
            double bag;
            double merge_bags(double a, double b) { return a + b; }
            void k() {
                int i;
                #pragma omp parallel for reduction(merge_bags: bag)
                for (i = 0; i < 8; i++) { bag += i; }
            }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let var = ps
            .variables
            .iter()
            .find(|v| v.name == "bag")
            .expect("hyperobject variable");
        assert!(matches!(
            var.kind,
            crate::graph::VariableKind::Reducible(pspdg_parallel::ReductionOp::Custom { .. })
        ));
    }
}
