//! The §5 sufficiency mapping: every OpenMP 5.0 construct the paper covers,
//! mapped to the PS-PDG elements that capture it.
//!
//! The paper groups OpenMP's parallel semantics into three families:
//!
//! 1. **Declarations of independence** (§5.1): `for`, `task`, `taskloop`,
//!    `sections`, `simd` — captured by hierarchical nodes + contexts (+ the
//!    removal of the declared-absent dependences); `barrier`, `taskwait`,
//!    `depend` constrain those declarations and are captured as dependences.
//! 2. **Data and its properties** (§5.2): `threadprivate`/`private` and
//!    `reduction` — captured by parallel semantic variables with use/def
//!    edges; `firstprivate`/`lastprivate` — captured by data selectors.
//! 3. **Ordering** (§5.3): `critical`/`atomic` — captured by undirected
//!    edges and the atomic trait; `ordered` — captured by keeping the
//!    directed (iteration-ordered) dependences.
//!
//! The builder ([`crate::build`]) implements the table; this module's
//! tests build PS-PDGs from programs using each construct and check the
//! elements it lists: nodes, traits, selectors, variables and edges.

#[cfg(test)]
mod tests {
    use crate::build::build_pspdg;
    use crate::features::FeatureSet;
    use crate::graph::{PsEdge, SelectorKind, TraitKind};
    use pspdg_frontend::compile;
    use pspdg_pdg::{FunctionAnalyses, Pdg};

    fn pspdg_of(src: &str) -> crate::graph::PsPdg {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        build_pspdg(&p, f, &a, &pdg, FeatureSet::all())
    }

    /// Whether a memory edge joins the PS-PDG's two `task` nodes.
    fn tasks_connected(ps: &crate::graph::PsPdg) -> bool {
        let tasks: Vec<_> = ps
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.label == "task")
            .map(|(i, _)| crate::graph::NodeId(i as u32))
            .collect();
        assert_eq!(tasks.len(), 2);
        let a = ps.node_insts(tasks[0]);
        let b = ps.node_insts(tasks[1]);
        ps.effective.edges().any(|e| {
            e.kind.is_memory()
                && ((a.binary_search(&e.src).is_ok() && b.binary_search(&e.dst).is_ok())
                    || (b.binary_search(&e.src).is_ok() && a.binary_search(&e.dst).is_ok()))
        })
    }

    #[test]
    fn parallel_maps_to_labeled_node() {
        let ps = pspdg_of(
            r#"
            int x;
            void k() {
                #pragma omp parallel
                { x = 1; }
            }
            int main() { k(); return 0; }
            "#,
        );
        // a hierarchical node labeled "parallel" with a context
        let node = ps
            .nodes
            .iter()
            .find(|n| n.label == "parallel")
            .expect("parallel node");
        let crate::graph::NodeKind::Hierarchical { context, .. } = &node.kind else {
            panic!("not hierarchical")
        };
        assert!(context.is_some(), "parallel region is a labeled context");
    }

    #[test]
    fn critical_maps_to_atomic_orderless_undirected() {
        let ps = pspdg_of(
            r#"
            int hist[8]; int key[8];
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 8; i++) {
                    #pragma omp critical
                    { hist[key[i]] += 1; }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let crit = ps
            .nodes
            .iter()
            .position(|n| n.label == "critical")
            .expect("critical node");
        let node = &ps.nodes[crit];
        let kinds: Vec<TraitKind> = node.traits.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TraitKind::Atomic));
        assert!(kinds.contains(&TraitKind::Orderless));
        // an undirected self-edge on the critical node
        assert!(ps
            .undirected_edges()
            .any(|(_, a, b)| a.index() == crit && b.index() == crit));
    }

    #[test]
    fn single_maps_to_singular_trait() {
        let ps = pspdg_of(
            r#"
            int x;
            void k() {
                #pragma omp parallel
                {
                    #pragma omp single
                    { x = 1; }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        let single = ps
            .nodes
            .iter()
            .find(|n| n.label == "single")
            .expect("single node");
        assert!(single.traits.iter().any(|t| t.kind == TraitKind::Singular));
        // trait context = the enclosing parallel region
        let t = single
            .traits
            .iter()
            .find(|t| t.kind == TraitKind::Singular)
            .unwrap();
        let ctx = t.context.expect("trait has context");
        assert!(matches!(
            ps.context(ctx).origin,
            crate::graph::ContextOrigin::Directive(_)
        ));
    }

    #[test]
    fn reduction_maps_to_reducible_variable_with_accesses() {
        let ps = pspdg_of(
            r#"
            double s; double v[16];
            void k() {
                int i;
                #pragma omp parallel for reduction(+: s)
                for (i = 0; i < 16; i++) { s += v[i]; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let (vi, var) = ps
            .variables
            .iter()
            .enumerate()
            .find(|(_, v)| matches!(v.kind, crate::graph::VariableKind::Reducible(_)))
            .expect("reducible variable");
        assert_eq!(var.name, "s");
        let acc = &ps.accesses[vi];
        assert!(!acc.uses.is_empty(), "s is read");
        assert!(!acc.defs.is_empty(), "s is written");
    }

    #[test]
    fn private_maps_to_privatizable_variable() {
        let ps = pspdg_of(
            r#"
            int tmp[8];
            void k() {
                int i;
                #pragma omp parallel private(tmp)
                {
                    for (i = 0; i < 8; i++) { tmp[i] = i; }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        assert!(ps
            .variables
            .iter()
            .any(
                |v| matches!(v.kind, crate::graph::VariableKind::Privatizable) && v.name == "tmp"
            ));
    }

    #[test]
    fn lastprivate_maps_to_last_producer_selector() {
        let ps = pspdg_of(
            r#"
            int last; int out;
            void k() {
                int i;
                #pragma omp parallel for lastprivate(last)
                for (i = 0; i < 16; i++) { last = i; }
                out = last;
            }
            int main() { k(); return 0; }
            "#,
        );
        let has_last = ps.edges().any(|e| {
            matches!(
                e,
                PsEdge::Directed { selector: Some(s), .. } if s.kind == SelectorKind::LastProducer
            )
        });
        assert!(
            has_last,
            "lastprivate live-out needs a LastProducer selector"
        );
    }

    #[test]
    fn shared_liveout_maps_to_any_producer_selector() {
        let ps = pspdg_of(
            r#"
            int winner; int out;
            void k() {
                int i;
                #pragma omp parallel for
                for (i = 0; i < 16; i++) { winner = i; }
                out = winner;
            }
            int main() { k(); return 0; }
            "#,
        );
        let has_any = ps.edges().any(|e| {
            matches!(
                e,
                PsEdge::Directed { selector: Some(s), .. } if s.kind == SelectorKind::AnyProducer
            )
        });
        assert!(has_any, "unsynchronized shared live-out gets AnyProducer");
    }

    #[test]
    fn firstprivate_maps_to_all_consumers_selector() {
        let ps = pspdg_of(
            r#"
            int seed; int out[16];
            void k() {
                int i;
                seed = 7;
                #pragma omp parallel for firstprivate(seed)
                for (i = 0; i < 16; i++) { out[i] = seed + i; }
            }
            int main() { k(); return 0; }
            "#,
        );
        let has_all = ps.edges().any(|e| {
            matches!(
                e,
                PsEdge::Directed { selector: Some(s), .. } if s.kind == SelectorKind::AllConsumers
            )
        });
        assert!(has_all, "firstprivate inflow gets AllConsumers");
    }

    #[test]
    fn sections_declare_sibling_independence() {
        // Two sections touching the same array region would serialize under
        // the PDG (may-alias); `omp sections` declares them independent.
        let ps = pspdg_of(
            r#"
            int buf[16];
            void k() {
                #pragma omp parallel
                {
                    #pragma omp sections
                    {
                        #pragma omp section
                        { buf[0] = 1; }
                        #pragma omp section
                        { buf[0] = 2; }
                    }
                }
            }
            int main() { k(); return 0; }
            "#,
        );
        // Find the two section nodes and check no memory edge connects
        // their instructions in the effective graph.
        let sections: Vec<_> = ps
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.label == "section")
            .map(|(i, _)| crate::graph::NodeId(i as u32))
            .collect();
        assert_eq!(sections.len(), 2);
        let a = ps.node_insts(sections[0]);
        let b = ps.node_insts(sections[1]);
        let connected = ps.effective.edges().any(|e| {
            e.kind.is_memory()
                && ((a.binary_search(&e.src).is_ok() && b.binary_search(&e.dst).is_ok())
                    || (b.binary_search(&e.src).is_ok() && a.binary_search(&e.dst).is_ok()))
        });
        assert!(!connected, "sections must be independent");
    }

    #[test]
    fn task_depend_keeps_ordering_edges() {
        let ps = pspdg_of(
            r#"
            int x; int y;
            void k() {
                #pragma omp task depend(out: x)
                { x = 1; }
                #pragma omp task depend(in: x)
                { y = x + 1; }
            }
            int main() { k(); return 0; }
            "#,
        );
        // The two task regions conflict on x via depend clauses: the flow
        // edge between them must survive.
        assert!(tasks_connected(&ps), "depend clauses on x keep the edge");
    }

    #[test]
    fn independent_tasks_lose_their_edges() {
        let ps = pspdg_of(
            r#"
            int x; int y;
            void k() {
                #pragma omp task
                { x = 1; }
                #pragma omp task
                { y = 2; }
            }
            int main() { k(); return 0; }
            "#,
        );
        assert!(!tasks_connected(&ps), "undeclared tasks are independent");
    }
}
