//! The `EffectiveView` overlay must be observationally identical to the
//! owned `Pdg` its `oracle`-gated `materialize()` produces: every query
//! family the planner reads (full edge set, per-source adjacency,
//! per-carried-loop incl. the context-ablation sentinel), and the base
//! indexes filtered by the mask as the directive passes read them
//! (per-base, carried-any), must agree, across generated kernels ×
//! directive sets × PS-PDG feature sets.
//!
//! The materialized graph is exactly what the pre-overlay assemble built
//! (a fresh edge arena and index over the surviving, rewritten edges), so
//! these tests pin the overlay to the old cloning semantics. Nothing but
//! this reference builds it any more.

use std::collections::BTreeSet;

use pspdg_core::{build_pspdg, FeatureSet, PsEdge, UNKNOWN_LOOP};
use pspdg_frontend::compile;
use pspdg_ir::{InstId, LoopId};
use pspdg_pdg::{DepKind, FunctionAnalyses, MemBase, Pdg, PdgEdge};
use pspdg_pool::BitSet;

/// Canonical order-independent rendering of an edge multiset.
fn edge_set<'a>(edges: impl Iterator<Item = &'a PdgEdge>) -> Vec<String> {
    let mut s: Vec<String> = edges.map(|e| format!("{e:?}")).collect();
    s.sort();
    s
}

/// Assert every overlay query of `ps.effective` matches the same query on
/// the materialized owned graph.
fn assert_view_matches_materialized(src: &str, features: FeatureSet) {
    let p = compile(src).expect("kernel compiles");
    for f in p.module.function_ids() {
        if p.module.function(f).blocks.is_empty() {
            continue;
        }
        let a = FunctionAnalyses::compute(&p.module, f);
        let pdg = Pdg::build(&p.module, f, &a);
        let ps = build_pspdg(&p, f, &a, &pdg, features);
        let view = &ps.effective;
        let owned = view.materialize();
        let ctx = || {
            format!(
                "fn {} features {features:?}\n{src}",
                p.module.function(f).name
            )
        };

        // Full edge set.
        assert_eq!(
            edge_set(view.edges()),
            edge_set(owned.edges.iter()),
            "edge sets diverge: {}",
            ctx()
        );
        assert_eq!(view.surviving_len(), owned.edges.len(), "{}", ctx());
        assert_eq!(view.edge_ids().count(), view.surviving_len(), "{}", ctx());

        // Out-edges, per instruction.
        let owned_from = |inst| {
            owned
                .edge_indices_from(inst)
                .iter()
                .map(|&ei| owned.edge(ei))
        };
        for i in 0..pdg.len() {
            let inst = InstId::from_index(i);
            assert_eq!(
                edge_set(view.edges_from(inst)),
                edge_set(owned_from(inst)),
                "out-edges of {inst:?} diverge: {}",
                ctx()
            );
        }

        // The base graph's per-base index through the mask (every base
        // appearing anywhere in the base PDG).
        let surviving = |ids: &BitSet| -> Vec<u32> {
            ids.iter()
                .map(|ei| ei as u32)
                .filter(|&ei| !view.is_removed(ei))
                .collect()
        };
        let owned_ids = |ids: &BitSet| edge_set(ids.iter().map(|ei| owned.edge(ei as u32)));
        let bases: BTreeSet<MemBase> = pdg.edges.iter().filter_map(|e| e.base).collect();
        for b in bases {
            assert_eq!(
                edge_set(
                    surviving(pdg.edge_indices_with_base(b))
                        .into_iter()
                        .map(|ei| view.edge(ei))
                ),
                owned_ids(owned.edge_indices_with_base(b)),
                "per-base edges of {b:?} diverge: {}",
                ctx()
            );
        }

        // Per carried loop: the function's loops plus the ablation
        // sentinel plus a never-used loop id.
        let mut loops: Vec<LoopId> = a.forest.loop_ids().collect();
        loops.push(UNKNOWN_LOOP);
        loops.push(LoopId(9999));
        for l in loops {
            assert_eq!(
                edge_set(view.carried_edges(l)),
                edge_set(owned.carried_edges(l)),
                "carried edges of {l:?} diverge: {}",
                ctx()
            );
        }
        // Rewrites only ever narrow or relabel carried sets, so the base
        // carried-any index through the mask is a superset of the
        // effective one.
        let view_any = edge_set(
            surviving(pdg.carried_any_indices())
                .into_iter()
                .map(|ei| view.edge(ei))
                .filter(|e| !e.kind.carried().is_empty()),
        );
        let owned_any = owned_ids(owned.carried_any_indices());
        assert_eq!(view_any, owned_any, "carried-any diverges: {}", ctx());

        // Selector table: every key is a surviving flow edge, and the
        // derived PS-PDG edges carry exactly those selectors.
        for &ei in ps.selectors.keys() {
            assert!(
                !view.is_removed(ei),
                "selector on a removed edge: {}",
                ctx()
            );
            assert!(
                matches!(view.edge(ei).kind, DepKind::Flow { .. }),
                "selector on a non-flow edge: {}",
                ctx()
            );
        }
        let derived_selectors = ps
            .edges()
            .filter(|e| {
                matches!(
                    e,
                    PsEdge::Directed {
                        selector: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(derived_selectors, ps.selectors.len(), "{}", ctx());
    }
}

/// Every feature set the §4 ablation study exercises.
fn feature_sets() -> Vec<FeatureSet> {
    use pspdg_core::Feature;
    let mut sets = vec![FeatureSet::all()];
    for f in [
        Feature::HierarchicalUndirected,
        Feature::NodeTraits,
        Feature::Contexts,
        Feature::DataSelectors,
        Feature::ParallelVariables,
    ] {
        sets.push(FeatureSet::all().without(f));
    }
    sets
}

#[test]
fn overlay_matches_materialized_on_directive_corpus() {
    // Hand-picked kernels covering each directive pass: worksharing
    // narrowing, critical/atomic conversion, sibling independence,
    // selectors, reductions, and a directive-free baseline.
    const CORPUS: &[&str] = &[
        // Plain sequential (identity overlay).
        r#"
        int v[64];
        void k() { int i; for (i = 1; i < 64; i++) { v[i] = v[i - 1]; } }
        int main() { k(); return 0; }
        "#,
        // Worksharing narrowing of an indirect histogram.
        r#"
        int key[64]; int hist[64];
        void k() {
            int i;
            #pragma omp parallel for
            for (i = 0; i < 64; i++) { hist[key[i]] += 1; }
        }
        int main() { k(); return 0; }
        "#,
        // Critical-to-undirected conversion + reduction + selectors.
        r#"
        int key[64]; int hist[16]; int s; int last;
        void k() {
            int i;
            #pragma omp parallel for reduction(+: s) lastprivate(last)
            for (i = 0; i < 64; i++) {
                s += key[i];
                last = key[i];
                #pragma omp critical
                { hist[key[i] % 16] += 1; }
            }
        }
        int main() { k(); return 0; }
        "#,
        // Sibling sections + firstprivate inflow.
        r#"
        int buf[16]; int seed;
        void k() {
            int i;
            seed = 3;
            #pragma omp parallel
            {
                #pragma omp sections
                {
                    #pragma omp section
                    { buf[0] = seed; }
                    #pragma omp section
                    { buf[1] = seed + 1; }
                }
            }
            #pragma omp parallel for firstprivate(seed)
            for (i = 2; i < 16; i++) { buf[i] = seed + i; }
        }
        int main() { k(); return 0; }
        "#,
        // Nested loops: worksharing narrows only the outer carried level.
        r#"
        int m[256];
        void k() {
            int i; int j;
            #pragma omp parallel for private(j)
            for (i = 0; i < 16; i++) {
                for (j = 1; j < 16; j++) { m[16 * i + j] = m[16 * i + j - 1]; }
            }
        }
        int main() { k(); return 0; }
        "#,
    ];
    for src in CORPUS {
        for features in feature_sets() {
            assert_view_matches_materialized(src, features);
        }
    }
}

mod generated {
    use super::*;
    use proptest::prelude::*;

    /// One loop of a generated kernel: a body statement mix and the
    /// directive set applied to the loop.
    #[derive(Debug, Clone, Copy)]
    enum Directive {
        None,
        ParallelFor,
        ParallelForReduction,
        ParallelForCritical,
        ParallelPrivate,
    }

    #[derive(Debug, Clone, Copy)]
    enum Stmt {
        /// `A[s*i + c] = B[i] + 1;`
        Copy {
            dst: usize,
            src: usize,
            s: i64,
            c: i64,
        },
        /// `acc += A[i];`
        Accum { arr: usize },
        /// `A[B[i] % 64] += 1;`
        Indirect { dst: usize, idx: usize },
        /// `A[i] = A[i - 1] + 1;` (recurrence)
        Recur { arr: usize },
    }

    const ARRAYS: [&str; 3] = ["ga", "gb", "gc"];

    impl Stmt {
        fn render(self) -> String {
            match self {
                Stmt::Copy { dst, src, s, c } => format!(
                    "{}[{} * i + {}] = {}[i] + 1;",
                    ARRAYS[dst], s, c, ARRAYS[src]
                ),
                Stmt::Accum { arr } => format!("acc += {}[i];", ARRAYS[arr]),
                Stmt::Indirect { dst, idx } => {
                    format!("{}[{}[i] % 64] += 1;", ARRAYS[dst], ARRAYS[idx])
                }
                Stmt::Recur { arr } => format!("{}[i] = {}[i - 1] + 1;", ARRAYS[arr], ARRAYS[arr]),
            }
        }
    }

    fn arb_stmt() -> impl Strategy<Value = Stmt> {
        prop_oneof![
            (0usize..3, 0usize..3, 1i64..3, 0i64..4).prop_map(|(dst, src, s, c)| Stmt::Copy {
                dst,
                src,
                s,
                c
            }),
            (0usize..3).prop_map(|arr| Stmt::Accum { arr }),
            (0usize..3, 0usize..3).prop_map(|(dst, idx)| Stmt::Indirect { dst, idx }),
            (0usize..3).prop_map(|arr| Stmt::Recur { arr }),
        ]
    }

    fn arb_directive() -> impl Strategy<Value = Directive> {
        prop_oneof![
            Just(Directive::None),
            Just(Directive::ParallelFor),
            Just(Directive::ParallelForReduction),
            Just(Directive::ParallelForCritical),
            Just(Directive::ParallelPrivate),
        ]
    }

    fn render(dir: Directive, body: &[Stmt]) -> String {
        let stmts: String = body
            .iter()
            .map(|s| s.render())
            .collect::<Vec<_>>()
            .join("\n");
        let looped = |pragma: &str, inner: &str| {
            format!("{pragma}\nfor (i = 1; i < 64; i++) {{\n{inner}\n}}")
        };
        let kernel = match dir {
            Directive::None => looped("", &stmts),
            Directive::ParallelFor => looped("#pragma omp parallel for", &stmts),
            Directive::ParallelForReduction => {
                looped("#pragma omp parallel for reduction(+: acc)", &stmts)
            }
            Directive::ParallelForCritical => looped(
                "#pragma omp parallel for",
                &format!("#pragma omp critical\n{{ {stmts} }}"),
            ),
            Directive::ParallelPrivate => format!(
                "#pragma omp parallel private(ga)\n{{\n{}\n}}",
                looped("", &stmts)
            ),
        };
        format!(
            r#"
            int ga[256]; int gb[256]; int gc[256]; int acc;
            void k() {{
                int i;
                {kernel}
            }}
            int main() {{ k(); return 0; }}
            "#
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Overlay queries equal the materialized graph's on generated
        /// kernels × directive choices × ablation feature sets.
        #[test]
        fn overlay_matches_materialized_on_generated_kernels(
            dir in arb_directive(),
            body in proptest::collection::vec(arb_stmt(), 1..4),
            feature_idx in 0usize..6,
        ) {
            let src = render(dir, &body);
            let features = feature_sets()[feature_idx];
            assert_view_matches_materialized(&src, features);
        }
    }
}
