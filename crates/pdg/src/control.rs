//! Control dependence (Ferrante–Ottenstein–Warren).
//!
//! Block `B` is control-dependent on branch block `A` when `A` has a
//! successor through which `B` is always reached (i.e. `B` post-dominates
//! that successor) but `B` does not post-dominate `A` itself.

use pspdg_ir::{BlockId, Cfg, Function, PostDomTree};

/// Compute block-level control dependences: for each block, the set of
/// branch blocks it is control-dependent on.
///
/// The standard algorithm: for each CFG edge `(a → s)` where `s` does not
/// post-dominate `a`, every block on the post-dominator-tree path from `s`
/// up to (but excluding) `ipostdom(a)` is control-dependent on `a`.
pub(crate) fn control_dependences(
    func: &Function,
    cfg: &Cfg,
    postdom: &PostDomTree,
) -> Vec<Vec<BlockId>> {
    let n = func.blocks.len();
    let mut deps: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for a in func.block_ids() {
        if !cfg.is_reachable(a) {
            continue;
        }
        for &s in cfg.successors(a) {
            if postdom.postdominates(s, a) {
                continue;
            }
            // Walk up from s to ipostdom(a).
            let stop = postdom.ipostdom(a);
            let mut cur = Some(s);
            while let Some(b) = cur {
                if Some(b) == stop {
                    break;
                }
                if !deps[b.index()].contains(&a) {
                    deps[b.index()].push(a);
                }
                cur = postdom.ipostdom(b);
            }
        }
    }
    for d in &mut deps {
        d.sort();
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_ir::{Cfg, Inst, PostDomTree};

    /// Map each block to its name for readable assertions.
    fn deps_by_name(src: &str, func_name: &str) -> Vec<(String, Vec<String>)> {
        let p = compile(src).unwrap();
        let f = p.module.function_by_name(func_name).unwrap();
        let func = p.module.function(f);
        let cfg = Cfg::new(func);
        let postdom = PostDomTree::new(func, &cfg);
        let deps = control_dependences(func, &cfg, &postdom);
        func.block_ids()
            .map(|bb| {
                (
                    func.block(bb).name.clone(),
                    deps[bb.index()]
                        .iter()
                        .map(|d| func.block(*d).name.clone())
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn if_branches_depend_on_condition() {
        let deps = deps_by_name(
            r#"
            int main() {
                int x = 1;
                if (x > 0) { x = 2; } else { x = 3; }
                return x;
            }
            "#,
            "main",
        );
        let by_name: std::collections::HashMap<_, _> = deps.into_iter().collect();
        assert_eq!(by_name["if.then"], vec!["start".to_string()]);
        assert_eq!(by_name["if.else"], vec!["start".to_string()]);
        assert!(by_name["if.join"].is_empty());
    }

    #[test]
    fn loop_body_depends_on_header() {
        let deps = deps_by_name(
            r#"
            int v[8];
            void k() { int i; for (i = 0; i < 8; i++) { v[i] = i; } }
            int main() { k(); return 0; }
            "#,
            "k",
        );
        let by_name: std::collections::HashMap<_, _> = deps.into_iter().collect();
        assert_eq!(by_name["for.body"], vec!["for.header".to_string()]);
        assert_eq!(by_name["for.latch"], vec!["for.header".to_string()]);
        // The header is control-dependent on itself (it controls whether it
        // runs again).
        assert_eq!(by_name["for.header"], vec!["for.header".to_string()]);
    }

    #[test]
    fn straightline_code_has_no_control_deps() {
        let deps = deps_by_name("int main() { int x = 1; return x; }", "main");
        for (_, d) in deps {
            assert!(d.is_empty());
        }
    }

    #[test]
    fn nested_if_accumulates_dependences() {
        let p = compile(
            r#"
            int main() {
                int x = 1;
                if (x > 0) {
                    if (x > 1) { x = 5; }
                }
                return x;
            }
            "#,
        )
        .unwrap();
        let f = p.module.function_by_name("main").unwrap();
        let func = p.module.function(f);
        let cfg = Cfg::new(func);
        let postdom = PostDomTree::new(func, &cfg);
        let deps = control_dependences(func, &cfg, &postdom);
        // The innermost then-block is control dependent on exactly one
        // branch block (the inner if); that block in turn depends on the
        // outer branch.
        let mut inner_then = None;
        for bb in func.block_ids() {
            if func.block(bb).name == "if.then" {
                inner_then = Some(bb); // the last one wins (inner)
            }
        }
        let inner_then = inner_then.unwrap();
        let d = &deps[inner_then.index()];
        assert_eq!(d.len(), 1);
        let branch_block = d[0];
        // That branch block ends in a condbr.
        assert!(matches!(
            func.terminator(branch_block),
            Some(Inst::CondBr { .. })
        ));
    }
}
