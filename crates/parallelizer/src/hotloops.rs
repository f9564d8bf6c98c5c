//! Profile-driven hot-loop selection (paper §6.1: "consider the
//! parallelization of each loop with at least 1 % run-time coverage").

use pspdg_ir::interp::Profile;
use pspdg_ir::{FuncId, LoopId, Module};
use pspdg_pdg::FunctionAnalyses;

/// A loop that passed the coverage filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HotLoop {
    /// The loop.
    pub loop_id: LoopId,
    /// Dynamic instructions attributed to the loop's blocks.
    pub cost: u64,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
}

impl HotLoop {
    /// Coverage as a fraction of total executed instructions.
    pub fn coverage(&self, profile: &Profile) -> f64 {
        if profile.total == 0 {
            0.0
        } else {
            self.cost as f64 / profile.total as f64
        }
    }
}

/// All loops of `func` with ≥ `threshold` coverage (default 1 %), sorted
/// outermost-first then by decreasing cost.
pub(crate) fn hot_loops(
    module: &Module,
    func: FuncId,
    analyses: &FunctionAnalyses,
    profile: &Profile,
    threshold: f64,
) -> Vec<HotLoop> {
    let mut out = Vec::new();
    for l in analyses.forest.loop_ids() {
        let info = analyses.forest.info(l);
        let hot = HotLoop {
            loop_id: l,
            cost: profile.block_set_cost(module, func, &info.blocks),
            depth: info.depth,
        };
        if hot.coverage(profile) >= threshold {
            out.push(hot);
        }
    }
    out.sort_by(|a, b| a.depth.cmp(&b.depth).then(b.cost.cmp(&a.cost)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_ir::interp::{Interpreter, NullSink};

    #[test]
    fn filters_cold_loops() {
        let p = compile(
            r#"
            int a[1024]; int b[4];
            void k() {
                int i;
                for (i = 0; i < 1024; i++) { a[i] = i; }
                for (i = 0; i < 4; i++) { b[i] = i; }
            }
            int main() { k(); return 0; }
            "#,
        )
        .unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).unwrap();
        let hot = hot_loops(&p.module, f, &a, interp.profile(), 0.01);
        // The 1024-iteration loop dominates; the 4-iteration one is < 1 %.
        assert_eq!(hot.len(), 1);
        assert!(hot[0].coverage(interp.profile()) > 0.9);
    }

    #[test]
    fn nested_loops_ordered_outermost_first() {
        let p = compile(
            r#"
            int m[64][64];
            void k() {
                int i; int j;
                for (i = 0; i < 64; i++) {
                    for (j = 0; j < 64; j++) { m[i][j] = i + j; }
                }
            }
            int main() { k(); return 0; }
            "#,
        )
        .unwrap();
        let f = p.module.function_by_name("k").unwrap();
        let a = FunctionAnalyses::compute(&p.module, f);
        let mut interp = Interpreter::new(&p.module);
        interp.run_main(&mut NullSink).unwrap();
        let hot = hot_loops(&p.module, f, &a, interp.profile(), 0.01);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].depth, 1);
        assert_eq!(hot[1].depth, 2);
        assert!(hot[0].cost >= hot[1].cost);
    }
}
