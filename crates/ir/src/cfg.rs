//! Control-flow graph utilities: successor/predecessor maps, reverse
//! post-order, and reachability.

use crate::function::Function;
use crate::value::BlockId;

/// Successor / predecessor maps and traversal orders for a [`Function`].
///
/// # Example
///
/// ```
/// use pspdg_ir::{Module, Type, FunctionBuilder, Value, Cfg};
///
/// let mut m = Module::new("m");
/// let f = m.declare_function("f", vec![], Type::Void);
/// {
///     let mut b = FunctionBuilder::new(m.function_mut(f));
///     let entry = b.create_block("entry");
///     let exit = b.create_block("exit");
///     b.switch_to_block(entry);
///     b.br(exit);
///     b.switch_to_block(exit);
///     b.ret(None);
/// }
/// let cfg = Cfg::new(m.function(f));
/// assert_eq!(cfg.successors(m.function(f).entry()), &[pspdg_ir::BlockId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_pos: Vec<Option<usize>>,
}

impl Cfg {
    /// Compute the CFG of `func`.
    pub fn new(func: &Function) -> Cfg {
        let n = func.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for bb in func.block_ids() {
            if let Some(term) = func.terminator(bb) {
                for s in term.successors() {
                    succs[bb.index()].push(s);
                    preds[s.index()].push(bb);
                }
            }
        }
        let rpo = if n == 0 {
            Vec::new()
        } else {
            compute_rpo(&succs, BlockId(0))
        };
        let mut rpo_pos = vec![None; n];
        for (i, &bb) in rpo.iter().enumerate() {
            rpo_pos[bb.index()] = Some(i);
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_pos,
        }
    }

    /// Successor blocks of `bb`.
    pub fn successors(&self, bb: BlockId) -> &[BlockId] {
        &self.succs[bb.index()]
    }

    /// Predecessor blocks of `bb`.
    pub fn predecessors(&self, bb: BlockId) -> &[BlockId] {
        &self.preds[bb.index()]
    }

    /// Blocks in reverse post-order from the entry. Unreachable blocks are
    /// omitted.
    pub(crate) fn reverse_post_order(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `bb` is reachable from the entry.
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.rpo_pos[bb.index()].is_some()
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the function has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Blocks with no successors (return blocks), in arena order.
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        (0..self.len())
            .map(BlockId::from_index)
            .filter(|bb| self.is_reachable(*bb) && self.succs[bb.index()].is_empty())
            .collect()
    }
}

/// Iterative DFS post-order, reversed.
fn compute_rpo(succs: &[Vec<BlockId>], entry: BlockId) -> Vec<BlockId> {
    let n = succs.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    visited[entry.index()] = true;
    while let Some(&mut (bb, ref mut next)) = stack.last_mut() {
        if *next < succs[bb.index()].len() {
            let s = succs[bb.index()][*next];
            *next += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(bb);
            stack.pop();
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Module;
    use crate::types::Type;
    use crate::value::Value;

    /// Build a diamond: entry → (then | else) → join → ret.
    fn diamond() -> (Module, crate::value::FuncId) {
        let mut m = Module::new("m");
        let f = m.declare_function_with("f", &[("c", Type::Bool)], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let then_bb = b.create_block("then");
            let else_bb = b.create_block("else");
            let join = b.create_block("join");
            b.switch_to_block(entry);
            b.cond_br(Value::Param(0), then_bb, else_bb);
            b.switch_to_block(then_bb);
            b.br(join);
            b.switch_to_block(else_bb);
            b.br(join);
            b.switch_to_block(join);
            b.ret(None);
        }
        (m, f)
    }

    #[test]
    fn diamond_edges() {
        let (m, f) = diamond();
        let cfg = Cfg::new(m.function(f));
        assert_eq!(cfg.successors(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.predecessors(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.exit_blocks(), vec![BlockId(3)]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let (m, f) = diamond();
        let cfg = Cfg::new(m.function(f));
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        // join must come after both branches
        let pos = |b: u32| rpo.iter().position(|&x| x == BlockId(b)).unwrap();
        assert!(pos(3) > pos(1) && pos(3) > pos(2));
    }

    #[test]
    fn unreachable_blocks_are_flagged() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let dead = b.create_block("dead");
            b.switch_to_block(entry);
            b.ret(None);
            b.switch_to_block(dead);
            b.ret(None);
        }
        let cfg = Cfg::new(m.function(f));
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(BlockId(1)));
        assert_eq!(cfg.exit_blocks(), vec![BlockId(0)]);
    }

    #[test]
    fn loop_rpo_positions() {
        // entry → header; header → (body | exit); body → header
        let mut m = Module::new("m");
        let f = m.declare_function_with("f", &[("c", Type::Bool)], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            b.br(header);
            b.switch_to_block(header);
            b.cond_br(Value::Param(0), body, exit);
            b.switch_to_block(body);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(None);
        }
        let cfg = Cfg::new(m.function(f));
        let rpo = cfg.reverse_post_order();
        let pos = |b: u32| rpo.iter().position(|&x| x == BlockId(b)).unwrap();
        assert!(pos(1) > pos(0));
        assert!(pos(2) > pos(1));
    }
}
