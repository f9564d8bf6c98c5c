//! Dominator and post-dominator trees, via the Cooper–Harvey–Kennedy
//! iterative algorithm ("A Simple, Fast Dominance Algorithm", 2001).
//!
//! Post-dominance is computed on the reverse CFG with a *virtual exit* node
//! that every return block feeds; this handles functions with several `ret`
//! instructions (and is the same construction NOELLE/LLVM use).

use crate::cfg::Cfg;
use crate::function::Function;
use crate::value::BlockId;

/// Result of running the CHK algorithm on an abstract graph whose nodes are
/// `0..n` and whose entry is node `entry`.
#[derive(Debug, Clone)]
struct DomCore {
    /// Immediate dominator per node (`idom[entry] == entry`); `None` for
    /// nodes unreachable from the entry.
    idom: Vec<Option<usize>>,
    /// DFS-in/out numbering over the dominator tree for O(1) queries.
    tin: Vec<usize>,
    tout: Vec<usize>,
}

fn dom_core(
    n: usize,
    entry: usize,
    order: &[usize],
    preds: &dyn Fn(usize) -> Vec<usize>,
) -> DomCore {
    // `order` must be a reverse post-order starting at `entry`.
    let mut pos = vec![usize::MAX; n];
    for (i, &b) in order.iter().enumerate() {
        pos[b] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[entry] = Some(entry);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for p in preds(b) {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &pos, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b] != Some(ni) {
                    idom[b] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    // Build children lists and DFS-number the dominator tree.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, parent) in idom.iter().enumerate() {
        if b == entry {
            continue;
        }
        if let Some(p) = *parent {
            children[p].push(b);
        }
    }
    let mut tin = vec![0usize; n];
    let mut tout = vec![0usize; n];
    let mut clock = 0usize;
    let mut stack = vec![(entry, false)];
    while let Some((node, processed)) = stack.pop() {
        if processed {
            clock += 1;
            tout[node] = clock;
        } else {
            clock += 1;
            tin[node] = clock;
            stack.push((node, true));
            for &c in children[node].iter().rev() {
                stack.push((c, false));
            }
        }
    }
    DomCore { idom, tin, tout }
}

fn intersect(idom: &[Option<usize>], pos: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while pos[a] > pos[b] {
            a = idom[a].expect("finger has idom");
        }
        while pos[b] > pos[a] {
            b = idom[b].expect("finger has idom");
        }
    }
    a
}

/// The dominator tree of a function's CFG.
///
/// # Example
///
/// ```
/// use pspdg_ir::{Module, Type, FunctionBuilder, Value, Cfg, DomTree, BlockId};
/// let mut m = Module::new("m");
/// let f = m.declare_function_with("f", &[("c", Type::Bool)], Type::Void);
/// {
///     let mut b = FunctionBuilder::new(m.function_mut(f));
///     let entry = b.create_block("entry");
///     let t = b.create_block("t");
///     let j = b.create_block("j");
///     b.switch_to_block(entry);
///     b.cond_br(Value::Param(0), t, j);
///     b.switch_to_block(t);
///     b.br(j);
///     b.switch_to_block(j);
///     b.ret(None);
/// }
/// let cfg = Cfg::new(m.function(f));
/// let dom = DomTree::new(&cfg);
/// assert!(dom.dominates(BlockId(0), BlockId(2)));
/// assert!(!dom.dominates(BlockId(1), BlockId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct DomTree {
    core: DomCore,
}

impl DomTree {
    /// Compute the dominator tree from a CFG.
    pub fn new(cfg: &Cfg) -> DomTree {
        let n = cfg.len();
        assert!(n > 0, "cannot compute dominators of an empty function");
        let order: Vec<usize> = cfg.reverse_post_order().iter().map(|b| b.index()).collect();
        let preds = |b: usize| -> Vec<usize> {
            cfg.predecessors(BlockId::from_index(b))
                .iter()
                .filter(|p| cfg.is_reachable(**p))
                .map(|p| p.index())
                .collect()
        };
        DomTree {
            core: dom_core(n, 0, &order, &preds),
        }
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.core.idom[a.index()].is_none() || self.core.idom[b.index()].is_none() {
            return false;
        }
        self.core.tin[a.index()] <= self.core.tin[b.index()]
            && self.core.tout[b.index()] <= self.core.tout[a.index()]
    }
}

/// The post-dominator tree, computed over the reverse CFG augmented with a
/// virtual exit.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    core: DomCore,
    /// Index of the virtual exit (== number of real blocks).
    virtual_exit: usize,
}

impl PostDomTree {
    /// Compute the post-dominator tree from a function and its CFG.
    ///
    /// Blocks that cannot reach any exit (e.g. infinite loops) have no
    /// post-dominator information; [`Self::ipostdom`] returns `None` for
    /// them. The front-end never produces such loops for terminating
    /// programs.
    pub fn new(func: &Function, cfg: &Cfg) -> PostDomTree {
        let n = cfg.len();
        assert!(n > 0, "cannot compute post-dominators of an empty function");
        let virtual_exit = n;
        // Reverse graph: preds-of in reverse = successors; entry = virtual
        // exit, whose "successors" (reverse preds) are the real exit blocks.
        let exits: Vec<usize> = cfg.exit_blocks().iter().map(|b| b.index()).collect();
        let _ = func;
        // Build reverse-graph successor lists for RPO computation.
        let mut rsuccs: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        rsuccs[virtual_exit] = exits.clone();
        #[allow(clippy::needless_range_loop)] // `rsuccs` has n + 1 slots, iterate only n
        for b in 0..n {
            let bb = BlockId::from_index(b);
            if !cfg.is_reachable(bb) {
                continue;
            }
            for p in cfg.predecessors(bb) {
                if cfg.is_reachable(*p) {
                    rsuccs[b].push(p.index());
                }
            }
        }
        // RPO over the reverse graph from the virtual exit.
        let order = {
            let mut visited = vec![false; n + 1];
            let mut post = Vec::with_capacity(n + 1);
            let mut stack: Vec<(usize, usize)> = vec![(virtual_exit, 0)];
            visited[virtual_exit] = true;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < rsuccs[node].len() {
                    let s = rsuccs[node][*next];
                    *next += 1;
                    if !visited[s] {
                        visited[s] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(node);
                    stack.pop();
                }
            }
            post.reverse();
            post
        };
        let preds = |b: usize| -> Vec<usize> {
            // Predecessors in the reverse graph = successors in the CFG,
            // plus: exit blocks have the virtual exit as predecessor.
            if b == virtual_exit {
                return vec![];
            }
            let bb = BlockId::from_index(b);
            let mut v: Vec<usize> = cfg.successors(bb).iter().map(|s| s.index()).collect();
            if cfg.successors(bb).is_empty() && cfg.is_reachable(bb) {
                v.push(virtual_exit);
            }
            v
        };
        let core = dom_core(n + 1, virtual_exit, &order, &preds);
        PostDomTree { core, virtual_exit }
    }

    /// Immediate post-dominator of `bb`; `None` when it is the virtual exit
    /// (i.e. `bb` is a return block) or when `bb` cannot reach an exit.
    pub fn ipostdom(&self, bb: BlockId) -> Option<BlockId> {
        match self.core.idom[bb.index()] {
            Some(p) if p != bb.index() && p != self.virtual_exit => Some(BlockId::from_index(p)),
            _ => None,
        }
    }

    /// Whether `a` post-dominates `b` (reflexively).
    pub fn postdominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.core.idom[a.index()].is_none() || self.core.idom[b.index()].is_none() {
            return false;
        }
        self.core.tin[a.index()] <= self.core.tin[b.index()]
            && self.core.tout[b.index()] <= self.core.tout[a.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Module;
    use crate::types::Type;
    use crate::value::{FuncId, Value};

    fn diamond() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let f = m.declare_function_with("f", &[("c", Type::Bool)], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let t = b.create_block("then");
            let e = b.create_block("else");
            let j = b.create_block("join");
            b.switch_to_block(entry);
            b.cond_br(Value::Param(0), t, e);
            b.switch_to_block(t);
            b.br(j);
            b.switch_to_block(e);
            b.br(j);
            b.switch_to_block(j);
            b.ret(None);
        }
        (m, f)
    }

    #[test]
    fn diamond_dominators() {
        let (m, f) = diamond();
        let cfg = Cfg::new(m.function(f));
        let dom = DomTree::new(&cfg);
        // The entry is the immediate dominator of all three other blocks.
        assert!((1..4).all(|b| dom.dominates(BlockId(0), BlockId(b))));
        assert!(!(1..4).any(|b| dom.dominates(BlockId(b), BlockId(0))));
        assert!(dom.dominates(BlockId(2), BlockId(2)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
    }

    #[test]
    fn diamond_postdominators() {
        let (m, f) = diamond();
        let cfg = Cfg::new(m.function(f));
        let pdom = PostDomTree::new(m.function(f), &cfg);
        assert_eq!(pdom.ipostdom(BlockId(0)), Some(BlockId(3)));
        assert_eq!(pdom.ipostdom(BlockId(1)), Some(BlockId(3)));
        assert_eq!(pdom.ipostdom(BlockId(2)), Some(BlockId(3)));
        assert_eq!(pdom.ipostdom(BlockId(3)), None);
        assert!(pdom.postdominates(BlockId(3), BlockId(0)));
        assert!(!pdom.postdominates(BlockId(1), BlockId(0)));
    }

    #[test]
    fn loop_dominators() {
        // entry → header → {body → header, exit}
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
        let dom = DomTree::new(&cfg);
        // The header is the immediate dominator of body and exit.
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
        let pdom = PostDomTree::new(m.function(f), &cfg);
        // header post-dominates body (body always re-enters header).
        assert!(pdom.postdominates(BlockId(1), BlockId(2)));
        // body does not post-dominate header (header may exit).
        assert!(!pdom.postdominates(BlockId(2), BlockId(1)));
    }

    #[test]
    fn multi_exit_postdominators() {
        // entry → (ret1 | ret2): neither ret post-dominates entry.
        let mut m = Module::new("m");
        let f = m.declare_function_with("f", &[("c", Type::Bool)], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let r1 = b.create_block("r1");
            let r2 = b.create_block("r2");
            b.switch_to_block(entry);
            b.cond_br(Value::Param(0), r1, r2);
            b.switch_to_block(r1);
            b.ret(None);
            b.switch_to_block(r2);
            b.ret(None);
        }
        let cfg = Cfg::new(m.function(f));
        let pdom = PostDomTree::new(m.function(f), &cfg);
        assert!(!pdom.postdominates(BlockId(1), BlockId(0)));
        assert!(!pdom.postdominates(BlockId(2), BlockId(0)));
        assert_eq!(pdom.ipostdom(BlockId(0)), None); // ipdom is the virtual exit
    }
}
