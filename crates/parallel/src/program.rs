//! The [`ParallelProgram`] container and its validator.

use std::fmt;

use pspdg_ir::{Cfg, DomTree, FuncId, Inst, LoopForest, Module};

use crate::directive::{Directive, DirectiveId, DirectiveKind, VarRef};

/// A module plus the parallel directives annotating it — the input to
/// PS-PDG construction (paper Fig. 12: "IR with metadata").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParallelProgram {
    /// The sequential IR.
    pub module: Module,
    directives: Vec<Directive>,
}

impl ParallelProgram {
    /// Wrap a module with no directives yet.
    pub fn new(module: Module) -> ParallelProgram {
        ParallelProgram {
            module,
            directives: Vec::new(),
        }
    }

    /// Append a directive, returning its id.
    pub fn add(&mut self, directive: Directive) -> DirectiveId {
        let id = DirectiveId(self.directives.len() as u32);
        self.directives.push(directive);
        id
    }

    /// All directives with their ids.
    pub fn directives(&self) -> impl Iterator<Item = (DirectiveId, &Directive)> + '_ {
        self.directives
            .iter()
            .enumerate()
            .map(|(i, d)| (DirectiveId(i as u32), d))
    }

    /// Borrow one directive.
    pub fn directive(&self, id: DirectiveId) -> &Directive {
        &self.directives[id.index()]
    }

    /// Number of directives.
    pub fn len(&self) -> usize {
        self.directives.len()
    }

    /// Whether the program carries no directives (purely sequential).
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Directives annotating function `func`.
    pub fn directives_in(
        &self,
        func: FuncId,
    ) -> impl Iterator<Item = (DirectiveId, &Directive)> + '_ {
        self.directives()
            .filter(move |(_, d)| d.region.func == func)
    }

    /// The `For`/`CilkFor`/`Taskloop`/`Simd` directive attached to the loop
    /// with header `header` in `func`, if any — i.e. "did the programmer
    /// parallelize this loop?".
    pub fn worksharing_loop_directive(
        &self,
        func: FuncId,
        header: pspdg_ir::BlockId,
    ) -> Option<DirectiveId> {
        self.directives_in(func)
            .find(|(_, d)| {
                d.loop_header == Some(header)
                    && matches!(
                        d.kind,
                        DirectiveKind::For { .. }
                            | DirectiveKind::CilkFor
                            | DirectiveKind::Taskloop
                    )
            })
            .map(|(id, _)| id)
    }

    /// Validate the program; see [`ParallelError`] for the conditions.
    ///
    /// # Errors
    ///
    /// Returns the first malformed directive found.
    pub fn validate(&self) -> Result<(), ParallelError> {
        self.module.verify().map_err(|e| ParallelError {
            directive: None,
            message: e.to_string(),
        })?;
        for (id, d) in self.directives() {
            let err = |message: String| ParallelError {
                directive: Some(id),
                message,
            };
            let func_id = d.region.func;
            if func_id.index() >= self.module.functions.len() {
                return Err(err(format!("region references unknown function {func_id}")));
            }
            let func = self.module.function(func_id);
            for &bb in &d.region.blocks {
                if bb.index() >= func.blocks.len() {
                    return Err(err(format!("region references unknown block {bb}")));
                }
            }
            if d.region.blocks.is_empty() {
                return Err(err("directive region is empty".to_string()));
            }
            if !d.region.contains(d.region.entry) {
                return Err(err("region entry not inside the region".to_string()));
            }
            // Loop constructs must point at a real natural loop whose blocks
            // are covered by the directive region.
            if d.kind.is_loop_construct() {
                let Some(header) = d.loop_header else {
                    return Err(err(format!(
                        "{} directive has no associated loop",
                        d.kind.name()
                    )));
                };
                let cfg = Cfg::new(func);
                let dom = DomTree::new(&cfg);
                let forest = LoopForest::new(func, &cfg, &dom);
                let Some(lid) = forest.loop_ids().find(|l| forest.info(*l).header == header) else {
                    return Err(err(format!(
                        "{} directive: block {header} is not a loop header",
                        d.kind.name()
                    )));
                };
                for &bb in &forest.info(lid).blocks {
                    if !d.region.contains(bb) {
                        return Err(err(format!(
                            "{} directive region does not cover loop block {bb}",
                            d.kind.name()
                        )));
                    }
                }
            }
            // Clause variables must resolve.
            for clause in &d.clauses {
                match clause.var() {
                    VarRef::Alloca { func: vf, inst } => {
                        if vf.index() >= self.module.functions.len()
                            || inst.index() >= self.module.function(vf).insts.len()
                        {
                            return Err(err("clause references unknown alloca".to_string()));
                        }
                        let data = &self.module.function(vf).insts[inst.index()];
                        if !matches!(data.inst, Inst::Alloca { .. }) {
                            return Err(err(format!("clause variable {inst} is not an alloca")));
                        }
                    }
                    VarRef::Global(g) => {
                        if g.index() >= self.module.globals.len() {
                            return Err(err("clause references unknown global".to_string()));
                        }
                    }
                    VarRef::Param { func: vf, index } => {
                        if vf.index() >= self.module.functions.len()
                            || index >= self.module.function(vf).params.len()
                        {
                            return Err(err("clause references unknown parameter".to_string()));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Human-readable description of a variable reference (diagnostics).
    pub fn var_name(&self, var: VarRef) -> String {
        match var {
            VarRef::Alloca { func, inst } => match &self.module.function(func).inst(inst).inst {
                Inst::Alloca { name, .. } => name.clone(),
                _ => format!("{inst}"),
            },
            VarRef::Global(g) => self.module.global(g).name.clone(),
            VarRef::Param { func, index } => self.module.function(func).params[index].name.clone(),
        }
    }
}

/// A malformed directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelError {
    /// The offending directive, when directive-local.
    pub directive: Option<DirectiveId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.directive {
            Some(d) => write!(f, "invalid directive {d}: {}", self.message),
            None => write!(f, "invalid parallel program: {}", self.message),
        }
    }
}

impl std::error::Error for ParallelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directive::{DataClause, Region};
    use pspdg_ir::{BinOp, BlockId, CmpOp, FunctionBuilder, InstId, Type, Value};

    /// A module with one canonical loop: blocks
    /// 0 entry, 1 header, 2 body, 3 latch, 4 exit. Returns (program, func).
    fn loop_program() -> (ParallelProgram, FuncId) {
        let mut m = Module::new("m");
        let f = m.declare_function("k", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let latch = b.create_block("latch");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let a = b.alloca(Type::array(Type::I64, 16), "a");
            let i = b.alloca(Type::I64, "i");
            b.store(i, Value::const_int(0));
            b.br(header);
            b.switch_to_block(header);
            let iv = b.load(i, Type::I64);
            let c = b.cmp(CmpOp::Lt, iv, Value::const_int(16));
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let iv2 = b.load(i, Type::I64);
            let p = b.gep(a, iv2, Type::I64);
            b.store(p, iv2);
            b.br(latch);
            b.switch_to_block(latch);
            let iv3 = b.load(i, Type::I64);
            let nx = b.binary(BinOp::Add, iv3, Value::const_int(1));
            b.store(i, nx);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(None);
        }
        (ParallelProgram::new(m), f)
    }

    fn loop_region(f: FuncId) -> Region {
        Region::new(f, vec![BlockId(1), BlockId(2), BlockId(3)], BlockId(1))
    }

    #[test]
    fn validates_wellformed_for() {
        let (mut p, f) = loop_program();
        p.add(Directive::parallel_for(loop_region(f), BlockId(1)));
        p.validate().expect("valid");
    }

    #[test]
    fn rejects_for_on_nonloop() {
        let (mut p, f) = loop_program();
        // header points at the body block — not a loop header.
        let r = Region::new(f, vec![BlockId(2)], BlockId(2));
        p.add(Directive::parallel_for(r, BlockId(2)));
        let err = p.validate().unwrap_err();
        assert!(err.message.contains("not a loop header"), "{err}");
    }

    #[test]
    fn rejects_region_not_covering_loop() {
        let (mut p, f) = loop_program();
        // Region misses the latch block.
        let r = Region::new(f, vec![BlockId(1), BlockId(2)], BlockId(1));
        p.add(Directive::parallel_for(r, BlockId(1)));
        let err = p.validate().unwrap_err();
        assert!(err.message.contains("does not cover"), "{err}");
    }

    #[test]
    fn rejects_clause_on_non_alloca() {
        let (mut p, f) = loop_program();
        let d = Directive::parallel_for(loop_region(f), BlockId(1)).with_clauses([
            // Instruction 2 is the `store`, not an alloca.
            DataClause::Private(VarRef::Alloca {
                func: f,
                inst: InstId(2),
            }),
        ]);
        p.add(d);
        let err = p.validate().unwrap_err();
        assert!(err.message.contains("not an alloca"), "{err}");
    }

    #[test]
    fn parent_nesting() {
        let (mut p, f) = loop_program();
        let outer = Region::new(
            f,
            vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3), BlockId(4)],
            BlockId(0),
        );
        p.add(Directive::parallel(outer));
        p.add(Directive::parallel_for(loop_region(f), BlockId(1)));
        p.validate().expect("valid");
    }

    #[test]
    fn worksharing_lookup() {
        let (mut p, f) = loop_program();
        assert!(p.worksharing_loop_directive(f, BlockId(1)).is_none());
        let id = p.add(Directive::parallel_for(loop_region(f), BlockId(1)));
        assert_eq!(p.worksharing_loop_directive(f, BlockId(1)), Some(id));
    }

    #[test]
    fn var_name_resolution() {
        let (mut p, f) = loop_program();
        let d = Directive::parallel_for(loop_region(f), BlockId(1)).with_clauses([
            DataClause::Private(VarRef::Alloca {
                func: f,
                inst: InstId(0),
            }),
        ]);
        p.add(d);
        assert_eq!(
            p.var_name(VarRef::Alloca {
                func: f,
                inst: InstId(0)
            }),
            "a"
        );
    }
}
