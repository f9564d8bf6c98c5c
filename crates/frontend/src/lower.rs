//! Lowering from the ParC AST to IR + parallel directives.
//!
//! The generated IR follows the clang `-O0` discipline the dependence
//! analyses expect:
//!
//! * every local variable (and every scalar parameter) lives in an `alloca`
//!   created in the entry block and is accessed with loads/stores;
//! * `for` loops lower to the canonical preheader / header / body / latch
//!   shape recognized by [`pspdg_ir::LoopForest::canonical`];
//! * every pragma opens a fresh block, so a directive's region is exactly a
//!   contiguous range of newly created blocks.

use std::collections::HashMap;

use pspdg_ir::{
    BinOp, BlockId, CastKind, CmpOp, FuncId, Function, FunctionBuilder, GlobalId, GlobalInit,
    InstId, Intrinsic, Module, Param, Type, UnOp, Value,
};
use pspdg_parallel::{
    DataClause, Depend, DependKind, Directive, DirectiveKind, ParallelProgram, ReductionOp, Region,
    Schedule, ScheduleKind, VarRef,
};

use pspdg_pool::par_map;

use crate::ast::*;
use crate::lexer::Token;
use crate::parser::parse_body;
use crate::pragma::{ClauseAst, PragmaAst};
use crate::FrontendError;

/// A global's id, element type and dimensions.
type GlobalInfo<'a> = (GlobalId, TypeSpec, &'a [u64]);

/// A function's id and declaration, for calls and for its own body.
type Sig<'a> = (FuncId, &'a FuncDecl<'a>);

/// Below this many tokens a program is lowered on the calling thread: waking
/// a pool worker costs more than a small program's bodies do (measured on
/// 2 vCPUs: about 15 µs per `par_map` against 50 µs to compile a 1 KB NAS
/// kernel whose one kernel function dominates).
const PARALLEL_MIN_TOKENS: usize = 4096;

/// Where lowering a function failed, in the order errors are reported: a
/// syntax error anywhere before any semantic one, as a whole-unit parse
/// would find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Syntax,
    Semantic,
}

/// Lower a scanned [`Unit`] to a [`ParallelProgram`]: each job parses one
/// function body from `tokens`, lowers it against the declared signatures
/// and drops its AST.
///
/// # Errors
///
/// The first syntax error in source order, else the first semantic error:
/// unknown names, type mismatches, arity mismatches, malformed pragma
/// placement (e.g. `omp for` on a non-loop).
pub(crate) fn lower(
    tokens: &[Token<'_>],
    unit: &Unit<'_>,
) -> Result<ParallelProgram, FrontendError> {
    let mut module = Module::new("parc");
    let mut globals = HashMap::new();
    let mut sigs = HashMap::new();
    let declared = match &unit.error {
        Some(e) => Err(e.clone()),
        None => declare(unit, &mut module, &mut globals, &mut sigs),
    };
    let parse = |f: &FuncDecl<'_>| parse_body(&tokens[f.body.clone()]);
    if let Err(e) = declared {
        // A syntax error in any body scanned comes before this error.
        return Err(unit
            .functions
            .iter()
            .find_map(|f| parse(f).err())
            .unwrap_or(e));
    }
    let job = |(index, decl): (usize, &FuncDecl<'_>)| {
        let body = parse(decl).map_err(|e| (Stage::Syntax, e))?;
        let params = decl
            .params
            .iter()
            .map(|p| Param {
                name: p.name.to_string(),
                ty: if p.is_array {
                    Type::Ptr
                } else {
                    scalar_type(p.ty)
                },
            })
            .collect();
        let mut ctx = FnLower {
            func: Function::new(decl.name, params, scalar_type(decl.ret)),
            id: FuncId::from_index(index),
            decl,
            globals: &globals,
            sigs: &sigs,
            vars: Vec::new(),
            scope_start: 0,
            directives: Vec::new(),
            entry: BlockId(0),
            current: BlockId(0),
        };
        ctx.run(&body).map_err(|e| (Stage::Semantic, e))?;
        Ok((ctx.func, ctx.directives))
    };
    let jobs = unit.functions.iter().enumerate();
    let lowered: Vec<_> = if tokens.len() < PARALLEL_MIN_TOKENS {
        jobs.map(job).collect()
    } else {
        par_map(jobs.collect(), job)
    };
    let first_error = lowered.iter().filter_map(|r| r.as_ref().err());
    if let Some((_, e)) = first_error.min_by_key(|(stage, _)| *stage) {
        return Err(e.clone());
    }
    let mut directives = Vec::new();
    for (func, func_directives) in lowered.into_iter().flatten() {
        module.functions.push(func);
        directives.extend(func_directives);
    }
    let mut program = ParallelProgram::new(module);
    for d in directives {
        program.add(d);
    }
    Ok(program)
}

/// Declare every global into `module`, then record every function
/// signature, reporting the first clash in source order.
fn declare<'u>(
    unit: &'u Unit<'u>,
    module: &mut Module,
    globals: &mut HashMap<&'u str, GlobalInfo<'u>>,
    sigs: &mut HashMap<&'u str, Sig<'u>>,
) -> Result<(), FrontendError> {
    // Globals (zero-initialized, as in NAS: static arrays).
    for g in &unit.globals {
        if globals.contains_key(g.name) {
            return Err(FrontendError::new(
                g.line,
                format!("duplicate global '{}'", g.name),
            ));
        }
        let ty = build_type(g.ty, &g.dims);
        let id = module.declare_global(g.name, ty, GlobalInit::Zero);
        globals.insert(g.name, (id, g.ty, g.dims.as_slice()));
    }
    for (index, f) in unit.functions.iter().enumerate() {
        if sigs.contains_key(f.name) {
            return Err(FrontendError::new(
                f.line,
                format!("duplicate function '{}'", f.name),
            ));
        }
        if Intrinsic::by_name(f.name).is_some() {
            return Err(FrontendError::new(
                f.line,
                format!("'{}' is a built-in and cannot be redefined", f.name),
            ));
        }
        sigs.insert(f.name, (FuncId::from_index(index), f));
    }
    Ok(())
}

fn scalar_type(ts: TypeSpec) -> Type {
    match ts {
        TypeSpec::Int => Type::I64,
        TypeSpec::Double => Type::F64,
        TypeSpec::Void => Type::Void,
    }
}

fn build_type(ts: TypeSpec, dims: &[u64]) -> Type {
    let mut ty = scalar_type(ts);
    for &d in dims.iter().rev() {
        ty = Type::array(ty, d);
    }
    ty
}

/// The value-level type of a lowered expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Double,
    Bool,
}

impl Ty {
    fn of(ts: TypeSpec) -> Ty {
        match ts {
            TypeSpec::Int => Ty::Int,
            TypeSpec::Double => Ty::Double,
            TypeSpec::Void => unreachable!("void has no value type"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Double => "double",
            Ty::Bool => "bool",
        }
    }
}

/// How a name resolves.
#[derive(Debug, Clone, Copy)]
enum VarKind {
    Local {
        ptr: Value,
        alloca: InstId,
    },
    Param {
        index: usize,
        is_array: bool,
        shadow: Option<(Value, InstId)>,
    },
    Global(GlobalId),
}

#[derive(Debug, Clone, Copy)]
struct VarInfo<'a> {
    kind: VarKind,
    ty: TypeSpec,
    dims: &'a [u64],
}

/// Lowers one function body into its own [`Function`].
struct FnLower<'a> {
    func: Function,
    id: FuncId,
    decl: &'a FuncDecl<'a>,
    globals: &'a HashMap<&'a str, GlobalInfo<'a>>,
    sigs: &'a HashMap<&'a str, Sig<'a>>,
    /// Every local and parameter in scope, innermost last.
    vars: Vec<(&'a str, VarInfo<'a>)>,
    /// Where the innermost block's declarations start in `vars`.
    scope_start: usize,
    directives: Vec<Directive>,
    entry: BlockId,
    /// Insertion point, persisted across temporary `FunctionBuilder`s.
    current: BlockId,
}

impl<'a> FnLower<'a> {
    fn err(&self, line: u32, msg: impl Into<String>) -> FrontendError {
        FrontendError::new(
            line,
            format!("in function '{}': {}", self.decl.name, msg.into()),
        )
    }

    /// A builder positioned at the persisted insertion point. Position
    /// changes made on the temporary builder are lost when it drops; use
    /// [`Self::seek`] to move the persistent insertion point.
    fn builder(&mut self) -> FunctionBuilder<'_> {
        let current = self.current;
        let mut b = FunctionBuilder::new(&mut self.func);
        b.switch_to_block(current);
        b
    }

    /// Move the persistent insertion point.
    fn seek(&mut self, bb: BlockId) {
        self.current = bb;
    }

    fn run(&mut self, body: &'a Stmt<'a>) -> Result<(), FrontendError> {
        let (entry, start) = {
            let mut b = FunctionBuilder::new(&mut self.func);
            let entry = b.create_block("entry");
            let start = b.create_block("start");
            (entry, start)
        };
        self.entry = entry;
        self.current = start;
        // Scalar parameters get shadow allocas (assignable, addressable).
        for (index, p) in self.decl.params.iter().enumerate() {
            let shadow = if p.is_array {
                None
            } else {
                let mut b = self.builder();
                let cur = b.current_block();
                b.switch_to_block(entry);
                let ptr = b.alloca(scalar_type(p.ty), p.name);
                b.store(ptr, Value::Param(index));
                b.switch_to_block(cur);
                Some((ptr, ptr.as_inst().unwrap()))
            };
            let kind = VarKind::Param {
                index,
                is_array: p.is_array,
                shadow,
            };
            let (ty, dims) = (p.ty, &[][..]);
            self.vars.push((p.name, VarInfo { kind, ty, dims }));
        }
        self.stmt(body)?;
        // Fall-through return.
        {
            let ret = self.decl.ret;
            let mut b = self.builder();
            if !b.block_terminated() {
                match ret {
                    TypeSpec::Void => b.ret(None),
                    TypeSpec::Int => b.ret(Some(Value::const_int(0))),
                    TypeSpec::Double => b.ret(Some(Value::const_float(0.0))),
                };
            }
            // Terminate the alloca-only entry block.
            b.switch_to_block(entry);
            b.br(start);
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<VarInfo<'a>> {
        if let Some((_, v)) = self.vars.iter().rev().find(|(n, _)| *n == name) {
            return Some(*v);
        }
        let &(id, ty, dims) = self.globals.get(name)?;
        let kind = VarKind::Global(id);
        Some(VarInfo { kind, ty, dims })
    }

    fn fresh_block(&mut self, name: &str) -> BlockId {
        let nb = {
            let mut b = self.builder();
            let nb = b.create_block(name);
            if !b.block_terminated() {
                b.br(nb);
            }
            nb
        };
        self.seek(nb);
        nb
    }

    // ---- statements --------------------------------------------------------

    fn stmt(&mut self, s: &'a Stmt<'a>) -> Result<(), FrontendError> {
        // Dead code after a terminator gets its own unreachable block so the
        // builder never appends to a terminated block.
        if self.builder().block_terminated() {
            let dead = self.builder().create_block("dead");
            self.seek(dead);
        }
        match &s.kind {
            StmtKind::Block(stmts) => {
                let outer = std::mem::replace(&mut self.scope_start, self.vars.len());
                for st in stmts {
                    self.stmt(st)?;
                }
                self.vars.truncate(self.scope_start);
                self.scope_start = outer;
                Ok(())
            }
            StmtKind::Decl(decl, init) => self.decl_stmt(decl, init.as_ref()),
            StmtKind::Assign { target, op, value } => self.assign(target, *op, value, s.line),
            StmtKind::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                let c = self.cond(cond)?;
                let (then_bb, else_bb, join) = {
                    let mut b = self.builder();
                    let t = b.create_block("if.then");
                    let e = b.create_block("if.else");
                    let j = b.create_block("if.join");
                    b.cond_br(c, t, if else_stmt.is_some() { e } else { j });
                    (t, e, j)
                };
                self.seek(then_bb);
                self.stmt(then_stmt)?;
                {
                    let mut b = self.builder();
                    if !b.block_terminated() {
                        b.br(join);
                    }
                }
                if let Some(els) = else_stmt {
                    self.seek(else_bb);
                    self.stmt(els)?;
                    let mut b = self.builder();
                    if !b.block_terminated() {
                        b.br(join);
                    }
                } else {
                    // keep `else_bb` trivially terminated (unreachable)
                    self.seek(else_bb);
                    self.builder().br(join);
                }
                self.seek(join);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let header = self.fresh_block("while.header");
                let c = self.cond(cond)?;
                let (body_bb, exit) = {
                    let mut b = self.builder();
                    let body_bb = b.create_block("while.body");
                    let exit = b.create_block("while.exit");
                    b.cond_br(c, body_bb, exit);
                    (body_bb, exit)
                };
                self.seek(body_bb);
                self.stmt(body)?;
                {
                    let mut b = self.builder();
                    if !b.block_terminated() {
                        b.br(header);
                    }
                }
                self.seek(exit);
                Ok(())
            }
            StmtKind::For { .. } => {
                let info = self.lower_for(s)?;
                if info.is_cilk {
                    self.push_loop_directive(DirectiveKind::CilkFor, info, &[], s.line)?;
                }
                Ok(())
            }
            StmtKind::Return(value) => {
                let v = match (value, self.decl.ret) {
                    (None, TypeSpec::Void) => None,
                    (None, _) => {
                        return Err(self.err(s.line, "return without value in non-void function"))
                    }
                    (Some(_), TypeSpec::Void) => {
                        return Err(self.err(s.line, "return with value in void function"))
                    }
                    (Some(e), rt) => {
                        let (v, ty) = self.expr(e)?;
                        Some(self.coerce(v, ty, Ty::of(rt), e.line)?)
                    }
                };
                self.builder().ret(v);
                Ok(())
            }
            StmtKind::ExprStmt(e) => {
                match &e.kind {
                    ExprKind::Call(..) => {
                        self.call_expr(e, true)?;
                    }
                    _ => {
                        self.expr(e)?; // evaluate for effect (there is none)
                    }
                }
                Ok(())
            }
            StmtKind::Pragma { pragma, stmt } => self.pragma_stmt(pragma, stmt, s.line),
            StmtKind::StandalonePragma(pragma) => {
                let bb = self.fresh_block("sync");
                let cont = self.fresh_block("sync.cont");
                let _ = cont;
                let kind = match pragma {
                    PragmaAst::Barrier => DirectiveKind::Barrier,
                    PragmaAst::Taskwait => DirectiveKind::Taskwait,
                    other => {
                        return Err(self.err(s.line, format!("pragma {other:?} is not standalone")))
                    }
                };
                self.directives
                    .push(Directive::new(kind, Region::new(self.id, vec![bb], bb)));
                Ok(())
            }
            StmtKind::CilkSpawn { target, call } => {
                let region_start = self.fresh_block("spawn");
                self.spawn_call(target.as_ref(), call, s.line)?;
                let cont = self.fresh_block("spawn.cont");
                let blocks = self.block_range(region_start, cont);
                self.directives.push(Directive::new(
                    DirectiveKind::CilkSpawn,
                    Region::new(self.id, blocks, region_start),
                ));
                Ok(())
            }
            StmtKind::CilkSync => {
                let bb = self.fresh_block("cilk.sync");
                self.fresh_block("cilk.sync.cont");
                self.directives.push(Directive::new(
                    DirectiveKind::CilkSync,
                    Region::new(self.id, vec![bb], bb),
                ));
                Ok(())
            }
            StmtKind::CilkScope(body) => {
                let region_start = self.fresh_block("cilk.scope");
                self.stmt(body)?;
                let cont = self.fresh_block("cilk.scope.cont");
                let blocks = self.block_range(region_start, cont);
                self.directives.push(Directive::new(
                    DirectiveKind::CilkScope,
                    Region::new(self.id, blocks, region_start),
                ));
                Ok(())
            }
        }
    }

    /// All block ids in `[start, end)` — the region created between two
    /// `fresh_block` calls.
    fn block_range(&self, start: BlockId, end: BlockId) -> Vec<BlockId> {
        (start.index()..end.index())
            .map(BlockId::from_index)
            .collect()
    }

    fn decl_stmt(
        &mut self,
        decl: &'a VarDecl<'a>,
        init: Option<&'a Expr<'a>>,
    ) -> Result<(), FrontendError> {
        if self.vars[self.scope_start..]
            .iter()
            .any(|(n, _)| *n == decl.name)
        {
            return Err(self.err(decl.line, format!("duplicate variable '{}'", decl.name)));
        }
        let ty = build_type(decl.ty, &decl.dims);
        let entry = self.entry;
        let (ptr, alloca) = {
            let mut b = self.builder();
            let cur = b.current_block();
            b.switch_to_block(entry);
            let ptr = b.alloca(ty, decl.name);
            b.switch_to_block(cur);
            (ptr, ptr.as_inst().unwrap())
        };
        let kind = VarKind::Local { ptr, alloca };
        let (ty, dims) = (decl.ty, decl.dims.as_slice());
        self.vars.push((decl.name, VarInfo { kind, ty, dims }));
        if let Some(e) = init {
            let (v, vty) = self.expr(e)?;
            let v = self.coerce(v, vty, Ty::of(decl.ty), e.line)?;
            self.builder().store(ptr, v);
        }
        Ok(())
    }

    fn assign(
        &mut self,
        target: &'a Expr<'a>,
        op: Option<BinKind>,
        value: &'a Expr<'a>,
        line: u32,
    ) -> Result<(), FrontendError> {
        let (ptr, elem_ty) = self.lvalue(target)?;
        let (v, vty) = self.expr(value)?;
        let stored = match op {
            None => self.coerce(v, vty, elem_ty, line)?,
            Some(bk) => {
                let cur = {
                    let mut b = self.builder();
                    b.load(ptr, ty_to_ir(elem_ty))
                };
                let (l, r, rty) = self.unify(cur, elem_ty, v, vty, line)?;
                let combined = self.apply_binop(bk, l, r, rty, line)?;
                let (cv, cty) = combined;
                self.coerce(cv, cty, elem_ty, line)?
            }
        };
        self.builder().store(ptr, stored);
        Ok(())
    }

    // ---- pragmas ------------------------------------------------------------

    fn pragma_stmt(
        &mut self,
        pragma: &'a PragmaAst<'a>,
        stmt: &'a Stmt<'a>,
        line: u32,
    ) -> Result<(), FrontendError> {
        match pragma {
            PragmaAst::Parallel(clauses) => {
                self.region_directive(DirectiveKind::Parallel, stmt, clauses, line, "omp.parallel")
            }
            PragmaAst::ParallelFor(clauses) => {
                let StmtKind::For { .. } = &stmt.kind else {
                    return Err(self.err(line, "'omp parallel for' must annotate a for loop"));
                };
                let info = self.lower_for(stmt)?;
                // The team (parallel) directive shares the loop region.
                let blocks = self.block_range(info.region_start, info.cont);
                self.directives.push(Directive::new(
                    DirectiveKind::Parallel,
                    Region::new(self.id, blocks, info.region_start),
                ));
                self.push_loop_directive(
                    DirectiveKind::For {
                        schedule: schedule_of(clauses),
                        nowait: has_nowait(clauses),
                        ordered: has_ordered(clauses),
                    },
                    info,
                    clauses,
                    line,
                )
            }
            PragmaAst::For(clauses) | PragmaAst::Taskloop(clauses) | PragmaAst::Simd(clauses) => {
                let StmtKind::For { .. } = &stmt.kind else {
                    return Err(self.err(line, "worksharing pragma must annotate a for loop"));
                };
                let info = self.lower_for(stmt)?;
                let kind = match pragma {
                    PragmaAst::For(_) => DirectiveKind::For {
                        schedule: schedule_of(clauses),
                        nowait: has_nowait(clauses),
                        ordered: has_ordered(clauses),
                    },
                    PragmaAst::Taskloop(_) => DirectiveKind::Taskloop,
                    _ => DirectiveKind::Simd,
                };
                self.push_loop_directive(kind, info, clauses, line)
            }
            PragmaAst::Sections(clauses) => {
                self.region_directive(DirectiveKind::Sections, stmt, clauses, line, "omp.sections")
            }
            PragmaAst::Section => {
                self.region_directive(DirectiveKind::Section, stmt, &[], line, "omp.section")
            }
            PragmaAst::Single(clauses) => self.region_directive(
                DirectiveKind::Single {
                    nowait: has_nowait(clauses),
                },
                stmt,
                clauses,
                line,
                "omp.single",
            ),
            PragmaAst::Master => {
                self.region_directive(DirectiveKind::Master, stmt, &[], line, "omp.master")
            }
            PragmaAst::Critical(name) => self.region_directive(
                DirectiveKind::Critical {
                    name: name.map(str::to_string),
                },
                stmt,
                &[],
                line,
                "omp.critical",
            ),
            PragmaAst::Atomic => {
                if !matches!(&stmt.kind, StmtKind::Assign { op: Some(_), .. }) {
                    return Err(self.err(
                        line,
                        "'omp atomic' must annotate a compound update (x op= expr)",
                    ));
                }
                self.region_directive(DirectiveKind::Atomic, stmt, &[], line, "omp.atomic")
            }
            PragmaAst::Ordered => {
                self.region_directive(DirectiveKind::Ordered, stmt, &[], line, "omp.ordered")
            }
            PragmaAst::Task(clauses) => {
                let depends = self.resolve_depends(clauses, line)?;
                let kind = DirectiveKind::Task { depends };
                self.region_directive(kind, stmt, clauses, line, "omp.task")
            }
            PragmaAst::Barrier | PragmaAst::Taskwait => {
                unreachable!("standalone pragmas handled by the parser")
            }
        }
    }

    fn region_directive(
        &mut self,
        kind: DirectiveKind,
        stmt: &'a Stmt<'a>,
        clauses: &[ClauseAst<'_>],
        line: u32,
        label: &str,
    ) -> Result<(), FrontendError> {
        let region_start = self.fresh_block(label);
        self.stmt(stmt)?;
        let cont = self.fresh_block(&format!("{label}.cont"));
        let blocks = self.block_range(region_start, cont);
        let d = Directive::new(kind, Region::new(self.id, blocks, region_start))
            .with_clauses(self.resolve_clauses(clauses, line)?);
        self.directives.push(d);
        Ok(())
    }

    fn push_loop_directive(
        &mut self,
        kind: DirectiveKind,
        info: ForInfo,
        clauses: &[ClauseAst<'_>],
        line: u32,
    ) -> Result<(), FrontendError> {
        let blocks = self.block_range(info.region_start, info.cont);
        let mut d = Directive::new(kind, Region::new(self.id, blocks, info.region_start))
            .with_clauses(self.resolve_clauses(clauses, line)?);
        d.loop_header = Some(info.header);
        self.directives.push(d);
        Ok(())
    }

    fn resolve_var(&self, name: &str, line: u32) -> Result<VarRef, FrontendError> {
        let info = self
            .lookup(name)
            .ok_or_else(|| self.err(line, format!("unknown variable '{name}' in clause")))?;
        Ok(match info.kind {
            VarKind::Local { alloca, .. } => VarRef::Alloca {
                func: self.id,
                inst: alloca,
            },
            VarKind::Param {
                index,
                is_array,
                shadow,
            } => {
                if is_array {
                    VarRef::Param {
                        func: self.id,
                        index,
                    }
                } else {
                    let (_, alloca) = shadow.expect("scalar params have shadows");
                    VarRef::Alloca {
                        func: self.id,
                        inst: alloca,
                    }
                }
            }
            VarKind::Global(g) => VarRef::Global(g),
        })
    }

    fn resolve_clauses(
        &self,
        clauses: &[ClauseAst<'_>],
        line: u32,
    ) -> Result<Vec<DataClause>, FrontendError> {
        let mut out = Vec::new();
        for c in clauses {
            let (vars, clause): (&[&str], fn(VarRef) -> DataClause) = match c {
                ClauseAst::Private(vars) => (vars, DataClause::Private),
                ClauseAst::Firstprivate(vars) => (vars, DataClause::Firstprivate),
                ClauseAst::Lastprivate(vars) => (vars, DataClause::Lastprivate),
                ClauseAst::Shared(vars) => (vars, DataClause::Shared),
                ClauseAst::Threadprivate(vars) => (vars, DataClause::Threadprivate),
                ClauseAst::Reduction { op, vars } => {
                    let rop = match ReductionOp::from_token(op) {
                        Some(r) => r,
                        None => {
                            // A user-declared merger function.
                            let merger = self.sigs.get(op).ok_or_else(|| {
                                self.err(line, format!("unknown reduction operator '{op}'"))
                            })?;
                            ReductionOp::Custom { merger: merger.0 }
                        }
                    };
                    for v in vars {
                        let var = self.resolve_var(v, line)?;
                        out.push(DataClause::Reduction { op: rop, var });
                    }
                    continue;
                }
                ClauseAst::Schedule { .. }
                | ClauseAst::Nowait
                | ClauseAst::Ordered
                | ClauseAst::Collapse(_)
                | ClauseAst::NumThreads(_)
                | ClauseAst::Depend { .. } => continue,
            };
            for v in vars {
                out.push(clause(self.resolve_var(v, line)?));
            }
        }
        Ok(out)
    }

    fn resolve_depends(
        &self,
        clauses: &[ClauseAst<'_>],
        line: u32,
    ) -> Result<Vec<Depend>, FrontendError> {
        let mut out = Vec::new();
        for c in clauses {
            if let ClauseAst::Depend { kind, vars } = c {
                let k = match *kind {
                    "in" => DependKind::In,
                    "out" => DependKind::Out,
                    "inout" => DependKind::Inout,
                    other => return Err(self.err(line, format!("unknown depend kind '{other}'"))),
                };
                for v in vars {
                    out.push(Depend {
                        kind: k,
                        var: self.resolve_var(v, line)?,
                    });
                }
            }
        }
        Ok(out)
    }

    // ---- loops --------------------------------------------------------------

    fn lower_for(&mut self, s: &'a Stmt<'a>) -> Result<ForInfo, FrontendError> {
        let StmtKind::For {
            init,
            cond,
            step,
            body,
            is_cilk,
        } = &s.kind
        else {
            unreachable!("lower_for on non-for");
        };
        // Preheader: a fresh block holding the init assignment.
        let region_start = self.fresh_block("for.pre");
        self.stmt(init)?;
        let header = self.fresh_block("for.header");
        let c = self.cond(cond)?;
        let (body_bb, latch, exit) = {
            let mut b = self.builder();
            let body_bb = b.create_block("for.body");
            let latch = b.create_block("for.latch");
            let exit = b.create_block("for.exit");
            b.cond_br(c, body_bb, exit);
            (body_bb, latch, exit)
        };
        self.seek(body_bb);
        self.stmt(body)?;
        {
            let mut b = self.builder();
            if !b.block_terminated() {
                b.br(latch);
            }
        }
        self.seek(latch);
        self.stmt(step)?;
        {
            let mut b = self.builder();
            if !b.block_terminated() {
                b.br(header);
            }
        }
        self.seek(exit);
        let cont = self.fresh_block("for.cont");
        Ok(ForInfo {
            region_start,
            header,
            cont,
            is_cilk: *is_cilk,
        })
    }

    // ---- expressions ---------------------------------------------------------

    /// Lower an expression used as a branch condition (coerced to bool).
    fn cond(&mut self, e: &'a Expr<'a>) -> Result<Value, FrontendError> {
        let (v, ty) = self.expr(e)?;
        Ok(match ty {
            Ty::Bool => v,
            Ty::Int => self.builder().cmp(CmpOp::Ne, v, Value::const_int(0)),
            Ty::Double => self.builder().cmp(CmpOp::Ne, v, Value::const_float(0.0)),
        })
    }

    fn coerce(&mut self, v: Value, from: Ty, to: Ty, line: u32) -> Result<Value, FrontendError> {
        if from == to {
            return Ok(v);
        }
        Ok(match (from, to) {
            (Ty::Int, Ty::Double) => self.builder().cast(CastKind::IntToFloat, v),
            (Ty::Double, Ty::Int) => self.builder().cast(CastKind::FloatToInt, v),
            (Ty::Bool, Ty::Int) => self.builder().cast(CastKind::BoolToInt, v),
            (Ty::Bool, Ty::Double) => {
                let i = self.builder().cast(CastKind::BoolToInt, v);
                self.builder().cast(CastKind::IntToFloat, i)
            }
            (Ty::Int | Ty::Double, Ty::Bool) => {
                return Err(self.err(line, "cannot use a numeric value where a bool is required"))
            }
            (Ty::Int, Ty::Int) | (Ty::Double, Ty::Double) | (Ty::Bool, Ty::Bool) => v,
        })
    }

    /// Usual arithmetic conversions: unify two numeric operands.
    fn unify(
        &mut self,
        l: Value,
        lt: Ty,
        r: Value,
        rt: Ty,
        line: u32,
    ) -> Result<(Value, Value, Ty), FrontendError> {
        let lt = if lt == Ty::Bool {
            return Ok((self.coerce(l, Ty::Bool, Ty::Int, line)?, r, Ty::Int));
        } else {
            lt
        };
        let rt2 = if rt == Ty::Bool { Ty::Int } else { rt };
        let r = if rt == Ty::Bool {
            self.coerce(r, Ty::Bool, Ty::Int, line)?
        } else {
            r
        };
        match (lt, rt2) {
            (Ty::Int, Ty::Int) => Ok((l, r, Ty::Int)),
            (Ty::Double, Ty::Double) => Ok((l, r, Ty::Double)),
            (Ty::Int, Ty::Double) => {
                let l2 = self.coerce(l, Ty::Int, Ty::Double, line)?;
                Ok((l2, r, Ty::Double))
            }
            (Ty::Double, Ty::Int) => {
                let r2 = self.coerce(r, Ty::Int, Ty::Double, line)?;
                Ok((l, r2, Ty::Double))
            }
            _ => unreachable!(),
        }
    }

    fn apply_binop(
        &mut self,
        bk: BinKind,
        l: Value,
        r: Value,
        ty: Ty,
        line: u32,
    ) -> Result<(Value, Ty), FrontendError> {
        let cmp = |this: &mut Self, op| Ok((this.builder().cmp(op, l, r), Ty::Bool));
        let op = match bk {
            BinKind::Add => BinOp::Add,
            BinKind::Sub => BinOp::Sub,
            BinKind::Mul => BinOp::Mul,
            BinKind::Div => BinOp::Div,
            BinKind::Rem => BinOp::Rem,
            BinKind::BitAnd => BinOp::And,
            BinKind::BitOr => BinOp::Or,
            BinKind::BitXor => BinOp::Xor,
            BinKind::Shl => BinOp::Shl,
            BinKind::Shr => BinOp::Shr,
            BinKind::Eq => return cmp(self, CmpOp::Eq),
            BinKind::Ne => return cmp(self, CmpOp::Ne),
            BinKind::Lt => return cmp(self, CmpOp::Lt),
            BinKind::Le => return cmp(self, CmpOp::Le),
            BinKind::Gt => return cmp(self, CmpOp::Gt),
            BinKind::Ge => return cmp(self, CmpOp::Ge),
            BinKind::LogAnd | BinKind::LogOr => unreachable!("logical ops handled in expr()"),
        };
        let int_only = !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div);
        if int_only && ty != Ty::Int {
            return Err(self.err(
                line,
                format!("operator requires integer operands, got {}", ty.name()),
            ));
        }
        Ok((self.builder().binary(op, l, r), ty))
    }

    fn expr(&mut self, e: &'a Expr<'a>) -> Result<(Value, Ty), FrontendError> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok((Value::const_int(*v), Ty::Int)),
            ExprKind::FloatLit(v) => Ok((Value::const_float(*v), Ty::Double)),
            ExprKind::Var(_) | ExprKind::Index(..) => {
                let (ptr, elem_ty) = self.lvalue(e)?;
                let v = self.builder().load(ptr, ty_to_ir(elem_ty));
                Ok((v, elem_ty))
            }
            ExprKind::Unary(UnKind::Neg, inner) => {
                let (v, ty) = self.expr(inner)?;
                if ty == Ty::Bool {
                    return Err(self.err(e.line, "cannot negate a bool"));
                }
                Ok((self.builder().unary(UnOp::Neg, v), ty))
            }
            ExprKind::Unary(UnKind::Not, inner) => {
                let (v, ty) = self.expr(inner)?;
                let b = match ty {
                    Ty::Bool => v,
                    Ty::Int => self.builder().cmp(CmpOp::Eq, v, Value::const_int(0)),
                    Ty::Double => self.builder().cmp(CmpOp::Eq, v, Value::const_float(0.0)),
                };
                Ok((
                    match ty {
                        Ty::Bool => self.builder().unary(UnOp::Not, b),
                        _ => b,
                    },
                    Ty::Bool,
                ))
            }
            ExprKind::Binary(bk @ (BinKind::LogAnd | BinKind::LogOr), l, r) => {
                // Non-short-circuit logical ops on bools.
                let lc = self.cond(l)?;
                let rc = self.cond(r)?;
                let op = if *bk == BinKind::LogAnd {
                    BinOp::And
                } else {
                    BinOp::Or
                };
                Ok((self.builder().binary(op, lc, rc), Ty::Bool))
            }
            ExprKind::Binary(bk, l, r) => {
                let (lv, lt) = self.expr(l)?;
                let (rv, rt) = self.expr(r)?;
                let (lv, rv, ty) = self.unify(lv, lt, rv, rt, e.line)?;
                self.apply_binop(*bk, lv, rv, ty, e.line)
            }
            ExprKind::Call(..) => {
                let (v, ty) = self.call_expr(e, false)?;
                Ok((v, ty.expect("non-void checked in call_expr")))
            }
            ExprKind::Cast(ts, inner) => {
                let (v, ty) = self.expr(inner)?;
                let target = Ty::of(*ts);
                Ok((self.coerce(v, ty, target, e.line)?, target))
            }
        }
    }

    /// Lower a call; `as_stmt` permits void calls.
    fn call_expr(
        &mut self,
        e: &'a Expr<'a>,
        as_stmt: bool,
    ) -> Result<(Value, Option<Ty>), FrontendError> {
        let ExprKind::Call(name, args) = &e.kind else {
            unreachable!()
        };
        // Built-in?
        if let Some(intr) = Intrinsic::by_name(name) {
            if args.len() != intr.arity() {
                return Err(self.err(
                    e.line,
                    format!(
                        "built-in '{name}' takes {} args, got {}",
                        intr.arity(),
                        args.len()
                    ),
                ));
            }
            let mut vals = Vec::new();
            for a in args {
                let (v, ty) = self.expr(a)?;
                // Float built-ins take doubles; imax/imin/iabs/print_i64 ints.
                let want = match intr {
                    Intrinsic::Imax | Intrinsic::Imin | Intrinsic::Iabs | Intrinsic::PrintI64 => {
                        Ty::Int
                    }
                    _ => Ty::Double,
                };
                vals.push(self.coerce(v, ty, want, a.line)?);
            }
            let v = self.builder().intrinsic(intr, vals);
            let rty = match intr.result_type() {
                Type::Void => None,
                Type::I64 => Some(Ty::Int),
                Type::F64 => Some(Ty::Double),
                _ => unreachable!(),
            };
            if rty.is_none() && !as_stmt {
                return Err(self.err(e.line, format!("void built-in '{name}' used as a value")));
            }
            return Ok((v, rty));
        }
        let sigs = self.sigs;
        let Some(sig) = sigs.get(name) else {
            return Err(self.err(e.line, format!("unknown function '{name}'")));
        };
        let (callee, ret, params) = (sig.0, sig.1.ret, &sig.1.params);
        if params.len() != args.len() {
            return Err(self.err(
                e.line,
                format!("'{name}' takes {} args, got {}", params.len(), args.len()),
            ));
        }
        let mut vals = Vec::new();
        for (a, p) in args.iter().zip(params) {
            if p.is_array {
                let v = self.array_arg(a, p)?;
                vals.push(v);
            } else {
                let (v, ty) = self.expr(a)?;
                vals.push(self.coerce(v, ty, Ty::of(p.ty), a.line)?);
            }
        }
        let ret_ir = scalar_type(ret);
        let v = self.builder().call(callee, vals, ret_ir);
        let rty = match ret {
            TypeSpec::Void => None,
            TypeSpec::Int => Some(Ty::Int),
            TypeSpec::Double => Some(Ty::Double),
        };
        if rty.is_none() && !as_stmt {
            return Err(self.err(e.line, format!("void function '{name}' used as a value")));
        }
        Ok((v, rty))
    }

    /// Lower an array argument (decay to pointer).
    fn array_arg(&mut self, a: &'a Expr<'a>, p: &ParamDecl<'_>) -> Result<Value, FrontendError> {
        let ExprKind::Var(name) = &a.kind else {
            return Err(self.err(a.line, "array argument must be a plain array variable"));
        };
        let info = self
            .lookup(name)
            .ok_or_else(|| self.err(a.line, format!("unknown variable '{name}'")))?;
        if info.ty != p.ty {
            return Err(self.err(
                a.line,
                format!("array argument '{name}' has wrong element type"),
            ));
        }
        match info.kind {
            VarKind::Local { ptr, .. } => {
                if info.dims.is_empty() {
                    return Err(self.err(a.line, format!("'{name}' is a scalar, expected array")));
                }
                Ok(ptr)
            }
            VarKind::Global(g) => {
                if info.dims.is_empty() {
                    return Err(self.err(a.line, format!("'{name}' is a scalar, expected array")));
                }
                Ok(Value::Global(g))
            }
            VarKind::Param {
                index, is_array, ..
            } => {
                if !is_array {
                    return Err(self.err(a.line, format!("'{name}' is a scalar, expected array")));
                }
                Ok(Value::Param(index))
            }
        }
    }

    /// Lower an lvalue to (address, element type).
    fn lvalue(&mut self, e: &'a Expr<'a>) -> Result<(Value, Ty), FrontendError> {
        match &e.kind {
            ExprKind::Var(name) => {
                let info = self
                    .lookup(name)
                    .ok_or_else(|| self.err(e.line, format!("unknown variable '{name}'")))?;
                if !info.dims.is_empty() {
                    return Err(self.err(e.line, format!("array '{name}' used as a scalar")));
                }
                match info.kind {
                    VarKind::Local { ptr, .. } => Ok((ptr, Ty::of(info.ty))),
                    VarKind::Global(g) => Ok((Value::Global(g), Ty::of(info.ty))),
                    VarKind::Param {
                        is_array, shadow, ..
                    } => {
                        if is_array {
                            return Err(
                                self.err(e.line, format!("array '{name}' used as a scalar"))
                            );
                        }
                        let (ptr, _) = shadow.expect("scalar params have shadows");
                        Ok((ptr, Ty::of(info.ty)))
                    }
                }
            }
            ExprKind::Index(base, idx) => {
                let (base_ptr, elem_ts, rem_dims) = self.array_base(base)?;
                let (iv, ity) = self.expr(idx)?;
                let iv = self.coerce(iv, ity, Ty::Int, idx.line)?;
                let elem_ir = build_type(elem_ts, rem_dims);
                if !rem_dims.is_empty() {
                    return Err(self.err(
                        e.line,
                        "partial array indexing cannot be used as a scalar lvalue",
                    ));
                }
                let ptr = self.builder().gep(base_ptr, iv, elem_ir);
                Ok((ptr, Ty::of(elem_ts)))
            }
            _ => Err(self.err(e.line, "expression is not an lvalue")),
        }
    }

    /// Resolve the base of an indexing chain:
    /// returns (address-of-element-sequence, scalar type, remaining dims
    /// *after* applying this base's indexing).
    fn array_base(
        &mut self,
        e: &'a Expr<'a>,
    ) -> Result<(Value, TypeSpec, &'a [u64]), FrontendError> {
        match &e.kind {
            ExprKind::Var(name) => {
                let info = self
                    .lookup(name)
                    .ok_or_else(|| self.err(e.line, format!("unknown variable '{name}'")))?;
                match info.kind {
                    VarKind::Local { ptr, .. } => {
                        if info.dims.is_empty() {
                            return Err(self.err(e.line, format!("'{name}' is not an array")));
                        }
                        Ok((ptr, info.ty, &info.dims[1..]))
                    }
                    VarKind::Global(g) => {
                        if info.dims.is_empty() {
                            return Err(self.err(e.line, format!("'{name}' is not an array")));
                        }
                        Ok((Value::Global(g), info.ty, &info.dims[1..]))
                    }
                    VarKind::Param {
                        index, is_array, ..
                    } => {
                        if !is_array {
                            return Err(self.err(e.line, format!("'{name}' is not an array")));
                        }
                        Ok((Value::Param(index), info.ty, &[]))
                    }
                }
            }
            ExprKind::Index(base, idx) => {
                let (base_ptr, elem_ts, rem_dims) = self.array_base(base)?;
                if rem_dims.is_empty() {
                    return Err(self.err(e.line, "too many subscripts for array"));
                }
                let (iv, ity) = self.expr(idx)?;
                let iv = self.coerce(iv, ity, Ty::Int, idx.line)?;
                let elem_ir = build_type(elem_ts, rem_dims);
                let ptr = self.builder().gep(base_ptr, iv, elem_ir);
                Ok((ptr, elem_ts, &rem_dims[1..]))
            }
            _ => Err(self.err(e.line, "expression cannot be indexed")),
        }
    }

    fn spawn_call(
        &mut self,
        target: Option<&'a Expr<'a>>,
        call: &'a Expr<'a>,
        line: u32,
    ) -> Result<(), FrontendError> {
        match target {
            None => {
                self.call_expr(call, true)?;
            }
            Some(t) => {
                let (ptr, elem_ty) = self.lvalue(t)?;
                let (v, ty) = self.call_expr(call, false)?;
                let ty = ty.ok_or_else(|| self.err(line, "spawned void call has no value"))?;
                let v = self.coerce(v, ty, elem_ty, line)?;
                self.builder().store(ptr, v);
            }
        }
        Ok(())
    }
}

/// The blocks a lowered `for` statement produced.
struct ForInfo {
    region_start: BlockId,
    header: BlockId,
    cont: BlockId,
    is_cilk: bool,
}

fn ty_to_ir(ty: Ty) -> Type {
    match ty {
        Ty::Int => Type::I64,
        Ty::Double => Type::F64,
        Ty::Bool => Type::Bool,
    }
}

fn schedule_of(clauses: &[ClauseAst<'_>]) -> Schedule {
    for c in clauses {
        if let ClauseAst::Schedule { kind, chunk } = c {
            let kind = match *kind {
                "dynamic" => ScheduleKind::Dynamic,
                "guided" => ScheduleKind::Guided,
                "auto" => ScheduleKind::Auto,
                _ => ScheduleKind::Static,
            };
            return Schedule {
                kind,
                chunk: *chunk,
            };
        }
    }
    Schedule::default()
}

fn has_nowait(clauses: &[ClauseAst<'_>]) -> bool {
    clauses.iter().any(|c| matches!(c, ClauseAst::Nowait))
}

fn has_ordered(clauses: &[ClauseAst<'_>]) -> bool {
    clauses.iter().any(|c| matches!(c, ClauseAst::Ordered))
}
