//! Structural and type verification of modules.
//!
//! The verifier enforces the invariants every later analysis assumes:
//! terminated blocks, typed operands, arity-checked calls, and well-formed
//! references. It is run by tests and by the front-end after lowering.

use std::fmt;

use crate::function::{Function, GlobalInit, Module};
use crate::inst::{BinOp, CastKind, Inst, UnOp};
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Value};

/// A structural error found by `verify_module`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error was found (if function-local).
    pub func: Option<String>,
    /// Offending block, if block-local.
    pub block: Option<BlockId>,
    /// Offending instruction, if instruction-local.
    pub inst: Option<InstId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error")?;
        if let Some(func) = &self.func {
            write!(f, " in @{func}")?;
        }
        if let Some(bb) = self.block {
            write!(f, " at {bb}")?;
        }
        if let Some(i) = self.inst {
            write!(f, " ({i})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

struct Checker<'m> {
    module: &'m Module,
    func_name: String,
    block: Option<BlockId>,
    inst: Option<InstId>,
}

impl Checker<'_> {
    fn fail(&self, message: impl Into<String>) -> VerifyError {
        VerifyError {
            func: Some(self.func_name.clone()),
            block: self.block,
            inst: self.inst,
            message: message.into(),
        }
    }
}

/// Verify every function and global of `module`.
///
/// # Errors
///
/// Returns the first violation found:
/// empty functions, unterminated blocks, terminators in block middles,
/// out-of-range references, operand type mismatches, call-arity mismatches,
/// and global initializers of the wrong length.
pub(crate) fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for g in &module.globals {
        if let GlobalInit::Data(cells) = &g.init {
            if cells.len() as u64 != g.ty.flat_len() {
                return Err(VerifyError {
                    func: None,
                    block: None,
                    inst: None,
                    message: format!(
                        "global @{} initializer has {} cells, type {} needs {}",
                        g.name,
                        cells.len(),
                        g.ty,
                        g.ty.flat_len()
                    ),
                });
            }
        }
    }
    // Functions are checked independently, on the global pool once the
    // module is big enough to repay waking a worker; either way the first
    // error in function order is the one reported.
    let check = |f| verify_function(module, f);
    if module.size() < PARALLEL_MIN_INSTS {
        return module.function_ids().try_for_each(check);
    }
    pspdg_pool::par_map(module.function_ids().collect(), check)
        .into_iter()
        .collect()
}

/// Below this many instructions a module is verified on the calling thread.
/// Measured on 2 vCPUs, a `par_map` costs about 15 µs and checking runs at
/// about 80 ns per instruction, but small modules are mostly one function
/// (a NAS kernel and its `main`), which a second thread cannot split.
const PARALLEL_MIN_INSTS: usize = 2048;

/// Verify a single function. See [`verify_module`] for the error conditions.
///
/// # Errors
///
/// Returns the first violation found in this function.
fn verify_function(module: &Module, func_id: FuncId) -> Result<(), VerifyError> {
    let func = module.function(func_id);
    let mut chk = Checker {
        module,
        func_name: func.name.clone(),
        block: None,
        inst: None,
    };

    if func.blocks.is_empty() {
        return Err(chk.fail("function has no blocks"));
    }
    // Every instruction appears in exactly one block.
    let mut seen = vec![0u32; func.insts.len()];
    for bb in func.block_ids() {
        for &i in &func.block(bb).insts {
            if i.index() >= func.insts.len() {
                chk.block = Some(bb);
                return Err(chk.fail(format!("block references out-of-range instruction {i}")));
            }
            seen[i.index()] += 1;
        }
    }
    if let Some(pos) = seen.iter().position(|&c| c > 1) {
        return Err(chk.fail(format!(
            "instruction %{pos} appears in more than one block position"
        )));
    }

    for bb in func.block_ids() {
        chk.block = Some(bb);
        let insts = &func.block(bb).insts;
        if insts.is_empty() {
            return Err(chk.fail("empty block"));
        }
        for (pos, &i) in insts.iter().enumerate() {
            chk.inst = Some(i);
            let data = func.inst(i);
            let is_last = pos + 1 == insts.len();
            if data.inst.is_terminator() != is_last {
                return Err(chk.fail(if is_last {
                    "block does not end in a terminator".to_string()
                } else {
                    "terminator in the middle of a block".to_string()
                }));
            }
            verify_inst(&chk, func, &data.inst)?;
        }
    }
    verify_dominance(&mut chk, func)?;
    Ok(())
}

/// Every use of an instruction result must be dominated by its definition
/// (the SSA discipline our register values obey even without phis).
fn verify_dominance(chk: &mut Checker<'_>, func: &Function) -> Result<(), VerifyError> {
    let cfg = crate::cfg::Cfg::new(func);
    let dom = crate::dom::DomTree::new(&cfg);
    let owner = func.inst_blocks();
    // Position of each instruction within its block for same-block checks.
    let mut pos_in_block = vec![0usize; func.insts.len()];
    for bb in func.block_ids() {
        for (pos, &i) in func.block(bb).insts.iter().enumerate() {
            pos_in_block[i.index()] = pos;
        }
    }
    for bb in func.block_ids() {
        if !cfg.is_reachable(bb) {
            continue; // unreachable code is structurally checked only
        }
        chk.block = Some(bb);
        for &i in &func.block(bb).insts {
            chk.inst = Some(i);
            for op in func.inst(i).inst.operands() {
                let Value::Inst(def) = op else { continue };
                let Some(def_bb) = owner[def.index()] else {
                    return Err(chk.fail(format!("operand {def} is not in any block")));
                };
                let ok = if def_bb == bb {
                    pos_in_block[def.index()] < pos_in_block[i.index()]
                } else {
                    dom.dominates(def_bb, bb)
                };
                if !ok {
                    return Err(
                        chk.fail(format!("use of {def} is not dominated by its definition"))
                    );
                }
            }
        }
    }
    Ok(())
}

fn value_ok(chk: &Checker<'_>, func: &Function, v: Value) -> Result<Type, VerifyError> {
    match v {
        Value::Const(c) => Ok(c.ty()),
        Value::Inst(i) => {
            if i.index() >= func.insts.len() {
                return Err(chk.fail(format!("operand references out-of-range instruction {i}")));
            }
            let ty = func.inst(i).ty.clone();
            if ty == Type::Void {
                return Err(chk.fail(format!("operand {i} has void type")));
            }
            Ok(ty)
        }
        Value::Param(p) => {
            if p >= func.params.len() {
                return Err(chk.fail(format!("operand references out-of-range parameter %arg{p}")));
            }
            Ok(func.params[p].ty.clone())
        }
        Value::Global(g) => {
            if g.index() >= chk.module.globals.len() {
                return Err(chk.fail(format!("operand references out-of-range global {g}")));
            }
            Ok(Type::Ptr)
        }
    }
}

fn block_ok(chk: &Checker<'_>, func: &Function, bb: BlockId) -> Result<(), VerifyError> {
    if bb.index() >= func.blocks.len() {
        return Err(chk.fail(format!("branch to out-of-range block {bb}")));
    }
    Ok(())
}

fn expect_ty(chk: &Checker<'_>, what: &str, got: &Type, want: &Type) -> Result<(), VerifyError> {
    if got != want {
        return Err(chk.fail(format!("{what}: expected {want}, got {got}")));
    }
    Ok(())
}

fn verify_inst(chk: &Checker<'_>, func: &Function, inst: &Inst) -> Result<(), VerifyError> {
    match inst {
        Inst::Alloca { ty, .. } => {
            if ty.flat_len() == 0 {
                return Err(chk.fail("alloca of zero-sized type"));
            }
        }
        Inst::Load { ptr, ty } => {
            let pt = value_ok(chk, func, *ptr)?;
            expect_ty(chk, "load address", &pt, &Type::Ptr)?;
            if !ty.is_scalar() && *ty != Type::Ptr {
                return Err(chk.fail(format!("load of non-scalar type {ty}")));
            }
        }
        Inst::Store { ptr, value } => {
            let pt = value_ok(chk, func, *ptr)?;
            expect_ty(chk, "store address", &pt, &Type::Ptr)?;
            let vt = value_ok(chk, func, *value)?;
            if !vt.is_scalar() && vt != Type::Ptr {
                return Err(chk.fail(format!("store of non-scalar type {vt}")));
            }
        }
        Inst::Gep {
            base,
            index,
            elem_ty,
        } => {
            let bt = value_ok(chk, func, *base)?;
            expect_ty(chk, "gep base", &bt, &Type::Ptr)?;
            let it = value_ok(chk, func, *index)?;
            expect_ty(chk, "gep index", &it, &Type::I64)?;
            if elem_ty.flat_len() == 0 {
                return Err(chk.fail("gep over zero-sized element type"));
            }
        }
        Inst::Binary { op, lhs, rhs } => {
            let lt = value_ok(chk, func, *lhs)?;
            let rt = value_ok(chk, func, *rhs)?;
            if lt != rt {
                return Err(chk.fail(format!("binary operand types differ: {lt} vs {rt}")));
            }
            let ok = match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => lt.is_numeric(),
                BinOp::And | BinOp::Or => lt == Type::I64 || lt == Type::Bool,
                BinOp::Rem | BinOp::Xor | BinOp::Shl | BinOp::Shr => lt == Type::I64,
            };
            if !ok {
                return Err(chk.fail(format!("binary op {} not defined on {lt}", op.mnemonic())));
            }
        }
        Inst::Unary { op, operand } => {
            let t = value_ok(chk, func, *operand)?;
            let ok = match op {
                UnOp::Neg => t.is_numeric(),
                UnOp::Not => t == Type::Bool || t == Type::I64,
            };
            if !ok {
                return Err(chk.fail(format!("unary op {} not defined on {t}", op.mnemonic())));
            }
        }
        Inst::Cmp { lhs, rhs, .. } => {
            let lt = value_ok(chk, func, *lhs)?;
            let rt = value_ok(chk, func, *rhs)?;
            if lt != rt {
                return Err(chk.fail(format!("cmp operand types differ: {lt} vs {rt}")));
            }
        }
        Inst::Cast { kind, value } => {
            let t = value_ok(chk, func, *value)?;
            let want = match kind {
                CastKind::IntToFloat => Type::I64,
                CastKind::FloatToInt => Type::F64,
                CastKind::BoolToInt => Type::Bool,
            };
            expect_ty(chk, "cast operand", &t, &want)?;
        }
        Inst::Call { callee, args } => {
            if callee.index() >= chk.module.functions.len() {
                return Err(chk.fail(format!("call to out-of-range function {callee}")));
            }
            let target = chk.module.function(*callee);
            if target.params.len() != args.len() {
                return Err(chk.fail(format!(
                    "call to @{} passes {} args, expected {}",
                    target.name,
                    args.len(),
                    target.params.len()
                )));
            }
            for (pos, (a, p)) in args.iter().zip(&target.params).enumerate() {
                let at = value_ok(chk, func, *a)?;
                if at != p.ty {
                    return Err(chk.fail(format!(
                        "call to @{} arg {pos}: expected {}, got {at}",
                        target.name, p.ty
                    )));
                }
            }
        }
        Inst::IntrinsicCall { intrinsic, args } => {
            if args.len() != intrinsic.arity() {
                return Err(chk.fail(format!(
                    "intrinsic {} takes {} args, got {}",
                    intrinsic.name(),
                    intrinsic.arity(),
                    args.len()
                )));
            }
            for a in args {
                value_ok(chk, func, *a)?;
            }
        }
        Inst::Br { target } => block_ok(chk, func, *target)?,
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            let t = value_ok(chk, func, *cond)?;
            expect_ty(chk, "branch condition", &t, &Type::Bool)?;
            block_ok(chk, func, *then_bb)?;
            block_ok(chk, func, *else_bb)?;
        }
        Inst::Ret { value } => match (value, &func.ret_ty) {
            (None, Type::Void) => {}
            (None, want) => {
                return Err(chk.fail(format!("ret without value in function returning {want}")))
            }
            (Some(_), Type::Void) => {
                return Err(chk.fail("ret with value in void function".to_string()))
            }
            (Some(v), want) => {
                let t = value_ok(chk, func, *v)?;
                expect_ty(chk, "return value", &t, want)?;
            }
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::value::Constant;

    fn empty_module() -> Module {
        Module::new("m")
    }

    #[test]
    fn accepts_wellformed() {
        let mut m = empty_module();
        let f = m.declare_function_with("f", &[("x", Type::I64)], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let y = b.binary(BinOp::Add, Value::Param(0), Value::const_int(1));
            b.ret(Some(y));
        }
        assert!(m.verify().is_ok());
    }

    #[test]
    fn rejects_unterminated_block() {
        let mut m = empty_module();
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.binary(BinOp::Add, Value::const_int(1), Value::const_int(2));
            // no terminator
        }
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("terminator"), "{err}");
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut m = empty_module();
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.binary(BinOp::Add, Value::const_int(1), Value::const_float(2.0));
            b.ret(None);
        }
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("differ"), "{err}");
    }

    #[test]
    fn rejects_bad_call_arity() {
        let mut m = empty_module();
        let callee = m.declare_function_with("g", &[("x", Type::I64)], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(callee));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.ret(None);
        }
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.call(callee, vec![], Type::Void);
            b.ret(None);
        }
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("args"), "{err}");
    }

    #[test]
    fn rejects_nonbool_branch_condition() {
        let mut m = empty_module();
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let next = b.create_block("next");
            b.switch_to_block(entry);
            b.cond_br(Value::const_int(1), next, next);
            b.switch_to_block(next);
            b.ret(None);
        }
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("condition"), "{err}");
    }

    #[test]
    fn rejects_bad_global_init_len() {
        let mut m = empty_module();
        m.declare_global(
            "g",
            Type::array(Type::I64, 3),
            GlobalInit::Data(vec![Constant::Int(1)]),
        );
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("initializer"), "{err}");
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let mut m = empty_module();
        let f = m.declare_function("f", vec![], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.ret(Some(Value::const_float(1.0)));
        }
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("return value"), "{err}");
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        // Hand-assemble a block where an instruction uses a later result.
        let mut m = empty_module();
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let func = m.function_mut(f);
            use crate::inst::{Inst, InstData};
            use crate::value::InstId;
            func.blocks.push(crate::function::Block {
                name: "entry".into(),
                insts: vec![],
            });
            // %0 = add %1, 1   (uses %1 before it exists)
            func.insts.push(InstData {
                inst: Inst::Binary {
                    op: BinOp::Add,
                    lhs: Value::Inst(InstId(1)),
                    rhs: Value::const_int(1),
                },
                ty: Type::I64,
            });
            // %1 = add 1, 1
            func.insts.push(InstData {
                inst: Inst::Binary {
                    op: BinOp::Add,
                    lhs: Value::const_int(1),
                    rhs: Value::const_int(1),
                },
                ty: Type::I64,
            });
            func.insts.push(InstData {
                inst: Inst::Ret { value: None },
                ty: Type::Void,
            });
            func.blocks[0].insts = vec![InstId(0), InstId(1), InstId(2)];
        }
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("dominated"), "{err}");
    }

    #[test]
    fn rejects_use_not_dominating_across_blocks() {
        // entry -> (a | b) -> join; a defines %v, join uses it: b's path
        // reaches join without defining %v.
        let mut m = empty_module();
        let f = m.declare_function_with("f", &[("c", Type::Bool)], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let a = b.create_block("a");
            let other = b.create_block("b");
            let join = b.create_block("join");
            b.switch_to_block(entry);
            b.cond_br(Value::Param(0), a, other);
            b.switch_to_block(a);
            let v = b.binary(BinOp::Add, Value::const_int(1), Value::const_int(2));
            b.br(join);
            b.switch_to_block(other);
            b.br(join);
            b.switch_to_block(join);
            b.ret(Some(v));
        }
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("dominated"), "{err}");
    }

    #[test]
    fn error_display_mentions_location() {
        let mut m = empty_module();
        let f = m.declare_function("broken", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.binary(BinOp::Rem, Value::const_float(1.0), Value::const_float(2.0));
            b.ret(None);
        }
        let err = m.verify().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("@broken"));
        assert!(text.contains("bb0"));
    }
}
