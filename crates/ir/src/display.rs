//! Textual printing of IR, in an LLVM-flavoured syntax.
//!
//! The printer is deterministic, making it usable in golden tests:
//!
//! ```text
//! func @saxpy(%arg0: i64, %arg1: ptr, %arg2: ptr) -> void {
//! bb0 (entry):
//!   %0 = alloca i64 ; i
//!   store %0, 0
//!   br bb1
//! ...
//! }
//! ```
//!
//! The text is for reading, not for reading back: a global initializer
//! longer than eight cells prints its first eight and an ellipsis.

use std::fmt;

use crate::function::{Function, GlobalInit, Module};
use crate::inst::Inst;
use crate::types::Type;
use crate::value::InstId;

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; module {}", self.name)?;
        for (i, g) in self.globals.iter().enumerate() {
            write!(f, "global @g{i} : {} ; {}", g.ty, g.name)?;
            match &g.init {
                GlobalInit::Zero => writeln!(f, " = zeroinit")?,
                GlobalInit::Data(cells) => {
                    write!(f, " = [")?;
                    for (j, c) in cells.iter().enumerate().take(8) {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c}")?;
                    }
                    if cells.len() > 8 {
                        write!(f, ", …")?;
                    }
                    writeln!(f, "]")?;
                }
            }
        }
        for func in &self.functions {
            writeln!(f)?;
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func @{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "%arg{i}: {}", p.ty)?;
        }
        writeln!(f, ") -> {} {{", self.ret_ty)?;
        for bb in self.block_ids() {
            let block = self.block(bb);
            writeln!(f, "{bb} ({}):", block.name)?;
            for &i in &block.insts {
                writeln!(f, "  {}", InstDisplay { func: self, id: i })?;
            }
        }
        writeln!(f, "}}")
    }
}

/// Helper that renders one instruction in the context of its function.
pub(crate) struct InstDisplay<'a> {
    /// Enclosing function.
    pub func: &'a Function,
    /// Instruction to print.
    pub id: InstId,
}

impl fmt::Display for InstDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.func.inst(self.id);
        let id = self.id;
        match &data.inst {
            Inst::Alloca { ty, name } => write!(f, "{id} = alloca {ty} ; {name}"),
            Inst::Load { ptr, ty } => write!(f, "{id} = load {ty}, {ptr}"),
            Inst::Store { ptr, value } => write!(f, "store {ptr}, {value}"),
            Inst::Gep {
                base,
                index,
                elem_ty,
            } => {
                write!(f, "{id} = gep {base}, {index} x {elem_ty}")
            }
            Inst::Binary { op, lhs, rhs } => {
                write!(f, "{id} = {} {lhs}, {rhs}", op.mnemonic())
            }
            Inst::Unary { op, operand } => write!(f, "{id} = {} {operand}", op.mnemonic()),
            Inst::Cmp { op, lhs, rhs } => {
                write!(f, "{id} = cmp.{} {lhs}, {rhs}", op.mnemonic())
            }
            Inst::Cast { kind, value } => write!(f, "{id} = {} {value}", kind.mnemonic()),
            Inst::Call { callee, args } => {
                if data.ty == Type::Void {
                    write!(f, "call {callee}(")?;
                } else {
                    write!(f, "{id} = call {callee}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::IntrinsicCall { intrinsic, args } => {
                if data.ty == Type::Void {
                    write!(f, "call !{}(", intrinsic.name())?;
                } else {
                    write!(f, "{id} = call !{}(", intrinsic.name())?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Br { target } => write!(f, "br {target}"),
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                write!(f, "condbr {cond}, {then_bb}, {else_bb}")
            }
            Inst::Ret { value } => match value {
                Some(v) => write!(f, "ret {v}"),
                None => write!(f, "ret"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpOp, Intrinsic};
    use crate::value::{Constant, Value};

    #[test]
    fn prints_function() {
        let mut m = Module::new("demo");
        m.declare_global(
            "tab",
            Type::array(Type::I64, 2),
            GlobalInit::Data(vec![Constant::Int(1), Constant::Int(2)]),
        );
        let f = m.declare_function_with("f", &[("n", Type::I64)], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let done = b.create_block("done");
            b.switch_to_block(entry);
            let x = b.binary(BinOp::Add, Value::Param(0), Value::const_int(1));
            let c = b.cmp(CmpOp::Gt, x, Value::const_int(0));
            b.cond_br(c, done, done);
            b.switch_to_block(done);
            b.intrinsic(Intrinsic::PrintI64, vec![x]);
            b.ret(Some(x));
        }
        let text = m.to_string();
        assert!(text.contains("; module demo"), "{text}");
        assert!(
            text.contains("global @g0 : [i64; 2] ; tab = [1, 2]"),
            "{text}"
        );
        assert!(text.contains("func @f(%arg0: i64) -> i64 {"), "{text}");
        assert!(text.contains("%0 = add %arg0, 1"), "{text}");
        assert!(text.contains("%1 = cmp.gt %0, 0"), "{text}");
        assert!(text.contains("condbr %1, bb1, bb1"), "{text}");
        assert!(text.contains("call !print_i64(%0)"), "{text}");
        assert!(text.contains("ret %0"), "{text}");
    }

    #[test]
    fn prints_memory_ops() {
        let mut m = Module::new("demo");
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let a = b.alloca(Type::array(Type::F64, 8), "buf");
            let p = b.gep(a, Value::const_int(3), Type::F64);
            let v = b.load(p, Type::F64);
            b.store(p, v);
            b.ret(None);
        }
        let func = m.function(f);
        let show = |i: u32| {
            InstDisplay {
                func,
                id: InstId(i),
            }
            .to_string()
        };
        assert_eq!(show(0), "%0 = alloca [f64; 8] ; buf");
        assert_eq!(show(1), "%1 = gep %0, 3 x f64");
        assert_eq!(show(2), "%2 = load f64, %1");
        assert_eq!(show(3), "store %1, %2");
    }
}
