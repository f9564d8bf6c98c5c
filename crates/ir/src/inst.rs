//! Instructions and opcodes.
//!
//! Every instruction produces at most one result value, named by its
//! [`InstId`](crate::InstId). Terminators ([`Inst::Br`], [`Inst::CondBr`],
//! [`Inst::Ret`]) end a block and produce no result.

use crate::types::Type;
use crate::value::{BlockId, FuncId, Value};

/// Binary arithmetic / bitwise opcodes.
///
/// `Add`, `Sub`, `Mul`, `Div` are polymorphic over `i64` and `f64`; the
/// remaining opcodes are integer-only except `And`/`Or`, which also apply to
/// `bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (`i64` or `f64`).
    Add,
    /// Subtraction (`i64` or `f64`).
    Sub,
    /// Multiplication (`i64` or `f64`).
    Mul,
    /// Division (`i64` or `f64`; integer division truncates toward zero).
    Div,
    /// Integer remainder.
    Rem,
    /// Bitwise/logical and (`i64` or `bool`).
    And,
    /// Bitwise/logical or (`i64` or `bool`).
    Or,
    /// Bitwise xor (`i64`).
    Xor,
    /// Left shift (`i64`).
    Shl,
    /// Arithmetic right shift (`i64`).
    Shr,
}

impl BinOp {
    /// Mnemonic used by the textual printer.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

/// Unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation (`i64` or `f64`).
    Neg,
    /// Logical/bitwise not (`bool` or `i64`).
    Not,
}

impl UnOp {
    /// Mnemonic used by the textual printer.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
        }
    }
}

/// Comparison predicates; operands must share a numeric type (or `bool` for
/// `Eq`/`Ne`). The result is always `bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Mnemonic used by the textual printer.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Scalar conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// `i64` → `f64`.
    IntToFloat,
    /// `f64` → `i64` (truncating).
    FloatToInt,
    /// `bool` → `i64` (`false` → 0, `true` → 1).
    BoolToInt,
}

impl CastKind {
    /// Result type of the conversion.
    pub fn result_type(self) -> Type {
        match self {
            CastKind::IntToFloat => Type::F64,
            CastKind::FloatToInt | CastKind::BoolToInt => Type::I64,
        }
    }

    /// Mnemonic used by the textual printer.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            CastKind::IntToFloat => "itof",
            CastKind::FloatToInt => "ftoi",
            CastKind::BoolToInt => "btoi",
        }
    }
}

/// Built-in operations the interpreter implements natively (math library and
/// output); these model LLVM intrinsics / libc calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `f64 → f64` square root.
    Sqrt,
    /// `f64 → f64` absolute value.
    Fabs,
    /// `f64 → f64` sine.
    Sin,
    /// `f64 → f64` cosine.
    Cos,
    /// `f64 → f64` natural exponential.
    Exp,
    /// `f64 → f64` natural logarithm.
    Log,
    /// `(f64, f64) → f64` power.
    Pow,
    /// `(f64, f64) → f64` maximum.
    Fmax,
    /// `(f64, f64) → f64` minimum.
    Fmin,
    /// `(i64, i64) → i64` maximum.
    Imax,
    /// `(i64, i64) → i64` minimum.
    Imin,
    /// `i64 → i64` absolute value.
    Iabs,
    /// `i64 → void` print an integer to the interpreter's output buffer.
    PrintI64,
    /// `f64 → void` print a float to the interpreter's output buffer.
    PrintF64,
}

impl Intrinsic {
    /// The intrinsic's result type.
    pub fn result_type(self) -> Type {
        match self {
            Intrinsic::Sqrt
            | Intrinsic::Fabs
            | Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::Pow
            | Intrinsic::Fmax
            | Intrinsic::Fmin => Type::F64,
            Intrinsic::Imax | Intrinsic::Imin | Intrinsic::Iabs => Type::I64,
            Intrinsic::PrintI64 | Intrinsic::PrintF64 => Type::Void,
        }
    }

    /// Number of arguments the intrinsic expects.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow
            | Intrinsic::Fmax
            | Intrinsic::Fmin
            | Intrinsic::Imax
            | Intrinsic::Imin => 2,
            _ => 1,
        }
    }

    /// Symbolic name (matches the ParC built-in function name).
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Pow => "pow",
            Intrinsic::Fmax => "fmax",
            Intrinsic::Fmin => "fmin",
            Intrinsic::Imax => "imax",
            Intrinsic::Imin => "imin",
            Intrinsic::Iabs => "iabs",
            Intrinsic::PrintI64 => "print_i64",
            Intrinsic::PrintF64 => "print_f64",
        }
    }

    /// Look an intrinsic up by its ParC name.
    pub fn by_name(name: &str) -> Option<Intrinsic> {
        use Intrinsic::*;
        Some(match name {
            "sqrt" => Sqrt,
            "fabs" => Fabs,
            "sin" => Sin,
            "cos" => Cos,
            "exp" => Exp,
            "log" => Log,
            "pow" => Pow,
            "fmax" => Fmax,
            "fmin" => Fmin,
            "imax" => Imax,
            "imin" => Imin,
            "iabs" => Iabs,
            "print_i64" => PrintI64,
            "print_f64" => PrintF64,
            _ => return None,
        })
    }
}

/// A single IR instruction.
///
/// The instruction's result (if any) is referred to elsewhere through
/// [`Value::Inst`] with this instruction's id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Allocate a stack object of type `ty` in the current activation and
    /// yield its address. `name` is the source-level variable name (kept for
    /// diagnostics and for parallel-semantic-variable resolution).
    Alloca {
        /// Object layout.
        ty: Type,
        /// Source-level name.
        name: String,
    },
    /// Load a scalar of type `ty` from `ptr`.
    Load {
        /// Address operand.
        ptr: Value,
        /// Loaded scalar type.
        ty: Type,
    },
    /// Store scalar `value` to `ptr`.
    Store {
        /// Address operand.
        ptr: Value,
        /// Stored value.
        value: Value,
    },
    /// Compute `base + index * elem_ty.flat_len()` — address of the
    /// `index`-th element of an aggregate whose elements have type `elem_ty`.
    Gep {
        /// Base address.
        base: Value,
        /// Element index (scaled by the element size).
        index: Value,
        /// Type of the indexed element.
        elem_ty: Type,
    },
    /// Binary arithmetic.
    Binary {
        /// Opcode.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Unary arithmetic.
    Unary {
        /// Opcode.
        op: UnOp,
        /// Operand.
        operand: Value,
    },
    /// Comparison producing `bool`.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Scalar conversion.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Operand.
        value: Value,
    },
    /// Direct call to another function in the module.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument values (must match the callee's parameter list).
        args: Vec<Value>,
    },
    /// Call of a built-in operation.
    IntrinsicCall {
        /// Which built-in.
        intrinsic: Intrinsic,
        /// Argument values.
        args: Vec<Value>,
    },
    /// Unconditional branch. Terminator.
    Br {
        /// Destination block.
        target: BlockId,
    },
    /// Conditional branch on a `bool`. Terminator.
    CondBr {
        /// Condition operand.
        cond: Value,
        /// Destination when true.
        then_bb: BlockId,
        /// Destination when false.
        else_bb: BlockId,
    },
    /// Return from the function. Terminator.
    Ret {
        /// Returned value (`None` for `void` functions).
        value: Option<Value>,
    },
}

impl Inst {
    /// Whether the instruction ends a block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. }
        )
    }

    /// All value operands, in a fixed order (no allocation).
    pub fn operands(&self) -> impl Iterator<Item = Value> + '_ {
        let (fixed, rest): ([Option<Value>; 2], &[Value]) = match self {
            Inst::Alloca { .. } | Inst::Br { .. } => ([None, None], &[]),
            Inst::Load { ptr, .. } => ([Some(*ptr), None], &[]),
            Inst::Store { ptr, value } => ([Some(*ptr), Some(*value)], &[]),
            Inst::Gep { base, index, .. } => ([Some(*base), Some(*index)], &[]),
            Inst::Binary { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                ([Some(*lhs), Some(*rhs)], &[])
            }
            Inst::Unary { operand, .. } => ([Some(*operand), None], &[]),
            Inst::Cast { value, .. } => ([Some(*value), None], &[]),
            Inst::Call { args, .. } | Inst::IntrinsicCall { args, .. } => ([None, None], args),
            Inst::CondBr { cond, .. } => ([Some(*cond), None], &[]),
            Inst::Ret { value } => ([*value, None], &[]),
        };
        fixed.into_iter().flatten().chain(rest.iter().copied())
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Inst::Br { target } => vec![*target],
            Inst::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            _ => vec![],
        }
    }
}

/// An instruction together with its computed result type; the element of the
/// per-function instruction arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstData {
    /// The instruction.
    pub inst: Inst,
    /// Result type (`Type::Void` for instructions without a result).
    pub ty: Type,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Constant, InstId};

    #[test]
    fn terminator_classification() {
        assert!(Inst::Br { target: BlockId(0) }.is_terminator());
        assert!(Inst::Ret { value: None }.is_terminator());
        assert!(!Inst::Alloca {
            ty: Type::I64,
            name: "x".into()
        }
        .is_terminator());
    }

    #[test]
    fn operands_enumeration() {
        let store = Inst::Store {
            ptr: Value::Inst(InstId(0)),
            value: Value::const_int(1),
        };
        assert_eq!(store.operands().count(), 2);
        let br = Inst::Br { target: BlockId(1) };
        assert_eq!(br.operands().count(), 0);
        assert_eq!(br.successors(), vec![BlockId(1)]);
    }

    #[test]
    fn condbr_successors() {
        let cb = Inst::CondBr {
            cond: Value::Const(Constant::Bool(true)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(cb.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(cb.operands().count(), 1);
    }

    #[test]
    fn intrinsic_lookup_roundtrip() {
        for intr in [
            Intrinsic::Sqrt,
            Intrinsic::Pow,
            Intrinsic::Imax,
            Intrinsic::PrintI64,
        ] {
            assert_eq!(Intrinsic::by_name(intr.name()), Some(intr));
        }
        assert_eq!(Intrinsic::by_name("nope"), None);
    }

    #[test]
    fn cmp_swapped_is_involutive_on_order() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.swapped(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }
}
