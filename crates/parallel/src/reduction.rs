//! Reduction operators, including user-defined (`declare reduction` /
//! Cilk reducer hyperobjects).

use pspdg_ir::{Constant, FuncId, Type};

/// How private copies of a reduction variable are merged.
///
/// The built-in operators are OpenMP's (`+ * min max & | ^ && ||`); `Custom`
/// models `#pragma omp declare reduction` and Cilk reducer hyperobjects: the
/// merge is an IR function of two arguments that combines them (paper §3.6:
/// "this function takes two copies of a variable and it updates the first
/// one with the result of the merge").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionOp {
    /// Sum.
    Add,
    /// Product.
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Logical and.
    LogAnd,
    /// Logical or.
    LogOr,
    /// Application-specific merge function (`merge(a, b)` updates `a`).
    Custom {
        /// The IR function implementing the merge.
        merger: FuncId,
    },
}

impl ReductionOp {
    /// The identity element for a scalar of type `ty`, when the operator has
    /// one that is expressible as a constant. `Custom` reductions carry
    /// their identity in the program (the initial value of the variable).
    pub fn identity(&self, ty: &Type) -> Option<Constant> {
        Some(match (self, ty) {
            (ReductionOp::Add, Type::I64) => Constant::Int(0),
            (ReductionOp::Add, Type::F64) => Constant::Float(0.0),
            (ReductionOp::Mul, Type::I64) => Constant::Int(1),
            (ReductionOp::Mul, Type::F64) => Constant::Float(1.0),
            (ReductionOp::Min, Type::I64) => Constant::Int(i64::MAX),
            (ReductionOp::Min, Type::F64) => Constant::Float(f64::INFINITY),
            (ReductionOp::Max, Type::I64) => Constant::Int(i64::MIN),
            (ReductionOp::Max, Type::F64) => Constant::Float(f64::NEG_INFINITY),
            (ReductionOp::BitAnd, Type::I64) => Constant::Int(-1),
            (ReductionOp::BitOr, Type::I64) => Constant::Int(0),
            (ReductionOp::BitXor, Type::I64) => Constant::Int(0),
            (ReductionOp::LogAnd, Type::Bool) => Constant::Bool(true),
            (ReductionOp::LogOr, Type::Bool) => Constant::Bool(false),
            _ => return None,
        })
    }

    /// Parse an OpenMP reduction-clause operator token.
    ///
    /// ```
    /// use pspdg_parallel::ReductionOp;
    /// assert_eq!(ReductionOp::from_token("+"), Some(ReductionOp::Add));
    /// assert_eq!(ReductionOp::from_token("max"), Some(ReductionOp::Max));
    /// assert_eq!(ReductionOp::from_token("?"), None);
    /// ```
    pub fn from_token(tok: &str) -> Option<ReductionOp> {
        Some(match tok {
            "+" => ReductionOp::Add,
            "*" => ReductionOp::Mul,
            "min" => ReductionOp::Min,
            "max" => ReductionOp::Max,
            "&" => ReductionOp::BitAnd,
            "|" => ReductionOp::BitOr,
            "^" => ReductionOp::BitXor,
            "&&" => ReductionOp::LogAnd,
            "||" => ReductionOp::LogOr,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(
            ReductionOp::Add.identity(&Type::I64),
            Some(Constant::Int(0))
        );
        assert_eq!(
            ReductionOp::Mul.identity(&Type::F64),
            Some(Constant::Float(1.0))
        );
        assert_eq!(
            ReductionOp::Min.identity(&Type::I64),
            Some(Constant::Int(i64::MAX))
        );
        assert_eq!(
            ReductionOp::LogAnd.identity(&Type::Bool),
            Some(Constant::Bool(true))
        );
        // no float bitand
        assert_eq!(ReductionOp::BitAnd.identity(&Type::F64), None);
        let custom = ReductionOp::Custom { merger: FuncId(0) };
        assert_eq!(custom.identity(&Type::I64), None);
    }

    #[test]
    fn token_roundtrip() {
        for (tok, op) in [
            ("+", ReductionOp::Add),
            ("*", ReductionOp::Mul),
            ("min", ReductionOp::Min),
            ("max", ReductionOp::Max),
            ("&", ReductionOp::BitAnd),
            ("|", ReductionOp::BitOr),
            ("^", ReductionOp::BitXor),
            ("&&", ReductionOp::LogAnd),
            ("||", ReductionOp::LogOr),
        ] {
            assert_eq!(ReductionOp::from_token(tok), Some(op));
        }
    }
}
