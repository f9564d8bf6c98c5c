//! Reduction operators, including user-defined (`declare reduction` /
//! Cilk reducer hyperobjects).

use pspdg_ir::FuncId;

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
