//! Entity identifiers and SSA-style operand values.
//!
//! All IR entities are referred to by small copyable index newtypes
//! ([`FuncId`], [`BlockId`], [`InstId`], [`GlobalId`]); the arenas they index
//! live in [`crate::Module`] and [`crate::Function`]. Operands are
//! [`Value`]s: constants, instruction results, parameters, or global
//! addresses.

use std::fmt;
use std::hash::{Hash, Hasher};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index of this id.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Build an id from a raw arena index.
            pub fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect("arena index exceeds u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifier of a [`crate::Function`] within a [`crate::Module`].
    FuncId,
    "@f"
);
id_newtype!(
    /// Identifier of a [`crate::Block`] within a [`crate::Function`].
    BlockId,
    "bb"
);
id_newtype!(
    /// Identifier of an instruction within a [`crate::Function`]; doubles as
    /// the SSA name of the instruction's result.
    InstId,
    "%"
);
id_newtype!(
    /// Identifier of a [`crate::Global`] within a [`crate::Module`].
    GlobalId,
    "@g"
);

/// A compile-time constant.
///
/// Equality and hashing compare floats by their bits, so a constant is
/// equal to itself even when it is a NaN, and `0.0` differs from `-0.0`:
/// a program is always equal to itself (the plan store's hit check).
///
/// ```
/// use pspdg_ir::Constant;
/// assert_eq!(Constant::Int(3).to_string(), "3");
/// assert_eq!(Constant::Bool(true).to_string(), "true");
/// ```
#[derive(Debug, Clone, Copy)]
pub enum Constant {
    /// 64-bit signed integer constant.
    Int(i64),
    /// 64-bit float constant.
    Float(f64),
    /// Boolean constant.
    Bool(bool),
}

impl Constant {
    /// The IR type of the constant.
    pub fn ty(self) -> crate::Type {
        match self {
            Constant::Int(_) => crate::Type::I64,
            Constant::Float(_) => crate::Type::F64,
            Constant::Bool(_) => crate::Type::Bool,
        }
    }

    /// The variant and payload bits that equality and hashing compare.
    fn bits(self) -> (u8, u64) {
        match self {
            Constant::Int(v) => (0, v as u64),
            Constant::Float(v) => (1, v.to_bits()),
            Constant::Bool(v) => (2, u64::from(v)),
        }
    }
}

impl PartialEq for Constant {
    fn eq(&self, other: &Constant) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for Constant {}

impl Hash for Constant {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(v) => write!(f, "{v}"),
            Constant::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Constant::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// An instruction operand.
///
/// `Value` is `Copy`; instructions store operands inline. A value is either a
/// [`Constant`], the result of another instruction in the same function, a
/// function parameter, or the address of a module-level global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// An immediate constant.
    Const(Constant),
    /// The result of instruction `InstId` in the enclosing function.
    Inst(InstId),
    /// The `usize`-th parameter of the enclosing function.
    Param(usize),
    /// The address of a module global.
    Global(GlobalId),
}

impl Value {
    /// Shorthand for an integer constant operand.
    ///
    /// ```
    /// use pspdg_ir::{Value, Constant};
    /// assert_eq!(Value::const_int(5), Value::Const(Constant::Int(5)));
    /// ```
    pub fn const_int(v: i64) -> Value {
        Value::Const(Constant::Int(v))
    }

    /// Shorthand for a float constant operand.
    pub fn const_float(v: f64) -> Value {
        Value::Const(Constant::Float(v))
    }

    /// If this value is an instruction result, its [`InstId`].
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Value::Inst(id) => Some(id),
            _ => None,
        }
    }

    /// If this value is an integer constant, its payload.
    pub(crate) fn as_const_int(self) -> Option<i64> {
        match self {
            Value::Const(Constant::Int(v)) => Some(v),
            _ => None,
        }
    }
}

impl From<Constant> for Value {
    fn from(c: Constant) -> Value {
        Value::Const(c)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Inst(id) => write!(f, "{id}"),
            Value::Param(i) => write!(f, "%arg{i}"),
            Value::Global(g) => write!(f, "{g}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let id = InstId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "%42");
        assert_eq!(BlockId::from_index(3).to_string(), "bb3");
        assert_eq!(FuncId::from_index(1).to_string(), "@f1");
        assert_eq!(GlobalId::from_index(0).to_string(), "@g0");
    }

    #[test]
    fn constant_types() {
        assert_eq!(Constant::Int(1).ty(), crate::Type::I64);
        assert_eq!(Constant::Float(1.0).ty(), crate::Type::F64);
        assert_eq!(Constant::Bool(false).ty(), crate::Type::Bool);
    }

    #[test]
    fn float_constants_compare_and_hash_by_bits() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |c: Constant| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        let nan = Constant::Float(f64::NAN);
        assert_eq!(nan, nan);
        assert_eq!(hash(nan), hash(nan));
        assert_ne!(Constant::Float(0.0), Constant::Float(-0.0));
        assert_ne!(Constant::Int(1), Constant::Bool(true));
        assert_ne!(Constant::Int(0), Constant::Float(0.0));
        assert_eq!(Value::const_float(1.5), Value::const_float(1.5));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::const_int(7).as_const_int(), Some(7));
        assert_eq!(Value::Param(0).as_const_int(), None);
        assert_eq!(Value::Inst(InstId(9)).as_inst(), Some(InstId(9)));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::const_float(2.0).to_string(), "2.0");
        assert_eq!(Value::Param(2).to_string(), "%arg2");
        assert_eq!(Value::Inst(InstId(5)).to_string(), "%5");
    }

    #[test]
    fn constant_from_into_value() {
        let v: Value = Constant::Int(3).into();
        assert_eq!(v, Value::const_int(3));
    }
}
