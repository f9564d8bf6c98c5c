//! The IR type system.
//!
//! The type lattice is intentionally small — the PS-PDG needs loads, stores,
//! integer/float arithmetic, and aggregate addressing, nothing more. Pointers
//! are opaque (the pointee layout is carried by the allocating instruction
//! and by every [`crate::Inst::Gep`]), which matches modern LLVM's opaque
//! pointers.

use std::fmt;

/// A first-class IR type.
///
/// `Array` types may nest (`[[f64; 8]; 8]` models `double a[8][8]`); they are
/// flattened into consecutive scalar cells by the interpreter, with
/// [`Type::flat_len`] giving the cell count.
///
/// # Example
///
/// ```
/// use pspdg_ir::Type;
/// let matrix = Type::array(Type::array(Type::F64, 8), 8);
/// assert_eq!(matrix.flat_len(), 64);
/// assert_eq!(matrix.to_string(), "[[f64; 8]; 8]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// The absence of a value; only valid as a function return type.
    Void,
    /// A one-bit boolean produced by comparisons.
    Bool,
    /// A 64-bit signed integer.
    I64,
    /// A 64-bit IEEE-754 float.
    F64,
    /// An opaque pointer into a memory object.
    Ptr,
    /// A fixed-length aggregate of `len` elements of type `elem`.
    Array {
        /// Element type (may itself be an array).
        elem: Box<Type>,
        /// Number of elements.
        len: u64,
    },
}

impl Type {
    /// Convenience constructor for array types.
    ///
    /// ```
    /// use pspdg_ir::Type;
    /// assert_eq!(Type::array(Type::I64, 4).flat_len(), 4);
    /// ```
    pub fn array(elem: Type, len: u64) -> Type {
        Type::Array {
            elem: Box::new(elem),
            len,
        }
    }

    /// Number of scalar cells this type occupies in flattened object memory.
    ///
    /// Scalars (and pointers) occupy one cell; arrays occupy
    /// `len * elem.flat_len()` cells; `Void` occupies zero.
    #[inline]
    pub fn flat_len(&self) -> u64 {
        match self {
            Type::Void => 0,
            Type::Bool | Type::I64 | Type::F64 | Type::Ptr => 1,
            Type::Array { elem, len } => len * elem.flat_len(),
        }
    }

    /// Whether this is a scalar (single-cell, non-pointer) type.
    pub(crate) fn is_scalar(&self) -> bool {
        matches!(self, Type::Bool | Type::I64 | Type::F64)
    }

    /// Whether the type is numeric (integer or float).
    pub(crate) fn is_numeric(&self) -> bool {
        matches!(self, Type::I64 | Type::F64)
    }

    /// Whether the type is an aggregate.
    pub fn is_array(&self) -> bool {
        matches!(self, Type::Array { .. })
    }

    /// The ultimate scalar element type of a (possibly nested) array, or the
    /// type itself for scalars.
    ///
    /// ```
    /// use pspdg_ir::Type;
    /// let t = Type::array(Type::array(Type::F64, 3), 2);
    /// assert_eq!(t.scalar_elem(), &Type::F64);
    /// ```
    pub fn scalar_elem(&self) -> &Type {
        match self {
            Type::Array { elem, .. } => elem.scalar_elem(),
            other => other,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "bool"),
            Type::I64 => write!(f, "i64"),
            Type::F64 => write!(f, "f64"),
            Type::Ptr => write!(f, "ptr"),
            Type::Array { elem, len } => write!(f, "[{elem}; {len}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_len_scalars() {
        assert_eq!(Type::Void.flat_len(), 0);
        assert_eq!(Type::Bool.flat_len(), 1);
        assert_eq!(Type::I64.flat_len(), 1);
        assert_eq!(Type::F64.flat_len(), 1);
        assert_eq!(Type::Ptr.flat_len(), 1);
    }

    #[test]
    fn flat_len_nested_arrays() {
        let t = Type::array(Type::array(Type::I64, 5), 7);
        assert_eq!(t.flat_len(), 35);
        let t3 = Type::array(t, 2);
        assert_eq!(t3.flat_len(), 70);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::I64.to_string(), "i64");
        assert_eq!(Type::array(Type::F64, 9).to_string(), "[f64; 9]");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }

    #[test]
    fn scalar_elem_unwraps_nesting() {
        let t = Type::array(Type::array(Type::Bool, 2), 2);
        assert_eq!(t.scalar_elem(), &Type::Bool);
        assert_eq!(Type::F64.scalar_elem(), &Type::F64);
    }

    #[test]
    fn predicates() {
        assert!(Type::I64.is_scalar());
        assert!(!Type::Ptr.is_scalar());
        assert!(Type::F64.is_numeric());
        assert!(!Type::Bool.is_numeric());
        assert!(Type::array(Type::I64, 1).is_array());
    }
}
