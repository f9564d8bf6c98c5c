//! Base-object alias analysis.
//!
//! ParC has no address-of operator, so every pointer value descends from a
//! well-identified base object: a stack `alloca`, a module global, or a
//! pointer parameter. Two distinct bases never overlap, with one documented
//! exception: a pointer *parameter* may have been bound to a global (or a
//! caller's object) at a call site, so `Param` vs `Global` is a may-alias.
//! Distinct parameters are assumed not to alias each other — the `restrict`
//! discipline the paper attributes to developer knowledge ("the compiler
//! must leverage the developer knowledge that the various arrays do not
//! alias with one another", §2.2).

use pspdg_ir::{FuncId, Function, GlobalId, Inst, InstId, Value};

/// The base object a pointer value descends from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemBase {
    /// A stack object (`alloca` instruction) of the analyzed function.
    Alloca(InstId),
    /// A module global.
    Global(GlobalId),
    /// A pointer parameter of the analyzed function.
    Param(usize),
    /// The program's output stream (print built-ins); serializes I/O.
    Io,
    /// Unknown provenance (calls); aliases everything.
    Unknown,
}

/// Trace a pointer-typed value to its base object by walking `gep` chains.
pub fn trace_base(func: &Function, ptr: Value) -> MemBase {
    match ptr {
        Value::Global(g) => MemBase::Global(g),
        Value::Param(p) => MemBase::Param(p),
        Value::Inst(i) => match &func.inst(i).inst {
            Inst::Alloca { .. } => MemBase::Alloca(i),
            Inst::Gep { base, .. } => trace_base(func, *base),
            // A load of a pointer would be unknown provenance; the ParC
            // front-end never materializes pointer loads, but stay safe.
            _ => MemBase::Unknown,
        },
        Value::Const(_) => MemBase::Unknown,
    }
}

/// May two base objects overlap?
pub(crate) fn may_alias(a: MemBase, b: MemBase) -> bool {
    use MemBase::*;
    match (a, b) {
        (Unknown, other) | (other, Unknown) => other != Io, // calls don't touch Io
        (Io, Io) => true,
        (Io, _) | (_, Io) => false,
        (Alloca(x), Alloca(y)) => x == y,
        (Global(x), Global(y)) => x == y,
        // Distinct parameters are assumed restrict-qualified.
        (Param(x), Param(y)) => x == y,
        // A parameter may be bound to a global at the call site.
        (Param(_), Global(_)) | (Global(_), Param(_)) => true,
        // A parameter cannot point at a fresh local object of the callee.
        (Param(_), Alloca(_)) | (Alloca(_), Param(_)) => false,
        (Alloca(_), Global(_)) | (Global(_), Alloca(_)) => false,
    }
}

/// Resolve a [`pspdg_parallel::VarRef`] to the [`MemBase`] it denotes inside
/// `func` (used when matching data clauses against dependence edges).
pub fn base_of_varref(func_id: FuncId, var: pspdg_parallel::VarRef) -> Option<MemBase> {
    match var {
        pspdg_parallel::VarRef::Alloca { func, inst } => {
            (func == func_id).then_some(MemBase::Alloca(inst))
        }
        pspdg_parallel::VarRef::Global(g) => Some(MemBase::Global(g)),
        pspdg_parallel::VarRef::Param { func, index } => {
            (func == func_id).then_some(MemBase::Param(index))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_ir::{FunctionBuilder, Module, Type};

    #[test]
    fn traces_gep_chains() {
        let mut m = Module::new("m");
        let g = m.declare_global("g", Type::array(Type::I64, 8), pspdg_ir::GlobalInit::Zero);
        let f = m.declare_function_with("f", &[("p", Type::Ptr)], Type::Void);
        let (a_id, gep_a, gep_g, gep_p);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let a = b.alloca(Type::array(Type::I64, 4), "a");
            a_id = a.as_inst().unwrap();
            let g1 = b.gep(a, Value::const_int(1), Type::I64);
            gep_a = b.gep(g1, Value::const_int(1), Type::I64);
            gep_g = b.gep(Value::Global(g), Value::const_int(2), Type::I64);
            gep_p = b.gep(Value::Param(0), Value::const_int(0), Type::I64);
            b.ret(None);
        }
        let func = m.function(f);
        assert_eq!(trace_base(func, gep_a), MemBase::Alloca(a_id));
        assert_eq!(trace_base(func, gep_g), MemBase::Global(g));
        assert_eq!(trace_base(func, gep_p), MemBase::Param(0));
    }

    #[test]
    fn alias_matrix() {
        use MemBase::*;
        let a0 = Alloca(InstId(0));
        let a1 = Alloca(InstId(1));
        let g0 = Global(GlobalId(0));
        let g1 = Global(GlobalId(1));
        assert!(may_alias(a0, a0));
        assert!(!may_alias(a0, a1));
        assert!(may_alias(g0, g0));
        assert!(!may_alias(g0, g1));
        assert!(!may_alias(a0, g0));
        assert!(may_alias(Param(0), g0));
        assert!(!may_alias(Param(0), Param(1)));
        assert!(may_alias(Param(2), Param(2)));
        assert!(!may_alias(Param(0), a0));
        assert!(may_alias(Unknown, a0));
        assert!(may_alias(Unknown, g0));
        assert!(!may_alias(Unknown, Io));
        assert!(may_alias(Io, Io));
        assert!(!may_alias(Io, a0));
    }
}
