//! Functions, blocks, globals, and the module container.

use crate::inst::{Inst, InstData};
use crate::types::Type;
use crate::value::{BlockId, Constant, FuncId, GlobalId, InstId, Value};

/// A formal parameter of a [`Function`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// Source-level name (diagnostics only).
    pub name: String,
    /// Parameter type (`Ptr` for array arguments).
    pub ty: Type,
}

/// A basic block: a label plus an ordered list of instructions, the last of
/// which must be a terminator once the function is complete.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Block {
    /// Label (diagnostics only; uniqueness is not required).
    pub name: String,
    /// Instructions in execution order; indices into [`Function::insts`].
    pub insts: Vec<InstId>,
}

/// Initializer for a module-level [`Global`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GlobalInit {
    /// All cells zero-initialized (integers 0, floats 0.0, bools false).
    Zero,
    /// Explicit per-cell constants (must match the flattened length).
    Data(Vec<Constant>),
}

/// A module-level memory object (models a C global / static array).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Global {
    /// Source-level name.
    pub name: String,
    /// Object layout.
    pub ty: Type,
    /// Initial contents.
    pub init: GlobalInit,
}

/// A function: parameters, a return type, and a CFG of basic blocks over an
/// instruction arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// Source-level name.
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Return type (`Type::Void` for procedures).
    pub ret_ty: Type,
    /// Basic-block arena; `blocks[0]` is the entry block once created.
    pub blocks: Vec<Block>,
    /// Instruction arena shared by all blocks of this function.
    pub insts: Vec<InstData>,
}

impl Function {
    /// Create an empty function shell (no blocks yet).
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Function {
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: Vec::new(),
            insts: Vec::new(),
        }
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been created yet.
    pub fn entry(&self) -> BlockId {
        assert!(
            !self.blocks.is_empty(),
            "function {} has no blocks",
            self.name
        );
        BlockId(0)
    }

    /// Borrow a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Borrow an instruction with its type.
    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.index()]
    }

    /// Iterate over all block ids in arena order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::from_index)
    }

    /// Iterate over all instruction ids in arena order.
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> + '_ {
        (0..self.insts.len()).map(InstId::from_index)
    }

    /// The block containing each instruction (arena-sized vector).
    ///
    /// Instructions not attached to any block map to `None` (the builder
    /// never produces these, but the verifier reports them).
    pub fn inst_blocks(&self) -> Vec<Option<BlockId>> {
        let mut owner = vec![None; self.insts.len()];
        for bb in self.block_ids() {
            for &i in &self.block(bb).insts {
                owner[i.index()] = Some(bb);
            }
        }
        owner
    }

    /// The terminator of a block, if the block is non-empty and ends in one.
    pub fn terminator(&self, bb: BlockId) -> Option<&Inst> {
        let last = *self.block(bb).insts.last()?;
        let inst = &self.inst(last).inst;
        inst.is_terminator().then_some(inst)
    }

    /// The result type of a [`Value`] in the context of this function.
    ///
    /// `module` is needed to type globals (their address is `Ptr`).
    pub(crate) fn value_type(&self, v: Value) -> Type {
        match v {
            Value::Const(c) => c.ty(),
            Value::Inst(id) => self.inst(id).ty.clone(),
            Value::Param(i) => self.params[i].ty.clone(),
            Value::Global(_) => Type::Ptr,
        }
    }

    /// Total number of instructions (static size metric used by reports).
    pub fn size(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A translation unit: functions plus module-level globals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Module {
    /// Module name (diagnostics only).
    pub name: String,
    /// Function arena.
    pub functions: Vec<Function>,
    /// Global arena.
    pub globals: Vec<Global>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Declare a new function and return its id.
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        params: Vec<Param>,
        ret_ty: Type,
    ) -> FuncId {
        let id = FuncId::from_index(self.functions.len());
        self.functions.push(Function::new(name, params, ret_ty));
        id
    }

    /// Declare a global object and return its id.
    pub fn declare_global(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        init: GlobalInit,
    ) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(Global {
            name: name.into(),
            ty,
            init,
        });
        id
    }

    /// Borrow a function.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutably borrow a function.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Borrow a global.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Find a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }

    /// Iterate over all function ids.
    pub fn function_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len()).map(FuncId::from_index)
    }

    /// Iterate over all global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> + '_ {
        (0..self.globals.len()).map(GlobalId::from_index)
    }

    /// Verify the whole module; see [`crate::verify`].
    ///
    /// # Errors
    ///
    /// Returns the first structural error found.
    pub fn verify(&self) -> Result<(), crate::verify::VerifyError> {
        crate::verify::verify_module(self)
    }

    /// Total static instruction count across all functions.
    pub fn size(&self) -> usize {
        self.functions.iter().map(Function::size).sum()
    }
}

/// Convenience for declaring functions that take only scalar params.
impl Module {
    /// Declare a function whose parameters are given as `(name, type)` pairs.
    pub fn declare_function_with(
        &mut self,
        name: impl Into<String>,
        params: &[(&str, Type)],
        ret_ty: Type,
    ) -> FuncId {
        let params = params
            .iter()
            .map(|(n, t)| Param {
                name: (*n).to_string(),
                ty: t.clone(),
            })
            .collect();
        self.declare_function(name, params, ret_ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut m = Module::new("m");
        let f = m.declare_function("foo", vec![], Type::Void);
        let g = m.declare_global("g", Type::array(Type::I64, 4), GlobalInit::Zero);
        assert_eq!(m.function_by_name("foo"), Some(f));
        assert_eq!(m.function_by_name("bar"), None);
        assert_eq!(m.global(g).ty.flat_len(), 4);
    }

    #[test]
    fn value_typing() {
        let mut m = Module::new("m");
        let f = m.declare_function_with("f", &[("x", Type::I64), ("p", Type::Ptr)], Type::I64);
        let func = m.function(f);
        assert_eq!(func.value_type(Value::Param(0)), Type::I64);
        assert_eq!(func.value_type(Value::Param(1)), Type::Ptr);
        assert_eq!(func.value_type(Value::const_float(1.0)), Type::F64);
        assert_eq!(func.value_type(Value::Global(GlobalId(0))), Type::Ptr);
    }

    #[test]
    fn size_counts_block_instructions() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = crate::builder::FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.ret(None);
        }
        assert_eq!(m.size(), 1);
        assert_eq!(m.function(f).size(), 1);
    }

    #[test]
    fn inst_blocks_ownership() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = crate::builder::FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.ret(None);
        }
        let func = m.function(f);
        let owners = func.inst_blocks();
        assert_eq!(owners, vec![Some(BlockId(0))]);
        assert!(func.terminator(BlockId(0)).is_some());
    }
}
