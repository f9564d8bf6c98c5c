//! # pspdg-ir — the sequential compiler IR underlying the PS-PDG stack
//!
//! This crate implements the substrate the PS-PDG paper assumes from LLVM: a
//! typed, register-based intermediate representation with memory accessed
//! through explicit `load`/`store` instructions, a control-flow graph, and
//! the standard structural analyses a dependence-graph builder needs.
//!
//! The IR deliberately mirrors the *shape* of LLVM IR at `-O0`:
//!
//! * local variables live in stack objects created by [`Inst::Alloca`] and
//!   are accessed through loads and stores (no phi nodes are required);
//! * addresses into aggregates are computed by [`Inst::Gep`] (a simplified
//!   `getelementptr`);
//! * control flow is expressed with explicit terminators ([`Inst::Br`],
//!   [`Inst::CondBr`], [`Inst::Ret`]) at the end of each [`Block`].
//!
//! On top of the representation the crate provides:
//!
//! * [`mod@cfg`] — successor/predecessor maps and reverse post-order;
//! * [`dom`] — dominator and post-dominator trees (Cooper–Harvey–Kennedy);
//! * [`loops`] — natural-loop detection, the loop forest, and canonical
//!   induction-variable/trip-count recognition;
//! * [`verify`] — a structural verifier;
//! * [`interp`] — a deterministic interpreter with an instruction-level
//!   profile and a pluggable trace sink (used by the ideal-machine emulator);
//! * a textual printer ([`display`]) for debugging and golden tests.
//!
//! # Example
//!
//! Build and run a function computing `6 * 7`:
//!
//! ```
//! use pspdg_ir::{Module, Type, FunctionBuilder, Value, Constant, BinOp};
//! use pspdg_ir::interp::{Interpreter, RtVal};
//!
//! let mut module = Module::new("demo");
//! let func = module.declare_function("answer", vec![], Type::I64);
//! {
//!     let mut b = FunctionBuilder::new(module.function_mut(func));
//!     let entry = b.create_block("entry");
//!     b.switch_to_block(entry);
//!     let prod = b.binary(BinOp::Mul, Value::const_int(6), Value::const_int(7));
//!     b.ret(Some(prod));
//! }
//! module.verify().expect("module verifies");
//! let mut interp = Interpreter::new(&module);
//! let result = interp.run(func, &[]).expect("runs to completion");
//! assert_eq!(result, Some(RtVal::Int(42)));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod display;
pub mod dom;
pub mod function;
pub mod inst;
pub mod interp;
pub mod loops;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cfg::Cfg;
pub use dom::{DomTree, PostDomTree};
pub use function::{Block, Function, Global, GlobalInit, Module, Param};
pub use inst::{BinOp, CastKind, CmpOp, Inst, InstData, Intrinsic, UnOp};
pub use loops::{Bound, CanonicalLoop, LoopForest, LoopId, LoopInfo};
pub use types::Type;
pub use value::{BlockId, Constant, FuncId, GlobalId, InstId, Value};
pub use verify::VerifyError;
