//! A deterministic IR interpreter with profiling and a pluggable trace sink.
//!
//! The interpreter serves three roles in the PS-PDG stack:
//!
//! 1. **Correctness oracle** — examples and tests execute kernels and check
//!    their outputs;
//! 2. **Profiler** — per-block execution counts drive the parallelizer's
//!    ≥1 %-coverage loop filter (paper §6.1); multiplied by each block's
//!    static instruction mix they give the dynamic opcode table
//!    ([`Profile::opcode_counts`]);
//! 3. **Trace source** — with a [`TraceSink`] attached it emits one event
//!    per dynamic instruction, carrying the *memory addresses* it touched.
//!    The ideal-machine emulator (crate `pspdg-emulator`) consumes these
//!    events to compute plan-constrained critical paths (paper §6.3).
//!
//! ## The trace carries addresses
//!
//! A step names its frame and static instruction; register dependences
//! are not in the trace, because in this IR an operand names its producing
//! instruction and the instance it reads is that instruction's latest
//! execution in the same frame. A consumer that needs them keeps its own
//! per-frame table indexed by [`InstId`] (the emulator's producer
//! conventions for call results and parameters are documented there).
//! Memory dependences depend on the run, so each step carries the cells it
//! read and wrote.
//!
//! ## One body of instruction semantics
//!
//! [`step`] holds the only instruction `match` in the workspace: the
//! interpreter's block loop and every loop of the `pspdg-runtime` executor
//! (blocks, critical slices, commit-time replay) run each instruction
//! through it. An engine lends `step` a [`Machine`]: its heap, output, step
//! counter and fuel, and how it runs a call. The machine's trace hooks
//! (`on_load`, `on_store`, `on_alloc`, `on_step`) are no-ops unless it sets
//! [`Machine::TRACES`]; the interpreter sets it from its sink's
//! [`TraceSink::TRACES`], so a [`NullSink`] run (profiling, the baseline
//! oracle) and the runtime compile without them. A traced run keeps one
//! loads/stores scratch for the whole run, emptied by each step's event.

use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::function::{Function, GlobalInit, Module};
use crate::inst::{BinOp, CastKind, CmpOp, Inst, Intrinsic, UnOp};
use crate::types::Type;
use crate::value::{BlockId, Constant, FuncId, GlobalId, InstId, Value};

/// Identifier of a runtime memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Raw index into the interpreter's object table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A validated address of one scalar cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAddr {
    /// Object containing the cell.
    pub obj: ObjId,
    /// Cell offset within the object.
    pub off: u32,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Pointer: object plus (possibly out-of-range until dereferenced)
    /// cell offset.
    Ptr {
        /// Pointed-to object.
        obj: ObjId,
        /// Signed cell offset (validated on dereference).
        off: i64,
    },
    /// Uninitialized memory.
    Undef,
}

impl RtVal {
    /// Short name of the value's runtime type (diagnostics).
    pub fn type_name(&self) -> &'static str {
        match self {
            RtVal::Int(_) => "i64",
            RtVal::Float(_) => "f64",
            RtVal::Bool(_) => "bool",
            RtVal::Ptr { .. } => "ptr",
            RtVal::Undef => "undef",
        }
    }

    /// Extract an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            RtVal::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            RtVal::Float(v) => Some(*v),
            _ => None,
        }
    }
}

/// Where a runtime object came from; lets trace consumers map dynamic
/// addresses back to static variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjOrigin {
    /// A module global.
    Global(GlobalId),
    /// A stack object: the `alloca` instruction and its function.
    Alloca {
        /// Function containing the alloca.
        func: FuncId,
        /// The alloca instruction.
        inst: InstId,
    },
}

/// Cells per copy-on-write page. 64 cells lets one `u64` word serve as a
/// page's dirty-cell bitmask.
pub const PAGE_CELLS: usize = 64;

/// Bytes of cell payload per page (for fork/commit volume reporting).
pub const PAGE_BYTES: usize = PAGE_CELLS * std::mem::size_of::<RtVal>();

/// One object's cells, stored as `Arc`-shared pages of [`PAGE_CELLS`]
/// cells. Cloning an object bumps page refcounts; the first write to a
/// shared page materializes a private copy (copy-on-write).
#[derive(Debug, Clone)]
struct Object {
    origin: ObjOrigin,
    /// Size in cells (the last page may be partial).
    len: u32,
    pages: Vec<Arc<[RtVal]>>,
    /// One dirty word per page (bit = cell written since the fork).
    /// `None` until the first tracked write to this object.
    dirty: Option<Box<[u64]>>,
}

impl Object {
    fn new(origin: ObjOrigin, cells: Vec<RtVal>) -> Object {
        let len = cells.len() as u32;
        let pages = cells.chunks(PAGE_CELLS).map(Arc::<[RtVal]>::from).collect();
        Object {
            origin,
            len,
            pages,
            dirty: None,
        }
    }
}

/// The interpreter heap: every live runtime object (globals plus stack
/// objects), separated from the [`Interpreter`] so execution engines can
/// *fork* a consistent snapshot per worker and *commit* the written cells
/// back — the memory substrate of the `pspdg-runtime` parallel executor.
///
/// Storage is paged ([`PAGE_CELLS`] cells per page) with `Arc`-shared
/// pages: [`MemState::clone`] and [`MemState::fork`] are O(pages) pointer
/// bumps, not O(cells) copies, and a worker fork pays for exactly the
/// pages it writes (copy-on-write). A fork additionally tracks *which*
/// cells it wrote (one bit per cell), so committing a fork back walks only
/// written pages — see [`MemState::for_each_dirty`].
#[derive(Debug, Clone, Default)]
pub struct MemState {
    objects: Vec<Object>,
    /// The object backing each global, indexed by [`GlobalId`].
    globals: Vec<ObjId>,
    /// Dirty-cell tracking applies to objects below this index (the
    /// objects that existed at [`MemState::fork`] time); `0` — the
    /// default — disables tracking entirely (non-fork states).
    track_below: usize,
    /// Objects with an allocated dirty mask, in first-write order.
    touched: Vec<u32>,
    /// Pages privately materialized by copy-on-write since the fork.
    cow_pages: u64,
}

impl MemState {
    /// A heap holding `module`'s initialized globals and nothing else.
    pub fn for_module(module: &Module) -> MemState {
        let mut mem = MemState::default();
        for g in module.global_ids() {
            let global = module.global(g);
            let cells = match &global.init {
                GlobalInit::Zero => {
                    let zero = zero_of(global.ty.scalar_elem());
                    vec![zero; global.ty.flat_len() as usize]
                }
                GlobalInit::Data(data) => data.iter().map(|c| const_val(*c)).collect(),
            };
            let obj = ObjId(mem.objects.len() as u32);
            mem.objects.push(Object::new(ObjOrigin::Global(g), cells));
            mem.globals.push(obj);
        }
        mem
    }

    /// Create a new object of `cells` uninitialized cells.
    pub fn alloc(&mut self, origin: ObjOrigin, cells: usize) -> ObjId {
        let obj = ObjId(self.objects.len() as u32);
        self.objects
            .push(Object::new(origin, vec![RtVal::Undef; cells]));
        obj
    }

    /// Size of `obj` in cells.
    pub fn object_len(&self, obj: ObjId) -> usize {
        self.objects[obj.index()].len as usize
    }

    /// Read one cell.
    pub fn read(&self, addr: MemAddr) -> RtVal {
        let off = addr.off as usize;
        self.objects[addr.obj.index()].pages[off / PAGE_CELLS][off % PAGE_CELLS]
    }

    /// Write one cell (copy-on-write if the containing page is shared).
    #[inline]
    pub fn write(&mut self, addr: MemAddr, v: RtVal) {
        let oi = addr.obj.index();
        let off = addr.off as usize;
        let (p, b) = (off / PAGE_CELLS, off % PAGE_CELLS);
        let page = &mut self.objects[oi].pages[p];
        match Arc::get_mut(page) {
            Some(cells) => cells[b] = v,
            None => {
                let mut copy: Vec<RtVal> = page.to_vec();
                copy[b] = v;
                *page = Arc::from(copy);
                self.cow_pages += 1;
            }
        }
        if oi < self.track_below {
            if self.objects[oi].dirty.is_none() {
                let pages = self.objects[oi].pages.len();
                self.objects[oi].dirty = Some(vec![0u64; pages].into_boxed_slice());
                self.touched.push(oi as u32);
            }
            if let Some(masks) = self.objects[oi].dirty.as_mut() {
                masks[p] |= 1 << b;
            }
        }
    }

    /// The runtime object backing global `g`.
    pub fn global_object(&self, g: GlobalId) -> ObjId {
        self.globals[g.index()]
    }

    /// Validate `v` as the address of one live cell — the check every
    /// engine makes before the [`MemState::read`] or [`MemState::write`]
    /// that follows.
    ///
    /// # Errors
    ///
    /// [`EvalFault::OutOfBounds`] when the offset lies outside the object,
    /// [`EvalFault::TypeMismatch`] when `v` is not a pointer.
    #[inline]
    pub fn deref(&self, v: RtVal) -> Result<MemAddr, EvalFault> {
        match v {
            RtVal::Ptr { obj, off } => {
                let size = self.objects[obj.index()].len as usize;
                if off < 0 || off as usize >= size {
                    return Err(EvalFault::OutOfBounds { off, size });
                }
                Ok(MemAddr {
                    obj,
                    off: off as u32,
                })
            }
            other => Err(EvalFault::TypeMismatch {
                expected: "ptr",
                got: other.type_name(),
            }),
        }
    }

    /// Every live object with its origin (in allocation order).
    pub fn objects(&self) -> impl Iterator<Item = (ObjId, ObjOrigin)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjId(i as u32), o.origin))
    }

    /// A worker fork of this heap: shares every page (O(pages), no cell
    /// copies) and tracks which cells the fork writes, so the fork can be
    /// committed back cell-exactly via [`MemState::for_each_dirty`].
    /// Objects the fork allocates after this point (worker-local stack
    /// objects) are not tracked — they die with the fork.
    pub fn fork(&self) -> MemState {
        let mut m = self.clone();
        for &oi in &m.touched {
            m.objects[oi as usize].dirty = None;
        }
        m.touched.clear();
        m.track_below = m.objects.len();
        m.cow_pages = 0;
        m
    }

    /// Visit every cell this fork wrote since [`MemState::fork`] with its
    /// current (fork-final) value, grouped by object in first-write order.
    /// Cells written more than once appear once, with the last value —
    /// exactly what a per-cell last-writer-wins commit needs.
    pub fn for_each_dirty(&self, mut f: impl FnMut(MemAddr, RtVal)) {
        let _ = self.try_for_each_dirty(|addr, v| {
            f(addr, v);
            ControlFlow::Continue(())
        });
    }

    /// Abortable variant of [`MemState::for_each_dirty`] — the **commit
    /// fault hook**: the visitor may abort the walk by returning
    /// [`ControlFlow::Break`], and the walk stops at that cell. Execution
    /// engines commit fork dirty sets into a *staging* heap through this,
    /// so an abort mid-walk (a validation failure, or an injected commit
    /// fault from the runtime's fault-injection layer) discards a
    /// half-applied staging heap without the master state ever observing
    /// it.
    pub fn try_for_each_dirty(
        &self,
        mut f: impl FnMut(MemAddr, RtVal) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for &oi in &self.touched {
            let o = &self.objects[oi as usize];
            let Some(masks) = &o.dirty else { continue };
            for (p, &mask) in masks.iter().enumerate() {
                let mut m = mask;
                while m != 0 {
                    let b = m.trailing_zeros();
                    m &= m - 1;
                    let addr = MemAddr {
                        obj: ObjId(oi),
                        off: (p * PAGE_CELLS) as u32 + b,
                    };
                    f(addr, self.read(addr))?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Number of distinct cells this fork has written.
    pub fn dirty_cells(&self) -> u64 {
        self.touched
            .iter()
            .filter_map(|&oi| self.objects[oi as usize].dirty.as_ref())
            .flat_map(|masks| masks.iter())
            .map(|m| u64::from(m.count_ones()))
            .sum()
    }

    /// Pages this state privately materialized through copy-on-write
    /// (reset by [`MemState::fork`]); `pages × PAGE_BYTES` approximates
    /// the bytes actually copied for this fork.
    pub fn cow_pages(&self) -> u64 {
        self.cow_pages
    }
}

/// Per-block execution counts. The interpreter counts block *entries*,
/// not instructions: a block that is entered runs to its terminator, so
/// every instruction of it executed exactly `block_count` times. That is
/// exact for a run that completes; a run that faults mid-block returns
/// `Err` having counted the whole faulting block once, and callers that
/// keep a profile (`Session`) drop it with the failed run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `block_count[func][block]` = times the block was entered.
    pub block_count: Vec<Vec<u64>>,
    /// Total dynamic instructions executed: the interpreter's step count,
    /// stored when a run returns.
    pub total: u64,
}

impl Profile {
    fn new(module: &Module) -> Profile {
        Profile {
            block_count: module
                .functions
                .iter()
                .map(|f| vec![0; f.blocks.len()])
                .collect(),
            total: 0,
        }
    }

    /// Dynamic instructions attributable to a set of blocks of a function
    /// (used for loop coverage): each block's entry count times its
    /// static length.
    pub fn block_set_cost(&self, module: &Module, func: FuncId, blocks: &[BlockId]) -> u64 {
        let f = module.function(func);
        blocks
            .iter()
            .map(|bb| self.block_count[func.index()][bb.index()] * f.block(*bb).insts.len() as u64)
            .sum()
    }

    /// Dynamic instructions per opcode (the IR printer's mnemonic), most
    /// frequent first: each block's entry count times its static mix.
    /// `within` restricts the sum to a block set of one function (a loop,
    /// where the counts add up to [`Profile::block_set_cost`]); `None` is
    /// the whole module, where they add up to [`Profile::total`].
    pub fn opcode_counts(
        &self,
        module: &Module,
        within: Option<(FuncId, &[BlockId])>,
    ) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        let mut add = |func: FuncId, bb: BlockId| {
            let entered = self.block_count[func.index()][bb.index()];
            if entered == 0 {
                return;
            }
            let f = module.function(func);
            for &i in &f.block(bb).insts {
                let op = opcode_of(&f.inst(i).inst);
                match counts.iter_mut().find(|(o, _)| *o == op) {
                    Some((_, n)) => *n += entered,
                    None => counts.push((op, entered)),
                }
            }
        };
        match within {
            Some((func, blocks)) => blocks.iter().for_each(|&bb| add(func, bb)),
            None => {
                for (fi, f) in module.functions.iter().enumerate() {
                    f.block_ids().for_each(|bb| add(FuncId::from_index(fi), bb));
                }
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        counts
    }
}

/// A single dynamic instruction event.
#[derive(Debug)]
pub struct Step<'a> {
    /// Activation (frame) id; the root call is frame 0.
    pub frame: u64,
    /// Function being executed.
    pub func: FuncId,
    /// Static instruction.
    pub inst: InstId,
    /// This event's trace index (0-based, dense).
    pub index: u64,
    /// Cells read by this instruction.
    pub loads: &'a [MemAddr],
    /// Cells written by this instruction.
    pub stores: &'a [MemAddr],
}

/// Receiver of dynamic-trace events. All methods have empty defaults.
pub trait TraceSink {
    /// Whether the sink reads events at all. The interpreter is generic
    /// over its sink, so with `false` ([`NullSink`]) it compiles without
    /// the address scratch and without the event calls.
    const TRACES: bool = true;

    /// A dynamic instruction executed.
    fn on_step(&mut self, step: &Step<'_>) {
        let _ = step;
    }
    /// Control entered `block` in frame `frame`.
    fn on_block(&mut self, frame: u64, func: FuncId, block: BlockId) {
        let _ = (frame, func, block);
    }
    /// A new activation began. `call_step` is the trace index of the calling
    /// `call` instruction, or `u64::MAX` for the root invocation.
    fn on_enter(&mut self, frame: u64, func: FuncId, call_step: u64) {
        let _ = (frame, func, call_step);
    }
    /// An activation finished; `ret_step` is the trace index of its `ret`.
    fn on_exit(&mut self, frame: u64, func: FuncId, ret_step: u64) {
        let _ = (frame, func, ret_step);
    }
    /// A memory object came into existence (globals are announced before
    /// the first step; allocas as they execute).
    fn on_alloc(&mut self, obj: ObjId, origin: ObjOrigin) {
        let _ = (obj, origin);
    }
}

/// A sink that ignores everything (profiling-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    const TRACES: bool = false;
}

/// The most calls an engine keeps live below the root activation; one past
/// it raises [`ExecError::CallDepth`]. A live call holds an engine's native
/// frame, at most about 7 KiB (the runtime's, unoptimized; 2.3 KiB
/// optimized), so the limit fits the smallest stack an engine runs on, a
/// 2 MiB service handler or pool thread, with room below the engine.
pub const MAX_CALL_DEPTH: u32 = 200;

/// A runtime error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The step budget was exhausted (guards non-terminating tests).
    OutOfFuel,
    /// Load/store outside an object's bounds.
    OutOfBounds {
        /// Function where the access happened.
        func: String,
        /// Offending instruction.
        inst: InstId,
        /// Attempted offset.
        off: i64,
        /// Object size in cells.
        size: usize,
    },
    /// A load observed an uninitialized cell.
    UndefRead {
        /// Function where the load happened.
        func: String,
        /// Offending instruction.
        inst: InstId,
    },
    /// Integer division or remainder by zero.
    DivByZero {
        /// Function where the division happened.
        func: String,
        /// Offending instruction.
        inst: InstId,
    },
    /// An operand had an unexpected runtime type (verifier should prevent
    /// this; kept for defence in depth).
    TypeMismatch {
        /// Function where the fault happened.
        func: String,
        /// Offending instruction.
        inst: InstId,
        /// Expected type name.
        expected: &'static str,
        /// Actual type name.
        got: &'static str,
    },
    /// A call past [`MAX_CALL_DEPTH`].
    CallDepth {
        /// Function making the call.
        func: String,
        /// The call instruction.
        inst: InstId,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel => write!(f, "interpreter ran out of fuel"),
            ExecError::OutOfBounds {
                func,
                inst,
                off,
                size,
            } => write!(
                f,
                "out-of-bounds access in @{func} at {inst}: offset {off} of {size}-cell object"
            ),
            ExecError::UndefRead { func, inst } => {
                write!(f, "read of uninitialized memory in @{func} at {inst}")
            }
            ExecError::DivByZero { func, inst } => {
                write!(f, "division by zero in @{func} at {inst}")
            }
            ExecError::TypeMismatch {
                func,
                inst,
                expected,
                got,
            } => {
                write!(
                    f,
                    "type mismatch in @{func} at {inst}: expected {expected}, got {got}"
                )
            }
            ExecError::CallDepth { func, inst } => write!(
                f,
                "call depth limit of {MAX_CALL_DEPTH} exceeded in @{func} at {inst}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// A context-free evaluation fault, raised by [`MemState::deref`] and by
/// the operator semantics inside [`step`], which names it with its function
/// and instruction as an [`ExecError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFault {
    /// Integer division or remainder by zero.
    DivByZero,
    /// A pointer's offset lies outside its object.
    OutOfBounds {
        /// Attempted offset.
        off: i64,
        /// Object size in cells.
        size: usize,
    },
    /// An operand had an unexpected runtime type.
    TypeMismatch {
        /// Expected type name.
        expected: &'static str,
        /// Actual type name.
        got: &'static str,
    },
}

impl EvalFault {
    /// Attach function/instruction context, producing an [`ExecError`]
    /// (the fault path, kept out of the hot code of [`step`]).
    #[cold]
    fn at(self, func: &str, inst: InstId) -> ExecError {
        match self {
            EvalFault::DivByZero => ExecError::DivByZero {
                func: func.to_string(),
                inst,
            },
            EvalFault::OutOfBounds { off, size } => ExecError::OutOfBounds {
                func: func.to_string(),
                inst,
                off,
                size,
            },
            EvalFault::TypeMismatch { expected, got } => ExecError::TypeMismatch {
                func: func.to_string(),
                inst,
                expected,
                got,
            },
        }
    }
}

/// Evaluate a binary operation on runtime values.
///
/// # Errors
///
/// [`EvalFault`] on division by zero or operand type mismatch.
#[inline]
fn eval_binop(op: BinOp, l: RtVal, r: RtVal) -> Result<RtVal, EvalFault> {
    use BinOp::*;
    Ok(match (l, r) {
        (RtVal::Int(a), RtVal::Int(b)) => RtVal::Int(match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div => {
                if b == 0 {
                    return Err(EvalFault::DivByZero);
                }
                a.wrapping_div(b)
            }
            Rem => {
                if b == 0 {
                    return Err(EvalFault::DivByZero);
                }
                a.wrapping_rem(b)
            }
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Shl => a.wrapping_shl(b as u32),
            Shr => a.wrapping_shr(b as u32),
        }),
        (RtVal::Float(a), RtVal::Float(b)) => RtVal::Float(match op {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => a / b,
            _ => {
                return Err(EvalFault::TypeMismatch {
                    expected: "i64",
                    got: "f64",
                })
            }
        }),
        (RtVal::Bool(a), RtVal::Bool(b)) => RtVal::Bool(match op {
            And => a && b,
            Or => a || b,
            _ => {
                return Err(EvalFault::TypeMismatch {
                    expected: "i64",
                    got: "bool",
                })
            }
        }),
        (_, b) => {
            return Err(EvalFault::TypeMismatch {
                expected: "matching numeric operands",
                got: b.type_name(),
            })
        }
    })
}

/// Evaluate a unary operation on a runtime value.
///
/// # Errors
///
/// [`EvalFault::TypeMismatch`] on a non-numeric operand.
fn eval_unop(op: UnOp, v: RtVal) -> Result<RtVal, EvalFault> {
    Ok(match (op, v) {
        (UnOp::Neg, RtVal::Int(x)) => RtVal::Int(x.wrapping_neg()),
        (UnOp::Neg, RtVal::Float(x)) => RtVal::Float(-x),
        (UnOp::Not, RtVal::Bool(x)) => RtVal::Bool(!x),
        (UnOp::Not, RtVal::Int(x)) => RtVal::Int(!x),
        (_, other) => {
            return Err(EvalFault::TypeMismatch {
                expected: "numeric",
                got: other.type_name(),
            })
        }
    })
}

/// Evaluate a comparison on runtime values.
///
/// # Errors
///
/// [`EvalFault::TypeMismatch`] on mismatched operand types.
pub fn eval_cmp(op: CmpOp, l: RtVal, r: RtVal) -> Result<bool, EvalFault> {
    use CmpOp::*;
    Ok(match (l, r) {
        (RtVal::Int(a), RtVal::Int(b)) => match op {
            Eq => a == b,
            Ne => a != b,
            Lt => a < b,
            Le => a <= b,
            Gt => a > b,
            Ge => a >= b,
        },
        (RtVal::Float(a), RtVal::Float(b)) => match op {
            Eq => a == b,
            Ne => a != b,
            Lt => a < b,
            Le => a <= b,
            Gt => a > b,
            Ge => a >= b,
        },
        (RtVal::Bool(a), RtVal::Bool(b)) => match op {
            Eq => a == b,
            Ne => a != b,
            _ => {
                return Err(EvalFault::TypeMismatch {
                    expected: "numeric",
                    got: "bool",
                })
            }
        },
        (_, b) => {
            return Err(EvalFault::TypeMismatch {
                expected: "matching operands",
                got: b.type_name(),
            })
        }
    })
}

/// Evaluate a scalar cast.
///
/// # Errors
///
/// [`EvalFault::TypeMismatch`] when the value does not fit the cast.
fn eval_cast(kind: CastKind, v: RtVal) -> Result<RtVal, EvalFault> {
    Ok(match (kind, v) {
        (CastKind::IntToFloat, RtVal::Int(x)) => RtVal::Float(x as f64),
        (CastKind::FloatToInt, RtVal::Float(x)) => RtVal::Int(x as i64),
        (CastKind::BoolToInt, RtVal::Bool(x)) => RtVal::Int(x as i64),
        (_, other) => {
            return Err(EvalFault::TypeMismatch {
                expected: "castable scalar",
                got: other.type_name(),
            })
        }
    })
}

/// Evaluate an intrinsic call; `print_*` intrinsics append to `output`.
/// The argument values are taken from an iterator so that [`step`] does not
/// collect them first (no intrinsic reads past its second argument).
///
/// # Errors
///
/// [`EvalFault::TypeMismatch`] on badly typed arguments.
fn eval_intrinsic(
    intr: Intrinsic,
    args: impl IntoIterator<Item = RtVal>,
    output: &mut Vec<String>,
) -> Result<RtVal, EvalFault> {
    let mut buf = [RtVal::Undef; 2];
    let mut given = 0;
    for (slot, v) in buf.iter_mut().zip(args) {
        *slot = v;
        given += 1;
    }
    let args = &buf[..given];
    let f = |i: usize| -> Result<f64, EvalFault> {
        args[i].as_float().ok_or(EvalFault::TypeMismatch {
            expected: "f64",
            got: args[i].type_name(),
        })
    };
    let n = |i: usize| -> Result<i64, EvalFault> {
        args[i].as_int().ok_or(EvalFault::TypeMismatch {
            expected: "i64",
            got: args[i].type_name(),
        })
    };
    Ok(match intr {
        Intrinsic::Sqrt => RtVal::Float(f(0)?.sqrt()),
        Intrinsic::Fabs => RtVal::Float(f(0)?.abs()),
        Intrinsic::Sin => RtVal::Float(f(0)?.sin()),
        Intrinsic::Cos => RtVal::Float(f(0)?.cos()),
        Intrinsic::Exp => RtVal::Float(f(0)?.exp()),
        Intrinsic::Log => RtVal::Float(f(0)?.ln()),
        Intrinsic::Pow => RtVal::Float(f(0)?.powf(f(1)?)),
        Intrinsic::Fmax => RtVal::Float(f(0)?.max(f(1)?)),
        Intrinsic::Fmin => RtVal::Float(f(0)?.min(f(1)?)),
        Intrinsic::Imax => RtVal::Int(n(0)?.max(n(1)?)),
        Intrinsic::Imin => RtVal::Int(n(0)?.min(n(1)?)),
        Intrinsic::Iabs => RtVal::Int(n(0)?.abs()),
        Intrinsic::PrintI64 => {
            output.push(n(0)?.to_string());
            RtVal::Undef
        }
        Intrinsic::PrintF64 => {
            let v = f(0)?;
            output.push(format!("{v:.6}"));
            RtVal::Undef
        }
    })
}

/// The opcode mnemonic of an instruction, in the IR printer's vocabulary:
/// what [`Profile::opcode_counts`] groups by.
fn opcode_of(inst: &Inst) -> &'static str {
    match inst {
        Inst::Alloca { .. } => "alloca",
        Inst::Load { .. } => "load",
        Inst::Store { .. } => "store",
        Inst::Gep { .. } => "gep",
        Inst::Binary { .. } => "binary",
        Inst::Unary { .. } => "unary",
        Inst::Cmp { .. } => "cmp",
        Inst::Cast { .. } => "cast",
        Inst::Call { .. } => "call",
        Inst::IntrinsicCall { .. } => "intrinsic",
        Inst::Br { .. } => "br",
        Inst::CondBr { .. } => "condbr",
        Inst::Ret { .. } => "ret",
    }
}

/// Everything local to one activation.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The latest value of each instruction, indexed by [`InstId`].
    pub regs: Vec<RtVal>,
    /// The arguments, indexed by parameter.
    pub args: Vec<RtVal>,
}

impl Frame {
    /// A fresh activation of `func`: every register undefined.
    #[inline]
    pub fn new(func: &Function, args: Vec<RtVal>) -> Frame {
        Frame {
            regs: vec![RtVal::Undef; func.insts.len()],
            args,
        }
    }

    /// The runtime value of operand `v` (globals resolve against `mem`,
    /// whose object ids differ between a heap and its worker forks).
    #[inline]
    fn eval(&self, mem: &MemState, v: Value) -> RtVal {
        match v {
            Value::Const(c) => const_val(c),
            Value::Inst(i) => self.regs[i.index()],
            Value::Param(p) => self.args[p],
            Value::Global(g) => RtVal::Ptr {
                obj: mem.global_object(g),
                off: 0,
            },
        }
    }
}

/// Where control goes after a [`step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flow {
    /// The block's next instruction.
    Next,
    /// A branch to this block.
    Jump(BlockId),
    /// The activation returned this value.
    Return(Option<RtVal>),
}

/// What an execution engine lends [`step`]: its state, how it runs a call,
/// and trace hooks that are called only when [`Machine::TRACES`] is set.
pub trait Machine {
    /// Whether [`step`] calls the hooks; with `false` it compiles without
    /// them.
    const TRACES: bool = false;

    /// The heap, the lines printed so far, the step counter and the fuel.
    fn state(&mut self) -> (&mut MemState, &mut Vec<String>, &mut u64, u64);

    /// The calls live below the engine's root activation ([`step`] keeps
    /// the count and raises [`ExecError::CallDepth`] past the limit).
    fn depth(&mut self) -> &mut u32;

    /// Run `callee` with `args`, called by instruction `inst` of `func`
    /// (the step's counter already counts the call).
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] the callee raises.
    fn call(
        &mut self,
        func: FuncId,
        inst: InstId,
        callee: FuncId,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, ExecError>;

    /// The step read this cell.
    fn on_load(&mut self, _addr: MemAddr) {}
    /// The step wrote this cell.
    fn on_store(&mut self, _addr: MemAddr) {}
    /// The step allocated this object.
    fn on_alloc(&mut self, _obj: ObjId, _origin: ObjOrigin) {}
    /// This instruction finished; not called for a call, which
    /// [`Machine::call`] sees first.
    fn on_step(&mut self, _func: FuncId, _inst: InstId) {}
}

/// Execute instruction `inst_id` of `f` (function `func_id`) in `frame` on
/// machine `m`: the one body of instruction semantics, compiled into each
/// engine's loop so the step counter and the frame stay in registers across
/// it. Checks the fuel, counts the step, writes the instruction's register
/// and says where control goes.
///
/// # Errors
///
/// [`ExecError::OutOfFuel`] when the fuel is spent,
/// [`ExecError::CallDepth`] for a call past [`MAX_CALL_DEPTH`], and every
/// fault the instruction raises, named with `f` and `inst_id`.
#[inline(always)]
pub fn step<M: Machine>(
    m: &mut M,
    func_id: FuncId,
    f: &Function,
    frame: &mut Frame,
    inst_id: InstId,
) -> Result<Flow, ExecError> {
    {
        let (_, _, steps, fuel) = m.state();
        if *steps >= fuel {
            return Err(ExecError::OutOfFuel);
        }
        *steps += 1;
    }
    // Names an `ExecError`; evaluated on the fault path only.
    let fault = |e: EvalFault| e.at(&f.name, inst_id);
    let mut result = RtVal::Undef;
    let mut flow = Flow::Next;
    // Arms in order of dynamic frequency over the Mini suite
    // ([`Profile::opcode_counts`]; the runtime's `tests/obs_integration.rs`
    // re-derives the ranking): load > binary > gep > store > br > cmp >
    // condbr > intrinsic > cast > unary > alloca > ret > call.
    match &f.inst(inst_id).inst {
        Inst::Load { ptr, .. } => {
            let (mem, ..) = m.state();
            let addr = mem.deref(frame.eval(mem, *ptr)).map_err(fault)?;
            result = mem.read(addr);
            if matches!(result, RtVal::Undef) {
                return Err(ExecError::UndefRead {
                    func: f.name.clone(),
                    inst: inst_id,
                });
            }
            if M::TRACES {
                m.on_load(addr);
            }
        }
        Inst::Binary { op, lhs, rhs } => {
            let (mem, ..) = m.state();
            let (l, r) = (frame.eval(mem, *lhs), frame.eval(mem, *rhs));
            result = eval_binop(*op, l, r).map_err(fault)?;
        }
        Inst::Gep {
            base,
            index,
            elem_ty,
        } => {
            let (mem, ..) = m.state();
            let (b, idx) = (frame.eval(mem, *base), frame.eval(mem, *index));
            let Some(idx) = idx.as_int() else {
                return Err(fault(EvalFault::TypeMismatch {
                    expected: "i64",
                    got: idx.type_name(),
                }));
            };
            let RtVal::Ptr { obj, off } = b else {
                return Err(fault(EvalFault::TypeMismatch {
                    expected: "ptr",
                    got: b.type_name(),
                }));
            };
            result = RtVal::Ptr {
                obj,
                off: off + idx * elem_ty.flat_len() as i64,
            };
        }
        Inst::Store { ptr, value } => {
            let (mem, ..) = m.state();
            let addr = mem.deref(frame.eval(mem, *ptr)).map_err(fault)?;
            let v = frame.eval(mem, *value);
            mem.write(addr, v);
            if M::TRACES {
                m.on_store(addr);
            }
        }
        Inst::Br { target } => flow = Flow::Jump(*target),
        Inst::Cmp { op, lhs, rhs } => {
            let (mem, ..) = m.state();
            let (l, r) = (frame.eval(mem, *lhs), frame.eval(mem, *rhs));
            result = RtVal::Bool(eval_cmp(*op, l, r).map_err(fault)?);
        }
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            let (mem, ..) = m.state();
            let c = frame.eval(mem, *cond);
            let RtVal::Bool(c) = c else {
                return Err(fault(EvalFault::TypeMismatch {
                    expected: "bool",
                    got: c.type_name(),
                }));
            };
            flow = Flow::Jump(if c { *then_bb } else { *else_bb });
        }
        Inst::IntrinsicCall { intrinsic, args } => {
            let (mem, output, ..) = m.state();
            let vals = args.iter().map(|a| frame.eval(mem, *a));
            result = eval_intrinsic(*intrinsic, vals, output).map_err(fault)?;
        }
        Inst::Cast { kind, value } => {
            let (mem, ..) = m.state();
            result = eval_cast(*kind, frame.eval(mem, *value)).map_err(fault)?;
        }
        Inst::Unary { op, operand } => {
            let (mem, ..) = m.state();
            result = eval_unop(*op, frame.eval(mem, *operand)).map_err(fault)?;
        }
        Inst::Alloca { ty, .. } => {
            let origin = ObjOrigin::Alloca {
                func: func_id,
                inst: inst_id,
            };
            let (mem, ..) = m.state();
            let obj = mem.alloc(origin, ty.flat_len() as usize);
            if M::TRACES {
                m.on_alloc(obj, origin);
            }
            result = RtVal::Ptr { obj, off: 0 };
        }
        Inst::Ret { value } => {
            let (mem, ..) = m.state();
            flow = Flow::Return(value.map(|v| frame.eval(mem, v)));
        }
        Inst::Call { callee, args } => {
            let depth = m.depth();
            if *depth >= MAX_CALL_DEPTH {
                return Err(ExecError::CallDepth {
                    func: f.name.clone(),
                    inst: inst_id,
                });
            }
            *depth += 1;
            let (mem, ..) = m.state();
            let vals = args.iter().map(|a| frame.eval(mem, *a)).collect();
            let ret = m.call(func_id, inst_id, *callee, vals);
            *m.depth() -= 1;
            frame.regs[inst_id.index()] = ret?.unwrap_or(RtVal::Undef);
            return Ok(Flow::Next);
        }
    }
    frame.regs[inst_id.index()] = result;
    if M::TRACES {
        m.on_step(func_id, inst_id);
    }
    Ok(flow)
}

/// The interpreter. Owns the heap (globals + live stack objects), the
/// profile, and the captured output of `print_*` intrinsics.
#[derive(Debug)]
pub struct Interpreter<'m> {
    module: &'m Module,
    mem: MemState,
    profile: Profile,
    output: Vec<String>,
    steps: u64,
    fuel: u64,
    next_frame: u64,
}

impl<'m> Interpreter<'m> {
    /// Create an interpreter with a very large default fuel (2^48 steps).
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Interpreter::with_fuel(module, 1 << 48)
    }

    /// Create an interpreter with an explicit step budget.
    pub fn with_fuel(module: &'m Module, fuel: u64) -> Interpreter<'m> {
        Interpreter {
            module,
            mem: MemState::for_module(module),
            profile: Profile::new(module),
            output: Vec::new(),
            steps: 0,
            fuel,
            next_frame: 0,
        }
    }

    /// Execute `func` with `args`, discarding trace events.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] raised during execution.
    pub fn run(&mut self, func: FuncId, args: &[RtVal]) -> Result<Option<RtVal>, ExecError> {
        self.run_traced(func, args, &mut NullSink)
    }

    /// Execute `func` with `args`, delivering every event to `sink`.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] raised during execution.
    pub fn run_traced<S: TraceSink>(
        &mut self,
        func: FuncId,
        args: &[RtVal],
        sink: &mut S,
    ) -> Result<Option<RtVal>, ExecError> {
        let mut run = Run {
            module: self.module,
            mem: std::mem::take(&mut self.mem),
            output: std::mem::take(&mut self.output),
            profile: std::mem::take(&mut self.profile),
            steps: self.steps,
            fuel: self.fuel,
            next_frame: self.next_frame,
            frame: 0,
            depth: 0,
            sink,
            load: None,
            store: None,
        };
        if S::TRACES {
            for (obj, origin) in run.mem.objects() {
                run.sink.on_alloc(obj, origin);
            }
        }
        let ran = run.exec_function(func, args.to_vec(), u64::MAX);
        // The state moves back on error too.
        (self.mem, self.output, self.profile) = (run.mem, run.output, run.profile);
        (self.steps, self.next_frame) = (run.steps, run.next_frame);
        self.profile.total = self.steps;
        ran
    }

    /// Execute the module's `main` function (no arguments).
    ///
    /// # Errors
    ///
    /// [`ExecError`] from execution; panics if no `main` exists.
    pub fn run_main<S: TraceSink>(&mut self, sink: &mut S) -> Result<Option<RtVal>, ExecError> {
        let main = self
            .module
            .function_by_name("main")
            .expect("module has a main function");
        self.run_traced(main, &[], sink)
    }

    /// The accumulated profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Lines printed by `print_i64` / `print_f64`.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Total dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The interpreter's heap (final-memory inspection, differential
    /// testing against the parallel runtime).
    pub fn mem(&self) -> &MemState {
        &self.mem
    }
}

/// One run of an [`Interpreter`]: it owns the interpreter's heap, output,
/// counters and profile for the length of the run, plus the sink and the
/// one loads/stores scratch every traced step of the run reuses (an
/// instruction reads at most one cell and writes at most one).
struct Run<'m, 's, S> {
    module: &'m Module,
    mem: MemState,
    output: Vec<String>,
    profile: Profile,
    steps: u64,
    fuel: u64,
    next_frame: u64,
    /// The id of the executing activation.
    frame: u64,
    depth: u32,
    sink: &'s mut S,
    /// The cells the current step read and wrote, taken by its event.
    load: Option<MemAddr>,
    store: Option<MemAddr>,
}

impl<S: TraceSink> Run<'_, '_, S> {
    /// The interpreter's block loop: one activation of `func_id`, called
    /// by the step with trace index `call_step`.
    fn exec_function(
        &mut self,
        func_id: FuncId,
        args: Vec<RtVal>,
        call_step: u64,
    ) -> Result<Option<RtVal>, ExecError> {
        let func = self.module.function(func_id);
        let id = self.next_frame;
        self.next_frame += 1;
        let caller = std::mem::replace(&mut self.frame, id);
        if S::TRACES {
            self.sink.on_enter(id, func_id, call_step);
        }
        let mut frame = Frame::new(func, args);
        let mut block = func.entry();
        let ret = 'blocks: loop {
            self.profile.block_count[func_id.index()][block.index()] += 1;
            if S::TRACES {
                self.sink.on_block(id, func_id, block);
            }
            for &inst in &func.block(block).insts {
                match step(self, func_id, func, &mut frame, inst)? {
                    Flow::Next => {}
                    Flow::Jump(next) => {
                        block = next;
                        continue 'blocks;
                    }
                    Flow::Return(v) => break 'blocks v,
                }
            }
            unreachable!("block without terminator survived verification");
        };
        if S::TRACES {
            self.sink.on_exit(id, func_id, self.steps - 1);
        }
        self.frame = caller;
        Ok(ret)
    }
}

impl<S: TraceSink> Machine for Run<'_, '_, S> {
    const TRACES: bool = S::TRACES;

    fn state(&mut self) -> (&mut MemState, &mut Vec<String>, &mut u64, u64) {
        (&mut self.mem, &mut self.output, &mut self.steps, self.fuel)
    }

    fn depth(&mut self) -> &mut u32 {
        &mut self.depth
    }

    fn call(
        &mut self,
        func: FuncId,
        inst: InstId,
        callee: FuncId,
        args: Vec<RtVal>,
    ) -> Result<Option<RtVal>, ExecError> {
        let index = self.steps - 1;
        if S::TRACES {
            // The call's step goes out before the callee's, so the trace
            // stays in execution order.
            self.on_step(func, inst);
        }
        self.exec_function(callee, args, index)
    }

    fn on_load(&mut self, addr: MemAddr) {
        self.load = Some(addr);
    }

    fn on_store(&mut self, addr: MemAddr) {
        self.store = Some(addr);
    }

    fn on_alloc(&mut self, obj: ObjId, origin: ObjOrigin) {
        self.sink.on_alloc(obj, origin);
    }

    #[inline]
    fn on_step(&mut self, func: FuncId, inst: InstId) {
        self.sink.on_step(&Step {
            frame: self.frame,
            func,
            inst,
            index: self.steps - 1,
            loads: self.load.take().as_slice(),
            stores: self.store.take().as_slice(),
        });
    }
}

/// The runtime value of a constant.
pub fn const_val(c: Constant) -> RtVal {
    match c {
        Constant::Int(v) => RtVal::Int(v),
        Constant::Float(v) => RtVal::Float(v),
        Constant::Bool(v) => RtVal::Bool(v),
    }
}

/// The zero value of a scalar type (`Undef` for aggregates).
fn zero_of(ty: &Type) -> RtVal {
    match ty {
        Type::I64 => RtVal::Int(0),
        Type::F64 => RtVal::Float(0.0),
        Type::Bool => RtVal::Bool(false),
        _ => RtVal::Undef,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Module;

    /// sum of 0..n via a loop using a stack slot (the `parse` round-trip
    /// tests print it too).
    pub(crate) fn sum_module() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let f = m.declare_function_with("sum", &[("n", Type::I64)], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let latch = b.create_block("latch");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let i = b.alloca(Type::I64, "i");
            let acc = b.alloca(Type::I64, "acc");
            b.store(i, Value::const_int(0));
            b.store(acc, Value::const_int(0));
            b.br(header);
            b.switch_to_block(header);
            let iv = b.load(i, Type::I64);
            let c = b.cmp(CmpOp::Lt, iv, Value::Param(0));
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let a = b.load(acc, Type::I64);
            let iv2 = b.load(i, Type::I64);
            let s = b.binary(BinOp::Add, a, iv2);
            b.store(acc, s);
            b.br(latch);
            b.switch_to_block(latch);
            let iv3 = b.load(i, Type::I64);
            let nx = b.binary(BinOp::Add, iv3, Value::const_int(1));
            b.store(i, nx);
            b.br(header);
            b.switch_to_block(exit);
            let r = b.load(acc, Type::I64);
            b.ret(Some(r));
        }
        m.verify().expect("verifies");
        (m, f)
    }

    #[test]
    fn fork_tracks_dirty_cells_and_cow_pages() {
        let mut m = Module::new("m");
        let g = m.declare_global("a", Type::array(Type::I64, 200), GlobalInit::Zero);
        let mut base = MemState::for_module(&m);
        let obj = base.global_object(g);
        // Base writes are not tracked.
        base.write(MemAddr { obj, off: 0 }, RtVal::Int(7));
        assert_eq!(base.dirty_cells(), 0);

        let mut fork = base.fork();
        assert_eq!(fork.dirty_cells(), 0);
        assert_eq!(fork.cow_pages(), 0);
        // Two writes on one page, one on another.
        fork.write(MemAddr { obj, off: 3 }, RtVal::Int(30));
        fork.write(MemAddr { obj, off: 5 }, RtVal::Int(50));
        fork.write(MemAddr { obj, off: 130 }, RtVal::Int(99));
        assert_eq!(fork.dirty_cells(), 3);
        assert_eq!(fork.cow_pages(), 2, "two shared pages materialized");
        // Rewriting a dirty cell does not double-count.
        fork.write(MemAddr { obj, off: 3 }, RtVal::Int(31));
        assert_eq!(fork.dirty_cells(), 3);

        let mut seen = Vec::new();
        fork.for_each_dirty(|addr, v| seen.push((addr.off, v)));
        seen.sort_by_key(|(off, _)| *off);
        assert_eq!(
            seen,
            vec![
                (3, RtVal::Int(31)),
                (5, RtVal::Int(50)),
                (130, RtVal::Int(99)),
            ]
        );
        // The base heap never observed the fork's writes.
        assert_eq!(base.read(MemAddr { obj, off: 3 }), RtVal::Int(0));
        assert_eq!(base.read(MemAddr { obj, off: 0 }), RtVal::Int(7));
    }

    #[test]
    fn try_for_each_dirty_aborts_at_the_faulting_cell() {
        let mut m = Module::new("m");
        let g = m.declare_global("a", Type::array(Type::I64, 64), GlobalInit::Zero);
        let base = MemState::for_module(&m);
        let obj = base.global_object(g);
        let mut fork = base.fork();
        for off in [2u32, 9, 17] {
            fork.write(MemAddr { obj, off }, RtVal::Int(i64::from(off)));
        }
        // The commit fault hook: the visitor aborts the walk partway and
        // the walk reports the abort instead of finishing.
        let mut visited = 0u32;
        let r = fork.try_for_each_dirty(|_, _| {
            visited += 1;
            if visited == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(r.is_break());
        assert_eq!(visited, 2, "the walk stops at the faulting cell");
        // The infallible wrapper still sees everything.
        let mut all = 0u32;
        fork.for_each_dirty(|_, _| all += 1);
        assert_eq!(all, 3);
    }

    #[test]
    fn fork_allocations_are_untracked() {
        let m = Module::new("m");
        let base = MemState::for_module(&m);
        let mut fork = base.fork();
        let obj = fork.alloc(
            ObjOrigin::Alloca {
                func: FuncId(0),
                inst: InstId(0),
            },
            4,
        );
        fork.write(MemAddr { obj, off: 1 }, RtVal::Int(1));
        assert_eq!(
            fork.dirty_cells(),
            0,
            "worker-local objects die with the fork"
        );
    }

    #[test]
    fn runs_loop_to_completion() {
        let (m, f) = sum_module();
        let mut interp = Interpreter::new(&m);
        let r = interp.run(f, &[RtVal::Int(10)]).unwrap();
        assert_eq!(r, Some(RtVal::Int(45)));
    }

    #[test]
    fn profile_counts_iterations() {
        let (m, f) = sum_module();
        let mut interp = Interpreter::new(&m);
        interp.run(f, &[RtVal::Int(10)]).unwrap();
        let p = interp.profile();
        // header entered 11 times (10 iterations + exit check)
        assert_eq!(p.block_count[f.index()][1], 11);
        // body entered 10 times
        assert_eq!(p.block_count[f.index()][2], 10);
        assert!(p.total > 0);
    }

    #[test]
    fn out_of_fuel() {
        let (m, f) = sum_module();
        let mut interp = Interpreter::with_fuel(&m, 10);
        let err = interp.run(f, &[RtVal::Int(1_000_000)]).unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel);
    }

    #[test]
    fn arrays_and_geps() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", vec![], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let a = b.alloca(Type::array(Type::I64, 4), "a");
            for k in 0..4 {
                let p = b.gep(a, Value::const_int(k), Type::I64);
                b.store(p, Value::const_int(k * k));
            }
            let p2 = b.gep(a, Value::const_int(3), Type::I64);
            let v = b.load(p2, Type::I64);
            b.ret(Some(v));
        }
        m.verify().unwrap();
        let mut interp = Interpreter::new(&m);
        assert_eq!(interp.run(f, &[]).unwrap(), Some(RtVal::Int(9)));
    }

    #[test]
    fn oob_detected() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", vec![], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let a = b.alloca(Type::array(Type::I64, 4), "a");
            let p = b.gep(a, Value::const_int(4), Type::I64);
            let v = b.load(p, Type::I64);
            b.ret(Some(v));
        }
        let mut interp = Interpreter::new(&m);
        match interp.run(f, &[]).unwrap_err() {
            ExecError::OutOfBounds { off, size, .. } => {
                assert_eq!(off, 4);
                assert_eq!(size, 4);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn undef_read_detected() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", vec![], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let a = b.alloca(Type::I64, "x");
            let v = b.load(a, Type::I64);
            b.ret(Some(v));
        }
        let mut interp = Interpreter::new(&m);
        assert!(matches!(
            interp.run(f, &[]).unwrap_err(),
            ExecError::UndefRead { .. }
        ));
    }

    #[test]
    fn globals_are_initialized() {
        let mut m = Module::new("m");
        let g = m.declare_global(
            "tab",
            Type::array(Type::I64, 3),
            GlobalInit::Data(vec![Constant::Int(7), Constant::Int(8), Constant::Int(9)]),
        );
        let zg = m.declare_global("z", Type::array(Type::F64, 2), GlobalInit::Zero);
        let f = m.declare_function("f", vec![], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let p = b.gep(Value::Global(g), Value::const_int(1), Type::I64);
            let v = b.load(p, Type::I64);
            let zp = b.gep(Value::Global(zg), Value::const_int(1), Type::F64);
            let z = b.load(zp, Type::F64);
            let zi = b.cast(CastKind::FloatToInt, z);
            let r = b.binary(BinOp::Add, v, zi);
            b.ret(Some(r));
        }
        m.verify().unwrap();
        let mut interp = Interpreter::new(&m);
        assert_eq!(interp.run(f, &[]).unwrap(), Some(RtVal::Int(8)));
    }

    #[test]
    fn calls_and_output() {
        let mut m = Module::new("m");
        let sq = m.declare_function_with("sq", &[("x", Type::I64)], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(sq));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let v = b.binary(BinOp::Mul, Value::Param(0), Value::Param(0));
            b.ret(Some(v));
        }
        let f = m.declare_function("main", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let r = b.call(sq, vec![Value::const_int(6)], Type::I64);
            b.intrinsic(Intrinsic::PrintI64, vec![r]);
            b.ret(None);
        }
        m.verify().unwrap();
        let mut interp = Interpreter::new(&m);
        interp.run_main(&mut NullSink).unwrap();
        assert_eq!(interp.output(), &["36".to_string()]);
    }

    /// A sink that counts the cells the steps touched.
    #[derive(Default)]
    struct Recorder {
        loads: usize,
        stores: usize,
    }

    impl TraceSink for Recorder {
        fn on_step(&mut self, s: &Step<'_>) {
            self.loads += s.loads.len();
            self.stores += s.stores.len();
        }
    }

    #[test]
    fn trace_memory_addresses() {
        let (m, f) = sum_module();
        let mut interp = Interpreter::new(&m);
        let mut rec = Recorder::default();
        interp.run_traced(f, &[RtVal::Int(3)], &mut rec).unwrap();
        // stores: 2 init + 3 acc updates + 3 iv updates = 8
        assert_eq!(rec.stores, 8);
        // loads: header 4×, body 2×3, latch 1×3, exit 1 = 4+6+3+1 = 14
        assert_eq!(rec.loads, 14);
    }
}
