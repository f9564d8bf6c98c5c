//! The compiled execution tier: threaded-code lowering of hot
//! straight-line slices.
//!
//! The runtime's chunk workers interpret every instruction — opcode
//! decode, operand `match`, register indirection — which swamps the
//! parallelism the plans prove (predicted 8–636x vs ~1.04x measured in
//! `BENCH_runtime.json`). This module pre-resolves each scheduled
//! chunked-loop body's straight-line blocks into flat arrays of
//! **pre-bound op templates** ([`CompiledOp`]): every operand is resolved
//! once, at compile time, to a frame slot ([`Slot`]), so execution is a
//! single dense `match` per op with no per-step `Inst` decode or `Value`
//! match.
//!
//! ## Supported slice shapes & bailout invariants
//!
//! A block compiles iff it is straight-line compute: loads, stores, geps,
//! binary/unary/cmp/cast ops, intrinsic calls, and a `br`/`condbr`
//! terminator. Blocks containing `call`, `alloca`, or `ret` are left to
//! the interpreter (per-block granularity — a loop can mix compiled and
//! interpreted blocks); deferred critical-region entry blocks are never
//! compiled (the worker detours through the replay path before block
//! dispatch). A compiled block that faults mid-slice (bad address, undef
//! load, evaluator error, fuel exhaustion, or an injected
//! `CompiledSlice` fault) reports a plain `Err(())`: the worker aborts
//! the activation, the master's heap is untouched, and the loop re-runs
//! on the interpreter — which reproduces any real fault in sequential
//! order — under the `compiled_bailout` fallback cause. The interpreter
//! therefore remains the bit-identical oracle for every lowered slice:
//! a compiled block that *completes* has written exactly the registers,
//! cells, and output lines interpretation would have.

use std::collections::HashMap;

use pspdg_ir::interp::{
    const_val, eval_binop, eval_cast, eval_cmp, eval_intrinsic, eval_unop, opcode_of, MemState,
    RtVal,
};
use pspdg_ir::{
    BinOp, BlockId, CastKind, CmpOp, FuncId, Function, GlobalId, Inst, Intrinsic, Module, UnOp,
    Value,
};
use pspdg_obs::Opcode;
use pspdg_parallelizer::{ExecutablePlan, LoopExec};

/// Which execution tier chunk workers use for scheduled loop bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompiledTier {
    /// Pure interpretation (the differential oracle).
    Off,
    /// Threaded code: pre-bound op templates, no per-step decode (the
    /// production default).
    #[default]
    Threaded,
}

impl CompiledTier {
    /// Tier name for reports (`BENCH_runtime.json` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            CompiledTier::Off => "interpreted",
            CompiledTier::Threaded => "threaded",
        }
    }
}

/// A pre-resolved operand: where an op's input lives at execution time.
/// Resolved once at compile time from the IR's `Value` — executing a slot
/// is an array index or an immediate, never a `Value` match.
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// The defining instruction's register (`frame.regs[i]`).
    Reg(u32),
    /// An immediate, pre-converted from the IR constant.
    Const(RtVal),
    /// A function argument (`frame.args[i]`).
    Arg(u32),
    /// A global's base pointer (object id resolved against the executing
    /// heap, which differs between master and worker forks).
    Global(GlobalId),
}

impl Slot {
    fn of(v: Value) -> Slot {
        match v {
            Value::Const(c) => Slot::Const(const_val(c)),
            Value::Inst(i) => Slot::Reg(i.index() as u32),
            Value::Param(p) => Slot::Arg(p as u32),
            Value::Global(g) => Slot::Global(g),
        }
    }
}

/// One pre-bound op template. `dst` is the defining instruction's register
/// index.
#[derive(Debug, Clone)]
pub enum CompiledOp {
    /// Memory read (bounds-checked; undef cell is a bailout, as the
    /// interpreter's `UndefRead`).
    Load {
        /// Cell pointer.
        ptr: Slot,
        /// Destination register.
        dst: u32,
    },
    /// Memory write (defines `Undef`, like the interpreter).
    Store {
        /// Cell pointer.
        ptr: Slot,
        /// Stored value.
        value: Slot,
        /// Destination register (written `Undef`).
        dst: u32,
    },
    /// Address arithmetic `base + index × elem_len`.
    Gep {
        /// Base pointer.
        base: Slot,
        /// Element index.
        index: Slot,
        /// Flattened element size (cells).
        elem_len: i64,
        /// Destination register.
        dst: u32,
    },
    /// Two-operand arithmetic (interpreter's own evaluator).
    Bin {
        /// Opcode.
        op: BinOp,
        /// Left operand.
        lhs: Slot,
        /// Right operand.
        rhs: Slot,
        /// Destination register.
        dst: u32,
    },
    /// One-operand arithmetic.
    Un {
        /// Opcode.
        op: UnOp,
        /// Operand.
        operand: Slot,
        /// Destination register.
        dst: u32,
    },
    /// Comparison.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        lhs: Slot,
        /// Right operand.
        rhs: Slot,
        /// Destination register.
        dst: u32,
    },
    /// Scalar conversion.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Operand.
        value: Slot,
        /// Destination register.
        dst: u32,
    },
    /// Intrinsic call (math built-ins and prints; prints append to the
    /// worker's output exactly as interpretation would).
    Intrinsic {
        /// Which built-in.
        intrinsic: Intrinsic,
        /// Argument slots.
        args: Vec<Slot>,
        /// Destination register.
        dst: u32,
    },
}

/// A compiled block's terminator, pre-resolved.
#[derive(Debug, Clone)]
enum CompiledTerm {
    /// Unconditional jump.
    Br(BlockId),
    /// Two-way branch on a bool slot (non-bool is a bailout, as the
    /// interpreter's type mismatch).
    CondBr {
        cond: Slot,
        then_bb: BlockId,
        else_bb: BlockId,
    },
}

/// One straight-line block lowered to threaded code.
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    ops: Vec<CompiledOp>,
    term: CompiledTerm,
    /// Dynamic step cost of the block = its original instruction count
    /// (terminator included), so the engine's step counter matches
    /// interpretation exactly.
    pub cost: u64,
    /// The block's original opcode sequence (length == `cost`), fed to the
    /// opcode profiler in order so merged totals still equal the step
    /// counter and pair counts match the interpreted stream.
    pub opcodes: Vec<Opcode>,
}

/// All compiled blocks of one scheduled chunked loop.
#[derive(Debug, Clone, Default)]
pub struct CompiledBody {
    blocks: HashMap<BlockId, CompiledBlock>,
}

impl CompiledBody {
    /// The compiled lowering of `bb`, if that block compiled.
    pub fn block(&self, bb: BlockId) -> Option<&CompiledBlock> {
        self.blocks.get(&bb)
    }

    /// Number of compiled blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no block of the loop compiled.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The compiled tier of one program under one executable plan: per
/// chunked loop, the threaded-code body.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    bodies: HashMap<(FuncId, BlockId), CompiledBody>,
}

impl CompiledProgram {
    /// The compiled body of the chunked loop headed at `header`, if any
    /// of its blocks compiled.
    pub fn body(&self, func: FuncId, header: BlockId) -> Option<&CompiledBody> {
        self.bodies.get(&(func, header))
    }

    /// Total compiled blocks across all loops (static count).
    pub fn compiled_blocks_total(&self) -> usize {
        self.bodies.values().map(CompiledBody::len).sum()
    }
}

/// Lower every scheduled chunked loop of `plan` to threaded code.
/// Deterministic; [`CompiledTier::Off`] returns an empty program.
pub fn compile_program(
    module: &Module,
    plan: &ExecutablePlan,
    tier: CompiledTier,
) -> CompiledProgram {
    let mut out = CompiledProgram::default();
    if tier == CompiledTier::Off {
        return out;
    }
    for sched in plan.schedules() {
        let LoopExec::Chunked(c) = &sched.exec else {
            continue;
        };
        let f = module.function(sched.func);
        let mut body = CompiledBody::default();
        for &bb in &sched.blocks {
            // Critical-region entries are never block-dispatched by
            // workers (the replay detour intercepts them first).
            if c.criticals.iter().any(|cr| cr.entry == bb) {
                continue;
            }
            if let Some(cb) = compile_block(f, bb) {
                body.blocks.insert(bb, cb);
            }
        }
        if !body.is_empty() {
            out.bodies.insert((sched.func, sched.header), body);
        }
    }
    out
}

/// Lower one block, or `None` if it contains an unsupported shape
/// (`call` / `alloca` / `ret`, or a malformed terminator position).
fn compile_block(f: &Function, bb: BlockId) -> Option<CompiledBlock> {
    let insts = &f.block(bb).insts;
    let mut ops = Vec::with_capacity(insts.len());
    let mut term = None;
    let mut opcodes = Vec::with_capacity(insts.len());
    for &i in insts {
        let inst = &f.inst(i).inst;
        // A terminator anywhere but last is malformed; don't compile.
        if term.is_some() {
            return None;
        }
        opcodes.push(opcode_of(inst));
        let dst = i.index() as u32;
        match inst {
            Inst::Load { ptr, .. } => ops.push(CompiledOp::Load {
                ptr: Slot::of(*ptr),
                dst,
            }),
            Inst::Store { ptr, value } => ops.push(CompiledOp::Store {
                ptr: Slot::of(*ptr),
                value: Slot::of(*value),
                dst,
            }),
            Inst::Gep {
                base,
                index,
                elem_ty,
            } => ops.push(CompiledOp::Gep {
                base: Slot::of(*base),
                index: Slot::of(*index),
                elem_len: elem_ty.flat_len() as i64,
                dst,
            }),
            Inst::Binary { op, lhs, rhs } => ops.push(CompiledOp::Bin {
                op: *op,
                lhs: Slot::of(*lhs),
                rhs: Slot::of(*rhs),
                dst,
            }),
            Inst::Unary { op, operand } => ops.push(CompiledOp::Un {
                op: *op,
                operand: Slot::of(*operand),
                dst,
            }),
            Inst::Cmp { op, lhs, rhs } => ops.push(CompiledOp::Cmp {
                op: *op,
                lhs: Slot::of(*lhs),
                rhs: Slot::of(*rhs),
                dst,
            }),
            Inst::Cast { kind, value } => ops.push(CompiledOp::Cast {
                kind: *kind,
                value: Slot::of(*value),
                dst,
            }),
            Inst::IntrinsicCall { intrinsic, args } => ops.push(CompiledOp::Intrinsic {
                intrinsic: *intrinsic,
                args: args.iter().map(|a| Slot::of(*a)).collect(),
                dst,
            }),
            Inst::Br { target } => term = Some(CompiledTerm::Br(*target)),
            Inst::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                term = Some(CompiledTerm::CondBr {
                    cond: Slot::of(*cond),
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                });
            }
            Inst::Call { .. } | Inst::Alloca { .. } | Inst::Ret { .. } => return None,
        }
    }
    let term = term?;
    Some(CompiledBlock {
        cost: opcodes.len() as u64,
        ops,
        term,
        opcodes,
    })
}

/// Read a slot's value. Infallible for well-formed programs; a
/// out-of-range argument index bails out.
#[inline]
fn get(s: &Slot, regs: &[RtVal], args: &[RtVal], mem: &MemState) -> Result<RtVal, ()> {
    match s {
        Slot::Reg(r) => Ok(regs[*r as usize]),
        Slot::Const(v) => Ok(*v),
        Slot::Arg(a) => args.get(*a as usize).copied().ok_or(()),
        Slot::Global(g) => Ok(RtVal::Ptr {
            obj: mem.global_object(*g),
            off: 0,
        }),
    }
}

/// Bounds-checked, undef-checked load.
#[inline]
fn load(mem: &MemState, ptr: RtVal) -> Result<RtVal, ()> {
    let a = mem.deref(ptr).map_err(|_| ())?;
    let v = mem.read(a);
    if matches!(v, RtVal::Undef) {
        return Err(());
    }
    Ok(v)
}

/// Address arithmetic on a pre-resolved base/index pair.
#[inline]
fn gep(base: RtVal, index: RtVal, elem_len: i64) -> Result<RtVal, ()> {
    match (base, index) {
        (RtVal::Ptr { obj, off }, RtVal::Int(i)) => Ok(RtVal::Ptr {
            obj,
            off: off + i * elem_len,
        }),
        _ => Err(()),
    }
}

/// Execute one compiled block against a worker frame and heap. On success
/// returns the successor block, with `regs`, `mem`, and `output` in
/// exactly the state interpretation would have left them. Any fault —
/// which interpretation would surface as an `ExecError` at the same
/// instruction — returns `Err(())`; the caller discards the activation
/// and the sequential re-run reproduces the real fault in order.
#[allow(clippy::result_unit_err)] // the fault is deliberately opaque: callers only discard and re-run
pub fn run_block(
    cb: &CompiledBlock,
    regs: &mut [RtVal],
    args: &[RtVal],
    mem: &mut MemState,
    output: &mut Vec<String>,
) -> Result<BlockId, ()> {
    for op in &cb.ops {
        match op {
            CompiledOp::Load { ptr, dst } => {
                regs[*dst as usize] = load(mem, get(ptr, regs, args, mem)?)?;
            }
            CompiledOp::Bin { op, lhs, rhs, dst } => {
                let (l, r) = (get(lhs, regs, args, mem)?, get(rhs, regs, args, mem)?);
                regs[*dst as usize] = eval_binop(*op, l, r).map_err(|_| ())?;
            }
            CompiledOp::Gep {
                base,
                index,
                elem_len,
                dst,
            } => {
                let (b, i) = (get(base, regs, args, mem)?, get(index, regs, args, mem)?);
                regs[*dst as usize] = gep(b, i, *elem_len)?;
            }
            CompiledOp::Store { ptr, value, dst } => {
                let a = mem.deref(get(ptr, regs, args, mem)?).map_err(|_| ())?;
                let v = get(value, regs, args, mem)?;
                mem.write(a, v);
                regs[*dst as usize] = RtVal::Undef;
            }
            CompiledOp::Cmp { op, lhs, rhs, dst } => {
                let (l, r) = (get(lhs, regs, args, mem)?, get(rhs, regs, args, mem)?);
                regs[*dst as usize] = RtVal::Bool(eval_cmp(*op, l, r).map_err(|_| ())?);
            }
            CompiledOp::Cast { kind, value, dst } => {
                let v = get(value, regs, args, mem)?;
                regs[*dst as usize] = eval_cast(*kind, v).map_err(|_| ())?;
            }
            CompiledOp::Un { op, operand, dst } => {
                let v = get(operand, regs, args, mem)?;
                regs[*dst as usize] = eval_unop(*op, v).map_err(|_| ())?;
            }
            CompiledOp::Intrinsic {
                intrinsic,
                args: islots,
                dst,
            } => {
                // No intrinsic reads past its second argument.
                let mut vals = [RtVal::Undef; 2];
                for (slot, s) in vals.iter_mut().zip(islots) {
                    *slot = get(s, regs, args, mem)?;
                }
                let vals = vals.into_iter().take(islots.len());
                regs[*dst as usize] = eval_intrinsic(*intrinsic, vals, output).map_err(|_| ())?;
            }
        }
    }
    match &cb.term {
        CompiledTerm::Br(t) => Ok(*t),
        CompiledTerm::CondBr {
            cond,
            then_bb,
            else_bb,
        } => match get(cond, regs, args, mem)? {
            RtVal::Bool(true) => Ok(*then_bb),
            RtVal::Bool(false) => Ok(*else_bb),
            _ => Err(()),
        },
    }
}
