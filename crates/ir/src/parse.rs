//! Parser for the textual IR form produced by [`crate::display`].
//!
//! The printer → parser round trip normalizes instruction ids: they are
//! reassigned densely in reading order (the printer omits ids of void
//! instructions, so original arena positions cannot be recovered). After
//! one parse+print cycle the text is in normal form — further cycles are
//! the identity — and execution semantics are preserved exactly. For
//! modules whose ids are already dense and block-ordered (like the one
//! below), a single round trip is already the identity:
//!
//! ```
//! use pspdg_ir::{Module, Type, FunctionBuilder, Value, BinOp};
//! use pspdg_ir::parse::parse_module;
//!
//! let mut m = Module::new("demo");
//! let f = m.declare_function("f", vec![], Type::I64);
//! {
//!     let mut b = FunctionBuilder::new(m.function_mut(f));
//!     let entry = b.create_block("entry");
//!     b.switch_to_block(entry);
//!     let v = b.binary(BinOp::Add, Value::const_int(1), Value::const_int(2));
//!     b.ret(Some(v));
//! }
//! let text = m.to_string();
//! let reparsed = parse_module(&text).expect("parses");
//! assert_eq!(reparsed.to_string(), text);
//! ```
//!
//! Restriction: global initializers longer than eight cells print with an
//! ellipsis and cannot round-trip; [`parse_module`] rejects them.

use std::collections::HashMap;
use std::fmt;

use crate::function::{GlobalInit, Module, Param};
use crate::inst::{BinOp, CastKind, CmpOp, Intrinsic, UnOp};
use crate::types::Type;
use crate::value::{BlockId, Constant, FuncId, GlobalId, Value};

/// A textual-IR parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIrError {
    /// Source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseIrError {}

/// Parse a module from the printer's textual form.
///
/// # Errors
///
/// Malformed syntax, unknown opcodes, dangling `%N` references, and
/// elided (`…`) global initializers.
pub fn parse_module(text: &str) -> Result<Module, ParseIrError> {
    let mut module = Parser::new(text).module()?;
    // The textual form does not carry call result types; recover them from
    // the callee signatures (which may appear after the caller).
    let rets: Vec<Type> = module.functions.iter().map(|f| f.ret_ty.clone()).collect();
    for f in &mut module.functions {
        for data in &mut f.insts {
            if let crate::inst::Inst::Call { callee, .. } = &data.inst {
                if let Some(ret) = rets.get(callee.index()) {
                    data.ty = ret.clone();
                }
            }
        }
    }
    Ok(module)
}

struct Parser<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            lines: text.lines().collect(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseIrError {
        ParseIrError {
            line: self.pos + 1,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<&'a str> {
        let l = self.peek();
        self.pos += 1;
        l
    }

    fn module(&mut self) -> Result<Module, ParseIrError> {
        // `; module NAME`
        let first = self.bump().ok_or_else(|| self.err("empty input"))?;
        let name = first
            .strip_prefix("; module ")
            .ok_or_else(|| self.err("expected `; module <name>`"))?;
        let mut module = Module::new(name.trim());
        while let Some(line) = self.peek() {
            let t = line.trim();
            if t.is_empty() {
                self.pos += 1;
            } else if t.starts_with("global ") {
                self.global(&mut module)?;
            } else if t.starts_with("func ") {
                self.function(&mut module)?;
            } else {
                return Err(self.err(format!("unexpected line {t:?}")));
            }
        }
        Ok(module)
    }

    fn global(&mut self, module: &mut Module) -> Result<(), ParseIrError> {
        // `global @gN : TYPE ; NAME = zeroinit` or `... = [c, c, …]`
        let line = self.bump().unwrap().trim();
        let rest = line.strip_prefix("global ").unwrap();
        let (_id, rest) = rest
            .split_once(" : ")
            .ok_or_else(|| self.err("expected `global @gN : <type>`"))?;
        let (ty_and_name, init) = rest
            .split_once(" = ")
            .ok_or_else(|| self.err("expected global initializer"))?;
        let (ty_text, name) = ty_and_name
            .split_once(" ; ")
            .ok_or_else(|| self.err("expected `; <name>` on global"))?;
        let ty = parse_type(ty_text).map_err(|m| self.err(m))?;
        let init = if init == "zeroinit" {
            GlobalInit::Zero
        } else {
            let body = init
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| self.err("expected `[...]` initializer"))?;
            if body.contains('…') {
                return Err(self.err("elided global initializer cannot round-trip"));
            }
            let mut cells = Vec::new();
            for cell in body.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                cells.push(parse_constant(cell).map_err(|m| self.err(m))?);
            }
            GlobalInit::Data(cells)
        };
        module.declare_global(name.trim(), ty, init);
        Ok(())
    }

    fn function(&mut self, module: &mut Module) -> Result<(), ParseIrError> {
        // `func @NAME(%arg0: T, ...) -> RET {`
        let header = self.bump().unwrap().trim();
        let rest = header
            .strip_prefix("func @")
            .ok_or_else(|| self.err("expected `func @`"))?;
        let (name, rest) = rest
            .split_once('(')
            .ok_or_else(|| self.err("expected parameter list"))?;
        let (params_text, rest) = rest
            .split_once(')')
            .ok_or_else(|| self.err("unterminated parameter list"))?;
        let ret_text = rest
            .trim()
            .strip_prefix("->")
            .and_then(|s| s.trim().strip_suffix('{'))
            .ok_or_else(|| self.err("expected `-> <type> {{`"))?;
        let mut params = Vec::new();
        for (i, p) in params_text
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .enumerate()
        {
            let (pname, pty) = p
                .split_once(':')
                .ok_or_else(|| self.err("expected `%argN: <type>`"))?;
            if pname.trim() != format!("%arg{i}") {
                return Err(self.err(format!("expected %arg{i}, found {pname}")));
            }
            params.push(Param {
                name: format!("arg{i}"),
                ty: parse_type(pty.trim()).map_err(|m| self.err(m))?,
            });
        }
        let ret_ty = parse_type(ret_text.trim()).map_err(|m| self.err(m))?;
        let func_id = module.declare_function(name, params, ret_ty);

        // Body: `bbN (label):` followed by instruction lines, until `}`.
        let mut builder = crate::builder::FunctionBuilder::new(module.function_mut(func_id));
        // First pass within the body: we must create blocks before branches
        // reference them, so scan ahead for block headers.
        let body_start = self.pos;
        let mut block_count = 0;
        while let Some(line) = self.lines.get(self.pos) {
            let t = line.trim();
            self.pos += 1;
            if t == "}" {
                break;
            }
            if t.starts_with("bb") && t.ends_with(':') {
                block_count += 1;
            }
        }
        let body_end = self.pos;
        self.pos = body_start;
        let mut labels: Vec<String> = Vec::new();
        for line in &self.lines[body_start..body_end] {
            let t = line.trim();
            if t.starts_with("bb") && t.ends_with(':') {
                let label = t
                    .split_once('(')
                    .and_then(|(_, r)| r.strip_suffix("):"))
                    .unwrap_or("")
                    .to_string();
                labels.push(label);
            }
        }
        debug_assert_eq!(labels.len(), block_count);
        let blocks: Vec<BlockId> = labels
            .iter()
            .map(|l| builder.create_block(l.clone()))
            .collect();

        // Second pass: instructions.
        let mut names: HashMap<u32, Value> = HashMap::new();
        let mut current = 0usize;
        let mut started = false;
        while self.pos < body_end {
            let line = self.lines[self.pos].trim();
            self.pos += 1;
            if line == "}" {
                break;
            }
            if line.is_empty() {
                continue;
            }
            if line.starts_with("bb") && line.ends_with(':') {
                if started {
                    current += 1;
                }
                started = true;
                builder.switch_to_block(blocks[current]);
                continue;
            }
            self.instruction(line, &mut builder, &blocks, &mut names)?;
        }
        Ok(())
    }

    fn instruction(
        &self,
        line: &str,
        b: &mut crate::builder::FunctionBuilder<'_>,
        blocks: &[BlockId],
        names: &mut HashMap<u32, Value>,
    ) -> Result<(), ParseIrError> {
        let (def, body) = match line.split_once(" = ") {
            Some((lhs, rhs)) if lhs.starts_with('%') && !lhs.contains(' ') => {
                let id: u32 = lhs[1..]
                    .parse()
                    .map_err(|_| self.err(format!("bad result name {lhs}")))?;
                (Some(id), rhs)
            }
            _ => (None, line),
        };
        let value = |text: &str| -> Result<Value, ParseIrError> {
            parse_value(text, names).map_err(|m| self.err(m))
        };
        let block = |text: &str| -> Result<BlockId, ParseIrError> {
            let n: usize = text
                .trim()
                .strip_prefix("bb")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| self.err(format!("bad block ref {text}")))?;
            blocks
                .get(n)
                .copied()
                .ok_or_else(|| self.err(format!("block {text} out of range")))
        };
        let (op, rest) = body.split_once(' ').unwrap_or((body, ""));
        let result: Option<Value> = match op {
            "alloca" => {
                let (ty_text, name) = rest
                    .split_once(" ; ")
                    .ok_or_else(|| self.err("alloca needs `; <name>`"))?;
                Some(b.alloca(
                    parse_type(ty_text.trim()).map_err(|m| self.err(m))?,
                    name.trim(),
                ))
            }
            "load" => {
                let (ty_text, ptr) = rest
                    .split_once(", ")
                    .ok_or_else(|| self.err("load needs two operands"))?;
                Some(b.load(
                    value(ptr)?,
                    parse_type(ty_text.trim()).map_err(|m| self.err(m))?,
                ))
            }
            "store" => {
                let (ptr, v) = rest
                    .split_once(", ")
                    .ok_or_else(|| self.err("store needs two operands"))?;
                b.store(value(ptr)?, value(v)?);
                None
            }
            "gep" => {
                // `gep BASE, INDEX x TYPE`
                let (base, rest2) = rest
                    .split_once(", ")
                    .ok_or_else(|| self.err("gep needs operands"))?;
                let (index, ty_text) = rest2
                    .split_once(" x ")
                    .ok_or_else(|| self.err("gep needs ` x <type>`"))?;
                Some(b.gep(
                    value(base)?,
                    value(index)?,
                    parse_type(ty_text.trim()).map_err(|m| self.err(m))?,
                ))
            }
            "add" | "sub" | "mul" | "div" | "rem" | "and" | "or" | "xor" | "shl" | "shr" => {
                let bin = match op {
                    "add" => BinOp::Add,
                    "sub" => BinOp::Sub,
                    "mul" => BinOp::Mul,
                    "div" => BinOp::Div,
                    "rem" => BinOp::Rem,
                    "and" => BinOp::And,
                    "or" => BinOp::Or,
                    "xor" => BinOp::Xor,
                    "shl" => BinOp::Shl,
                    _ => BinOp::Shr,
                };
                let (l, r) = rest
                    .split_once(", ")
                    .ok_or_else(|| self.err("binary needs two operands"))?;
                Some(b.binary(bin, value(l)?, value(r)?))
            }
            "neg" => Some(b.unary(UnOp::Neg, value(rest)?)),
            "not" => Some(b.unary(UnOp::Not, value(rest)?)),
            "itof" => Some(b.cast(CastKind::IntToFloat, value(rest)?)),
            "ftoi" => Some(b.cast(CastKind::FloatToInt, value(rest)?)),
            "btoi" => Some(b.cast(CastKind::BoolToInt, value(rest)?)),
            "br" => {
                b.br(block(rest)?);
                None
            }
            "condbr" => {
                let parts: Vec<&str> = rest.split(", ").collect();
                if parts.len() != 3 {
                    return Err(self.err("condbr needs three operands"));
                }
                b.cond_br(value(parts[0])?, block(parts[1])?, block(parts[2])?);
                None
            }
            "ret" => {
                if rest.is_empty() {
                    b.ret(None);
                } else {
                    b.ret(Some(value(rest)?));
                }
                None
            }
            "call" => {
                let (callee, args_text) = rest
                    .split_once('(')
                    .and_then(|(c, a)| a.strip_suffix(')').map(|a| (c, a)))
                    .ok_or_else(|| self.err("malformed call"))?;
                let mut args = Vec::new();
                for a in args_text.split(", ").filter(|s| !s.is_empty()) {
                    args.push(value(a)?);
                }
                if let Some(intr_name) = callee.strip_prefix('!') {
                    let intr = Intrinsic::by_name(intr_name)
                        .ok_or_else(|| self.err(format!("unknown intrinsic {intr_name}")))?;
                    Some(b.intrinsic(intr, args))
                } else if let Some(fid) = callee.strip_prefix("@f") {
                    let fid: u32 = fid
                        .parse()
                        .map_err(|_| self.err(format!("bad callee {callee}")))?;
                    // Return type recovered on re-print via the callee; use
                    // a placeholder matched by whether the call has a def.
                    let ret_ty = if def.is_some() { Type::I64 } else { Type::Void };
                    Some(b.call(FuncId(fid), args, ret_ty))
                } else {
                    return Err(self.err(format!("bad callee {callee}")));
                }
            }
            other if other.starts_with("cmp.") => {
                let cmp = match &other[4..] {
                    "eq" => CmpOp::Eq,
                    "ne" => CmpOp::Ne,
                    "lt" => CmpOp::Lt,
                    "le" => CmpOp::Le,
                    "gt" => CmpOp::Gt,
                    "ge" => CmpOp::Ge,
                    bad => return Err(self.err(format!("unknown predicate {bad}"))),
                };
                let (l, r) = rest
                    .split_once(", ")
                    .ok_or_else(|| self.err("cmp needs two operands"))?;
                Some(b.cmp(cmp, value(l)?, value(r)?))
            }
            other => return Err(self.err(format!("unknown opcode {other:?}"))),
        };
        if let (Some(id), Some(v)) = (def, result) {
            names.insert(id, v);
        }
        Ok(())
    }
}

fn parse_type(text: &str) -> Result<Type, String> {
    let text = text.trim();
    match text {
        "void" => Ok(Type::Void),
        "bool" => Ok(Type::Bool),
        "i64" => Ok(Type::I64),
        "f64" => Ok(Type::F64),
        "ptr" => Ok(Type::Ptr),
        _ => {
            let body = text
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| format!("unknown type {text:?}"))?;
            let (elem, len) = body
                .rsplit_once("; ")
                .ok_or_else(|| format!("malformed array type {text:?}"))?;
            let len: u64 = len
                .trim()
                .parse()
                .map_err(|_| format!("bad array length in {text:?}"))?;
            Ok(Type::array(parse_type(elem)?, len))
        }
    }
}

fn parse_constant(text: &str) -> Result<Constant, String> {
    let t = text.trim();
    if t == "true" {
        return Ok(Constant::Bool(true));
    }
    if t == "false" {
        return Ok(Constant::Bool(false));
    }
    if t.contains('.') || t.contains('e') || t.contains("inf") || t.contains("NaN") {
        return t
            .parse::<f64>()
            .map(Constant::Float)
            .map_err(|_| format!("bad float {t:?}"));
    }
    t.parse::<i64>()
        .map(Constant::Int)
        .map_err(|_| format!("bad constant {t:?}"))
}

fn parse_value(text: &str, names: &HashMap<u32, Value>) -> Result<Value, String> {
    let t = text.trim();
    if let Some(rest) = t.strip_prefix("%arg") {
        let i: usize = rest.parse().map_err(|_| format!("bad parameter {t:?}"))?;
        return Ok(Value::Param(i));
    }
    if let Some(rest) = t.strip_prefix("@g") {
        let i: u32 = rest.parse().map_err(|_| format!("bad global {t:?}"))?;
        return Ok(Value::Global(GlobalId(i)));
    }
    if let Some(rest) = t.strip_prefix('%') {
        let i: u32 = rest.parse().map_err(|_| format!("bad name {t:?}"))?;
        return names
            .get(&i)
            .copied()
            .ok_or_else(|| format!("undefined name %{i}"));
    }
    parse_constant(t).map(Value::Const)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::Intrinsic;

    /// print → parse → print is the identity on the textual form.
    fn roundtrips(m: &Module) {
        let text = m.to_string();
        let reparsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed.to_string(), text);
        reparsed.verify().expect("reparsed module verifies");
    }

    #[test]
    fn roundtrip_arithmetic_and_control_flow() {
        let mut m = Module::new("rt");
        let f = m.declare_function_with("f", &[("x", Type::I64)], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            let t = b.create_block("then");
            let e = b.create_block("else");
            b.switch_to_block(entry);
            let c = b.cmp(CmpOp::Lt, Value::Param(0), Value::const_int(10));
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let v = b.binary(BinOp::Mul, Value::Param(0), Value::const_int(3));
            b.ret(Some(v));
            b.switch_to_block(e);
            let w = b.binary(BinOp::Sub, Value::Param(0), Value::const_int(1));
            let w2 = b.unary(UnOp::Neg, w);
            b.ret(Some(w2));
        }
        roundtrips(&m);
    }

    #[test]
    fn roundtrip_memory_and_globals() {
        let mut m = Module::new("rt");
        m.declare_global(
            "tab",
            Type::array(Type::I64, 3),
            GlobalInit::Data(vec![Constant::Int(1), Constant::Int(2), Constant::Int(3)]),
        );
        m.declare_global("buf", Type::array(Type::F64, 100), GlobalInit::Zero);
        let f = m.declare_function("f", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let a = b.alloca(Type::array(Type::F64, 4), "a");
            let p = b.gep(a, Value::const_int(2), Type::F64);
            let v = b.load(p, Type::F64);
            let vi = b.cast(CastKind::FloatToInt, v);
            let vf = b.cast(CastKind::IntToFloat, vi);
            b.store(p, vf);
            b.ret(None);
        }
        roundtrips(&m);
    }

    #[test]
    fn roundtrip_calls_and_intrinsics() {
        let mut m = Module::new("rt");
        let g = m.declare_function_with("g", &[("x", Type::I64)], Type::I64);
        {
            let mut b = FunctionBuilder::new(m.function_mut(g));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            b.ret(Some(Value::Param(0)));
        }
        let f = m.declare_function("main", vec![], Type::Void);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let r = b.call(g, vec![Value::const_int(4)], Type::I64);
            let s = b.intrinsic(Intrinsic::Sqrt, vec![Value::const_float(2.0)]);
            let si = b.cast(CastKind::FloatToInt, s);
            let sum = b.binary(BinOp::Add, r, si);
            b.intrinsic(Intrinsic::PrintI64, vec![sum]);
            b.ret(None);
        }
        roundtrips(&m);
    }

    #[test]
    fn roundtrip_frontend_output() {
        // A loop shaped like the frontend's output round-trips through the
        // printer (the ellipsis restriction only affects >8-cell
        // *initialized* globals; ParC globals are zero-initialized).
        roundtrips(&crate::interp::tests::sum_module().0);
    }

    #[test]
    fn rejects_elided_initializers() {
        let mut m = Module::new("rt");
        m.declare_global(
            "big",
            Type::array(Type::I64, 9),
            GlobalInit::Data((0..9).map(Constant::Int).collect()),
        );
        let text = m.to_string();
        let err = parse_module(&text).unwrap_err();
        assert!(err.message.contains("elided"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_module("nonsense").is_err());
        assert!(parse_module("; module m\nfrobnicate").is_err());
        let err = parse_module("; module m\nfunc @f() -> void {\nbb0 (e):\n  %0 = wat 1, 2\n}\n")
            .unwrap_err();
        assert!(err.message.contains("unknown opcode"), "{err}");
    }
}
