//! Content addressing for parsed programs.
//!
//! The plan store is keyed by the **parsed** program, the module and its
//! directives, not by the source text. Two sources that lower to the same
//! IR (formatting, comments, pragma whitespace) share one key, while a
//! change to what the program does or names (an instruction, a bound, a
//! directive clause, a global's name or any cell of its initializer)
//! produces a different one.
//!
//! The key is [`ParallelProgram`]'s own derived [`Hash`] fed through
//! FNV-1a: one multiply per integer field, one per byte of a name. It
//! covers every field by construction, sees float constants as their bits
//! (`pspdg_ir::Constant`'s equality does the same), and is stable across
//! processes and runs. Sixty-four bits can collide, so the key only picks
//! the bucket: the store checks program equality on every hit.

use std::hash::{Hash, Hasher};

use pspdg_parallel::ParallelProgram;

/// A running 64-bit FNV-1a hash: bytes mix one at a time, integers one
/// word at a time.
struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

impl Fnv1a {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100000001b3);
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// The content key of a parsed program: its structural hash.
pub fn content_key(program: &ParallelProgram) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    program.hash(&mut h);
    h.finish()
}

/// Render a content key the way the protocol and the logs print it.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_ir::{Constant, FunctionBuilder, GlobalInit, Module, Type, Value};
    use pspdg_nas::{fault_suite, synth, Class};

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a(FNV_OFFSET);
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    const KERNEL: &str = "int v[8];\nvoid k() { int i;\n#pragma omp parallel for schedule(static)\nfor (i = 0; i < 8; i++) { v[i] = i; } }\nint main() { k(); return 0; }";

    /// `KERNEL` with `from` replaced by `to`, compiled.
    fn edit(from: &str, to: &str) -> ParallelProgram {
        assert!(KERNEL.contains(from), "{from:?}");
        compile(&KERNEL.replace(from, to)).unwrap()
    }

    /// A one-global module whose nine-cell initializer ends in `last`;
    /// `main` returns that cell.
    fn nine_cells(last: i64) -> ParallelProgram {
        let mut module = Module::new("cells");
        let mut cells = vec![Constant::Int(0); 8];
        cells.push(Constant::Int(last));
        let tab = module.declare_global("tab", Type::array(Type::I64, 9), GlobalInit::Data(cells));
        let f = module.declare_function("main", Vec::new(), Type::I64);
        let mut b = FunctionBuilder::new(module.function_mut(f));
        let entry = b.create_block("entry");
        b.switch_to_block(entry);
        let cell = b.gep(Value::Global(tab), Value::const_int(8), Type::I64);
        let v = b.load(cell, Type::I64);
        b.ret(Some(v));
        ParallelProgram::new(module)
    }

    /// A `main` that returns the float constant `c`.
    pub(crate) fn returns_float(c: f64) -> ParallelProgram {
        let mut module = Module::new("float");
        let f = module.declare_function("main", Vec::new(), Type::F64);
        let mut b = FunctionBuilder::new(module.function_mut(f));
        let entry = b.create_block("entry");
        b.switch_to_block(entry);
        b.ret(Some(Value::const_float(c)));
        ParallelProgram::new(module)
    }

    /// What must share a key (formatting) and what must not (one change
    /// to what the program does or names).
    fn pairs() -> Vec<(&'static str, bool, ParallelProgram, ParallelProgram)> {
        let base = || compile(KERNEL).unwrap();
        vec![
            (
                "whitespace",
                true,
                base(),
                edit("{ v[i] = i; } }", "{\n      v[i] = i;\n  }   }\n\n"),
            ),
            (
                "comments",
                true,
                base(),
                edit("int main()", "/* entry */ int main() // driver\n"),
            ),
            (
                "one instruction",
                false,
                base(),
                edit("v[i] = i;", "v[i] = i + 1;"),
            ),
            (
                "one directive clause",
                false,
                base(),
                edit("schedule(static)", "schedule(dynamic)"),
            ),
            (
                "a global's name",
                false,
                edit("int v", "int zz_salt_0;\nint v"),
                edit("int v", "int zz_salt_1;\nint v"),
            ),
            (
                "a global cell past the eighth",
                false,
                nine_cells(8),
                nine_cells(99),
            ),
            (
                "0.0 vs -0.0",
                false,
                returns_float(0.0),
                returns_float(-0.0),
            ),
        ]
    }

    #[test]
    fn formatting_invariant_semantics_sensitive() {
        for (what, share, a, b) in pairs() {
            assert_eq!(content_key(&a) == content_key(&b), share, "{what}");
            assert_eq!(a == b, share, "{what}");
        }
    }

    /// Every program the benchmark sends equals its own recompile and
    /// shares its key, and no two of them share a key.
    #[test]
    fn benchmark_programs_are_their_own_identity() {
        let mut sources: Vec<String> = [Class::Test, Class::Mini]
            .into_iter()
            .flat_map(fault_suite)
            .map(|b| b.source)
            .collect();
        sources.extend([100, 200, 400].map(|n| synth::module(n, 32).source));
        sources.extend([16, 32, 64].map(|b| synth::wide(b).source));
        let mut keys = std::collections::HashSet::new();
        for source in &sources {
            let program = compile(source).unwrap();
            let again = compile(source).unwrap();
            assert!(program == again);
            assert_eq!(content_key(&program), content_key(&again));
            keys.insert(content_key(&program));
        }
        assert_eq!(keys.len(), 26);
    }
}
