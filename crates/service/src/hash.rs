//! Content addressing for parsed programs.
//!
//! The plan cache is keyed by a hash of the **parsed** module and its
//! directives, not of the source text: two sources that lower to the same
//! IR (formatting, comments, pragma whitespace) share one cache entry,
//! while any semantic change — an instruction, a bound, a directive
//! clause — produces a different key.
//!
//! The hash walks the canonical textual form of the IR (the same
//! `Display` the `.ir` round-trip tests pin) plus the `Debug` form of
//! every directive, through FNV-1a. Both forms are deterministic
//! functions of the in-memory structures, so the key is stable across
//! processes and runs. The one departure from `Display`: a global
//! initializer is hashed cell by cell to its end, where the printer elides
//! every cell after the eighth, so two programs that differ only there
//! never share a session.
//!
//! The text is never collected into one string. The header and the
//! directives stream straight into the hasher; the functions are
//! formatted in parallel ([`par_map`]) and folded in module order, so the
//! key is the one the whole text would hash to.

use std::fmt::{self, Write as _};

use pspdg_ir::GlobalInit;
use pspdg_parallel::ParallelProgram;
use pspdg_pool::par_map;

/// A running 64-bit FNV-1a hash that text can be formatted into.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// The content key of a parsed program: module IR text + directive list.
pub fn content_key(program: &ParallelProgram) -> u64 {
    let module = &program.module;
    let mut h = Fnv1a::new();
    // Writing into the hasher cannot fail, so every `fmt::Result` is Ok.
    let _ = writeln!(h, "; module {}", module.name);
    for (i, g) in module.globals.iter().enumerate() {
        let _ = write!(h, "global @g{i} : {} ; {}", g.ty, g.name);
        match &g.init {
            GlobalInit::Zero => h.bytes(b" = zeroinit\n"),
            GlobalInit::Data(cells) => {
                h.bytes(b" = [");
                for (j, c) in cells.iter().enumerate() {
                    if j > 0 {
                        h.bytes(b", ");
                    }
                    let _ = write!(h, "{c}");
                }
                h.bytes(b"]\n");
            }
        }
    }
    for text in par_map(module.functions.iter().collect(), |f| f.to_string()) {
        h.bytes(b"\n");
        h.bytes(text.as_bytes());
    }
    for (id, d) in program.directives() {
        let _ = write!(h, "\n;; directive {id:?} {d:?}");
    }
    h.0
}

/// Render a content key the way the protocol and the logs print it.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;
    use pspdg_nas::{fault_suite, synth, Class};

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(bytes);
        h.0
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn formatting_invariant_semantics_sensitive() {
        let a = compile("int v[8];\nvoid k() { int i;\n#pragma omp parallel for\nfor (i = 0; i < 8; i++) { v[i] = i; } }\nint main() { k(); return 0; }").unwrap();
        let b = compile("int v[8];   \n\n  void k() {   int i;\n  #pragma omp parallel for\n  for (i = 0; i < 8; i++) {\n      v[i] = i;\n  } }\nint main() { k(); return 0; }").unwrap();
        let c = compile("int v[8];\nvoid k() { int i;\n#pragma omp parallel for\nfor (i = 0; i < 8; i++) { v[i] = i + 1; } }\nint main() { k(); return 0; }").unwrap();
        assert_eq!(
            content_key(&a),
            content_key(&b),
            "formatting-only change must share a key"
        );
        assert_ne!(
            content_key(&a),
            content_key(&c),
            "semantic change must change the key"
        );
    }

    /// The streamed key equals the hash of the whole module text plus the
    /// directive lines, on every program the benchmark sends (none has an
    /// initialized global, where the two are meant to differ).
    #[test]
    fn streamed_key_equals_the_whole_text_hash() {
        let mut sources: Vec<String> = [Class::Test, Class::Mini]
            .into_iter()
            .flat_map(fault_suite)
            .map(|b| b.source)
            .collect();
        sources.extend([100, 200, 400].map(|n| synth::module(n, 32).source));
        sources.extend([16, 32, 64].map(|b| synth::wide(b).source));
        assert_eq!(sources.len(), 26);
        for source in &sources {
            let program = compile(source).unwrap();
            let mut text = program.module.to_string();
            for (id, d) in program.directives() {
                write!(text, "\n;; directive {id:?} {d:?}").unwrap();
            }
            assert_eq!(content_key(&program), fnv1a(text.as_bytes()));
        }
    }
}
