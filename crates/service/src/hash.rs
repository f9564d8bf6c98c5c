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
//! processes and runs.

use std::fmt::Write as _;

use pspdg_parallel::ParallelProgram;

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The content key of a parsed program: module IR text + directive list.
pub fn content_key(program: &ParallelProgram) -> u64 {
    let mut text = program.module.to_string();
    for (id, d) in program.directives() {
        let _ = write!(text, "\n;; directive {id:?} {d:?}");
    }
    fnv1a(text.as_bytes())
}

/// Render a content key the way the protocol and the logs print it.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspdg_frontend::compile;

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
}
