//! JSON string escaping for hand-formatted output (the workspace has no
//! serde): the plan service's replies and the benchmark's report lines
//! are written with it, and the sibling [`crate::json`] parser reads
//! them back.

use std::fmt::Write as _;

use crate::json::find_byte;

/// Escape a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc_into(&mut out, s);
    out
}

/// [`esc`], appended to `out`. Each run of bytes that need no escape is
/// copied with a single `push_str`; the bytes that do (`"`, `\` and the
/// controls below 0x20) are ASCII, so every run boundary is a char
/// boundary.
pub fn esc_into(out: &mut String, s: &str) {
    let b = s.as_bytes();
    let mut run = 0;
    while let Some(n) = find_byte(&b[run..], |c| c < 0x20 || c == b'"' || c == b'\\') {
        let i = run + n;
        out.push_str(&s[run..i]);
        run = i + 1;
        match b[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use crate::json::{parse, Value};

    #[test]
    fn escaping_survives_round_trip() {
        for s in ["weird \"name\"\n\\tab\t", "a\"b\\c", "\u{1}\u{1f}\u{7f}"] {
            let quoted = format!("\"{}\"", super::esc(s));
            assert_eq!(parse(&quoted), Ok(Value::Str(s.to_string())), "{quoted}");
        }
    }
}
