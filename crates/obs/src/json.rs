//! A small dependency-free JSON parser.
//!
//! The workspace vendors no serde. The plan daemon reads every request
//! line with this parser, and the tests and the benchmark read the
//! daemon's replies with it: a real round trip, not a string eyeball.
//!
//! A string costs one scan plus one copy per run of plain bytes: the
//! scan tests 16 bytes at a time for the next `"` or `\`, and the run
//! before it goes into the output with one `push_str`. An escaped UTF-16
//! surrogate pair decodes as its one char; a lone surrogate as U+FFFD.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON numbers are doubles here).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset and a reason.
pub fn parse(src: &str) -> Result<Value, String> {
    let b = src.as_bytes();
    let mut p = Parser { src, b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

/// The index of the first byte of `b` that satisfies `hit`. Blocks of
/// 16 bytes are tested with a branch-free fold, which the compiler turns
/// into vector compares, and skipped whole while no byte hits.
pub(crate) fn find_byte(b: &[u8], hit: impl Fn(u8) -> bool) -> Option<usize> {
    let mut at = 0;
    for block in b.chunks_exact(16) {
        if block.iter().fold(false, |any, &c| any | hit(c)) {
            break;
        }
        at += 16;
    }
    b[at..].iter().position(|&c| hit(c)).map(|n| at + n)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte {} in value position", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    /// One string literal. Each run of plain bytes up to the next `"` or
    /// `\` is copied with a single `push_str`: the input is a `&str` and
    /// both delimiters are ASCII, so every run boundary is a char boundary.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            let Some(n) = find_byte(&self.b[start..], |c| c == b'"' || c == b'\\') else {
                return Err("unterminated string".to_string());
            };
            out.push_str(&self.src[start..start + n]);
            self.i = start + n + 1;
            if self.b[start + n] == b'"' {
                return Ok(out);
            }
            let Some(e) = self.peek() else {
                return Err("unterminated escape".to_string());
            };
            self.i += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let mut code = self.hex4()?;
                    // A high surrogate followed by an escaped low one is a
                    // single char above U+FFFF, the form encoders such as
                    // Python's `json.dumps` write. A lone surrogate is U+FFFD.
                    if (0xd800..0xdc00).contains(&code) && self.b[self.i..].starts_with(b"\\u") {
                        let high_end = self.i;
                        self.i += 2;
                        match self.hex4() {
                            Ok(low) if (0xdc00..0xe000).contains(&low) => {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            _ => self.i = high_end,
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(format!("bad escape at byte {}", self.i)),
            }
        }
    }

    /// The four hex digits after `\u`. On success they were ASCII, so the
    /// cursor stays on a char boundary.
    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
        self.i += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(items));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.value()?;
            items.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(items));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse(r#"{"a": [1, -2.5, true, null, "x\n"], "b": {"c": 3e2}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2], Value::Bool(true));
        assert_eq!(a[3], Value::Null);
        assert_eq!(a[4].as_str(), Some("x\n"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(300.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn utf8_passthrough() {
        let v = parse("{\"k\": \"héllo ✓\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo ✓"));
    }

    /// `esc` of each control byte 0x00..0x1f, exactly as written.
    const CONTROL_ESC: [&str; 32] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
        "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];

    /// The pinned escape table: every row's exact `esc` output, and every
    /// row parses back to its input.
    #[test]
    fn esc_table_is_pinned_and_round_trips() {
        let mut rows: Vec<(String, &str)> = vec![
            (String::new(), ""),
            (
                "plain ASCII, 0-9 {}[]:/".to_string(),
                "plain ASCII, 0-9 {}[]:/",
            ),
            ("\"".to_string(), "\\\""),
            ("\\".to_string(), "\\\\"),
            ("a\"b\\c".to_string(), "a\\\"b\\\\c"),
            ("\u{e9}".to_string(), "\u{e9}"),
            ("\u{1f600}".to_string(), "\u{1f600}"),
            (
                "x\u{e9}\n\u{1f600}\"".to_string(),
                "x\u{e9}\\n\u{1f600}\\\"",
            ),
        ];
        for (b, want) in (0u8..0x20).zip(CONTROL_ESC) {
            rows.push(((b as char).to_string(), want));
        }
        for (s, want) in &rows {
            let got = crate::export::esc(s);
            assert_eq!(got, *want, "esc({s:?})");
            assert_eq!(
                parse(&format!("\"{got}\"")),
                Ok(Value::Str(s.clone())),
                "round trip of {s:?}"
            );
        }
        // Escaped UTF-16 surrogates, as other encoders write chars above
        // U+FFFF: a high+low pair is one char, a lone half is U+FFFD.
        let surrogates = [
            ("\\ud83d\\ude00", "\u{1f600}"),
            ("a\\ud83d\\ude00b\\u00e9", "a\u{1f600}b\u{e9}"),
            ("\\ud83d", "\u{fffd}"),
            ("\\ude00", "\u{fffd}"),
            ("\\ud83dx", "\u{fffd}x"),
            ("\\ud83d\\u0041", "\u{fffd}A"),
            ("\\ud83d\\ud83d\\ude00", "\u{fffd}\u{1f600}"),
        ];
        for (escaped, want) in surrogates {
            assert_eq!(
                parse(&format!("\"{escaped}\"")),
                Ok(Value::Str(want.to_string())),
                "parse of {escaped:?}"
            );
        }
    }

    #[test]
    fn string_error_texts_are_pinned() {
        let cases = [
            ("\"abc", "unterminated string"),
            ("\"ab\\", "unterminated escape"),
            ("\"a\\qb\"", "bad escape at byte 4"),
            ("\"\\u12\"", "truncated \\u escape"),
            (
                "\"\\uzz12\"",
                "bad \\u escape: invalid digit found in string",
            ),
        ];
        for (src, want) in cases {
            assert_eq!(parse(src), Err(want.to_string()), "parse({src:?})");
        }
    }
}
