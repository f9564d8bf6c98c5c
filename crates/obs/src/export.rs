//! Exporters: Chrome trace-event JSON (Perfetto-loadable) of the trace,
//! and, of the exact totals, a metrics JSON and a flat "top spans" text
//! report.
//!
//! All output is hand-formatted (the workspace has no serde); the
//! sibling [`crate::json`] parser round-trips it in the tests and the
//! `profile_json --smoke` gate.

use std::fmt::Write as _;

use crate::json::find_byte;
use crate::recorder::{ArgVal, Snapshot};

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

fn arg_json(v: &ArgVal) -> String {
    match v {
        ArgVal::I(i) => i.to_string(),
        ArgVal::U(u) => u.to_string(),
        ArgVal::F(f) if f.is_finite() => format!("{f}"),
        ArgVal::F(_) => "null".to_string(),
        ArgVal::S(s) => format!("\"{}\"", esc(s)),
    }
}

impl Snapshot {
    /// Chrome trace-event JSON: an object with a `traceEvents` array of
    /// `"X"` complete spans (timestamps in microseconds, as the format
    /// requires), plus `"M"` metadata
    /// events naming the thread lanes. Loadable in Perfetto and
    /// `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        for (tid, name) in self.threads.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            );
        }
        for e in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let (ts, dur) = (e.ts_ns as f64 / 1000.0, e.dur_ns as f64 / 1000.0);
            let _ = write!(
                out,
                "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3}",
                esc(&e.name),
                esc(e.cat),
                e.tid
            );
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", esc(k), arg_json(v));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Metrics snapshot JSON: counters and the span totals.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", esc(name));
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, (name, count, total, max)) in self.span_summary().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {count}, \"total_ns\": {total}, \"max_ns\": {max}}}",
                esc(name)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Flat text report: the top-`n` spans by total time.
    pub fn text_report(&self, n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== top spans by total time ==");
        for (name, count, tot, max) in self.span_summary().iter().take(n) {
            let _ = writeln!(
                out,
                "  {name:<28} x{count:<6} total {:>10.3} ms   max {:>10.3} ms",
                *tot as f64 / 1e6,
                *max as f64 / 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::json;
    use crate::Recorder;

    #[test]
    fn exports_parse_as_json() {
        let rec = Recorder::new();
        {
            let mut s = rec.span("pipeline/plan", "pipeline");
            s.arg("kernel", "IS");
            s.arg("loops", 3u64);
        }
        drop(rec.span("runtime/chunk_worker", "runtime"));
        rec.add("pool/dispatches", 4);
        let snap = rec.snapshot();
        let trace = json::parse(&snap.chrome_trace_json()).expect("trace parses");
        assert!(trace
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some());
        let metrics = json::parse(&snap.metrics_json()).expect("metrics parse");
        let spans = metrics.get("spans").unwrap();
        let plan = spans.get("pipeline/plan").unwrap();
        assert_eq!(plan.get("count").unwrap().as_f64(), Some(1.0));
        let report = snap.text_report(5);
        assert!(report.contains("pipeline/plan"));
        assert!(report.contains("top spans"));
    }

    #[test]
    fn escaping_survives_round_trip() {
        let rec = Recorder::new();
        {
            let mut s = rec.span("weird \"name\"\n\\tab\t", "t");
            s.arg("s", "a\"b\\c");
        }
        let parsed = json::parse(&rec.snapshot().chrome_trace_json()).expect("parses");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let e = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(
            e.get("name").unwrap().as_str(),
            Some("weird \"name\"\n\\tab\t")
        );
    }
}
