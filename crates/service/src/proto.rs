//! The daemon's wire protocol: newline-delimited JSON over localhost TCP.
//!
//! One request object per line, one response object per line, in order.
//! Parsing reuses `pspdg_obs::json` (the workspace's hand-rolled,
//! dependency-free parser); writing goes through [`JsonObj`], a tiny
//! ordered-object builder over the same escaping rules the exporters use.
//!
//! ## Requests
//!
//! ```json
//! {"op":"ping"}
//! {"op":"plan","source":"int v[8]; ...","abstraction":"pspdg"}
//! {"op":"execute","source":"...","abstraction":"pspdg","workers":4}
//! {"op":"report","source":"...","abstraction":"openmp","workers":2}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! ParC source is the only program payload. An optional `"id"` (string)
//! is echoed back verbatim. `"abstraction"` is one of
//! `"openmp" | "pdg" | "jk" | "pspdg"` (default `"pspdg"`).
//!
//! ## Responses
//!
//! Every response carries `"ok"` (bool) and `"op"`; failures carry
//! `"error"`. See the daemon docs ([`crate::server`]) for per-op payloads.
//! A number is never written non-finite: [`JsonObj::num`] writes `null`,
//! and a NaN or infinite `ret` is sent as the string `print_f64` prints
//! (`"NaN"`, `"inf"`, `"-inf"`). An integer `ret` is its exact decimal.
//!
//! ## What a request costs
//!
//! Strings are parsed and escaped in runs, one scan plus one copy per run
//! of bytes that need no escape ([`pspdg_obs::json`]). [`parse_request`]
//! moves the decoded source out of the parsed tree, and [`JsonObj`]
//! escapes straight into the one buffer [`JsonObj::finish`] returns. In
//! process on a 2-vCPU host, a mean Mini plan line (1,014 B) parses in
//! 1.7–2.7 µs and encodes in 1.1–1.8 µs (10–11 and 6–8 µs when strings
//! went byte by byte); the 126 KB module400 line parses in 90–145 µs and
//! encodes in 85–150 µs (1.3–1.6 ms and 0.5–0.8 ms before). A hot
//! `plan` is then mostly the loopback round trip and the store read:
//! `service.parse_request_us` reads about 4 µs on a traced `plan_hot`
//! run, against a 29 µs ping.

use pspdg_obs::export::esc_into;
use pspdg_obs::json::{parse, Value};
use pspdg_parallelizer::Abstraction;

/// The program payload of a request: ParC source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// ParC source text (pragmas become directives).
    Source(String),
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Compile + plan, return the plan summary.
    Plan {
        /// Program payload.
        input: Input,
        /// Planning abstraction.
        abstraction: Abstraction,
    },
    /// Compile + plan + execute, return results diffed vs sequential.
    Execute {
        /// Program payload.
        input: Input,
        /// Planning abstraction.
        abstraction: Abstraction,
        /// Runtime worker threads (`None` = server default).
        workers: Option<usize>,
    },
    /// Like `Execute`, plus the ideal-machine prediction
    /// (predicted-vs-measured report).
    Report {
        /// Program payload.
        input: Input,
        /// Planning abstraction.
        abstraction: Abstraction,
        /// Runtime worker threads (`None` = server default).
        workers: Option<usize>,
    },
    /// Live counters: cache, queue depths, spans, uptime.
    Metrics,
    /// Stop accepting, drain in-flight requests, exit.
    Shutdown,
}

/// A request plus its echo token.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The request.
    pub request: Request,
    /// Client-chosen id echoed into the response.
    pub id: Option<String>,
}

/// Parse an abstraction name (`"openmp" | "pdg" | "jk" | "pspdg"`,
/// case-insensitive).
pub fn parse_abstraction(name: &str) -> Option<Abstraction> {
    match name.to_ascii_lowercase().as_str() {
        "openmp" | "omp" => Some(Abstraction::OpenMp),
        "pdg" => Some(Abstraction::Pdg),
        "jk" | "j&k" => Some(Abstraction::Jk),
        "pspdg" | "ps-pdg" => Some(Abstraction::PsPdg),
        _ => None,
    }
}

/// The canonical wire name of an abstraction.
pub fn abstraction_name(a: Abstraction) -> &'static str {
    match a {
        Abstraction::OpenMp => "openmp",
        Abstraction::Pdg => "pdg",
        Abstraction::Jk => "jk",
        Abstraction::PsPdg => "pspdg",
    }
}

/// Parse one request line.
///
/// # Errors
///
/// A human-readable reason (bad JSON, unknown op, missing payload);
/// the server turns it into an `"ok":false` response.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let mut v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let Value::Obj(members) = &mut v else {
        return Err("request must be a JSON object".to_string());
    };
    // The source is moved out of the parsed tree, never copied.
    let mut source = members
        .iter_mut()
        .find(|(k, _)| k == "source")
        .map(|(_, s)| std::mem::replace(s, Value::Null));
    let id = v.get("id").and_then(Value::as_str).map(|s| s.to_string());
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing \"op\"")?;
    let mut input = || -> Result<Input, String> {
        match source.take() {
            Some(Value::Str(s)) => Ok(Input::Source(s)),
            _ => Err(format!("op \"{op}\" needs \"source\"")),
        }
    };
    let abstraction = || -> Result<Abstraction, String> {
        match v.get("abstraction") {
            None => Ok(Abstraction::PsPdg),
            Some(a) => {
                let name = a.as_str().ok_or("\"abstraction\" must be a string")?;
                parse_abstraction(name).ok_or_else(|| format!("unknown abstraction \"{name}\""))
            }
        }
    };
    let workers = || -> Result<Option<usize>, String> {
        match v.get("workers") {
            None => Ok(None),
            Some(w) => {
                let n = w.as_f64().ok_or("\"workers\" must be a number")?;
                if !(1.0..=1024.0).contains(&n) || n.fract() != 0.0 {
                    return Err("\"workers\" must be an integer in 1..=1024".to_string());
                }
                Ok(Some(n as usize))
            }
        }
    };
    let request = match op {
        "ping" => Request::Ping,
        "plan" => Request::Plan {
            input: input()?,
            abstraction: abstraction()?,
        },
        "execute" => Request::Execute {
            input: input()?,
            abstraction: abstraction()?,
            workers: workers()?,
        },
        "report" => Request::Report {
            input: input()?,
            abstraction: abstraction()?,
            workers: workers()?,
        },
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op \"{other}\"")),
    };
    Ok(Envelope { request, id })
}

/// Serialize a request (the client side of the wire format).
pub fn encode_request(env: &Envelope) -> String {
    let mut o = JsonObj::new();
    if let Some(id) = &env.id {
        o.str("id", id);
    }
    let put_input = |o: &mut JsonObj, Input::Source(s): &Input| o.str("source", s);
    match &env.request {
        Request::Ping => o.str("op", "ping"),
        Request::Metrics => o.str("op", "metrics"),
        Request::Shutdown => o.str("op", "shutdown"),
        Request::Plan { input, abstraction } => {
            o.str("op", "plan");
            put_input(&mut o, input);
            o.str("abstraction", abstraction_name(*abstraction));
        }
        Request::Execute {
            input,
            abstraction,
            workers,
        }
        | Request::Report {
            input,
            abstraction,
            workers,
        } => {
            o.str(
                "op",
                if matches!(env.request, Request::Execute { .. }) {
                    "execute"
                } else {
                    "report"
                },
            );
            put_input(&mut o, input);
            o.str("abstraction", abstraction_name(*abstraction));
            if let Some(w) = workers {
                o.num("workers", *w as f64);
            }
        }
    }
    o.finish()
}

/// An ordered JSON-object builder over the exporters' escaping. It
/// writes into one buffer, and [`JsonObj::finish`] returns that buffer.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
        }
    }
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        esc_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Add a string member.
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        esc_into(&mut self.buf, v);
        self.buf.push('"');
    }

    /// Add a numeric member (serialized like the bench JSONs: integers
    /// without a fraction, floats with full precision). JSON has no
    /// non-finite numbers, so NaN and the infinities are written `null`.
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        if !v.is_finite() {
            self.buf.push_str("null");
        } else if v.fract() == 0.0 && v.abs() < 9e15 {
            self.buf.push_str(&format!("{}", v as i64));
        } else {
            self.buf.push_str(&format!("{v}"));
        }
    }

    /// Add a boolean member.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Add `null`.
    pub fn null(&mut self, k: &str) {
        self.key(k);
        self.buf.push_str("null");
    }

    /// Add a pre-encoded JSON value verbatim (nested objects/arrays).
    pub fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push_str(v);
    }

    /// Close the object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let env = Envelope {
            request: Request::Execute {
                input: Input::Source("int main() { return 0; }".to_string()),
                abstraction: Abstraction::PsPdg,
                workers: Some(4),
            },
            id: Some("r1".to_string()),
        };
        let line = encode_request(&env);
        assert_eq!(parse_request(&line).unwrap(), env);

        // Every bundled source, as a plan request.
        use pspdg_nas::{fault_suite, synth, Class};
        let sources = fault_suite(Class::Test)
            .into_iter()
            .chain(fault_suite(Class::Mini))
            .chain([synth::module(400, 32), synth::wide(64)])
            .map(|b| b.source);
        for source in sources {
            let env = Envelope {
                request: Request::Plan {
                    input: Input::Source(source),
                    abstraction: Abstraction::Jk,
                },
                id: Some("r2".to_string()),
            };
            assert_eq!(parse_request(&encode_request(&env)).unwrap(), env);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"nope\"}").is_err());
        assert!(parse_request("{\"op\":\"plan\"}").is_err());
        assert_eq!(
            parse_request("{\"op\":\"plan\",\"ir\":\"; module m\"}").unwrap_err(),
            "op \"plan\" needs \"source\""
        );
        assert!(parse_request("{\"op\":\"execute\",\"source\":\"x\",\"workers\":0}").is_err());
    }

    #[test]
    fn abstraction_names_roundtrip() {
        for a in Abstraction::ALL {
            assert_eq!(parse_abstraction(abstraction_name(a)), Some(a));
        }
    }

    #[test]
    fn json_obj_escapes() {
        let mut o = JsonObj::new();
        o.str("k", "a\"b\nc");
        o.num("n", 3.0);
        o.null("z");
        let s = o.finish();
        let v = parse(&s).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("a\"b\nc"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("z"), Some(&Value::Null));
    }
}
