//! Parser for the `#pragma omp ...` sub-language. Names and clause words
//! borrow from the source text.

use crate::FrontendError;

/// A parsed data/environment clause.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClauseAst<'s> {
    /// `private(a, b)`
    Private(Vec<&'s str>),
    /// `firstprivate(a, b)`
    Firstprivate(Vec<&'s str>),
    /// `lastprivate(a, b)`
    Lastprivate(Vec<&'s str>),
    /// `shared(a, b)`
    Shared(Vec<&'s str>),
    /// `threadprivate(a, b)`
    Threadprivate(Vec<&'s str>),
    /// `reduction(op: a, b)`
    Reduction {
        /// Operator token (`+`, `*`, `min`, …).
        op: &'s str,
        /// Reduced variables.
        vars: Vec<&'s str>,
    },
    /// `schedule(kind[, chunk])`
    Schedule {
        /// `static` / `dynamic` / `guided` / `auto`.
        kind: &'s str,
        /// Optional chunk size.
        chunk: Option<u64>,
    },
    /// `nowait`
    Nowait,
    /// `ordered`
    Ordered,
    /// `collapse(n)`
    Collapse(u64),
    /// `num_threads(n)` — parsed, semantically ignored (execution-plan only).
    NumThreads(u64),
    /// `depend(in|out|inout: a, b)`
    Depend {
        /// `in` / `out` / `inout`.
        kind: &'s str,
        /// Depended-on variables.
        vars: Vec<&'s str>,
    },
}

/// A parsed `#pragma omp` directive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PragmaAst<'s> {
    /// `omp parallel [clauses]`
    Parallel(Vec<ClauseAst<'s>>),
    /// `omp for [clauses]`
    For(Vec<ClauseAst<'s>>),
    /// `omp parallel for [clauses]`
    ParallelFor(Vec<ClauseAst<'s>>),
    /// `omp sections [clauses]`
    Sections(Vec<ClauseAst<'s>>),
    /// `omp section`
    Section,
    /// `omp single [nowait]`
    Single(Vec<ClauseAst<'s>>),
    /// `omp master`
    Master,
    /// `omp critical [(name)]`
    Critical(Option<&'s str>),
    /// `omp atomic`
    Atomic,
    /// `omp barrier`
    Barrier,
    /// `omp ordered`
    Ordered,
    /// `omp task [clauses]`
    Task(Vec<ClauseAst<'s>>),
    /// `omp taskwait`
    Taskwait,
    /// `omp taskloop [clauses]`
    Taskloop(Vec<ClauseAst<'s>>),
    /// `omp simd [clauses]`
    Simd(Vec<ClauseAst<'s>>),
}

impl PragmaAst<'_> {
    /// Whether this pragma stands alone (no following statement).
    pub(crate) fn is_standalone(&self) -> bool {
        matches!(self, PragmaAst::Barrier | PragmaAst::Taskwait)
    }
}

/// Tiny tokenizer for the pragma text.
struct PragmaLexer<'a> {
    text: &'a str,
    pos: usize,
    line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PTok<'a> {
    Word(&'a str),
    Num(u64),
    Punct(char),
    Op(&'a str),
    End,
}

impl<'a> PragmaLexer<'a> {
    fn next(&mut self) -> Result<PTok<'a>, FrontendError> {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(PTok::End);
        }
        let c = bytes[self.pos];
        match c {
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = self.pos;
                while self.pos < bytes.len()
                    && (bytes[self.pos].is_ascii_alphanumeric() || bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                Ok(PTok::Word(&self.text[start..self.pos]))
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let v = self.text[start..self.pos].parse().map_err(|_| {
                    FrontendError::new(self.line, "bad number in pragma".to_string())
                })?;
                Ok(PTok::Num(v))
            }
            b'(' | b')' | b',' | b':' => {
                self.pos += 1;
                Ok(PTok::Punct(c as char))
            }
            b'+' | b'*' | b'-' | b'^' => {
                self.pos += 1;
                Ok(PTok::Op(&self.text[self.pos - 1..self.pos]))
            }
            b'&' | b'|' => {
                self.pos += 1;
                if self.pos < bytes.len() && bytes[self.pos] == c {
                    self.pos += 1;
                    Ok(PTok::Op(&self.text[self.pos - 2..self.pos]))
                } else {
                    Ok(PTok::Op(&self.text[self.pos - 1..self.pos]))
                }
            }
            other => Err(FrontendError::new(
                self.line,
                format!("unexpected character {:?} in pragma", other as char),
            )),
        }
    }

    /// Consume the punctuation `c`.
    fn punct(&mut self, c: char) -> Result<(), FrontendError> {
        match self.next()? {
            PTok::Punct(p) if p == c => Ok(()),
            other => Err(FrontendError::new(
                self.line,
                format!("expected '{c}', found {other:?}"),
            )),
        }
    }

    fn peek(&mut self) -> Result<PTok<'a>, FrontendError> {
        let save = self.pos;
        let t = self.next()?;
        self.pos = save;
        Ok(t)
    }
}

/// Parse the text after `#pragma` (e.g. `"omp parallel for private(x)"`).
///
/// # Errors
///
/// Unknown directives, unknown clauses, and malformed clause arguments.
pub(crate) fn parse_pragma(text: &str, line: u32) -> Result<PragmaAst<'_>, FrontendError> {
    let mut lex = PragmaLexer { text, pos: 0, line };
    let err = |msg: String| FrontendError::new(line, msg);
    match lex.next()? {
        PTok::Word("omp") => {}
        other => {
            return Err(err(format!(
                "expected 'omp' after #pragma, found {other:?}"
            )))
        }
    }
    let head = match lex.next()? {
        PTok::Word(w) => w,
        other => return Err(err(format!("expected directive name, found {other:?}"))),
    };
    match head {
        "parallel" => {
            // `parallel for` fusion.
            if lex.peek()? == PTok::Word("for") {
                lex.next()?;
                let clauses = parse_clauses(&mut lex, line)?;
                return Ok(PragmaAst::ParallelFor(clauses));
            }
            Ok(PragmaAst::Parallel(parse_clauses(&mut lex, line)?))
        }
        "for" => Ok(PragmaAst::For(parse_clauses(&mut lex, line)?)),
        "sections" => Ok(PragmaAst::Sections(parse_clauses(&mut lex, line)?)),
        "section" => Ok(PragmaAst::Section),
        "single" => Ok(PragmaAst::Single(parse_clauses(&mut lex, line)?)),
        "master" => Ok(PragmaAst::Master),
        "critical" => {
            let name = match lex.peek()? {
                PTok::Punct('(') => {
                    lex.next()?;
                    let n = match lex.next()? {
                        PTok::Word(w) => w,
                        other => {
                            return Err(err(format!("expected critical name, found {other:?}")))
                        }
                    };
                    lex.punct(')')?;
                    Some(n)
                }
                _ => None,
            };
            Ok(PragmaAst::Critical(name))
        }
        "atomic" => Ok(PragmaAst::Atomic),
        "barrier" => Ok(PragmaAst::Barrier),
        "ordered" => Ok(PragmaAst::Ordered),
        "task" => Ok(PragmaAst::Task(parse_clauses(&mut lex, line)?)),
        "taskwait" => Ok(PragmaAst::Taskwait),
        "taskloop" => Ok(PragmaAst::Taskloop(parse_clauses(&mut lex, line)?)),
        "simd" => Ok(PragmaAst::Simd(parse_clauses(&mut lex, line)?)),
        "threadprivate" => {
            // `#pragma omp threadprivate(x)` — model as a Parallel-less
            // clause carrier; callers treat it specially.
            let vars = parse_var_list(&mut lex, line)?;
            Ok(PragmaAst::Parallel(vec![ClauseAst::Threadprivate(vars)]))
        }
        other => Err(err(format!("unknown omp directive '{other}'"))),
    }
}

fn parse_var_list<'s>(lex: &mut PragmaLexer<'s>, line: u32) -> Result<Vec<&'s str>, FrontendError> {
    lex.punct('(')?;
    parse_names(lex, line, "variable name")
}

/// `a, b, c)`: the names of a clause up to its closing parenthesis.
fn parse_names<'s>(
    lex: &mut PragmaLexer<'s>,
    line: u32,
    what: &str,
) -> Result<Vec<&'s str>, FrontendError> {
    let err = |msg: String| FrontendError::new(line, msg);
    let mut vars = Vec::new();
    loop {
        match lex.next()? {
            PTok::Word(w) => vars.push(w),
            other => return Err(err(format!("expected {what}, found {other:?}"))),
        }
        match lex.next()? {
            PTok::Punct(',') => continue,
            PTok::Punct(')') => break,
            other => return Err(err(format!("expected ',' or ')', found {other:?}"))),
        }
    }
    Ok(vars)
}

fn parse_clauses<'s>(
    lex: &mut PragmaLexer<'s>,
    line: u32,
) -> Result<Vec<ClauseAst<'s>>, FrontendError> {
    let err = |msg: String| FrontendError::new(line, msg);
    let mut clauses = Vec::new();
    loop {
        let name = match lex.next()? {
            PTok::End => break,
            PTok::Word(w) => w,
            PTok::Punct(',') => continue, // clause separators are optional
            other => return Err(err(format!("expected clause name, found {other:?}"))),
        };
        match name {
            "nowait" => clauses.push(ClauseAst::Nowait),
            "ordered" => clauses.push(ClauseAst::Ordered),
            "private" => clauses.push(ClauseAst::Private(parse_var_list(lex, line)?)),
            "firstprivate" => clauses.push(ClauseAst::Firstprivate(parse_var_list(lex, line)?)),
            "lastprivate" => clauses.push(ClauseAst::Lastprivate(parse_var_list(lex, line)?)),
            "shared" => clauses.push(ClauseAst::Shared(parse_var_list(lex, line)?)),
            "threadprivate" => clauses.push(ClauseAst::Threadprivate(parse_var_list(lex, line)?)),
            "collapse" | "num_threads" => {
                lex.punct('(')?;
                let n = match lex.next()? {
                    PTok::Num(n) => n,
                    other => return Err(err(format!("expected number, found {other:?}"))),
                };
                lex.punct(')')?;
                clauses.push(if name == "collapse" {
                    ClauseAst::Collapse(n)
                } else {
                    ClauseAst::NumThreads(n)
                });
            }
            "schedule" => {
                lex.punct('(')?;
                let kind = match lex.next()? {
                    PTok::Word(w) => w,
                    other => return Err(err(format!("expected schedule kind, found {other:?}"))),
                };
                let chunk = match lex.next()? {
                    PTok::Punct(')') => None,
                    PTok::Punct(',') => {
                        let n = match lex.next()? {
                            PTok::Num(n) => n,
                            other => {
                                return Err(err(format!("expected chunk size, found {other:?}")))
                            }
                        };
                        lex.punct(')')?;
                        Some(n)
                    }
                    other => return Err(err(format!("expected ',' or ')', found {other:?}"))),
                };
                clauses.push(ClauseAst::Schedule { kind, chunk });
            }
            "reduction" => {
                lex.punct('(')?;
                let op = match lex.next()? {
                    PTok::Op(o) => o,
                    PTok::Word(w) => w, // min / max / custom merger name
                    other => return Err(err(format!("expected reduction op, found {other:?}"))),
                };
                lex.punct(':')?;
                let vars = parse_names(lex, line, "variable")?;
                clauses.push(ClauseAst::Reduction { op, vars });
            }
            "depend" => {
                lex.punct('(')?;
                let kind = match lex.next()? {
                    PTok::Word(w) => w,
                    other => return Err(err(format!("expected depend kind, found {other:?}"))),
                };
                lex.punct(':')?;
                let vars = parse_names(lex, line, "variable")?;
                clauses.push(ClauseAst::Depend { kind, vars });
            }
            other => return Err(err(format!("unknown clause '{other}'"))),
        }
    }
    Ok(clauses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_parallel_for_with_clauses() {
        let p = parse_pragma(
            "omp parallel for private(a, b) reduction(+: s) schedule(static, 4)",
            1,
        )
        .unwrap();
        match p {
            PragmaAst::ParallelFor(clauses) => {
                assert_eq!(clauses.len(), 3);
                assert_eq!(clauses[0], ClauseAst::Private(vec!["a", "b"]));
                assert_eq!(
                    clauses[1],
                    ClauseAst::Reduction {
                        op: "+",
                        vars: vec!["s"]
                    }
                );
                assert_eq!(
                    clauses[2],
                    ClauseAst::Schedule {
                        kind: "static",
                        chunk: Some(4)
                    }
                );
            }
            other => panic!("wrong pragma {other:?}"),
        }
    }

    #[test]
    fn parses_named_critical() {
        assert_eq!(
            parse_pragma("omp critical (histlock)", 3).unwrap(),
            PragmaAst::Critical(Some("histlock"))
        );
        assert_eq!(
            parse_pragma("omp critical", 3).unwrap(),
            PragmaAst::Critical(None)
        );
    }

    #[test]
    fn parses_standalone() {
        assert!(parse_pragma("omp barrier", 1).unwrap().is_standalone());
        assert!(parse_pragma("omp taskwait", 1).unwrap().is_standalone());
        assert!(!parse_pragma("omp single", 1).unwrap().is_standalone());
    }

    #[test]
    fn parses_task_depends() {
        let p = parse_pragma("omp task depend(in: x, y) depend(out: z)", 1).unwrap();
        match p {
            PragmaAst::Task(clauses) => {
                assert_eq!(
                    clauses[0],
                    ClauseAst::Depend {
                        kind: "in",
                        vars: vec!["x", "y"]
                    }
                );
                assert_eq!(
                    clauses[1],
                    ClauseAst::Depend {
                        kind: "out",
                        vars: vec!["z"]
                    }
                );
            }
            other => panic!("wrong pragma {other:?}"),
        }
    }

    #[test]
    fn parses_reduction_ops() {
        for op in ["+", "*", "min", "max", "&", "|", "^", "&&", "||"] {
            let text = format!("omp for reduction({op}: s)");
            let p = parse_pragma(&text, 1).unwrap();
            match p {
                PragmaAst::For(c) => {
                    assert_eq!(
                        c[0],
                        ClauseAst::Reduction {
                            op,
                            vars: vec!["s"]
                        }
                    );
                }
                other => panic!("wrong pragma {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_directive_and_clause() {
        assert!(parse_pragma("omp frobnicate", 1).is_err());
        assert!(parse_pragma("omp for fancy(x)", 1).is_err());
        assert!(parse_pragma("acc parallel", 1).is_err());
    }

    #[test]
    fn num_threads_is_accepted() {
        let p = parse_pragma("omp parallel num_threads(8)", 1).unwrap();
        assert_eq!(p, PragmaAst::Parallel(vec![ClauseAst::NumThreads(8)]));
    }
}
