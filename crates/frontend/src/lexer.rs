//! The ParC lexer.
//!
//! Tokens borrow their text from the source: an identifier or a pragma is
//! a `&str` slice, so lexing allocates only the token vector. `#pragma ...`
//! lines are captured as single [`TokenKind::Pragma`] tokens holding the
//! raw pragma text; the pragma sub-language is parsed separately by
//! [`crate::pragma`].

use crate::FrontendError;

/// The kind (and payload) of a token; punctuation variants are named after
/// their spelling (`LParen` is `(`, `Shl` is `<<`, `PlusAssign` is `+=`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'s> {
    /// Identifier or keyword.
    Ident(&'s str),
    IntLit(i64),
    FloatLit(f64),
    /// A whole `#pragma` line (text after `#pragma`, trimmed).
    Pragma(&'s str),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PlusPlus,
    MinusMinus,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
    Bang,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Whether this is the identifier `word`.
    pub(crate) fn is_ident(&self, word: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if *s == word)
    }
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'s> {
    pub(crate) kind: TokenKind<'s>,
    pub(crate) line: u32,
}

/// Lex all of `source`, ending with one [`TokenKind::Eof`].
///
/// # Errors
///
/// Unknown characters, malformed literals, unterminated block comments and
/// preprocessor lines other than `#pragma`.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token<'_>>, FrontendError> {
    let mut lexer = Lexer {
        src: source,
        pos: 0,
        line: 1,
    };
    // Roughly one token per five bytes of ParC.
    let mut out = Vec::with_capacity(source.len() / 5 + 1);
    loop {
        let tok = lexer.next_token()?;
        out.push(tok);
        if tok.kind == TokenKind::Eof {
            return Ok(out);
        }
    }
}

struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    line: u32,
}

impl<'s> Lexer<'s> {
    fn peek(&self) -> u8 {
        self.src.as_bytes().get(self.pos).copied().unwrap_or(0)
    }

    fn peek2(&self) -> u8 {
        self.src.as_bytes().get(self.pos + 1).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    /// Advance while `keep` holds for the next byte and return the text
    /// consumed, starting at `start`.
    fn take_while(&mut self, start: usize, keep: impl Fn(u8) -> bool) -> &'s str {
        while self.peek() != 0 && keep(self.peek()) {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    self.take_while(self.pos, |c| c != b'\n');
                }
                b'/' if self.peek2() == b'*' => {
                    let line = self.line;
                    self.bump();
                    self.bump();
                    while !(self.peek() == b'*' && self.peek2() == b'/') {
                        if self.peek() == 0 {
                            return Err(FrontendError::new(line, "unterminated comment"));
                        }
                        self.bump();
                    }
                    self.bump();
                    self.bump();
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token<'s>, FrontendError> {
        self.skip_trivia()?;
        let line = self.line;
        let tok = |kind| Ok(Token { kind, line });
        let start = self.pos;
        let c = self.peek();
        match c {
            0 => tok(TokenKind::Eof),
            b'#' => {
                // `#pragma ...` up to end of line.
                let text = self.take_while(start, |c| c != b'\n');
                let text = text.strip_prefix('#').unwrap_or(text).trim();
                let Some(rest) = text.strip_prefix("pragma") else {
                    return Err(FrontendError::new(
                        line,
                        format!("unknown preprocessor line: {text}"),
                    ));
                };
                tok(TokenKind::Pragma(rest.trim()))
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                tok(TokenKind::Ident(self.take_while(start, |c| {
                    c.is_ascii_alphanumeric() || c == b'_'
                })))
            }
            b'0'..=b'9' => {
                self.take_while(start, |c| c.is_ascii_digit());
                let mut is_float = false;
                if self.peek() == b'.' && self.peek2().is_ascii_digit() {
                    is_float = true;
                    self.bump();
                    self.take_while(start, |c| c.is_ascii_digit());
                }
                if matches!(self.peek(), b'e' | b'E') {
                    is_float = true;
                    self.bump();
                    if matches!(self.peek(), b'+' | b'-') {
                        self.bump();
                    }
                    self.take_while(start, |c| c.is_ascii_digit());
                }
                let text = &self.src[start..self.pos];
                if is_float {
                    let v: f64 = text.parse().map_err(|_| {
                        FrontendError::new(line, format!("bad float literal {text}"))
                    })?;
                    tok(TokenKind::FloatLit(v))
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| FrontendError::new(line, format!("bad int literal {text}")))?;
                    tok(TokenKind::IntLit(v))
                }
            }
            _ => {
                self.bump();
                let two = |this: &mut Self, second: u8, a: TokenKind<'s>, b: TokenKind<'s>| {
                    if this.peek() == second {
                        this.bump();
                        a
                    } else {
                        b
                    }
                };
                let kind = match c {
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    b'[' => TokenKind::LBracket,
                    b']' => TokenKind::RBracket,
                    b';' => TokenKind::Semi,
                    b',' => TokenKind::Comma,
                    b'%' => TokenKind::Percent,
                    b'^' => TokenKind::Caret,
                    b'+' => {
                        if self.peek() == b'+' {
                            self.bump();
                            TokenKind::PlusPlus
                        } else {
                            two(self, b'=', TokenKind::PlusAssign, TokenKind::Plus)
                        }
                    }
                    b'-' => {
                        if self.peek() == b'-' {
                            self.bump();
                            TokenKind::MinusMinus
                        } else {
                            two(self, b'=', TokenKind::MinusAssign, TokenKind::Minus)
                        }
                    }
                    b'*' => two(self, b'=', TokenKind::StarAssign, TokenKind::Star),
                    b'/' => two(self, b'=', TokenKind::SlashAssign, TokenKind::Slash),
                    b'=' => two(self, b'=', TokenKind::EqEq, TokenKind::Assign),
                    b'!' => two(self, b'=', TokenKind::NotEq, TokenKind::Bang),
                    b'<' => {
                        if self.peek() == b'<' {
                            self.bump();
                            TokenKind::Shl
                        } else {
                            two(self, b'=', TokenKind::Le, TokenKind::Lt)
                        }
                    }
                    b'>' => {
                        if self.peek() == b'>' {
                            self.bump();
                            TokenKind::Shr
                        } else {
                            two(self, b'=', TokenKind::Ge, TokenKind::Gt)
                        }
                    }
                    b'&' => two(self, b'&', TokenKind::AndAnd, TokenKind::Amp),
                    b'|' => two(self, b'|', TokenKind::OrOr, TokenKind::Pipe),
                    _ => {
                        // Report the whole character a non-ASCII byte starts.
                        let ch = self.src[start..].chars().next().expect("not at end");
                        return Err(FrontendError::new(
                            line,
                            format!("unexpected character {ch:?}"),
                        ));
                    }
                };
                tok(kind)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_idents_and_numbers() {
        let k = kinds("foo 42 3.5 1e3 2.5e-2");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("foo"),
                TokenKind::IntLit(42),
                TokenKind::FloatLit(3.5),
                TokenKind::FloatLit(1000.0),
                TokenKind::FloatLit(0.025),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let k = kinds("+ += ++ - -= -- == = != < <= << > >= >> && & || | ^ ! * *= / /= %");
        use TokenKind::*;
        assert_eq!(
            k,
            vec![
                Plus,
                PlusAssign,
                PlusPlus,
                Minus,
                MinusAssign,
                MinusMinus,
                EqEq,
                Assign,
                NotEq,
                Lt,
                Le,
                Shl,
                Gt,
                Ge,
                Shr,
                AndAnd,
                Amp,
                OrOr,
                Pipe,
                Caret,
                Bang,
                Star,
                StarAssign,
                Slash,
                SlashAssign,
                Percent,
                Eof,
            ]
        );
    }

    #[test]
    fn lexes_pragma_lines() {
        let k = kinds("#pragma omp parallel for private(x)\nint y;");
        assert_eq!(k[0], TokenKind::Pragma("omp parallel for private(x)"));
        assert_eq!(k[1], TokenKind::Ident("int"));
    }

    #[test]
    fn skips_comments() {
        let k = kinds("a // line comment\n /* block \n comment */ b");
        assert_eq!(
            k,
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn tracks_lines() {
        let toks = tokenize("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn rejects_unknown_chars() {
        let err = tokenize("a @ b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn rejects_an_unterminated_block_comment_at_its_line() {
        let err = tokenize("int a;\n/* trailing\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unterminated comment");
    }

    #[test]
    fn reports_a_non_ascii_character_whole() {
        let err = tokenize("int \u{e9};").unwrap_err();
        assert_eq!(err.message, "unexpected character 'é'");
    }

    #[test]
    fn rejects_non_pragma_hash() {
        let err = tokenize("#include <stdio.h>").unwrap_err();
        assert!(err.message.contains("unknown preprocessor"));
    }
}
