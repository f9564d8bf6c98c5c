//! Recursive-descent parser for ParC, with precedence climbing for binary
//! operators: one loop over one binding-power table ([`binary_op`]).
//!
//! Nesting is bounded. Parsing, lowering and dropping the tree all recurse
//! once per level, on threads with ordinary stacks, so statements nested
//! inside statements plus the height of the expression tree below them may
//! not exceed [`MAX_NESTING`] levels; deeper input is a [`FrontendError`]
//! at the line where the limit was crossed. Left-deep chains such as
//! `1 + 1 + ... + 1` parse in a loop but still count by their height.
//!
//! Array sizes are bounded too: a declaration, global or local, may hold
//! at most [`MAX_ARRAY_CELLS`] scalar cells, so no program can make an
//! interpreter or the runtime allocate more than that for one object, and
//! no dimension product wraps. Every heap allocates all globals up front,
//! so their sum is bounded as well, by [`MAX_GLOBAL_CELLS`].

use crate::ast::*;
use crate::lexer::{Token, TokenKind};
use crate::pragma::parse_pragma;
#[cfg(test)]
use crate::pragma::PragmaAst;
use crate::FrontendError;

/// The deepest nesting the front-end accepts (the default bracket depth of
/// common C compilers).
pub(crate) const MAX_NESTING: u32 = 256;

/// The most scalar cells one array declaration may hold (the product of
/// its dimensions): 128 times the largest array in the bundled kernels.
pub(crate) const MAX_ARRAY_CELLS: u64 = 1 << 20;

/// The most scalar cells all globals of a program may hold together: 256
/// times the largest bundled total, GMAX Mini's 16,389 cells.
pub(crate) const MAX_GLOBAL_CELLS: u64 = 1 << 22;

/// Scan a token stream (as produced by [`crate::lexer::tokenize`]) into a
/// [`Unit`]: globals and function headers are parsed, and each function
/// body is only delimited, by matching braces, for [`parse_body`]. The
/// syntax error that stops the scan, if any, is kept in [`Unit::error`].
pub(crate) fn parse<'s>(tokens: &[Token<'s>]) -> Unit<'s> {
    let mut unit = Unit::default();
    unit.error = Parser::new(tokens).unit(&mut unit).err();
    unit
}

/// Parse one function body, the token range [`parse`] delimited.
///
/// # Errors
///
/// Returns the first syntax error with its source line.
pub(crate) fn parse_body<'s>(tokens: &[Token<'s>]) -> Result<Stmt<'s>, FrontendError> {
    Parser::new(tokens).block()
}

/// The binary operator `kind` spells and its binding power: higher binds
/// tighter, and every level is left-associative.
fn binary_op(kind: TokenKind<'_>) -> Option<(BinKind, u8)> {
    use TokenKind as T;
    Some(match kind {
        T::OrOr => (BinKind::LogOr, 1),
        T::AndAnd => (BinKind::LogAnd, 2),
        T::Pipe => (BinKind::BitOr, 3),
        T::Caret => (BinKind::BitXor, 4),
        T::Amp => (BinKind::BitAnd, 5),
        T::EqEq => (BinKind::Eq, 6),
        T::NotEq => (BinKind::Ne, 6),
        T::Lt => (BinKind::Lt, 7),
        T::Le => (BinKind::Le, 7),
        T::Gt => (BinKind::Gt, 7),
        T::Ge => (BinKind::Ge, 7),
        T::Shl => (BinKind::Shl, 8),
        T::Shr => (BinKind::Shr, 8),
        T::Plus => (BinKind::Add, 9),
        T::Minus => (BinKind::Sub, 9),
        T::Star => (BinKind::Mul, 10),
        T::Slash => (BinKind::Div, 10),
        T::Percent => (BinKind::Rem, 10),
        _ => return None,
    })
}

struct Parser<'t, 's> {
    toks: &'t [Token<'s>],
    pos: usize,
    /// Levels of statement and expression recursion currently open.
    depth: u32,
}

impl<'t, 's> Parser<'t, 's> {
    fn new(toks: &'t [Token<'s>]) -> Self {
        Parser {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> TokenKind<'s> {
        self.toks[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> TokenKind<'s> {
        let i = (self.pos + n).min(self.toks.len() - 1);
        self.toks[i].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError::new(self.line(), msg.into())
    }

    fn too_deep(&self) -> FrontendError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Open one more level of recursion; the caller closes it with
    /// `self.depth -= 1` on success (an error ends the parse, so its path
    /// need not).
    fn enter(&mut self) -> Result<(), FrontendError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    /// Build an expression node, refusing one whose tree would reach past
    /// [`MAX_NESTING`] from the current level.
    fn node(&self, kind: ExprKind<'s>, line: u32) -> Result<Expr<'s>, FrontendError> {
        let e = Expr::new(kind, line);
        if self.depth + e.height > MAX_NESTING + 1 {
            return Err(self.too_deep());
        }
        Ok(e)
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), FrontendError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        let hit = self.peek() == kind;
        if hit {
            self.bump();
        }
        hit
    }

    fn ident(&mut self, what: &str) -> Result<&'s str, FrontendError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn type_word(kind: TokenKind<'_>) -> Option<TypeSpec> {
        match kind {
            TokenKind::Ident("int") => Some(TypeSpec::Int),
            TokenKind::Ident("double" | "float") => Some(TypeSpec::Double),
            TokenKind::Ident("void") => Some(TypeSpec::Void),
            _ => None,
        }
    }

    // ---- top level --------------------------------------------------------

    fn unit(&mut self, unit: &mut Unit<'s>) -> Result<(), FrontendError> {
        let mut global_cells = 0u64;
        while self.peek() != TokenKind::Eof {
            let line = self.line();
            let Some(ty) = Self::type_word(self.peek()).inspect(|_| {
                self.bump();
            }) else {
                return Err(self.err(format!("expected declaration, found {:?}", self.peek())));
            };
            let name = self.ident("name")?;
            if self.peek() == TokenKind::LParen {
                unit.functions.push(self.function(ty, name, line)?);
            } else {
                // One or more global declarators.
                if ty == TypeSpec::Void {
                    return Err(self.err("void global variable"));
                }
                let mut current = name;
                loop {
                    let dims = self.dims()?;
                    global_cells = global_cells
                        .checked_add(dims.iter().product())
                        .filter(|&c| c <= MAX_GLOBAL_CELLS)
                        .ok_or_else(|| {
                            self.err(format!(
                                "globals larger than {MAX_GLOBAL_CELLS} cells in all"
                            ))
                        })?;
                    unit.globals.push(VarDecl {
                        name: current,
                        ty,
                        dims,
                        line,
                    });
                    if self.eat(TokenKind::Comma) {
                        current = self.ident("name")?;
                        continue;
                    }
                    self.expect(TokenKind::Semi, "';'")?;
                    break;
                }
            }
        }
        Ok(())
    }

    fn dims(&mut self) -> Result<Vec<u64>, FrontendError> {
        let mut dims = Vec::new();
        let mut cells = 1u64;
        while self.eat(TokenKind::LBracket) {
            match self.peek() {
                TokenKind::IntLit(n) if n > 0 => {
                    cells = cells
                        .checked_mul(n as u64)
                        .filter(|&c| c <= MAX_ARRAY_CELLS)
                        .ok_or_else(|| {
                            self.err(format!("array larger than {MAX_ARRAY_CELLS} cells"))
                        })?;
                    self.bump();
                    dims.push(n as u64);
                }
                other => return Err(self.err(format!("expected array size, found {other:?}"))),
            }
            self.expect(TokenKind::RBracket, "']'")?;
        }
        Ok(dims)
    }

    fn function(
        &mut self,
        ret: TypeSpec,
        name: &'s str,
        line: u32,
    ) -> Result<FuncDecl<'s>, FrontendError> {
        self.expect(TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.eat(TokenKind::RParen) {
            loop {
                let Some(ty) = Self::type_word(self.peek()).inspect(|_| {
                    self.bump();
                }) else {
                    return Err(self.err("expected parameter type"));
                };
                if ty == TypeSpec::Void {
                    return Err(self.err("void parameter"));
                }
                let pname = self.ident("parameter name")?;
                let is_array = if self.eat(TokenKind::LBracket) {
                    self.expect(TokenKind::RBracket, "']'")?;
                    true
                } else {
                    false
                };
                params.push(ParamDecl {
                    name: pname,
                    ty,
                    is_array,
                });
                if self.eat(TokenKind::Comma) {
                    continue;
                }
                self.expect(TokenKind::RParen, "')'")?;
                break;
            }
        }
        // The body's block, found by brace matching: `{` and `}` appear in
        // no other construct, so a parse of the block stops inside it.
        let start = self.pos;
        self.expect(TokenKind::LBrace, "'{'")?;
        let mut open = 1;
        while open > 0 && self.peek() != TokenKind::Eof {
            match self.peek() {
                TokenKind::LBrace => open += 1,
                TokenKind::RBrace => open -= 1,
                _ => {}
            }
            self.bump();
        }
        // An unclosed body runs to the end, `Eof` included.
        let end = if open > 0 { self.toks.len() } else { self.pos };
        Ok(FuncDecl {
            name,
            ret,
            params,
            body: start..end,
            line,
        })
    }

    // ---- statements --------------------------------------------------------

    fn block(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let line = self.line();
        self.expect(TokenKind::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if self.peek() == TokenKind::Eof {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(Stmt::new(StmtKind::Block(stmts), line))
    }

    /// One statement, one nesting level deeper. Each form is parsed in a
    /// function of its own, which keeps this frame (one per level) small in
    /// unoptimized builds too.
    fn stmt(&mut self) -> Result<Stmt<'s>, FrontendError> {
        self.enter()?;
        let line = self.line();
        let stmt = match self.peek() {
            TokenKind::Pragma(text) => self.pragma_stmt(text, line),
            TokenKind::LBrace => self.block(),
            TokenKind::Ident("if") => self.if_stmt(line),
            TokenKind::Ident("while") => self.while_stmt(line),
            TokenKind::Ident(w @ ("for" | "cilk_for")) => self.for_stmt(w == "cilk_for", line),
            TokenKind::Ident("return") => self.return_stmt(line),
            TokenKind::Ident(w @ ("cilk_sync" | "cilk_scope" | "cilk_spawn")) => {
                self.cilk_stmt(w, line)
            }
            kind => match Self::type_word(kind) {
                Some(ty) => self.decl_stmt(ty, line),
                None => self.simple_stmt_semi(),
            },
        }?;
        self.depth -= 1;
        Ok(stmt)
    }

    fn pragma_stmt(&mut self, text: &'s str, line: u32) -> Result<Stmt<'s>, FrontendError> {
        self.bump();
        let pragma = parse_pragma(text, line)?;
        if pragma.is_standalone() {
            return Ok(Stmt::new(StmtKind::StandalonePragma(pragma), line));
        }
        // `parallel for` & friends annotate the next statement.
        let stmt = Box::new(self.stmt()?);
        Ok(Stmt::new(StmtKind::Pragma { pragma, stmt }, line))
    }

    /// `(cond)` after a keyword.
    fn paren_cond(&mut self) -> Result<Expr<'s>, FrontendError> {
        self.bump();
        self.expect(TokenKind::LParen, "'('")?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen, "')'")?;
        Ok(cond)
    }

    fn if_stmt(&mut self, line: u32) -> Result<Stmt<'s>, FrontendError> {
        let cond = self.paren_cond()?;
        let then_stmt = Box::new(self.stmt()?);
        let else_stmt = if self.peek().is_ident("else") {
            self.bump();
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        let kind = StmtKind::If {
            cond,
            then_stmt,
            else_stmt,
        };
        Ok(Stmt::new(kind, line))
    }

    fn while_stmt(&mut self, line: u32) -> Result<Stmt<'s>, FrontendError> {
        let cond = self.paren_cond()?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::new(StmtKind::While { cond, body }, line))
    }

    fn return_stmt(&mut self, line: u32) -> Result<Stmt<'s>, FrontendError> {
        self.bump();
        let value = if self.peek() == TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi, "';'")?;
        Ok(Stmt::new(StmtKind::Return(value), line))
    }

    fn cilk_stmt(&mut self, keyword: &str, line: u32) -> Result<Stmt<'s>, FrontendError> {
        self.bump();
        let kind = match keyword {
            "cilk_scope" => {
                return Ok(Stmt::new(
                    StmtKind::CilkScope(Box::new(self.block()?)),
                    line,
                ))
            }
            "cilk_spawn" => StmtKind::CilkSpawn {
                target: None,
                call: self.spawned_call()?,
            },
            _ => StmtKind::CilkSync,
        };
        self.expect(TokenKind::Semi, "';'")?;
        Ok(Stmt::new(kind, line))
    }

    /// The call after `cilk_spawn`.
    fn spawned_call(&mut self) -> Result<Expr<'s>, FrontendError> {
        let call = self.expr()?;
        if !matches!(call.kind, ExprKind::Call(..)) {
            return Err(self.err("cilk_spawn must spawn a call"));
        }
        Ok(call)
    }

    /// One or more local declarators after the type word `ty`.
    fn decl_stmt(&mut self, ty: TypeSpec, line: u32) -> Result<Stmt<'s>, FrontendError> {
        self.bump();
        if ty == TypeSpec::Void {
            return Err(self.err("void local variable"));
        }
        let mut stmts = Vec::new();
        loop {
            let name = self.ident("variable name")?;
            let dims = self.dims()?;
            let init = if self.eat(TokenKind::Assign) {
                if !dims.is_empty() {
                    return Err(self.err("array declarations cannot have initializers"));
                }
                Some(self.expr()?)
            } else {
                None
            };
            let decl = VarDecl {
                name,
                ty,
                dims,
                line,
            };
            stmts.push(Stmt::new(StmtKind::Decl(decl, init), line));
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Semi, "';'")?;
        if stmts.len() == 1 {
            Ok(stmts.pop().expect("one declarator"))
        } else {
            Ok(Stmt::new(StmtKind::Block(stmts), line))
        }
    }

    fn for_stmt(&mut self, is_cilk: bool, line: u32) -> Result<Stmt<'s>, FrontendError> {
        self.bump();
        self.expect(TokenKind::LParen, "'('")?;
        let init = Box::new(self.simple_stmt()?);
        self.expect(TokenKind::Semi, "';'")?;
        let cond = self.expr()?;
        self.expect(TokenKind::Semi, "';'")?;
        let step = Box::new(self.simple_stmt()?);
        self.expect(TokenKind::RParen, "')'")?;
        let body = Box::new(self.stmt()?);
        let kind = StmtKind::For {
            init,
            cond,
            step,
            body,
            is_cilk,
        };
        Ok(Stmt::new(kind, line))
    }

    fn simple_stmt_semi(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let stmt = self.simple_stmt()?;
        self.expect(TokenKind::Semi, "';'")?;
        Ok(stmt)
    }

    /// Assignment / compound assignment / increment / call — the statement
    /// forms allowed in `for` headers (no trailing `;`).
    fn simple_stmt(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let line = self.line();
        let target = self.expr()?;
        let op = match self.peek() {
            TokenKind::Assign => None,
            TokenKind::PlusAssign | TokenKind::PlusPlus => Some(BinKind::Add),
            TokenKind::MinusAssign | TokenKind::MinusMinus => Some(BinKind::Sub),
            TokenKind::StarAssign => Some(BinKind::Mul),
            TokenKind::SlashAssign => Some(BinKind::Div),
            // Plain expression statement (must be a call to be useful).
            _ => return Ok(Stmt::new(StmtKind::ExprStmt(target), line)),
        };
        let step = matches!(self.peek(), TokenKind::PlusPlus | TokenKind::MinusMinus);
        self.bump();
        if step {
            let value = Expr::new(ExprKind::IntLit(1), line);
            return Ok(Stmt::new(StmtKind::Assign { target, op, value }, line));
        }
        if !matches!(target.kind, ExprKind::Var(_) | ExprKind::Index(..)) {
            return Err(self.err("assignment target must be a variable or array element"));
        }
        // `x = cilk_spawn f(...)`
        if op.is_none() && self.peek().is_ident("cilk_spawn") {
            self.bump();
            let call = self.spawned_call()?;
            return Ok(Stmt::new(
                StmtKind::CilkSpawn {
                    target: Some(target),
                    call,
                },
                line,
            ));
        }
        let value = self.expr()?;
        Ok(Stmt::new(StmtKind::Assign { target, op, value }, line))
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self) -> Result<Expr<'s>, FrontendError> {
        self.binary(0)
    }

    /// Precedence climbing: fold every operator that binds at least as
    /// tightly as `min_power` into a left-deep chain, parsing each right
    /// operand one power tighter.
    fn binary(&mut self, min_power: u8) -> Result<Expr<'s>, FrontendError> {
        self.enter()?;
        let mut lhs = self.unary_expr()?;
        while let Some((op, power)) = binary_op(self.peek()) {
            if power < min_power {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary(power + 1)?;
            lhs = self.node(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), line)?;
        }
        self.depth -= 1;
        Ok(lhs)
    }

    /// The operand of a prefix operator or cast, one level deeper.
    fn operand(&mut self) -> Result<Box<Expr<'s>>, FrontendError> {
        self.enter()?;
        let e = self.unary_expr()?;
        self.depth -= 1;
        Ok(Box::new(e))
    }

    fn unary_expr(&mut self) -> Result<Expr<'s>, FrontendError> {
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Minus => UnKind::Neg,
            TokenKind::Bang => UnKind::Not,
            _ => return self.postfix_expr(),
        };
        self.bump();
        let e = self.operand()?;
        self.node(ExprKind::Unary(op, e), line)
    }

    fn postfix_expr(&mut self) -> Result<Expr<'s>, FrontendError> {
        let mut e = self.primary_expr()?;
        loop {
            let line = self.line();
            if !self.eat(TokenKind::LBracket) {
                return Ok(e);
            }
            let idx = self.expr()?;
            self.expect(TokenKind::RBracket, "']'")?;
            e = self.node(ExprKind::Index(Box::new(e), Box::new(idx)), line)?;
        }
    }

    fn primary_expr(&mut self) -> Result<Expr<'s>, FrontendError> {
        let line = self.line();
        match self.peek() {
            TokenKind::IntLit(v) => {
                self.bump();
                self.node(ExprKind::IntLit(v), line)
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                self.node(ExprKind::FloatLit(v), line)
            }
            TokenKind::LParen => {
                // Cast `(int) e` vs parenthesized expression.
                if let Some(ty) = Self::type_word(self.peek_at(1)) {
                    if self.peek_at(2) == TokenKind::RParen {
                        self.pos += 3;
                        let e = self.operand()?;
                        return self.node(ExprKind::Cast(ty, e), line);
                    }
                }
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if !self.eat(TokenKind::LParen) {
                    return self.node(ExprKind::Var(name), line);
                }
                let mut args = Vec::new();
                if !self.eat(TokenKind::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if self.eat(TokenKind::Comma) {
                            continue;
                        }
                        self.expect(TokenKind::RParen, "')'")?;
                        break;
                    }
                }
                self.node(ExprKind::Call(name, args), line)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_src(src: &str) -> Unit<'_> {
        let unit = parse(&tokenize(src).unwrap());
        assert_eq!(unit.error, None);
        unit
    }

    /// The statements of the first function's body.
    fn body(src: &str) -> Vec<Stmt<'_>> {
        let toks = tokenize(src).unwrap();
        let range = parse(&toks).functions[0].body.clone();
        let StmtKind::Block(stmts) = parse_body(&toks[range]).unwrap().kind else {
            panic!("a body is a block")
        };
        stmts
    }

    fn parse_err(src: &str) -> FrontendError {
        crate::compile(src).unwrap_err()
    }

    #[test]
    fn parses_globals_and_function() {
        let u = parse_src("int a[8]; double m[4][4], s;\nvoid f() { }");
        assert_eq!(u.globals.len(), 3);
        assert_eq!(u.globals[0].dims, vec![8]);
        assert_eq!(u.globals[1].dims, vec![4, 4]);
        assert!(u.globals[2].dims.is_empty());
        assert_eq!(u.functions.len(), 1);
        assert_eq!(u.functions[0].name, "f");
    }

    #[test]
    fn parses_params() {
        let u = parse_src("int f(int n, double a[], int b[]) { return n; }");
        let f = &u.functions[0];
        assert_eq!(f.params.len(), 3);
        assert!(!f.params[0].is_array);
        assert!(f.params[1].is_array);
        assert_eq!(f.params[1].ty, TypeSpec::Double);
    }

    #[test]
    fn precedence_is_c_like() {
        let stmts = body("int f() { return 1 + 2 * 3 < 4 & 5 == 6; }");
        let StmtKind::Return(Some(e)) = &stmts[0].kind else {
            panic!()
        };
        // Top must be BitAnd of (Lt ..) and (Eq ..).
        let ExprKind::Binary(BinKind::BitAnd, l, r) = &e.kind else {
            panic!("{e:?}")
        };
        assert!(matches!(l.kind, ExprKind::Binary(BinKind::Lt, ..)));
        assert!(matches!(r.kind, ExprKind::Binary(BinKind::Eq, ..)));
    }

    #[test]
    fn parses_for_with_increment() {
        let stmts = body("void f() { int i; for (i = 0; i < 10; i++) { i = i; } }");
        let StmtKind::For {
            init,
            step,
            is_cilk,
            ..
        } = &stmts[1].kind
        else {
            panic!()
        };
        assert!(!is_cilk);
        assert!(matches!(init.kind, StmtKind::Assign { op: None, .. }));
        assert!(matches!(
            step.kind,
            StmtKind::Assign {
                op: Some(BinKind::Add),
                ..
            }
        ));
    }

    #[test]
    fn parses_pragma_attached_to_loop() {
        let stmts = body(
            "void f() { int i;\n#pragma omp parallel for\nfor (i = 0; i < 4; i++) { i = i; } }",
        );
        let StmtKind::Pragma { pragma, stmt } = &stmts[1].kind else {
            panic!("{:?}", stmts[1])
        };
        assert!(matches!(pragma, PragmaAst::ParallelFor(_)));
        assert!(matches!(stmt.kind, StmtKind::For { .. }));
    }

    #[test]
    fn parses_cilk_constructs() {
        let stmts = body(
            "int fib(int n) { int x; int y; if (n < 2) { return n; } \
             x = cilk_spawn fib(n - 1); y = fib(n - 2); cilk_sync; return x + y; }",
        );
        assert!(matches!(
            &stmts[3].kind,
            StmtKind::CilkSpawn {
                target: Some(_),
                ..
            }
        ));
        assert!(matches!(&stmts[5].kind, StmtKind::CilkSync));
    }

    #[test]
    fn parses_cilk_for_and_scope() {
        let stmts =
            body("void f() { int i; cilk_scope { cilk_for (i = 0; i < 4; i++) { i = i; } } }");
        let StmtKind::CilkScope(inner) = &stmts[1].kind else {
            panic!()
        };
        let StmtKind::Block(inner_stmts) = &inner.kind else {
            panic!()
        };
        assert!(matches!(
            inner_stmts[0].kind,
            StmtKind::For { is_cilk: true, .. }
        ));
    }

    #[test]
    fn parses_casts_and_indexing() {
        let stmts = body("double g[4][4]; void f() { g[1][2] = (double) 3 + g[0][0]; }");
        let StmtKind::Assign { target, value, .. } = &stmts[0].kind else {
            panic!()
        };
        assert!(matches!(target.kind, ExprKind::Index(..)));
        let ExprKind::Binary(BinKind::Add, l, _) = &value.kind else {
            panic!()
        };
        assert!(matches!(l.kind, ExprKind::Cast(TypeSpec::Double, _)));
    }

    #[test]
    fn compound_assignment() {
        let stmts = body("int s; void f() { s += 2; s *= 3; }");
        assert!(matches!(
            &stmts[0].kind,
            StmtKind::Assign {
                op: Some(BinKind::Add),
                ..
            }
        ));
        assert!(matches!(
            &stmts[1].kind,
            StmtKind::Assign {
                op: Some(BinKind::Mul),
                ..
            }
        ));
    }

    #[test]
    fn error_on_bad_assignment_target() {
        let e = parse_err("void f() { 1 = 2; }");
        assert!(e.message.contains("assignment target"), "{e}");
    }

    #[test]
    fn error_on_array_initializer() {
        let e = parse_err("void f() { int a[4] = 0; }");
        assert!(e.message.contains("array declarations"), "{e}");
    }

    #[test]
    fn multi_declarators_in_locals() {
        let stmts = body("void f() { int i = 0, j = 1; }");
        let StmtKind::Block(decls) = &stmts[0].kind else {
            panic!()
        };
        assert_eq!(decls.len(), 2);
    }
}
