//! The ParC abstract syntax tree. Names borrow from the source text.

/// A scalar type specifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TypeSpec {
    /// `int` — 64-bit signed integer.
    Int,
    /// `double` — 64-bit float.
    Double,
    /// `void` — function return only.
    Void,
}

/// Binary operators (C semantics), named after what they compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `&&` (no short-circuit; both sides evaluate)
    LogAnd,
    /// `||` (no short-circuit)
    LogOr,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

/// Unary operators: `-` and `!`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnKind {
    Neg,
    Not,
}

/// An expression, annotated with its source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Expr<'s> {
    /// Node payload.
    pub(crate) kind: ExprKind<'s>,
    /// 1-based source line.
    pub(crate) line: u32,
    /// Height of this expression tree (1 for a leaf): how deep lowering
    /// and dropping it recurse.
    pub(crate) height: u32,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ExprKind<'s> {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable reference.
    Var(&'s str),
    /// `base[index]` — `base` may itself be an `Index` (2-D arrays).
    Index(Box<Expr<'s>>, Box<Expr<'s>>),
    /// Binary operation.
    Binary(BinKind, Box<Expr<'s>>, Box<Expr<'s>>),
    /// Unary operation.
    Unary(UnKind, Box<Expr<'s>>),
    /// Call (user function or built-in).
    Call(&'s str, Vec<Expr<'s>>),
    /// Explicit cast `(int) e` / `(double) e`.
    Cast(TypeSpec, Box<Expr<'s>>),
}

impl<'s> Expr<'s> {
    /// Construct an expression node.
    pub(crate) fn new(kind: ExprKind<'s>, line: u32) -> Expr<'s> {
        let below = match &kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Var(_) => 0,
            ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => a.height.max(b.height),
            ExprKind::Unary(_, a) | ExprKind::Cast(_, a) => a.height,
            ExprKind::Call(_, args) => args.iter().map(|a| a.height).max().unwrap_or(0),
        };
        Expr {
            kind,
            line,
            height: below + 1,
        }
    }
}

/// A variable declarator: `int a`, `double m[8][8]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarDecl<'s> {
    /// Variable name.
    pub(crate) name: &'s str,
    /// Scalar element type.
    pub(crate) ty: TypeSpec,
    /// Array dimensions (empty = scalar), outermost first.
    pub(crate) dims: Vec<u64>,
    /// Source line.
    pub(crate) line: u32,
}

/// A statement, annotated with its source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Stmt<'s> {
    /// Node payload.
    pub(crate) kind: StmtKind<'s>,
    /// 1-based source line.
    pub(crate) line: u32,
}

impl<'s> Stmt<'s> {
    /// Construct a statement node.
    pub(crate) fn new(kind: StmtKind<'s>, line: u32) -> Stmt<'s> {
        Stmt { kind, line }
    }
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StmtKind<'s> {
    /// `{ ... }`
    Block(Vec<Stmt<'s>>),
    /// Declaration with optional initializer (scalars only).
    Decl(VarDecl<'s>, Option<Expr<'s>>),
    /// `lvalue = expr` or compound `lvalue op= expr`; `op` is `None` for
    /// plain assignment.
    Assign {
        /// Assignment target (must be `Var` or `Index`).
        target: Expr<'s>,
        /// Compound operator for `+=` etc.
        op: Option<BinKind>,
        /// Right-hand side.
        value: Expr<'s>,
    },
    /// `if (cond) then [else els]`
    If {
        /// Condition.
        cond: Expr<'s>,
        /// Then branch.
        then_stmt: Box<Stmt<'s>>,
        /// Optional else branch.
        else_stmt: Option<Box<Stmt<'s>>>,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr<'s>,
        /// Body.
        body: Box<Stmt<'s>>,
    },
    /// `for (init; cond; step) body` — `init`/`step` are assignments.
    For {
        /// Initialization statement.
        init: Box<Stmt<'s>>,
        /// Continuation condition.
        cond: Expr<'s>,
        /// Per-iteration step statement.
        step: Box<Stmt<'s>>,
        /// Body.
        body: Box<Stmt<'s>>,
        /// `true` when written `cilk_for`.
        is_cilk: bool,
    },
    /// `return [expr];`
    Return(Option<Expr<'s>>),
    /// Expression statement (call for side effects).
    ExprStmt(Expr<'s>),
    /// A pragma attached to the following statement.
    Pragma {
        /// Parsed pragma.
        pragma: crate::pragma::PragmaAst<'s>,
        /// Annotated statement.
        stmt: Box<Stmt<'s>>,
    },
    /// A standalone pragma (`barrier`, `taskwait`).
    StandalonePragma(crate::pragma::PragmaAst<'s>),
    /// `x = cilk_spawn f(...)` or `cilk_spawn f(...)`.
    CilkSpawn {
        /// Optional assignment target for the spawned call's result.
        target: Option<Expr<'s>>,
        /// The spawned call.
        call: Expr<'s>,
    },
    /// `cilk_sync;`
    CilkSync,
    /// `cilk_scope { ... }`
    CilkScope(Box<Stmt<'s>>),
}

/// A function parameter: `int x`, `double a[]`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParamDecl<'s> {
    /// Parameter name.
    pub(crate) name: &'s str,
    /// Scalar element type.
    pub(crate) ty: TypeSpec,
    /// Whether declared with `[]` (array-of-`ty` pointer).
    pub(crate) is_array: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FuncDecl<'s> {
    /// Function name.
    pub(crate) name: &'s str,
    /// Return type.
    pub(crate) ret: TypeSpec,
    /// Parameters.
    pub(crate) params: Vec<ParamDecl<'s>>,
    /// The body's tokens, a block: parsed by the job that lowers it.
    pub(crate) body: std::ops::Range<usize>,
    /// Source line of the signature.
    pub(crate) line: u32,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Unit<'s> {
    /// Global variable declarations (zero-initialized).
    pub(crate) globals: Vec<VarDecl<'s>>,
    /// Function definitions, in source order.
    pub(crate) functions: Vec<FuncDecl<'s>>,
    /// The syntax error that ended the scan, if any; a syntax error inside
    /// an earlier function body comes before it.
    pub(crate) error: Option<crate::FrontendError>,
}
