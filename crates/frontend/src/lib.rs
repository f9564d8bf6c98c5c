//! # pspdg-frontend — the ParC front-end
//!
//! ParC is the C-subset source language of this reproduction: enough of C to
//! express the NAS kernels' hot loops, plus `#pragma omp ...` annotations
//! and the Cilk keywords (`cilk_spawn`, `cilk_sync`, `cilk_scope`,
//! `cilk_for`). The front-end lowers ParC to [`pspdg_ir`] and attaches the
//! pragma semantics as [`pspdg_parallel`] directives — the same job the
//! paper's "custom clang-based front-end" does for LLVM IR (§6.1, Fig. 12).
//!
//! # Language summary
//!
//! * types: `int` (64-bit), `double`, fixed-size arrays `int a[N]`,
//!   `double m[N][M]`; 1-D array parameters `int a[]`;
//! * statements: declarations, assignments (including `+=`, `-=`, `*=`,
//!   `/=`, `++`, `--`), `if`/`else`, `for`, `while`, `return`, blocks,
//!   expression statements;
//! * expressions: C operators with C precedence
//!   (`|| && | ^ & == != < <= > >= << >> + - * / %`), unary `-`/`!`,
//!   calls, indexing, casts
//!   `(int)`/`(double)`; `&&`/`||` do **not** short-circuit (both sides
//!   are evaluated — documented deviation, irrelevant for the kernels);
//! * built-ins: `sqrt fabs sin cos exp log pow fmax fmin imax imin iabs
//!   print_i64 print_f64`;
//! * pragmas: `parallel`, `for`, `parallel for`, `sections`/`section`,
//!   `single`, `master`, `critical[(name)]`, `atomic`, `barrier`,
//!   `ordered`, `task [depend(...)]`, `taskwait`, `taskloop`, `simd`, with
//!   clauses `private firstprivate lastprivate shared threadprivate
//!   reduction(op: x) schedule(kind[,chunk]) nowait ordered collapse(n)
//!   num_threads(n)`.
//!
//! # How it compiles
//!
//! Tokens borrow the source (identifiers and pragma lines are `&str`
//! slices). A scan parses globals and function headers and delimits each
//! body by brace matching; then one [`pspdg_pool::par_map`] job per
//! function parses its body (precedence climbing over one binding-power
//! table), lowers it into its own IR function against the signatures
//! declared up front and drops its AST. Directives concatenate in function
//! order, and the first error is the one a whole-unit walk would meet.
//! Nesting deeper than 256 levels is an error, so the recursion fits an
//! ordinary thread stack.
//!
//! # Example
//!
//! ```
//! let source = r#"
//!     int a[16];
//!     void kernel() {
//!         int i;
//!         #pragma omp parallel for
//!         for (i = 0; i < 16; i++) { a[i] = i * i; }
//!     }
//!     int main() { kernel(); return 0; }
//! "#;
//! let program = pspdg_frontend::compile(source).expect("compiles");
//! assert_eq!(program.directives().count(), 2); // parallel + for
//! ```

#![warn(missing_docs)]

mod ast;
mod lexer;
mod lower;
mod parser;
mod pragma;

use pspdg_parallel::ParallelProgram;

/// A source-located front-end error (lexing, parsing, or semantic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl FrontendError {
    /// Construct an error at `line`.
    pub fn new(line: u32, message: impl Into<String>) -> FrontendError {
        FrontendError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FrontendError {}

/// Compile ParC source into a validated [`ParallelProgram`].
///
/// # Errors
///
/// Returns the first lexing, parsing, or semantic error, with its source
/// line.
pub fn compile(source: &str) -> Result<ParallelProgram, FrontendError> {
    let tokens = lexer::tokenize(source)?;
    let program = lower::lower(&tokens, &parser::parse(&tokens))?;
    program
        .validate()
        .map_err(|e| FrontendError::new(0, format!("lowering produced invalid program: {e}")))?;
    Ok(program)
}
