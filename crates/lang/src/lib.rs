//! # offload-lang
//!
//! Front end for the mini-C language analyzed by the
//! computation-offloading compiler (the reproduction of *Wang & Li,
//! PLDI 2004* works on this language instead of GCC's C front end).
//!
//! The language covers everything the paper's analyses exercise:
//! integers, fixed-size arrays, pointers, structs, dynamic allocation
//! (`alloc(T, n)`), opaque function pointers (`fn`), and the two I/O
//! builtins `input()` / `output(v)` that pin tasks to the client under the
//! paper's *semantic constraint*. The parameters of `main` are the
//! program's run-time parameters `h` used by the parametric analysis.
//!
//! # Pipeline
//!
//! ```
//! use offload_lang::{parse, check};
//!
//! let program = parse(
//!     "void main(int n) {
//!          int i;
//!          for (i = 0; i < n; i++) { output(i); }
//!      }",
//! )?;
//! let checked = check(program)?;
//! assert_eq!(checked.program.main().unwrap().params[0].name, "n");
//! # Ok::<(), offload_lang::LangError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
mod error;
pub mod examples_src;
mod lexer;
mod parser;
mod pretty;
mod token;
mod types;

pub use ast::{
    BinOp, Block, Expr, ExprKind, Function, Global, NodeId, Param, Program, Stmt, StructDef, Type,
    UnOp,
};
pub use error::{LangError, Phase};
pub use lexer::lex;
pub use parser::{parse, MAX_NESTING};
pub use pretty::{expr as pretty_expr, pretty};
pub use token::{Span, Token, TokenKind};
pub use types::{check, CallTarget, CheckedProgram};

/// Parses and type-checks in one step.
///
/// # Errors
///
/// Returns the first lexical, syntactic or type error.
///
/// # Examples
///
/// ```
/// let checked = offload_lang::frontend("void main() { output(42); }")?;
/// assert_eq!(checked.program.functions.len(), 1);
/// # Ok::<(), offload_lang::LangError>(())
/// ```
pub fn frontend(src: &str) -> Result<CheckedProgram, LangError> {
    check(parse(src)?)
}
