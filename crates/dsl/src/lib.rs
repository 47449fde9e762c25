//! # cosmic-dsl — the CoSMIC programming layer
//!
//! A math-oriented domain-specific language for expressing machine-learning
//! training algorithms as stochastic-optimization problems, following the
//! programming layer of *Scale-Out Acceleration for Machine Learning*
//! (MICRO 2017). The language extends the TABLA DSL: the programmer writes
//! only three things — the **partial gradient** formula, the **aggregation
//! operator**, and the **mini-batch size** — and the rest of the stack
//! (compiler, planner, system software, template architecture) is derived
//! automatically.
//!
//! The DSL provides five declaration types that carry learning semantics:
//! `model_input`, `model_output`, `model`, `gradient`, and `iterator`.
//! Statements are mathematical assignments; `sum[i](...)` and `pi[i](...)`
//! express reductions over an iterator, and non-linear operators (`sigmoid`,
//! `gaussian`, `log`, `sqrt`, `exp`, `abs`) map onto the accelerator's
//! look-up-table unit.
//!
//! # Examples
//!
//! The paper's Figure 4(a) support-vector-machine classifier:
//!
//! ```
//! use cosmic_dsl::parse;
//!
//! # fn main() -> Result<(), cosmic_dsl::DslError> {
//! let program = parse(
//!     "model_input x[n];
//!      model_output y;
//!      model w[n];
//!      gradient g[n];
//!      iterator i[0:n];
//!
//!      s = sum[i](w[i] * x[i]);
//!      m = s * y;
//!      c = 1 > m;
//!      g[i] = c * (0 - y) * x[i];
//!
//!      aggregator: avg;
//!      minibatch: 10000;",
//! )?;
//! assert_eq!(program.statements().len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod ast;
mod error;
mod lexer;
mod parser;
pub mod pretty;
pub mod programs;
mod span;
mod token;
mod validate;

pub use ast::{
    AggregatorOp, BinOp, Decl, DeclType, Dim, Expr, Index, LValue, Program, Stmt, UnaryFn,
};
pub use error::DslError;
pub use lexer::Lexer;
pub use parser::Parser;
pub use span::Span;
pub use token::{Token, TokenKind};

/// Parses and validates a complete DSL program from source text.
///
/// This is the main entry point of the crate: it lexes, parses, and runs
/// semantic validation (declaration checking, index-arity checking, gradient
/// coverage) in one call.
///
/// # Errors
///
/// Returns [`DslError`] describing the first lexical, syntactic, or semantic
/// problem found, with the source [`Span`] where it occurred.
pub fn parse(source: &str) -> Result<Program, DslError> {
    let tokens = Lexer::new(source).tokenize()?;
    let program = Parser::new(tokens).parse_program()?;
    validate::validate(&program)?;
    Ok(program)
}
