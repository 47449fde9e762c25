//! Abstract syntax tree of the CoSMIC DSL.

use std::fmt;

use crate::span::Span;

/// The semantic class of a declared variable.
///
/// These five types are the learning-semantics vocabulary of the DSL
/// (paper §4.1); the compiler uses them to segregate dataflow-graph edges
/// into `DATA`, `MODEL`, and `INTERIM` categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeclType {
    /// A component of the training input vector `X_i`.
    ModelInput,
    /// A component of the expected output vector `Y*_i`.
    ModelOutput,
    /// A trainable model parameter in `θ`.
    Model,
    /// A component of the partial gradient `∂f/∂θ`.
    Gradient,
    /// A bounded index used by reductions and element-wise statements.
    Iterator,
}

impl fmt::Display for DeclType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeclType::ModelInput => "model_input",
            DeclType::ModelOutput => "model_output",
            DeclType::Model => "model",
            DeclType::Gradient => "gradient",
            DeclType::Iterator => "iterator",
        };
        f.write_str(s)
    }
}

/// A dimension in a declaration: either a literal size or a symbolic name
/// bound at lowering time (e.g. `n` in `model w[n]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Dim {
    /// A fixed size known in the source text.
    Literal(usize),
    /// A symbolic size resolved through a dimension environment.
    Symbol(String),
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Literal(n) => write!(f, "{n}"),
            Dim::Symbol(s) => f.write_str(s),
        }
    }
}

/// A variable declaration, e.g. `model w[n];` or `iterator i[0:n];`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// The semantic class.
    pub ty: DeclType,
    /// The declared name.
    pub name: String,
    /// For data declarations: one entry per dimension (empty for scalars).
    /// For iterators: the single exclusive upper bound (lower bound is 0).
    pub dims: Vec<Dim>,
    /// Source location of the declaration.
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Greater-than comparison yielding `1.0` or `0.0`.
    Gt,
    /// Less-than comparison yielding `1.0` or `0.0`.
    Lt,
    /// Greater-or-equal comparison yielding `1.0` or `0.0`.
    Ge,
    /// Less-or-equal comparison yielding `1.0` or `0.0`.
    Le,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Gt => ">",
            BinOp::Lt => "<",
            BinOp::Ge => ">=",
            BinOp::Le => "<=",
        };
        f.write_str(s)
    }
}

/// Unary non-linear functions implemented by the PE look-up-table unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryFn {
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Gaussian `e^(-x^2)`.
    Gaussian,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// Exponential.
    Exp,
    /// Absolute value.
    Abs,
}

impl fmt::Display for UnaryFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnaryFn::Sigmoid => "sigmoid",
            UnaryFn::Gaussian => "gaussian",
            UnaryFn::Log => "log",
            UnaryFn::Sqrt => "sqrt",
            UnaryFn::Exp => "exp",
            UnaryFn::Abs => "abs",
        };
        f.write_str(s)
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Number(f64, Span),
    /// A reference to a (possibly indexed) variable, e.g. `w[i]` or `y`.
    /// Indices are iterator names or literal constants.
    Ref {
        /// Variable name.
        name: String,
        /// One index per dimension.
        indices: Vec<Index>,
        /// Source location.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// A unary non-linear function application, e.g. `sigmoid(x)`.
    Unary {
        /// Function.
        func: UnaryFn,
        /// Argument.
        arg: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// A reduction over an iterator: `sum[i](body)` or `pi[i](body)`.
    Reduce {
        /// `true` for `sum`, `false` for `pi` (product).
        is_sum: bool,
        /// The iterator the reduction ranges over.
        iterator: String,
        /// The reduced body expression.
        body: Box<Expr>,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// Returns the source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Number(_, s) => *s,
            Expr::Ref { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Reduce { span, .. } => *span,
        }
    }
}

/// A single subscript in a reference: an iterator name or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Index {
    /// Subscript by an iterator variable, e.g. the `i` in `w[i]`.
    Iterator(String),
    /// Subscript by a constant position, e.g. `w[0]`.
    Literal(usize),
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Index::Iterator(s) => f.write_str(s),
            Index::Literal(n) => write!(f, "{n}"),
        }
    }
}

/// The left-hand side of an assignment, e.g. `g[i]` or `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct LValue {
    /// Assigned variable name.
    pub name: String,
    /// Indices, one per dimension (empty for scalars).
    pub indices: Vec<Index>,
    /// Source location.
    pub span: Span,
}

/// An assignment statement `lvalue = expr;`.
///
/// When the l-value is indexed by iterators, the statement is implicitly
/// element-wise over the full range of each iterator (the `∀i` semantics of
/// the paper's `g[i] = ...`).
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Destination.
    pub lvalue: LValue,
    /// Right-hand side.
    pub expr: Expr,
    /// Source location of the whole statement.
    pub span: Span,
}

/// How partial gradients from workers are combined (paper Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregatorOp {
    /// Averaging, used by parallelized SGD (Zinkevich et al.).
    #[default]
    Average,
    /// Summation, used by batched gradient descent.
    Sum,
}

impl fmt::Display for AggregatorOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregatorOp::Average => f.write_str("avg"),
            AggregatorOp::Sum => f.write_str("sum"),
        }
    }
}

/// A complete, parsed DSL program: declarations, gradient statements, the
/// aggregation operator, and the mini-batch size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    decls: Vec<Decl>,
    stmts: Vec<Stmt>,
    aggregator: AggregatorOp,
    minibatch: Option<usize>,
}

impl Program {
    /// Creates a program from its parts. Used by the parser; library users
    /// normally obtain programs through [`crate::parse`].
    pub fn new(
        decls: Vec<Decl>,
        stmts: Vec<Stmt>,
        aggregator: AggregatorOp,
        minibatch: Option<usize>,
    ) -> Self {
        Program { decls, stmts, aggregator, minibatch }
    }

    /// All declarations, in source order.
    pub(crate) fn declarations(&self) -> &[Decl] {
        &self.decls
    }

    /// All assignment statements, in source order.
    pub fn statements(&self) -> &[Stmt] {
        &self.stmts
    }

    /// The declared aggregation operator (defaults to averaging).
    pub(crate) fn aggregator(&self) -> AggregatorOp {
        self.aggregator
    }

    /// The declared mini-batch size, if the program specified one.
    pub fn minibatch(&self) -> Option<usize> {
        self.minibatch
    }

    /// Iterates over declarations of one semantic class.
    pub fn decls_of(&self, ty: DeclType) -> impl Iterator<Item = &Decl> {
        self.decls.iter().filter(move |d| d.ty == ty)
    }

    /// Number of non-blank source lines a programmer would write for this
    /// program (declarations + statements + the two directives). Used to
    /// reproduce the "Lines of Code" column of Table 1.
    pub fn lines_of_code(&self) -> usize {
        self.decls.len() + self.stmts.len() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_accessors() {
        let p = Program::new(
            vec![Decl {
                ty: DeclType::Model,
                name: "w".into(),
                dims: vec![Dim::Symbol("n".into())],
                span: Span::default(),
            }],
            vec![],
            AggregatorOp::Sum,
            Some(512),
        );
        assert_eq!(p.aggregator(), AggregatorOp::Sum);
        assert_eq!(p.minibatch(), Some(512));
        assert_eq!(p.decls_of(DeclType::Model).count(), 1);
        assert_eq!(p.decls_of(DeclType::Gradient).count(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(BinOp::Ge.to_string(), ">=");
        assert_eq!(UnaryFn::Sigmoid.to_string(), "sigmoid");
        assert_eq!(DeclType::ModelInput.to_string(), "model_input");
        assert_eq!(AggregatorOp::Average.to_string(), "avg");
        assert_eq!(Dim::Symbol("n".into()).to_string(), "n");
        assert_eq!(Index::Literal(3).to_string(), "3");
    }
}
