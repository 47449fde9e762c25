//! Recursive-descent parser for the CoSMIC DSL.

use crate::ast::{
    AggregatorOp, BinOp, Decl, DeclType, Dim, Expr, Index, LValue, Program, Stmt, UnaryFn,
};
use crate::error::DslError;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a token stream (from [`crate::Lexer`]) into a [`Program`].
///
/// # Examples
///
/// ```
/// use cosmic_dsl::{Lexer, Parser};
///
/// # fn main() -> Result<(), cosmic_dsl::DslError> {
/// let tokens = Lexer::new("model w[n]; iterator i[0:n]; g = w[0]; minibatch: 64;")
///     .tokenize()?;
/// let program = Parser::new(tokens).parse_program()?;
/// assert_eq!(program.minibatch(), Some(64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Creates a parser over a token stream that must end in `Eof`.
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    /// Parses the whole program.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error encountered.
    pub fn parse_program(mut self) -> Result<Program, DslError> {
        let mut decls = Vec::new();
        let mut stmts = Vec::new();
        let mut aggregator = AggregatorOp::default();
        let mut minibatch = None;

        loop {
            match self.peek_kind() {
                TokenKind::Eof => break,
                TokenKind::ModelInput => decls.push(self.parse_decl(DeclType::ModelInput)?),
                TokenKind::ModelOutput => decls.push(self.parse_decl(DeclType::ModelOutput)?),
                TokenKind::Model => decls.push(self.parse_decl(DeclType::Model)?),
                TokenKind::Gradient => decls.push(self.parse_decl(DeclType::Gradient)?),
                TokenKind::Iterator => decls.push(self.parse_iterator_decl()?),
                TokenKind::Aggregator => aggregator = self.parse_aggregator()?,
                TokenKind::Minibatch => minibatch = Some(self.parse_minibatch()?),
                TokenKind::Ident(_) => stmts.push(self.parse_stmt()?),
                other => {
                    let msg =
                        format!("expected declaration, statement, or directive, found {other}");
                    return Err(DslError::parse(msg, self.peek_span()));
                }
            }
        }
        Ok(Program::new(decls, stmts, aggregator, minibatch))
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_span(&self) -> Span {
        self.peek().span
    }

    fn advance(&mut self) -> Token {
        let tok = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, DslError> {
        if self.peek_kind() == kind {
            Ok(self.advance())
        } else {
            Err(DslError::parse(
                format!("expected {kind}, found {}", self.peek_kind()),
                self.peek_span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), DslError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let span = self.peek_span();
                self.advance();
                Ok((name, span))
            }
            other => Err(DslError::parse(
                format!("expected identifier, found {other}"),
                self.peek_span(),
            )),
        }
    }

    fn expect_usize(&mut self, what: &str) -> Result<usize, DslError> {
        match *self.peek_kind() {
            TokenKind::Number(n) if n >= 0.0 && n.fract() == 0.0 => {
                self.advance();
                Ok(n as usize)
            }
            ref other => Err(DslError::parse(
                format!("expected non-negative integer {what}, found {other}"),
                self.peek_span(),
            )),
        }
    }

    fn parse_decl(&mut self, ty: DeclType) -> Result<Decl, DslError> {
        let start = self.peek_span();
        self.advance(); // keyword
        let (name, _) = self.expect_ident()?;
        let mut dims = Vec::new();
        while self.peek_kind() == &TokenKind::LBracket {
            self.advance();
            let dim = match self.peek_kind().clone() {
                TokenKind::Ident(s) => {
                    self.advance();
                    Dim::Symbol(s)
                }
                TokenKind::Number(_) => Dim::Literal(self.expect_usize("dimension")?),
                other => {
                    return Err(DslError::parse(
                        format!("expected dimension, found {other}"),
                        self.peek_span(),
                    ))
                }
            };
            dims.push(dim);
            self.expect(&TokenKind::RBracket)?;
        }
        let end = self.expect(&TokenKind::Semicolon)?.span;
        Ok(Decl { ty, name, dims, span: start.merge(end) })
    }

    /// `iterator i[0:n];` — the lower bound must be `0`; the upper bound is
    /// exclusive and may be symbolic.
    fn parse_iterator_decl(&mut self) -> Result<Decl, DslError> {
        let start = self.peek_span();
        self.advance(); // `iterator`
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LBracket)?;
        let lo = self.expect_usize("iterator lower bound")?;
        if lo != 0 {
            return Err(DslError::parse(
                format!("iterator lower bound must be 0, found {lo}"),
                self.peek_span(),
            ));
        }
        self.expect(&TokenKind::Colon)?;
        let hi = match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Dim::Symbol(s)
            }
            TokenKind::Number(_) => Dim::Literal(self.expect_usize("iterator upper bound")?),
            other => {
                return Err(DslError::parse(
                    format!("expected iterator upper bound, found {other}"),
                    self.peek_span(),
                ))
            }
        };
        self.expect(&TokenKind::RBracket)?;
        let end = self.expect(&TokenKind::Semicolon)?.span;
        Ok(Decl { ty: DeclType::Iterator, name, dims: vec![hi], span: start.merge(end) })
    }

    /// `aggregator: avg;` or `aggregator: sum;`
    fn parse_aggregator(&mut self) -> Result<AggregatorOp, DslError> {
        self.advance(); // `aggregator`
        self.expect(&TokenKind::Colon)?;
        let op = match self.peek_kind().clone() {
            TokenKind::Ident(s) if s == "avg" || s == "average" => {
                self.advance();
                AggregatorOp::Average
            }
            TokenKind::Sum => {
                self.advance();
                AggregatorOp::Sum
            }
            other => {
                return Err(DslError::parse(
                    format!("expected `avg` or `sum`, found {other}"),
                    self.peek_span(),
                ))
            }
        };
        self.expect(&TokenKind::Semicolon)?;
        Ok(op)
    }

    /// `minibatch: 10000;`
    fn parse_minibatch(&mut self) -> Result<usize, DslError> {
        self.advance(); // `minibatch`
        self.expect(&TokenKind::Colon)?;
        let span = self.peek_span();
        let b = self.expect_usize("mini-batch size")?;
        if b == 0 {
            return Err(DslError::parse("mini-batch size must be positive", span));
        }
        self.expect(&TokenKind::Semicolon)?;
        Ok(b)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, DslError> {
        let (name, name_span) = self.expect_ident()?;
        let mut indices = Vec::new();
        let mut span = name_span;
        while self.peek_kind() == &TokenKind::LBracket {
            self.advance();
            indices.push(self.parse_index()?);
            span = span.merge(self.expect(&TokenKind::RBracket)?.span);
        }
        let lvalue = LValue { name, indices, span };
        self.expect(&TokenKind::Assign)?;
        let expr = self.parse_expr()?;
        let end = self.expect(&TokenKind::Semicolon)?.span;
        let span = lvalue.span.merge(end);
        Ok(Stmt { lvalue, expr, span })
    }

    fn parse_index(&mut self) -> Result<Index, DslError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(Index::Iterator(s))
            }
            TokenKind::Number(_) => Ok(Index::Literal(self.expect_usize("index")?)),
            other => {
                Err(DslError::parse(format!("expected index, found {other}"), self.peek_span()))
            }
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, DslError> {
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, DslError> {
        let lhs = self.parse_additive()?;
        let op = match self.peek_kind() {
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::Le => BinOp::Le,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.parse_additive()?;
        let span = lhs.span().merge(rhs.span());
        Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span })
    }

    fn parse_additive(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.parse_multiplicative()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, DslError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.parse_unary()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, DslError> {
        if self.peek_kind() == &TokenKind::Minus {
            let start = self.advance().span;
            let arg = self.parse_unary()?;
            let span = start.merge(arg.span());
            // Unary negation desugars to `0 - x`, which the PE ALU executes
            // as a subtract; no dedicated negate opcode exists in the
            // template architecture.
            return Ok(Expr::Binary {
                op: BinOp::Sub,
                lhs: Box::new(Expr::Number(0.0, start)),
                rhs: Box::new(arg),
                span,
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, DslError> {
        let span = self.peek_span();
        match self.peek_kind().clone() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::Number(n, span))
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Sum | TokenKind::Pi => self.parse_reduce(),
            TokenKind::Ident(name) => {
                if let Some(func) = unary_fn(&name) {
                    // Function application only when followed by `(`.
                    if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen) {
                        self.advance(); // name
                        self.advance(); // `(`
                        let arg = self.parse_expr()?;
                        let end = self.expect(&TokenKind::RParen)?.span;
                        return Ok(Expr::Unary { func, arg: Box::new(arg), span: span.merge(end) });
                    }
                }
                self.parse_ref()
            }
            other => Err(DslError::parse(format!("expected expression, found {other}"), span)),
        }
    }

    fn parse_reduce(&mut self) -> Result<Expr, DslError> {
        let start = self.peek_span();
        let is_sum = self.peek_kind() == &TokenKind::Sum;
        self.advance();
        self.expect(&TokenKind::LBracket)?;
        let (iterator, _) = self.expect_ident()?;
        self.expect(&TokenKind::RBracket)?;
        self.expect(&TokenKind::LParen)?;
        let body = self.parse_expr()?;
        let end = self.expect(&TokenKind::RParen)?.span;
        Ok(Expr::Reduce { is_sum, iterator, body: Box::new(body), span: start.merge(end) })
    }

    fn parse_ref(&mut self) -> Result<Expr, DslError> {
        let (name, mut span) = self.expect_ident()?;
        let mut indices = Vec::new();
        while self.peek_kind() == &TokenKind::LBracket {
            self.advance();
            indices.push(self.parse_index()?);
            span = span.merge(self.expect(&TokenKind::RBracket)?.span);
        }
        Ok(Expr::Ref { name, indices, span })
    }
}

fn unary_fn(name: &str) -> Option<UnaryFn> {
    match name {
        "sigmoid" => Some(UnaryFn::Sigmoid),
        "gaussian" => Some(UnaryFn::Gaussian),
        "log" => Some(UnaryFn::Log),
        "sqrt" => Some(UnaryFn::Sqrt),
        "exp" => Some(UnaryFn::Exp),
        "abs" => Some(UnaryFn::Abs),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexer;

    fn parse(src: &str) -> Result<Program, DslError> {
        Parser::new(Lexer::new(src).tokenize()?).parse_program()
    }

    #[test]
    fn parses_svm_example() {
        let p = parse(
            "model_input x[n];
             model_output y;
             model w[n];
             gradient g[n];
             iterator i[0:n];
             s = sum[i](w[i] * x[i]);
             m = s * y;
             c = 1 > m;
             g[i] = c * (0 - y) * x[i];
             aggregator: avg;
             minibatch: 10000;",
        )
        .unwrap();
        assert_eq!(p.declarations().len(), 5);
        assert_eq!(p.statements().len(), 4);
        assert_eq!(p.minibatch(), Some(10000));
        assert_eq!(p.aggregator(), AggregatorOp::Average);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("r = a + b * c;").unwrap();
        let Expr::Binary { op: BinOp::Add, rhs, .. } = &p.statements()[0].expr else {
            panic!("expected top-level add");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn comparison_binds_loosest() {
        let p = parse("r = a + b > c * d;").unwrap();
        assert!(matches!(p.statements()[0].expr, Expr::Binary { op: BinOp::Gt, .. }));
    }

    #[test]
    fn unary_minus_desugars_to_subtract() {
        let p = parse("r = -y;").unwrap();
        let Expr::Binary { op: BinOp::Sub, lhs, .. } = &p.statements()[0].expr else {
            panic!("expected subtract");
        };
        assert!(matches!(**lhs, Expr::Number(n, _) if n == 0.0));
    }

    #[test]
    fn parses_nested_reductions_and_2d_indexing() {
        let p = parse(
            "model w1[h][n];
             iterator i[0:n];
             iterator j[0:h];
             a[j] = sigmoid(sum[i](w1[j][i] * x[i]));",
        )
        .unwrap();
        let stmt = &p.statements()[0];
        assert_eq!(stmt.lvalue.indices.len(), 1);
        assert!(matches!(stmt.expr, Expr::Unary { func: UnaryFn::Sigmoid, .. }));
    }

    #[test]
    fn sigmoid_without_parens_is_a_variable() {
        // `sigmoid` as a bare name is a plain identifier reference.
        let p = parse("r = sigmoid + 1;").unwrap();
        assert!(matches!(p.statements()[0].expr, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn rejects_iterator_with_nonzero_lower_bound() {
        let err = parse("iterator i[1:n];").unwrap_err();
        assert!(err.to_string().contains("lower bound"));
    }

    #[test]
    fn rejects_zero_minibatch() {
        assert!(parse("minibatch: 0;").is_err());
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse("r = a + b").is_err());
    }

    #[test]
    fn rejects_garbage_directive() {
        assert!(parse("aggregator: median;").is_err());
    }

    #[test]
    fn aggregator_sum_form() {
        let p = parse("aggregator: sum;").unwrap();
        assert_eq!(p.aggregator(), AggregatorOp::Sum);
    }

    #[test]
    fn literal_dims_accepted() {
        let p = parse("model w[10]; iterator i[0:10];").unwrap();
        for decl in p.declarations() {
            assert_eq!(decl.dims, vec![Dim::Literal(10)], "{}", decl.name);
        }
    }
}
