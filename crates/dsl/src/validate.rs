//! Semantic validation of parsed programs.

use std::collections::HashMap;

use crate::ast::{Decl, DeclType, Expr, Index, Program, Stmt};
use crate::error::DslError;

/// Checks a parsed [`Program`] for semantic errors.
///
/// Enforced rules:
///
/// - declared names are unique;
/// - every reference resolves to a declaration or to an interim variable
///   defined by an earlier statement (interim variables are implicitly
///   declared by their first assignment, as in the paper's examples);
/// - subscript arity matches the dimensionality of the referenced variable;
/// - subscripts and reduction ranges name declared iterators;
/// - `model_input` / `model_output` variables are never assigned;
/// - every declared `gradient` variable is assigned by some statement;
/// - the program contains at least one statement if it declares a gradient.
///
/// # Errors
///
/// Returns a [`DslError`] for the first violated rule.
pub(crate) fn validate(program: &Program) -> Result<(), DslError> {
    let mut checker = Checker::new(program)?;
    for stmt in program.statements() {
        checker.check_stmt(stmt)?;
    }
    checker.check_gradient_coverage(program)?;
    Ok(())
}

struct Checker<'p> {
    decls: HashMap<&'p str, &'p Decl>,
    /// Interim variables defined so far, mapped to their subscript arity.
    interims: HashMap<&'p str, usize>,
    assigned_gradients: Vec<&'p str>,
}

impl<'p> Checker<'p> {
    fn new(program: &'p Program) -> Result<Self, DslError> {
        let mut decls: HashMap<&str, &Decl> = HashMap::new();
        for d in program.declarations() {
            if let Some(prev) = decls.insert(&d.name, d) {
                return Err(DslError::validate(
                    format!("`{}` already declared as {} at {}", d.name, prev.ty, prev.span),
                    d.span,
                ));
            }
        }
        Ok(Checker { decls, interims: HashMap::new(), assigned_gradients: Vec::new() })
    }

    fn check_stmt(&mut self, stmt: &'p Stmt) -> Result<(), DslError> {
        // Indices on the l-value must be iterators (element-wise semantics)
        // or literals.
        for idx in &stmt.lvalue.indices {
            self.check_index(idx, stmt)?;
        }

        // Check the RHS before registering the LHS so self-reference within
        // a defining statement is rejected.
        self.check_expr(&stmt.expr)?;

        let name = stmt.lvalue.name.as_str();
        match self.decls.get(name).map(|d| d.ty) {
            Some(DeclType::ModelInput) | Some(DeclType::ModelOutput) => {
                return Err(DslError::validate(
                    format!("cannot assign to training data `{name}`"),
                    stmt.lvalue.span,
                ));
            }
            Some(DeclType::Iterator) => {
                return Err(DslError::validate(
                    format!("cannot assign to iterator `{name}`"),
                    stmt.lvalue.span,
                ));
            }
            Some(DeclType::Gradient) | Some(DeclType::Model) => {
                let decl = self.decls[name];
                if decl.dims.len() != stmt.lvalue.indices.len() {
                    return Err(DslError::validate(
                        format!(
                            "`{name}` has {} dimension(s) but is assigned with {} subscript(s)",
                            decl.dims.len(),
                            stmt.lvalue.indices.len()
                        ),
                        stmt.lvalue.span,
                    ));
                }
                if decl.ty == DeclType::Gradient {
                    self.assigned_gradients.push(name);
                }
            }
            None => {
                // Implicit interim definition; remember its arity.
                let arity = stmt.lvalue.indices.len();
                if let Some(prev) = self.interims.insert(name, arity) {
                    if prev != arity {
                        return Err(DslError::validate(
                            format!(
                                "interim `{name}` redefined with {arity} subscript(s); \
                                 previously {prev}"
                            ),
                            stmt.lvalue.span,
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_index(&self, idx: &Index, stmt: &Stmt) -> Result<(), DslError> {
        if let Index::Iterator(it) = idx {
            match self.decls.get(it.as_str()).map(|d| d.ty) {
                Some(DeclType::Iterator) => {}
                Some(other) => {
                    return Err(DslError::validate(
                        format!("subscript `{it}` is a {other}, not an iterator"),
                        stmt.span,
                    ))
                }
                None => {
                    return Err(DslError::validate(
                        format!("subscript `{it}` is not a declared iterator"),
                        stmt.span,
                    ))
                }
            }
        }
        Ok(())
    }

    fn check_expr(&self, expr: &Expr) -> Result<(), DslError> {
        match expr {
            Expr::Number(..) => Ok(()),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs)?;
                self.check_expr(rhs)
            }
            Expr::Unary { arg, .. } => self.check_expr(arg),
            Expr::Reduce { iterator, body, span, .. } => {
                match self.decls.get(iterator.as_str()).map(|d| d.ty) {
                    Some(DeclType::Iterator) => {}
                    _ => {
                        return Err(DslError::validate(
                            format!("reduction ranges over `{iterator}`, which is not an iterator"),
                            *span,
                        ))
                    }
                }
                self.check_expr(body)
            }
            Expr::Ref { name, indices, span } => {
                let arity = if let Some(decl) = self.decls.get(name.as_str()) {
                    if decl.ty == DeclType::Iterator && !indices.is_empty() {
                        return Err(DslError::validate(
                            format!("iterator `{name}` cannot be subscripted"),
                            *span,
                        ));
                    }
                    if decl.ty == DeclType::Iterator {
                        return Err(DslError::validate(
                            format!(
                                "iterator `{name}` used as a value; iterators may only subscript"
                            ),
                            *span,
                        ));
                    }
                    decl.dims.len()
                } else if let Some(&arity) = self.interims.get(name.as_str()) {
                    arity
                } else {
                    return Err(DslError::validate(
                        format!("`{name}` is not declared and not defined by an earlier statement"),
                        *span,
                    ));
                };
                if arity != indices.len() {
                    return Err(DslError::validate(
                        format!(
                            "`{name}` has {arity} dimension(s) but is referenced with {} \
                             subscript(s)",
                            indices.len()
                        ),
                        *span,
                    ));
                }
                for idx in indices {
                    if let Index::Iterator(it) = idx {
                        match self.decls.get(it.as_str()).map(|d| d.ty) {
                            Some(DeclType::Iterator) => {}
                            _ => {
                                return Err(DslError::validate(
                                    format!("subscript `{it}` is not a declared iterator"),
                                    *span,
                                ))
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn check_gradient_coverage(&self, program: &Program) -> Result<(), DslError> {
        for d in program.decls_of(DeclType::Gradient) {
            if !self.assigned_gradients.contains(&d.name.as_str()) {
                return Err(DslError::validate(
                    format!("gradient `{}` is declared but never assigned", d.name),
                    d.span,
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;

    #[test]
    fn accepts_valid_program() {
        assert!(parse(
            "model_input x[n]; model_output y; model w[n]; gradient g[n]; iterator i[0:n];
             p = sum[i](w[i] * x[i]);
             g[i] = (p - y) * x[i];"
        )
        .is_ok());
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let err = parse("model w[n]; gradient w[n]; iterator i[0:n]; w[i] = 1;").unwrap_err();
        assert!(err.to_string().contains("already declared"));
    }

    #[test]
    fn rejects_undeclared_reference() {
        let err = parse("model w[n]; iterator i[0:n]; w[i] = q * 2;").unwrap_err();
        assert!(err.to_string().contains("not declared"));
    }

    #[test]
    fn rejects_assignment_to_input() {
        let err = parse("model_input x[n]; iterator i[0:n]; x[i] = 1;").unwrap_err();
        assert!(err.to_string().contains("training data"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let err = parse("model w[n]; iterator i[0:n]; s = w[i][i];").unwrap_err();
        assert!(err.to_string().contains("subscript"));
    }

    #[test]
    fn rejects_unassigned_gradient() {
        let err = parse("gradient g[n]; model w[n]; iterator i[0:n]; s = w[i];").unwrap_err();
        assert!(err.to_string().contains("never assigned"));
    }

    #[test]
    fn rejects_non_iterator_subscript() {
        let err = parse("model w[n]; model v[n]; iterator i[0:n]; s = w[v];").unwrap_err();
        assert!(
            err.to_string().contains("not an iterator") || err.to_string().contains("iterator")
        );
    }

    #[test]
    fn rejects_reduction_over_non_iterator() {
        let err = parse("model w[n]; iterator i[0:n]; s = sum[w](w[i]);").unwrap_err();
        assert!(err.to_string().contains("not an iterator"));
    }

    #[test]
    fn rejects_interim_use_before_definition() {
        let err = parse("model w[n]; iterator i[0:n]; s = t + 1; t = 2;").unwrap_err();
        assert!(err.to_string().contains("not declared"));
    }

    #[test]
    fn interim_arity_is_consistent() {
        let err = parse(
            "model w[n]; iterator i[0:n];
             a[i] = w[i]; s = a;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("dimension"));
    }

    #[test]
    fn iterator_cannot_be_used_as_value() {
        let err = parse("model w[n]; iterator i[0:n]; s = i * 2;").unwrap_err();
        assert!(err.to_string().contains("used as a value"));
    }
}
