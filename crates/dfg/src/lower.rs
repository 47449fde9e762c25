//! Lowering from the DSL AST to a dataflow graph (the paper's Translator).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use cosmic_dsl::{Decl, DeclType, Dim, Expr, Index, Program, Stmt};

use crate::graph::{Dfg, DfgBuilder, NodeId, OpKind};

/// Binds symbolic dimension names (the `n` in `model w[n]`) to concrete
/// sizes at lowering time.
///
/// # Examples
///
/// ```
/// use cosmic_dfg::DimEnv;
///
/// let env = DimEnv::new().with("n", 784).with("h", 784).with("o", 10);
/// assert_eq!(env.get("h"), Some(784));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DimEnv {
    bindings: HashMap<String, usize>,
}

impl DimEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a binding, consuming and returning the environment for chaining.
    pub fn with(mut self, name: impl Into<String>, size: usize) -> Self {
        self.bindings.insert(name.into(), size);
        self
    }

    /// Looks up a symbolic dimension.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.bindings.get(name).copied()
    }

    fn resolve(&self, dim: &Dim) -> Result<usize, LowerError> {
        match dim {
            Dim::Literal(n) => Ok(*n),
            Dim::Symbol(s) => {
                self.get(s).ok_or_else(|| LowerError::new(format!("unbound dimension `{s}`")))
            }
        }
    }
}

/// An error produced while lowering a program to a DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    message: String,
}

impl LowerError {
    fn new(message: impl Into<String>) -> Self {
        LowerError { message: message.into() }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl Error for LowerError {}

/// A declared variable's resolved shape and its base slot in the flattened
/// data/model vector.
#[derive(Debug, Clone)]
struct VarInfo {
    ty: DeclType,
    shape: Vec<usize>,
    base_slot: u32,
}

impl VarInfo {
    fn flat_len(&self) -> usize {
        self.shape.iter().product()
    }

    fn flatten(&self, indices: &[usize], name: &str) -> Result<u32, LowerError> {
        if indices.len() != self.shape.len() {
            return Err(LowerError::new(format!(
                "`{name}` expects {} subscript(s), got {}",
                self.shape.len(),
                indices.len()
            )));
        }
        let mut flat = 0usize;
        for (&idx, &dim) in indices.iter().zip(&self.shape) {
            if idx >= dim {
                return Err(LowerError::new(format!(
                    "index {idx} out of bounds for `{name}` (dimension {dim})"
                )));
            }
            flat = flat * dim + idx;
        }
        Ok(self.base_slot + u32::try_from(flat).expect("variable larger than u32::MAX"))
    }
}

/// Lowers a validated DSL [`Program`] into a [`Dfg`], binding symbolic
/// dimensions through `env`.
///
/// The flattened training record is laid out as all `model_input`
/// declarations (row-major, in declaration order) followed by all
/// `model_output` declarations; the model vector likewise concatenates the
/// `model` declarations. Gradient declarations are paired with model
/// declarations by position and must match their shapes — the pairing
/// defines which parameter each gradient component updates in the fixed
/// SGD rule `θ ← θ − μ·g`.
///
/// # Errors
///
/// Returns [`LowerError`] if a dimension is unbound, shapes mismatch, an
/// interim value is referenced at an index never assigned, or an index is
/// out of bounds.
pub fn lower(program: &Program, env: &DimEnv) -> Result<Dfg, LowerError> {
    Lowerer::new(program, env)?.run(program)
}

struct Lowerer<'p> {
    vars: HashMap<&'p str, VarInfo>,
    iterators: HashMap<&'p str, usize>,
    /// Gradient base slot -> model base slot (per gradient decl).
    gradient_pairs: HashMap<&'p str, u32>,
    /// Interim scalar values: (name, flattened index vector) -> node.
    interims: HashMap<(String, Vec<usize>), NodeId>,
    builder: DfgBuilder,
    data_len: usize,
    model_len: usize,
}

impl<'p> Lowerer<'p> {
    fn new(program: &'p Program, env: &DimEnv) -> Result<Self, LowerError> {
        let mut vars = HashMap::new();
        let mut iterators = HashMap::new();

        let resolve_shape = |decl: &Decl| -> Result<Vec<usize>, LowerError> {
            decl.dims.iter().map(|d| env.resolve(d)).collect()
        };

        // Data slots: inputs first, outputs after.
        let mut data_cursor = 0u32;
        for decl in program.decls_of(DeclType::ModelInput) {
            let shape = resolve_shape(decl)?;
            let info = VarInfo { ty: DeclType::ModelInput, shape, base_slot: data_cursor };
            data_cursor += u32::try_from(info.flat_len()).expect("input too large");
            vars.insert(decl.name.as_str(), info);
        }
        for decl in program.decls_of(DeclType::ModelOutput) {
            let shape = resolve_shape(decl)?;
            let info = VarInfo { ty: DeclType::ModelOutput, shape, base_slot: data_cursor };
            data_cursor += u32::try_from(info.flat_len()).expect("output too large");
            vars.insert(decl.name.as_str(), info);
        }

        let mut model_cursor = 0u32;
        for decl in program.decls_of(DeclType::Model) {
            let shape = resolve_shape(decl)?;
            let info = VarInfo { ty: DeclType::Model, shape, base_slot: model_cursor };
            model_cursor += u32::try_from(info.flat_len()).expect("model too large");
            vars.insert(decl.name.as_str(), info);
        }

        // Gradients pair positionally with models and must match shapes.
        let models: Vec<&Decl> = program.decls_of(DeclType::Model).collect();
        let grads: Vec<&Decl> = program.decls_of(DeclType::Gradient).collect();
        if models.len() != grads.len() {
            return Err(LowerError::new(format!(
                "{} gradient declaration(s) for {} model declaration(s); they must pair 1:1",
                grads.len(),
                models.len()
            )));
        }
        let mut gradient_pairs = HashMap::new();
        let mut grad_cursor = 0u32;
        for (g, m) in grads.iter().zip(&models) {
            let g_shape = resolve_shape(g)?;
            let m_shape = resolve_shape(m)?;
            if g_shape != m_shape {
                return Err(LowerError::new(format!(
                    "gradient `{}` has shape {g_shape:?} but its model `{}` has {m_shape:?}",
                    g.name, m.name
                )));
            }
            let info = VarInfo { ty: DeclType::Gradient, shape: g_shape, base_slot: grad_cursor };
            grad_cursor += u32::try_from(info.flat_len()).expect("gradient too large");
            vars.insert(g.name.as_str(), info);
            gradient_pairs.insert(g.name.as_str(), vars[m.name.as_str()].base_slot);
        }

        for decl in program.decls_of(DeclType::Iterator) {
            let bound = env.resolve(&decl.dims[0])?;
            if bound == 0 {
                return Err(LowerError::new(format!("iterator `{}` has zero range", decl.name)));
            }
            iterators.insert(decl.name.as_str(), bound);
        }

        Ok(Lowerer {
            vars,
            iterators,
            gradient_pairs,
            interims: HashMap::new(),
            builder: DfgBuilder::new(),
            data_len: data_cursor as usize,
            model_len: model_cursor as usize,
        })
    }

    fn run(mut self, program: &'p Program) -> Result<Dfg, LowerError> {
        for stmt in program.statements() {
            self.lower_stmt(stmt)?;
        }
        Ok(self.builder.finish(self.data_len, self.model_len))
    }

    /// Lowers one statement, iterating over the cartesian product of the
    /// ranges of every iterator appearing in the l-value subscripts.
    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), LowerError> {
        // Collect the distinct iterators of the l-value, in order.
        let mut its: Vec<&str> = Vec::new();
        for idx in &stmt.lvalue.indices {
            match idx {
                Index::Iterator(name) => {
                    if !its.contains(&name.as_str()) {
                        its.push(name);
                    }
                }
                Index::Literal(_) => {}
            }
        }
        let ranges: Vec<usize> = its
            .iter()
            .map(|name| {
                self.iterators
                    .get(name)
                    .copied()
                    .ok_or_else(|| LowerError::new(format!("unknown iterator `{name}`")))
            })
            .collect::<Result<_, _>>()?;

        // Walk the index space with an odometer.
        let mut point = vec![0usize; its.len()];
        loop {
            let bindings: HashMap<&str, usize> =
                its.iter().copied().zip(point.iter().copied()).collect();
            self.lower_stmt_at(stmt, &bindings)?;

            // Advance odometer.
            let mut d = point.len();
            loop {
                if d == 0 {
                    return Ok(());
                }
                d -= 1;
                point[d] += 1;
                if point[d] < ranges[d] {
                    break;
                }
                point[d] = 0;
            }
        }
    }

    fn lower_stmt_at(
        &mut self,
        stmt: &Stmt,
        bindings: &HashMap<&str, usize>,
    ) -> Result<(), LowerError> {
        let value = self.lower_expr(&stmt.expr, bindings)?;
        let indices = resolve_indices(&stmt.lvalue.indices, bindings)?;
        let name = stmt.lvalue.name.as_str();
        match self.vars.get(name).map(|v| v.ty) {
            Some(DeclType::Gradient) => {
                let info = self.vars[name].clone();
                let grad_slot = info.flatten(&indices, name)?;
                let model_base = self.gradient_pairs[name];
                let model_slot = model_base + (grad_slot - info.base_slot);
                self.builder.set_gradient(grad_slot, value, model_slot);
            }
            Some(DeclType::Model) => {
                return Err(LowerError::new(format!(
                    "cannot assign model parameter `{name}` in the gradient program; the SGD \
                     update rule is applied by the stack"
                )));
            }
            Some(other) => {
                return Err(LowerError::new(format!("cannot assign to {other} `{name}`")));
            }
            None => {
                self.interims.insert((name.to_owned(), indices), value);
            }
        }
        Ok(())
    }

    fn lower_expr(
        &mut self,
        expr: &Expr,
        bindings: &HashMap<&str, usize>,
    ) -> Result<NodeId, LowerError> {
        match expr {
            Expr::Number(n, _) => Ok(self.builder.constant(*n)),
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.lower_expr(lhs, bindings)?;
                let b = self.lower_expr(rhs, bindings)?;
                Ok(self.builder.op(bin_op(*op), a, b))
            }
            Expr::Unary { func, arg, .. } => {
                let a = self.lower_expr(arg, bindings)?;
                Ok(self.builder.unary(*func, a))
            }
            Expr::Reduce { is_sum, iterator, body, .. } => {
                let range = *self
                    .iterators
                    .get(iterator.as_str())
                    .ok_or_else(|| LowerError::new(format!("unknown iterator `{iterator}`")))?;
                let mut items = Vec::with_capacity(range);
                let mut inner = bindings.clone();
                for v in 0..range {
                    inner.insert(iterator.as_str(), v);
                    items.push(self.lower_expr(body, &inner)?);
                }
                let kind = if *is_sum { OpKind::Add } else { OpKind::Mul };
                Ok(self.builder.reduce(kind, &items))
            }
            Expr::Ref { name, indices, .. } => {
                let indices = resolve_indices(indices, bindings)?;
                if let Some(info) = self.vars.get(name.as_str()).cloned() {
                    let slot = info.flatten(&indices, name)?;
                    match info.ty {
                        DeclType::ModelInput | DeclType::ModelOutput => Ok(self.builder.data(slot)),
                        DeclType::Model => Ok(self.builder.model(slot)),
                        DeclType::Gradient => Err(LowerError::new(format!(
                            "gradient `{name}` cannot be read inside the gradient program"
                        ))),
                        DeclType::Iterator => unreachable!("validated earlier"),
                    }
                } else {
                    self.interims.get(&(name.clone(), indices.clone())).copied().ok_or_else(|| {
                        LowerError::new(format!(
                            "interim `{name}{indices:?}` referenced before assignment"
                        ))
                    })
                }
            }
        }
    }
}

/// Resolves AST subscripts to concrete indices under iterator bindings.
fn resolve_indices(
    indices: &[Index],
    bindings: &HashMap<&str, usize>,
) -> Result<Vec<usize>, LowerError> {
    indices
        .iter()
        .map(|idx| match idx {
            Index::Iterator(name) => bindings
                .get(name.as_str())
                .copied()
                .ok_or_else(|| LowerError::new(format!("iterator `{name}` not in scope"))),
            Index::Literal(n) => Ok(*n),
        })
        .collect()
}

fn bin_op(op: cosmic_dsl::BinOp) -> OpKind {
    match op {
        cosmic_dsl::BinOp::Add => OpKind::Add,
        cosmic_dsl::BinOp::Sub => OpKind::Sub,
        cosmic_dsl::BinOp::Mul => OpKind::Mul,
        cosmic_dsl::BinOp::Div => OpKind::Div,
        cosmic_dsl::BinOp::Gt => OpKind::Gt,
        cosmic_dsl::BinOp::Lt => OpKind::Lt,
        cosmic_dsl::BinOp::Ge => OpKind::Ge,
        cosmic_dsl::BinOp::Le => OpKind::Le,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OperandClass;
    use cosmic_dsl::{parse, programs};

    fn env() -> DimEnv {
        DimEnv::new().with("n", 4).with("h", 3).with("o", 2).with("k", 4)
    }

    #[test]
    fn lowers_linear_regression() {
        let program = parse(&programs::linear_regression(64)).unwrap();
        let dfg = lower(&program, &env()).unwrap();
        // 4 features + 1 output.
        assert_eq!(dfg.data_len(), 5);
        assert_eq!(dfg.model_len(), 4);
        assert_eq!(dfg.gradient_len(), 4);
        // 4 muls + 3 reduction adds + 1 sub + 4 gradient muls.
        assert_eq!(dfg.op_count(), 12);
    }

    #[test]
    fn lowers_backprop_with_correct_sizes() {
        let program = parse(&programs::backpropagation(64)).unwrap();
        let dfg = lower(&program, &env()).unwrap();
        // data = 4 inputs + 2 outputs; model = 3*4 + 2*3.
        assert_eq!(dfg.data_len(), 6);
        assert_eq!(dfg.model_len(), 18);
        assert_eq!(dfg.gradient_len(), 18);
    }

    #[test]
    fn gradient_model_pairing_is_positional() {
        let program = parse(&programs::backpropagation(64)).unwrap();
        let dfg = lower(&program, &env()).unwrap();
        // Every gradient slot updates the model slot with the same offset.
        for (g, &m) in dfg.gradient_model_slots().iter().enumerate() {
            assert_eq!(g as u32, m);
        }
    }

    #[test]
    fn unbound_dimension_is_an_error() {
        let program = parse(&programs::svm(64)).unwrap();
        let err = lower(&program, &DimEnv::new()).unwrap_err();
        assert!(err.to_string().contains("unbound dimension"));
    }

    #[test]
    fn mismatched_gradient_shape_is_an_error() {
        let program = parse(
            "model w[n]; gradient g[m]; iterator i[0:n];
             g[i] = w[i];",
        )
        .unwrap();
        let err = lower(&program, &DimEnv::new().with("n", 4).with("m", 5)).unwrap_err();
        assert!(err.to_string().contains("shape"));
    }

    #[test]
    fn reduction_tree_is_balanced() {
        let program = parse(
            "model_input x[n]; model w[n]; gradient g[n]; iterator i[0:n];
             s = sum[i](w[i] * x[i]);
             g[i] = s * x[i];",
        )
        .unwrap();
        let dfg = lower(&program, &DimEnv::new().with("n", 16)).unwrap();
        // Depth: 1 (mul) + 4 (reduction) + 1 (gradient mul) = 6.
        assert_eq!(crate::analysis::critical_path(&dfg), 6);
    }

    #[test]
    fn classes_follow_declarations() {
        let program = parse(&programs::logistic_regression(64)).unwrap();
        let dfg = lower(&program, &env()).unwrap();
        let classes: Vec<OperandClass> =
            (0..dfg.len()).map(|i| dfg.class_of(crate::NodeId(i as u32))).collect();
        assert!(classes.contains(&OperandClass::Data));
        assert!(classes.contains(&OperandClass::Model));
        assert!(classes.contains(&OperandClass::Interim));
    }

    #[test]
    fn interim_sharing_deduplicates_work() {
        // `p` is computed once and referenced twice.
        let program = parse(
            "model_input x[n]; model w[n]; gradient g[n]; iterator i[0:n];
             p = sum[i](w[i] * x[i]);
             g[i] = p * p * x[i];",
        )
        .unwrap();
        let dfg = lower(&program, &DimEnv::new().with("n", 2)).unwrap();
        // 2 muls + 1 add + per-gradient (p*p, *x) = 2 ops * 2 = 4.
        assert_eq!(dfg.op_count(), 7);
    }

    #[test]
    fn all_builtin_programs_lower() {
        for name in ["linreg", "logreg", "svm", "backprop", "cf"] {
            let program = parse(&programs::by_name(name, 128).unwrap()).unwrap();
            let dfg = lower(&program, &env()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(dfg.op_count() > 0, "{name}");
            assert!(dfg.gradient_len() > 0, "{name}");
        }
    }

    #[test]
    fn zero_range_iterator_is_an_error() {
        let program = parse(
            "model w[n]; gradient g[n]; iterator i[0:n];
             g[i] = w[i];",
        )
        .unwrap();
        assert!(lower(&program, &DimEnv::new().with("n", 0)).is_err());
    }
}
