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
#[derive(Debug)]
struct VarInfo {
    ty: DeclType,
    shape: Vec<usize>,
    base_slot: u32,
}

impl VarInfo {
    /// Lays a declaration out at `*cursor` and advances the cursor past it,
    /// refusing one that does not fit the 32-bit slot space.
    fn place(decl: &Decl, shape: Vec<usize>, cursor: &mut u32) -> Result<Self, LowerError> {
        let end = shape
            .iter()
            .try_fold(1usize, |len, &dim| len.checked_mul(dim))
            .and_then(|len| u32::try_from(len).ok())
            .and_then(|len| cursor.checked_add(len))
            .ok_or_else(|| too_large(decl.ty, &decl.name, &shape))?;
        let info = VarInfo { ty: decl.ty, shape, base_slot: *cursor };
        *cursor = end;
        Ok(info)
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
        // `place` checked that the whole variable fits past `base_slot`.
        u32::try_from(flat)
            .ok()
            .and_then(|flat| self.base_slot.checked_add(flat))
            .ok_or_else(|| too_large(self.ty, name, &self.shape))
    }
}

fn too_large(ty: DeclType, name: &str, shape: &[usize]) -> LowerError {
    LowerError::new(format!("{ty} `{name}` of shape {shape:?} overflows the 32-bit slot space"))
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
/// Returns [`LowerError`] if a dimension is unbound, a declaration does
/// not fit the 32-bit slot space, shapes mismatch, an interim value is
/// referenced at an index never assigned, an index is out of bounds, or a
/// gradient element is assigned twice or never. Every check on the
/// declarations runs before the first node is built.
pub fn lower(program: &Program, env: &DimEnv) -> Result<Dfg, LowerError> {
    Lowerer::new(program, env)?.run(program)
}

/// One lowering's state. Walking the index space allocates nothing per
/// point: the bindings, the subscripts and the reduction operands live on
/// stacks reused across the whole program. An error abandons the lowering,
/// so a stack an error leaves dirty is never read again.
struct Lowerer<'p> {
    vars: HashMap<&'p str, VarInfo>,
    iterators: HashMap<&'p str, usize>,
    /// Gradient name -> its model's base slot.
    gradient_pairs: HashMap<&'p str, u32>,
    /// Interim scalar values: name -> flattened index vector -> node.
    interims: HashMap<&'p str, HashMap<Vec<usize>, NodeId>>,
    /// The iterator bindings in scope, outermost first. Lookups search
    /// from the innermost, so a reduction's iterator shadows a same-named
    /// l-value iterator.
    bindings: Vec<(&'p str, usize)>,
    /// The subscripts of the reference being resolved.
    indices: Vec<usize>,
    /// The operands of the reductions being lowered, innermost last.
    items: Vec<NodeId>,
    /// Each gradient declaration's name and slot range, in declaration
    /// order.
    gradient_spans: Vec<(&'p str, usize, usize)>,
    /// Which gradient slots have been assigned.
    assigned: Vec<bool>,
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
        for ty in [DeclType::ModelInput, DeclType::ModelOutput] {
            for decl in program.decls_of(ty) {
                let info = VarInfo::place(decl, resolve_shape(decl)?, &mut data_cursor)?;
                vars.insert(decl.name.as_str(), info);
            }
        }

        let mut model_cursor = 0u32;
        for decl in program.decls_of(DeclType::Model) {
            let info = VarInfo::place(decl, resolve_shape(decl)?, &mut model_cursor)?;
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
        let mut gradient_spans = Vec::with_capacity(grads.len());
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
            let info = VarInfo::place(g, g_shape, &mut grad_cursor)?;
            let start = info.base_slot as usize;
            gradient_spans.push((g.name.as_str(), start, grad_cursor as usize - start));
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

        let (data_len, model_len) = (data_cursor as usize, model_cursor as usize);
        Ok(Lowerer {
            vars,
            iterators,
            gradient_pairs,
            interims: HashMap::new(),
            bindings: Vec::new(),
            indices: Vec::new(),
            items: Vec::new(),
            gradient_spans,
            assigned: vec![false; grad_cursor as usize],
            builder: DfgBuilder::with_leaves(data_len, model_len),
            data_len,
            model_len,
        })
    }

    fn run(mut self, program: &'p Program) -> Result<Dfg, LowerError> {
        for stmt in program.statements() {
            self.lower_stmt(stmt)?;
        }
        for &(name, start, len) in &self.gradient_spans {
            if let Some(offset) = self.assigned[start..start + len].iter().position(|&set| !set) {
                return Err(LowerError::new(format!(
                    "gradient `{name}` leaves element {offset} unassigned"
                )));
            }
        }
        Ok(self.builder.finish(self.data_len, self.model_len))
    }

    /// Lowers one statement, iterating over the cartesian product of the
    /// ranges of every iterator appearing in the l-value subscripts.
    fn lower_stmt(&mut self, stmt: &'p Stmt) -> Result<(), LowerError> {
        // Bind the distinct iterators of the l-value, in order.
        self.bindings.clear();
        for idx in &stmt.lvalue.indices {
            if let Index::Iterator(name) = idx {
                if !self.bindings.iter().any(|&(bound, _)| bound == name) {
                    self.bindings.push((name, 0));
                }
            }
        }
        let ranges: Vec<usize> = self
            .bindings
            .iter()
            .map(|&(name, _)| {
                self.iterators
                    .get(name)
                    .copied()
                    .ok_or_else(|| LowerError::new(format!("unknown iterator `{name}`")))
            })
            .collect::<Result<_, _>>()?;

        // Walk the index space with the bindings as an odometer.
        loop {
            self.lower_stmt_at(stmt)?;
            let mut d = ranges.len();
            loop {
                if d == 0 {
                    return Ok(());
                }
                d -= 1;
                self.bindings[d].1 += 1;
                if self.bindings[d].1 < ranges[d] {
                    break;
                }
                self.bindings[d].1 = 0;
            }
        }
    }

    fn lower_stmt_at(&mut self, stmt: &'p Stmt) -> Result<(), LowerError> {
        let value = self.lower_expr(&stmt.expr)?;
        resolve_indices(&stmt.lvalue.indices, &self.bindings, &mut self.indices)?;
        let name = stmt.lvalue.name.as_str();
        match self.vars.get(name) {
            Some(info) if info.ty == DeclType::Gradient => {
                let grad_slot = info.flatten(&self.indices, name)?;
                let model_slot = self.gradient_pairs[name] + (grad_slot - info.base_slot);
                let set = &mut self.assigned[grad_slot as usize];
                if *set {
                    return Err(LowerError::new(format!(
                        "gradient `{name}{:?}` is assigned twice",
                        self.indices
                    )));
                }
                *set = true;
                self.builder.set_gradient(grad_slot, value, model_slot);
            }
            Some(info) if info.ty == DeclType::Model => {
                return Err(LowerError::new(format!(
                    "cannot assign model parameter `{name}` in the gradient program; the SGD \
                     update rule is applied by the stack"
                )));
            }
            Some(info) => {
                return Err(LowerError::new(format!("cannot assign to {} `{name}`", info.ty)));
            }
            None => {
                self.interims.entry(name).or_default().insert(self.indices.clone(), value);
            }
        }
        Ok(())
    }

    fn lower_expr(&mut self, expr: &'p Expr) -> Result<NodeId, LowerError> {
        match expr {
            Expr::Number(n, _) => Ok(self.builder.constant(*n)),
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.lower_expr(lhs)?;
                let b = self.lower_expr(rhs)?;
                Ok(self.builder.op(bin_op(*op), a, b))
            }
            Expr::Unary { func, arg, .. } => {
                let a = self.lower_expr(arg)?;
                Ok(self.builder.unary(*func, a))
            }
            Expr::Reduce { is_sum, iterator, body, .. } => {
                let range = *self
                    .iterators
                    .get(iterator.as_str())
                    .ok_or_else(|| LowerError::new(format!("unknown iterator `{iterator}`")))?;
                let (scope, first) = (self.bindings.len(), self.items.len());
                self.bindings.push((iterator, 0));
                for v in 0..range {
                    self.bindings[scope].1 = v;
                    let item = self.lower_expr(body)?;
                    self.items.push(item);
                }
                self.bindings.truncate(scope);
                let kind = if *is_sum { OpKind::Add } else { OpKind::Mul };
                let root = self.builder.reduce_in_place(kind, &mut self.items[first..]);
                self.items.truncate(first);
                Ok(root)
            }
            Expr::Ref { name, indices, .. } => {
                resolve_indices(indices, &self.bindings, &mut self.indices)?;
                if let Some(info) = self.vars.get(name.as_str()) {
                    let slot = info.flatten(&self.indices, name)?;
                    match info.ty {
                        DeclType::ModelInput | DeclType::ModelOutput => Ok(self.builder.data(slot)),
                        DeclType::Model => Ok(self.builder.model(slot)),
                        DeclType::Gradient => Err(LowerError::new(format!(
                            "gradient `{name}` cannot be read inside the gradient program"
                        ))),
                        DeclType::Iterator => unreachable!("iterators are never variables"),
                    }
                } else {
                    self.interims
                        .get(name.as_str())
                        .and_then(|points| points.get(self.indices.as_slice()))
                        .copied()
                        .ok_or_else(|| {
                            LowerError::new(format!(
                                "interim `{name}{:?}` referenced before assignment",
                                self.indices
                            ))
                        })
                }
            }
        }
    }
}

/// Resolves AST subscripts to concrete indices into `out`, each iterator
/// bound by its innermost binding.
fn resolve_indices(
    indices: &[Index],
    bindings: &[(&str, usize)],
    out: &mut Vec<usize>,
) -> Result<(), LowerError> {
    out.clear();
    for idx in indices {
        out.push(match idx {
            Index::Iterator(name) => bindings
                .iter()
                .rev()
                .find(|&&(bound, _)| bound == name)
                .map(|&(_, value)| value)
                .ok_or_else(|| LowerError::new(format!("iterator `{name}` not in scope")))?,
            Index::Literal(n) => *n,
        });
    }
    Ok(())
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

    /// A parsed but unvalidated program: the table below also reaches the
    /// checks that validation would normally pre-empt.
    fn unvalidated(src: &str) -> Program {
        cosmic_dsl::Parser::new(cosmic_dsl::Lexer::new(src).tokenize().unwrap())
            .parse_program()
            .unwrap()
    }

    /// Every `LowerError` the lowerer can raise, by the exact text it
    /// prints.
    #[test]
    fn every_error_message_is_pinned() {
        let n = |size: usize| DimEnv::new().with("n", size);
        let cases: [(&str, DimEnv, &str); 18] = [
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; g[i] = w[i];",
                DimEnv::new(),
                "unbound dimension `n`",
            ),
            (
                "model_input x[n]; model w[4]; gradient g[4]; iterator i[0:4]; g[i] = w[i];",
                n(1 << 32),
                "model_input `x` of shape [4294967296] overflows the 32-bit slot space",
            ),
            (
                "model_input x[n]; model_output y[n]; model w[4]; gradient g[4]; \
                 iterator i[0:4]; g[i] = w[i];",
                n(1 << 31),
                "model_output `y` of shape [2147483648] overflows the 32-bit slot space",
            ),
            (
                "model w[n][n]; gradient g[n][n]; iterator i[0:4]; g[i][i] = w[i][i];",
                n(1 << 16),
                "model `w` of shape [65536, 65536] overflows the 32-bit slot space",
            ),
            (
                "model w[n]; model v[n]; gradient g[n]; iterator i[0:n]; g[i] = w[i];",
                n(4),
                "1 gradient declaration(s) for 2 model declaration(s); they must pair 1:1",
            ),
            (
                "model w[n]; gradient g[m]; iterator i[0:n]; g[i] = w[i];",
                n(4).with("m", 5),
                "gradient `g` has shape [5] but its model `w` has [4]",
            ),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; g[i] = w[i];",
                n(0),
                "iterator `i` has zero range",
            ),
            (
                "model w[n][n]; gradient g[n][n]; iterator i[0:n]; g[i][i] = w[i];",
                n(2),
                "`w` expects 2 subscript(s), got 1",
            ),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; g[i] = w[4];",
                n(4),
                "index 4 out of bounds for `w` (dimension 4)",
            ),
            ("model w[n]; gradient g[n]; g[j] = w[0];", n(1), "unknown iterator `j`"),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; g[i] = sum[j](w[i]);",
                n(1),
                "unknown iterator `j`",
            ),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; g[i] = w[i]; w[i] = w[i];",
                n(2),
                "cannot assign model parameter `w` in the gradient program; the SGD update \
                 rule is applied by the stack",
            ),
            (
                "model_input x[n]; model w[n]; gradient g[n]; iterator i[0:n]; \
                 g[i] = w[i]; x[i] = w[i];",
                n(2),
                "cannot assign to model_input `x`",
            ),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; g[i] = g[i];",
                n(2),
                "gradient `g` cannot be read inside the gradient program",
            ),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; p[0] = w[0]; g[i] = p[i];",
                n(2),
                "interim `p[1]` referenced before assignment",
            ),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; iterator j[0:n]; \
                 s = w[j]; g[i] = s + w[i];",
                n(2),
                "iterator `j` not in scope",
            ),
            (
                "model w[n]; gradient g[n]; iterator i[0:n]; g[i] = w[i]; g[1] = w[0];",
                n(2),
                "gradient `g[1]` is assigned twice",
            ),
            (
                "model w[n]; gradient g[n]; g[0] = w[0];",
                n(2),
                "gradient `g` leaves element 1 unassigned",
            ),
        ];
        for (src, env, message) in cases {
            let err = lower(&unvalidated(src), &env).unwrap_err();
            assert_eq!(err.to_string(), format!("lowering error: {message}"), "{src}");
        }
    }

    /// `g[i] = sum[i](…)`: the reduction's `i` shadows the l-value's
    /// inside the body, and the l-value's is back in scope after it.
    #[test]
    fn a_reduction_iterator_shadows_the_lvalue_iterator() {
        let env = DimEnv::new().with("n", 3);
        let record = [1.0, 2.0, 3.0];
        let model = [4.0, 5.0, 6.0];
        let inner = parse(
            "model_input x[n]; model w[n]; gradient g[n]; iterator i[0:n];
             g[i] = sum[i](w[i] * x[i]);",
        )
        .unwrap();
        let dfg = lower(&inner, &env).unwrap();
        assert_eq!(crate::interp::evaluate(&dfg, &record, &model), vec![32.0; 3]);
        let after = parse(
            "model_input x[n]; model w[n]; gradient g[n]; iterator i[0:n];
             g[i] = sum[i](w[i]) * x[i];",
        )
        .unwrap();
        let dfg = lower(&after, &env).unwrap();
        assert_eq!(crate::interp::evaluate(&dfg, &record, &model), vec![15.0, 30.0, 45.0]);
    }

    /// A dimension past the 32-bit slot space is an error, not the
    /// `u32::try_from(..).expect` panic it once was.
    #[test]
    fn an_oversized_dimension_is_an_error() {
        let program = parse(&programs::linear_regression(64)).unwrap();
        let err = lower(&program, &DimEnv::new().with("n", 1 << 32)).unwrap_err();
        assert!(err.to_string().contains("overflows the 32-bit slot space"), "{err}");
    }

    /// A shape whose element count wraps `usize` to 0 is an error, not a
    /// graph with one data slot.
    #[test]
    fn a_wrapping_shape_product_is_an_error() {
        let program = parse(
            "model_input x[n][n]; model w[4]; gradient g[4]; iterator i[0:4];
             g[i] = w[i] * x[0][0];",
        )
        .unwrap();
        let err = lower(&program, &DimEnv::new().with("n", 1 << 32)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "lowering error: model_input `x` of shape [4294967296, 4294967296] overflows the \
             32-bit slot space"
        );
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
