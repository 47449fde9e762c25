//! The dataflow-graph representation.

use std::collections::HashMap;
use std::fmt;

use cosmic_dsl::UnaryFn;

/// Identifies a node within one [`Dfg`].
///
/// Node ids are dense and topologically ordered: a node's operands always
/// have smaller ids, so a single forward pass visits nodes in dependency
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in the graph's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Arithmetic operations executed by the PE ALU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (served by the PE's look-up-table unit).
    Div,
    /// `1.0` if `a > b` else `0.0`.
    Gt,
    /// `1.0` if `a < b` else `0.0`.
    Lt,
    /// `1.0` if `a >= b` else `0.0`.
    Ge,
    /// `1.0` if `a <= b` else `0.0`.
    Le,
}

impl OpKind {
    /// Whether this operation requires the PE's non-linear (LUT) unit
    /// rather than the plain DSP ALU.
    pub fn is_nonlinear(self) -> bool {
        matches!(self, OpKind::Div)
    }

    /// ALU latency in cycles on the template PE.
    pub fn latency(self) -> u32 {
        match self {
            OpKind::Div => 4,
            _ => 1,
        }
    }

    /// Applies the operation to two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            OpKind::Add => a + b,
            OpKind::Sub => a - b,
            OpKind::Mul => a * b,
            OpKind::Div => a / b,
            OpKind::Gt => f64::from(a > b),
            OpKind::Lt => f64::from(a < b),
            OpKind::Ge => f64::from(a >= b),
            OpKind::Le => f64::from(a <= b),
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Div => "/",
            OpKind::Gt => ">",
            OpKind::Lt => "<",
            OpKind::Ge => ">=",
            OpKind::Le => "<=",
        };
        f.write_str(s)
    }
}

/// Applies a unary non-linear function (the PE LUT unit's repertoire).
pub(crate) fn apply_unary(func: UnaryFn, x: f64) -> f64 {
    match func {
        UnaryFn::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        UnaryFn::Gaussian => (-(x * x)).exp(),
        UnaryFn::Log => x.ln(),
        UnaryFn::Sqrt => x.sqrt(),
        UnaryFn::Exp => x.exp(),
        UnaryFn::Abs => x.abs(),
    }
}

/// One node of the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node {
    /// A component of the training record (input features followed by
    /// expected outputs) streamed from memory — the `DATA` class.
    Data {
        /// Position in the flattened training record.
        slot: u32,
    },
    /// A model parameter — the `MODEL` class.
    Model {
        /// Position in the flattened parameter vector `θ`.
        slot: u32,
    },
    /// A compile-time constant (embedded in the PE instruction stream).
    Const {
        /// The constant's value.
        value: f64,
    },
    /// A binary ALU operation.
    Op {
        /// Which operation.
        kind: OpKind,
        /// Left operand.
        a: NodeId,
        /// Right operand.
        b: NodeId,
    },
    /// A unary non-linear (LUT) operation.
    Unary {
        /// Which function.
        func: UnaryFn,
        /// Operand.
        a: NodeId,
    },
}

/// The class of the value an operand edge carries, used by the compiler's
/// minimum-communication mapping (paper Algorithm 1) to place operations
/// next to their data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandClass {
    /// Training data streamed from memory every record.
    Data,
    /// Model parameters resident in PE model buffers.
    Model,
    /// Intermediate values produced by earlier operations.
    Interim,
    /// Compile-time constants.
    Const,
}

/// A dataflow graph for one partial-gradient computation.
///
/// Construct with [`DfgBuilder`] or by lowering a DSL program with
/// [`crate::lower`]. Nodes are stored in a topologically ordered arena.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dfg {
    nodes: Vec<Node>,
    /// `gradient slot -> producing node`.
    gradients: Vec<NodeId>,
    /// `gradient slot -> model slot` it updates.
    gradient_model_slot: Vec<u32>,
    data_len: usize,
    model_len: usize,
}

impl Dfg {
    /// All nodes in topological (id) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// Number of nodes (including leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of *compute* nodes (binary ops + unary LUT ops).
    pub fn op_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Op { .. } | Node::Unary { .. })).count()
    }

    /// Length of the flattened training record (inputs + expected outputs).
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Length of the flattened model parameter vector.
    pub fn model_len(&self) -> usize {
        self.model_len
    }

    /// Length of the flattened gradient vector.
    pub fn gradient_len(&self) -> usize {
        self.gradients.len()
    }

    /// The node producing each gradient component, indexed by gradient slot.
    pub fn gradient_outputs(&self) -> &[NodeId] {
        &self.gradients
    }

    /// The model slot each gradient slot updates (`θ_s -= μ·g_s`).
    pub fn gradient_model_slots(&self) -> &[u32] {
        &self.gradient_model_slot
    }

    /// The operand class of the value produced by `id` (paper's edge
    /// segregation into DATA / MODEL / INTERIM).
    pub fn class_of(&self, id: NodeId) -> OperandClass {
        match self.node(id) {
            Node::Data { .. } => OperandClass::Data,
            Node::Model { .. } => OperandClass::Model,
            Node::Const { .. } => OperandClass::Const,
            Node::Op { .. } | Node::Unary { .. } => OperandClass::Interim,
        }
    }

    /// Iterates over the operand ids of a node (0, 1, or 2 of them).
    pub fn operands(&self, id: NodeId) -> impl Iterator<Item = NodeId> {
        let (a, b) = match self.node(id) {
            Node::Op { a, b, .. } => (Some(a), Some(b)),
            Node::Unary { a, .. } => (Some(a), None),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// Incrementally builds a [`Dfg`].
///
/// Leaves (`data`, `model`, `constant`) are deduplicated, so requesting the
/// same slot twice yields the same node. The data and model leaves are
/// cached densely by slot, so their caches grow to the largest slot
/// requested.
///
/// # Examples
///
/// ```
/// use cosmic_dfg::{DfgBuilder, OpKind};
///
/// let mut b = DfgBuilder::new();
/// let x = b.data(0);
/// let w = b.model(0);
/// let p = b.op(OpKind::Mul, w, x);
/// b.set_gradient(0, p, 0);
/// let dfg = b.finish(1, 1);
/// assert_eq!(dfg.op_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct DfgBuilder {
    nodes: Vec<Node>,
    /// Training-record slot -> its leaf.
    data_leaves: Vec<Option<NodeId>>,
    /// Model slot -> its leaf.
    model_leaves: Vec<Option<NodeId>>,
    const_cache: HashMap<u64, NodeId>,
    gradients: Vec<(u32, NodeId, u32)>,
}

impl DfgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder whose leaf caches already span a record of
    /// `data_len` slots and a model of `model_len`.
    pub(crate) fn with_leaves(data_len: usize, model_len: usize) -> Self {
        DfgBuilder {
            data_leaves: vec![None; data_len],
            model_leaves: vec![None; model_len],
            ..Self::default()
        }
    }

    /// Returns the (deduplicated) leaf node for training-record slot `slot`.
    pub fn data(&mut self, slot: u32) -> NodeId {
        leaf(&mut self.nodes, &mut self.data_leaves, Node::Data { slot }, slot)
    }

    /// Returns the (deduplicated) leaf node for model slot `slot`.
    pub fn model(&mut self, slot: u32) -> NodeId {
        leaf(&mut self.nodes, &mut self.model_leaves, Node::Model { slot }, slot)
    }

    /// Returns the (deduplicated) node for a compile-time constant.
    pub(crate) fn constant(&mut self, value: f64) -> NodeId {
        let bits = value.to_bits();
        if let Some(&id) = self.const_cache.get(&bits) {
            return id;
        }
        let id = push(&mut self.nodes, Node::Const { value });
        self.const_cache.insert(bits, id);
        id
    }

    /// Appends a binary operation node.
    pub fn op(&mut self, kind: OpKind, a: NodeId, b: NodeId) -> NodeId {
        debug_assert!(a.index() < self.nodes.len() && b.index() < self.nodes.len());
        push(&mut self.nodes, Node::Op { kind, a, b })
    }

    /// Appends a unary non-linear operation node.
    pub(crate) fn unary(&mut self, func: UnaryFn, a: NodeId) -> NodeId {
        debug_assert!(a.index() < self.nodes.len());
        push(&mut self.nodes, Node::Unary { func, a })
    }

    /// Builds a balanced binary reduction tree over `items`.
    ///
    /// Returns the root. An empty slice reduces to the operation's identity
    /// (0 for `Add`, 1 for `Mul`).
    pub fn reduce(&mut self, kind: OpKind, items: &[NodeId]) -> NodeId {
        self.reduce_in_place(kind, &mut items.to_vec())
    }

    /// [`DfgBuilder::reduce`] over a scratch slice: each level's nodes
    /// overwrite the front of `items`.
    pub(crate) fn reduce_in_place(&mut self, kind: OpKind, items: &mut [NodeId]) -> NodeId {
        let mut len = items.len();
        if len == 0 {
            return self.constant(if kind == OpKind::Mul { 1.0 } else { 0.0 });
        }
        while len > 1 {
            for i in 0..len / 2 {
                items[i] = self.op(kind, items[2 * i], items[2 * i + 1]);
            }
            if len % 2 == 1 {
                items[len / 2] = items[len - 1];
            }
            len = len.div_ceil(2);
        }
        items[0]
    }

    /// Registers `node` as the producer of gradient slot `grad_slot`, which
    /// updates `model_slot`.
    pub fn set_gradient(&mut self, grad_slot: u32, node: NodeId, model_slot: u32) {
        self.gradients.push((grad_slot, node, model_slot));
    }

    /// Whether every node has its own `u32` id.
    pub(crate) fn ids_fit(&self) -> bool {
        u32::try_from(self.nodes.len().saturating_sub(1)).is_ok()
    }

    /// Finalizes the graph.
    ///
    /// # Panics
    ///
    /// Panics if gradient slots are not exactly `0..k` for some `k` (each
    /// set once), or if the graph has more nodes than `u32` ids.
    pub fn finish(mut self, data_len: usize, model_len: usize) -> Dfg {
        assert!(self.ids_fit(), "DFG larger than u32::MAX + 1 nodes");
        self.gradients.sort_by_key(|&(slot, _, _)| slot);
        for (expect, &(slot, _, _)) in self.gradients.iter().enumerate() {
            assert_eq!(
                slot as usize, expect,
                "gradient slots must be dense and unique (missing or duplicate slot)"
            );
        }
        let gradient_model_slot = self.gradients.iter().map(|&(_, _, m)| m).collect();
        let gradients = self.gradients.iter().map(|&(_, n, _)| n).collect();
        Dfg { nodes: self.nodes, gradients, gradient_model_slot, data_len, model_len }
    }
}

/// Appends `node`. Past `u32::MAX` nodes its id wraps; [`lower`] rejects
/// such a graph with an error and [`DfgBuilder::finish`] panics on it.
///
/// [`lower`]: crate::lower
fn push(nodes: &mut Vec<Node>, node: Node) -> NodeId {
    let id = NodeId(nodes.len() as u32);
    nodes.push(node);
    id
}

/// The cached leaf for `slot`, pushing `node` on its first request.
fn leaf(nodes: &mut Vec<Node>, cache: &mut Vec<Option<NodeId>>, node: Node, slot: u32) -> NodeId {
    let slot = slot as usize;
    if slot >= cache.len() {
        cache.resize(slot + 1, None);
    }
    *cache[slot].get_or_insert_with(|| push(nodes, node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_are_deduplicated() {
        let mut b = DfgBuilder::new();
        let a = b.data(3);
        let a2 = b.data(3);
        assert_eq!(a, a2);
        let c = b.constant(1.5);
        let c2 = b.constant(1.5);
        assert_eq!(c, c2);
        let m = b.model(0);
        assert_ne!(a, m);
    }

    #[test]
    fn reduce_builds_log_depth_tree() {
        let mut b = DfgBuilder::new();
        let leaves: Vec<_> = (0..8).map(|i| b.data(i)).collect();
        let root = b.reduce(OpKind::Add, &leaves);
        b.set_gradient(0, root, 0);
        let dfg = b.finish(8, 1);
        assert_eq!(dfg.op_count(), 7);
        let depth = crate::analysis::critical_path(&dfg);
        assert_eq!(depth, 3, "8-leaf reduction should be 3 levels deep");
    }

    #[test]
    fn reduce_of_empty_is_identity() {
        let mut b = DfgBuilder::new();
        let zero = b.reduce(OpKind::Add, &[]);
        assert_eq!(b.nodes[zero.index()], Node::Const { value: 0.0 });
        let one = b.reduce(OpKind::Mul, &[]);
        assert_eq!(b.nodes[one.index()], Node::Const { value: 1.0 });
    }

    #[test]
    fn operand_classes() {
        let mut b = DfgBuilder::new();
        let x = b.data(0);
        let w = b.model(0);
        let c = b.constant(2.0);
        let p = b.op(OpKind::Mul, w, x);
        b.set_gradient(0, p, 0);
        let dfg = b.finish(1, 1);
        assert_eq!(dfg.class_of(x), OperandClass::Data);
        assert_eq!(dfg.class_of(w), OperandClass::Model);
        assert_eq!(dfg.class_of(c), OperandClass::Const);
        assert_eq!(dfg.class_of(p), OperandClass::Interim);
    }

    #[test]
    fn op_semantics() {
        assert_eq!(OpKind::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(OpKind::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(OpKind::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(OpKind::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(OpKind::Gt.apply(1.0, 2.0), 0.0);
        assert_eq!(OpKind::Lt.apply(1.0, 2.0), 1.0);
        assert_eq!(OpKind::Ge.apply(2.0, 2.0), 1.0);
        assert_eq!(OpKind::Le.apply(3.0, 2.0), 0.0);
    }

    #[test]
    fn unary_semantics() {
        assert!((apply_unary(UnaryFn::Sigmoid, 0.0) - 0.5).abs() < 1e-12);
        assert!((apply_unary(UnaryFn::Gaussian, 0.0) - 1.0).abs() < 1e-12);
        assert!((apply_unary(UnaryFn::Log, 1.0)).abs() < 1e-12);
        assert_eq!(apply_unary(UnaryFn::Sqrt, 9.0), 3.0);
        assert_eq!(apply_unary(UnaryFn::Abs, -2.0), 2.0);
        assert!((apply_unary(UnaryFn::Exp, 1.0) - std::f64::consts::E).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_gradient_slots_panic() {
        let mut b = DfgBuilder::new();
        let x = b.data(0);
        b.set_gradient(1, x, 0);
        let _ = b.finish(1, 1);
    }

    #[test]
    fn operands_iterator() {
        let mut b = DfgBuilder::new();
        let x = b.data(0);
        let w = b.model(0);
        let p = b.op(OpKind::Mul, w, x);
        let s = b.unary(UnaryFn::Sigmoid, p);
        b.set_gradient(0, s, 0);
        let dfg = b.finish(1, 1);
        assert_eq!(dfg.operands(p).count(), 2);
        assert_eq!(dfg.operands(s).count(), 1);
        assert_eq!(dfg.operands(x).count(), 0);
    }
}
