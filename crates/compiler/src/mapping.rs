//! Data and operation mapping (paper Algorithm 1 and the TABLA
//! comparator).

use cosmic_arch::{Geometry, PeId};
use cosmic_dfg::{Dfg, Node, NodeId, OperandClass};

/// Which mapping algorithm places operations on PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MappingStrategy {
    /// CoSMIC's Algorithm 1: place data first (where the memory interface
    /// streams it), then map operations to the PEs holding their operands,
    /// minimizing inter-PE communication.
    #[default]
    DataFirst,
    /// TABLA-style: map operations level by level to the least-loaded PE,
    /// oblivious to operand location (minimizes issue pressure, pays in
    /// communication). Used for the Figure 17 comparison.
    OpFirst,
}

/// The result of mapping: every compute node, data slot, and model slot
/// pinned to a PE.
#[derive(Debug, Clone, PartialEq)]
pub struct MapResult {
    /// Compute/leaf node → owning PE (every node gets one; leaves sit with
    /// their buffer's PE, constants — immediates, never transferred — on
    /// PE 0).
    pub pe_of_node: Vec<PeId>,
    /// Training-record slot → PE whose data buffer receives it.
    pub data_slot_pe: Vec<PeId>,
    /// Model slot → PE whose model buffer holds it.
    pub model_slot_pe: Vec<PeId>,
    /// Strategy used (recorded for reports).
    pub strategy: MappingStrategy,
}

impl MapResult {
    /// Number of operand edges whose producer and consumer live on
    /// different PEs — the communication volume the schedule must route.
    pub fn remote_edges(&self, dfg: &Dfg) -> usize {
        let mut remote = 0;
        for (i, _) in dfg.nodes().iter().enumerate() {
            let id = NodeId(i as u32);
            if !matches!(dfg.node(id), Node::Op { .. } | Node::Unary { .. }) {
                continue;
            }
            for op in dfg.operands(id) {
                if dfg.class_of(op) != OperandClass::Const
                    && self.pe_of_node[op.index()] != self.pe_of_node[i]
                {
                    remote += 1;
                }
            }
        }
        remote
    }
}

/// How a produced value reaches its remote consumers — one transaction
/// per producer, since the row and tree buses are broadcast media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommKind {
    /// All consumers are local; no transfer.
    None,
    /// Exactly one remote consumer, adjacent in the row: neighbor link.
    Neighbor(PeId),
    /// Remote consumers confined to the producer's row: one row-bus
    /// broadcast.
    RowBroadcast,
    /// Consumers in other rows: one tree-bus broadcast.
    AllBroadcast,
}

/// Classifies every node's outbound communication under a mapping.
pub(crate) fn comm_kinds(dfg: &Dfg, map: &MapResult, geometry: Geometry) -> Vec<CommKind> {
    #[derive(Clone, Copy)]
    struct Fan {
        first_pe: PeId,
        distinct: u8, // saturating count of distinct consumer PEs (0..=2)
        other_row: bool,
    }
    let mut fan: Vec<Option<Fan>> = vec![None; dfg.len()];
    for i in 0..dfg.len() {
        let id = NodeId(i as u32);
        if !matches!(dfg.node(id), Node::Op { .. } | Node::Unary { .. }) {
            continue;
        }
        let my_pe = map.pe_of_node[i];
        for op in dfg.operands(id) {
            if matches!(dfg.node(op), Node::Const { .. }) {
                continue;
            }
            let src_pe = map.pe_of_node[op.index()];
            if src_pe == my_pe {
                continue;
            }
            let entry = &mut fan[op.index()];
            match entry {
                None => {
                    *entry = Some(Fan {
                        first_pe: my_pe,
                        distinct: 1,
                        other_row: geometry.row(my_pe) != geometry.row(src_pe),
                    });
                }
                Some(f) => {
                    if f.first_pe != my_pe {
                        f.distinct = f.distinct.saturating_add(1).min(2);
                    }
                    f.other_row |= geometry.row(my_pe) != geometry.row(src_pe);
                }
            }
        }
    }
    fan.iter()
        .enumerate()
        .map(|(i, f)| match f {
            None => CommKind::None,
            Some(f) if f.other_row => CommKind::AllBroadcast,
            Some(f) if f.distinct == 1 && geometry.are_neighbors(map.pe_of_node[i], f.first_pe) => {
                CommKind::Neighbor(f.first_pe)
            }
            Some(_) => CommKind::RowBroadcast,
        })
        .collect()
}

/// Maps a DFG onto one thread's PE allocation.
///
/// The data map is shared by both strategies and fixed by the memory
/// layout: record slot `s` streams to column `s mod columns` (that is
/// what the shifter aligns), and rows rotate every `columns` words so
/// wide records spread across the thread's rows.
pub fn map(dfg: &Dfg, geometry: Geometry, strategy: MappingStrategy) -> MapResult {
    let data_slot_pe: Vec<PeId> = (0..dfg.data_len())
        .map(|s| {
            let column = s % geometry.columns;
            let row = (s / geometry.columns) % geometry.rows;
            geometry.at(row, column)
        })
        .collect();

    match strategy {
        MappingStrategy::DataFirst => map_data_first(dfg, geometry, data_slot_pe),
        MappingStrategy::OpFirst => map_op_first(dfg, geometry, data_slot_pe),
    }
}

/// Paper Algorithm 1: minimum-communication data/operation mapping.
fn map_data_first(dfg: &Dfg, geometry: Geometry, data_slot_pe: Vec<PeId>) -> MapResult {
    let pes = geometry.pes();
    let mut pe_of_node: Vec<Option<PeId>> = vec![None; dfg.len()];
    let mut model_slot_pe: Vec<Option<PeId>> = vec![None; dfg.model_len()];
    // The PE_i round-robin counter of Algorithm 1 (incremental assignment
    // enables parallel execution in neighboring PEs).
    let mut rr: usize = 0;
    let mut next_pe = || {
        let pe = PeId(rr as u32);
        rr = (rr + 1) % pes;
        pe
    };

    // Node ids are topological, so a single pass visits each vertex after
    // all of its predecessors — the "select a ready vertex" loop of
    // Algorithm 1 without the quadratic rescan. Data leaves sit with
    // their streamed slot, so a DATA operand's PE is its slot's.
    for i in 0..dfg.len() {
        let id = NodeId(i as u32);
        if !matches!(dfg.node(id), Node::Op { .. } | Node::Unary { .. }) {
            continue;
        }
        // The first operand of each class, in operand order.
        let (mut data, mut model, mut interim) = (None, None, None);
        for op in dfg.operands(id) {
            match dfg.node(op) {
                Node::Data { slot } => data = data.or(Some(data_slot_pe[slot as usize])),
                Node::Model { slot } => model = model.or(Some(slot as usize)),
                Node::Op { .. } | Node::Unary { .. } => {
                    interim = interim.or(pe_of_node[op.index()])
                }
                Node::Const { .. } => {}
            }
        }

        let chosen = match (data, model, interim) {
            // Step 3: an operand of type DATA pins the op to the data's
            // PE; a MODEL operand beside it is pinned there too.
            (Some(pe), model, _) => {
                if let Some(slot) = model {
                    model_slot_pe[slot].get_or_insert(pe);
                }
                pe
            }
            // Step 4: a MODEL operand maps the op where the parameter
            // lives; unplaced parameters get the next round-robin PE.
            (None, Some(slot), _) => *model_slot_pe[slot].get_or_insert_with(&mut next_pe),
            // Step 5: an INTERIM operand keeps the op with the value.
            (None, None, Some(pe)) => pe,
            // Constant-only expressions: round-robin.
            (None, None, None) => next_pe(),
        };
        pe_of_node[i] = Some(chosen);
    }

    finalize(dfg, geometry, pe_of_node, data_slot_pe, model_slot_pe, MappingStrategy::DataFirst)
}

/// TABLA-style operation-first mapping: walk the DFG in topological order
/// and assign each compute node to the currently least-loaded PE,
/// breaking ties round-robin. Data stays where memory streams it; models
/// are placed with their first consumer. Latency-greedy, location-blind —
/// exactly the behaviour whose communication cost grows with PE count
/// (paper §7.2, "Comparison with TABLA").
fn map_op_first(dfg: &Dfg, geometry: Geometry, data_slot_pe: Vec<PeId>) -> MapResult {
    let pes = geometry.pes();
    let mut pe_of_node: Vec<Option<PeId>> = vec![None; dfg.len()];
    let mut model_slot_pe: Vec<Option<PeId>> = vec![None; dfg.model_len()];
    let mut load = vec![0usize; pes];
    let mut rr = 0usize;

    for (i, mapped) in pe_of_node.iter_mut().enumerate() {
        let id = NodeId(i as u32);
        if !matches!(dfg.node(id), Node::Op { .. } | Node::Unary { .. }) {
            continue;
        }
        // Least-loaded PE starting from a rotating cursor.
        let mut best = rr;
        for k in 0..pes {
            let cand = (rr + k) % pes;
            if load[cand] < load[best] {
                best = cand;
            }
        }
        rr = (best + 1) % pes;
        load[best] += 1;
        let pe = PeId(best as u32);
        *mapped = Some(pe);
        for op in dfg.operands(id) {
            if let Node::Model { slot } = dfg.node(op) {
                model_slot_pe[slot as usize].get_or_insert(pe);
            }
        }
    }

    finalize(dfg, geometry, pe_of_node, data_slot_pe, model_slot_pe, MappingStrategy::OpFirst)
}

/// Pins every node the strategy left unplaced: leaves sit with their
/// buffer's slot (model leaves always do), constants on PE 0, and
/// unreferenced model slots spread round-robin.
fn finalize(
    dfg: &Dfg,
    geometry: Geometry,
    pe_of_node: Vec<Option<PeId>>,
    data_slot_pe: Vec<PeId>,
    model_slot_pe: Vec<Option<PeId>>,
    strategy: MappingStrategy,
) -> MapResult {
    let pes = geometry.pes();
    let model_slot_pe: Vec<PeId> = model_slot_pe
        .into_iter()
        .enumerate()
        .map(|(s, m)| m.unwrap_or(PeId((s % pes) as u32)))
        .collect();
    let pe_of_node = pe_of_node
        .into_iter()
        .zip(dfg.nodes())
        .enumerate()
        .map(|(i, (mapped, node))| match *node {
            Node::Model { slot } => model_slot_pe[slot as usize],
            Node::Data { slot } => data_slot_pe[slot as usize],
            Node::Const { .. } => PeId(0),
            Node::Op { .. } | Node::Unary { .. } => mapped.unwrap_or(PeId((i % pes) as u32)),
        })
        .collect();
    MapResult { pe_of_node, data_slot_pe, model_slot_pe, strategy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_dfg::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn linreg(n: usize) -> Dfg {
        let p = parse(&programs::linear_regression(64)).unwrap();
        lower(&p, &DimEnv::new().with("n", n)).unwrap()
    }

    #[test]
    fn every_node_is_mapped_exactly_once() {
        let dfg = linreg(32);
        let g = Geometry::new(2, 16);
        let m = map(&dfg, g, MappingStrategy::DataFirst);
        assert_eq!(m.pe_of_node.len(), dfg.len());
        assert!(m.pe_of_node.iter().all(|pe| pe.index() < g.pes()));
        assert_eq!(m.data_slot_pe.len(), dfg.data_len());
        assert_eq!(m.model_slot_pe.len(), dfg.model_len());
    }

    #[test]
    fn data_map_follows_memory_columns() {
        let dfg = linreg(40);
        let g = Geometry::new(2, 16);
        let m = map(&dfg, g, MappingStrategy::DataFirst);
        // Slot 0 -> (row 0, col 0); slot 17 -> (row 1, col 1);
        // slot 33 -> (row 0, col 1): rows rotate per 16 words.
        assert_eq!(m.data_slot_pe[0], g.at(0, 0));
        assert_eq!(m.data_slot_pe[17], g.at(1, 1));
        assert_eq!(m.data_slot_pe[33], g.at(0, 1));
    }

    #[test]
    fn elementwise_ops_sit_with_their_data() {
        let dfg = linreg(32);
        let g = Geometry::new(2, 16);
        let m = map(&dfg, g, MappingStrategy::DataFirst);
        // Every multiply w[i]*x[i] must execute on x[i]'s PE.
        for (i, node) in dfg.nodes().iter().enumerate() {
            if let cosmic_dfg::Node::Op { kind: cosmic_dfg::OpKind::Mul, a, b } = node {
                for op in [a, b] {
                    if let cosmic_dfg::Node::Data { slot } = dfg.node(*op) {
                        assert_eq!(
                            m.pe_of_node[i], m.data_slot_pe[slot as usize],
                            "op {i} must sit with its data"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn model_params_colocate_with_consumers() {
        let dfg = linreg(32);
        let g = Geometry::new(2, 16);
        let m = map(&dfg, g, MappingStrategy::DataFirst);
        for (i, node) in dfg.nodes().iter().enumerate() {
            if let cosmic_dfg::Node::Op { a, b, .. } = node {
                let data_op = [a, b]
                    .into_iter()
                    .find(|o| matches!(dfg.node(**o), cosmic_dfg::Node::Data { .. }));
                let model_op = [a, b]
                    .into_iter()
                    .find(|o| matches!(dfg.node(**o), cosmic_dfg::Node::Model { .. }));
                if let (Some(_), Some(mo)) = (data_op, model_op) {
                    assert_eq!(
                        m.pe_of_node[mo.index()],
                        m.pe_of_node[i],
                        "model operand of op {i} must be resident"
                    );
                }
            }
        }
    }

    #[test]
    fn data_first_has_fewer_remote_edges_than_op_first() {
        let dfg = linreg(64);
        let g = Geometry::new(4, 16);
        let cosmic = map(&dfg, g, MappingStrategy::DataFirst).remote_edges(&dfg);
        let tabla = map(&dfg, g, MappingStrategy::OpFirst).remote_edges(&dfg);
        assert!(
            cosmic < tabla,
            "Algorithm 1 must communicate less: {cosmic} vs {tabla} remote edges"
        );
    }

    #[test]
    fn op_first_balances_load() {
        let dfg = linreg(64);
        let g = Geometry::new(4, 16);
        let m = map(&dfg, g, MappingStrategy::OpFirst);
        let mut load = vec![0usize; g.pes()];
        for (i, node) in dfg.nodes().iter().enumerate() {
            if matches!(node, cosmic_dfg::Node::Op { .. } | cosmic_dfg::Node::Unary { .. }) {
                load[m.pe_of_node[i].index()] += 1;
            }
        }
        let max = load.iter().max().unwrap();
        let min = load.iter().min().unwrap();
        assert!(max - min <= 1, "op-first load must be balanced: {min}..{max}");
    }

    #[test]
    fn both_strategies_work_on_all_builtin_programs() {
        let env = DimEnv::new().with("n", 12).with("h", 6).with("o", 3).with("k", 8);
        for name in ["linreg", "logreg", "svm", "backprop", "cf"] {
            let p = parse(&programs::by_name(name, 64).unwrap()).unwrap();
            let dfg = lower(&p, &env).unwrap();
            for strategy in [MappingStrategy::DataFirst, MappingStrategy::OpFirst] {
                let m = map(&dfg, Geometry::new(3, 4), strategy);
                assert_eq!(m.pe_of_node.len(), dfg.len(), "{name}/{strategy:?}");
            }
        }
    }

    #[test]
    fn single_pe_mapping_has_no_remote_edges() {
        let dfg = linreg(8);
        let m = map(&dfg, Geometry::new(1, 1), MappingStrategy::DataFirst);
        assert_eq!(m.remote_edges(&dfg), 0);
    }
}
