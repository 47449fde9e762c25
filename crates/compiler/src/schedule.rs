//! Communication-aware static list scheduling.
//!
//! Produces, for every DFG node, an issue cycle and a value-ready cycle
//! under the template architecture's resource model: one instruction issue
//! per PE per cycle, ALU latencies, and one transfer grant per cycle on
//! each row bus / the tree bus (neighbor links are per-direction). The
//! resulting makespan is the Planner's static performance estimate —
//! the paper's §4.4 estimation tool that replaces intractable simulation
//! during design-space exploration.
//!
//! **Priority contract.** Compute nodes are list-scheduled in one order:
//! depth ascending (so every operand is scheduled before its consumer),
//! then height descending (longest remaining chain first, paper §6), then
//! id. The order depends on the DFG alone, so it is computed once per
//! DFG: a [`ListScheduler`] holds it and schedules any mapping of its DFG
//! onto any geometry, as the Planner's walk does for every geometry it
//! estimates. [`schedule`] builds a fresh one and is the same function.

use std::cmp::Reverse;

use cosmic_arch::Geometry;
use cosmic_dfg::{analysis, Dfg, Node, NodeId};

use crate::mapping::{comm_kinds, CommKind, MapResult};

/// A complete static schedule of one DFG on one thread's PEs.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Issue cycle per node (leaves: the cycle their value is available).
    pub start: Vec<u64>,
    /// Value-ready cycle per node.
    pub finish: Vec<u64>,
    /// Aggregate estimate consumed by the Planner.
    pub estimate: ScheduleEstimate,
}

/// The static performance estimate of one gradient computation on one
/// worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEstimate {
    /// Makespan: cycles until the last gradient value is ready.
    pub latency_cycles: u64,
    /// Cycles to stream one training record at the thread's bandwidth
    /// share.
    pub mem_stream_cycles: u64,
    /// Steady-state throughput bound per record: the busiest resource
    /// (PE issue slots, a row bus, the tree bus, or the memory stream).
    pub initiation_interval: u64,
    /// Transfers over neighbor links.
    pub neighbor_transfers: u64,
    /// Transfers over row buses.
    pub row_bus_transfers: u64,
    /// Transfers over the tree bus.
    pub tree_bus_transfers: u64,
    /// Compute operations scheduled.
    pub compute_ops: u64,
    /// Transfers on the busiest row bus.
    pub max_row_bus: u64,
    /// Instructions (computes + sends) on the busiest PE.
    pub max_pe_instrs: u64,
}

impl ScheduleEstimate {
    /// Total inter-PE transfers.
    pub fn transfers(&self) -> u64 {
        self.neighbor_transfers + self.row_bus_transfers + self.tree_bus_transfers
    }

    /// Effective cycles per record in steady state. Records overlap
    /// through the prefetch buffer and double-buffered interim storage
    /// (two records in flight), so throughput is bounded by the busier of
    /// the initiation interval and half the makespan.
    pub fn cycles_per_record(&self) -> u64 {
        self.initiation_interval.max(self.latency_cycles.div_ceil(2)).max(1)
    }
}

/// The interconnect the schedule routes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BusModel {
    /// CoSMIC's three-level interconnect: neighbor links, one bus per
    /// row, and the tree bus across rows.
    #[default]
    Hierarchical,
    /// TABLA's single shared bus: every inter-PE transfer serializes on
    /// one global medium (the Figure 17 comparator).
    FlatShared,
}

/// Schedules a mapped DFG. `words_per_cycle` is the thread's share of the
/// off-chip bandwidth, controlling when streamed data operands arrive.
pub fn schedule(dfg: &Dfg, map: &MapResult, geometry: Geometry, words_per_cycle: f64) -> Schedule {
    ListScheduler::new(dfg).schedule(map, geometry, words_per_cycle, BusModel::Hierarchical)
}

/// Arrival cycle of a producer whose one outbound transaction has not
/// been issued yet.
const UNSENT: u64 = u64::MAX;

/// One DFG's list scheduler: the priority order (the module doc's
/// contract), computed once, and the schedule of any mapping of that DFG.
#[derive(Debug, Clone)]
pub struct ListScheduler<'a> {
    dfg: &'a Dfg,
    /// Compute-node ids in priority order.
    order: Vec<u32>,
}

impl<'a> ListScheduler<'a> {
    /// Computes `dfg`'s priority order.
    pub fn new(dfg: &'a Dfg) -> Self {
        let depth = analysis::depth_map(dfg);
        let height = analysis::height_map(dfg);
        let mut order: Vec<u32> = (0..dfg.len() as u32)
            .filter(|&i| matches!(dfg.node(NodeId(i)), Node::Op { .. } | Node::Unary { .. }))
            .collect();
        // Ids make every key distinct, so an unstable sort is the order
        // exactly.
        order.sort_unstable_by_key(|&i| (depth[i as usize], Reverse(height[i as usize]), i));
        ListScheduler { dfg, order }
    }

    /// Schedules one mapping of the DFG. `words_per_cycle` is the
    /// thread's share of the off-chip bandwidth; `bus` the interconnect
    /// transfers route over.
    ///
    /// # Panics
    ///
    /// Panics unless `words_per_cycle` is positive.
    pub fn schedule(
        &self,
        map: &MapResult,
        geometry: Geometry,
        words_per_cycle: f64,
        bus: BusModel,
    ) -> Schedule {
        assert!(words_per_cycle > 0.0, "bandwidth share must be positive");
        let dfg = self.dfg;
        let n = dfg.len();
        let mut start = vec![0u64; n];
        let mut finish = vec![0u64; n];

        // Leaf availability.
        for (i, node) in dfg.nodes().iter().enumerate() {
            if let Node::Data { slot } = node {
                let t = (*slot as f64 / words_per_cycle).floor() as u64;
                start[i] = t;
                finish[i] = t;
            }
        }

        // One transaction per producer: the row/tree buses are broadcast
        // media, so a single grant serves every remote consumer (the same
        // property the hardware's Broadcast bit uses).
        let kinds = comm_kinds(dfg, map, geometry);
        let tree_latency = if geometry.rows > 1 {
            geometry.route(geometry.at(0, 0), geometry.at(geometry.rows - 1, 0)).latency
        } else {
            2
        };

        // Resource state.
        let pes = geometry.pes();
        let mut pe_free = vec![0u64; pes];
        let mut pe_instrs = vec![0u64; pes];
        let mut row_bus_free = vec![0u64; geometry.rows];
        let mut row_bus_count = vec![0u64; geometry.rows];
        let mut tree_bus_free = 0u64;
        // Neighbors are ±1 column in the same row: two directed links
        // per PE, the leftward at `2·pe`, the rightward at `2·pe + 1`.
        let mut neighbor_free = vec![0u64; 2 * pes];
        // Producer -> broadcast arrival cycle (one transaction each).
        let mut delivered = vec![UNSENT; n];

        let mut est = ScheduleEstimate {
            latency_cycles: 0,
            mem_stream_cycles: (dfg.data_len() as f64 / words_per_cycle).ceil() as u64,
            initiation_interval: 0,
            neighbor_transfers: 0,
            row_bus_transfers: 0,
            tree_bus_transfers: 0,
            compute_ops: self.order.len() as u64,
            max_row_bus: 0,
            max_pe_instrs: 0,
        };

        for &i in &self.order {
            let id = NodeId(i);
            let my_pe = map.pe_of_node[i as usize];
            let mut ready = 0u64;
            for op in dfg.operands(id) {
                let j = op.index();
                // Constants are immediates: always ready, never transferred.
                if matches!(dfg.node(op), Node::Const { .. }) {
                    continue;
                }
                let src_pe = map.pe_of_node[j];
                let avail = if src_pe == my_pe {
                    finish[j]
                } else if delivered[j] != UNSENT {
                    delivered[j]
                } else {
                    // Issue the producer's single outbound transaction.
                    pe_instrs[src_pe.index()] += 1;
                    let arr = match (bus, kinds[j]) {
                        // TABLA's flat bus: everything serializes globally.
                        (BusModel::FlatShared, _) => {
                            let depart = finish[j].max(tree_bus_free);
                            tree_bus_free = depart + 1;
                            est.tree_bus_transfers += 1;
                            depart + 2
                        }
                        (_, CommKind::Neighbor(dst)) => {
                            let slot =
                                &mut neighbor_free[2 * src_pe.index() + usize::from(dst > src_pe)];
                            let depart = finish[j].max(*slot);
                            *slot = depart + 1;
                            est.neighbor_transfers += 1;
                            depart + 1
                        }
                        (_, CommKind::RowBroadcast) => {
                            let row = geometry.row(src_pe);
                            let depart = finish[j].max(row_bus_free[row]);
                            row_bus_free[row] = depart + 1;
                            row_bus_count[row] += 1;
                            est.row_bus_transfers += 1;
                            depart + 2
                        }
                        (_, CommKind::AllBroadcast) => {
                            let depart = finish[j].max(tree_bus_free);
                            tree_bus_free = depart + 1;
                            est.tree_bus_transfers += 1;
                            depart + tree_latency
                        }
                        (_, CommKind::None) => {
                            unreachable!("remote consumer implies a transaction")
                        }
                    };
                    delivered[j] = arr;
                    arr
                };
                ready = ready.max(avail);
            }
            let latency = match dfg.node(id) {
                Node::Op { kind, .. } => u64::from(kind.latency()),
                Node::Unary { .. } => 2,
                _ => unreachable!("only compute nodes scheduled"),
            };
            let issue = ready.max(pe_free[my_pe.index()]);
            pe_free[my_pe.index()] = issue + 1;
            pe_instrs[my_pe.index()] += 1;
            start[i as usize] = issue;
            finish[i as usize] = issue + latency;
        }

        // Makespan over gradient outputs (empty DFGs degenerate to 0).
        est.latency_cycles = dfg
            .gradient_outputs()
            .iter()
            .map(|g| finish[g.index()])
            .max()
            .unwrap_or(0)
            .max(est.mem_stream_cycles);

        est.max_pe_instrs = pe_instrs.iter().copied().max().unwrap_or(0);
        est.max_row_bus = row_bus_count.iter().copied().max().unwrap_or(0);
        est.initiation_interval = est
            .mem_stream_cycles
            .max(est.max_pe_instrs)
            .max(est.max_row_bus)
            .max(est.tree_bus_transfers)
            .max(1);

        Schedule { start, finish, estimate: est }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{map, MappingStrategy};
    use cosmic_dfg::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn prog(name: &str, n: usize) -> Dfg {
        let env = DimEnv::new().with("n", n).with("h", 8).with("o", 4).with("k", 8);
        let p = parse(&programs::by_name(name, 64).unwrap()).unwrap();
        lower(&p, &env).unwrap()
    }

    fn sched(dfg: &Dfg, g: Geometry, strategy: MappingStrategy) -> Schedule {
        let m = map(dfg, g, strategy);
        schedule(dfg, &m, g, g.columns as f64)
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let dfg = prog("linreg", 32);
        let g = Geometry::new(2, 16);
        let s = sched(&dfg, g, MappingStrategy::DataFirst);
        assert!(s.estimate.latency_cycles >= u64::from(analysis::critical_path(&dfg)));
    }

    #[test]
    fn consumers_start_after_producers() {
        let dfg = prog("logreg", 24);
        let g = Geometry::new(2, 8);
        let s = sched(&dfg, g, MappingStrategy::DataFirst);
        for (i, _) in dfg.nodes().iter().enumerate() {
            let id = NodeId(i as u32);
            if matches!(dfg.node(id), Node::Op { .. } | Node::Unary { .. }) {
                for op in dfg.operands(id) {
                    if matches!(dfg.node(op), Node::Const { .. }) {
                        continue;
                    }
                    assert!(
                        s.start[i] >= s.finish[op.index()]
                            || map(&dfg, g, MappingStrategy::DataFirst).pe_of_node[i]
                                != map(&dfg, g, MappingStrategy::DataFirst).pe_of_node[op.index()],
                        "node {i} issued before local operand ready"
                    );
                }
            }
        }
    }

    #[test]
    fn more_pes_do_not_hurt_elementwise_work() {
        let dfg = prog("svm", 64);
        let narrow = sched(&dfg, Geometry::new(1, 16), MappingStrategy::DataFirst);
        let wide = sched(&dfg, Geometry::new(4, 16), MappingStrategy::DataFirst);
        assert!(
            wide.estimate.latency_cycles <= narrow.estimate.latency_cycles,
            "wide {} vs narrow {}",
            wide.estimate.latency_cycles,
            narrow.estimate.latency_cycles
        );
    }

    #[test]
    fn data_first_beats_op_first_at_scale() {
        // The Figure 17 effect: with many PEs, operation-first mapping
        // drowns in communication.
        let dfg = prog("linreg", 256);
        let g = Geometry::new(8, 16);
        let cosmic = sched(&dfg, g, MappingStrategy::DataFirst).estimate;
        let tabla = sched(&dfg, g, MappingStrategy::OpFirst).estimate;
        assert!(
            cosmic.latency_cycles < tabla.latency_cycles,
            "cosmic {} vs tabla {}",
            cosmic.latency_cycles,
            tabla.latency_cycles
        );
        assert!(cosmic.transfers() < tabla.transfers());
    }

    #[test]
    fn slow_memory_raises_ii() {
        let dfg = prog("linreg", 64);
        let g = Geometry::new(2, 16);
        let m = map(&dfg, g, MappingStrategy::DataFirst);
        let fast = schedule(&dfg, &m, g, 16.0).estimate;
        let slow = schedule(&dfg, &m, g, 2.0).estimate;
        assert!(slow.mem_stream_cycles > fast.mem_stream_cycles);
        assert!(slow.initiation_interval >= fast.initiation_interval);
        assert!(slow.cycles_per_record() >= fast.cycles_per_record());
        // At 2 words/cycle the 65-word record takes 33 cycles to stream,
        // which must show up in the throughput bound.
        assert!(slow.initiation_interval >= slow.mem_stream_cycles);
    }

    #[test]
    fn estimate_fields_are_consistent() {
        let dfg = prog("backprop", 16);
        let g = Geometry::new(4, 8);
        let e = sched(&dfg, g, MappingStrategy::DataFirst).estimate;
        assert_eq!(e.compute_ops as usize, dfg.op_count());
        assert!(e.initiation_interval >= e.mem_stream_cycles);
        assert!(
            e.initiation_interval <= e.latency_cycles.max(e.mem_stream_cycles).max(e.max_pe_instrs)
        );
        assert!(e.cycles_per_record() >= 1);
    }

    #[test]
    fn cf_schedules_cleanly() {
        let dfg = prog("cf", 8);
        let e = sched(&dfg, Geometry::new(1, 8), MappingStrategy::DataFirst).estimate;
        assert!(e.latency_cycles > 0);
    }
}
