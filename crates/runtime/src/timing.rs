//! Cluster-level performance model for CoSMIC configurations.
//!
//! Combines the Planner's per-accelerator throughput with the Ethernet
//! and PCIe models of `cosmic-sim`, reproducing the execution flow of
//! paper §3: per-mini-batch compute on the accelerators, PCIe readback,
//! hierarchical aggregation (Delta → group Sigma → master Sigma), and
//! redistribution of the model. Networking and aggregation overlap at
//! the Sigma nodes thanks to the circular-buffer pipeline, so each
//! hierarchy level costs `max(wire, aggregation)` rather than their sum —
//! *the* specialization that distinguishes CoSMIC's system software from
//! the generic baseline.
//!
//! One iteration is timed through the builder-style [`IterationModel`]:
//! start from [`ClusterTiming::model`], layer on
//! [`IterationModel::with_faults`],
//! [`IterationModel::with_collective`], and [`IterationModel::traced`],
//! then [`IterationModel::evaluate`]. The eight pre-builder entry
//! points (`iteration`, `iteration_with_faults`, …) lived on as
//! deprecated one-line wrappers for one release and are gone; the
//! builder is the only entry point.

use cosmic_collectives::{CollectiveKind, CommSchedule, CostModel, RoundCost, WireRepr};
use cosmic_sim::{level_counter, PcieModel};
use cosmic_telemetry::{counters, names, Layer, TraceSink};

use crate::error::RuntimeError;
use crate::layout;
use crate::layout::CHUNK_WORDS;
use crate::trainer::DEADLINE_FACTOR;
use cosmic_collectives::{assign_roles, Topology};

/// A node's gradient-computation capability, however produced (Planner
/// estimate for FPGAs/P-ASICs, roofline for GPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCompute {
    /// Training records the node's accelerator processes per second.
    pub records_per_sec: f64,
}

/// Per-iteration (one mini-batch, one aggregation round) time breakdown,
/// in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationBreakdown {
    /// Partial-gradient computation on the accelerators.
    pub compute_s: f64,
    /// PCIe readback of partials + write of the updated model.
    pub pcie_s: f64,
    /// Hierarchical upward aggregation (wire ∥ CPU folding, both levels).
    pub aggregate_s: f64,
    /// Downward model redistribution (both levels).
    pub broadcast_s: f64,
    /// Fixed orchestration overhead (invocation, bookkeeping).
    pub management_s: f64,
    /// Fault-recovery overhead: chunk retransmissions and their backoff
    /// waits, deadline waits on stragglers, and Sigma failover repair.
    /// Zero on a healthy iteration.
    pub recovery_s: f64,
    /// Communication rounds of the collective schedule that priced the
    /// aggregation and broadcast phases; zero when the fixed two-level
    /// analytic path produced them instead.
    pub rounds: usize,
}

impl IterationBreakdown {
    /// Total iteration time.
    pub fn total_s(&self) -> f64 {
        self.compute_s
            + self.pcie_s
            + self.aggregate_s
            + self.broadcast_s
            + self.management_s
            + self.recovery_s
    }

    /// Everything except accelerator compute — the "system" share.
    pub fn communication_s(&self) -> f64 {
        self.total_s() - self.compute_s
    }
}

/// Steady-state fault rates for the timing model — the analytic
/// counterpart of the runtime's
/// [`FaultPlan`](cosmic_sim::faults::FaultPlan), pricing what fault
/// tolerance costs per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTimingModel {
    /// Probability any given chunk is dropped and needs retransmission.
    pub chunk_drop_rate: f64,
    /// Mean backoff latency per retransmission, in seconds.
    pub retry_backoff_s: f64,
    /// Probability a node straggles in a given iteration.
    pub straggler_rate: f64,
    /// Compute multiplier of a straggling node; the barrier waits for
    /// it at most [`DEADLINE_FACTOR`] nominal compute times.
    pub straggler_slowdown: f64,
    /// Probability a Sigma node fails over in a given iteration.
    pub sigma_failover_rate: f64,
    /// Cost of one re-election + topology repair, in seconds.
    pub failover_penalty_s: f64,
    /// Cost of rebuilding the collective communication schedule over
    /// the survivors after a failover, in seconds.
    pub reschedule_penalty_s: f64,
}

impl FaultTimingModel {
    /// The healthy cluster: every rate zero, recovery cost zero.
    pub fn none() -> Self {
        FaultTimingModel {
            chunk_drop_rate: 0.0,
            retry_backoff_s: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            sigma_failover_rate: 0.0,
            failover_penalty_s: 0.0,
            reschedule_penalty_s: 0.0,
        }
    }
}

impl Default for FaultTimingModel {
    fn default() -> Self {
        FaultTimingModel::none()
    }
}

/// The timed model of one CoSMIC cluster on the commodity hardware:
/// the wire and host fold of [`CostModel::commodity`], a
/// [`ClusterTiming::pcie`] slot per accelerator, and
/// [`ClusterTiming::MANAGEMENT_S`] of orchestration a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTiming {
    /// Node count.
    pub nodes: usize,
    /// Aggregation groups.
    pub groups: usize,
}

/// Builder for timing one mini-batch iteration (one aggregation round).
///
/// Obtained from [`ClusterTiming::model`]; each `with_*` call layers a
/// concern onto the evaluation, and [`IterationModel::evaluate`]
/// produces the [`IterationBreakdown`]:
///
/// ```
/// use cosmic_runtime::timing::{ClusterTiming, FaultTimingModel, NodeCompute};
/// use cosmic_runtime::{CollectiveKind, WireRepr};
///
/// let timing = ClusterTiming::commodity(8, 2);
/// let node = NodeCompute { records_per_sec: 1e5 };
/// let faults = FaultTimingModel::none();
/// let it = timing
///     .model(10_000, node, 1_000_000)
///     .with_collective(CollectiveKind::RingAllReduce, WireRepr::DenseF64)
///     .with_faults(&faults)
///     .evaluate()
///     .unwrap();
/// assert!(it.total_s() > 0.0);
/// ```
///
/// Evaluation order is fixed regardless of call order: healthy phases,
/// then collective re-pricing, then fault recovery, then (if
/// [`IterationModel::traced`]) the trace emission.
#[derive(Debug, Clone, Copy)]
#[must_use = "an IterationModel does nothing until evaluate() is called"]
pub struct IterationModel<'a> {
    timing: &'a ClusterTiming,
    minibatch: usize,
    node: NodeCompute,
    exchange_bytes: usize,
    faults: Option<&'a FaultTimingModel>,
    collective: Option<(CollectiveKind, WireRepr)>,
    sink: Option<&'a TraceSink>,
}

impl<'a> IterationModel<'a> {
    /// Prices steady-state fault rates into
    /// [`IterationBreakdown::recovery_s`]: expected retry traffic and
    /// backoff waits, deadline-capped straggler waits, and Sigma
    /// failover (plus schedule-rebuild) penalties.
    pub fn with_faults(mut self, faults: &'a FaultTimingModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Prices aggregation and broadcast through `kind`'s
    /// [`CommSchedule`] with payloads encoded under `repr`, instead of
    /// the fixed two-level analytic path: reduce-carrying rounds become
    /// [`IterationBreakdown::aggregate_s`], pure-share rounds become
    /// [`IterationBreakdown::broadcast_s`], and
    /// [`IterationBreakdown::rounds`] reports the schedule depth. Both
    /// the round costs and the traced wire counters follow `repr`'s
    /// encoded payload sizes; pass [`WireRepr::DenseF64`] for plain
    /// f64 payloads. With a
    /// collective set, [`IterationModel::evaluate`] can fail when the
    /// group structure cannot be built.
    pub fn with_collective(mut self, kind: CollectiveKind, repr: WireRepr) -> Self {
        self.collective = Some((kind, repr));
        self
    }

    /// Also records the evaluated iteration into `sink`: an `iteration`
    /// span enclosing one closed span per phase (durations taken
    /// verbatim from the breakdown, so
    /// [`cosmic_telemetry::TraceSummary`] reproduces it bit for bit)
    /// plus the wire-byte counters. With a collective set, one
    /// [`names::COLLECTIVE`] span per schedule round nests inside the
    /// aggregation and broadcast phases and wire bytes book per link
    /// level; otherwise the two hierarchy levels and the broadcast book
    /// their fan × exchange bytes on the same per-level counters.
    /// Advances the sink's virtual clock by the iteration's total time.
    pub fn traced(mut self, sink: &'a TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Evaluates the configured model into an [`IterationBreakdown`].
    ///
    /// Only a configured collective can error (when the topology cannot
    /// be built); every other path is infallible.
    pub fn evaluate(&self) -> Result<IterationBreakdown, RuntimeError> {
        let mut it = self.timing.healthy_iteration(self.minibatch, self.node, self.exchange_bytes);

        let mut collective = None;
        if let Some((kind, repr)) = self.collective {
            let schedule = self.timing.collective_schedule(self.exchange_bytes, kind, repr)?;
            let costs = CostModel::commodity().round_costs_s(&schedule);
            it.aggregate_s = costs.iter().filter(|r| r.reduce_bytes > 0).map(|r| r.seconds).sum();
            it.broadcast_s = costs.iter().filter(|r| r.reduce_bytes == 0).map(|r| r.seconds).sum();
            it.rounds = schedule.rounds();
            collective = Some((schedule, costs, kind));
        }

        if let Some(faults) = self.faults {
            it.recovery_s = self.timing.recovery_s(&it, self.exchange_bytes, faults);
        }

        if let Some(sink) = self.sink {
            self.emit_trace(sink, &it, collective.as_ref());
        }
        Ok(it)
    }

    /// Evaluates and converts to steady-state training throughput in
    /// records/s.
    pub fn throughput(&self) -> Result<f64, RuntimeError> {
        let it = self.evaluate()?;
        Ok(self.minibatch as f64 / it.total_s())
    }

    /// Records the evaluated breakdown into `sink` (see
    /// [`IterationModel::traced`] for the vocabulary).
    fn emit_trace(
        &self,
        sink: &TraceSink,
        it: &IterationBreakdown,
        collective: Option<&(CommSchedule, Vec<RoundCost>, CollectiveKind)>,
    ) {
        let guard = sink.span(Layer::Exec, names::ITERATION);
        let mut t = sink.now();
        let phases = [
            (Layer::Exec, names::COMPUTE, it.compute_s),
            (Layer::Net, names::PCIE, it.pcie_s),
            (Layer::Aggregate, names::AGGREGATE, it.aggregate_s),
            (Layer::Net, names::BROADCAST, it.broadcast_s),
            (Layer::Exec, names::MANAGEMENT, it.management_s),
            (Layer::Retry, names::RECOVERY, it.recovery_s),
        ];
        for (layer, name, dur) in phases {
            sink.span_closed(layer, name, t, dur);
            if let Some((_, costs, kind)) = collective {
                if name == names::AGGREGATE || name == names::BROADCAST {
                    // The phase's schedule rounds run back to back inside it.
                    let wants_reduce = name == names::AGGREGATE;
                    let mut rt = t;
                    for cost in costs.iter().filter(|r| (r.reduce_bytes > 0) == wants_reduce) {
                        let idx =
                            sink.span_closed(Layer::Aggregate, names::COLLECTIVE, rt, cost.seconds);
                        sink.set_arg(idx, "round", &cost.round.to_string());
                        sink.set_arg(idx, "strategy", kind.label());
                        rt += cost.seconds;
                    }
                }
            }
            t += dur;
        }

        match collective {
            Some((schedule, _, _)) => {
                for (level, bytes) in schedule.bytes_by_level().into_iter().enumerate() {
                    if bytes > 0 {
                        sink.add(level_counter(level), bytes as f64);
                    }
                }
            }
            None => {
                let fan1 = self.timing.group_fan_in();
                let fan2 = self.timing.groups.saturating_sub(1);
                for (level, fan) in [(1, fan1), (2, fan2), (3, fan1.max(fan2))] {
                    sink.add(level_counter(level), (self.exchange_bytes * fan) as f64);
                }
            }
        }
        sink.add(counters::PCIE_BYTES, (2 * self.exchange_bytes) as f64);

        sink.advance(it.total_s());
        drop(guard);
    }
}

impl ClusterTiming {
    /// Fixed per-iteration orchestration cost (invocation, bookkeeping)
    /// in seconds.
    pub const MANAGEMENT_S: f64 = 150.0e-6;

    /// `nodes` commodity nodes in `groups` aggregation groups.
    pub fn commodity(nodes: usize, groups: usize) -> Self {
        ClusterTiming { nodes, groups }
    }

    /// The accelerator's expansion slot: PCIe Gen3 x8.
    pub fn pcie() -> PcieModel {
        PcieModel::gen3_x8()
    }

    /// Seconds of PCIe in one node's round on an `exchange_bytes`
    /// partial: its readback and the model's write, two transfers of
    /// one DMA setup each.
    pub fn pcie_round_s(exchange_bytes: usize) -> f64 {
        2.0 * Self::pcie().transfer_ns(exchange_bytes) as f64 / 1e9
    }

    /// The System Director's topology for this cluster.
    ///
    /// Errors when the group structure cannot be built over the node
    /// count (see [`assign_roles`]).
    pub(crate) fn topology(&self) -> Result<Topology, RuntimeError> {
        Ok(assign_roles(self.nodes, self.groups)?)
    }

    /// Starts an [`IterationModel`] for one mini-batch iteration.
    ///
    /// `minibatch` is the global batch `b`; `node` the per-node
    /// accelerator throughput; `exchange_bytes` the partial-update size a
    /// node ships per aggregation (the whole model for dense algorithms,
    /// the touched slices for collaborative filtering).
    pub fn model(
        &self,
        minibatch: usize,
        node: NodeCompute,
        exchange_bytes: usize,
    ) -> IterationModel<'_> {
        IterationModel {
            timing: self,
            minibatch,
            node,
            exchange_bytes,
            faults: None,
            collective: None,
            sink: None,
        }
    }

    /// Largest group fan-in (members per Sigma) under the nearly-equal
    /// contiguous grouping [`assign_roles`] produces, computed without
    /// materializing the topology. Degenerate configurations clamp.
    fn group_fan_in(&self) -> usize {
        let groups = self.groups.clamp(1, self.nodes.max(1));
        self.nodes.max(1).div_ceil(groups).saturating_sub(1)
    }

    /// The healthy two-level analytic breakdown every evaluation starts
    /// from.
    fn healthy_iteration(
        &self,
        minibatch: usize,
        node: NodeCompute,
        exchange_bytes: usize,
    ) -> IterationBreakdown {
        let records_per_node = minibatch as f64 / self.nodes as f64;
        let compute_s = records_per_node / node.records_per_sec;

        let pcie_s = Self::pcie_round_s(exchange_bytes);

        // Level 1: every group Sigma absorbs its members' partials; the
        // circular-buffer pipeline overlaps folding with reception.
        let CostModel { net, agg_bytes_per_sec } = CostModel::commodity();
        let group_fan_in = self.group_fan_in();
        let wire1 = net.fan_in_ns(exchange_bytes, group_fan_in) as f64 / 1e9;
        let fold1 = group_fan_in as f64 * exchange_bytes as f64 / agg_bytes_per_sec;
        // Level 2: the master absorbs the other group Sigmas' aggregates.
        let master_fan_in = self.groups.saturating_sub(1);
        let wire2 = net.fan_in_ns(exchange_bytes, master_fan_in) as f64 / 1e9;
        let fold2 = master_fan_in as f64 * exchange_bytes as f64 / agg_bytes_per_sec;
        // The circular-buffer pipeline chunks partials, so the two
        // hierarchy levels overlap: the slower level bounds the round.
        let aggregate_s = wire1.max(fold1).max(wire2.max(fold2));

        // Downward: master → group Sigmas and Sigmas → members pipeline
        // the same way (chunked store-and-forward).
        let broadcast_s = (net.fan_out_ns(exchange_bytes, master_fan_in))
            .max(net.fan_out_ns(exchange_bytes, group_fan_in)) as f64
            / 1e9;

        IterationBreakdown {
            compute_s,
            pcie_s,
            aggregate_s,
            broadcast_s,
            management_s: Self::MANAGEMENT_S,
            recovery_s: 0.0,
            rounds: 0,
        }
    }

    /// The expected per-iteration fault-recovery cost for a breakdown
    /// whose healthy phases are already priced.
    fn recovery_s(
        &self,
        it: &IterationBreakdown,
        exchange_bytes: usize,
        faults: &FaultTimingModel,
    ) -> f64 {
        let mut recovery = 0.0;

        // Retries: a chunk dropped with probability p is retransmitted
        // (geometrically) p/(1-p) extra times, inflating the aggregation
        // wire share and adding one backoff wait per retransmission on
        // the affected stream.
        let p = faults.chunk_drop_rate.clamp(0.0, 0.99);
        if p > 0.0 {
            let inflation = p / (1.0 - p);
            let chunks = layout::chunk_count_bytes(exchange_bytes) as f64;
            recovery += it.aggregate_s * inflation + chunks * inflation * faults.retry_backoff_s;
        }

        // Timeouts: the synchronous barrier waits for a straggler only
        // up to the deadline; past it the node is excluded, so the cost
        // of any straggling round is capped at deadline × nominal.
        let s = faults.straggler_rate.clamp(0.0, 1.0);
        if s > 0.0 {
            let any_straggler = 1.0 - (1.0 - s).powi(self.nodes.min(i32::MAX as usize) as i32);
            let waited = faults.straggler_slowdown.clamp(1.0, DEADLINE_FACTOR);
            recovery += any_straggler * (waited - 1.0) * it.compute_s;
        }

        // Failover: a Sigma death triggers re-election, topology repair,
        // and a rebuild of the collective schedule over the survivors —
        // fixed management-path penalties.
        let f = faults.sigma_failover_rate.clamp(0.0, 1.0);
        if f > 0.0 {
            let any_sigma = 1.0 - (1.0 - f).powi(self.groups.clamp(1, i32::MAX as usize) as i32);
            recovery += any_sigma * (faults.failover_penalty_s + faults.reschedule_penalty_s);
        }

        recovery
    }

    /// Builds `kind`'s communication schedule for this cluster's full
    /// topology and the given update size, its payloads under `repr`.
    fn collective_schedule(
        &self,
        exchange_bytes: usize,
        kind: CollectiveKind,
        repr: WireRepr,
    ) -> Result<CommSchedule, RuntimeError> {
        let topology = self.topology()?;
        let participants = topology.live_node_ids();
        let words = layout::words_for_bytes(exchange_bytes);
        Ok(kind.strategy().schedule(&topology, &participants, words, CHUNK_WORDS)?.with_repr(repr))
    }

    /// Seconds to train for `epochs` passes over `total_records` with
    /// mini-batch `b`.
    pub fn training_time_s(
        &self,
        total_records: usize,
        minibatch: usize,
        epochs: usize,
        node: NodeCompute,
        exchange_bytes: usize,
    ) -> f64 {
        let iterations = total_records.div_ceil(minibatch).max(1);
        let iter = self.model(minibatch, node, exchange_bytes).evaluate().unwrap_or_default();
        iterations as f64 * epochs as f64 * iter.total_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(rps: f64) -> NodeCompute {
        NodeCompute { records_per_sec: rps }
    }

    fn eval(m: IterationModel<'_>) -> IterationBreakdown {
        m.evaluate().expect("infallible evaluation")
    }

    #[test]
    fn breakdown_sums_to_total() {
        let t = ClusterTiming::commodity(16, 2);
        let it = eval(t.model(10_000, node(1e5), 1_000_000));
        let sum = it.compute_s
            + it.pcie_s
            + it.aggregate_s
            + it.broadcast_s
            + it.management_s
            + it.recovery_s;
        assert!((it.total_s() - sum).abs() < 1e-15);
        assert!(it.communication_s() < it.total_s());
        assert_eq!(it.recovery_s, 0.0, "healthy iterations have no recovery cost");
    }

    #[test]
    fn bigger_models_cost_more_communication() {
        let t = ClusterTiming::commodity(8, 2);
        let small = eval(t.model(10_000, node(1e5), 8 * 1024));
        let large = eval(t.model(10_000, node(1e5), 2 * 1024 * 1024));
        assert!(large.aggregate_s > 10.0 * small.aggregate_s);
        assert_eq!(large.compute_s, small.compute_s);
    }

    #[test]
    fn more_nodes_cut_compute_but_grow_fan_in() {
        let m = 2_400_000; // mnist-sized model
        let four = eval(ClusterTiming::commodity(4, 1).model(10_000, node(1e5), m));
        let sixteen = eval(ClusterTiming::commodity(16, 2).model(10_000, node(1e5), m));
        assert!(sixteen.compute_s < four.compute_s);
        assert!(sixteen.aggregate_s > four.aggregate_s * 0.9);
    }

    #[test]
    fn grouping_caps_the_hot_ingress() {
        // 16 nodes in one group: the single Sigma absorbs 15 streams.
        // Two groups: 7 + a second level of 1. Hierarchy must win for
        // large models.
        let m = 2_400_000;
        let flat = eval(ClusterTiming::commodity(16, 1).model(10_000, node(1e5), m));
        let grouped = eval(ClusterTiming::commodity(16, 2).model(10_000, node(1e5), m));
        assert!(
            grouped.aggregate_s < flat.aggregate_s,
            "hierarchical {} vs flat {}",
            grouped.aggregate_s,
            flat.aggregate_s
        );
    }

    #[test]
    fn overlap_never_exceeds_sum() {
        // max(wire, fold) ≤ wire + fold: the specialized pipeline cannot
        // be slower than sequential handling.
        let t = ClusterTiming::commodity(8, 2);
        let it = eval(t.model(10_000, node(1e5), 1_000_000));
        let topo = t.topology().expect("valid cluster");
        let cost = CostModel::commodity();
        let wire1 = cost.net.fan_in_ns(1_000_000, topo.max_group_fan_in()) as f64 / 1e9;
        let fold1 = topo.max_group_fan_in() as f64 * 1_000_000.0 / cost.agg_bytes_per_sec;
        assert!(it.aggregate_s <= (wire1 + fold1) * 2.0);
    }

    #[test]
    fn training_time_scales_with_iterations() {
        let t = ClusterTiming::commodity(4, 1);
        let one = t.training_time_s(10_000, 10_000, 1, node(1e5), 100_000);
        let ten = t.training_time_s(100_000, 10_000, 1, node(1e5), 100_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
        let epochs = t.training_time_s(10_000, 10_000, 5, node(1e5), 100_000);
        assert!((epochs / one - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fault_free_model_matches_plain_iteration() {
        let t = ClusterTiming::commodity(8, 2);
        let clean = eval(t.model(10_000, node(1e5), 1_000_000));
        let faults = FaultTimingModel::none();
        let faulty = eval(t.model(10_000, node(1e5), 1_000_000).with_faults(&faults));
        assert_eq!(clean, faulty);
    }

    #[test]
    fn drop_rate_inflates_recovery_monotonically() {
        let t = ClusterTiming::commodity(8, 2);
        let mut last = 0.0;
        for rate in [0.001, 0.01, 0.05, 0.2] {
            let m = FaultTimingModel {
                chunk_drop_rate: rate,
                retry_backoff_s: 1e-4,
                ..FaultTimingModel::none()
            };
            let it = eval(t.model(10_000, node(1e5), 1_000_000).with_faults(&m));
            assert!(it.recovery_s > last, "rate {rate}: {} !> {last}", it.recovery_s);
            last = it.recovery_s;
        }
    }

    #[test]
    fn deadline_caps_the_straggler_wait() {
        let t = ClusterTiming::commodity(8, 2);
        let recovery = |straggler_slowdown: f64| {
            let faults = FaultTimingModel {
                straggler_rate: 0.1,
                straggler_slowdown,
                ..FaultTimingModel::none()
            };
            eval(t.model(10_000, node(1e5), 1_000_000).with_faults(&faults)).recovery_s
        };
        // Below the deadline the wait grows with the slowdown; past it
        // the barrier stops waiting, so every slower straggler costs the
        // same as one exactly at the deadline.
        let below = recovery(DEADLINE_FACTOR / 2.0);
        let at = recovery(DEADLINE_FACTOR);
        assert!(below < at, "a slower straggler below the deadline costs more: {below} vs {at}");
        for past in [DEADLINE_FACTOR * 2.0, 100.0] {
            assert_eq!(recovery(past), at, "slowdown {past} is capped at the deadline");
        }
    }

    #[test]
    fn failover_and_throughput_accounting() {
        let t = ClusterTiming::commodity(16, 4);
        let m = FaultTimingModel {
            sigma_failover_rate: 0.05,
            failover_penalty_s: 0.01,
            ..FaultTimingModel::none()
        };
        let it = eval(t.model(10_000, node(1e5), 1_000_000).with_faults(&m));
        assert!(it.recovery_s > 0.0);
        let none = FaultTimingModel::none();
        let healthy = t
            .model(10_000, node(1e5), 1_000_000)
            .with_faults(&none)
            .throughput()
            .expect("infallible");
        let degraded =
            t.model(10_000, node(1e5), 1_000_000).with_faults(&m).throughput().expect("infallible");
        assert!(degraded < healthy, "faults must cost throughput: {degraded} vs {healthy}");
    }

    #[test]
    fn traced_iteration_round_trips_through_the_summary() {
        use cosmic_telemetry::{counters, TraceSink, TraceSummary};
        let t = ClusterTiming::commodity(8, 2);
        let faults = FaultTimingModel {
            chunk_drop_rate: 0.02,
            retry_backoff_s: 1e-4,
            straggler_rate: 0.1,
            straggler_slowdown: 6.0,
            ..FaultTimingModel::none()
        };
        let sink = TraceSink::new();
        let it = eval(t.model(10_000, node(1e5), 1_000_000).with_faults(&faults).traced(&sink));
        assert_eq!(it, eval(t.model(10_000, node(1e5), 1_000_000).with_faults(&faults)));
        assert!(sink.validate_tree().is_ok());

        let summary = TraceSummary::of(&sink);
        assert_eq!(summary.iterations, 1);
        assert_eq!(summary.compute_s, it.compute_s);
        assert_eq!(summary.recovery_s, it.recovery_s);
        assert_eq!(summary.total_s(), it.total_s());
        assert_eq!(summary.communication_s(), it.communication_s());

        let sums = sink.sums();
        // 8 nodes, 2 groups: 3 members per Sigma, 1 peer Sigma to master.
        assert_eq!(sums[counters::NET_BYTES_LEVEL1], 3e6);
        assert_eq!(sums[counters::NET_BYTES_LEVEL2], 1e6);
        assert_eq!(sums[counters::NET_BYTES_BROADCAST], 3e6);
        assert_eq!(sums[counters::PCIE_BYTES], 2e6);
        assert!((sink.now() - it.total_s()).abs() < 1e-15);
    }

    #[test]
    fn collective_pricing_matches_the_cost_model_round_sum() {
        let t = ClusterTiming::commodity(8, 2);
        let plain = eval(t.model(10_000, node(1e5), 1_000_000));
        for kind in CollectiveKind::ALL {
            let it = t
                .model(10_000, node(1e5), 1_000_000)
                .with_collective(kind, WireRepr::DenseF64)
                .evaluate()
                .expect("valid cluster");
            assert!(it.rounds > 0, "{kind}: a real schedule has rounds");
            assert_eq!(it.compute_s, plain.compute_s, "{kind}: compute is untouched");
            assert_eq!(it.pcie_s, plain.pcie_s);
            let schedule =
                t.collective_schedule(1_000_000, kind, WireRepr::DenseF64).expect("schedules");
            let total = CostModel::commodity().schedule_cost_s(&schedule);
            assert!(
                (it.aggregate_s + it.broadcast_s - total).abs() < 1e-12,
                "{kind}: phase split must preserve the schedule's total cost"
            );
        }
    }

    #[test]
    fn reschedule_penalty_is_priced_on_failover() {
        let t = ClusterTiming::commodity(16, 4);
        let base = FaultTimingModel {
            sigma_failover_rate: 0.05,
            failover_penalty_s: 0.01,
            ..FaultTimingModel::none()
        };
        let with_reschedule = FaultTimingModel { reschedule_penalty_s: 0.02, ..base };
        let without = t
            .model(10_000, node(1e5), 1_000_000)
            .with_collective(CollectiveKind::RingAllReduce, WireRepr::DenseF64)
            .with_faults(&base)
            .evaluate()
            .expect("valid");
        let with = t
            .model(10_000, node(1e5), 1_000_000)
            .with_collective(CollectiveKind::RingAllReduce, WireRepr::DenseF64)
            .with_faults(&with_reschedule)
            .evaluate()
            .expect("valid");
        assert!(
            with.recovery_s > without.recovery_s,
            "rebuilding schedules after failover must cost: {} vs {}",
            with.recovery_s,
            without.recovery_s
        );
        // The analytic fault path prices the same rebuild penalty.
        let analytic = eval(t.model(10_000, node(1e5), 1_000_000).with_faults(&with_reschedule));
        assert!(analytic.recovery_s > base.failover_penalty_s * 0.0);
    }

    #[test]
    fn collective_traced_iteration_books_rounds_and_levels() {
        use cosmic_telemetry::TraceSink;
        let t = ClusterTiming::commodity(8, 2);
        let faults = FaultTimingModel::none();
        let run = || {
            let sink = TraceSink::new();
            let it = t
                .model(10_000, node(1e5), 1_000_000)
                .with_collective(CollectiveKind::TwoLevelTree, WireRepr::DenseF64)
                .with_faults(&faults)
                .traced(&sink)
                .evaluate()
                .expect("valid");
            (it, sink)
        };
        let (it, sink) = run();
        assert!(sink.validate_tree().is_ok());
        assert_eq!(
            it,
            t.model(10_000, node(1e5), 1_000_000)
                .with_collective(CollectiveKind::TwoLevelTree, WireRepr::DenseF64)
                .with_faults(&faults)
                .evaluate()
                .expect("valid")
        );

        // One collective span per schedule round, nested in the phases.
        let spans = sink.spans();
        let rounds = spans.iter().filter(|s| s.name == cosmic_telemetry::names::COLLECTIVE).count();
        assert_eq!(rounds, it.rounds);

        // Tree traffic books onto the hierarchy's level counters.
        let sums = sink.sums();
        assert!(sums[counters::NET_BYTES_LEVEL1] > 0.0);
        assert!(sums[counters::NET_BYTES_LEVEL2] > 0.0);
        assert!(sums[counters::NET_BYTES_BROADCAST] > 0.0);
        assert!((sink.now() - it.total_s()).abs() < 1e-15);

        let (it2, sink2) = run();
        assert_eq!(it, it2);
        assert_eq!(sink.chrome_trace_json(), sink2.chrome_trace_json());
    }

    #[test]
    fn larger_minibatch_amortizes_communication() {
        let t = ClusterTiming::commodity(3, 1);
        let n = node(1e5);
        let m = 1_000_000;
        // Same total records, different aggregation rates.
        let small_b = t.training_time_s(100_000, 500, 1, n, m);
        let large_b = t.training_time_s(100_000, 100_000, 1, n, m);
        assert!(small_b > 5.0 * large_b, "b=500 {small_b} vs b=100k {large_b}");
    }
}
