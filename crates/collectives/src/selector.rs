//! Cost-based collective selection.
//!
//! [`CostModel`] prices a [`CommSchedule`] through the same per-port
//! serialization law as `cosmic-sim`'s [`NetworkModel`]: within a
//! round, every directed port (a node's ingress or egress) serializes
//! the bytes and per-message overheads scheduled across it, an ingress
//! port additionally folds reduce payloads at the node's aggregation
//! rate, and the round lasts as long as its busiest port plus one
//! propagation latency. Rounds are sequential (a round's payloads
//! depend on the previous round's results), so the schedule cost is the
//! sum over rounds.
//!
//! [`CollectiveSelector`] walks a candidate list, prices each
//! strategy's schedule for the topology's live nodes, and picks the
//! cheapest — Algorithm 1's data-first minimum-communication search
//! lifted from the PE interconnect to the cluster. The trade it
//! navigates is classic: star/tree shapes pay few latencies but
//! concentrate bytes on root ports; ring/halving-doubling spread bytes
//! thin at the price of many rounds. Large models on small clusters
//! favour [`CollectiveKind::RingAllReduce`]; small models on wide
//! clusters favour [`CollectiveKind::TwoLevelTree`].

use cosmic_sim::NetworkModel;

use crate::codec::{WireRepr, WORD_BYTES};
use crate::schedule::{CommSchedule, CommStep, ScheduleError, StepKind};
use crate::strategy::CollectiveKind;
use crate::topology::Topology;

/// Prices schedules: a network model for the wire plus the node-local
/// fold rate for reduce payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-port wire behaviour (serialization, latency, per-message
    /// overhead).
    pub net: NetworkModel,
    /// Rate at which a node folds incoming gradients into its partial
    /// aggregate, in bytes per second.
    pub agg_bytes_per_sec: f64,
}

/// The priced cost of one schedule round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundCost {
    /// Round index.
    pub round: usize,
    /// Wall-clock seconds the round occupies.
    pub seconds: f64,
    /// Reduce bytes moved in this round (across all ports).
    pub reduce_bytes: usize,
    /// Share bytes moved in this round.
    pub share_bytes: usize,
}

/// Directed-port load accumulated within one round.
#[derive(Debug, Clone, Copy, Default)]
struct PortLoad {
    bytes: usize,
    messages: usize,
    reduce_bytes: usize,
}

impl CostModel {
    /// The commodity cluster's wire and host fold: gigabit Ethernet
    /// ports and a ~6 GB/s fold on the host cores (a memory-bound vector
    /// add on the Xeon E3). The one definition the runtime's timing
    /// model and the director's executor read.
    pub fn commodity() -> Self {
        CostModel { net: NetworkModel::gigabit(), agg_bytes_per_sec: 6.0e9 }
    }

    /// Prices every round of `schedule`.
    pub fn round_costs_s(&self, schedule: &CommSchedule) -> Vec<RoundCost> {
        // Wire messages carry *encoded* payloads, so the per-message
        // count is the encoded bytes packed into chunk-sized frames.
        // For dense payloads this is exactly ceil(words / chunk_words),
        // the historical accounting; compressed payloads pack into
        // fewer frames and shed per-message overhead proportionally.
        let chunk_bytes = schedule.chunk_words.max(1) * WORD_BYTES;
        let goodput = self.net.goodput_bps();
        // Ingress folds run at a repr-dependent rate: fixed-point
        // payloads accumulate as half-width integers, roughly
        // doubling the sustained byte rate of the fold.
        let fold_rate = self.agg_bytes_per_sec * schedule.repr.fold_rate_factor();
        // Moving steps, in round order (a stable sort: one pass over an
        // ordered schedule), load one table of directed ports,
        // `2 × node + egress`; each round prices and clears the ports it
        // touched. Loads are integer sums and the busiest port an
        // order-free max, so the order of a round's steps moves no bit.
        let mut moving: Vec<&CommStep> = schedule.steps.iter().filter(|s| s.words() > 0).collect();
        moving.sort_by_key(|s| s.round);
        let nodes = moving.iter().map(|s| s.src.max(s.dst) + 1).max().unwrap_or(0);
        let mut ports = vec![PortLoad::default(); 2 * nodes];
        let mut touched = Vec::new();
        let mut moving = moving.into_iter().peekable();
        let mut costs = Vec::with_capacity(schedule.rounds());
        for round in 0..schedule.rounds() {
            let mut reduce_bytes = 0usize;
            let mut share_bytes = 0usize;
            while let Some(step) = moving.next_if(|s| s.round == round) {
                let bytes = step.encoded_bytes(schedule.repr);
                let messages = bytes.div_ceil(chunk_bytes);
                let reduce = if step.kind == StepKind::Reduce { bytes } else { 0 };
                reduce_bytes += reduce;
                share_bytes += bytes - reduce;
                for (port, folded) in [(2 * step.src + 1, 0), (2 * step.dst, reduce)] {
                    let load = &mut ports[port];
                    if load.bytes == 0 {
                        touched.push(port);
                    }
                    load.bytes += bytes;
                    load.messages += messages;
                    load.reduce_bytes += folded;
                }
            }
            let mut busiest = 0.0f64;
            for &port in &touched {
                let load = std::mem::take(&mut ports[port]);
                let wire = load.bytes as f64 / goodput
                    + load.messages as f64 * self.net.per_message_us * 1e-6;
                let fold = load.reduce_bytes as f64 / fold_rate;
                busiest = busiest.max(wire.max(fold));
            }
            let seconds =
                if touched.is_empty() { 0.0 } else { busiest + self.net.latency_us * 1e-6 };
            touched.clear();
            costs.push(RoundCost { round, seconds, reduce_bytes, share_bytes });
        }
        costs
    }

    /// Total schedule cost: rounds are sequential, so their costs sum.
    pub fn schedule_cost_s(&self, schedule: &CommSchedule) -> f64 {
        self.round_costs_s(schedule).iter().map(|r| r.seconds).sum()
    }
}

/// The outcome of a selection: the winner, its schedule, and the full
/// priced ranking for telemetry/reporting.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The cheapest strategy.
    pub kind: CollectiveKind,
    /// The winner's schedule (for the topology's live nodes).
    pub schedule: CommSchedule,
    /// The winner's priced cost in seconds.
    pub cost_s: f64,
    /// Every candidate with its cost, cheapest first (ties keep
    /// candidate order).
    pub ranking: Vec<(CollectiveKind, f64)>,
}

/// Walks a candidate strategy list and picks the cheapest schedule for
/// a given cluster and model size.
#[derive(Debug, Clone)]
pub struct CollectiveSelector {
    /// The pricing model.
    pub cost: CostModel,
    /// Candidate strategies, in tie-breaking order.
    pub candidates: Vec<CollectiveKind>,
}

impl CollectiveSelector {
    /// Every strategy, priced on the commodity cluster.
    pub fn host_side() -> Self {
        CollectiveSelector {
            cost: CostModel::commodity(),
            candidates: CollectiveKind::ALL.to_vec(),
        }
    }

    /// Restricts the candidate set.
    pub fn with_candidates(mut self, candidates: Vec<CollectiveKind>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Prices every candidate over the topology's live nodes and
    /// returns the cheapest (first candidate wins ties), with payloads
    /// travelling dense.
    pub fn select(
        &self,
        topology: &Topology,
        model_words: usize,
        chunk_words: usize,
    ) -> Result<Selection, ScheduleError> {
        self.select_with_repr(topology, model_words, chunk_words, WireRepr::default())
    }

    /// Prices every candidate with payloads travelling under `repr`:
    /// encoded bytes load the ports and the repr's fold rate prices the
    /// ingress reduce. Compressed payloads shift the crossovers —
    /// a cluster whose cheapest strategy is the ring under
    /// [`WireRepr::DenseF64`] may prefer a latency-light shape once
    /// top-k collapses the byte term.
    pub fn select_with_repr(
        &self,
        topology: &Topology,
        model_words: usize,
        chunk_words: usize,
        repr: WireRepr,
    ) -> Result<Selection, ScheduleError> {
        let participants = topology.live_node_ids();
        if self.candidates.is_empty() || participants.is_empty() {
            return Err(ScheduleError::NoParticipants);
        }
        let mut best: Option<(CollectiveKind, CommSchedule, f64)> = None;
        let mut ranking = Vec::with_capacity(self.candidates.len());
        for &kind in &self.candidates {
            let schedule = kind
                .strategy()
                .schedule(topology, &participants, model_words, chunk_words)?
                .with_repr(repr);
            let cost_s = self.cost.schedule_cost_s(&schedule);
            ranking.push((kind, cost_s));
            let cheaper = best.as_ref().is_none_or(|(_, _, c)| cost_s < *c);
            if cheaper {
                best = Some((kind, schedule, cost_s));
            }
        }
        ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((kind, schedule, cost_s)) => Ok(Selection { kind, schedule, cost_s, ranking }),
            None => Err(ScheduleError::NoParticipants),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{assign_roles, default_groups};

    const CHUNK_WORDS: usize = 4096; // runtime's CHUNK_WORDS

    fn cost_of(kind: CollectiveKind, topo: &Topology, words: usize) -> f64 {
        let participants = topo.live_node_ids();
        let s = kind
            .strategy()
            .schedule(topo, &participants, words, CHUNK_WORDS)
            .expect("schedule builds");
        CostModel::commodity().schedule_cost_s(&s)
    }

    /// Acceptance criterion: large model, small cluster → the ring's
    /// thin per-port load beats the tree's concentrated root ports.
    #[test]
    fn ring_beats_tree_for_large_models_on_small_clusters() {
        let nodes = 4;
        let topo = assign_roles(nodes, default_groups(nodes)).expect("valid");
        let large = 1_000_000; // 8 MB of f64 gradients
        let ring = cost_of(CollectiveKind::RingAllReduce, &topo, large);
        let tree = cost_of(CollectiveKind::TwoLevelTree, &topo, large);
        assert!(
            ring < tree,
            "ring ({ring:.4}s) must beat tree ({tree:.4}s) at {large} words on {nodes} nodes"
        );

        let selector = CollectiveSelector::host_side()
            .with_candidates(vec![CollectiveKind::TwoLevelTree, CollectiveKind::RingAllReduce]);
        let selection = selector.select(&topo, large, CHUNK_WORDS).expect("selects");
        assert_eq!(selection.kind, CollectiveKind::RingAllReduce);
    }

    /// Acceptance criterion, reversed: small model, wide cluster → the
    /// ring's 2(P−1) latencies dominate and the tree wins.
    #[test]
    fn tree_beats_ring_for_small_models_on_wide_clusters() {
        let nodes = 32;
        let topo = assign_roles(nodes, default_groups(nodes)).expect("valid");
        let small = 1_024; // 8 KB
        let tree = cost_of(CollectiveKind::TwoLevelTree, &topo, small);
        let ring = cost_of(CollectiveKind::RingAllReduce, &topo, small);
        assert!(
            tree < ring,
            "tree ({tree:.6}s) must beat ring ({ring:.6}s) at {small} words on {nodes} nodes"
        );

        let selector = CollectiveSelector::host_side()
            .with_candidates(vec![CollectiveKind::TwoLevelTree, CollectiveKind::RingAllReduce]);
        let selection = selector.select(&topo, small, CHUNK_WORDS).expect("selects");
        assert_eq!(selection.kind, CollectiveKind::TwoLevelTree);
    }

    /// The paper's core claim, priced: the two-level hierarchy beats the
    /// TABLA flat star once the cluster outgrows one Sigma's ingress.
    #[test]
    fn tree_beats_flat_star_on_big_clusters() {
        let topo = assign_roles(15, 3).expect("valid");
        let words = 300_000;
        let tree = cost_of(CollectiveKind::TwoLevelTree, &topo, words);
        let flat = cost_of(CollectiveKind::FlatStar, &topo, words);
        assert!(tree < flat, "tree ({tree:.4}s) vs flat ({flat:.4}s)");
    }

    #[test]
    fn round_costs_decompose_the_total() {
        let topo = assign_roles(8, 2).expect("valid");
        let participants = topo.live_node_ids();
        let model = CostModel::commodity();
        for kind in CollectiveKind::ALL {
            let s = kind
                .strategy()
                .schedule(&topo, &participants, 50_000, CHUNK_WORDS)
                .expect("builds");
            let rounds = model.round_costs_s(&s);
            assert_eq!(rounds.len(), s.rounds(), "{kind}");
            let sum: f64 = rounds.iter().map(|r| r.seconds).sum();
            let total = model.schedule_cost_s(&s);
            assert!((sum - total).abs() < 1e-12, "{kind}: {sum} != {total}");
            for r in &rounds {
                assert!(r.seconds > 0.0, "{kind} round {} costs nothing", r.round);
            }
            // Reduce/share byte split covers the whole schedule.
            let reduce: usize = rounds.iter().map(|r| r.reduce_bytes).sum();
            let share: usize = rounds.iter().map(|r| r.share_bytes).sum();
            assert_eq!(reduce + share, s.total_bytes(), "{kind}");
        }
    }

    /// The per-round pricing `round_costs_s` replaced: a map of
    /// directed ports built for each round over the whole step list.
    fn mapped_round_costs(model: &CostModel, schedule: &CommSchedule) -> Vec<RoundCost> {
        use std::collections::BTreeMap;
        let chunk_bytes = schedule.chunk_words.max(1) * WORD_BYTES;
        let goodput = model.net.goodput_bps();
        let fold_rate = model.agg_bytes_per_sec * schedule.repr.fold_rate_factor();
        (0..schedule.rounds())
            .map(|round| {
                let mut ports: BTreeMap<(usize, bool), PortLoad> = BTreeMap::new();
                let mut reduce_bytes = 0usize;
                let mut share_bytes = 0usize;
                for step in schedule.steps.iter().filter(|s| s.round == round && s.words() > 0) {
                    let bytes = step.encoded_bytes(schedule.repr);
                    let messages = bytes.div_ceil(chunk_bytes);
                    match step.kind {
                        StepKind::Reduce => reduce_bytes += bytes,
                        StepKind::Share => share_bytes += bytes,
                    }
                    let egress = ports.entry((step.src, true)).or_default();
                    egress.bytes += bytes;
                    egress.messages += messages;
                    let ingress = ports.entry((step.dst, false)).or_default();
                    ingress.bytes += bytes;
                    ingress.messages += messages;
                    if step.kind == StepKind::Reduce {
                        ingress.reduce_bytes += bytes;
                    }
                }
                let mut busiest = 0.0f64;
                for load in ports.values() {
                    let wire = load.bytes as f64 / goodput
                        + load.messages as f64 * model.net.per_message_us * 1e-6;
                    let fold = load.reduce_bytes as f64 / fold_rate;
                    busiest = busiest.max(wire.max(fold));
                }
                let seconds =
                    if ports.is_empty() { 0.0 } else { busiest + model.net.latency_us * 1e-6 };
                RoundCost { round, seconds, reduce_bytes, share_bytes }
            })
            .collect()
    }

    /// One port table per call prices every round bit for bit as a map
    /// per round did: every strategy, 1–64 participants, three reprs,
    /// payloads from one word (most steps idle) to many chunks, and
    /// each schedule's steps reversed.
    #[test]
    fn round_costs_match_the_per_round_port_maps_bit_for_bit() {
        let model = CostModel::commodity();
        let reprs =
            [WireRepr::DenseF64, WireRepr::FixedPoint { frac_bits: 20 }, WireRepr::TopK { k: 16 }];
        let mut idle_rounds = 0;
        for nodes in 1..=64 {
            let topo = assign_roles(nodes, default_groups(nodes)).expect("valid");
            let participants = topo.live_node_ids();
            for kind in CollectiveKind::ALL {
                for words in [1, 37, 1000, 20_000] {
                    let dense =
                        kind.strategy().schedule(&topo, &participants, words, 256).expect("builds");
                    for repr in reprs {
                        let s = dense.clone().with_repr(repr);
                        let want = mapped_round_costs(&model, &s);
                        // Step order is not round order in general.
                        let mut reversed = s.clone();
                        reversed.steps.reverse();
                        assert_eq!(model.round_costs_s(&reversed), want, "{kind} {nodes} nodes");
                        let got = model.round_costs_s(&s);
                        assert_eq!(got.len(), want.len(), "{kind} {nodes} nodes");
                        for (g, w) in got.iter().zip(&want) {
                            let case =
                                format!("{kind}, {nodes} nodes, {words} words, round {}", w.round);
                            assert_eq!(g.round, w.round, "{case}");
                            assert_eq!(g.seconds.to_bits(), w.seconds.to_bits(), "{case}");
                            assert_eq!(g.reduce_bytes, w.reduce_bytes, "{case}");
                            assert_eq!(g.share_bytes, w.share_bytes, "{case}");
                            idle_rounds += usize::from(w.seconds == 0.0);
                        }
                    }
                }
            }
        }
        assert!(idle_rounds > 0, "the sweep must price rounds in which nothing moves");
    }

    /// Compression moves the crossover: dense, the large-model /
    /// small-cluster cell belongs to a bandwidth-optimal shape that
    /// pays extra rounds to split the byte term. Once top-k collapses
    /// the bytes each step carries, those rounds stop paying for
    /// themselves and a latency-light shape takes the cell.
    #[test]
    fn compressed_payloads_shift_the_selector_crossover() {
        let nodes = 4;
        let topo = assign_roles(nodes, default_groups(nodes)).expect("valid");
        let large = 1_000_000;
        let selector = CollectiveSelector::host_side();
        let dense = selector.select(&topo, large, CHUNK_WORDS).expect("selects");
        assert!(
            matches!(
                dense.kind,
                CollectiveKind::RingAllReduce | CollectiveKind::RecursiveHalvingDoubling
            ),
            "dense must favour a bandwidth-optimal shape, got {}",
            dense.kind
        );
        let topk = selector
            .select_with_repr(&topo, large, CHUNK_WORDS, WireRepr::TopK { k: 512 })
            .expect("selects");
        assert_ne!(topk.kind, dense.kind, "top-k must dethrone {} in this cell", dense.kind);
        assert!(topk.cost_s < dense.cost_s, "compressed bytes must price cheaper");
    }

    /// Fixed-point prices below dense everywhere: half the bytes on
    /// every port and a doubled ingress fold rate only shrink terms.
    #[test]
    fn fixed_point_prices_cheaper_than_dense_for_every_strategy() {
        let topo = assign_roles(8, 2).expect("valid");
        let participants = topo.live_node_ids();
        let model = CostModel::commodity();
        for kind in CollectiveKind::ALL {
            let dense = kind
                .strategy()
                .schedule(&topo, &participants, 200_000, CHUNK_WORDS)
                .expect("builds");
            let fixed = dense.clone().with_repr(WireRepr::FixedPoint { frac_bits: 24 });
            assert!(
                model.schedule_cost_s(&fixed) < model.schedule_cost_s(&dense),
                "{kind}: fixed-point must price below dense"
            );
        }
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let topo = assign_roles(6, 2).expect("valid");
        let selector = CollectiveSelector::host_side();
        let selection = selector.select(&topo, 10_000, CHUNK_WORDS).expect("selects");
        assert_eq!(selection.ranking.len(), 4);
        for pair in selection.ranking.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "ranking must be sorted by cost");
        }
        assert_eq!(selection.ranking[0].0, selection.kind);
        assert_eq!(selection.ranking[0].1, selection.cost_s);
        assert_eq!(selection.schedule.kind, selection.kind);
    }

    #[test]
    fn selection_respects_failed_nodes() {
        let mut topo = assign_roles(8, 2).expect("valid");
        topo.fail_node(3).expect("in range");
        let selection =
            CollectiveSelector::host_side().select(&topo, 10_000, CHUNK_WORDS).expect("selects");
        assert_eq!(selection.schedule.participants, topo.live_node_ids());
        assert!(!selection.schedule.participants.contains(&3));
    }

    #[test]
    fn empty_clusters_and_empty_candidate_lists_are_errors() {
        let mut topo = assign_roles(1, 1).expect("valid");
        let _ = topo.fail_node(0); // NoMaster, but the roles table says failed
        let err = CollectiveSelector::host_side().select(&topo, 10, 1);
        assert_eq!(err.map(|s| s.kind), Err(ScheduleError::NoParticipants));

        let topo = assign_roles(4, 1).expect("valid");
        let err = CollectiveSelector::host_side().with_candidates(vec![]).select(&topo, 10, 1);
        assert_eq!(err.map(|s| s.kind), Err(ScheduleError::NoParticipants));
    }
}
