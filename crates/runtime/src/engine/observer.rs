//! Zero-cost run observation: the tracing seam of the iteration engine.
//!
//! The engine never holds an `Option<&TraceSink>` — every observable
//! moment of a run is a method on [`RunObserver`], and the engine is
//! generic over the implementation. [`NullObserver`] is the untraced
//! run: every method is an empty default the optimizer deletes, so an
//! untraced run pays nothing for the seam. [`TraceObserver`] forwards
//! each event to a [`TraceSink`] with exactly the spans, instants,
//! args, and counters the monolithic trainer used to emit inline —
//! preserving byte-identical exports across the refactor.
//!
//! The structural invariant (pinned by a proptest): observers only
//! *watch*. Nothing an observer returns feeds back into the
//! computation, so the engine under a [`NullObserver`] and under a
//! [`TraceObserver`] produces bit-identical models, histories, and
//! fault reports.

use cosmic_collectives::codec::{CodecStats, WireRepr};
use cosmic_sim::faults::FaultPlan;
use cosmic_sim::level_counter;
use cosmic_telemetry::{counters, names, Layer, SpanGuard, TraceSink};

use crate::checkpoint::CatchUp;
use crate::node::AggregateOutcome;
use crate::trainer::ClusterConfig;
use crate::transport::TransportStats;
use cosmic_collectives::Promotion;

use super::state::ScheduleCache;

/// Observes the engine's execution without perturbing it.
///
/// Every method has a no-op default, so an implementation only
/// overrides the events it cares about. Span-scoped events return an
/// optional [`SpanGuard`]; the engine holds the guard for the phase's
/// extent and drops it to close the span.
#[allow(unused_variables)]
pub(crate) trait RunObserver {
    /// The observer's virtual clock (0.0 when not tracing). Used only
    /// to stamp trace spans — never to drive execution.
    fn now(&self) -> f64 {
        0.0
    }

    /// Advances the observer's virtual clock by `dt`.
    fn advance(&self, dt: f64) {}

    /// The run is starting; returns the root span guard.
    fn run_started(&self, cfg: &ClusterConfig, plan: &FaultPlan) -> Option<SpanGuard> {
        None
    }

    /// The run finished; `pool_jobs` is how many peer streams Sigma
    /// staged, one per peer per round.
    fn run_finished(&self, pool_jobs: usize) {}

    /// An aggregation iteration is starting; returns its span guard.
    fn iteration_started(&self, iteration: usize) -> Option<SpanGuard> {
        None
    }

    /// A completed iteration applied an update (the continue paths —
    /// empty rounds — do not count).
    fn iteration_counted(&self) {}

    /// A planned network partition began.
    fn partition_started(&self, iteration: usize, minority: &[usize], heal: usize) {}

    /// A planned network partition healed.
    fn partition_healed(&self, iteration: usize) {}

    /// A node's hardware crashed per the plan.
    fn crashed(&self, iteration: usize, node: usize) {}

    /// The detector's φ crossed the suspicion threshold for `node`.
    fn suspected(&self, iteration: usize, node: usize, phi: f64) {}

    /// The detector declared `node` failed.
    fn declared_failed(&self, iteration: usize, node: usize, phi: f64) {}

    /// A Sigma death promoted a survivor.
    fn reelected(&self, promotion: &Promotion) {}

    /// A node was excluded from the round (straggler, undeliverable
    /// stream, or panicked worker).
    fn excluded(&self, iteration: usize, node: usize) {}

    /// A member spent `backoff` virtual time retransmitting `retries`
    /// dropped chunks, starting at `t0`.
    fn retransmitted(&self, node: usize, t0: f64, backoff: f64, retries: usize) {}

    /// A suspected member delivered and was reinstated.
    fn reinstated(&self, iteration: usize, node: usize) {}

    /// A node expelled while actually up was recognized as a false
    /// suspicion during rejoin.
    fn false_suspicion(&self) {}

    /// The compute barrier of this iteration closed: it opened at `t0`
    /// and lasted `round_cost` (the slowest admitted member, capped at
    /// the deadline).
    fn compute_barrier(&self, t0: f64, round_cost: f64) {}

    /// The collective schedule was rebuilt over `participants` members.
    fn schedule_rebuilt(&self, strategy: &str, participants: usize) {}

    /// One collective round executed: the schedule in `cache` ran over
    /// `senders` streams of `chunks` chunks each, producing `outcome`.
    fn aggregated(
        &self,
        cache: &ScheduleCache,
        strategy: &str,
        senders: usize,
        chunks: usize,
        outcome: &AggregateOutcome,
    ) {
    }

    /// A lossy wire codec was applied to this round's contributions
    /// where their senders chunked them. Never called for
    /// [`WireRepr::DenseF64`], so traced dense runs book nothing new.
    fn codec_applied(&self, iteration: usize, repr: WireRepr, stats: &CodecStats) {}

    /// The transport finished a round's wire traffic. The sim backend
    /// reports empty stats, so untraced vocabulary is unchanged.
    fn transported(&self, stats: &TransportStats) {}

    /// The connection supervisor declared `node`'s link dead after
    /// `attempts` attempts.
    fn link_dead(&self, iteration: usize, node: usize, attempts: u32) {}

    /// A cadence model snapshot was taken.
    fn checkpointed(&self, iteration: usize, words: usize) {}

    /// A node was re-admitted through the rejoin protocol.
    fn rejoined(&self, iteration: usize, node: usize, caught: &CatchUp, matched: bool) {}
}

/// The untraced run: every observation is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NullObserver;

impl RunObserver for NullObserver {}

/// Forwards every engine event to a [`TraceSink`], reproducing the
/// trainer's historical span/counter vocabulary byte for byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceObserver<'s> {
    sink: &'s TraceSink,
}

impl<'s> TraceObserver<'s> {
    /// Wraps `sink`.
    pub(crate) fn new(sink: &'s TraceSink) -> Self {
        TraceObserver { sink }
    }
}

impl RunObserver for TraceObserver<'_> {
    fn now(&self) -> f64 {
        self.sink.now()
    }

    fn advance(&self, dt: f64) {
        self.sink.advance(dt);
    }

    fn run_started(&self, cfg: &ClusterConfig, plan: &FaultPlan) -> Option<SpanGuard> {
        // The planned fault schedule is recorded first so the trace
        // shows intent alongside effect.
        plan.record_into(self.sink);
        let g = self.sink.span(Layer::Exec, "train");
        g.arg("nodes", &cfg.nodes.to_string());
        g.arg("groups", &cfg.groups.to_string());
        g.arg("minibatch", &cfg.minibatch.to_string());
        Some(g)
    }

    fn run_finished(&self, pool_jobs: usize) {
        self.sink.add(counters::POOL_JOBS, pool_jobs as f64);
    }

    fn iteration_started(&self, iteration: usize) -> Option<SpanGuard> {
        let g = self.sink.span(Layer::Exec, names::ITERATION);
        g.arg("iter", &iteration.to_string());
        Some(g)
    }

    fn iteration_counted(&self) {
        self.sink.add(counters::TRAINER_ITERATIONS, 1.0);
    }

    fn partition_started(&self, iteration: usize, minority: &[usize], heal: usize) {
        let idx = self.sink.instant(Layer::Membership, "partition_start");
        self.sink.set_arg(idx, "minority", &format!("{minority:?}"));
        self.sink.set_arg(idx, "heal", &heal.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
    }

    fn partition_healed(&self, iteration: usize) {
        let idx = self.sink.instant(Layer::Membership, "partition_heal");
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.add(counters::MEMBERSHIP_PARTITION_HEALS, 1.0);
    }

    fn crashed(&self, iteration: usize, node: usize) {
        let idx = self.sink.instant(Layer::Failover, "crash");
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.add(counters::FAULTS_CRASHES, 1.0);
    }

    fn suspected(&self, iteration: usize, node: usize, phi: f64) {
        let idx = self.sink.instant(Layer::Membership, "suspicion");
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.set_arg(idx, "phi", &format!("{phi:.3}"));
        self.sink.add(counters::MEMBERSHIP_SUSPICIONS, 1.0);
    }

    fn declared_failed(&self, iteration: usize, node: usize, phi: f64) {
        let idx = self.sink.instant(Layer::Membership, "declare_failed");
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.set_arg(idx, "phi", &format!("{phi:.3}"));
    }

    fn reelected(&self, promotion: &Promotion) {
        let idx = self.sink.instant(Layer::Failover, "reelection");
        self.sink.set_arg(idx, "failed", &promotion.failed.to_string());
        self.sink.set_arg(idx, "elected", &promotion.elected.to_string());
        self.sink.set_arg(idx, "master", &promotion.was_master.to_string());
        self.sink.add(counters::FAILOVER_REELECTIONS, 1.0);
    }

    fn excluded(&self, iteration: usize, node: usize) {
        let idx = self.sink.instant(Layer::Exec, "exclusion");
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.add(counters::TRAINER_EXCLUSIONS, 1.0);
    }

    fn retransmitted(&self, node: usize, t0: f64, backoff: f64, retries: usize) {
        let idx = self.sink.span_closed(Layer::Retry, "retransmit", t0, backoff);
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "retries", &retries.to_string());
        self.sink.add(counters::CHUNKS_RETRIED, retries as f64);
    }

    fn reinstated(&self, iteration: usize, node: usize) {
        let idx = self.sink.instant(Layer::Membership, "reinstatement");
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.add(counters::MEMBERSHIP_REINSTATEMENTS, 1.0);
        self.sink.add(counters::MEMBERSHIP_FALSE_SUSPICIONS, 1.0);
    }

    fn false_suspicion(&self) {
        self.sink.add(counters::MEMBERSHIP_FALSE_SUSPICIONS, 1.0);
    }

    fn compute_barrier(&self, t0: f64, round_cost: f64) {
        self.sink.span_closed(Layer::Exec, names::COMPUTE, t0, round_cost);
    }

    fn schedule_rebuilt(&self, strategy: &str, participants: usize) {
        let idx = self.sink.instant(Layer::Aggregate, "collective_rebuild");
        self.sink.set_arg(idx, "strategy", strategy);
        self.sink.set_arg(idx, "participants", &participants.to_string());
        self.sink.add(counters::COLLECTIVE_REBUILDS, 1.0);
    }

    fn aggregated(
        &self,
        cache: &ScheduleCache,
        strategy: &str,
        senders: usize,
        chunks: usize,
        outcome: &AggregateOutcome,
    ) {
        for round in 0..cache.rounds {
            let idx = self.sink.instant(Layer::Aggregate, names::COLLECTIVE);
            self.sink.set_arg(idx, "round", &round.to_string());
            self.sink.set_arg(idx, "strategy", strategy);
        }
        for (level, bytes) in cache.levels.into_iter().enumerate() {
            if bytes > 0 {
                self.sink.add(level_counter(level), bytes as f64);
            }
        }
        self.sink.add(counters::CHUNKS_SENT, (senders * chunks) as f64);
        self.sink.add(counters::CHUNKS_QUARANTINED, outcome.quarantined.len() as f64);
        self.sink.add(counters::CHUNKS_DUPLICATED, outcome.duplicates_dropped as f64);
    }

    fn codec_applied(&self, iteration: usize, repr: WireRepr, stats: &CodecStats) {
        let idx = self.sink.instant(Layer::Aggregate, "codec");
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.set_arg(idx, "repr", repr.label());
        self.sink.set_arg(idx, "ratio", &format!("{:.3}", stats.compression_ratio()));
        self.sink.add(counters::CODEC_BYTES_DENSE, stats.dense_bytes as f64);
        self.sink.add(counters::CODEC_BYTES_WIRE, stats.wire_bytes as f64);
        self.sink.add(counters::CODEC_VALUES_CLIPPED, stats.clipped as f64);
        self.sink.add(counters::CODEC_COORDS_DROPPED, stats.dropped as f64);
    }

    fn transported(&self, stats: &TransportStats) {
        // The sim backend books nothing, keeping its metric exports
        // byte-identical to the pre-seam engine; only a real wire adds
        // the transport.* family.
        if stats.is_empty() {
            return;
        }
        self.sink.add(counters::TRANSPORT_FRAMES_SENT, stats.frames_sent as f64);
        self.sink.add(counters::TRANSPORT_FRAMES_RECEIVED, stats.frames_received as f64);
        self.sink.add(counters::TRANSPORT_BYTES_SENT, stats.bytes_sent as f64);
        self.sink.add(counters::TRANSPORT_BYTES_RECEIVED, stats.bytes_received as f64);
        self.sink.add(counters::TRANSPORT_HEARTBEATS, stats.heartbeats as f64);
        self.sink.add(counters::TRANSPORT_RECONNECTS, stats.reconnects as f64);
        self.sink.add(counters::TRANSPORT_CONNECTIONS, stats.connections as f64);
        self.sink.add(counters::TRANSPORT_LINKS_DEAD, stats.links_dead as f64);
    }

    fn link_dead(&self, iteration: usize, node: usize, attempts: u32) {
        let idx = self.sink.instant(Layer::Net, "link_dead");
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.set_arg(idx, "attempts", &attempts.to_string());
    }

    fn checkpointed(&self, iteration: usize, words: usize) {
        let idx = self.sink.instant(Layer::Membership, "checkpoint");
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.set_arg(idx, "words", &words.to_string());
        self.sink.add(counters::MEMBERSHIP_CHECKPOINTS, 1.0);
    }

    fn rejoined(&self, iteration: usize, node: usize, caught: &CatchUp, matched: bool) {
        let idx = self.sink.instant(Layer::Membership, "rejoin");
        self.sink.set_arg(idx, "node", &node.to_string());
        self.sink.set_arg(idx, "iter", &iteration.to_string());
        self.sink.set_arg(idx, "base", &caught.base_iteration.to_string());
        self.sink.set_arg(idx, "replayed", &caught.replayed.to_string());
        self.sink.set_arg(idx, "bytes", &caught.bytes.to_string());
        self.sink.set_arg(idx, "matched", &matched.to_string());
        self.sink.add(counters::MEMBERSHIP_REJOINS, 1.0);
        self.sink.add(counters::MEMBERSHIP_CATCHUP_BYTES, caught.bytes as f64);
    }
}
