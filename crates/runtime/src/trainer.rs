//! The functional distributed trainer: CoSMIC's execution flow (paper
//! Figure 1) run for real, in process, with real threads.
//!
//! Every simulated node runs its accelerator worker threads in parallel
//! (each computing a private partial update over its data sub-partition),
//! aggregates locally, ships the node partial to its group's Sigma over
//! the wire, and the Sigma pipeline of [`crate::node`] validates and
//! folds the stream on the thread that delivers it. A master Sigma
//! combines group aggregates and redistributes the model.
//!
//! The trainer is **fault tolerant**: a [`FaultPlan`] injects node
//! crashes, straggler slowdowns, and chunk-level network pathologies
//! deterministically. Crashed Sigmas are replaced by re-election
//! ([`Topology::fail_node`]), stragglers that miss the per-iteration
//! aggregation deadline are excluded and the update rescaled over the
//! survivors, corrupt streams quarantine only the offending peer, and
//! everything that degraded is returned in the [`FaultReport`] of a
//! still-successful run. Fault timing is *virtual* — straggle factors
//! and retry backoffs accumulate simulated cost measured against the
//! deadline — so runs stay reproducible bit for bit from the plan alone.
//!
//! This module holds the trainer's *vocabulary*: the configuration, the
//! fault report, and the outcome. The iteration loop itself lives in
//! [`crate::engine`], decomposed into phase modules and driven by
//! [`crate::engine::Engine`]; [`ClusterTrainer::train`] runs it under a
//! [`crate::engine::NullObserver`] and
//! [`ClusterTrainer::train_traced`] under a
//! [`crate::engine::TraceObserver`].

use cosmic_collectives::codec::WireRepr;
use cosmic_collectives::CollectiveKind;
use cosmic_ml::data::Dataset;
use cosmic_ml::{Aggregation, Algorithm};
use cosmic_sim::faults::FaultPlan;
use cosmic_telemetry::TraceSink;

use crate::checkpoint::CheckpointConfig;
use crate::engine::{Compute, Engine, NullObserver, TraceObserver};
use crate::error::RuntimeError;
use crate::node::ChunkFault;
use crate::transport::{LinkConfig, TransportKind};
use cosmic_collectives::{assign_roles, Promotion, Topology};

/// How the runtime learns about node failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MembershipMode {
    /// The fault plan declares crashes directly (PR 1 behavior): the
    /// trainer expels a node the instant its plan entry fires. Perfect
    /// knowledge, zero detection latency — the baseline every detector
    /// run is measured against.
    #[default]
    Oracle,
    /// Elastic membership: the runtime learns about failures only from
    /// missing heartbeats (per-iteration chunk arrivals) through the
    /// φ-accrual `crate::detector::FailureDetector`. Silent nodes are
    /// suspected, then expelled; an expelled node that delivers again (a
    /// healed partition, a rejoined crash, a false declaration) is
    /// re-admitted through the checkpoint/replay rejoin protocol.
    Detector,
}

/// Per-iteration aggregation deadline, in units of the nominal node
/// compute time: a node whose virtual completion time (its straggle
/// factor plus retry backoffs) exceeds it is excluded from the round,
/// and the timing model's barrier never waits longer for a straggler.
pub const DEADLINE_FACTOR: f64 = 4.0;

/// The retransmission policy of every engine round and launcher link
/// ([`RetryPolicy::default`]).
pub(crate) const RETRY: RetryPolicy =
    RetryPolicy { backoff_base: 0.125, backoff_cap: 1.0, max_retries: 5 };

/// Chunk-retransmission policy for dropped chunks, in virtual time.
///
/// Delays are expressed in units of one nominal node-iteration compute
/// time, the same unit as [`DEADLINE_FACTOR`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retransmission.
    pub backoff_base: f64,
    /// Ceiling on any single backoff delay (capped exponential).
    pub backoff_cap: f64,
    /// Retransmissions attempted per chunk before the sender gives up
    /// and the node is excluded as undeliverable.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RETRY
    }
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (0-based):
    /// `min(base · 2^attempt, cap)`.
    pub fn delay(&self, attempt: u32) -> f64 {
        (self.backoff_base * 2f64.powi(attempt.min(62) as i32)).min(self.backoff_cap)
    }
}

/// Scale-out system configuration (the "system specification" the
/// programmer hands the System Director).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Total nodes (Sigmas included — they compute too).
    pub nodes: usize,
    /// Aggregation groups.
    pub groups: usize,
    /// Accelerator worker threads per node (the Planner's thread count).
    pub threads_per_node: usize,
    /// Global mini-batch size `b`.
    pub minibatch: usize,
    /// SGD learning rate `μ`.
    pub learning_rate: f64,
    /// Passes over the whole dataset.
    pub epochs: usize,
    /// Aggregation operator.
    pub aggregation: Aggregation,
    /// Injected fault schedule; [`FaultPlan::none`] for a healthy run.
    pub faults: FaultPlan,
    /// The collective-aggregation strategy whose [`cosmic_collectives::CommSchedule`]
    /// the round executes. The strategy decides the wire pattern (and
    /// therefore what the trace books per link level); the arithmetic
    /// is always the canonical ascending fold over the surviving
    /// contributors, so every strategy trains bit-identically.
    pub collective: CollectiveKind,
    /// How failures are learned: oracle declarations (the default,
    /// PR 1 behavior) or φ-accrual heartbeat detection with rejoin.
    pub membership: MembershipMode,
    /// Model-snapshot cadence backing the rejoin catch-up protocol.
    /// Checkpoints are taken in both membership modes so the recovery
    /// path is always live.
    pub checkpoint: CheckpointConfig,
    /// Which wire the collective round runs over: the discrete-event
    /// channel backend (the default) or supervised loopback TCP.
    pub transport: TransportKind,
    /// Wall-clock deadlines for real-wire links (ignored by the
    /// discrete-event backend).
    pub link: LinkConfig,
    /// The wire representation gradient payloads travel under. The
    /// default, [`WireRepr::DenseF64`], is the verbatim historical
    /// path — bit-identical models, byte-identical telemetry. Lossy
    /// reprs apply their encode→decode transform at the chunking
    /// boundary (deterministic per seed) and book compressed bytes
    /// through the schedule, the trace, and the wire.
    pub repr: WireRepr,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            groups: 1,
            threads_per_node: 2,
            minibatch: 10_000,
            learning_rate: 0.05,
            epochs: 1,
            aggregation: Aggregation::Average,
            faults: FaultPlan::none(),
            collective: CollectiveKind::TwoLevelTree,
            membership: MembershipMode::default(),
            checkpoint: CheckpointConfig::default(),
            transport: TransportKind::default(),
            link: LinkConfig::default(),
            repr: WireRepr::default(),
        }
    }
}

/// Why a node's contribution was left out of an aggregation round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExclusionReason {
    /// The node's virtual completion time exceeded the deadline.
    DeadlineExceeded {
        /// The node's virtual completion time, in nominal-iteration
        /// units (compare against [`DEADLINE_FACTOR`]).
        virtual_cost: f64,
    },
    /// A chunk was dropped more times than the retry policy allows.
    Undeliverable,
    /// One of the node's compute workers panicked computing its partial.
    ThreadPanic,
    /// The connection supervisor exhausted its retry budget on the
    /// node's transport link (real-wire backends only).
    LinkDead {
        /// Connection attempts spent before the link was declared dead.
        attempts: u32,
    },
}

/// One per-iteration exclusion of a node from aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exclusion {
    /// The global aggregation iteration.
    pub iteration: usize,
    /// The excluded node.
    pub node: usize,
    /// Why it was excluded.
    pub reason: ExclusionReason,
}

/// One quarantined peer stream: the Sigma rejected the node's partial
/// for this iteration because a chunk failed validation or staging the
/// stream unwound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quarantine {
    /// The global aggregation iteration.
    pub iteration: usize,
    /// The node whose stream was rejected.
    pub node: usize,
    /// The first fault seen in the stream.
    pub fault: ChunkFault,
}

/// One detector suspicion: a node's φ crossed the suspicion threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Suspicion {
    /// The global aggregation iteration.
    pub iteration: usize,
    /// The suspected node.
    pub node: usize,
    /// The φ value at the moment of suspicion.
    pub phi: f64,
}

/// One node re-admitted through the rejoin protocol, with its catch-up
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejoinEvent {
    /// The iteration at which the node was re-admitted.
    pub iteration: usize,
    /// The rejoined node.
    pub node: usize,
    /// Iteration of the checkpoint the catch-up started from.
    pub base_iteration: usize,
    /// Aggregated updates replayed on top of the checkpoint.
    pub replayed: usize,
    /// Bytes shipped to the joining node (snapshot + replayed deltas).
    pub bytes: usize,
    /// Whether the caught-up model equals the survivors' model bit for
    /// bit (the elastic-membership correctness invariant).
    pub matched: bool,
}

/// One planned network partition absorbed by the run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutage {
    /// The iteration the split began.
    pub start: usize,
    /// The iteration the partition healed (minority reachable again).
    pub heal: usize,
    /// The quiesced minority side.
    pub minority: Vec<usize>,
}

/// Everything that degraded during a (still successful) training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Injected fail-stop crashes, as `(iteration, node)`.
    pub crashes: Vec<(usize, usize)>,
    /// Per-iteration exclusions (stragglers, undeliverable streams,
    /// panicked node threads).
    pub exclusions: Vec<Exclusion>,
    /// Sigma re-elections performed, as `(iteration, promotion)`.
    pub reelections: Vec<(usize, Promotion)>,
    /// Peer streams quarantined by Sigma-side validation.
    pub quarantines: Vec<Quarantine>,
    /// Successful chunk retransmissions (dropped chunks recovered by
    /// the retry policy).
    pub chunk_retries: usize,
    /// Duplicate chunk deliveries recognized and dropped.
    pub duplicates_dropped: usize,
    /// Detector suspicions raised (detector mode only).
    pub suspicions: Vec<Suspicion>,
    /// Suspicions or expulsions of nodes that were alive all along
    /// (cleared by a later delivery from the node).
    pub false_suspicions: usize,
    /// Suspected nodes reinstated to healthy by a delivery, as
    /// `(iteration, node)`.
    pub reinstatements: Vec<(usize, usize)>,
    /// Nodes re-admitted through the rejoin protocol.
    pub rejoins: Vec<RejoinEvent>,
    /// Planned network partitions absorbed.
    pub partitions: Vec<PartitionOutage>,
    /// Cadence model snapshots taken (genesis excluded). Healthy runs
    /// checkpoint too, so this does not count against
    /// [`FaultReport::is_clean`].
    pub checkpoints: usize,
}

impl FaultReport {
    /// Whether the run saw no degradation at all. (Checkpoints are
    /// routine maintenance, not degradation.)
    pub fn is_clean(&self) -> bool {
        self.crashes.is_empty()
            && self.exclusions.is_empty()
            && self.reelections.is_empty()
            && self.quarantines.is_empty()
            && self.chunk_retries == 0
            && self.duplicates_dropped == 0
            && self.suspicions.is_empty()
            && self.false_suspicions == 0
            && self.reinstatements.is_empty()
            && self.rejoins.is_empty()
            && self.partitions.is_empty()
    }

    /// Nodes excluded at `iteration`.
    pub fn excluded_at(&self, iteration: usize) -> Vec<usize> {
        self.exclusions.iter().filter(|e| e.iteration == iteration).map(|e| e.node).collect()
    }
}

/// The result of a distributed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome {
    /// The trained model.
    pub model: Vec<f64>,
    /// Mean dataset loss before every epoch and after the last.
    pub loss_history: Vec<f64>,
    /// Aggregation steps performed (mini-batch iterations).
    pub iterations: usize,
    /// What degraded along the way (empty for a healthy run).
    pub faults: FaultReport,
    /// The topology at the end of the run, with any failures repaired.
    pub final_topology: Topology,
}

/// Orchestrates distributed training over an in-process cluster.
#[derive(Debug)]
pub struct ClusterTrainer {
    config: ClusterConfig,
    topology: Topology,
}

impl ClusterTrainer {
    /// Builds a trainer, assigning node roles through the System
    /// Director.
    ///
    /// Errors with [`RuntimeError::InvalidConfig`] on degenerate worker,
    /// checkpoint or link settings and [`RuntimeError::InvalidTopology`] when
    /// the group structure cannot be built.
    pub fn new(config: ClusterConfig) -> Result<Self, RuntimeError> {
        if config.threads_per_node == 0 {
            return Err(RuntimeError::InvalidConfig("threads_per_node is zero".into()));
        }
        if config.minibatch == 0 {
            return Err(RuntimeError::InvalidConfig("minibatch is zero".into()));
        }
        config.checkpoint.validate().map_err(RuntimeError::InvalidConfig)?;
        config.link.validate().map_err(RuntimeError::InvalidConfig)?;
        let topology = assign_roles(config.nodes, config.groups)?;
        Ok(ClusterTrainer { config, topology })
    }

    /// The role topology in use (as assigned; failures during a run
    /// repair a private copy returned in the outcome).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Trains `alg` on `dataset` starting from `initial_model`.
    ///
    /// Functionally equivalent to [`cosmic_ml::sgd::train_parallel`] with
    /// `nodes × threads_per_node` workers (exactly equal when the worker
    /// shard sizes divide evenly), but executed through the real system
    /// software: compute workers resident for the run, chunked transfers,
    /// and the Sigma aggregation pipeline.
    ///
    /// Faults scheduled in [`ClusterConfig::faults`] degrade the run —
    /// exclusions, quarantines, and re-elections are absorbed, the
    /// update is rescaled over the surviving contributors, and the
    /// details land in [`TrainOutcome::faults`]. The run only errors
    /// when nothing useful survives: every node dead
    /// ([`RuntimeError::AllNodesFailed`]) or no aggregator left to
    /// promote ([`RuntimeError::NoSurvivingAggregator`]).
    pub fn train(
        &self,
        alg: &Algorithm,
        dataset: &Dataset,
        initial_model: Vec<f64>,
    ) -> Result<TrainOutcome, RuntimeError> {
        Engine::new(&self.config, alg, dataset, initial_model.len(), NullObserver)?
            .run(self.topology.clone(), initial_model)
    }

    /// [`ClusterTrainer::train`] that also records the run into `sink`:
    /// a `train` root span over per-iteration spans (compute barrier,
    /// retransmissions, exclusions, group and master aggregation,
    /// broadcast, crashes, re-elections) plus the wire/chunk/fault
    /// counters. Time is virtual — one nominal node-iteration compute
    /// time is the unit, the same as [`DEADLINE_FACTOR`]
    /// — so the trace from a given plan and seed is byte-identical
    /// across runs.
    pub fn train_traced(
        &self,
        alg: &Algorithm,
        dataset: &Dataset,
        initial_model: Vec<f64>,
        sink: &TraceSink,
    ) -> Result<TrainOutcome, RuntimeError> {
        Engine::new(&self.config, alg, dataset, initial_model.len(), TraceObserver::new(sink))?
            .run(self.topology.clone(), initial_model)
    }

    /// [`ClusterTrainer::train`], or [`ClusterTrainer::train_traced`]
    /// into `sink`, with `compute` in place of the compute crew (the
    /// engine's thread and its resident helpers): the same engine, fed
    /// node partials computed elsewhere.
    pub(crate) fn train_on(
        &self,
        compute: &mut dyn Compute,
        alg: &Algorithm,
        dataset: &Dataset,
        initial_model: Vec<f64>,
        sink: Option<&TraceSink>,
    ) -> Result<TrainOutcome, RuntimeError> {
        let (cfg, len, topology) = (&self.config, initial_model.len(), self.topology.clone());
        if let Some(sink) = sink {
            let engine = Engine::new(cfg, alg, dataset, len, TraceObserver::new(sink))?;
            return engine.run_on(compute, topology, initial_model);
        }
        Engine::new(cfg, alg, dataset, len, NullObserver)?.run_on(compute, topology, initial_model)
    }
}
