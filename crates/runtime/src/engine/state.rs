//! The mutable heart of a run: everything an iteration reads or writes.
//!
//! [`RunState`] is the single owner of the run's evolving state —
//! model, topology, membership vectors, detector, checkpoint store,
//! virtual clock, and fault report. The phase modules borrow it
//! mutably one at a time, which makes the data flow of the iteration
//! explicit where the monolithic trainer used a dozen loose `let mut`
//! bindings.

use std::sync::Arc;

use cosmic_ml::sgd;
use cosmic_ml::Algorithm;

use crate::checkpoint::CheckpointStore;
use crate::detector::FailureDetector;
use crate::trainer::{ClusterConfig, FaultReport, TrainOutcome};
use cosmic_collectives::Topology;

use super::compute::{Arrival, NodePartial};

/// The cost summary of the collective schedule currently in force,
/// keyed by the topology epoch and the admitted participant set it was
/// built over.
#[derive(Debug, Clone)]
pub(crate) struct ScheduleCache {
    /// Topology membership epoch the schedule was built at.
    pub epoch: u64,
    /// The admitted contributor set, ascending.
    pub participants: Vec<usize>,
    /// Wire bytes the schedule moves per link level.
    pub levels: [usize; 4],
    /// Communication rounds of the schedule.
    pub rounds: usize,
}

/// The tables an iteration fills and the next one refills, kept so a
/// steady iteration allocates none of them. Each is empty, or holds the
/// last round's leftovers, between iterations.
#[derive(Debug, Default)]
pub(crate) struct RoundTables {
    /// The nodes the fault plan lets compute this round.
    pub dispatch: Vec<bool>,
    /// What reached the engine from each node.
    pub arrivals: Vec<Arrival>,
    /// The admitted partials, by node.
    pub contributions: Vec<NodePartial>,
    /// The admitted senders, ascending.
    pub senders: Vec<usize>,
    /// The senders' partials while they are lent to the transport;
    /// empty between rounds.
    pub parts: Vec<Option<Vec<f64>>>,
    /// Per sender: quarantined by Sigma or lost with its link.
    pub rejected: Vec<bool>,
    /// The partial buffers the round is done with, on their way back
    /// to the compute phase.
    pub spent: Vec<Vec<f64>>,
}

/// Everything a run owns and mutates, from genesis to outcome.
#[derive(Debug)]
pub(crate) struct RunState {
    /// The model being trained. The compute crew shares the `Arc` while
    /// a round computes and holds no handle once it returns, so the
    /// update writes in place.
    pub model: Arc<Vec<f64>>,
    /// Mean dataset loss before every epoch and after the last.
    pub history: Vec<f64>,
    /// Aggregation steps that applied an update.
    pub iterations: usize,
    /// Global aggregation-step index, for fault keying (counts every
    /// round, including empty ones).
    pub iter_idx: usize,
    /// The run's working topology: failures repair this copy, and its
    /// membership epoch drives collective-schedule rebuilds on both
    /// leave and join.
    pub topology: Topology,
    /// The collective schedule in force, if any.
    pub schedule_cache: Option<ScheduleCache>,
    /// Physical liveness per the plan: is the node's hardware up?
    pub up: Vec<bool>,
    /// Runtime membership: does the topology include the node? In
    /// oracle mode this moves with [`RunState::up`]; in detector mode
    /// it lags physical truth by detection and rejoin latency, and the
    /// two views disagreeing is exactly what the elastic-membership
    /// machinery manages.
    pub member: Vec<bool>,
    /// Members currently under detector suspicion.
    pub suspected: Vec<bool>,
    /// Members expelled while physically up (pending false-suspicion
    /// accounting at rejoin).
    pub expelled_while_up: Vec<bool>,
    /// The φ-accrual heartbeat detector.
    pub detector: FailureDetector,
    /// Cadence snapshots + replay log backing the rejoin protocol.
    pub store: CheckpointStore,
    /// Arrivals from expelled nodes observed this round, pending
    /// re-admission at the end of the iteration.
    pub rejoiners: Vec<(usize, f64)>,
    /// The local virtual clock. Mirrors the observer's time when
    /// tracing, but is kept independently so detector verdicts are
    /// identical whether or not a trace is attached.
    pub vclock: f64,
    /// Everything that degraded so far.
    pub report: FaultReport,
    /// The round's tables, between rounds.
    pub round: RoundTables,
}

impl RunState {
    /// Genesis state for one run.
    pub(crate) fn new(cfg: &ClusterConfig, topology: Topology, initial_model: Vec<f64>) -> Self {
        let store = CheckpointStore::new(cfg.checkpoint, &initial_model);
        RunState {
            model: Arc::new(initial_model),
            history: Vec::with_capacity(cfg.epochs + 1),
            iterations: 0,
            iter_idx: 0,
            topology,
            schedule_cache: None,
            up: vec![true; cfg.nodes],
            member: vec![true; cfg.nodes],
            suspected: vec![false; cfg.nodes],
            expelled_while_up: vec![false; cfg.nodes],
            detector: FailureDetector::new(cfg.nodes),
            store,
            rejoiners: Vec::new(),
            vclock: 0.0,
            report: FaultReport::default(),
            round: RoundTables::default(),
        }
    }

    /// Records the mean loss of `alg` over `dataset` into the history.
    pub(crate) fn record_loss(&mut self, alg: &Algorithm, dataset: &cosmic_ml::data::Dataset) {
        self.history.push(sgd::mean_loss(alg, dataset, &self.model));
    }

    /// Consumes the state into the run's outcome.
    pub(crate) fn into_outcome(self) -> TrainOutcome {
        TrainOutcome {
            model: Arc::unwrap_or_clone(self.model),
            loss_history: self.history,
            iterations: self.iterations,
            faults: self.report,
            final_topology: self.topology,
        }
    }
}
