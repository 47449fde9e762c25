//! Typed director errors.

use std::error::Error;
use std::fmt;

use cosmic_collectives::{ScheduleError, TopologyError};
use cosmic_runtime::RuntimeError;

/// Everything that can go wrong admitting or running jobs.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectorError {
    /// A job failed admission validation (bad bounds, unparsable DSL).
    InvalidJob {
        /// The offending job id.
        job: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A carve-out operation hit an invalid topology transition.
    Topology(TopologyError),
    /// A collective schedule could not be built for a carve.
    Schedule(ScheduleError),
    /// The engine-backed proof run failed.
    Runtime(String),
    /// The event loop stopped making progress (a bug, surfaced rather
    /// than spun on).
    Stalled {
        /// Jobs still queued when progress stopped.
        queued: usize,
        /// Jobs still running when progress stopped.
        running: usize,
    },
    /// The ledger's node-conservation invariant broke (a bug).
    LedgerCorrupt {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A job's checkpoint failed verification during director
    /// recovery — restoring it would silently fork the control plane,
    /// so recovery stops with the runtime-layer cause attached
    /// instead of letting the unwrap panic propagate.
    RecoveryFailed {
        /// The job whose checkpoint is unusable.
        job: usize,
        /// The underlying runtime-layer failure.
        source: RuntimeError,
    },
    /// The decision journal is damaged somewhere other than its tail:
    /// a structurally complete record failed its checksum mid-stream
    /// (bit rot, not a torn final write — torn tails roll back
    /// silently).
    JournalCorrupt {
        /// Human-readable description of the damage.
        detail: String,
    },
    /// Replay re-derived a decision that differs from the journaled
    /// record — the journal was written by a different
    /// (config, arrival plan, fault plan) triple, or the state
    /// machine changed underneath it.
    JournalDiverged {
        /// Index of the mismatching record.
        record: u64,
        /// The journaled decision, rendered.
        expected: String,
        /// The re-derived decision, rendered.
        got: String,
    },
}

impl fmt::Display for DirectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectorError::InvalidJob { job, reason } => {
                write!(f, "job {job} rejected at admission: {reason}")
            }
            DirectorError::Topology(e) => write!(f, "carve topology: {e}"),
            DirectorError::Schedule(e) => write!(f, "carve schedule: {e}"),
            DirectorError::Runtime(e) => write!(f, "proof run: {e}"),
            DirectorError::Stalled { queued, running } => {
                write!(f, "director stalled with {queued} queued and {running} running jobs")
            }
            DirectorError::LedgerCorrupt { detail } => {
                write!(f, "node-conservation violation: {detail}")
            }
            DirectorError::RecoveryFailed { job, source } => {
                write!(f, "recovery failed: job {job}'s checkpoint is unusable: {source}")
            }
            DirectorError::JournalCorrupt { detail } => {
                write!(f, "decision journal corrupt: {detail}")
            }
            DirectorError::JournalDiverged { record, expected, got } => {
                write!(
                    f,
                    "journal divergence at record {record}: journaled {expected}, replay derived {got}"
                )
            }
        }
    }
}

impl Error for DirectorError {}

impl From<TopologyError> for DirectorError {
    fn from(e: TopologyError) -> Self {
        DirectorError::Topology(e)
    }
}

impl From<ScheduleError> for DirectorError {
    fn from(e: ScheduleError) -> Self {
        DirectorError::Schedule(e)
    }
}

impl From<RuntimeError> for DirectorError {
    fn from(e: RuntimeError) -> Self {
        DirectorError::Runtime(e.to_string())
    }
}
