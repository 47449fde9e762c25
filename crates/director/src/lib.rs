//! # cosmic-director — the multi-tenant job director
//!
//! The paper's stack assumes one training job owning the whole cluster.
//! This crate is the opposite scenario — the ROADMAP's "millions of
//! users" shape: hundreds of jobs, each a DSL program + dataset +
//! resource request, multiplexed onto one big simulated cluster.
//!
//! - `job` — [`JobSpec`]: what a tenant submits. Admission parses the
//!   job's DSL program and checks its resource bounds before any node
//!   is committed.
//! - `carve` — `CarveOut` and `ClusterLedger`: each admitted job
//!   gets a disjoint slice of physical nodes and its own epoch'd
//!   [`Topology`](cosmic_collectives::Topology) over the job's logical
//!   width; elastic grow/shrink reuse `rejoin_node`/`fail_node`, so a
//!   resize is a membership change like any other and the job's
//!   collective schedules rebuild through the epoch machinery.
//! - `exec` — the analytic round-cost model: physical nodes
//!   time-share the job's logical workers, aggregation is priced by
//!   building the carve's real [`CommSchedule`](cosmic_collectives::CommSchedule)
//!   through the shared, bounded, cross-job
//!   [`BoundedScheduleCache`](cosmic_collectives::BoundedScheduleCache).
//! - `policy` — the three fairness policies: strict FIFO, weighted
//!   max-min share (water-filling), and aggregate-throughput greedy.
//! - `scaler` — the `ElasticScaler`: periodically turns the
//!   policy's target widths into shrink/grow operations driven by
//!   observed per-job throughput and queue pressure.
//! - `director` — the deterministic virtual-clock event loop tying it
//!   together, with per-job telemetry under
//!   [`Layer::Director`](cosmic_telemetry::Layer).
//! - [`journal`] — the checksummed write-ahead decision journal: every
//!   admit/reject/shed/grow/shrink/crash decision is recorded before it
//!   takes effect, so [`Director::recover`] can rebuild a killed
//!   director by deterministic replay, byte-identical to an unkilled
//!   run, with torn final records rolled back by checksum.
//! - `checkpoints` — checksummed per-job progress checkpoints; crashed
//!   jobs roll back to them, poison jobs fail their replay and are
//!   quarantined on a capped retry budget, and a corrupt store surfaces
//!   as the typed [`DirectorError::RecoveryFailed`] during recovery.
//! - `stats` — makespan, nearest-rank p50/p99 JCT, Jain's index.
//! - `proof` — the bit-identity argument: a directed reallocation
//!   moves a job across carve shapes mid-run via checkpoint hand-off,
//!   and the final model is bit-identical to an undisturbed reference
//!   run of the real engine.
//!
//! ## Determinism
//!
//! Everything is a pure function of the seed: arrival plans come from
//! [`cosmic_sim::JobArrivalPlan`], the event loop breaks every tie by
//! (virtual time, job id), and all throughput arithmetic is fixed-order
//! f64 — so a director run's telemetry exports are byte-identical per
//! seed, the same contract the rest of the stack honours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod carve;
mod checkpoints;
mod director;
mod error;
mod exec;
mod job;
pub mod journal;
mod policy;
mod proof;
mod scaler;
mod stats;

pub use checkpoints::JobCheckpointStore;
pub use director::{Director, DirectorConfig, DirectorReport, DirectorRun};
pub use error::DirectorError;
pub use job::JobSpec;
pub use journal::{Decision, DecodeTail, Journal};
pub use policy::FairnessPolicy;
pub use proof::{migration_proof, rejoin_proof};
