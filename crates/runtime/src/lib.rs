//! # cosmic-runtime — the specialized system software layer
//!
//! The system layer of the CoSMIC stack (paper §3): a lean runtime
//! specialized for learning algorithms trained with parallel variants of
//! stochastic gradient descent. It assigns the partial-gradient work to
//! accelerators and keeps aggregation and networking on the host CPUs,
//! orchestrating Sigma and Delta nodes hierarchically.
//!
//! What executes **for real** (multi-threaded, in process):
//!
//! - [`CircularBuffer`] — the paper's bounded producer/consumer
//!   hand-off, kept as a measured primitive: Sigma hands no chunk
//!   between threads;
//! - [`ThreadPool`] — the paper's internally managed thread pool, kept
//!   as a measured primitive: the wire's own threads play both of the
//!   paper's pools;
//! - [`node`] — the Sigma-node aggregation pipeline (the wire's
//!   delivering thread stages each peer's stream as it holds it → one
//!   stripe fold into the aggregation buffer), with per-chunk validation
//!   and peer quarantine;
//! - [`ClusterTrainer`] — the functional distributed trainer: data
//!   partitioned across nodes and accelerator threads, per-mini-batch
//!   parallel SGD with hierarchical aggregation, producing real trained
//!   models and degrading gracefully under injected faults. Its
//!   iteration engine (membership, compute, collective round,
//!   checkpoint phases, φ-accrual detector) is crate-private:
//!   [`ClusterTrainer::train`] and [`ClusterTrainer::train_traced`] are
//!   the only ways in;
//! - [`transport`] — the wire behind the collective round: in-process
//!   channels or supervised loopback TCP, one round server and one
//!   retry loop for every socket, and the multi-process launcher
//!   ([`transport::proc`]) whose coordinator runs the trainer's own
//!   engine with worker processes as its compute phase;
//! - [`checkpoint`] — deterministic checkpoint + replay catch-up so
//!   expelled nodes can rejoin with a bit-identical model.
//!
//! What is **modeled** (the wire and the silicon):
//!
//! - [`collectives::topology`] — the System Director's Sigma/Delta/master
//!   role assignment and failure repair (re-election of dead Sigmas);
//! - [`timing`] — the cluster-level performance model combining the
//!   Planner's accelerator estimates with the Ethernet/PCIe models of
//!   `cosmic-sim`, including the producer-consumer overlap of networking
//!   and aggregation that the circular buffers buy, and the cost of
//!   retries, timeouts, and failover under faults.
//!
//! ## Failure handling
//!
//! Runtime failure paths do not panic: anything that can go wrong at run
//! time is either absorbed as degradation (reported in
//! [`TrainOutcome::faults`]) or returned as a typed [`RuntimeError`].
//! The lint configuration below enforces this for non-test code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
// Keep every function a cohesive phase: the threshold lives in the
// workspace clippy.toml (`too-many-lines-threshold`).
#![deny(clippy::too_many_lines)]

mod buffer;
pub mod checkpoint;
mod circbuf;
mod detector;
mod engine;
mod error;
pub mod fold;
mod layout;
pub mod node;
mod pool;
pub mod timing;
mod trainer;
pub mod transport;

/// The pluggable wire representations every layer of the payload path
/// speaks — dense f64, shared-exponent fixed point, top-k
/// sparsification — with exact encoded-size accounting and the
/// per-round scaling-factor side channel. Canonical home is
/// `cosmic-collectives` (the schedules and the cost model price by it);
/// re-exported here because the runtime's chunking boundary
/// (`RoundCtx::wire_chunks`) is where a representation is applied.
pub use cosmic_collectives::codec;

pub use checkpoint::{model_checksum, Checkpoint, CheckpointConfig};
pub use circbuf::CircularBuffer;
pub use error::RuntimeError;
pub use layout::CHUNK_WORDS;
pub use node::{Chunk, SigmaAggregator};
pub use pool::ThreadPool;
pub use timing::{ClusterTiming, FaultTimingModel, NodeCompute};

// The collective-aggregation layer: the trainer executes the schedules
// these strategies produce, so its vocabulary is part of the runtime's
// public surface.
pub use cosmic_collectives as collectives;
pub use cosmic_collectives::{assign_roles, CollectiveKind, Role, WireRepr};
pub use trainer::{
    ClusterConfig, ClusterTrainer, Exclusion, ExclusionReason, MembershipMode, PartitionOutage,
    RetryPolicy, TrainOutcome, DEADLINE_FACTOR,
};
pub use transport::wire::{Frame, FrameKind, WireError};
pub use transport::{
    LinkConfig, RoundCtx, SimTransport, TcpTransport, Transport, TransportKind, TransportStats,
};

// The fault-injection vocabulary, so runtime users need not depend on
// cosmic-sim directly.
pub use cosmic_sim::faults::{FaultPlan, FaultRates};

// The telemetry vocabulary the traced entry points
// ([`ClusterTrainer::train_traced`], [`timing::IterationModel::traced`])
// speak.
pub use cosmic_telemetry::{counters, TraceSink, TraceSummary};
