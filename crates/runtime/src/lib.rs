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
//! - [`circbuf`] — the bounded circular buffers that let networking
//!   (producer) and aggregation (consumer) overlap;
//! - [`pool`] — the internally managed thread pools that avoid per-
//!   connection thread creation and OS-level context-switch cost;
//! - [`node`] — the Sigma-node aggregation pipeline (incoming handler →
//!   networking pool → circular buffers → aggregation pool → aggregation
//!   buffer), with per-chunk validation and peer quarantine;
//! - [`trainer`] — the functional distributed trainer: data partitioned
//!   across nodes and accelerator threads, per-mini-batch parallel SGD
//!   with hierarchical aggregation, producing real trained models and
//!   degrading gracefully under injected faults;
//! - [`transport`] — the wire behind the collective round: in-process
//!   channels or supervised loopback TCP, one round server and one
//!   retry loop for every socket, and the multi-process launcher
//!   ([`transport::proc`]) whose coordinator folds worker gradients
//!   through the same [`SigmaAggregator`] the trainer uses;
//! - [`detector`] / [`checkpoint`] — elastic membership: φ-accrual
//!   heartbeat failure detection on virtual time, and deterministic
//!   checkpoint + replay catch-up so expelled nodes can rejoin with a
//!   bit-identical model.
//!
//! What is **modeled** (the wire and the silicon):
//!
//! - [`role`] — the System Director's Sigma/Delta/master role assignment
//!   and failure repair (re-election of dead Sigmas), now provided by
//!   `cosmic-collectives` and re-exported here so existing paths keep
//!   working;
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
//! [`trainer::FaultReport`]) or returned as a typed
//! [`error::RuntimeError`]. The lint configuration below enforces this
//! for non-test code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
// Keep every function a cohesive phase: the threshold lives in the
// workspace clippy.toml (`too-many-lines-threshold`).
#![deny(clippy::too_many_lines)]

pub mod buffer;
pub mod checkpoint;
pub mod circbuf;
pub mod detector;
pub mod engine;
pub mod error;
pub mod fold;
pub mod layout;
pub mod node;
pub mod pool;
pub mod timing;
pub mod trainer;
pub mod transport;

/// The System Director's role assignment and failure repair, now living
/// in `cosmic-collectives` (strategies and the runtime share one
/// topology vocabulary); re-exported under its historical path.
pub use cosmic_collectives::topology as role;

/// The pluggable wire representations every layer of the payload path
/// speaks — dense f64, shared-exponent fixed point, top-k
/// sparsification — with exact encoded-size accounting and the
/// per-round scaling-factor side channel. Canonical home is
/// `cosmic-collectives` (the schedules and the cost model price by it);
/// re-exported here because the runtime's chunking boundary is where
/// encode/decode actually happens.
pub use cosmic_collectives::codec;

pub use buffer::WordBuf;
pub use checkpoint::{
    model_checksum, CatchUp, Checkpoint, CheckpointConfig, CheckpointError, CheckpointStore,
    ReplayOp,
};
pub use circbuf::CircularBuffer;
pub use detector::{DetectorConfig, FailureDetector, SuspicionLevel};
pub use engine::{Engine, NullObserver, RunObserver, RunState, ScheduleCache, TraceObserver};
pub use error::RuntimeError;
pub use node::{
    AggregateOutcome, Chunk, ChunkFault, SigmaAggregator, CHUNK_WORDS, DEFAULT_RING_CAPACITY,
};
pub use pool::ThreadPool;
pub use role::{assign_roles, Promotion, Role, Topology};
pub use timing::{
    ClusterTiming, FaultTimingModel, IterationBreakdown, IterationModel, NodeCompute,
};

// Re-export the collective-aggregation layer: the trainer executes the
// schedules these strategies produce, so its vocabulary is part of the
// runtime's public surface.
pub use cosmic_collectives as collectives;
pub use cosmic_collectives::{
    CodecError, CodecStats, CollectiveKind, CollectiveSelector, CommSchedule, CostModel,
    ScheduleError, WireRepr,
};
pub use trainer::{
    ClusterConfig, ClusterTrainer, Exclusion, ExclusionReason, FaultReport, MembershipMode,
    PartitionOutage, Quarantine, RejoinEvent, RetryPolicy, Suspicion, TrainOutcome,
};
pub use transport::{
    DeadLink, Frame, FrameKind, LinkConfig, RoundCtx, RoundDelivery, SimTransport, TcpTransport,
    Transport, TransportKind, TransportStats, WireError, WireShim,
};

// Re-export the fault-injection vocabulary so runtime users need not
// depend on cosmic-sim directly.
pub use cosmic_sim::faults::{FaultEvent, FaultKind, FaultPlan, FaultRates};

// Re-export the telemetry vocabulary the traced entry points
// ([`trainer::ClusterTrainer::train_traced`],
// [`timing::IterationModel::traced`]) speak.
pub use cosmic_telemetry::{
    counters, names, Layer, SpanGuard, SpanRecord, TraceSink, TraceSummary,
};
