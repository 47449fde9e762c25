//! # cosmic-collectives — the pluggable collective-aggregation layer
//!
//! CoSMIC's System Director (paper §4.3) hard-codes one aggregation
//! shape: the two-level Sigma/Delta hierarchy. This crate makes the
//! *collective* itself a first-class, swappable subsystem, in the spirit
//! of SwitchML's in-network aggregation and MLFabric's communication
//! scheduling:
//!
//! - [`topology`] — the System Director's role assignment and failure
//!   repair (moved here from `cosmic-runtime` so strategies and the
//!   runtime share one vocabulary);
//! - [`codec`] — [`WireRepr`]: the pluggable wire representations
//!   (dense f64, shared-exponent fixed point, top-k sparsification)
//!   every layer of the payload path prices and books by, with exact
//!   encoded-size accounting and a scaling-factor side channel;
//! - `hash` — the stack's two checksum routines: byte-serial [`Fnv1a`]
//!   for the small golden-pinned formats (checkpoints, journal records,
//!   cache keys, chunk and frame headers) and the word-lane
//!   [`payload_digest`] under every chunk and frame payload (computed in
//!   the frame codec's one byte pass by [`encode_with_digest`] and
//!   [`decode_with_digest`]);
//! - `schedule` — [`CommSchedule`]: a deterministic, ordered list of
//!   send/reduce/share steps with word ranges and link levels, plus a
//!   symbolic executor that *proves* a schedule moves every contribution
//!   exactly once and derives the aggregate by the canonical
//!   ascending-node fold;
//! - `strategy` — the [`Collective`] trait and four implementations:
//!   [`FlatStar`], `TwoLevelTree` (the paper's default re-expressed
//!   through the trait), `RingAllReduce` and
//!   `RecursiveHalvingDoubling`;
//! - `selector` — [`CollectiveSelector`]: prices every candidate
//!   schedule through the per-port serialization model of
//!   `cosmic-sim`'s [`NetworkModel`](cosmic_sim::NetworkModel) and picks
//!   the cheapest — Algorithm 1's data-first minimum-communication
//!   search lifted from the PE interconnect to the cluster level.
//!
//! ## Determinism and bit-identity
//!
//! Floating-point addition is not associative, so two collectives that
//! fold partial sums along different tree shapes would disagree in the
//! last ulp. This crate sidesteps the problem structurally: the schedule
//! executor tracks *which* contributions reach the aggregate (set
//! algebra, validated exactly-once), and the arithmetic is always the
//! canonical fold over contributors in ascending node order — the same
//! invariant the runtime's `SigmaAggregator` maintains. A strategy
//! changes the wire pattern and therefore the cost, never the result:
//! every strategy is bit-identical to [`FlatStar`] by construction, and
//! the property tests pin that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod cache;
pub mod codec;
mod hash;
mod schedule;
mod selector;
mod strategy;
pub mod topology;

pub use cache::{topology_fingerprint, BoundedScheduleCache, CacheStats};
pub use codec::WireRepr;
pub use hash::{
    decode_with_digest, encode_parts_with_digest, encode_with_digest, payload_digest, Fnv1a,
};
pub use schedule::{CommSchedule, ScheduleError, StepKind};
pub use selector::{CollectiveSelector, CostModel, RoundCost};
pub use strategy::{Collective, CollectiveKind, FlatStar};
pub use topology::{assign_roles, default_groups, Promotion, Role, Topology, TopologyError};
