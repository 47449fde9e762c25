//! # cosmic-sim — closed-form cluster models and seeded plans
//!
//! The cluster-level substrate of the CoSMIC reproduction: a
//! commodity-Ethernet network model ([`net`]) matching the paper's
//! testbed (TP-LINK gigabit switch, full-duplex 1 Gbps ports), a PCIe
//! expansion-slot model ([`PcieModel`]) for host↔accelerator transfers, a
//! deterministic fault-injection layer ([`faults`],
//! [`DirectorFaultPlan`]) that schedules crashes, stragglers, and
//! chunk-level network pathologies reproducibly from a seed, and seeded
//! job-arrival plans ([`JobArrivalPlan`]) for the director.
//!
//! The paper's scale-out experiments ran on real clusters (EC2 and a
//! three-node lab system); here the wire is modelled in closed form — a
//! transfer's cost is a function of its bytes and fan, priced through
//! `cosmic-runtime`'s `IterationModel` — while the system software
//! above it (role assignment, thread pools, circular buffers) executes
//! for real.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod arrivals;
mod director_faults;
pub mod faults;
pub mod net;
mod pcie;

pub use arrivals::{ArrivalProfile, JobArrival, JobArrivalPlan};
pub use director_faults::{
    DirectorFaultEvent, DirectorFaultKind, DirectorFaultPlan, DirectorFaultRates,
};
pub use faults::{FaultKind, FaultPlan, FaultRates};
pub use net::{level_counter, NetworkModel};
pub use pcie::PcieModel;

/// Simulated time in nanoseconds.
pub(crate) type SimTime = u64;
