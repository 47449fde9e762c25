//! # cosmic-baseline — the comparison systems of the evaluation
//!
//! Calibrated cost models for the three baselines the paper measures
//! CoSMIC against (§7.1):
//!
//! - [`CpuComputeModel`] — per-node MLlib-style CPU execution on the Xeon E3 host
//!   (roofline with a JVM/MLlib efficiency factor and per-record
//!   iterator overhead);
//! - [`SparkModel`] — Spark 2.1 cluster behaviour: per-stage scheduling
//!   overhead, serialization, synchronous non-overlapped tree reduce,
//!   and torrent broadcast;
//! - [`GpuModel`] — the Tesla K40c node: per-algorithm-family roofline
//!   efficiency (matrix-matrix backprop runs well; thin vector kernels
//!   are memory- or PCIe-bound) with kernel-launch and staging costs;
//! - [`power`] — whole-system power for the Performance-per-Watt
//!   comparison (Figure 11).
//!
//! None of these re-implements the originals — the originals are
//! unavailable here — but each reproduces the *cost structure* the paper
//! attributes to them, which is what the end-to-end figures exercise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cpu;
mod gpu;
pub mod power;
mod spark;

pub use cpu::CpuComputeModel;
pub use gpu::GpuModel;
pub use power::cluster_power_w;
pub use spark::{SparkIteration, SparkModel};
