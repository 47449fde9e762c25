//! # cosmic-planner — accelerator planning and design-space exploration
//!
//! The Planner of the CoSMIC architecture layer (paper §4.4). Given the
//! learning algorithm's dataflow graph and the target chip's constraints,
//! it decides **how many worker threads** run concurrently and **how many
//! PE rows** each thread owns, by walking the paper's pruned design space
//! with a static performance-estimation tool instead of simulation:
//!
//! 1. the number of columns equals the words the memory interface
//!    delivers per cycle (more would waste bandwidth, fewer would pressure
//!    the interconnect);
//! 2. the maximum rows is `#PEs / columns`;
//! 3. the thread count is bounded by
//!    `t_max = min(BRAM / per-thread storage, rows, mini-batch size)`;
//! 4. PE allocation is at row granularity, so the space is small (tens of
//!    points on UltraScale+) and each point is estimated from the static
//!    schedule.
//!
//! The crate also models FPGA resource utilization (Table 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod plan;
pub mod utilization;

pub use plan::{grid, plan, DesignPoint, Plan};
pub use utilization::{utilization, Utilization};
