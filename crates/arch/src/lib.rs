//! # cosmic-arch — the CoSMIC multi-threaded template architecture
//!
//! The architecture and circuit layers of the CoSMIC stack (paper §5): a
//! MIMD, multi-threaded template accelerator organized as a two-dimensional
//! matrix of processing engines (PEs) with three levels of connectivity —
//! bi-directional neighbor links within a row, a pipelined shared bus per
//! row, and a tree bus (with ALU-bearing nodes) across rows — fed by a
//! smart memory interface (shifter, prefetch buffer, memory-schedule queue,
//! and thread index table).
//!
//! Because no HDL ecosystem is available in this reproduction, the
//! hand-optimized RTL template is replaced by two artifacts that preserve
//! the paper's claims:
//!
//! - [`machine`] — a **cycle-level simulator** of the template: PEs execute
//!   statically scheduled instruction streams with scoreboarded operands,
//!   link/bus arbitration, and modeled transfer latencies. It computes both
//!   *values* (verified against the DFG reference interpreter) and
//!   *cycles* (used to validate the Planner's estimator).
//! - [`rtl`] — a structural **Verilog emitter** (the Constructor of the
//!   circuit layer) that renders a planned accelerator as synthesizable-
//!   style RTL text.
//!
//! [`AcceleratorSpec`] and its siblings carry the chip specifications of
//! Table 2 (UltraScale+ VU9P, the two P-ASICs, and the comparison
//! CPU/GPU), and [`ThreadProgram`] defines the compiled-program
//! representation shared with `cosmic-compiler`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod geometry;
mod isa;
pub mod machine;
pub mod microcode;
mod platform;
pub mod rtl;

pub use geometry::{Geometry, PeId};
pub use isa::{
    AluOp, MemDirection, MemScheduleEntry, PeInstr, Placement, SendTarget, Src, Tag, ThreadProgram,
};
pub use machine::{Loaded, Machine, RunOutcome};
pub use platform::{AcceleratorSpec, CpuSpec, GpuSpec, Platform, PlatformKind};
