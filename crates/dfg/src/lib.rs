//! # cosmic-dfg — dataflow graphs for the CoSMIC stack
//!
//! The Translator of the CoSMIC compilation layer (paper §4.1–4.2): it
//! lowers a parsed DSL [`Program`](cosmic_dsl::Program) into a **dataflow
//! graph** (DFG) of scalar operations, the representation every later layer
//! consumes — the compiler maps and schedules DFG operations onto processing
//! engines, the planner sizes the accelerator from DFG statistics, and the
//! runtime's functional path can interpret the DFG directly.
//!
//! The crate also provides:
//!
//! - [`analysis`] — critical path, operation histograms, width profile,
//!   storage footprint, and flop counts used by the Planner;
//! - [`interp`] — a reference interpreter used to verify that compiled
//!   accelerator programs compute exactly the gradients the DSL specifies.
//!
//! Reductions (`sum[i](...)`, `pi[i](...)`) are expanded into balanced
//! binary trees so their depth grows logarithmically, matching the tree bus
//! of the template architecture.
//!
//! # Examples
//!
//! ```
//! use cosmic_dfg::{lower, DimEnv};
//! use cosmic_dsl::{parse, programs};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse(&programs::linear_regression(512))?;
//! let dfg = lower(&program, &DimEnv::new().with("n", 8))?;
//! assert_eq!(dfg.model_len(), 8);
//! assert_eq!(dfg.gradient_len(), 8);
//! // 8 multiplies for w·x, 7 adds for the reduction tree, 1 subtract,
//! // 8 multiplies for the gradient.
//! assert_eq!(dfg.op_count(), 24);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod analysis;
pub mod dot;
mod graph;
pub mod interp;
mod lower;

pub use graph::{Dfg, DfgBuilder, Node, NodeId, OpKind, OperandClass};
pub use lower::{lower, DimEnv, LowerError};
