//! # cosmic-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§7).
//! Each figure/table lives in [`figures`] as a module with one
//! `run(&FigureCtx) -> String` that prints the same rows/series the
//! paper reports; [`figures::FIGURES`] registers them in paper order
//! and the `cosmic-bench` binary dispatches over that registry.
//!
//! Absolute numbers come from this repository's models and simulators,
//! not the authors' testbed; the *shapes* — who wins, by roughly what
//! factor, where the crossovers fall — are the reproduction targets
//! (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod chaos;
pub mod figures;
mod harness;
