//! # cosmic-telemetry — virtual-time spans and deterministic counters
//!
//! Observability substrate for the CoSMIC stack. Every layer — DSL
//! lowering, the compiler's mapping/scheduling, the timing models, the
//! scale-out runtime, and the director — records what it did into a shared
//! [`TraceSink`]: hierarchical **spans** stamped with *virtual* time
//! (simulated seconds for the timing models, nominal-iteration units for
//! the functional trainer — never the wall clock) and typed **counters**
//! (bytes on wire per hierarchy level, chunks retried/quarantined/
//! duplicated, compiler mapping statistics, PE utilization).
//!
//! Because nothing here reads real time or iterates an unordered map,
//! identical seeds yield **byte-identical** exported artifacts — the
//! substrate for the golden-trace tests in the workspace root. Two
//! exporters are provided: Chrome-trace-format JSON
//! ([`TraceSink::chrome_trace_json`], loadable in `about:tracing` or
//! Perfetto) and a flat metrics file ([`TraceSink::metrics_json`]).
//! [`TraceSummary`] folds the raw spans back into the per-phase
//! breakdown the runtime's `IterationBreakdown` reports, so the two
//! accountings can be cross-checked.
//!
//! Counters come in two classes: **deterministic** counters (the
//! default; exported) and **diagnostic** counters whose values depend on
//! where or when a run was observed — the journal records a recovering
//! director replayed, for example. Diagnostics are kept out of
//! `metrics.json` so exports stay reproducible; read them through
//! [`TraceSink::diagnostics`].
//!
//! # Examples
//!
//! ```
//! use cosmic_telemetry::{counters, Layer, TraceSink};
//!
//! let sink = TraceSink::new();
//! {
//!     let span = sink.span(Layer::Exec, "iteration");
//!     span.arg("iter", "0");
//!     sink.add(counters::NET_BYTES_LEVEL1, 4096.0);
//!     sink.advance(1.0); // virtual seconds
//! }
//! assert_eq!(sink.now(), 1.0);
//! assert!(sink.validate_tree().is_ok());
//! assert!(sink.chrome_trace_json().contains("\"iteration\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod counters;
pub mod export;
mod sink;
pub mod span;
mod summary;

pub use sink::TraceSink;
pub use span::{Layer, SpanGuard, SpanRecord};
pub use summary::{names, TraceSummary};
