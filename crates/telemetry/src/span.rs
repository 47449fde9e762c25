//! Span vocabulary: stack layers, completed records, and the RAII guard.

use std::fmt;

use crate::sink::TraceSink;

/// The stack layer a span belongs to. Doubles as the Chrome-trace
/// category, so Perfetto can color and filter per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// DSL parsing and lowering to the dataflow graph.
    Dsl,
    /// Whole-compilation umbrella (mapping + scheduling + codegen).
    Compile,
    /// Data/operation mapping (Algorithm 1 or the TABLA comparator).
    Map,
    /// Communication-aware list scheduling.
    Schedule,
    /// Execution orchestration: iterations, compute, management.
    Exec,
    /// Wire traffic: PCIe readback, Ethernet transfers, broadcast.
    Net,
    /// Hierarchical aggregation (group Sigmas and the master).
    Aggregate,
    /// Chunk retransmission and backoff waits.
    Retry,
    /// Sigma death, re-election, and topology repair.
    Failover,
    /// Elastic membership: heartbeat suspicion, checkpointing, node
    /// rejoin and catch-up, partition quiesce/heal.
    Membership,
    /// Multi-tenant job director: admission, carve-outs, elastic
    /// reallocation between jobs.
    Director,
}

impl Layer {
    /// The stable lowercase label used in exports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Layer::Dsl => "dsl",
            Layer::Compile => "compile",
            Layer::Map => "map",
            Layer::Schedule => "schedule",
            Layer::Exec => "exec",
            Layer::Net => "net",
            Layer::Aggregate => "aggregate",
            Layer::Retry => "retry",
            Layer::Failover => "failover",
            Layer::Membership => "membership",
            Layer::Director => "director",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded span: a named interval of virtual time within a layer,
/// threaded into a tree through `parent`.
///
/// The duration is stored directly rather than as an end timestamp, so
/// a producer that knows the exact cost of a phase (the timing model's
/// `IterationBreakdown` fields, say) round-trips it through the trace
/// without floating-point drift.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The stack layer (export category).
    pub layer: Layer,
    /// The span name (canonical names live in [`crate::names`]).
    pub name: String,
    /// Virtual start time.
    pub start: f64,
    /// Virtual duration. `NaN` while the span is still open; a
    /// well-formed finished trace has only finite, non-negative
    /// durations (see [`TraceSink::validate_tree`]).
    pub dur: f64,
    /// Index of the enclosing span in the sink's record list, if any.
    /// Always less than this record's own index.
    pub parent: Option<usize>,
    /// Key/value annotations, in insertion order.
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// Whether the span has been closed with a well-formed duration.
    pub(crate) fn is_closed(&self) -> bool {
        self.dur.is_finite() && self.dur >= 0.0
    }
}

/// RAII handle for an open span: created by [`TraceSink::span`], closes
/// the span at the sink's current virtual time when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    sink: TraceSink,
    index: usize,
}

impl SpanGuard {
    pub(crate) fn new(sink: TraceSink, index: usize) -> Self {
        SpanGuard { sink, index }
    }

    /// The span's index in the sink's record list.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Attaches a key/value annotation to the span.
    pub fn arg(&self, key: &str, value: &str) {
        self.sink.set_arg(self.index, key, value);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.sink.end_span(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_lowercase() {
        let layers = [
            Layer::Dsl,
            Layer::Compile,
            Layer::Map,
            Layer::Schedule,
            Layer::Exec,
            Layer::Net,
            Layer::Aggregate,
            Layer::Retry,
            Layer::Failover,
            Layer::Membership,
        ];
        for layer in layers {
            let label = layer.label();
            assert_eq!(label, label.to_lowercase());
            assert_eq!(layer.to_string(), label);
        }
    }

    #[test]
    fn guard_closes_its_span_on_drop() {
        let sink = TraceSink::new();
        {
            let g = sink.span(Layer::Exec, "work");
            g.arg("k", "v");
            sink.advance(2.5);
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].is_closed());
        assert_eq!(spans[0].dur, 2.5);
        assert_eq!(spans[0].args, vec![("k".to_string(), "v".to_string())]);
    }
}
