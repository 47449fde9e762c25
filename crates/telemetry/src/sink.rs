//! The deterministic trace sink: a shared, thread-safe recorder of
//! virtual-time spans and typed counters.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::span::{Layer, SpanGuard, SpanRecord};

#[derive(Debug, Default)]
struct SinkState {
    clock: f64,
    spans: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last. A new span's
    /// parent is the innermost open span at its begin.
    open: Vec<usize>,
    sums: BTreeMap<String, f64>,
    maxima: BTreeMap<String, f64>,
    diag_sums: BTreeMap<String, f64>,
}

/// A shared recorder of spans and counters on a virtual clock.
///
/// Cloning is cheap and shares the underlying state, so one sink can be
/// threaded through every layer of a run. All mutation is commutative
/// except span *ordering*: summed and maximized counters are safe to
/// update from worker threads, while deterministic span order requires
/// emitting spans from a single orchestration thread (the trainer's main
/// loop, the timing model) — which is how the stack uses it.
///
/// The clock is virtual and monotone: [`TraceSink::advance`] moves it
/// forward, wall time is never consulted. With a fixed seed the entire
/// recorded state — and therefore every exported artifact — is
/// byte-identical across runs.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    state: Arc<Mutex<SinkState>>,
}

impl TraceSink {
    /// An empty sink with the clock at zero.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> f64 {
        self.state.lock().clock
    }

    /// Advances the virtual clock by `dt` (negative or non-finite
    /// increments are ignored — the clock never goes backward).
    pub fn advance(&self, dt: f64) {
        if dt.is_finite() && dt > 0.0 {
            self.state.lock().clock += dt;
        }
    }

    /// Moves the clock forward to absolute time `t`; earlier times are
    /// ignored (the clock is monotone).
    pub fn set_time(&self, t: f64) {
        if t.is_finite() {
            let mut state = self.state.lock();
            state.clock = state.clock.max(t);
        }
    }

    /// Opens a span beginning now; it closes (at the then-current
    /// virtual time) when the returned guard drops. The span's parent is
    /// the innermost span still open at this begin.
    pub fn span(&self, layer: Layer, name: &str) -> SpanGuard {
        let mut state = self.state.lock();
        let parent = state.open.last().copied();
        let start = state.clock;
        let index = state.spans.len();
        state.spans.push(SpanRecord {
            layer,
            name: name.to_string(),
            start,
            dur: f64::NAN,
            parent,
            args: Vec::new(),
        });
        state.open.push(index);
        SpanGuard::new(self.clone(), index)
    }

    /// Records an already-measured span: `start` and `dur` are taken
    /// verbatim (negative or non-finite durations clamp to zero), so a
    /// producer that knows a phase's exact cost round-trips it without
    /// recomputation error. Parented under the innermost open span.
    /// Returns the record's index for [`TraceSink::set_arg`].
    pub fn span_closed(&self, layer: Layer, name: &str, start: f64, dur: f64) -> usize {
        let mut state = self.state.lock();
        let parent = state.open.last().copied();
        let index = state.spans.len();
        let dur = if dur.is_finite() && dur >= 0.0 { dur } else { 0.0 };
        state.spans.push(SpanRecord {
            layer,
            name: name.to_string(),
            start,
            dur,
            parent,
            args: Vec::new(),
        });
        index
    }

    /// Records a zero-duration marker at the current virtual time.
    pub fn instant(&self, layer: Layer, name: &str) -> usize {
        let now = self.now();
        self.span_closed(layer, name, now, 0.0)
    }

    /// Appends a key/value annotation to the span at `index` (out of
    /// range indices are ignored).
    pub fn set_arg(&self, index: usize, key: &str, value: &str) {
        let mut state = self.state.lock();
        if let Some(span) = state.spans.get_mut(index) {
            span.args.push((key.to_string(), value.to_string()));
        }
    }

    pub(crate) fn end_span(&self, index: usize) {
        let mut state = self.state.lock();
        let clock = state.clock;
        if let Some(span) = state.spans.get_mut(index) {
            if span.dur.is_nan() {
                span.dur = (clock - span.start).max(0.0);
            }
        }
        state.open.retain(|&i| i != index);
    }

    /// Adds `value` to the deterministic counter `name` (summed).
    pub fn add(&self, name: &str, value: f64) {
        if value.is_finite() {
            *self.state.lock().sums.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    /// Raises the deterministic counter `name` to at least `value`
    /// (running maximum).
    pub fn record_max(&self, name: &str, value: f64) {
        if value.is_finite() {
            let mut state = self.state.lock();
            let slot = state.maxima.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
            *slot = slot.max(value);
        }
    }

    /// Adds to a **diagnostic** counter: measurements that depend on
    /// where or when a run was observed (a director's recovery replay)
    /// and are kept out of `metrics.json` so exports stay byte-identical.
    pub fn add_diagnostic(&self, name: &str, value: f64) {
        if value.is_finite() {
            *self.state.lock().diag_sums.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    /// A snapshot of every recorded span, in emission order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.lock().spans.clone()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.state.lock().spans.len()
    }

    /// Snapshot of the summed deterministic counters, sorted by name.
    pub fn sums(&self) -> BTreeMap<String, f64> {
        self.state.lock().sums.clone()
    }

    /// Snapshot of the maximized deterministic counters, sorted by name.
    pub fn maxima(&self) -> BTreeMap<String, f64> {
        self.state.lock().maxima.clone()
    }

    /// Snapshot of the (summed) diagnostic counters, sorted by name.
    pub fn diagnostics(&self) -> BTreeMap<String, f64> {
        self.state.lock().diag_sums.clone()
    }

    /// Checks that the recorded spans form a well-formed tree: every
    /// span closed with a finite, non-negative duration, and every
    /// parent index pointing at an earlier record (no orphans, no
    /// cycles).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_tree(&self) -> Result<(), String> {
        let state = self.state.lock();
        if let Some(&open) = state.open.first() {
            let name = state.spans.get(open).map(|s| s.name.as_str()).unwrap_or("?");
            return Err(format!("span {open} (`{name}`) is still open"));
        }
        for (i, span) in state.spans.iter().enumerate() {
            if !span.is_closed() {
                return Err(format!(
                    "span {i} (`{}`) has ill-formed duration {}",
                    span.name, span.dur
                ));
            }
            if let Some(parent) = span.parent {
                if parent >= i {
                    return Err(format!(
                        "span {i} (`{}`) points at parent {parent} which is not earlier",
                        span.name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_ignores_garbage() {
        let sink = TraceSink::new();
        sink.advance(1.5);
        sink.advance(-3.0);
        sink.advance(f64::NAN);
        assert_eq!(sink.now(), 1.5);
        sink.set_time(1.0); // earlier: ignored
        assert_eq!(sink.now(), 1.5);
        sink.set_time(4.0);
        assert_eq!(sink.now(), 4.0);
    }

    #[test]
    fn nesting_assigns_parents() {
        let sink = TraceSink::new();
        {
            let outer = sink.span(Layer::Exec, "outer");
            let inner = sink.span(Layer::Net, "inner");
            assert_eq!(inner.index(), 1);
            drop(inner);
            let closed = sink.span_closed(Layer::Retry, "measured", 0.25, 0.5);
            assert_eq!(closed, 2);
            drop(outer);
        }
        let spans = sink.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].dur, 0.5);
        assert!(sink.validate_tree().is_ok());
    }

    #[test]
    fn validation_catches_open_spans() {
        let sink = TraceSink::new();
        let guard = sink.span(Layer::Exec, "never-closed");
        assert!(sink.validate_tree().is_err());
        drop(guard);
        assert!(sink.validate_tree().is_ok());
    }

    #[test]
    fn counters_sum_and_maximize() {
        let sink = TraceSink::new();
        sink.add("a", 2.0);
        sink.add("a", 3.0);
        sink.record_max("m", 1.0);
        sink.record_max("m", 0.5);
        sink.add_diagnostic("d", 1.0);
        assert_eq!(sink.sums()["a"], 5.0);
        assert_eq!(sink.maxima()["m"], 1.0);
        assert_eq!(sink.diagnostics()["d"], 1.0);
        // Diagnostics never leak into the deterministic views.
        assert!(!sink.sums().contains_key("d"));
    }

    #[test]
    fn instants_have_zero_duration_at_now() {
        let sink = TraceSink::new();
        sink.advance(2.0);
        let idx = sink.instant(Layer::Failover, "crash");
        sink.set_arg(idx, "node", "3");
        let span = &sink.spans()[idx];
        assert_eq!(span.start, 2.0);
        assert_eq!(span.dur, 0.0);
        assert_eq!(span.args[0].1, "3");
    }
}
