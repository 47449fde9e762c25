//! In-memory spans around the calls the benchmark makes into each
//! layer, written as a Chrome trace when the workload ends.
//!
//! The spans come from the benchmark's own files only (spans inside
//! the crates are a later change). Every call into a layer goes through
//! [`Tracer::span`], which always times the call and — in a traced run
//! — also books `{name, start_ns, end_ns, parent, unit}`. A layer's
//! self time is its span minus the part its children cover.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name (`dfg.lower`, `runtime.train`, …).
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The timed unit the call belongs to (0 = set-up and warm-up).
    pub unit: u32,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Times calls and, when recording, keeps their spans. Single-threaded
/// by design: the load generator is one thread.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    unit: Cell<u32>,
}

impl Tracer {
    /// A tracer that records spans iff `recording`.
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            unit: Cell::new(0),
        }
    }

    /// Marks the start of timed unit `unit` (and forgets any span a
    /// panic left open in the previous one).
    pub fn begin_unit(&self, unit: u32) {
        self.unit.set(unit);
        self.open.borrow_mut().clear();
    }

    /// Runs `f`, returning its result and its wall time in seconds.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.recording {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: open.last().copied(),
                unit: self.unit.get(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end_ns;
        self.open.borrow_mut().pop();
        let seconds = spans[index].duration_ns() as f64 * 1e-9;
        (out, seconds)
    }

    /// The spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto):
    /// complete events on one thread, µs timestamps, with the span's
    /// unit and self time as arguments.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let selfs = self_times(&spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"unit\":{},\"self_us\":{:.3}}}}}{sep}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.unit,
                *self_ns as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Each span's self time: its duration minus the durations of its
/// direct children (children of one parent never overlap — the tracer
/// is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, unit: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, unit }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("unit", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("a.inner", 15, 25, Some(1), 1),
            span("b", 50, 90, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_and_times() {
        let t = Tracer::new(true);
        t.begin_unit(1);
        let ((), outer_s) = t.span("outer", || {
            let (v, _) = t.span("inner", || 7);
            assert_eq!(v, 7);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].unit, 1);
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        assert!(outer_s >= 0.0);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"inner\"") && json.trim_end().ends_with("]}"));
    }

    #[test]
    fn untraced_tracer_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, s) = t.span("x", || 3);
        assert_eq!(v, 3);
        assert!(s >= 0.0);
        assert!(t.spans().is_empty());
    }
}
