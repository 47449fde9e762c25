//! Deterministic exporters: Chrome-trace JSON and flat metrics.
//!
//! Both serializers are hand-rolled so the byte layout is under this
//! crate's control: fields in a fixed order, counters in `BTreeMap`
//! (name) order, and numbers through Rust's deterministic [`f64`]
//! `Display` (shortest round-trip form). Identical sink contents always
//! produce identical bytes — the property the golden-trace tests pin.

use std::fs;
use std::io;
use std::path::Path;

use crate::sink::TraceSink;

/// Formats a number for JSON: deterministic shortest round-trip form,
/// with non-finite values (never produced by well-behaved recorders)
/// clamped to zero since JSON has no NaN/Infinity.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceSink {
    /// Renders the spans as Chrome-trace-format JSON (one complete `"X"`
    /// event per span, timestamps in microseconds of virtual time),
    /// loadable in `about:tracing` or Perfetto. The non-standard
    /// `parent` field preserves the span tree exactly.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in spans.iter().enumerate() {
            let dur = if span.dur.is_finite() { span.dur } else { 0.0 };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0",
                escape(&span.name),
                span.layer.label(),
                fmt_num(span.start * 1e6),
                fmt_num(dur * 1e6),
            ));
            if let Some(parent) = span.parent {
                out.push_str(&format!(",\"parent\":{parent}"));
            }
            if !span.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in span.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
                }
                out.push('}');
            }
            out.push('}');
            if i + 1 < spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the deterministic counters as a flat JSON object:
    /// `counters` (sums) and `maxima`, keys sorted. Diagnostic counters
    /// are deliberately excluded — their values depend on where or when
    /// the run was observed (see [`TraceSink::diagnostics`]).
    pub fn metrics_json(&self) -> String {
        let render = |map: &std::collections::BTreeMap<String, f64>| {
            let body: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("    \"{}\": {}", escape(k), fmt_num(*v)))
                .collect();
            if body.is_empty() {
                "{}".to_string()
            } else {
                format!("{{\n{}\n  }}", body.join(",\n"))
            }
        };
        format!(
            "{{\n  \"counters\": {},\n  \"maxima\": {}\n}}\n",
            render(&self.sums()),
            render(&self.maxima())
        )
    }

    /// Writes the Chrome trace to `trace_path` and the metrics to a
    /// `metrics.json` sibling in the same directory.
    ///
    /// # Errors
    ///
    /// Propagates any filesystem error from the two writes.
    pub fn write(&self, trace_path: &Path) -> io::Result<()> {
        fs::write(trace_path, self.chrome_trace_json())?;
        fs::write(trace_path.with_file_name("metrics.json"), self.metrics_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Layer;

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let build = || {
            let sink = TraceSink::new();
            {
                let outer = sink.span(Layer::Exec, "iteration");
                outer.arg("iter", "0");
                sink.span_closed(Layer::Net, "pcie", 0.0, 0.125);
                sink.advance(1.0);
            }
            sink.add("net.bytes.level1", 4096.0);
            sink.record_max("pe.utilization", 0.75);
            sink
        };
        let a = build();
        let b = build();
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        assert_eq!(a.metrics_json(), b.metrics_json());

        let trace = a.chrome_trace_json();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(trace.contains("\"cat\":\"net\""));
        assert!(trace.contains("\"parent\":0"));
        assert!(trace.contains("\"dur\":125000")); // 0.125 s in us
        let metrics = a.metrics_json();
        assert!(metrics.contains("\"net.bytes.level1\": 4096"));
        assert!(metrics.contains("\"pe.utilization\": 0.75"));
    }

    #[test]
    fn empty_sink_exports_are_well_formed() {
        let sink = TraceSink::new();
        assert_eq!(sink.chrome_trace_json(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
        assert_eq!(sink.metrics_json(), "{\n  \"counters\": {},\n  \"maxima\": {}\n}\n");
    }

    #[test]
    fn strings_are_escaped() {
        let sink = TraceSink::new();
        let idx = sink.span_closed(Layer::Dsl, "weird\"name\n", 0.0, 0.0);
        sink.set_arg(idx, "k\\", "\t");
        let trace = sink.chrome_trace_json();
        assert!(trace.contains("weird\\\"name\\n"));
        assert!(trace.contains("\"k\\\\\":\"\\t\""));
    }

    #[test]
    fn write_emits_both_files() {
        let dir = std::env::temp_dir().join("cosmic-telemetry-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let sink = TraceSink::new();
        sink.add("c", 1.0);
        sink.write(&trace).unwrap();
        assert!(trace.exists());
        assert!(dir.join("metrics.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
