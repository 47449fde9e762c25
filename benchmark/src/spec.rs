//! The benchmark's declared names, read from the repo-root
//! `BENCHMARK.json` at compile time so the runner, `compare` and the
//! tests all hold to the one file the driver checks.

use crate::json::{self, Value};

/// The declaration, embedded at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the runner needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the embedded declaration.
    pub fn load() -> Result<Spec, String> {
        let doc = json::parse(BENCHMARK_JSON)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .map(Value::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {f}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc.get("run_seconds").and_then(Value::as_f64).unwrap_or(10.0),
            workloads: doc
                .get("workloads")
                .map(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declared metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}
