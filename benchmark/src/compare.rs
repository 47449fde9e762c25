//! `compare BASE CHANGE`: two result sets → one row per metric ×
//! workload with both medians, their quartiles, the ratio with its
//! base, and a verdict. The tool for the A/A check and for every later
//! performance claim.

use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{MetricSpec, Spec};
use crate::stats::Summary;

/// How a change's metric stands against the base's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// No worse than the base by more than the bound.
    WithinBound,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The base's own inter-quartile spread exceeds the bound, so the
    /// comparison cannot say either way.
    Unresolved,
    /// An exact count that repeats.
    Identical,
    /// An exact count that moved.
    Differs,
    /// A per-layer number: reported, never gated.
    NotGated,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Differs => "differs",
            Verdict::NotGated => "-",
        }
    }
}

/// Judges the `change` value against the `base` value for one declared
/// metric; `base_spread` is the base's own samples.
pub fn verdict(metric: &MetricSpec, base: f64, base_spread: &Summary, change: f64) -> Verdict {
    let Some(bound) = metric.bound else {
        return match metric.unit.as_str() {
            "count" if base == change => Verdict::Identical,
            "count" => Verdict::Differs,
            _ => Verdict::NotGated,
        };
    };
    if base_spread.iqr_share() > bound {
        return Verdict::Unresolved;
    }
    // Positive when the change is worse, as a share of the base.
    let worse =
        if metric.higher_is_better { (base - change) / base } else { (change - base) / base };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// One result file's metrics and failure count.
struct ResultFile {
    correct: bool,
    failed: f64,
    attempted: f64,
    /// Name, gated value, and the samples behind it.
    metrics: Vec<(String, f64, Summary)>,
}

fn read_result(path: &Path) -> Result<Option<ResultFile>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(None);
    };
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let metrics = doc
        .get("metrics")
        .map(Value::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let value = number(m, "value")
                .ok_or_else(|| format!("{}: metric {name} has no value", path.display()))?;
            let or_value = |key| number(m, key).unwrap_or(value);
            Ok((
                name.clone(),
                value,
                Summary {
                    n: number(m, "n").unwrap_or(1.0) as usize,
                    min: or_value("min"),
                    q1: or_value("q1"),
                    median: or_value("median"),
                    q3: or_value("q3"),
                    max: or_value("max"),
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Some(ResultFile {
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        failed: number(&doc, "failed").unwrap_or(0.0),
        attempted: number(&doc, "attempted").unwrap_or(0.0),
        metrics,
    }))
}

/// Prints the comparison; returns whether any end-to-end row regressed
/// or any unit failed.
pub fn compare(spec: &Spec, base_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    println!(
        "{:<18} {:<42} {:>14} {:>22} {:>14} {:>22} {:>8}  verdict",
        "workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]", "ratio"
    );
    let mut bad = false;
    let mut rows = 0;
    for workload in &spec.workloads {
        for suffix in ["json", "traced.json"] {
            let file = format!("{workload}.{suffix}");
            let (Some(base), Some(change)) =
                (read_result(&base_dir.join(&file))?, read_result(&change_dir.join(&file))?)
            else {
                continue;
            };
            for (side, result) in [("base", &base), ("change", &change)] {
                if result.failed > 0.0 || !result.correct {
                    bad = true;
                    println!(
                        "{workload:<18} {side}: {} of {} units FAILED ({file})",
                        result.failed, result.attempted
                    );
                }
            }
            for (name, b_value, b) in &base.metrics {
                let (Some(metric), Some((_, c_value, c))) =
                    (spec.metric(name), change.metrics.iter().find(|(n, _, _)| n == name))
                else {
                    continue;
                };
                let v = verdict(metric, *b_value, b, *c_value);
                bad |= v == Verdict::Regressed;
                rows += 1;
                println!(
                    "{workload:<18} {:<42} {:>14.6} [{:>9.4}, {:>9.4}] {:>14.6} [{:>9.4}, {:>9.4}] {:>8.4}  {}",
                    format!("{name} ({})", metric.unit),
                    b_value,
                    b.q1,
                    b.q3,
                    c_value,
                    c.q1,
                    c.q3,
                    if c_value == b_value { 1.0 } else { c_value / b_value },
                    v.label()
                );
            }
        }
    }
    if rows == 0 {
        return Err(format!(
            "no workload has a result file in both {} and {}",
            base_dir.display(),
            change_dir.display()
        ));
    }
    println!(
        "ratio = change / base of the gated values; quartiles are over the timed units inside each run"
    );
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: Option<f64>, unit: &str) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: unit.into(), higher_is_better: higher, bound }
    }

    fn around(median: f64, spread: f64) -> Summary {
        Summary {
            n: 9,
            min: median - spread,
            q1: median - spread / 2.0,
            median,
            q3: median + spread / 2.0,
            max: median + spread,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let tput = metric(true, Some(0.1), "1/s");
        assert_eq!(verdict(&tput, 100.0, &around(100.0, 2.0), 95.0), Verdict::WithinBound);
        assert_eq!(verdict(&tput, 100.0, &around(100.0, 2.0), 85.0), Verdict::Regressed);
        assert_eq!(verdict(&tput, 100.0, &around(100.0, 2.0), 120.0), Verdict::Improved);
        let time = metric(false, Some(0.1), "s");
        assert_eq!(verdict(&time, 1.0, &around(1.0, 0.01), 1.2), Verdict::Regressed);
        assert_eq!(verdict(&time, 1.0, &around(1.0, 0.01), 0.8), Verdict::Improved);
    }

    #[test]
    fn a_noisy_base_is_unresolved() {
        let time = metric(false, Some(0.1), "s");
        assert_eq!(verdict(&time, 1.0, &around(1.0, 0.3), 2.0), Verdict::Unresolved);
    }

    #[test]
    fn per_layer_counts_must_repeat_exactly() {
        let count = metric(false, None, "count");
        assert_eq!(verdict(&count, 7.0, &around(7.0, 0.0), 7.0), Verdict::Identical);
        assert_eq!(verdict(&count, 7.0, &around(7.0, 0.0), 8.0), Verdict::Differs);
        let rate = metric(true, None, "MiB/s");
        assert_eq!(verdict(&rate, 7.0, &around(7.0, 0.0), 9.0), Verdict::NotGated);
    }
}
