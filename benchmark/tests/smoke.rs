//! End-to-end smoke test of the built binary at `--quick` shapes: the
//! driver contract (last stdout line, exact keys), every name in
//! `BENCHMARK.json` emitted, a loadable Chrome trace, and `compare`
//! over two result sets.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_cosmic-benchmark");

fn declaration() -> Value {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("entry has a name").to_string())
        .collect()
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary as the driver does and returns its parsed last line.
fn drive(workload: &str, seed: u64, trace: &str, out: &Path) -> Value {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", trace, "--quick", "--out"])
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

fn check_result(result: &Value, declared: &[String], doc: &Value, key: &str, context: &str) {
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{context}");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{context}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{context}");
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0, "{context}");
    let metrics = result.get("metrics").expect("metrics").members();
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(emitted, declared, "{context}: emitted names differ from BENCHMARK.json");
    for ((name, metric), spec) in metrics.iter().zip(doc.get(key).unwrap().as_array()) {
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{context}: {name} = {value:?}");
        assert_eq!(metric.get("unit"), spec.get("unit"), "{context}: unit of {name}");
        if key == "end_to_end" {
            assert!(value.unwrap() > 0.0, "{context}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn declaration_stays_inside_the_contract_limits() {
    let doc = declaration();
    let valid = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads = names(&doc, "workloads");
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut all: Vec<&String> = workloads.iter().chain(&end_to_end).chain(&per_layer).collect();
    assert!(all.iter().all(|n| valid(n)), "a name leaves [A-Za-z0-9_.-]");
    all.sort();
    all.dedup();
    assert_eq!(all.len(), workloads.len() + end_to_end.len() + per_layer.len(), "a name is reused");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for metric in doc.get("end_to_end").unwrap().as_array() {
        let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}

#[test]
fn every_workload_emits_every_declared_name_and_compares() {
    let doc = declaration();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    let (base, change) = (out_dir("smoke-base"), out_dir("smoke-change"));
    for workload in names(&doc, "workloads") {
        let untraced = drive(&workload, 7, "0", &base);
        check_result(&untraced, &end_to_end, &doc, "end_to_end", &workload);
        drive(&workload, 7, "0", &change);
        assert!(base.join(format!("{workload}.json")).is_file());

        let traced = drive(&workload, 7, "1", &base);
        check_result(&traced, &per_layer, &doc, "per_layer", &format!("{workload} traced"));
        let trace = std::fs::read_to_string(base.join(format!("trace-{workload}.json")))
            .expect("trace file written");
        let trace = json::parse(&trace).expect("Chrome trace is loadable JSON");
        let events = trace.get("traceEvents").map(Value::as_array).unwrap_or_default();
        assert!(events.len() > 10, "{workload}: trace has {} events", events.len());
        assert!(events.iter().all(|e| e.get("ph").and_then(Value::as_str) == Some("X")));
    }

    let output =
        Command::new(BIN).arg("compare").arg(&base).arg(&change).output().expect("compare");
    let table = String::from_utf8_lossy(&output.stdout);
    for workload in names(&doc, "workloads") {
        for metric in &end_to_end {
            let row = table
                .lines()
                .find(|l| l.starts_with(&workload) && l.contains(&format!(" {metric} (")))
                .unwrap_or_else(|| panic!("no compare row for {workload} {metric}:\n{table}"));
            assert!(
                ["improved", "within-bound", "regressed", "unresolved"]
                    .iter()
                    .any(|v| row.ends_with(v)),
                "{row}"
            );
        }
    }
}
