//! Measures the hot-path benchmark matrix and maintains the repo-root
//! `BENCH_<date>.json` trajectory.
//!
//! Runs the same closures as `cargo bench --bench hotpaths` in-process,
//! drains the criterion record registry, and either:
//!
//! - **export** (default): writes `BENCH_<date>.json` with every
//!   workload's ns/iter plus the reference→optimized speedup per hot
//!   path, or
//! - **check** (`--check FILE`): compares the fresh measurements
//!   against a committed baseline file and exits non-zero when any
//!   workload present in both slowed down by more than the gate
//!   (default 10%, `--gate PCT`). The CI `bench` job runs this in
//!   quick mode (`COSMIC_BENCH_ITERS`) against the committed baseline.
//!
//! Usage:
//!   bench_export [--out DIR] [--date YYYY-MM-DD] [--check FILE] [--gate PCT]
//!
//! The date defaults to `COSMIC_BENCH_DATE`, then to today (UTC).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use criterion::{take_records, BenchRecord, Criterion, Throughput};

use cosmic_bench::hotpaths;

fn main() -> ExitCode {
    let mut out_dir = String::from(".");
    let mut date: Option<String> = None;
    let mut check: Option<String> = None;
    let mut gate = 10.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_export: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out_dir = value("--out"),
            "--date" => date = Some(value("--date")),
            "--check" => check = Some(value("--check")),
            "--gate" => {
                gate = value("--gate").parse().unwrap_or_else(|_| {
                    eprintln!("bench_export: --gate wants a percentage");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("bench_export: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    // Measure in several passes and keep the faster sample per
    // workload: host-load spikes and frequency scaling hit whichever
    // benchmark happens to be running, and best-of filters that out
    // while a genuine slowdown survives every pass. The gate mode gets
    // an extra pass — a false REGRESSED verdict costs a CI run.
    let passes = if check.is_some() { 3 } else { 2 };
    let mut records: Vec<BenchRecord> = Vec::new();
    for _ in 0..passes {
        let mut criterion = Criterion::default();
        hotpaths::register(&mut criterion);
        for fresh in take_records() {
            match records.iter_mut().find(|r| r.id() == fresh.id()) {
                Some(kept) if kept.ns_per_iter <= fresh.ns_per_iter => {}
                Some(kept) => *kept = fresh,
                None => records.push(fresh),
            }
        }
    }
    if records.is_empty() {
        eprintln!("bench_export: no benchmarks ran");
        return ExitCode::FAILURE;
    }

    match check {
        Some(baseline_path) => check_against(&records, &baseline_path, gate),
        None => {
            let date =
                date.or_else(|| std::env::var("COSMIC_BENCH_DATE").ok()).unwrap_or_else(today_utc);
            let path = format!("{}/BENCH_{date}.json", out_dir.trim_end_matches('/'));
            let body = render_json(&records, &date);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("bench_export: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
            ExitCode::SUCCESS
        }
    }
}

/// Serializes the measurement set. One workload per line on purpose:
/// the check-mode parser (and a human with grep) reads it back without
/// a JSON library.
fn render_json(records: &[BenchRecord], date: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cosmic-bench-hotpaths-v1\",\n");
    let _ = writeln!(s, "  \"date\": \"{date}\",");
    s.push_str("  \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        let rate = r.throughput.map_or(String::new(), |t| {
            let secs = (r.ns_per_iter / 1e9).max(1e-12);
            match t {
                Throughput::Bytes(n) => {
                    format!(", \"mib_per_s\": {:.1}", n as f64 / secs / f64::from(1 << 20))
                }
                Throughput::Elements(n) => {
                    format!(", \"elem_per_s\": {:.0}", n as f64 / secs)
                }
            }
        });
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"id\": \"{}\", \"ns_per_iter\": {:.0}, \"iters\": {}{rate} }}{comma}",
            r.id(),
            r.ns_per_iter,
            r.iters,
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"speedups\": [\n");
    let pairs: Vec<_> = hotpaths::SPEEDUP_PAIRS
        .iter()
        .filter_map(|&(path, reference, optimized)| {
            let r = records.iter().find(|r| r.id() == reference)?;
            let o = records.iter().find(|r| r.id() == optimized)?;
            Some((path, reference, optimized, r.ns_per_iter / o.ns_per_iter))
        })
        .collect();
    for (i, (path, reference, optimized, speedup)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{ \"path\": \"{path}\", \"reference\": \"{reference}\", \
             \"optimized\": \"{optimized}\", \"speedup\": {speedup:.2} }}{comma}",
        );
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Compares fresh measurements against a committed baseline.
///
/// The *gate* holds the reference→optimized **speedup ratios**: both
/// sides of a ratio are measured in the same process under the same
/// host load, so the ratio survives a busy CI runner and different
/// hardware, where absolute ns/iter do not. A ratio that fell more
/// than `gate` percent below the baseline's — the optimized path got
/// slower relative to its own reference — fails the run. Absolute
/// per-workload deltas are printed for the log but never gate.
fn check_against(records: &[BenchRecord], baseline_path: &str, gate: f64) -> ExitCode {
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_export: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = parse_workloads(&baseline_text);
    let baseline_speedups = parse_speedups(&baseline_text);
    if baseline_speedups.is_empty() {
        eprintln!("bench_export: no speedups found in {baseline_path}");
        return ExitCode::FAILURE;
    }

    for r in records {
        let id = r.id();
        match baseline.iter().find(|(b, _)| *b == id).map(|&(_, ns)| ns) {
            Some(base_ns) => {
                let delta = (r.ns_per_iter - base_ns) / base_ns * 100.0;
                println!(
                    "  info     {id:<44} {base_ns:>12.0} -> {:>12.0} ns/iter ({delta:+.1}%)",
                    r.ns_per_iter
                );
            }
            None => {
                println!("  new      {id:<44} {:>12.0} ns/iter (no baseline)", r.ns_per_iter)
            }
        }
    }

    let mut regressed = false;
    let mut compared = 0usize;
    for &(path, reference, optimized) in hotpaths::SPEEDUP_PAIRS {
        let (Some(r), Some(o)) = (
            records.iter().find(|r| r.id() == reference),
            records.iter().find(|r| r.id() == optimized),
        ) else {
            continue;
        };
        let Some(&base) = baseline_speedups.iter().find(|(p, _)| p == path).map(|(_, s)| s) else {
            continue;
        };
        compared += 1;
        let current = r.ns_per_iter / o.ns_per_iter;
        let drop = (base - current) / base * 100.0;
        let verdict = if drop > gate {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("  {verdict:<8} {path:<44} speedup {base:.2}x -> {current:.2}x");
    }
    if compared == 0 {
        eprintln!("bench_export: baseline shares no speedup paths with this run");
        return ExitCode::FAILURE;
    }
    if regressed {
        eprintln!("bench_export: a hot path lost more than {gate:.0}% of its baseline speedup");
        return ExitCode::FAILURE;
    }
    println!("bench_export: {compared} hot-path speedups within {gate:.0}% of {baseline_path}");
    ExitCode::SUCCESS
}

/// Pulls `(id, ns_per_iter)` pairs back out of a report. Leans on the
/// writer's one-workload-per-line layout instead of a JSON library.
fn parse_workloads(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let id = field(line, "\"id\": \"")?;
            let id = id.split('"').next()?.to_owned();
            let ns: f64 = field(line, "\"ns_per_iter\": ")?
                .split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()?;
            Some((id, ns))
        })
        .collect()
}

/// Pulls `(path, speedup)` pairs back out of a report's speedups
/// section, same line-oriented contract as [`parse_workloads`].
fn parse_speedups(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let path = field(line, "\"path\": \"")?;
            let path = path.split('"').next()?.to_owned();
            let speedup: f64 = field(line, "\"speedup\": ")?
                .split(|c: char| c != '.' && !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()?;
            Some((path, speedup))
        })
        .collect()
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)?;
    Some(&line[at + key.len()..])
}

/// Today's UTC date as `YYYY-MM-DD` (days-to-civil conversion, so no
/// date crate is needed).
fn today_utc() -> String {
    let secs =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or_default();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}
