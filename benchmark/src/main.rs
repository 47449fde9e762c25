//! `cosmic-benchmark` — the repo benchmark declared in `BENCHMARK.json`.
//!
//! ```text
//! cosmic-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--quick]
//!     one workload in this process; the last stdout line is the
//!     driver's JSON result
//! cosmic-benchmark run [--seed N] [--seconds S] [--workload W] [--traced] [--quick] [--out DIR]
//!     every workload, each in a fresh child process
//! cosmic-benchmark compare BASE_DIR CHANGE_DIR
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

mod compare;
mod json;
mod ladder;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use cosmic_core::cosmic_runtime::transport::proc::{JobSpec as LaunchSpec, Worker};

use runner::Options;
use spec::Spec;

/// The seed `run` uses unless told otherwise (the paper's year, as the
/// repo's pinned CI seeds are).
const DEFAULT_SEED: u64 = 2017;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--worker") {
        launcher_worker(&args)
    } else {
        match args.first().map(String::as_str) {
            Some("run") => run_all(&args[1..]),
            Some("compare") => compare_sets(&args[1..]),
            _ => run_one(&args),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cosmic-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The flags shared by the single-workload mode and `run`.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => flags.traced = true,
            "--quick" => flags.quick = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
                match flag.as_str() {
                    "--workload" => flags.workload = Some(value.clone()),
                    "--seed" => flags.seed = value.parse().map_err(|e| bad(&e))?,
                    "--seconds" => {
                        let seconds: f64 = value.parse().map_err(|e| bad(&e))?;
                        if !(0.0..=3600.0).contains(&seconds) {
                            return Err(bad(&"out of range"));
                        }
                        flags.seconds = Some(seconds);
                    }
                    "--trace" => match value.as_str() {
                        "0" => flags.traced = false,
                        "1" => flags.traced = true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    },
                    _ => flags.out = Some(PathBuf::from(value)),
                }
            }
            other => return Err(format!("unknown argument {other} (see benchmark/README.md)")),
        }
    }
    Ok(flags)
}

/// `benchmark/out` from the repo root, `out` from inside `benchmark/`.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// One workload in this process. The last stdout line is the driver's
/// JSON object.
fn run_one(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let spec = Spec::load()?;
    let workload = flags.workload.ok_or("--workload is required (or use `run`)")?;
    if !spec.workloads.contains(&workload) {
        return Err(format!("unknown workload {workload}; one of {:?}", spec.workloads));
    }
    let options = Options {
        workload,
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(if flags.quick { 0.0 } else { spec.run_seconds }),
        traced: flags.traced,
        quick: flags.quick,
    };
    let result = runner::run(&options, &spec)?;
    result.print();

    let out = flags.out.unwrap_or_else(default_out_dir);
    let write = |name: String, text: &str| {
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(out.join(&name), text))
            .map_err(|e| format!("write {}: {e}", out.join(&name).display()))
    };
    let suffix = if options.traced { "traced.json" } else { "json" };
    write(format!("{}.{suffix}", options.workload), &result.file_json())?;
    if let Some(trace) = &result.trace {
        write(format!("trace-{}.json", options.workload), trace)?;
    }
    println!("{}", result.driver_line());
    Ok(true)
}

/// Every workload, each in a fresh child process so peak RSS and
/// allocator state do not leak between them.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let spec = Spec::load()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = flags.out.unwrap_or_else(default_out_dir);
    let mut all_ok = true;
    for workload in
        spec.workloads.iter().filter(|w| flags.workload.as_ref().is_none_or(|f| f == *w))
    {
        for trace in ["0", "1"].into_iter().take(if flags.traced { 2 } else { 1 }) {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &flags.seed.to_string()])
                .arg("--out")
                .arg(&out);
            if let Some(seconds) = flags.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if flags.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| format!("spawn {workload}: {e}"))?;
            if !status.success() {
                eprintln!("cosmic-benchmark: {workload} (trace {trace}) exited with {status}");
                all_ok = false;
            }
        }
    }
    println!("results in {}", out.display());
    Ok(all_ok)
}

fn compare_sets(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err("usage: compare BASE_DIR CHANGE_DIR".into());
    };
    let bad = compare::compare(&Spec::load()?, Path::new(base), Path::new(change))?;
    Ok(!bad)
}

/// The launcher rung's worker half: `Coordinator` re-executes the
/// current binary with `cosmic-launcher`'s worker flags.
fn launcher_worker(args: &[String]) -> Result<bool, String> {
    let mut spec = LaunchSpec::default();
    let (mut node, mut addr, mut join) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--join" {
            join = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--worker" => node = Some(value.parse().map_err(|e| bad(&e))?),
            "--addr" => addr = Some(value.parse().map_err(|e| bad(&e))?),
            "--nodes" => spec.nodes = value.parse().map_err(|e| bad(&e))?,
            "--iterations" => spec.iterations = value.parse().map_err(|e| bad(&e))?,
            "--samples" => spec.samples = value.parse().map_err(|e| bad(&e))?,
            "--seed" => spec.seed = value.parse().map_err(|e| bad(&e))?,
            "--features" => spec.features = value.parse().map_err(|e| bad(&e))?,
            "--lr" => spec.learning_rate = value.parse().map_err(|e| bad(&e))?,
            "--read-timeout-ms" => {
                spec.link.read_timeout_ms = value.parse().map_err(|e| bad(&e))?
            }
            "--connect-timeout-ms" => {
                spec.link.connect_timeout_ms = value.parse().map_err(|e| bad(&e))?;
            }
            other => return Err(format!("unknown worker flag {other}")),
        }
    }
    spec.link.validate()?;
    let (Some(node), Some(addr)) = (node, addr) else {
        return Err("--worker needs --addr".into());
    };
    Worker::new(spec, node, addr, join).run().map_err(|e| e.to_string())?;
    Ok(true)
}
