//! `cosmic-launcher` — multi-process TCP training on loopback.
//!
//! Coordinator mode (the default) binds the aggregation listener,
//! spawns `--nodes` worker re-executions of this same binary, drives
//! the job through real sockets, and prints a one-line JSON summary.
//! Worker mode (`--worker N --addr HOST:PORT`) is what those
//! re-executions run. See `cosmic_runtime::transport::proc` for the
//! protocol; `JobSpec::flags` and `JobSpec::set_flag` own the job's
//! flags.
//!
//! ```text
//! cosmic-launcher --nodes 3 --iterations 12 --samples 240 --seed 11 \
//!     [--kill NODE:ITER] [--metrics PATH] [--trace PATH]
//! ```
//!
//! `--metrics` writes the summary line; `--trace` writes the engine's
//! Chrome trace, and its `metrics.json` beside it — the very exports
//! `ClusterTrainer::train_traced` records on `JobSpec::config`.

use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;

use cosmic_runtime::transport::proc::{Coordinator, JobSpec, Worker};
use cosmic_runtime::TraceSink;

/// What the coordinator writes besides its stdout line.
struct Outputs {
    metrics: Option<String>,
    trace: Option<String>,
}

/// A parsed command line: which half of the launcher to run.
enum Mode {
    Coordinator { spec: JobSpec, kill: Option<(usize, usize)>, out: Outputs },
    Worker { spec: JobSpec, node: usize, addr: SocketAddr, join: bool },
}

fn parse_args() -> Result<Mode, String> {
    let mut spec = JobSpec::default();
    let mut worker: Option<usize> = None;
    let mut addr: Option<SocketAddr> = None;
    let mut join = false;
    let mut kill: Option<(usize, usize)> = None;
    let mut out = Outputs { metrics: None, trace: None };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--join" {
            join = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if spec.set_flag(&flag, &value)? {
            continue;
        }
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--worker" => worker = Some(value.parse().map_err(|e| bad(&e))?),
            "--addr" => addr = Some(value.parse().map_err(|e| bad(&e))?),
            "--kill" => {
                let (n, i) = value
                    .split_once(':')
                    .ok_or_else(|| format!("--kill wants NODE:ITER, got {value}"))?;
                kill = Some((n.parse().map_err(|e| bad(&e))?, i.parse().map_err(|e| bad(&e))?));
            }
            "--metrics" => out.metrics = Some(value),
            "--trace" => out.trace = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    spec.link.validate()?;
    match (worker, addr) {
        (Some(node), Some(addr)) => Ok(Mode::Worker { spec, node, addr, join }),
        (Some(_), None) => Err("--worker needs --addr".into()),
        (None, _) => Ok(Mode::Coordinator { spec, kill, out }),
    }
}

fn run() -> Result<(), String> {
    match parse_args()? {
        Mode::Worker { spec, node, addr, join } => {
            Worker::new(spec, node, addr, join).run().map_err(|e| e.to_string())
        }
        Mode::Coordinator { spec, kill, out } => {
            let mut coordinator = Coordinator::bind(spec).map_err(|e| e.to_string())?;
            coordinator.kill = kill;
            let sink = TraceSink::new();
            let summary = match &out.trace {
                Some(_) => coordinator.run_traced(&sink),
                None => coordinator.run(),
            };
            let json = summary.map_err(|e| e.to_string())?.to_json();
            println!("{json}");
            if let Some(path) = out.metrics {
                std::fs::write(&path, format!("{json}\n"))
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
            if let Some(path) = out.trace {
                sink.write(Path::new(&path)).map_err(|e| format!("write {path}: {e}"))?;
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("cosmic-launcher: {err}");
            ExitCode::FAILURE
        }
    }
}
