//! `cosmic-bench director-chaos`: the crash-recovery demo and CI chaos
//! harness for the director.
//!
//! Runs a contended, fault-riddled 24-job scenario (job crashes, a
//! poison job, slab failures, SLA deadlines) and exports the run's
//! artifacts — final report, decision journal, `metrics.json`, chrome
//! trace. With `--kill-at`, the director is "killed" by truncating its
//! journal at the chosen record (optionally mid-record with `--torn`),
//! then [`Director::recover`] replays the journal and finishes the run;
//! the exported artifacts must be byte-identical to an unkilled run's,
//! which CI checks with `cmp`.
//!
//! Usage:
//!   cosmic-bench director-chaos [--out DIR] [--kill-at N|random] [--seed S] [--torn]
//!
//! - no `--kill-at`: export the unkilled baseline run.
//! - `--kill-at N`: kill at journal record N (0 = before any decision).
//! - `--kill-at random`: derive the kill record from `--seed` (FNV of
//!   the seed bytes modulo the journal length), so CI gets a different
//!   but reproducible kill point per seed.
//! - `--torn`: after picking the record, keep a few extra bytes of the
//!   next record so recovery must also roll back a torn tail.

use std::process::ExitCode;

use cosmic_core::cosmic_director::{
    journal::fnv1a, Director, DirectorConfig, DirectorRun, FairnessPolicy, JobCheckpointStore,
    Journal,
};
use cosmic_core::cosmic_runtime::RetryPolicy;
use cosmic_core::cosmic_sim::{
    ArrivalProfile, DirectorFaultPlan, DirectorFaultRates, JobArrivalPlan,
};
use cosmic_core::cosmic_telemetry::TraceSink;

/// Seed for the arrival plan and the fault plan.
const SEED: u64 = 2017;

/// The same contended scenario the director's recovery suite uses:
/// tight arrivals with SLA deadlines, random job crashes, slab
/// failures, and one poison job that must quarantine.
fn scenario() -> (DirectorConfig, JobArrivalPlan, DirectorFaultPlan) {
    let profile = ArrivalProfile {
        mean_interarrival_s: 0.002,
        sla_slack: Some((2.0, 8.0)),
        ..ArrivalProfile::default()
    };
    let plan = JobArrivalPlan::random(SEED, 24, &profile);
    let cfg = DirectorConfig {
        cluster_nodes: 48,
        policy: FairnessPolicy::WeightedMaxMin,
        scaler_interval_s: 0.004,
        checkpoint_every_rounds: 4,
        retry: RetryPolicy { backoff_base: 0.01, backoff_cap: 0.05, max_retries: 3 },
        ..DirectorConfig::default()
    };
    let mut faults = DirectorFaultPlan::random(
        SEED,
        24,
        48,
        0.05,
        &DirectorFaultRates {
            job_crashes: 6,
            slab_failures: 2,
            slab_width: (8, 16),
            repair_s: 0.01,
            poison_jobs: 0,
        },
    );
    for i in 1..=8 {
        faults = faults.with_job_crash(0.002 * i as f64, 0);
    }
    (cfg, plan, faults.with_poison(0))
}

/// Writes the run's four export artifacts under `dir`.
fn export(dir: &str, run: &DirectorRun, sink: &TraceSink) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(format!("{dir}/report.txt"), format!("{:#?}\n", run.report))?;
    std::fs::write(format!("{dir}/journal.bin"), &run.journal)?;
    std::fs::write(format!("{dir}/metrics.json"), sink.metrics_json())?;
    std::fs::write(format!("{dir}/trace.json"), sink.chrome_trace_json())?;
    Ok(())
}

/// The flags, with their defaults.
struct Flags {
    out: String,
    kill_at: Option<String>,
    seed: u64,
    torn: bool,
}

/// Parses the flags, or says on stderr what is wrong with them.
fn parse(args: &[String]) -> Option<Flags> {
    let mut flags = Flags { out: String::from("."), kill_at: None, seed: 0, torn: false };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            let value = args.next().cloned();
            if value.is_none() {
                eprintln!("director_chaos: {flag} needs a value");
            }
            value
        };
        match arg.as_str() {
            "--out" => flags.out = value("--out")?,
            "--kill-at" => flags.kill_at = Some(value("--kill-at")?),
            "--seed" => {
                let Ok(seed) = value("--seed")?.parse() else {
                    eprintln!("director_chaos: --seed wants a u64");
                    return None;
                };
                flags.seed = seed;
            }
            "--torn" => flags.torn = true,
            other => {
                eprintln!("director_chaos: unknown argument {other}");
                return None;
            }
        }
    }
    Some(flags)
}

/// Runs the harness on the arguments that follow `director-chaos`.
pub fn run(args: &[String]) -> ExitCode {
    let Some(Flags { out: out_dir, kill_at, seed, torn }) = parse(args) else {
        return ExitCode::from(2);
    };

    let (cfg, plan, faults) = scenario();

    // The unkilled run: the reference every recovery must reproduce.
    let sink = TraceSink::new();
    let baseline = match Director::run_journaled(&cfg, &plan, &faults, &sink) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("director_chaos: baseline run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (records, _) = match Journal::decode(&baseline.journal) {
        Ok(decoded) => decoded,
        Err(e) => {
            eprintln!("director_chaos: baseline journal corrupt: {e}");
            return ExitCode::FAILURE;
        }
    };

    let Some(kill_spec) = kill_at else {
        println!(
            "baseline: {} journal records, {} bytes, {} jobs done, {} shed, {} quarantined",
            records.len(),
            baseline.journal.len(),
            baseline.report.jobs.len(),
            baseline.report.shed.len(),
            baseline.report.quarantined.len(),
        );
        if let Err(e) = export(&out_dir, &baseline, &sink) {
            eprintln!("director_chaos: export failed: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    };

    let kill_record = if kill_spec == "random" {
        (fnv1a(&seed.to_le_bytes()) % (records.len() as u64 + 1)) as usize
    } else {
        match kill_spec.parse::<usize>() {
            Ok(n) if n <= records.len() => n,
            _ => {
                eprintln!(
                    "director_chaos: --kill-at wants 0..={} or 'random', got {kill_spec}",
                    records.len()
                );
                return ExitCode::from(2);
            }
        }
    };

    // Truncate the journal where the kill lands: at the record
    // boundary, or a few bytes past it to tear the next record.
    let mut truncated = Journal::new();
    for r in &records[..kill_record] {
        truncated.append(r);
    }
    let mut cut = truncated.bytes().len();
    if torn && cut < baseline.journal.len() {
        cut = (cut + 5).min(baseline.journal.len() - 1);
    }

    let rsink = TraceSink::new();
    let recovered = match Director::recover(
        &cfg,
        &plan,
        &faults,
        &baseline.journal[..cut],
        &JobCheckpointStore::new().to_bytes(),
        &rsink,
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("director_chaos: recovery from record {kill_record} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = recovered.recovery.unwrap_or_default();
    println!(
        "killed at record {kill_record}/{} (byte {cut}{}): replayed {} records, \
         rolled back {} torn bytes, finished with {} jobs done",
        records.len(),
        if torn { ", torn" } else { "" },
        stats.replayed_records,
        stats.torn_bytes,
        recovered.report.jobs.len(),
    );
    let identical = recovered.report == baseline.report
        && recovered.journal == baseline.journal
        && rsink.metrics_json() == sink.metrics_json()
        && rsink.chrome_trace_json() == sink.chrome_trace_json();
    if let Err(e) = export(&out_dir, &recovered, &rsink) {
        eprintln!("director_chaos: export failed: {e}");
        return ExitCode::FAILURE;
    }
    if identical {
        println!("recovered run is byte-identical to the unkilled baseline");
        ExitCode::SUCCESS
    } else {
        eprintln!("director_chaos: recovered run DIVERGED from the unkilled baseline");
        ExitCode::FAILURE
    }
}
