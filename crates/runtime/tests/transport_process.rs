//! End-to-end tests of the multi-process launcher: a coordinator and N
//! worker OS processes training over real loopback sockets.
//!
//! The robustness test is the ISSUE's headline scenario: SIGKILL one
//! worker mid-run and require the cluster to finish anyway — the
//! φ-accrual detector expels the silent node within its deadline
//! windows, the respawned process catches up through the
//! checkpoint/replay join handshake, and every surviving process ends
//! holding a bit-identical model (verified by checksums on the wire).

use std::process::Command;

use cosmic_runtime::transport::proc::JobSpec;
use cosmic_runtime::{model_checksum, ClusterTrainer, TraceSink};

/// Runs the launcher binary and returns its one-line JSON summary.
fn launch(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cosmic-launcher"))
        .args(args)
        .output()
        .expect("launcher spawns");
    assert!(
        out.status.success(),
        "launcher failed: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("summary is UTF-8").trim().to_string()
}

/// Pulls an integer field out of the flat summary JSON.
fn field(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let start = json.find(&key).unwrap_or_else(|| panic!("{name} missing in {json}")) + key.len();
    json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} not an integer in {json}"))
}

/// Healthy multi-process run: every worker process converges to the
/// coordinator's exact model, and the wire conserves frames and bytes.
#[test]
fn healthy_processes_end_bit_identical() {
    let json = launch(&[
        "--nodes",
        "3",
        "--iterations",
        "8",
        "--samples",
        "180",
        "--seed",
        "19",
        "--read-timeout-ms",
        "2000",
    ]);
    assert_eq!(field(&json, "iterations"), 8, "{json}");
    assert_eq!(field(&json, "workers_reported"), 3, "{json}");
    assert_eq!(field(&json, "workers_matched"), 3, "{json}");
    assert_eq!(field(&json, "links_dead"), 0, "{json}");
    // The summary books the coordinator's side of the wire: it reads
    // every worker stream (Hello/Heartbeat/Chunk/Done) and answers each
    // with a single reply frame, so received strictly dominates sent.
    assert!(field(&json, "frames_sent") > 0, "{json}");
    assert!(field(&json, "frames_received") > field(&json, "frames_sent"), "{json}");
    assert!(field(&json, "heartbeats") > 0, "{json}");
    assert!(json.contains("\"kills\":[]"), "{json}");
    assert!(json.contains("\"expulsions\":[]"), "{json}");
}

/// The launcher's oracle: one trainer, two deployments. A healthy job
/// trains exactly what the in-process engine trains on the job's config
/// — loopback TCP, φ-accrual membership — with its compute on threads:
/// the same model bits, and byte for byte the same trace and metrics.
#[test]
fn a_healthy_job_is_the_in_process_tcp_run() {
    let dir = std::env::temp_dir().join(format!("cosmic-launcher-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("trace.json");
    let json = launch(&[
        "--nodes",
        "3",
        "--iterations",
        "9",
        "--samples",
        "181",
        "--seed",
        "23",
        "--trace",
        trace.to_str().expect("UTF-8 path"),
    ]);
    let spec = JobSpec { nodes: 3, iterations: 9, samples: 181, seed: 23, ..JobSpec::default() };
    let sink = TraceSink::new();
    let trainer = ClusterTrainer::new(spec.config()).expect("valid config");
    let out = trainer
        .train_traced(&spec.algorithm(), &spec.dataset(), spec.initial_model(), &sink)
        .expect("healthy run");
    let checksum = format!("\"final_checksum\":\"{:#018x}\"", model_checksum(&out.model));
    assert!(json.contains(&checksum), "model bits: {json} vs {checksum}");
    assert_eq!(field(&json, "iterations"), out.iterations as u64, "{json}");
    assert_eq!(field(&json, "workers_matched"), 3, "{json}");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("launcher export");
    assert!(read("trace.json") == sink.chrome_trace_json(), "trace.json differs");
    assert_eq!(read("metrics.json"), sink.metrics_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline scenario: SIGKILL worker 1 before iteration 2. The run
/// must still complete all iterations within its deadline windows, the
/// detector must expel the corpse, and the respawned process must
/// rejoin through checkpoint replay with a bit-identical model — then
/// finish the run matching the coordinator's final checksum.
#[test]
fn sigkill_mid_run_is_survived_and_rejoined_bit_identical() {
    let json = launch(&[
        "--nodes",
        "3",
        "--iterations",
        "14",
        "--samples",
        "180",
        "--seed",
        "19",
        "--kill",
        "1:2",
        "--read-timeout-ms",
        "700",
    ]);
    assert_eq!(field(&json, "iterations"), 14, "run must complete: {json}");
    assert!(json.contains("\"kills\":[[1,2]]"), "the kill must land: {json}");
    assert!(json.contains("\"expulsions\":[[1,"), "node 1 must be expelled: {json}");
    assert!(
        json.contains("\"rejoins\":[[1,") && json.contains(",true]]"),
        "node 1 must rejoin via checkpoint replay with a matching checksum: {json}"
    );
    assert!(field(&json, "links_dead") >= 1, "the dead link must be booked: {json}");
    // All three processes — including the respawned one — report final
    // models bit-identical to the coordinator's.
    assert_eq!(field(&json, "workers_reported"), 3, "{json}");
    assert_eq!(field(&json, "workers_matched"), 3, "{json}");
}
