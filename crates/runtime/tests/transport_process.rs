//! End-to-end tests of the multi-process launcher: a coordinator and N
//! worker OS processes training over real loopback sockets.
//!
//! The robustness tests SIGKILL one worker mid-run and require the
//! cluster to finish anyway: the φ-accrual detector expels the silent
//! node, the respawned process catches up through the checkpoint/replay
//! join handshake, and every surviving process ends holding a
//! bit-identical model (verified by checksums on the wire). The kill
//! lands at a reply boundary and no window waits on the corpse, so the
//! run is the in-process engine's under the matching fault plan, bit for
//! bit, whatever the read deadline.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

use cosmic_runtime::transport::proc::JobSpec;
use cosmic_runtime::{model_checksum, ClusterConfig, ClusterTrainer, FaultPlan, TraceSink};

/// Runs the launcher binary to its exit.
fn run_launcher(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosmic-launcher"))
        .args(args)
        .output()
        .expect("launcher spawns")
}

/// Runs the launcher binary and returns its one-line JSON summary.
fn launch(args: &[&str]) -> String {
    let out = run_launcher(args);
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
/// — the in-process wire, φ-accrual membership — with its compute on
/// threads: the same model bits, and byte for byte the same trace and
/// metrics.
#[test]
fn a_healthy_job_is_the_in_process_sim_run() {
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

/// The model the in-process engine trains on `spec.config()` under
/// `faults`, as the launcher prints its checksum.
fn in_process(spec: &JobSpec, faults: FaultPlan) -> String {
    let trainer =
        ClusterTrainer::new(ClusterConfig { faults, ..spec.config() }).expect("valid config");
    let out = trainer.train(&spec.algorithm(), &spec.dataset(), spec.initial_model()).expect("run");
    assert_eq!(out.iterations, spec.iterations);
    format!("\"final_checksum\":\"{:#018x}\"", model_checksum(&out.model))
}

/// CI's kill command (`JobSpec::default()` but 14 iterations), with
/// `kill` and a read deadline of `read_ms`.
fn kill_run(kill: &str, read_ms: &str) -> String {
    let args = ["--nodes", "3", "--iterations", "14", "--samples", "240", "--seed", "11"];
    let json = launch(&[&args[..], &["--kill", kill, "--read-timeout-ms", read_ms]].concat());
    assert!(json.contains(&format!("\"kills\":[[{}]]", kill.replace(':', ","))), "{json}");
    json
}

/// CI's kill command: SIGKILL worker 1 before iteration 2. The kill
/// lands at the reply boundary before round 2, so the worker sends
/// nothing for it, and no window waits on the corpse: the run is the
/// in-process engine's under `crash_then_rejoin(1, 2, 5)` — the detector
/// expels node 1 at iteration 7, where the respawned process rejoins
/// through checkpoint replay with a matching checksum — bit for bit. A
/// read deadline of a minute shows that no verdict waits on the clock:
/// the job takes well under one deadline. Other schedules, the Sigma's
/// node 0 among them, equal their in-process plans the same way.
#[test]
fn a_kill_run_is_the_in_process_crash_then_rejoin_run() {
    let spec = JobSpec { iterations: 14, ..JobSpec::default() };
    let start = Instant::now();
    let json = kill_run("1:2", "60000");
    assert!(start.elapsed() < Duration::from_secs(10), "waited on the clock: {json}");
    assert!(json.contains("\"expulsions\":[[1,7]]"), "{json}");
    assert!(json.contains("\"rejoins\":[[1,7,true]]"), "{json}");
    let oracle = in_process(&spec, FaultPlan::none().crash_then_rejoin(1, 2, 5));
    assert!(json.contains(&oracle), "model bits: {json} vs {oracle}");
    assert_eq!(field(&json, "iterations"), 14, "{json}");
    assert_eq!(field(&json, "links_dead"), 1, "{json}");
    // All three processes — the respawned one included — report final
    // models bit-identical to the coordinator's.
    assert_eq!(field(&json, "workers_reported"), 3, "{json}");
    assert_eq!(field(&json, "workers_matched"), 3, "{json}");
    // The same run at CI's short deadline prints the same line.
    assert_eq!(kill_run("1:2", "700"), json);
    for (node, at) in [(0, 3), (2, 5), (2, 1)] {
        let json = kill_run(&format!("{node}:{at}"), "60000");
        let key = format!("\"expulsions\":[[{node},");
        let rest = &json[json.find(&key).unwrap_or_else(|| panic!("{json}")) + key.len()..];
        let expelled: usize =
            rest.split(']').next().and_then(|e| e.parse().ok()).expect("an iteration");
        assert!(json.contains(&format!("\"rejoins\":[[{node},{expelled},true]]")), "{json}");
        let plan = FaultPlan::none().crash_then_rejoin(node, at, expelled - at);
        let oracle = in_process(&spec, plan);
        assert!(json.contains(&oracle), "kill {node}:{at}: {json} vs {oracle}");
        assert_eq!(field(&json, "workers_matched"), 3, "{json}");
    }
}

/// A kill whose expulsion would fall past the run: the corpse is never
/// expelled nor waited on, not even by the final report window, and the
/// model is the in-process engine's under a plain `crash(1, 9)`.
#[test]
fn a_kill_never_expelled_is_the_in_process_crash_run() {
    let spec = JobSpec { iterations: 14, ..JobSpec::default() };
    let json = kill_run("1:9", "60000");
    assert!(json.contains("\"expulsions\":[]"), "{json}");
    let oracle = in_process(&spec, FaultPlan::none().crash(1, 9));
    assert!(json.contains(&oracle), "model bits: {json} vs {oracle}");
    assert_eq!(field(&json, "workers_reported"), 2, "{json}");
    assert_eq!(field(&json, "workers_matched"), 2, "{json}");
}

/// A kill that cannot land — a node outside the job, or an iteration
/// with no reply boundary before it inside the run — is refused with
/// the ranges it must fall in, before any worker starts.
#[test]
fn a_kill_that_cannot_land_is_refused() {
    for kill in ["3:2", "1:0", "1:14"] {
        let out = run_launcher(&["--nodes", "3", "--iterations", "14", "--kill", kill]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--kill {kill} ran: {err}");
        assert!(err.contains("NODE in 0..3 and ITER in 1..14"), "--kill {kill}: {err}");
        assert!(out.stdout.is_empty(), "--kill {kill} printed a summary");
    }
}
