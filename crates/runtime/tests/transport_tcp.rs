//! Backend-equivalence suite for the transport seam: the same job on
//! the same seed must produce the same training run whether gradients
//! travel through the in-process discrete-event backend
//! ([`TransportKind::Sim`]) or over real loopback sockets
//! ([`TransportKind::Tcp`]) — bit-identical models, identical fault
//! verdicts, and (on healthy runs) exactly conserved wire accounting:
//! every frame and byte sent is received.

use cosmic_ml::{data, Aggregation, Algorithm};
use cosmic_runtime::{
    counters, ClusterConfig, ClusterTrainer, FaultPlan, FaultRates, LinkConfig, MembershipMode,
    TraceSink, TrainOutcome, TransportKind,
};

fn bits(model: &[f64]) -> Vec<u64> {
    model.iter().map(|v| v.to_bits()).collect()
}

/// One traced run on the given backend and fault plan.
fn run(transport: TransportKind, faults: FaultPlan, seed: u64) -> (TrainOutcome, TraceSink) {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 96, seed);
    let init = data::init_model(&alg, seed ^ 3);
    let sink = TraceSink::new();
    let out = ClusterTrainer::new(ClusterConfig {
        nodes: 4,
        groups: 2,
        threads_per_node: 1,
        minibatch: 24,
        learning_rate: 0.1,
        epochs: 2,
        aggregation: Aggregation::Average,
        membership: MembershipMode::Detector,
        transport,
        link: LinkConfig { read_timeout_ms: 2_000, ..LinkConfig::default() },
        faults,
        ..ClusterConfig::default()
    })
    .expect("valid config")
    .train_traced(&alg, &ds, init, &sink)
    .expect("run survives");
    (out, sink)
}

fn counter(sink: &TraceSink, name: &str) -> f64 {
    sink.sums().get(name).copied().unwrap_or(0.0)
}

/// Healthy run: TCP and sim produce bit-identical outcomes, and the
/// TCP wire accounting conserves — frames/bytes sent equal frames/bytes
/// received, no reconnects, no dead links.
#[test]
fn healthy_tcp_matches_sim_bit_for_bit_and_conserves() {
    let (sim, sim_sink) = run(TransportKind::Sim, FaultPlan::none(), 42);
    let (tcp, tcp_sink) = run(TransportKind::Tcp, FaultPlan::none(), 42);

    assert_eq!(bits(&sim.model), bits(&tcp.model), "models must match bitwise");
    assert_eq!(sim, tcp, "outcomes must be identical across backends");

    // The sim backend books no transport counters at all — that is
    // what keeps the pre-seam golden traces byte-identical.
    let sim_sums = sim_sink.sums();
    assert!(
        !sim_sums.keys().any(|k| k.starts_with("transport.")),
        "sim backend must not book transport counters: {sim_sums:?}"
    );

    // The TCP backend conserves exactly on a healthy wire.
    let sent = counter(&tcp_sink, counters::TRANSPORT_FRAMES_SENT);
    let received = counter(&tcp_sink, counters::TRANSPORT_FRAMES_RECEIVED);
    assert!(sent > 0.0, "a TCP run must move frames");
    assert_eq!(sent, received, "frame conservation");
    assert_eq!(
        counter(&tcp_sink, counters::TRANSPORT_BYTES_SENT),
        counter(&tcp_sink, counters::TRANSPORT_BYTES_RECEIVED),
        "byte conservation"
    );
    assert!(counter(&tcp_sink, counters::TRANSPORT_HEARTBEATS) > 0.0);
    assert_eq!(counter(&tcp_sink, counters::TRANSPORT_RECONNECTS), 0.0);
    assert_eq!(counter(&tcp_sink, counters::TRANSPORT_LINKS_DEAD), 0.0);
    // Links outlive the round: four nodes, four connections, all run.
    assert_eq!(counter(&tcp_sink, counters::TRANSPORT_CONNECTIONS), 4.0);
}

/// Chunk-level fault plans (the kinds the sim backend also understands)
/// produce the identical outcome on both backends: corruption is
/// quarantined and duplicates deduplicated the same way regardless of
/// whether the chunk crossed a channel or a socket.
#[test]
fn chunk_faults_verdicts_match_across_backends() {
    let rates = FaultRates {
        corrupt_chunk: 0.08,
        duplicate_chunk: 0.08,
        straggle: 0.1,
        straggle_factor: 2.0,
        ..FaultRates::default()
    };
    for seed in [5, 23] {
        let plan = FaultPlan::random(seed, 4, 8, 4, &rates);
        let (sim, _) = run(TransportKind::Sim, plan.clone(), seed);
        let (tcp, _) = run(TransportKind::Tcp, plan, seed);
        assert_eq!(bits(&sim.model), bits(&tcp.model), "seed {seed}: models");
        assert_eq!(sim, tcp, "seed {seed}: outcomes");
    }
}

/// Wire-level faults — severed connections and corrupted frames — are
/// absorbed by the supervisor's retransmission: the model still matches
/// the sim backend bit for bit (the wire kinds are no-ops there), and
/// the reconnect counter proves the faults actually fired.
#[test]
fn wire_faults_are_healed_by_retransmission() {
    let rates = FaultRates { sever_link: 0.15, corrupt_frame: 0.15, ..FaultRates::default() };
    let seed = 77;
    let plan = FaultPlan::random(seed, 4, 8, 4, &rates);
    let sampled = (0..4).any(|n| (0..8).any(|i| plan.has_wire_faults(n, i)));
    assert!(sampled, "the plan must sample wire faults at these rates");
    let (sim, _) = run(TransportKind::Sim, plan.clone(), seed);
    let (tcp, tcp_sink) = run(TransportKind::Tcp, plan, seed);

    assert_eq!(
        bits(&sim.model),
        bits(&tcp.model),
        "retransmission must deliver every chunk: models identical"
    );
    assert_eq!(sim, tcp, "wire faults must be invisible to the training outcome");
    assert!(
        counter(&tcp_sink, counters::TRANSPORT_RECONNECTS) > 0.0,
        "the injected severs/corruptions must have forced reconnects"
    );
    assert_eq!(
        counter(&tcp_sink, counters::TRANSPORT_LINKS_DEAD),
        0.0,
        "transient wire faults must never escalate to a dead link"
    );
    // Every reconnect replaced one of the four links' connections (one
    // that died before completing a stream was never booked).
    let extra = counter(&tcp_sink, counters::TRANSPORT_CONNECTIONS) - 4.0;
    assert!(
        extra > 0.0 && extra <= counter(&tcp_sink, counters::TRANSPORT_RECONNECTS),
        "{extra} connections beyond the four links"
    );
}

/// The TCP backend is itself deterministic given a seed: repeated runs
/// export byte-identical metrics for everything except wall-clock-free
/// transport accounting — and the model is always bit-identical.
#[test]
fn tcp_runs_are_reproducible() {
    let rates = FaultRates { sever_link: 0.1, ..FaultRates::default() };
    let plan = FaultPlan::random(9, 4, 8, 4, &rates);
    let (a, _) = run(TransportKind::Tcp, plan.clone(), 9);
    let (b, _) = run(TransportKind::Tcp, plan, 9);
    assert_eq!(bits(&a.model), bits(&b.model));
    assert_eq!(a, b);
}
