//! Full-stack transport equivalence, driven through the `cosmic`
//! facade: switching the engine's wire from the in-process
//! discrete-event backend to real loopback TCP sockets must change
//! nothing about the training run — the model is bit-identical, the
//! fault verdicts agree, and the socket backend's own accounting
//! conserves (every frame and byte it sends is received). This is the
//! cross-check CI pins to a fixed seed.

use cosmic::cosmic_ml::{data, Aggregation, Algorithm};
use cosmic::cosmic_runtime::transport::{RoundDelivery, Transport};
use cosmic::cosmic_runtime::{
    counters, ClusterConfig, ClusterTrainer, FaultPlan, FaultRates, MembershipMode, TraceSink,
    TrainOutcome, TransportKind, WireRepr,
};
use std::collections::BTreeMap;

const SEED: u64 = 2017; // the paper's year — the CI job pins this seed

fn run(transport: TransportKind, faults: FaultPlan) -> (TrainOutcome, BTreeMap<String, f64>) {
    let alg = Algorithm::LogisticRegression { features: 8 };
    let ds = data::generate(&alg, 192, SEED);
    let init = data::init_model(&alg, SEED ^ 5);
    let sink = TraceSink::new();
    let out = ClusterTrainer::new(ClusterConfig {
        nodes: 5,
        groups: 2,
        threads_per_node: 2,
        minibatch: 32,
        learning_rate: 0.2,
        epochs: 2,
        aggregation: Aggregation::Average,
        membership: MembershipMode::Detector,
        transport,
        faults,
        ..ClusterConfig::default()
    })
    .expect("valid config")
    .train_traced(&alg, &ds, init, &sink)
    .expect("run survives");
    (out, sink.sums())
}

fn bits(model: &[f64]) -> Vec<u64> {
    model.iter().map(|v| v.to_bits()).collect()
}

/// The fixed-seed cross-check: healthy sim and TCP runs are identical,
/// and the TCP wire conserves exactly.
#[test]
fn sim_and_tcp_agree_on_the_pinned_seed() {
    let (sim, sim_sums) = run(TransportKind::Sim, FaultPlan::none());
    let (tcp, tcp_sums) = run(TransportKind::Tcp, FaultPlan::none());

    assert_eq!(bits(&sim.model), bits(&tcp.model), "models must be bit-identical");
    assert_eq!(sim, tcp, "outcomes must be identical");
    assert!(sim.faults.is_clean() && tcp.faults.is_clean());

    let get = |sums: &BTreeMap<String, f64>, k: &str| sums.get(k).copied().unwrap_or(0.0);
    assert!(
        !sim_sums.keys().any(|k| k.starts_with("transport.")),
        "the sim backend books no wire accounting (golden traces depend on it)"
    );
    let sent = get(&tcp_sums, counters::TRANSPORT_FRAMES_SENT);
    assert!(sent > 0.0);
    assert_eq!(sent, get(&tcp_sums, counters::TRANSPORT_FRAMES_RECEIVED));
    assert_eq!(
        get(&tcp_sums, counters::TRANSPORT_BYTES_SENT),
        get(&tcp_sums, counters::TRANSPORT_BYTES_RECEIVED)
    );
    assert_eq!(get(&tcp_sums, counters::TRANSPORT_LINKS_DEAD), 0.0);
    // Links outlive the round: every round of the run rode the five
    // connections the first one dialled.
    assert_eq!(get(&tcp_sums, counters::TRANSPORT_CONNECTIONS), 5.0);
    assert_eq!(get(&tcp_sums, counters::TRANSPORT_RECONNECTS), 0.0);
}

/// Under a faulty plan the two backends still agree verdict for
/// verdict: chunk corruption, duplication, and crash/rejoin churn are
/// adjudicated identically whether delivered over channels or sockets.
#[test]
fn faulty_plans_are_adjudicated_identically() {
    let rates = FaultRates {
        crash: 0.03,
        straggle: 0.1,
        straggle_factor: 2.0,
        corrupt_chunk: 0.05,
        duplicate_chunk: 0.05,
        rejoin_after: 3,
        ..FaultRates::default()
    };
    let plan = FaultPlan::random(SEED, 5, 12, 4, &rates);
    let (sim, _) = run(TransportKind::Sim, plan.clone());
    let (tcp, _) = run(TransportKind::Tcp, plan);
    assert_eq!(bits(&sim.model), bits(&tcp.model));
    assert_eq!(sim, tcp, "fault adjudication must not depend on the wire");
}

/// Seeded partials for `senders` peers.
fn partials(senders: usize, words: usize) -> Vec<Vec<f64>> {
    (0..senders)
        .map(|s| (0..words).map(|i| ((i * 31 + s * 7) % 997) as f64 / 997.0).collect())
        .collect()
}

/// One dense round of `parts_data` (peer *i* sends partial *i*) driven
/// straight through a transport, iteration 0, under `plan`.
fn direct_round(
    transport: &dyn Transport,
    plan: &FaultPlan,
    parts_data: &[Vec<f64>],
) -> RoundDelivery {
    round_under(WireRepr::DenseF64, transport, plan, parts_data)
}

/// [`direct_round`] under any wire representation.
fn round_under(
    repr: WireRepr,
    transport: &dyn Transport,
    plan: &FaultPlan,
    parts_data: &[Vec<f64>],
) -> RoundDelivery {
    use cosmic::cosmic_runtime::transport::RoundCtx;
    use cosmic::cosmic_runtime::{RetryPolicy, SigmaAggregator};

    let parts: Vec<Option<&[f64]>> = parts_data.iter().map(|p| Some(p.as_slice())).collect();
    let senders: Vec<usize> = (0..parts_data.len()).collect();
    let retry = RetryPolicy::default();
    let ctx = RoundCtx {
        iteration: 0,
        model_len: parts_data[0].len(),
        plan,
        retry: &retry,
        senders: &senders,
        repr,
    };
    transport.round(&ctx, &SigmaAggregator::new(2, 2), &parts).expect("the round survives")
}

/// The zero-copy accounting check: drive one healthy `TcpTransport`
/// round directly and require its wire accounting to equal the exact
/// frame and byte counts computed from the wire constants. The chunk
/// payloads travel the socket path as shared-arena views now; if that
/// refactor ever dropped, duplicated, split, or re-padded a frame, the
/// closed-form numbers below would move.
#[test]
fn tcp_round_conserves_exact_frame_and_byte_counts() {
    use cosmic::cosmic_runtime::transport::wire::{CHECKSUM_BYTES, HEADER_BYTES};
    use cosmic::cosmic_runtime::transport::TcpTransport;
    use cosmic::cosmic_runtime::{LinkConfig, CHUNK_WORDS};

    const SENDERS: usize = 4;
    const WORDS: usize = 2 * CHUNK_WORDS + 17; // three chunks, ragged tail

    let parts_data = partials(SENDERS, WORDS);
    let transport = TcpTransport::bind(LinkConfig::default()).expect("loopback bind");
    let delivery = direct_round(&transport, &FaultPlan::none(), &parts_data);
    // The fold itself is the reference sum (zero-copy moved bytes, not
    // arithmetic).
    let mut expected_sum = vec![0.0f64; WORDS];
    for part in &parts_data {
        for (acc, v) in expected_sum.iter_mut().zip(part) {
            *acc += v;
        }
    }
    assert_eq!(bits(&delivery.outcome.sum), bits(&expected_sum));
    assert!(delivery.dead.is_empty());
    assert!(delivery.outcome.quarantined.is_empty());

    // Closed-form wire accounting. Per healthy sender connection:
    // Hello + Heartbeat + one frame per chunk + Done go one way, one
    // Ack comes back — and every frame is HEADER + 8 bytes per payload
    // word + trailing checksum.
    let chunks = WORDS.div_ceil(CHUNK_WORDS) as u64;
    let control_len = (HEADER_BYTES + CHECKSUM_BYTES) as u64;
    let frames_each_way = 3 + chunks + 1; // +1 = the Ack reply
    let bytes_each_way = frames_each_way * control_len + 8 * WORDS as u64;
    let s = delivery.stats;
    assert_eq!(s.frames_sent, SENDERS as u64 * frames_each_way, "frames sent");
    assert_eq!(s.frames_received, s.frames_sent, "frame conservation");
    assert_eq!(s.bytes_sent, SENDERS as u64 * bytes_each_way, "bytes sent");
    assert_eq!(s.bytes_received, s.bytes_sent, "byte conservation");
    assert_eq!(s.heartbeats, SENDERS as u64, "one heartbeat per connection");
    assert_eq!(s.reconnects, 0);
    assert_eq!(s.links_dead, 0);
    assert_eq!(s.connections, SENDERS as u64, "one connection per link");
}

/// A fault deep in the model — chunk 2 of four, not the first — is
/// still handed to the layer that owns it: a stale *chunk* checksum
/// rides a well-formed frame into Sigma quarantine on either wire, a
/// damaged *frame* is refused by the socket's decoder and retransmitted,
/// and the fold over whoever survives is the reference fold.
#[test]
fn a_corrupt_chunk_is_quarantined_and_a_corrupt_frame_retransmitted() {
    use cosmic::cosmic_runtime::fold::fold_parts_reference;
    use cosmic::cosmic_runtime::node::ChunkFault;
    use cosmic::cosmic_runtime::transport::{SimTransport, TcpTransport};
    use cosmic::cosmic_runtime::{LinkConfig, CHUNK_WORDS};

    const WORDS: usize = 3 * CHUNK_WORDS + 17; // four chunks, ragged tail
    let parts_data = partials(4, WORDS);
    let reference = |survivors: &[usize]| {
        let parts: Vec<&[f64]> = survivors.iter().map(|&s| parts_data[s].as_slice()).collect();
        let mut sum = vec![0.0f64; WORDS];
        fold_parts_reference(&mut sum, &parts);
        bits(&sum)
    };
    let tcp = TcpTransport::bind(LinkConfig::default()).expect("loopback bind");

    let chunk_fault = FaultPlan::none().corrupt_chunk(1, 0, 2);
    for transport in [&SimTransport as &dyn Transport, &tcp] {
        let delivery = direct_round(transport, &chunk_fault, &parts_data);
        assert_eq!(
            delivery.outcome.quarantined,
            [(1, ChunkFault::Corrupt { offset: 2 * CHUNK_WORDS })],
            "{:?}",
            transport.kind()
        );
        assert_eq!(bits(&delivery.outcome.sum), reference(&[0, 2, 3]));
        assert!(delivery.dead.is_empty());
        assert_eq!(delivery.stats.reconnects, 0, "a valid frame is not retransmitted");
    }

    let frame_fault = FaultPlan::none().corrupt_frame(1, 0, 2);
    let delivery = direct_round(&tcp, &frame_fault, &parts_data);
    assert!(delivery.outcome.quarantined.is_empty() && delivery.dead.is_empty());
    assert_eq!(delivery.stats.reconnects, 1, "the damaged frame costs one retransmission");
    assert_eq!(bits(&delivery.outcome.sum), reference(&[0, 1, 2, 3]));
}

/// The same four faults under `fixed_point:20`, where the chunks on
/// both wires are grids: Sim and Tcp agree on the verdict, on the
/// duplicate count and — bit for bit — on the sum, which is the float
/// fold of the survivors' `transform`ed partials (the oracle an exact
/// integer fold must meet); a chunk fault costs no reconnect, a wire
/// fault exactly one; and a lossy frame is still the size
/// `payload_bytes` prices.
#[test]
fn lossy_rounds_are_adjudicated_identically_on_both_wires() {
    use cosmic::cosmic_runtime::fold::fold_parts_reference;
    use cosmic::cosmic_runtime::node::ChunkFault;
    use cosmic::cosmic_runtime::transport::wire::{CHECKSUM_BYTES, HEADER_BYTES};
    use cosmic::cosmic_runtime::transport::{SimTransport, TcpTransport};
    use cosmic::cosmic_runtime::{LinkConfig, CHUNK_WORDS};

    const WORDS: usize = 3 * CHUNK_WORDS + 17; // four chunks, ragged tail
    let repr = WireRepr::FixedPoint { frac_bits: 20 };
    let parts_data = partials(4, WORDS);
    let oracle = |survivors: &[usize]| {
        let decoded: Vec<Vec<f64>> =
            survivors.iter().map(|&s| repr.transform(&parts_data[s]).0).collect();
        let parts: Vec<&[f64]> = decoded.iter().map(Vec::as_slice).collect();
        let mut sum = vec![0.0f64; WORDS];
        fold_parts_reference(&mut sum, &parts);
        bits(&sum)
    };
    let tcp = TcpTransport::bind(LinkConfig::default()).expect("loopback bind");
    let none = FaultPlan::none;
    // (plan, quarantined peer and verdict, duplicates, Tcp reconnects)
    let cases = [
        (none(), None, 0, 0),
        (
            none().corrupt_chunk(1, 0, 2),
            Some((1, ChunkFault::Corrupt { offset: 2 * CHUNK_WORDS })),
            0,
            0,
        ),
        (none().duplicate_chunk(2, 0, 1), None, 1, 0),
        (none().corrupt_frame(1, 0, 2), None, 0, 1),
        (none().sever_link(3, 0, 1), None, 0, 1),
    ];
    for (plan, quarantined, duplicates, reconnects) in cases {
        let sim = round_under(repr, &SimTransport, &plan, &parts_data);
        let wire = round_under(repr, &tcp, &plan, &parts_data);
        let survivors: Vec<usize> =
            (0..4).filter(|&p| quarantined.is_none_or(|(bad, _)| bad != p)).collect();
        for (delivery, reconnects) in [(&sim, 0), (&wire, reconnects)] {
            assert_eq!(delivery.outcome.quarantined, Vec::from_iter(quarantined), "{plan:?}");
            assert_eq!(delivery.outcome.duplicates_dropped, duplicates, "{plan:?}");
            assert_eq!(bits(&delivery.outcome.sum), oracle(&survivors), "{plan:?}");
            assert_eq!(delivery.stats.reconnects, reconnects, "{plan:?}");
            assert!(delivery.dead.is_empty());
            assert_eq!(delivery.codec.wire_bytes, (4 * repr.payload_bytes(WORDS)) as u64);
            assert_eq!(delivery.codec.dense_bytes, (4 * 8 * WORDS) as u64, "booked once");
        }
        if reconnects + duplicates as u64 == 0 {
            // Hello + Heartbeat + four chunk frames + Done, and the Ack
            // back; a chunk frame carries the chunk's sum, the codec
            // header and two values to a word.
            let control = (HEADER_BYTES + CHECKSUM_BYTES) as u64;
            let grid_words = |w: usize| (2 + w.div_ceil(2)) as u64;
            let payload = 8 * (3 * grid_words(CHUNK_WORDS) + grid_words(17));
            assert_eq!(wire.stats.frames_sent, 4 * 8);
            assert_eq!(wire.stats.bytes_sent, 4 * (8 * control + payload));
            assert_eq!(wire.stats.bytes_received, wire.stats.bytes_sent);
        }
    }
}
