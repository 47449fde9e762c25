//! End-to-end contract of the representation-aware payload pipeline:
//! lossy wire representations are deterministic per seed, agree across
//! every collective strategy and both transports, book `codec.*`
//! telemetry — and the dense default books none of it.

use cosmic::cosmic_director::journal::fnv1a;
use cosmic::cosmic_ml::{data, Aggregation, Algorithm};
use cosmic::cosmic_runtime::checkpoint::model_checksum;
use cosmic::cosmic_runtime::collectives::{CollectiveKind, WireRepr};
use cosmic::cosmic_runtime::{ClusterConfig, ClusterTrainer, TransportKind};
use cosmic::cosmic_telemetry::TraceSink;

fn config(repr: WireRepr) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        groups: 2,
        threads_per_node: 2,
        minibatch: 240,
        learning_rate: 0.15,
        epochs: 2,
        aggregation: Aggregation::Average,
        repr,
        ..ClusterConfig::default()
    }
}

fn train_model(cfg: ClusterConfig) -> Vec<u64> {
    let alg = Algorithm::LogisticRegression { features: 6 };
    let ds = data::generate(&alg, 960, 13);
    let init = data::init_model(&alg, 4);
    let trainer = ClusterTrainer::new(cfg).expect("valid config");
    let out = trainer.train(&alg, &ds, init).expect("healthy run");
    out.model.iter().map(|v| v.to_bits()).collect()
}

/// The collective strategy decides the wire pattern, never the
/// arithmetic — and the codec applies where a partial is chunked, once,
/// so the guarantee survives compression: same repr + same seed must give
/// the same bits under all five strategies.
#[test]
fn fixed_point_models_are_bit_identical_across_all_five_strategies() {
    for repr in [WireRepr::FixedPoint { frac_bits: 20 }, WireRepr::TopK { k: 8 }] {
        let reference =
            train_model(ClusterConfig { collective: CollectiveKind::ALL[0], ..config(repr) });
        for kind in &CollectiveKind::ALL[1..] {
            let got = train_model(ClusterConfig { collective: *kind, ..config(repr) });
            assert_eq!(got, reference, "{kind} under {repr} must match {}", CollectiveKind::ALL[0]);
        }
    }
}

/// Both backends send exactly `RoundCtx::wire_chunks` — a grid chunk
/// verbatim, a sparse one losslessly — so the discrete-event channels
/// and the supervised TCP sockets deliver bit-identical models even for
/// lossy representations.
#[test]
fn lossy_training_is_bit_identical_across_sim_and_tcp() {
    let repr = WireRepr::FixedPoint { frac_bits: 20 };
    let sim = train_model(ClusterConfig { transport: TransportKind::Sim, ..config(repr) });
    let tcp = train_model(ClusterConfig { transport: TransportKind::Tcp, ..config(repr) });
    assert_eq!(sim, tcp);
}

/// Lossy runs are reproducible end to end, and quantization stays close
/// enough to the dense model for the run to remain a faithful training:
/// every weight within the grid's analytic round-off envelope.
#[test]
fn lossy_runs_are_deterministic_and_near_the_dense_model() {
    let repr = WireRepr::FixedPoint { frac_bits: 24 };
    let a = train_model(config(repr));
    let b = train_model(config(repr));
    assert_eq!(a, b, "same repr + seed must reproduce bitwise");

    let dense = train_model(config(WireRepr::DenseF64));
    for (i, (&qa, &da)) in a.iter().zip(&dense).enumerate() {
        let (q, d) = (f64::from_bits(qa), f64::from_bits(da));
        assert!((q - d).abs() < 1e-3, "weight {i}: {q} vs {d}");
    }
}

/// The `codec.*` counters book compressed traffic on lossy runs and
/// stay entirely absent from dense runs — the telemetry half of the
/// zero-re-bless contract.
#[test]
fn codec_counters_book_only_on_lossy_runs() {
    let alg = Algorithm::LogisticRegression { features: 6 };
    let ds = data::generate(&alg, 960, 13);
    let init = data::init_model(&alg, 4);

    let metrics = |repr: WireRepr| {
        let sink = TraceSink::new();
        let trainer = ClusterTrainer::new(config(repr)).expect("valid config");
        trainer.train_traced(&alg, &ds, init.clone(), &sink).expect("healthy run");
        sink.metrics_json()
    };

    let dense = metrics(WireRepr::DenseF64);
    assert!(!dense.contains("codec."), "dense runs must not book codec counters: {dense}");

    let lossy = metrics(WireRepr::TopK { k: 8 });
    for counter in ["codec.bytes.dense", "codec.bytes.wire", "codec.coords.dropped"] {
        assert!(lossy.contains(counter), "lossy run must book {counter}");
    }
}

/// `model_checksum` of the trained model and FNV-1a of `metrics.json`
/// for one traced run of `alg` on `records` seeded records.
fn fingerprint(alg: &Algorithm, records: usize, cfg: ClusterConfig) -> (u64, u64) {
    let ds = data::generate(alg, records, 13);
    let init = data::init_model(alg, 4);
    let sink = TraceSink::new();
    let trainer = ClusterTrainer::new(cfg).expect("valid config");
    let out = trainer.train_traced(alg, &ds, init, &sink).expect("healthy run");
    (model_checksum(&out.model), fnv1a(sink.metrics_json().as_bytes()))
}

/// Model bits and every booked counter (`codec.*`; on Tcp the frames,
/// bytes and reconnects of every round) of lossy runs, as the commit
/// *before* the fixed-point path became quantize-once / ship-the-grid /
/// fold-integers printed them. That path is bit-identical to the
/// float-on-grid route it replaced wherever DESIGN §17's exactness
/// condition holds; these literals are the assertion. They were not
/// re-blessed when the path changed and must not be for a change that
/// claims to keep the arithmetic. The metrics literals were re-pinned
/// once, when Sigma went from two pool jobs per peer stream to one:
/// each `metrics.json` differs from the one before only in its
/// `pool.jobs` line (64 → 32); the model literals did not move.
#[test]
fn lossy_runs_reproduce_the_pinned_model_bits_and_metrics() {
    use TransportKind::{Sim, Tcp};
    let small = Algorithm::LogisticRegression { features: 6 };
    for (spelling, transport, model, metrics) in [
        ("fixed_point:20", Sim, 0xea9e_105a_e9f9_fb7f_u64, 0x2fc0_0334_93b0_92c1_u64),
        ("fixed_point:20", Tcp, 0xea9e_105a_e9f9_fb7f, 0x3199_d288_b37d_1761),
        ("fixed_point:24", Sim, 0x84f4_6bf7_d722_e19b, 0x2fc0_0334_93b0_92c1),
        ("top_k:8", Sim, 0x07b8_9a3a_94b0_859e, 0xb447_c961_34d0_3140),
        ("top_k:8", Tcp, 0x07b8_9a3a_94b0_859e, 0xa938_5aef_34da_a930),
    ] {
        let repr = WireRepr::parse(spelling).expect("a repr spelling");
        let got = fingerprint(&small, 960, ClusterConfig { transport, ..config(repr) });
        assert_eq!(got, (model, metrics), "{spelling} over {transport:?}");
    }
    // Three chunks a partial, the last one ragged.
    let wide = Algorithm::LinearRegression { features: 9000 };
    for (spelling, transport, model, metrics) in [
        ("fixed_point:8", Sim, 0x8578_2a98_cc56_2cd7_u64, 0x28bf_38f5_e12b_35df_u64),
        ("fixed_point:20", Sim, 0x61b4_6a7c_cf63_d765, 0x28bf_38f5_e12b_35df),
        ("fixed_point:20", Tcp, 0x61b4_6a7c_cf63_d765, 0x246a_ec72_7f4d_85eb),
        ("fixed_point:40", Sim, 0x52b3_76c0_a651_4430, 0x28bf_38f5_e12b_35df),
    ] {
        let repr = WireRepr::parse(spelling).expect("a repr spelling");
        let cfg = ClusterConfig { transport, minibatch: 16, ..config(repr) };
        assert_eq!(fingerprint(&wide, 64, cfg), (model, metrics), "{spelling} over {transport:?}");
    }
}
