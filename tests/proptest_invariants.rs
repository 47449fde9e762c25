//! Property-based tests over the core invariants of the stack.

use cosmic::cosmic_arch::{Geometry, Machine};
use cosmic::cosmic_compiler::{compile, CompileOptions, MappingStrategy};
use cosmic::cosmic_dfg::{analysis, interp, lower, DfgBuilder, DimEnv, OpKind};
use cosmic::cosmic_dsl::{self, programs};
use cosmic::cosmic_ml::{data, sgd, Aggregation, Algorithm};
use cosmic::cosmic_runtime::node::{chunk_vector, SigmaAggregator};
use cosmic::cosmic_runtime::{
    CircularBuffer, ClusterConfig, ClusterTrainer, MembershipMode, CHUNK_WORDS,
};
use cosmic::cosmic_telemetry::{Layer, TraceSink};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// The DSL front end never panics, whatever text it is fed — it
    /// either parses or returns a diagnostic. The text is mostly
    /// printable ASCII, so the grammar gets exercised, with any `char`
    /// mixed in.
    #[test]
    fn parser_never_panics(words in prop::collection::vec(any::<u32>(), 0..513)) {
        let src: String = words
            .iter()
            .map(|&w| match w % 6 {
                0 => char::from_u32((w >> 3) % 0x11_0000).unwrap_or(char::REPLACEMENT_CHARACTER),
                1 => '\n',
                _ => char::from(b' ' + (w >> 3) as u8 % 95),
            })
            .collect();
        let _ = cosmic_dsl::parse(&src);
    }

    /// The Translator is total over the five families: any dimensions,
    /// those past the 32-bit slot space included, lower to a graph or to a
    /// `LowerError`, never to a panic.
    #[test]
    fn lower_never_panics(family in 0usize..5, words in prop::collection::vec(any::<u64>(), 3..4)) {
        let dims: Vec<usize> = words
            .iter()
            .map(|&w| if w % 8 == 0 { (1usize << 32) + (w >> 8) as usize } else { (w % 65) as usize })
            .collect();
        let name = ["linreg", "logreg", "svm", "backprop", "cf"][family];
        let program = cosmic_dsl::parse(&programs::by_name(name, 64).unwrap()).unwrap();
        let env =
            DimEnv::new().with("n", dims[0]).with("h", dims[1]).with("o", dims[2]).with("k", dims[0]);
        if let Ok(dfg) = lower(&program, &env) {
            prop_assert_eq!(dfg.gradient_len(), dfg.model_len());
        }
    }

    /// Balanced reduction trees compute exactly the serial sum (floats
    /// here are small integers, so association cannot change the value).
    #[test]
    fn reduction_tree_equals_serial_sum(values in prop::collection::vec(-100i32..100, 1..64)) {
        let mut b = DfgBuilder::new();
        let leaves: Vec<_> = (0..values.len()).map(|i| b.data(i as u32)).collect();
        let root = b.reduce(OpKind::Add, &leaves);
        b.set_gradient(0, root, 0);
        let dfg = b.finish(values.len(), 1);
        let record: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        let got = interp::evaluate(&dfg, &record, &[0.0; 1][..1.min(dfg.model_len())])[0];
        let want: f64 = record.iter().sum();
        prop_assert_eq!(got, want);
    }

    /// The schedule makespan is never below the critical path, whatever
    /// the problem size or geometry.
    #[test]
    fn makespan_respects_critical_path(
        n in 2usize..40,
        rows in 1usize..5,
        cols in 1usize..9,
    ) {
        let program = cosmic_dsl::parse(&programs::linear_regression(64)).unwrap();
        let dfg = lower(&program, &DimEnv::new().with("n", n)).unwrap();
        let geometry = Geometry::new(rows, cols);
        let compiled = compile(&dfg, geometry, &CompileOptions::default());
        prop_assert!(
            compiled.estimate.latency_cycles >= u64::from(analysis::critical_path(&dfg))
        );
        prop_assert!(compiled.estimate.cycles_per_record() >= 1);
    }

    /// The compiled program on the cycle-level machine equals the
    /// reference interpreter for arbitrary sizes, geometries, strategies,
    /// and input values.
    #[test]
    fn machine_equals_interpreter(
        n in 2usize..24,
        rows in 1usize..4,
        cols in 1usize..6,
        data_first in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let program = cosmic_dsl::parse(&programs::svm(64)).unwrap();
        let dfg = lower(&program, &DimEnv::new().with("n", n)).unwrap();
        let geometry = Geometry::new(rows, cols);
        let strategy =
            if data_first { MappingStrategy::DataFirst } else { MappingStrategy::OpFirst };
        let compiled = compile(&dfg, geometry, &CompileOptions { strategy, ..Default::default() });

        let mix = |i: usize, s: u64| (((i as u64 * 2654435761 + s) % 997) as f64 - 498.0) / 997.0;
        let record: Vec<f64> = (0..n + 1).map(|i| mix(i, seed)).collect();
        let model: Vec<f64> = (0..n).map(|i| mix(i, seed ^ 0xABCD)).collect();

        let expected = interp::evaluate(&dfg, &record, &model);
        let out = Machine::new(geometry, geometry.columns as f64)
            .run(&compiled.program, &record, &model)
            .unwrap();
        for (a, b) in out.gradients.iter().zip(&expected) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    /// Parallelized SGD with one worker is exactly sequential SGD.
    #[test]
    fn one_worker_parallel_sgd_is_sequential(
        records in 8usize..64,
        minibatch in 1usize..32,
        seed in 0u64..500,
    ) {
        let alg = Algorithm::LinearRegression { features: 4 };
        let ds = data::generate(&alg, records, seed);
        let init = data::init_model(&alg, seed ^ 7);

        let config = sgd::TrainConfig {
            learning_rate: 0.05,
            epochs: 1,
            minibatch,
            workers: 1,
            aggregation: Aggregation::Average,
        };
        let par = sgd::train_parallel(&alg, &ds, init.clone(), &config);

        let mut seq = init;
        for r in ds.records() {
            alg.sgd_update(r, &mut seq, 0.05);
        }
        for (a, b) in par.model.iter().zip(&seq) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Chunking a vector and reassembling the chunks is the identity.
    #[test]
    fn chunking_round_trips(len in 0usize..(3 * CHUNK_WORDS + 7)) {
        let v: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
        let chunks = chunk_vector(&v);
        let mut rebuilt = vec![0.0; len];
        for c in &chunks {
            prop_assert_eq!(c.offset % CHUNK_WORDS, 0);
            rebuilt[c.offset..c.offset + c.data.len()].copy_from_slice(&c.data);
        }
        prop_assert_eq!(rebuilt, v);
    }

    /// Dataset partitioning is a permutation-free, order-preserving cover.
    #[test]
    fn partition_is_exact_cover(records in 1usize..60, parts in 1usize..10) {
        let alg = Algorithm::Svm { features: 3 };
        let ds = data::generate(&alg, records, 1);
        let chunks = ds.partition(parts.min(records).max(1));
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, records);
        let max = chunks.iter().map(|c| c.len()).max().unwrap();
        let min = chunks.iter().map(|c| c.len()).min().unwrap();
        prop_assert!(max - min <= 1, "near-equal partitions: {}..{}", min, max);
    }

    /// Closing a circular buffer mid-stream never deadlocks — producers
    /// blocked on a full ring are released, the consumer drains what was
    /// accepted — and per-producer FIFO order survives the race: every
    /// producer's consumed items are exactly the prefix it managed to
    /// push, in order.
    #[test]
    fn circular_buffer_close_races_preserve_fifo(
        capacity in 1usize..5,
        producers in 1usize..4,
        per_producer in 1usize..40,
        close_after in 0usize..60,
    ) {
        let buf = Arc::new(CircularBuffer::<(usize, usize)>::with_capacity(capacity));
        let (pushed, consumed) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let buf = Arc::clone(&buf);
                    s.spawn(move || {
                        let mut ok = 0;
                        for seq in 0..per_producer {
                            if !buf.push((p, seq)) {
                                break;
                            }
                            ok += 1;
                        }
                        ok
                    })
                })
                .collect();
            // The consumer takes a bounded number of items, then closes
            // the ring under the producers (possibly while they are
            // blocked on a full ring) and drains the remainder.
            let consumer = {
                let buf = Arc::clone(&buf);
                s.spawn(move || {
                    let mut got = Vec::new();
                    // Capped by the total the producers will certainly
                    // deliver while the ring is open, so this phase
                    // cannot out-wait a finished producer set.
                    for _ in 0..close_after.min(producers * per_producer) {
                        match buf.pop() {
                            Some(item) => got.push(item),
                            None => break,
                        }
                    }
                    buf.close();
                    while let Some(item) = buf.pop() {
                        got.push(item);
                    }
                    got
                })
            };
            let pushed: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (pushed, consumer.join().unwrap())
        });
        for (p, &ok) in pushed.iter().enumerate() {
            let seqs: Vec<usize> =
                consumed.iter().filter(|(who, _)| *who == p).map(|&(_, s)| s).collect();
            let expect: Vec<usize> = (0..ok).collect();
            prop_assert_eq!(&seqs, &expect, "producer {} out of order or lossy", p);
        }
    }

    /// Quarantining a misbehaving peer is surgical: the validated
    /// aggregate with one corrupt peer equals — bit for bit — the
    /// aggregate over the remaining peers alone.
    #[test]
    fn quarantine_equals_aggregation_over_remaining_peers(
        peers in 2usize..6,
        model_len in 1usize..(CHUNK_WORDS + 300),
        bad in 0usize..6,
        seed in 0u64..1000,
    ) {
        use crossbeam::channel::unbounded;
        let bad = bad % peers;
        let mix = |p: usize, i: usize| {
            (((i as u64 * 2654435761 + p as u64 * 97 + seed) % 1009) as f64 - 504.0) / 127.0
        };
        let vectors: Vec<Vec<f64>> =
            (0..peers).map(|p| (0..model_len).map(|i| mix(p, i)).collect()).collect();

        let send_all = |honest_only: bool| {
            let sigma = SigmaAggregator::new(2, 2);
            let mut receivers = Vec::new();
            let mut txs = Vec::new();
            for p in 0..peers {
                if honest_only && p == bad {
                    continue;
                }
                let (tx, rx) = unbounded();
                receivers.push(rx);
                txs.push((p, tx));
            }
            for (p, tx) in txs {
                for (ci, chunk) in chunk_vector(&vectors[p]).into_iter().enumerate() {
                    let chunk = if !honest_only && p == bad && ci == 0 {
                        chunk.corrupted()
                    } else {
                        chunk
                    };
                    tx.send(chunk).unwrap();
                }
            }
            sigma.aggregate_validated(model_len, receivers)
        };

        let with_bad = send_all(false);
        let honest = send_all(true);
        prop_assert_eq!(with_bad.quarantined.len(), 1);
        prop_assert!(honest.quarantined.is_empty());
        prop_assert_eq!(with_bad.sum, honest.sum);
    }

    /// Arbitrary interleavings of span begin/end across worker threads
    /// always leave the sink with a well-formed tree: every span closed,
    /// every duration finite and non-negative, every parent earlier.
    #[test]
    fn span_interleavings_always_form_a_well_formed_tree(
        threads in 1usize..4,
        spans_per_thread in 1usize..16,
        seed in 0u64..1000,
    ) {
        let sink = TraceSink::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let sink = sink.clone();
                s.spawn(move || {
                    for i in 0..spans_per_thread {
                        let salt = seed.wrapping_add((t * 31 + i) as u64);
                        let outer = sink.span(Layer::Exec, "outer");
                        outer.arg("thread", &t.to_string());
                        if salt % 3 == 0 {
                            let _inner = sink.span(Layer::Net, "inner");
                            sink.advance(0.125);
                        }
                        if salt % 5 == 0 {
                            sink.span_closed(Layer::Retry, "measured", 0.0, 0.25);
                        }
                    }
                });
            }
        });
        prop_assert!(sink.validate_tree().is_ok(), "{:?}", sink.validate_tree());
        for span in sink.spans() {
            prop_assert!(span.dur.is_finite() && span.dur >= 0.0);
            if let Some(parent) = span.parent {
                prop_assert!(parent < sink.span_count());
            }
        }
    }

    /// Counter updates are commutative: two identical multi-threaded
    /// runs export byte-identical `metrics.json`, whatever the
    /// scheduling.
    #[test]
    fn threaded_counter_runs_export_identical_metrics(
        threads in 1usize..5,
        updates in 1usize..32,
        scale in 1u32..1000,
    ) {
        let run = || {
            let sink = TraceSink::new();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let sink = sink.clone();
                    s.spawn(move || {
                        for i in 0..updates {
                            sink.add("wire.bytes", (t * 7 + i) as f64 * f64::from(scale));
                            sink.record_max("peak", (t * i) as f64 / f64::from(scale));
                            sink.add_diagnostic("sched.noise", t as f64);
                        }
                    });
                }
            });
            sink.metrics_json()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(&a, &b, "same-seed metrics must be byte-identical");
        prop_assert!(!a.contains("sched.noise"), "diagnostics must stay out of exports");
    }

    /// Elastic membership: on a fault-free cluster the φ-accrual
    /// detector never suspects anyone at the default thresholds,
    /// whatever the topology or run length — and the detector-mode run
    /// is bit-identical to the oracle path, report and all.
    #[test]
    fn healthy_detector_never_suspects(
        nodes in 2usize..9,
        groups in 1usize..4,
        epochs in 1usize..4,
        seed in 0u64..200,
    ) {
        let groups = groups.min(nodes);
        let alg = Algorithm::LinearRegression { features: 4 };
        let ds = data::generate(&alg, 128, seed);
        let init = data::init_model(&alg, seed ^ 5);
        let run = |membership: MembershipMode| {
            ClusterTrainer::new(ClusterConfig {
                nodes,
                groups,
                threads_per_node: 1,
                minibatch: 32,
                learning_rate: 0.1,
                epochs,
                aggregation: Aggregation::Average,
                membership,
                ..ClusterConfig::default()
            })
            .expect("valid random config")
            .train(&alg, &ds, init.clone())
            .expect("healthy run")
        };
        let detector = run(MembershipMode::Detector);
        prop_assert!(
            detector.faults.suspicions.is_empty(),
            "false positives on a healthy cluster: {:?}",
            detector.faults.suspicions
        );
        prop_assert!(detector.faults.is_clean());
        prop_assert_eq!(detector, run(MembershipMode::Oracle));
    }

    /// Gradient descent direction: a small step along the analytic
    /// gradient never increases the loss for the convex families.
    #[test]
    fn gradient_points_uphill(seed in 0u64..300) {
        for alg in [
            Algorithm::LinearRegression { features: 5 },
            Algorithm::LogisticRegression { features: 5 },
        ] {
            let ds = data::generate(&alg, 1, seed);
            let record = &ds.records()[0];
            let model = data::init_model(&alg, seed ^ 3);
            let before = alg.loss(record, &model);
            let mut stepped = model.clone();
            alg.sgd_update(record, &mut stepped, 1e-4);
            let after = alg.loss(record, &stepped);
            prop_assert!(after <= before + 1e-9, "{}: {} -> {}", alg, before, after);
        }
    }
}
