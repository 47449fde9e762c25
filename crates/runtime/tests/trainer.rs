//! Integration tests for the distributed trainer: convergence,
//! reference parity, fault tolerance, elastic membership, and trace
//! determinism — all through the public [`cosmic_runtime`] API.

use cosmic_ml::data;
use cosmic_ml::sgd::{train_parallel, TrainConfig};
use cosmic_ml::{Aggregation, Algorithm};
use cosmic_runtime::{
    counters, CheckpointConfig, ClusterConfig, ClusterTrainer, CollectiveKind, Exclusion,
    ExclusionReason, FaultPlan, MembershipMode, PartitionOutage, RetryPolicy, RuntimeError,
    TraceSink, TrainOutcome,
};

fn trainer(config: ClusterConfig) -> ClusterTrainer {
    ClusterTrainer::new(config).expect("valid test configuration")
}

#[test]
fn converges_on_every_algorithm_family() {
    let algs = [
        Algorithm::LinearRegression { features: 8 },
        Algorithm::LogisticRegression { features: 8 },
        Algorithm::Svm { features: 8 },
        Algorithm::Backprop { inputs: 5, hidden: 4, outputs: 2 },
        Algorithm::CollabFilter { users: 10, items: 10, factors: 3 },
    ];
    for alg in algs {
        let ds = data::generate(&alg, 480, 33);
        let t = trainer(ClusterConfig {
            nodes: 4,
            groups: 2,
            threads_per_node: 2,
            minibatch: 96,
            learning_rate: 0.2,
            epochs: 4,
            aggregation: Aggregation::Average,
            ..ClusterConfig::default()
        });
        let out = t.train(&alg, &ds, data::init_model(&alg, 5)).expect("healthy run");
        let first = out.loss_history[0];
        let last = *out.loss_history.last().unwrap();
        assert!(last < first, "{alg}: {first} -> {last}");
        assert!(out.iterations > 0);
        assert!(out.faults.is_clean(), "healthy run must report no faults");
        assert_eq!(&out.final_topology, t.topology());
    }
}

#[test]
fn matches_reference_parallel_sgd_exactly() {
    // Even shard sizes ⇒ the cluster trainer must reproduce the
    // single-process reference bit for bit.
    let alg = Algorithm::Svm { features: 6 };
    let ds = data::generate(&alg, 384, 7); // 384 = 8 workers * 48
    let init = data::init_model(&alg, 2);

    let t = trainer(ClusterConfig {
        nodes: 4,
        groups: 2,
        threads_per_node: 2,
        minibatch: 64,
        learning_rate: 0.1,
        epochs: 2,
        aggregation: Aggregation::Average,
        ..ClusterConfig::default()
    });
    let cluster = t.train(&alg, &ds, init.clone()).expect("healthy run");

    let reference = train_parallel(
        &alg,
        &ds,
        init,
        &TrainConfig {
            learning_rate: 0.1,
            epochs: 2,
            minibatch: 64,
            workers: 8,
            aggregation: Aggregation::Average,
        },
    );
    assert_eq!(cluster.iterations, reference.aggregations);
    for (a, b) in cluster.model.iter().zip(&reference.model) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

#[test]
fn sum_aggregation_matches_reference() {
    let alg = Algorithm::LinearRegression { features: 4 };
    let ds = data::generate(&alg, 128, 9);
    let init = data::init_model(&alg, 3);
    let t = trainer(ClusterConfig {
        nodes: 2,
        groups: 1,
        threads_per_node: 2,
        minibatch: 32,
        learning_rate: 0.05,
        epochs: 1,
        aggregation: Aggregation::Sum,
        ..ClusterConfig::default()
    });
    let cluster = t.train(&alg, &ds, init.clone()).expect("healthy run");
    let reference = train_parallel(
        &alg,
        &ds,
        init,
        &TrainConfig {
            learning_rate: 0.05,
            epochs: 1,
            minibatch: 32,
            workers: 4,
            aggregation: Aggregation::Sum,
        },
    );
    for (a, b) in cluster.model.iter().zip(&reference.model) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn topology_is_exposed() {
    let t = trainer(ClusterConfig { nodes: 8, groups: 2, ..ClusterConfig::default() });
    assert_eq!(t.topology().nodes(), 8);
    assert_eq!(t.topology().sigmas().len(), 2);
}

#[test]
fn single_node_single_thread_works() {
    let alg = Algorithm::LogisticRegression { features: 4 };
    let ds = data::generate(&alg, 64, 4);
    let t = trainer(ClusterConfig {
        nodes: 1,
        groups: 1,
        threads_per_node: 1,
        minibatch: 16,
        learning_rate: 0.3,
        epochs: 3,
        aggregation: Aggregation::Average,
        ..ClusterConfig::default()
    });
    let out = t.train(&alg, &ds, alg.zero_model()).expect("healthy run");
    assert!(out.loss_history.last().unwrap() < &out.loss_history[0]);
}

#[test]
fn degenerate_configurations_are_errors() {
    let bad = [
        ClusterConfig { threads_per_node: 0, ..ClusterConfig::default() },
        ClusterConfig { minibatch: 0, ..ClusterConfig::default() },
    ];
    for config in bad {
        assert!(matches!(ClusterTrainer::new(config.clone()), Err(RuntimeError::InvalidConfig(_))));
    }
    assert_eq!(
        ClusterTrainer::new(ClusterConfig { nodes: 2, groups: 3, ..ClusterConfig::default() })
            .err(),
        Some(RuntimeError::InvalidTopology { nodes: 2, groups: 3 })
    );
}

#[test]
fn empty_fault_plan_is_bit_identical_to_healthy_run() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 12);
    let init = data::init_model(&alg, 1);
    let config =
        ClusterConfig { nodes: 4, groups: 2, minibatch: 64, epochs: 2, ..ClusterConfig::default() };
    let a = trainer(config.clone()).train(&alg, &ds, init.clone()).expect("run a");
    let b = trainer(config).train(&alg, &ds, init).expect("run b");
    assert_eq!(a, b, "the healthy path must be deterministic");
    assert!(a.faults.is_clean());
}

#[test]
fn crash_of_a_delta_degrades_gracefully() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 320, 17);
    let t = trainer(ClusterConfig {
        nodes: 4,
        groups: 1,
        minibatch: 80,
        epochs: 3,
        faults: FaultPlan::none().crash(2, 1),
        ..ClusterConfig::default()
    });
    let out = t.train(&alg, &ds, data::init_model(&alg, 3)).expect("degraded, not dead");
    assert_eq!(out.faults.crashes, vec![(1, 2)]);
    assert!(out.final_topology.roles[2].is_failed());
    assert_eq!(out.final_topology.live_nodes(), 3);
    assert!(out.loss_history.last().unwrap() < &out.loss_history[0]);
}

#[test]
fn all_nodes_crashing_is_an_error() {
    let alg = Algorithm::LinearRegression { features: 4 };
    let ds = data::generate(&alg, 64, 3);
    let plan = (0..2).fold(FaultPlan::none(), |p, n| p.crash(n, 0));
    let t = trainer(ClusterConfig {
        nodes: 2,
        groups: 1,
        minibatch: 16,
        faults: plan,
        ..ClusterConfig::default()
    });
    assert_eq!(
        t.train(&alg, &ds, data::init_model(&alg, 3)).err(),
        Some(RuntimeError::AllNodesFailed { iteration: 0 })
    );
}

#[test]
fn straggler_within_deadline_still_contributes() {
    let alg = Algorithm::LinearRegression { features: 4 };
    let ds = data::generate(&alg, 128, 8);
    let config =
        ClusterConfig { nodes: 4, groups: 1, minibatch: 32, epochs: 1, ..ClusterConfig::default() };
    let healthy = trainer(config.clone()).train(&alg, &ds, data::init_model(&alg, 2)).expect("ok");
    let slowed = trainer(ClusterConfig {
        faults: FaultPlan::none().straggle(1, 0, 2.0), // 2.0 < deadline 4.0
        ..config
    })
    .train(&alg, &ds, data::init_model(&alg, 2))
    .expect("ok");
    assert_eq!(healthy.model, slowed.model, "an admitted straggler changes nothing");
    assert!(slowed.faults.exclusions.is_empty());
}

#[test]
fn retries_are_counted_and_survive_within_deadline() {
    let alg = Algorithm::LinearRegression { features: 4 };
    let ds = data::generate(&alg, 128, 8);
    let t = trainer(ClusterConfig {
        nodes: 4,
        groups: 1,
        minibatch: 32,
        epochs: 1,
        faults: FaultPlan::none().drop_chunk(1, 0, 0, 2),
        ..ClusterConfig::default()
    });
    let out = t.train(&alg, &ds, data::init_model(&alg, 2)).expect("ok");
    assert_eq!(out.faults.chunk_retries, 2);
    assert!(out.faults.exclusions.is_empty(), "two retries fit the deadline");
}

#[test]
fn undeliverable_chunks_exclude_the_node() {
    let alg = Algorithm::LinearRegression { features: 4 };
    let ds = data::generate(&alg, 128, 8);
    let t = trainer(ClusterConfig {
        nodes: 4,
        groups: 1,
        minibatch: 32,
        epochs: 1,
        faults: FaultPlan::none().drop_chunk(1, 0, 0, 99),
        ..ClusterConfig::default()
    });
    let out = t.train(&alg, &ds, data::init_model(&alg, 2)).expect("ok");
    assert_eq!(
        out.faults.exclusions,
        vec![Exclusion { iteration: 0, node: 1, reason: ExclusionReason::Undeliverable }]
    );
}

#[test]
fn traced_runs_are_byte_identical_and_well_formed() {
    let alg = Algorithm::LogisticRegression { features: 6 };
    let ds = data::generate(&alg, 256, 21);
    let init = data::init_model(&alg, 2);
    let config = ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 2,
        faults: FaultPlan::none().straggle(1, 0, 2.0).drop_chunk(2, 1, 0, 1).crash(3, 3),
        ..ClusterConfig::default()
    };
    let run = |config: ClusterConfig| {
        let sink = TraceSink::new();
        let out = trainer(config).train_traced(&alg, &ds, init.clone(), &sink).expect("runs");
        (out, sink)
    };
    let (out_a, sink_a) = run(config.clone());
    let (out_b, sink_b) = run(config.clone());
    assert_eq!(out_a, out_b);
    assert!(sink_a.validate_tree().is_ok());
    assert_eq!(sink_a.chrome_trace_json(), sink_b.chrome_trace_json());
    assert_eq!(sink_a.metrics_json(), sink_b.metrics_json());

    // Tracing must not perturb the training computation itself.
    let untraced = trainer(config).train(&alg, &ds, init.clone()).expect("runs");
    assert_eq!(out_a, untraced);

    let sums = sink_a.sums();
    assert_eq!(sums[counters::TRAINER_ITERATIONS], out_a.iterations as f64);
    assert_eq!(sums[counters::CHUNKS_RETRIED], out_a.faults.chunk_retries as f64);
    assert_eq!(sums[counters::FAULTS_CRASHES], out_a.faults.crashes.len() as f64);
    let exclusions = sums.get(counters::TRAINER_EXCLUSIONS).copied().unwrap_or(0.0);
    assert_eq!(exclusions, out_a.faults.exclusions.len() as f64);
    assert!(sums[counters::NET_BYTES_LEVEL1] > 0.0);
    assert!(sums[counters::POOL_JOBS] > 0.0);
    // The straggler stretched iteration 0's barrier in virtual time.
    assert!(sink_a.now() > out_a.iterations as f64);
}

#[test]
fn every_collective_strategy_trains_bit_identically() {
    // The strategy decides the wire pattern, never the arithmetic:
    // all five collectives must produce the same model bit for bit.
    let alg = Algorithm::LogisticRegression { features: 6 };
    let ds = data::generate(&alg, 320, 19);
    let init = data::init_model(&alg, 4);
    let config =
        ClusterConfig { nodes: 5, groups: 2, minibatch: 80, epochs: 2, ..ClusterConfig::default() };
    let outcomes: Vec<TrainOutcome> = CollectiveKind::ALL
        .into_iter()
        .map(|collective| {
            trainer(ClusterConfig { collective, ..config.clone() })
                .train(&alg, &ds, init.clone())
                .expect("healthy run")
        })
        .collect();
    for pair in outcomes.windows(2) {
        assert_eq!(pair[0], pair[1], "strategies must be numerically interchangeable");
    }
}

#[test]
fn collectives_stay_bit_identical_under_fault_injection() {
    // A crash forces a re-election and a schedule rebuild over the
    // survivors; a quarantined stream and recovered drops shrink
    // the contributor set. None of it may depend on the strategy.
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 384, 23);
    let init = data::init_model(&alg, 5);
    let config = ClusterConfig {
        nodes: 6,
        groups: 2,
        minibatch: 96,
        epochs: 2,
        faults: FaultPlan::none()
            .crash(3, 1) // group 1's Sigma dies -> re-election
            .straggle(4, 0, 2.0)
            .drop_chunk(2, 0, 0, 1)
            .duplicate_chunk(5, 2, 0),
        ..ClusterConfig::default()
    };
    let outcomes: Vec<TrainOutcome> = CollectiveKind::ALL
        .into_iter()
        .map(|collective| {
            trainer(ClusterConfig { collective, ..config.clone() })
                .train(&alg, &ds, init.clone())
                .expect("degraded, not dead")
        })
        .collect();
    assert!(!outcomes[0].faults.crashes.is_empty());
    assert!(!outcomes[0].faults.reelections.is_empty(), "the Sigma crash must re-elect");
    for pair in outcomes.windows(2) {
        assert_eq!(pair[0], pair[1], "fault handling must be strategy-independent");
    }
}

#[test]
fn failures_rebuild_the_schedule_over_the_survivors() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 11);
    let t = trainer(ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 2,
        faults: FaultPlan::none().crash(3, 2),
        collective: CollectiveKind::RingAllReduce,
        ..ClusterConfig::default()
    });
    let sink = TraceSink::new();
    let out = t.train_traced(&alg, &ds, data::init_model(&alg, 2), &sink).expect("runs");
    assert_eq!(out.final_topology.live_nodes(), 3);
    let sums = sink.sums();
    // One build at the start, one rebuild after the crash.
    assert_eq!(sums[counters::COLLECTIVE_REBUILDS], 2.0);
    // Ring traffic is peer-to-peer, not hierarchical.
    assert!(sums[counters::NET_BYTES_PEER] > 0.0);
}

#[test]
fn duplicated_chunks_do_not_change_the_result() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 12);
    let init = data::init_model(&alg, 1);
    let config =
        ClusterConfig { nodes: 4, groups: 2, minibatch: 64, epochs: 2, ..ClusterConfig::default() };
    let healthy = trainer(config.clone()).train(&alg, &ds, init.clone()).expect("ok");
    let dup = trainer(ClusterConfig {
        faults: FaultPlan::none().duplicate_chunk(1, 0, 0).duplicate_chunk(3, 1, 0),
        ..config
    })
    .train(&alg, &ds, init)
    .expect("ok");
    assert_eq!(healthy.model, dup.model, "duplicate delivery must be idempotent");
    assert_eq!(dup.faults.duplicates_dropped, 2);
}

/// Regression (satellite): the exact capped-exponential-backoff
/// sequence in virtual time. Guards the PR 1 retry math — any drift
/// here silently changes every deadline-admission decision.
#[test]
fn retry_backoff_sequence_is_pinned() {
    let policy = RetryPolicy::default();
    let delays: Vec<f64> = (0..8).map(|a| policy.delay(a)).collect();
    assert_eq!(delays, vec![0.125, 0.25, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]);
    // Cumulative virtual cost of a node that needs n retransmits.
    let cumulative: Vec<f64> =
        (0..6).map(|n| (0..n).map(|a| policy.delay(a)).sum::<f64>()).collect();
    assert_eq!(cumulative, vec![0.0, 0.125, 0.375, 0.875, 1.875, 2.875]);
    // The cap binds immediately when base exceeds it, and huge
    // attempt indices must not overflow the exponent.
    let tight = RetryPolicy { backoff_base: 3.0, backoff_cap: 2.0, max_retries: 4 };
    assert_eq!(tight.delay(0), 2.0);
    assert_eq!(tight.delay(u32::MAX), 2.0);
}

#[test]
fn invalid_membership_configurations_are_errors() {
    let config =
        ClusterConfig { checkpoint: CheckpointConfig { cadence: 0 }, ..ClusterConfig::default() };
    assert!(matches!(ClusterTrainer::new(config), Err(RuntimeError::InvalidConfig(_))));
}

/// Acceptance: a healthy run with the detector enabled is
/// bit-identical — model, report, and byte-for-byte trace — to the
/// same run on the oracle path. Zero false exclusions.
#[test]
fn healthy_detector_run_is_bit_identical_to_oracle() {
    let alg = Algorithm::LogisticRegression { features: 6 };
    let ds = data::generate(&alg, 256, 29);
    let init = data::init_model(&alg, 3);
    let config =
        ClusterConfig { nodes: 4, groups: 2, minibatch: 64, epochs: 2, ..ClusterConfig::default() };
    let run = |membership: MembershipMode| {
        let sink = TraceSink::new();
        let out = trainer(ClusterConfig { membership, ..config.clone() })
            .train_traced(&alg, &ds, init.clone(), &sink)
            .expect("healthy run");
        (out, sink)
    };
    let (oracle, sink_o) = run(MembershipMode::Oracle);
    let (detector, sink_d) = run(MembershipMode::Detector);
    assert_eq!(oracle, detector, "an idle detector must be invisible");
    assert!(detector.faults.is_clean());
    assert!(detector.faults.suspicions.is_empty(), "no false positives on a healthy cluster");
    assert_eq!(sink_o.chrome_trace_json(), sink_d.chrome_trace_json());
    assert_eq!(sink_o.metrics_json(), sink_d.metrics_json());
}

#[test]
fn checkpoints_follow_the_cadence_and_stay_clean() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 12); // 4 iterations per epoch
    let sink = TraceSink::new();
    let out = trainer(ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 2,
        checkpoint: CheckpointConfig { cadence: 4 },
        ..ClusterConfig::default()
    })
    .train_traced(&alg, &ds, data::init_model(&alg, 1), &sink)
    .expect("healthy run");
    assert_eq!(out.iterations, 8);
    assert_eq!(out.faults.checkpoints, 2, "snapshots after iterations 4 and 8");
    assert!(out.faults.is_clean(), "routine checkpointing is not degradation");
    assert_eq!(sink.sums()[counters::MEMBERSHIP_CHECKPOINTS], 2.0);
}

/// Acceptance: oracle-mode crash-then-rejoin is deterministic, the
/// rejoined node's caught-up model equals the survivors' bit for
/// bit, and the schedule rebuilds on join as well as leave.
#[test]
fn oracle_crash_then_rejoin_catches_up_bit_exactly() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 11);
    let init = data::init_model(&alg, 2);
    let config = ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 2,
        faults: FaultPlan::none().crash_then_rejoin(3, 2, 3),
        ..ClusterConfig::default()
    };
    let run = || {
        let sink = TraceSink::new();
        let out = trainer(config.clone())
            .train_traced(&alg, &ds, init.clone(), &sink)
            .expect("degraded, not dead");
        (out, sink)
    };
    let (out, sink) = run();
    assert_eq!(out.faults.crashes, vec![(2, 3)]);
    assert_eq!(out.faults.rejoins.len(), 1);
    let rejoin = out.faults.rejoins[0];
    assert_eq!((rejoin.iteration, rejoin.node), (5, 3));
    assert!(rejoin.matched, "catch-up must reproduce the survivors' model bit for bit");
    assert!(rejoin.bytes > 0);
    assert_eq!(out.final_topology.live_nodes(), 4, "the cluster healed");
    assert!(!out.final_topology.roles[3].is_failed());
    let sums = sink.sums();
    // Initial build, rebuild on leave, rebuild on join.
    assert_eq!(sums[counters::COLLECTIVE_REBUILDS], 3.0);
    assert_eq!(sums[counters::MEMBERSHIP_REJOINS], 1.0);
    assert_eq!(sums[counters::MEMBERSHIP_CATCHUP_BYTES], rejoin.bytes as f64);

    let (out_b, sink_b) = run();
    assert_eq!(out, out_b, "crash-then-rejoin must be deterministic");
    assert_eq!(sink.chrome_trace_json(), sink_b.chrome_trace_json());
    assert_eq!(sink.metrics_json(), sink_b.metrics_json());
}

/// Detector mode: a silent crash is suspected, declared, and
/// repaired without any oracle involvement; when the node comes
/// back, its heartbeat alone re-admits it with a bit-exact model.
#[test]
fn detector_expels_a_silent_crash_and_readmits_it_on_return() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 13);
    let init = data::init_model(&alg, 4);
    let config = ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 3, // 12 iterations: detect, expel, rejoin, settle
        faults: FaultPlan::none().crash_then_rejoin(1, 1, 6),
        membership: MembershipMode::Detector,
        ..ClusterConfig::default()
    };
    let run = || {
        let sink = TraceSink::new();
        let out = trainer(config.clone())
            .train_traced(&alg, &ds, init.clone(), &sink)
            .expect("degraded, not dead");
        (out, sink)
    };
    let (out, sink) = run();
    assert_eq!(out.faults.crashes, vec![(1, 1)]);
    assert!(
        out.faults.suspicions.iter().any(|s| s.node == 1),
        "silence must raise suspicion before expulsion"
    );
    assert_eq!(out.faults.rejoins.len(), 1);
    let rejoin = out.faults.rejoins[0];
    assert_eq!(rejoin.node, 1);
    assert!(rejoin.iteration >= 7, "rejoin cannot precede the node's return");
    assert!(rejoin.matched, "catch-up must reproduce the survivors' model bit for bit");
    assert_eq!(out.faults.false_suspicions, 0, "the node really was down");
    assert!(out.faults.reinstatements.is_empty());
    assert_eq!(out.final_topology.live_nodes(), 4);
    assert!(out.loss_history.last().unwrap() < &out.loss_history[0]);

    let (out_b, sink_b) = run();
    assert_eq!(out, out_b, "detection and rejoin must be deterministic");
    assert_eq!(sink.chrome_trace_json(), sink_b.chrome_trace_json());
    assert_eq!(sink.metrics_json(), sink_b.metrics_json());
}

/// Detector mode: one undeliverable round stretches the barrier —
/// the retry backoff extends the round for everyone, so at the next
/// sweep *every* member looks silent relative to the virtual clock
/// and is suspected. All of them deliver that round and are
/// reinstated. Suspicion is bookkeeping: nobody is expelled, nobody
/// rejoins, and accrual detection absorbs the barrier stretch.
#[test]
fn suspected_stragglers_are_reinstated_not_expelled() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 17);
    let out = trainer(ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 2,
        faults: FaultPlan::none().drop_chunk(1, 2, 0, 99),
        membership: MembershipMode::Detector,
        ..ClusterConfig::default()
    })
    .train(&alg, &ds, data::init_model(&alg, 5))
    .expect("degraded, not dead");
    assert_eq!(
        out.faults.suspicions.iter().map(|s| (s.iteration, s.node)).collect::<Vec<_>>(),
        vec![(3, 0), (3, 1), (3, 2), (3, 3)],
        "the stretched round makes every member look late at the next sweep"
    );
    let mut reinstated = out.faults.reinstatements.clone();
    reinstated.sort_unstable();
    assert_eq!(reinstated, vec![(3, 0), (3, 1), (3, 2), (3, 3)]);
    assert_eq!(out.faults.false_suspicions, 4);
    assert!(out.faults.rejoins.is_empty(), "a reinstated node never left");
    assert!(out.faults.reelections.is_empty());
    assert_eq!(out.final_topology.live_nodes(), 4, "suspicion is not expulsion");
}

#[test]
fn oracle_partition_quiesces_the_minority_and_heals() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 19);
    let sink = TraceSink::new();
    let out = trainer(ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 2,
        faults: FaultPlan::none().partition(2, &[1], 2),
        ..ClusterConfig::default()
    })
    .train_traced(&alg, &ds, data::init_model(&alg, 6), &sink)
    .expect("majority side progresses");
    assert_eq!(
        out.faults.partitions,
        vec![PartitionOutage { start: 2, heal: 4, minority: vec![1] }]
    );
    assert!(!out.faults.is_clean(), "a partition is degradation");
    assert!(out.faults.exclusions.is_empty(), "quiesce is not an exclusion");
    assert_eq!(out.final_topology.live_nodes(), 4, "nobody is expelled by an outage");
    assert_eq!(out.iterations, 8, "the majority side never stopped");
    let sums = sink.sums();
    assert_eq!(sums[counters::MEMBERSHIP_PARTITION_HEALS], 1.0);
    // Build over 4, rebuild over the majority, rebuild at heal.
    assert_eq!(sums[counters::COLLECTIVE_REBUILDS], 3.0);
    assert!(out.loss_history.last().unwrap() < &out.loss_history[0]);
}

/// Detector mode: a partition long enough to cross the fail
/// threshold expels the minority; the heal's first heartbeat brings
/// it back through the rejoin protocol with a matched model.
#[test]
fn detector_partition_expels_then_rejoins_the_minority() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 256, 23);
    let out = trainer(ClusterConfig {
        nodes: 4,
        groups: 2,
        minibatch: 64,
        epochs: 3,
        faults: FaultPlan::none().partition(1, &[3], 6),
        membership: MembershipMode::Detector,
        ..ClusterConfig::default()
    })
    .train(&alg, &ds, data::init_model(&alg, 7))
    .expect("majority side progresses");
    assert!(out.faults.crashes.is_empty(), "a partition is not a crash");
    assert!(out.faults.suspicions.iter().any(|s| s.node == 3));
    assert_eq!(out.faults.rejoins.len(), 1);
    let rejoin = out.faults.rejoins[0];
    assert_eq!(rejoin.node, 3);
    assert!(rejoin.matched);
    assert_eq!(
        out.faults.false_suspicions, 0,
        "a quiesced node was genuinely unreachable — expelling it was right"
    );
    assert_eq!(out.final_topology.live_nodes(), 4, "heal-and-merge restores the cluster");
}

/// Every collective strategy must absorb churn — crash, rejoin,
/// partition — with bit-identical results, in both membership
/// modes.
#[test]
fn collectives_stay_bit_identical_under_churn() {
    let alg = Algorithm::LinearRegression { features: 6 };
    let ds = data::generate(&alg, 384, 37);
    let init = data::init_model(&alg, 8);
    for membership in [MembershipMode::Oracle, MembershipMode::Detector] {
        let config = ClusterConfig {
            nodes: 6,
            groups: 2,
            minibatch: 96,
            epochs: 3,
            faults: FaultPlan::none()
                .crash_then_rejoin(4, 1, 6)
                .partition(2, &[2], 2)
                .straggle(1, 0, 2.0),
            membership,
            ..ClusterConfig::default()
        };
        let outcomes: Vec<TrainOutcome> = CollectiveKind::ALL
            .into_iter()
            .map(|collective| {
                trainer(ClusterConfig { collective, ..config.clone() })
                    .train(&alg, &ds, init.clone())
                    .expect("degraded, not dead")
            })
            .collect();
        for pair in outcomes.windows(2) {
            assert_eq!(
                pair[0], pair[1],
                "churn handling must be strategy-independent ({membership:?})"
            );
        }
        assert!(
            outcomes[0].faults.rejoins.iter().all(|r| r.matched),
            "every rejoin must catch up bit-exactly ({membership:?})"
        );
    }
}
