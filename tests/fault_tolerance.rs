//! Acceptance scenarios for the fault-tolerant runtime: deterministic
//! seeded fault plans driven through the real multi-threaded trainer,
//! with graceful degradation asserted end to end.

use cosmic::cosmic_ml::data::{self, Dataset};
use cosmic::cosmic_ml::{suite::WORD_BYTES, Aggregation, Algorithm, BenchmarkId};
use cosmic::cosmic_runtime::{
    ClusterConfig, ClusterTiming, ClusterTrainer, ExclusionReason, FaultPlan, FaultTimingModel,
    NodeCompute, Role, TraceSink, TraceSummary, TrainOutcome,
};

fn run(
    nodes: usize,
    groups: usize,
    epochs: usize,
    faults: FaultPlan,
) -> (Algorithm, Dataset, TrainOutcome) {
    let alg = Algorithm::LogisticRegression { features: 10 };
    let dataset = data::generate(&alg, 1_920, 23);
    let trainer = ClusterTrainer::new(ClusterConfig {
        nodes,
        groups,
        threads_per_node: 2,
        minibatch: 480,
        learning_rate: 0.3,
        epochs,
        aggregation: Aggregation::Average,
        faults,
        ..ClusterConfig::default()
    })
    .expect("valid config");
    let out = trainer.train(&alg, &dataset, alg.zero_model()).expect("recoverable fault plan");
    (alg, dataset, out)
}

/// Replicates the trainer's arithmetic for one Average iteration with
/// some nodes excluded: per-thread local SGD models summed per node, the
/// surviving node partials folded in node order, averaged over the
/// number of contributing worker threads. Matches the trainer's
/// deterministic peer-index-order fold bit for bit.
fn survivor_average(
    alg: &Algorithm,
    dataset: &Dataset,
    init: &[f64],
    cfg: &ClusterConfig,
    excluded: &[usize],
) -> Vec<f64> {
    let (nodes, threads, lr) = (cfg.nodes, cfg.threads_per_node, cfg.learning_rate);
    let per_worker = cfg.minibatch.div_ceil(nodes * threads);
    let node_parts = dataset.partition(nodes);
    let mut total = vec![0.0; init.len()];
    let mut active = 0usize;
    for (node, part) in node_parts.iter().enumerate() {
        if excluded.contains(&node) {
            continue;
        }
        let mut node_sum = vec![0.0; init.len()];
        for sub in part.partition(threads) {
            let hi = per_worker.min(sub.len());
            let mut local = init.to_vec();
            for r in &sub.records()[..hi] {
                alg.sgd_update(r, &mut local, lr);
            }
            for (s, v) in node_sum.iter_mut().zip(&local) {
                *s += v;
            }
            active += 1;
        }
        for (t, v) in total.iter_mut().zip(&node_sum) {
            *t += v;
        }
    }
    total.iter().map(|t| t / active as f64).collect()
}

/// Scenario 1: a Delta node crashes mid-run; training degrades
/// gracefully — the run completes, the crash is reported, and the loss
/// still decreases over the surviving nodes.
#[test]
fn delta_crash_degrades_gracefully_and_still_converges() {
    // 6 nodes / 2 groups: groups {0,1,2} and {3,4,5}; node 2 is a Delta.
    let (_, _, out) = run(6, 2, 4, FaultPlan::none().crash(2, 1));
    assert_eq!(out.faults.crashes, vec![(1, 2)]);
    assert!(out.faults.reelections.is_empty(), "a Delta death needs no re-election");
    assert_eq!(out.final_topology.live_nodes(), 5);
    assert!(matches!(out.final_topology.roles[2], Role::Failed));
    let first = out.loss_history[0];
    let last = *out.loss_history.last().unwrap();
    assert!(last < first, "loss {first} -> {last}");
}

/// Scenario 2: a GroupSigma crashes; the System Director re-elects the
/// smallest surviving member and repairs the topology, and training
/// continues.
#[test]
fn group_sigma_crash_triggers_reelection_with_repaired_topology() {
    // 9 nodes / 3 groups: node 3 is the Sigma of group {3,4,5}.
    let (_, _, out) = run(9, 3, 3, FaultPlan::none().crash(3, 0));
    assert_eq!(out.faults.crashes, vec![(0, 3)]);
    assert_eq!(out.faults.reelections.len(), 1);
    let (when, promotion) = out.faults.reelections[0];
    assert_eq!(when, 0);
    assert_eq!(promotion.failed, 3);
    assert_eq!(promotion.elected, 4);
    assert!(!promotion.was_master);

    let topo = &out.final_topology;
    assert!(matches!(topo.roles[3], Role::Failed));
    assert_eq!(topo.roles[4], Role::GroupSigma { members: vec![5], master: 0 });
    assert_eq!(topo.roles[5], Role::Delta { sigma: 4 });
    match &topo.roles[0] {
        Role::MasterSigma { group_sigmas, .. } => {
            assert!(group_sigmas.contains(&4) && !group_sigmas.contains(&3));
        }
        other => panic!("node 0 must stay master, got {other:?}"),
    }
    assert_eq!(topo.groups, 3);
    assert_eq!(topo.live_nodes(), 8);

    let first = out.loss_history[0];
    let last = *out.loss_history.last().unwrap();
    assert!(last < first, "loss {first} -> {last}");
}

/// Scenario 3: a straggler past the deadline is excluded for that
/// iteration and the update is exactly the average over the survivors.
#[test]
fn straggler_past_deadline_is_excluded_with_exact_survivor_average() {
    let alg = Algorithm::LogisticRegression { features: 10 };
    let dataset = data::generate(&alg, 512, 99);
    let init = alg.zero_model();
    let (nodes, threads, minibatch) = (4usize, 2usize, 512usize);
    // One aggregation round: the mini-batch covers the whole dataset.
    let cfg = ClusterConfig {
        nodes,
        groups: 1,
        threads_per_node: threads,
        minibatch,
        learning_rate: 0.2,
        epochs: 1,
        aggregation: Aggregation::Average,
        // 10x nominal compute against a 4x deadline: node 3 is late.
        faults: FaultPlan::none().straggle(3, 0, 10.0),
        ..ClusterConfig::default()
    };
    let trainer = ClusterTrainer::new(cfg.clone()).expect("valid config");
    let out = trainer.train(&alg, &dataset, init.clone()).expect("recoverable");

    assert_eq!(out.iterations, 1);
    assert_eq!(out.faults.excluded_at(0), vec![3]);
    assert!(matches!(
        out.faults.exclusions[0].reason,
        ExclusionReason::DeadlineExceeded { virtual_cost } if virtual_cost == 10.0
    ));
    assert_eq!(out.final_topology.live_nodes(), nodes, "exclusion is not death");

    let want = survivor_average(&alg, &dataset, &init, &cfg, &[3]);
    assert_eq!(out.model, want, "update must be the exact average over survivors");

    // The same run without the straggler produces a different model —
    // the exclusion really changed the update.
    let healthy = ClusterTrainer::new(ClusterConfig {
        nodes,
        groups: 1,
        threads_per_node: threads,
        minibatch,
        learning_rate: 0.2,
        epochs: 1,
        aggregation: Aggregation::Average,
        ..ClusterConfig::default()
    })
    .expect("valid config")
    .train(&alg, &dataset, init)
    .expect("healthy");
    assert_ne!(healthy.model, out.model);
}

/// Scenario 4: a corrupted chunk quarantines only the corrupting peer —
/// every other node's contribution survives and the update is exactly
/// the average over the remaining peers.
#[test]
fn corrupted_chunk_quarantines_only_that_peer() {
    let alg = Algorithm::LogisticRegression { features: 10 };
    let dataset = data::generate(&alg, 512, 99);
    let init = alg.zero_model();
    let (nodes, threads, minibatch) = (4usize, 2usize, 512usize);
    let cfg = ClusterConfig {
        nodes,
        groups: 1,
        threads_per_node: threads,
        minibatch,
        learning_rate: 0.2,
        epochs: 1,
        aggregation: Aggregation::Average,
        faults: FaultPlan::none().corrupt_chunk(1, 0, 0),
        ..ClusterConfig::default()
    };
    let trainer = ClusterTrainer::new(cfg.clone()).expect("valid config");
    let out = trainer.train(&alg, &dataset, init.clone()).expect("recoverable");

    assert_eq!(out.faults.quarantines.len(), 1, "exactly one peer quarantined");
    assert_eq!(out.faults.quarantines[0].node, 1);
    assert!(out.faults.exclusions.is_empty());
    assert!(out.faults.crashes.is_empty());
    assert_eq!(out.final_topology.live_nodes(), nodes, "quarantine is per-iteration");

    let want = survivor_average(&alg, &dataset, &init, &cfg, &[1]);
    assert_eq!(out.model, want, "update must exclude exactly the corrupt peer");
}

/// Telemetry cross-check: for every suite model, the `TraceSummary`
/// folded back from the raw spans of a traced iteration reproduces the
/// `IterationBreakdown` it came from — total, communication, and
/// recovery — within 1e-12, both healthy and under fault injection.
#[test]
fn trace_summary_reproduces_iteration_breakdown_for_every_benchmark() {
    let timing = ClusterTiming::commodity(8, 2);
    let node = NodeCompute { records_per_sec: 1e5 };
    let minibatch = 10_000usize;
    let healthy = FaultTimingModel::none();
    let degraded = FaultTimingModel {
        chunk_drop_rate: 0.05,
        retry_backoff_s: 250e-6,
        straggler_rate: 0.05,
        straggler_slowdown: 8.0,
        sigma_failover_rate: 0.005,
        failover_penalty_s: 5e-3,
        reschedule_penalty_s: 1e-3,
    };
    for id in BenchmarkId::all() {
        let bench = id.benchmark();
        let exchange = bench.exchanged_params(minibatch.div_ceil(8)) * WORD_BYTES;
        for faults in [&healthy, &degraded] {
            let sink = TraceSink::new();
            let it = timing
                .model(minibatch, node, exchange)
                .with_faults(faults)
                .traced(&sink)
                .evaluate()
                .expect("analytic path is infallible");
            assert!(sink.validate_tree().is_ok());
            let summary = TraceSummary::of(&sink);
            assert_eq!(summary.iterations, 1, "{id}");
            assert!((summary.total_s() - it.total_s()).abs() <= 1e-12, "{id} total");
            assert!(
                (summary.communication_s() - it.communication_s()).abs() <= 1e-12,
                "{id} communication"
            );
            assert!((summary.recovery_s - it.recovery_s).abs() <= 1e-12, "{id} recovery");
        }
    }
}

/// Failover scenario: the *master* Sigma dies mid-run. The crown passes
/// to a surviving node, the re-election is recorded as such, and
/// training continues to completion on the survivors.
#[test]
fn master_sigma_crash_passes_the_crown() {
    // 4 nodes / 2 groups: groups {0,1} and {2,3}; node 0 is the master.
    // Node 1 (the master's last group-mate) dies first, then the master
    // itself mid-run.
    let (_, _, out) = run(4, 2, 4, FaultPlan::none().crash(1, 0).crash(0, 1));
    assert_eq!(out.faults.crashes, vec![(0, 1), (1, 0)]);

    let master_handoffs: Vec<_> =
        out.faults.reelections.iter().filter(|(_, p)| p.was_master).collect();
    assert_eq!(master_handoffs.len(), 1, "exactly one crown-passing: {:?}", out.faults.reelections);
    let (when, promotion) = master_handoffs[0];
    assert_eq!(*when, 1);
    assert_eq!(promotion.failed, 0);

    let topo = &out.final_topology;
    assert!(matches!(topo.roles[0], Role::Failed));
    assert!(matches!(topo.roles[1], Role::Failed));
    assert_eq!(topo.master(), Some(promotion.elected), "elected node must now be master");
    assert_eq!(topo.live_nodes(), 2);

    let first = out.loss_history[0];
    let last = *out.loss_history.last().unwrap();
    assert!(last < first, "loss {first} -> {last}");
}

/// Failover scenario: a group loses its last member. The group
/// dissolves — no re-election is possible inside it — and the rest of
/// the cluster trains on.
#[test]
fn group_dissolves_when_its_last_member_dies() {
    // 4 nodes / 2 groups: group {2,3} loses its Delta (3) and then its
    // Sigma (2), leaving nobody to promote.
    let (_, _, out) = run(4, 2, 4, FaultPlan::none().crash(3, 0).crash(2, 1));
    assert_eq!(out.faults.crashes, vec![(0, 3), (1, 2)]);
    assert!(
        out.faults.reelections.iter().all(|(_, p)| p.failed != 2 || p.elected != 3),
        "a dead Delta must never be promoted: {:?}",
        out.faults.reelections
    );

    let topo = &out.final_topology;
    assert!(matches!(topo.roles[2], Role::Failed));
    assert!(matches!(topo.roles[3], Role::Failed));
    assert_eq!(topo.groups, 1, "the emptied group must dissolve");
    assert_eq!(topo.live_nodes(), 2);
    assert_eq!(topo.master(), Some(0), "master group is untouched");

    let first = out.loss_history[0];
    let last = *out.loss_history.last().unwrap();
    assert!(last < first, "loss {first} -> {last}");
}

/// Determinism: the same seeded random plan produces bit-identical
/// outcomes across runs, fault report included.
#[test]
fn seeded_random_plans_are_reproducible() {
    use cosmic::cosmic_runtime::FaultRates;
    let rates = FaultRates { straggle: 0.2, corrupt_chunk: 0.1, ..FaultRates::default() };
    let plan = FaultPlan::random(7, 6, 12, 1, &rates);
    let (_, _, a) = run(6, 2, 3, plan.clone());
    let (_, _, b) = run(6, 2, 3, plan);
    assert_eq!(a.model, b.model);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.loss_history, b.loss_history);
}
