//! Integration tests for the system software: the multi-threaded cluster
//! trainer must be functionally equivalent to the single-process
//! reference optimizer, and the Sigma aggregation pipeline must survive
//! stress.

use cosmic::cosmic_ml::sgd::{train_parallel, TrainConfig};
use cosmic::cosmic_ml::{data, Aggregation, Algorithm};
use cosmic::cosmic_runtime::node::{chunk_vector, Chunk, SigmaAggregator};
use cosmic::cosmic_runtime::CHUNK_WORDS;
use cosmic::cosmic_runtime::{ClusterConfig, ClusterTrainer};
use crossbeam::channel::{unbounded, Receiver};

/// The cluster trainer and the reference parallel optimizer agree exactly
/// whenever the shards divide evenly, across topologies and both
/// aggregation operators.
#[test]
fn cluster_matches_reference_across_topologies() {
    let alg = Algorithm::LogisticRegression { features: 6 };
    // 960 records divide evenly for every (nodes, threads) used below.
    let ds = data::generate(&alg, 960, 13);
    let init = data::init_model(&alg, 4);

    for (nodes, groups, threads) in [(2, 1, 2), (4, 2, 2), (4, 1, 4), (8, 2, 1), (6, 3, 2)] {
        for aggregation in [Aggregation::Average, Aggregation::Sum] {
            let trainer = ClusterTrainer::new(ClusterConfig {
                nodes,
                groups,
                threads_per_node: threads,
                minibatch: 240,
                learning_rate: 0.15,
                epochs: 2,
                aggregation,
                ..ClusterConfig::default()
            })
            .expect("valid config");
            let cluster = trainer.train(&alg, &ds, init.clone()).expect("healthy run");
            let reference = train_parallel(
                &alg,
                &ds,
                init.clone(),
                &TrainConfig {
                    learning_rate: 0.15,
                    epochs: 2,
                    minibatch: 240,
                    workers: nodes * threads,
                    aggregation,
                },
            );
            for (i, (a, b)) in cluster.model.iter().zip(&reference.model).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "nodes={nodes} groups={groups} threads={threads} {aggregation:?} \
                     weight {i}: {a} vs {b}"
                );
            }
        }
    }
}

/// The Sigma pipeline aggregates many large concurrent streams correctly
/// (a dozen producer threads sending seven stripes each, their streams
/// staged in turn on the caller while the later ones are still sending).
#[test]
fn sigma_pipeline_stress() {
    let sigma = SigmaAggregator::new(3, 3);
    let model_len = 6 * CHUNK_WORDS + 123;
    let peers = 12;

    let incoming: Vec<Receiver<Chunk>> = (0..peers)
        .map(|p| {
            let (tx, rx) = unbounded::<Chunk>();
            let model: Vec<f64> = (0..model_len).map(|i| ((i + p) % 101) as f64).collect();
            // Stream from a separate thread so sending and staging
            // genuinely overlap.
            std::thread::spawn(move || {
                for chunk in chunk_vector(&model) {
                    if tx.send(chunk).is_err() {
                        break;
                    }
                }
            });
            rx
        })
        .collect();

    let sum = sigma.aggregate_validated(model_len, incoming).sum;
    for (i, v) in sum.iter().enumerate() {
        let want: f64 = (0..peers).map(|p| ((i + p) % 101) as f64).sum();
        assert_eq!(*v, want, "element {i}");
    }
}

/// Convergence survives awkward shard arithmetic (records not divisible
/// by workers, mini-batch larger than some shards).
#[test]
fn ragged_shards_still_converge() {
    let alg = Algorithm::Svm { features: 7 };
    let ds = data::generate(&alg, 487, 29); // prime-ish count
    let trainer = ClusterTrainer::new(ClusterConfig {
        nodes: 5,
        groups: 2,
        threads_per_node: 3,
        minibatch: 130,
        learning_rate: 0.25,
        epochs: 6,
        aggregation: Aggregation::Average,
        ..ClusterConfig::default()
    })
    .expect("valid config");
    let out = trainer.train(&alg, &ds, alg.zero_model()).expect("healthy run");
    let first = out.loss_history[0];
    let last = *out.loss_history.last().unwrap();
    assert!(last < first, "loss {first} -> {last}");
}

/// Role assignment scales: every topology the figures use is valid.
#[test]
fn topologies_used_by_the_evaluation_are_valid() {
    use cosmic::cosmic_runtime::collectives::{assign_roles, default_groups};
    for nodes in [1usize, 2, 3, 4, 8, 16, 32] {
        let groups = default_groups(nodes);
        let topo = assign_roles(nodes, groups).expect("valid topology");
        assert_eq!(topo.nodes(), nodes);
        assert_eq!(topo.sigmas().len(), groups);
        assert!(topo.max_group_fan_in() <= 7, "nodes={nodes}: ingress fan-in bounded");
    }
}
