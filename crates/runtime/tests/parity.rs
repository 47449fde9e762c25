//! Parity suite for the phase-based engine: the engine's behavior must
//! not depend on who is watching. `train` (the crate-private engine
//! under its no-op observer) is bit-identical to `train_traced` (the
//! same engine under its recording observer), across random cluster
//! shapes, seeds, fault plans, and both membership modes.

use cosmic_ml::{data, Aggregation, Algorithm};
use cosmic_runtime::{
    ClusterConfig, ClusterTrainer, FaultPlan, FaultRates, MembershipMode, TraceSink,
};
use proptest::prelude::*;

/// Two models compared bit for bit (`==` would conflate `0.0` with
/// `-0.0` and choke on NaN).
fn bits(model: &[f64]) -> Vec<u64> {
    model.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// `train` (no-op observer) and `train_traced` (full telemetry)
    /// produce bit-identical outcomes — model, loss history, and fault
    /// report — whatever the cluster shape, fault plan, or membership
    /// mode. Tracing is a pure observer; it must never steer the run.
    #[test]
    fn null_and_trace_observers_are_bit_identical(
        nodes in 2usize..7,
        groups in 1usize..4,
        epochs in 1usize..3,
        seed in 0u64..300,
        faulty in any::<bool>(),
        detector in any::<bool>(),
    ) {
        let groups = groups.min(nodes);
        let alg = Algorithm::LinearRegression { features: 4 };
        let ds = data::generate(&alg, 96, seed);
        let init = data::init_model(&alg, seed ^ 11);
        let iterations = epochs * 96usize.div_ceil(24);
        let faults = if faulty {
            FaultPlan::random(seed, nodes, iterations, 4, &FaultRates {
                crash: 0.05,
                straggle: 0.15,
                straggle_factor: 3.0,
                drop_chunk: 0.05,
                corrupt_chunk: 0.02,
                duplicate_chunk: 0.02,
                rejoin_after: 2,
                partition: 0.03,
                partition_heal_after: 2,
                ..FaultRates::default()
            })
        } else {
            FaultPlan::none()
        };
        let trainer = ClusterTrainer::new(ClusterConfig {
            nodes,
            groups,
            threads_per_node: 1,
            minibatch: 24,
            learning_rate: 0.1,
            epochs,
            aggregation: Aggregation::Average,
            membership: if detector { MembershipMode::Detector } else { MembershipMode::Oracle },
            faults,
            ..ClusterConfig::default()
        })
        .expect("valid random config");

        let plain = trainer.train(&alg, &ds, init.clone());
        let sink = TraceSink::new();
        let traced = trainer.train_traced(&alg, &ds, init, &sink);

        match (plain, traced) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(bits(&a.model), bits(&b.model), "models must match bitwise");
                prop_assert_eq!(a, b, "outcomes must be identical");
            }
            // A plan can kill the whole cluster; both observers must
            // see the identical failure.
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "observer changed the verdict: {a:?} vs {b:?}"),
        }
    }

    /// The traced run itself is deterministic: same seed, byte-identical
    /// trace and metrics exports.
    #[test]
    fn traced_runs_export_identical_bytes(
        nodes in 2usize..6,
        seed in 0u64..100,
    ) {
        let alg = Algorithm::LogisticRegression { features: 3 };
        let ds = data::generate(&alg, 64, seed);
        let init = data::init_model(&alg, seed ^ 7);
        let run = || {
            let trainer = ClusterTrainer::new(ClusterConfig {
                nodes,
                groups: 1,
                threads_per_node: 1,
                minibatch: 16,
                learning_rate: 0.1,
                epochs: 1,
                aggregation: Aggregation::Average,
                faults: FaultPlan::random(seed, nodes, 4, 4, &FaultRates {
                    straggle: 0.2,
                    straggle_factor: 2.0,
                    drop_chunk: 0.1,
                    ..FaultRates::default()
                }),
                ..ClusterConfig::default()
            })
            .expect("valid config");
            let sink = TraceSink::new();
            trainer.train_traced(&alg, &ds, init.clone(), &sink).expect("run survives");
            (sink.chrome_trace_json(), sink.metrics_json())
        };
        let (trace_a, metrics_a) = run();
        let (trace_b, metrics_b) = run();
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }
}
