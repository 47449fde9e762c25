//! Bit-identity of the engine's compute phase across its rewrite from
//! per-iteration scoped threads to resident compute workers.
//!
//! Every literal below was printed by the **parent** commit of that
//! change (f8beccd: `engine::compute::fan_out` opening a
//! `thread::scope` per node per iteration over `Dataset::partition`
//! copies) and pinned before the first edit. A change that claims to
//! keep the per-thread arithmetic, the thread-order node fold with its
//! leading `0.0 +`, the weights and the shard boundaries must reproduce
//! them; they are not to be re-blessed for such a change. On a mismatch
//! the test prints the whole table in literal form.

use cosmic::cosmic_ml::{data, Aggregation, Algorithm};
use cosmic::cosmic_runtime::checkpoint::model_checksum;
use cosmic::cosmic_runtime::{
    ClusterConfig, ClusterTrainer, FaultPlan, MembershipMode, TrainOutcome, TransportKind,
};

use Aggregation::{Average, Sum};
use TransportKind::{Sim, Tcp};

const ALG: Algorithm = Algorithm::LinearRegression { features: 6 };

/// A seeded initial model whose first and fourth weights are `-0.0`,
/// so the first step's copy of the model carries signed zeros into the
/// workers. (Sigma's fold starts from zeros too, which hides the node
/// fold's own leading `0.0 +` end to end; the crew's unit tests in
/// `engine/compute.rs` pin that one directly.)
fn initial_model() -> Vec<f64> {
    let mut model = data::init_model(&ALG, 4);
    model[0] = -0.0;
    model[3] = -0.0;
    model
}

fn train(records: usize, cfg: ClusterConfig) -> TrainOutcome {
    let ds = data::generate(&ALG, records, 13);
    let trainer = ClusterTrainer::new(cfg).expect("valid config");
    trainer.train(&ALG, &ds, initial_model()).expect("recoverable run")
}

/// `model_checksum` of the model and of the loss history's bits.
fn fingerprint(out: &TrainOutcome) -> (u64, u64) {
    (model_checksum(&out.model), model_checksum(&out.loss_history))
}

fn assert_pinned(what: &str, got: &[(String, (u64, u64))], pinned: &[(u64, u64)]) {
    let have: Vec<(u64, u64)> = got.iter().map(|(_, f)| *f).collect();
    if have != pinned {
        let table: Vec<String> = got
            .iter()
            .map(|(row, (m, l))| format!("    (0x{m:016x}, 0x{l:016x}), // {row}"))
            .collect();
        panic!("{what}: bits moved; this tree prints\n{}", table.join("\n"));
    }
}

/// 4 nodes over 103 records: node shards 26/26/26/25, thread shards
/// 9/9/8 and 9/8/8 at three threads (13/13 and 13/12 at two), so the
/// last step of an epoch is ragged for some threads and empty for
/// others. Dense `Sim` and `Tcp` must agree on every row.
#[test]
fn thread_count_aggregation_and_transport_reproduce_the_parent_bits() {
    let pinned = [
        (0xc75d_4d36_cf37_fd2e, 0x2c87_3521_4652_5685), // threads 1 Average
        (0x66e5_c19d_7969_b342, 0x7908_13d7_d0b0_685a), // threads 1 Sum
        (0xa02a_8f35_5728_a122, 0x9526_2f71_513e_3816), // threads 2 Average
        (0x6b81_b5c2_b81f_8695, 0x8e33_e3f0_d97c_1ba4), // threads 2 Sum
        (0x23c3_ff64_5b09_b2f1, 0x8095_8635_bb02_5dcd), // threads 3 Average
        (0xdc9e_2ffa_912c_b87b, 0xb35d_f74d_166e_0ef6), // threads 3 Sum
    ];
    let mut got = Vec::new();
    for threads_per_node in [1, 2, 3] {
        for aggregation in [Average, Sum] {
            let cfg = |transport| ClusterConfig {
                nodes: 4,
                groups: 2,
                threads_per_node,
                minibatch: 24,
                learning_rate: 0.1,
                epochs: 2,
                aggregation,
                transport,
                ..ClusterConfig::default()
            };
            let sim = train(103, cfg(Sim));
            let tcp = train(103, cfg(Tcp));
            let row = format!("threads {threads_per_node} {aggregation:?}");
            assert_eq!(sim.iterations, 10, "{row}");
            assert_eq!(fingerprint(&sim), fingerprint(&tcp), "{row}: Sim vs Tcp");
            got.push((row, fingerprint(&sim)));
        }
    }
    assert_pinned("thread/aggregation matrix", &got, &pinned);
}

/// Nine records on 4 nodes × 2 threads, one record a worker a step: in
/// the second step only node 0's first thread has a record, so three
/// nodes fold nothing and report `(zeros, 0)` and node 0 folds one
/// thread.
#[test]
fn steps_where_whole_nodes_have_no_records_reproduce_the_parent_bits() {
    let pinned = [
        (0xd8c4_0255_a5d9_3e7a, 0xb246_7bae_7f69_8b13), // sparse Average
        (0xc6da_d980_2407_6bf3, 0x26fa_785a_377c_d731), // sparse Sum
    ];
    let mut got = Vec::new();
    for aggregation in [Average, Sum] {
        let out = train(
            9,
            ClusterConfig {
                nodes: 4,
                groups: 1,
                threads_per_node: 2,
                minibatch: 8,
                learning_rate: 0.1,
                epochs: 3,
                aggregation,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(out.iterations, 6);
        got.push((format!("sparse {aggregation:?}"), fingerprint(&out)));
    }
    assert_pinned("sparse steps", &got, &pinned);
}

/// One plan with a crash and rejoin, a partition (quiesced nodes are
/// not dispatched) and a straggler, under both membership modes: in
/// detector mode the partitioned and the crashed node are expelled on
/// silence, keep computing while expelled-but-up, and rejoin through
/// catch-up.
#[test]
fn a_crash_a_partition_and_a_detector_rejoin_reproduce_the_parent_bits() {
    let pinned = [
        (0x91a2_35e7_ff8f_7fab, 0xed36_72e9_04dd_6591), // churn Oracle
        (0x9acc_cafa_b63e_222a, 0x79f2_597a_2a70_0475), // churn Detector
    ];
    let plan =
        FaultPlan::none().crash_then_rejoin(2, 1, 4).partition(3, &[5], 6).straggle(1, 0, 2.0);
    let mut got = Vec::new();
    for membership in [MembershipMode::Oracle, MembershipMode::Detector] {
        let out = train(
            1_915,
            ClusterConfig {
                nodes: 6,
                groups: 2,
                threads_per_node: 2,
                minibatch: 480,
                learning_rate: 0.3,
                epochs: 4,
                faults: plan.clone(),
                membership,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(out.faults.crashes, vec![(1, 2)], "{membership:?}");
        assert_eq!(out.faults.partitions.len(), 1, "{membership:?}");
        assert!(out.faults.rejoins.iter().all(|r| r.matched), "{membership:?}");
        if membership == MembershipMode::Detector {
            let rejoined: Vec<usize> = out.faults.rejoins.iter().map(|r| r.node).collect();
            assert_eq!(rejoined, vec![2, 5], "both expelled nodes came back");
        }
        got.push((format!("churn {membership:?}"), fingerprint(&out)));
    }
    assert_pinned("churn plan", &got, &pinned);
}
