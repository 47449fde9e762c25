//! A job creates its threads once: the compute crew's helpers,
//! `min(NODES × THREADS, available_parallelism) − 1` of them and nothing
//! else — the crew is as wide as the host, and the engine's own thread
//! is its first worker, so on one core there are none — at the start of
//! `train`, and then not one thread an iteration — the `Sim` round's
//! caller is its wire and stages every stream into Sigma — and none of
//! them outlives `train`, whether it returns `Ok` or an error.
//!
//! This binary holds exactly one test on purpose — thread ids and the
//! thread count are process-wide, and a sibling test running beside it
//! would move both.

use cosmic_ml::{data, Algorithm};
use cosmic_runtime::{ClusterConfig, ClusterTrainer, FaultPlan, RuntimeError};

mod common;
use common::{probe, settled, threads};

const NODES: usize = 4;
const THREADS: usize = 2;

/// Trains `iterations` iterations over `Sim` under `faults` and returns
/// the result with the number of threads the call created.
fn train(iterations: usize, faults: FaultPlan) -> (Result<usize, RuntimeError>, u64) {
    let alg = Algorithm::LinearRegression { features: 8 };
    let minibatch = 2 * NODES * THREADS;
    let ds = data::generate(&alg, minibatch * iterations, 5);
    let cfg = ClusterConfig {
        nodes: NODES,
        groups: 1,
        threads_per_node: THREADS,
        minibatch,
        faults,
        ..ClusterConfig::default()
    };
    let trainer = ClusterTrainer::new(cfg).expect("valid config");
    let before = probe();
    let result = trainer.train(&alg, &ds, data::init_model(&alg, 1));
    (result.map(|out| out.iterations), probe() - before - 1)
}

#[test]
fn a_job_creates_its_compute_threads_once_and_takes_them_with_it() {
    const SHORT: usize = 8;
    let before = threads();

    let (short, created_short) = train(SHORT, FaultPlan::none());
    assert_eq!(short, Ok(SHORT));
    assert_eq!(settled(before), before, "a thread outlived an Ok train()");
    let (long, created_long) = train(4 * SHORT, FaultPlan::none());
    assert_eq!(long, Ok(4 * SHORT));
    assert_eq!(settled(before), before, "a thread outlived an Ok train()");

    // The compute crew's helpers are the job's only threads: Sigma owns
    // none, and the engine's thread works one accelerator thread's jobs.
    let width = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(
        created_short,
        ((NODES * THREADS).min(width) - 1) as u64,
        "a job created {created_short} threads; its crew is min({NODES} x {THREADS}, {width} \
         cores) less the engine"
    );
    // And a `Sim` round runs on the engine's own thread: four times the
    // iterations, not one thread more.
    assert_eq!(
        created_long,
        created_short,
        "{SHORT} iterations created {created_short} threads and {} created {created_long}: \
         something creates threads per iteration again",
        4 * SHORT,
    );

    let doomed = (0..NODES).fold(FaultPlan::none(), |plan, node| plan.crash(node, 2));
    let (failed, _) = train(SHORT, doomed);
    assert_eq!(failed, Err(RuntimeError::AllNodesFailed { iteration: 2 }));
    assert_eq!(settled(before), before, "a thread outlived a failed train()");
}
