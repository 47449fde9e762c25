//! The raw-speed hot paths, benchmarked reference-vs-optimized.
//!
//! Two paths dominate wall-clock in the stack: the Sigma aggregation
//! fold (`cosmic_runtime::fold`, fed by the zero-copy chunk pipeline)
//! and the cycle-level PE simulator (`cosmic_arch::Machine`). Each kept
//! its original implementation as an always-compiled reference
//! (`fold_parts_reference`, `Machine::run_reference`) precisely so the
//! optimized path can be benchmarked *against* it and proptested
//! bit-identical to it.
//!
//! This module defines the benchmark matrix once; `benches/hotpaths.rs`
//! runs it under `cargo bench`, and the `bench_export` binary runs the
//! same closures in-process, drains the criterion record registry, and
//! folds the measurements into the repo-root `BENCH_<date>.json`
//! trajectory (see EXPERIMENTS.md).

use std::hint::black_box;

use criterion::{Criterion, Throughput};

use cosmic_core::cosmic_arch::{Geometry, Machine};
use cosmic_core::cosmic_compiler::{compile, CompileOptions};
use cosmic_core::cosmic_dfg::{lower, DimEnv};
use cosmic_core::cosmic_dsl::{parse, programs};
use cosmic_core::cosmic_ml::{data, Algorithm};
use cosmic_core::cosmic_runtime::{fold, ClusterConfig, ClusterTrainer};

/// The reference→optimized pairs whose ratio is the headline speedup:
/// `(hot path, reference benchmark id, optimized benchmark id)`.
pub const SPEEDUP_PAIRS: &[(&str, &str, &str)] = &[
    ("fold_kernel", "fold/reference_8x400k", "fold/fused_8x400k"),
    ("machine_cycle_sim", "machine/reference_svm256_64pe", "machine/optimized_svm256_64pe"),
];

/// Registers every hot-path benchmark on `c`. One entry point so the
/// bench target and the export harness measure the identical matrix.
pub fn register(c: &mut Criterion) {
    bench_fold(c);
    bench_machine(c);
    bench_engine_rounds(c);
}

/// The bare fold kernel: 8 peer gradients of 400k words summed into an
/// accumulator, scalar reference vs fused block-sweep.
fn bench_fold(c: &mut Criterion) {
    const PEERS: usize = 8;
    const WORDS: usize = 400_000;
    let parts_data: Vec<Vec<f64>> = (0..PEERS)
        .map(|p| (0..WORDS).map(|i| ((i * 7 + p * 13) % 1009) as f64 / 1009.0).collect())
        .collect();
    let parts: Vec<&[f64]> = parts_data.iter().map(Vec::as_slice).collect();
    let mut sum = vec![0.0f64; WORDS];

    let mut g = c.benchmark_group("fold");
    g.throughput(Throughput::Bytes((8 * WORDS * PEERS) as u64));
    g.bench_function("reference_8x400k", |b| {
        b.iter(|| {
            sum.fill(0.0);
            fold::fold_parts_reference(&mut sum, &parts);
            black_box(sum[0])
        })
    });
    g.bench_function("fused_8x400k", |b| {
        b.iter(|| {
            sum.fill(0.0);
            fold::fold_parts(&mut sum, &parts);
            black_box(sum[0])
        })
    });
    g.finish();
}

/// The cycle-level PE simulator on the compiled 256-feature SVM over a
/// 4x16 geometry: per-cycle reference loop vs
/// the prepared-stream, idle-skipping optimized loop.
fn bench_machine(c: &mut Criterion) {
    let program = parse(&programs::svm(10_000)).expect("svm parses");
    let dfg = lower(&program, &DimEnv::new().with("n", 256)).expect("svm lowers");
    let geometry = Geometry::new(4, 16);
    let compiled = compile(&dfg, geometry, &CompileOptions::default());
    let record: Vec<f64> = (0..257).map(|i| (i % 13) as f64 / 13.0).collect();
    let model: Vec<f64> = (0..256).map(|i| (i % 7) as f64 / 7.0).collect();
    let machine = Machine::new(geometry, 16.0);

    let mut g = c.benchmark_group("machine");
    g.bench_function("reference_svm256_64pe", |b| {
        b.iter(|| {
            black_box(
                machine
                    .run_reference(&compiled.program, &record, &model)
                    .expect("reference run succeeds")
                    .cycles,
            )
        })
    });
    g.bench_function("optimized_svm256_64pe", |b| {
        b.iter(|| {
            black_box(machine.run(&compiled.program, &record, &model).expect("run succeeds").cycles)
        })
    });
    g.finish();
}

/// The engine rounds path end to end: one epoch of the functional
/// cluster trainer (4 nodes, hierarchical aggregation through the
/// Sigma pipeline) on a 64-feature SVM. No reference twin — this
/// trajectory entry watches the composition of the two optimized hot
/// paths plus the zero-copy chunk hand-offs.
fn bench_engine_rounds(c: &mut Criterion) {
    let alg = Algorithm::Svm { features: 64 };
    let dataset = data::generate(&alg, 1_024, 5);
    let init = data::init_model(&alg, 5);
    let trainer =
        ClusterTrainer::new(ClusterConfig { nodes: 4, minibatch: 256, ..ClusterConfig::default() })
            .expect("valid bench configuration");

    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(1_024));
    g.bench_function("rounds_svm64_4nodes_1epoch", |b| {
        b.iter(|| {
            let out = trainer.train(&alg, &dataset, init.clone()).expect("healthy run");
            black_box(out.model[0])
        })
    });
    g.finish();
}
