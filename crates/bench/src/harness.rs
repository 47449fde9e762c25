//! Shared evaluation machinery: benchmark DFGs, per-node throughput for
//! each acceleration platform, and end-to-end training-time composition.

use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

use cosmic_core::cosmic_arch::AcceleratorSpec;
use cosmic_core::cosmic_baseline::{GpuModel, SparkModel};
use cosmic_core::cosmic_dfg::{self, Dfg, DimEnv};
use cosmic_core::cosmic_dsl;
use cosmic_core::cosmic_ml::{suite::WORD_BYTES, Benchmark, BenchmarkId};
use cosmic_core::cosmic_planner::{self, Plan};
use cosmic_core::cosmic_runtime::{ClusterTiming, NodeCompute};

/// Training epochs used throughout the evaluation (paper §7.1: "We train
/// each benchmark for 100 epochs").
pub(crate) const EPOCHS: usize = 100;

/// Which accelerator sits in each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AccelKind {
    /// UltraScale+ VU9P FPGA.
    Fpga,
    /// P-ASIC-F (FPGA-matched).
    PasicF,
    /// P-ASIC-G (GPU-matched).
    PasicG,
    /// Tesla K40c GPU (through the CoSMIC runtime).
    Gpu,
}

impl AccelKind {
    /// The template-accelerator spec, when this platform is one.
    pub(crate) fn spec(self) -> Option<AcceleratorSpec> {
        match self {
            AccelKind::Fpga => Some(AcceleratorSpec::fpga_vu9p()),
            AccelKind::PasicF => Some(AcceleratorSpec::pasic_f()),
            AccelKind::PasicG => Some(AcceleratorSpec::pasic_g()),
            AccelKind::Gpu => None,
        }
    }
}

/// Lowers a benchmark's DSL program at its full Table 1 dimensions.
/// Results are cached for the process lifetime (the backprop graphs run
/// to millions of nodes).
pub(crate) fn full_dfg(id: BenchmarkId) -> &'static Dfg {
    static CACHE: OnceLock<Mutex<HashMap<BenchmarkId, &'static Dfg>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("dfg cache poisoned");
    if let Some(dfg) = guard.get(&id) {
        return dfg;
    }
    let bench = id.benchmark();
    let src = bench.algorithm.dsl_source(cosmic_core::cosmic_ml::suite::DEFAULT_MINIBATCH);
    let program = cosmic_dsl::parse(&src).expect("builtin programs parse");
    let mut env = DimEnv::new();
    for (name, size) in bench.algorithm.dim_bindings() {
        env = env.with(name, size);
    }
    let dfg = Box::leak(Box::new(cosmic_dfg::lower(&program, &env).expect("builtin lowers")));
    guard.insert(id, dfg);
    dfg
}

type PlanCache = Mutex<HashMap<(BenchmarkId, u64, usize), Plan>>;

/// The Planner's output for a benchmark on a template accelerator,
/// memoized per (benchmark, platform, mini-batch).
pub(crate) fn plan_for(id: BenchmarkId, spec: &AcceleratorSpec, minibatch: usize) -> Plan {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    let key = (id, spec.freq_mhz.to_bits() ^ (spec.total_pes as u64), minibatch);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(plan) = cache.lock().expect("plan cache").get(&key) {
        return plan.clone();
    }
    let plan = cosmic_planner::plan(full_dfg(id), spec, minibatch);
    cache.lock().expect("plan cache").insert(key, plan.clone());
    plan
}

/// Per-node gradient throughput (records/s) of one benchmark on one
/// acceleration platform.
pub(crate) fn cosmic_node_rps(id: BenchmarkId, accel: AccelKind, minibatch: usize) -> f64 {
    let bench = id.benchmark();
    match accel.spec() {
        Some(spec) => plan_for(id, &spec, minibatch).best.records_per_sec,
        None => {
            // GPU node: roofline per algorithm family; a 3-node split of
            // the dataset decides residency vs PCIe streaming.
            let gpu = GpuModel::k40c();
            let partition = (bench.input_gb * 1e9 / 3.0) as usize;
            gpu.records_per_sec(
                &bench.algorithm,
                bench.flops_per_record(),
                bench.bytes_per_record(),
                partition,
            )
        }
    }
}

/// End-to-end CoSMIC training time: accelerator compute + PCIe +
/// hierarchical aggregation + broadcast, for `nodes` nodes.
pub(crate) fn cosmic_training_time_s(
    id: BenchmarkId,
    accel: AccelKind,
    nodes: usize,
    minibatch: usize,
    epochs: usize,
) -> f64 {
    let bench = id.benchmark();
    let groups = cosmic_core::cosmic_runtime::collectives::default_groups(nodes);
    let timing = ClusterTiming::commodity(nodes, groups);
    let node = NodeCompute { records_per_sec: cosmic_node_rps(id, accel, minibatch) };
    let exchange = exchange_bytes(&bench, minibatch, nodes);
    let mut total = timing.training_time_s(bench.input_vectors, minibatch, epochs, node, exchange);
    if accel == AccelKind::Gpu {
        // The GPU pays kernel-launch + model staging per mini-batch on
        // top of the shared runtime costs.
        let iterations = bench.input_vectors.div_ceil(minibatch).max(1) * epochs;
        total += iterations as f64 * GpuModel::k40c().minibatch_overhead_s(exchange);
    }
    total
}

/// End-to-end Spark training time for the same workload.
pub(crate) fn spark_training_time_s(
    id: BenchmarkId,
    nodes: usize,
    minibatch: usize,
    epochs: usize,
) -> f64 {
    let bench = id.benchmark();
    SparkModel::v2_cluster().training_time_s(
        nodes,
        bench.input_vectors,
        minibatch,
        epochs,
        bench.flops_per_record(),
        bench.bytes_per_record(),
        bench.model_bytes(),
    )
}

/// Bytes each node ships per aggregation round.
pub(crate) fn exchange_bytes(bench: &Benchmark, minibatch: usize, nodes: usize) -> usize {
    bench.exchanged_params(minibatch.div_ceil(nodes)) * WORD_BYTES
}

/// Geometric mean of a slice of positive values.
pub(crate) fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dfg_cache_returns_same_reference() {
        let a = full_dfg(BenchmarkId::Tumor) as *const Dfg;
        let b = full_dfg(BenchmarkId::Tumor) as *const Dfg;
        assert_eq!(a, b);
    }

    #[test]
    fn tumor_dfg_has_full_dimensions() {
        let dfg = full_dfg(BenchmarkId::Tumor);
        assert_eq!(dfg.model_len(), 2_000);
        assert_eq!(dfg.data_len(), 2_001);
    }

    #[test]
    fn pasic_g_outruns_fpga_on_compute_bound_work() {
        let b = 10_000;
        let fpga = cosmic_node_rps(BenchmarkId::Movielens, AccelKind::Fpga, b);
        let g = cosmic_node_rps(BenchmarkId::Movielens, AccelKind::PasicG, b);
        assert!(g > fpga, "P-ASIC-G {g} must beat FPGA {fpga}");
    }

    #[test]
    fn pasic_f_ties_fpga_on_bandwidth_bound_work() {
        // Same bandwidth, higher clock: bandwidth-bound stock gains little.
        let b = 10_000;
        let fpga = cosmic_node_rps(BenchmarkId::Stock, AccelKind::Fpga, b);
        let f = cosmic_node_rps(BenchmarkId::Stock, AccelKind::PasicF, b);
        let ratio = f / fpga;
        assert!((0.8..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cosmic_beats_spark_on_every_benchmark_at_16_nodes() {
        for id in BenchmarkId::all() {
            // CF DFGs are tiny; use them plus two dense ones to keep the
            // test fast — the full sweep runs under `cosmic-bench`.
            if !matches!(id, BenchmarkId::Movielens | BenchmarkId::Tumor | BenchmarkId::Face) {
                continue;
            }
            let cosmic = cosmic_training_time_s(id, AccelKind::Fpga, 16, 10_000, 1);
            let spark = spark_training_time_s(id, 16, 10_000, 1);
            assert!(cosmic < spark, "{id}: CoSMIC {cosmic:.1}s must beat Spark {spark:.1}s");
        }
    }
}
