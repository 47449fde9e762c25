//! Figure 13: fraction of 3-FPGA-CoSMIC runtime spent computing vs
//! communicating, as the mini-batch size grows from 500 to 100,000.
//!
//! Paper: computation is 12% of runtime at b = 500 and 95% at b = 100,000
//! — larger batches amortize the aggregation rounds.

use cosmic_core::cosmic_ml::{suite::WORD_BYTES, BenchmarkId};
use cosmic_core::cosmic_runtime::{ClusterTiming, FaultTimingModel, NodeCompute};
use cosmic_core::cosmic_telemetry::TraceSink;

use crate::figures::FigureCtx;
use crate::harness::{cosmic_node_rps, AccelKind};

/// The swept mini-batch sizes (as in Figure 12).
pub(crate) const BATCHES: [usize; 6] = [500, 1_000, 5_000, 10_000, 50_000, 100_000];

/// Nodes in the breakdown cluster.
pub(crate) const NODES: usize = 3;

/// Compute fraction of the iteration time for one benchmark at one batch
/// size, booking the iteration's phase spans and wire-byte counters
/// into `sink` (fault-free timing model).
pub fn compute_fraction(id: BenchmarkId, minibatch: usize, sink: &TraceSink) -> f64 {
    let bench = id.benchmark();
    let timing = ClusterTiming::commodity(NODES, 1);
    let node = NodeCompute { records_per_sec: cosmic_node_rps(id, AccelKind::Fpga, minibatch) };
    let exchange = bench.exchanged_params(minibatch.div_ceil(NODES)) * WORD_BYTES;
    let faults = FaultTimingModel::none();
    let it = timing
        .model(minibatch, node, exchange)
        .with_faults(&faults)
        .traced(sink)
        .evaluate()
        .unwrap_or_default();
    it.compute_s / it.total_s()
}

/// Mean compute fraction across all ten benchmarks.
pub(crate) fn mean_compute_fraction(minibatch: usize) -> f64 {
    let ids = BenchmarkId::all();
    let sink = TraceSink::new();
    ids.iter().map(|&id| compute_fraction(id, minibatch, &sink)).sum::<f64>() / ids.len() as f64
}

/// Renders the figure: every per-benchmark cell books its iteration
/// spans and wire bytes into the context's sink (the mean row discards
/// its telemetry so counters are not double-booked).
pub(crate) fn run(ctx: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 13 — Fraction of 3-FPGA-CoSMIC runtime (compute vs communication)\n\n\
         | benchmark | b=500 | b=1k | b=5k | b=10k | b=50k | b=100k |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for id in BenchmarkId::all() {
        let cells: Vec<String> = BATCHES
            .iter()
            .map(|&b| format!("{:.0}%", 100.0 * compute_fraction(id, b, &ctx.sink)))
            .collect();
        out.push_str(&format!("| {id} | {} |\n", cells.join(" | ")));
    }
    let means: Vec<String> =
        BATCHES.iter().map(|&b| format!("{:.0}%", 100.0 * mean_compute_fraction(b))).collect();
    out.push_str(&format!("| **mean** | {} |\n", means.join(" | ")));
    out.push_str("\nPaper: computation is 12% of runtime at b=500 and 95% at b=100,000.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fraction(id: BenchmarkId, minibatch: usize) -> f64 {
        compute_fraction(id, minibatch, &TraceSink::new())
    }

    #[test]
    fn compute_share_grows_with_batch_size() {
        for id in [BenchmarkId::Mnist, BenchmarkId::Stock, BenchmarkId::Tumor] {
            let small = fraction(id, 500);
            let large = fraction(id, 100_000);
            assert!(large > small, "{id}: {small:.2} -> {large:.2}");
        }
    }

    #[test]
    fn extremes_straddle_the_halfway_point() {
        // Paper: 12% at b=500, 95% at b=100k. Tolerant band on the mean of
        // three cheap benchmarks.
        let ids = [BenchmarkId::Stock, BenchmarkId::Texture, BenchmarkId::Tumor];
        let small: f64 = ids.iter().map(|&i| fraction(i, 500)).sum::<f64>() / ids.len() as f64;
        let large: f64 = ids.iter().map(|&i| fraction(i, 100_000)).sum::<f64>() / ids.len() as f64;
        assert!(small < 0.5, "b=500 must be communication-dominated: {small:.2}");
        assert!(large > 0.5, "b=100k must be compute-dominated: {large:.2}");
    }

    #[test]
    fn fractions_are_valid() {
        for &b in &BATCHES {
            let f = fraction(BenchmarkId::Face, b);
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
