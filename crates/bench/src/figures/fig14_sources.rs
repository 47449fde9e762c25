//! Figure 14: where 3-FPGA-CoSMIC's speedup over 3-node Spark comes
//! from — the FPGAs (gradient computation) vs the specialized system
//! software (aggregation, networking, management).
//!
//! Paper: the FPGAs alone are 20.7× faster than Spark's compute; the
//! specialized system software is 28.4× faster than Spark's system side.

use cosmic_core::cosmic_baseline::SparkModel;
use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, suite::WORD_BYTES, BenchmarkId};
use cosmic_core::cosmic_runtime::{ClusterTiming, NodeCompute};

use crate::figures::FigureCtx;
use crate::harness::{cosmic_node_rps, geomean, AccelKind};

/// Nodes in the comparison.
pub(crate) const NODES: usize = 3;

/// `(fpga_speedup, system_software_speedup)` for one benchmark: per-
/// iteration compute-vs-compute and overhead-vs-overhead ratios.
pub fn split(id: BenchmarkId) -> (f64, f64) {
    let b = DEFAULT_MINIBATCH;
    let bench = id.benchmark();

    let spark = SparkModel::v2_cluster().iteration(
        NODES,
        b,
        bench.input_vectors.div_ceil(NODES),
        bench.flops_per_record(),
        bench.bytes_per_record(),
        bench.model_bytes(),
    );

    let timing = ClusterTiming::commodity(NODES, 1);
    let node = NodeCompute { records_per_sec: cosmic_node_rps(id, AccelKind::Fpga, b) };
    let exchange = bench.exchanged_params(b.div_ceil(NODES)) * WORD_BYTES;
    let cosmic = timing.model(b, node, exchange).evaluate().unwrap_or_default();

    (spark.compute_s / cosmic.compute_s, spark.overhead_s() / cosmic.communication_s())
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 14 — Speedup breakdown: FPGAs vs specialized system software (3 nodes)\n\n\
         | benchmark | FPGA (compute) | system software |\n\
         |---|---|---|\n",
    );
    let mut fs = Vec::new();
    let mut ss = Vec::new();
    for id in BenchmarkId::all() {
        let (f, s) = split(id);
        out.push_str(&format!("| {id} | {f:.1} | {s:.1} |\n"));
        fs.push(f);
        ss.push(s);
    }
    out.push_str(&format!("| **geomean** | {:.1} | {:.1} |\n", geomean(&fs), geomean(&ss)));
    out.push_str("\nPaper: FPGAs 20.7x, specialized system software 28.4x over Spark's.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: [BenchmarkId; 4] =
        [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens, BenchmarkId::Face];

    #[test]
    fn both_sources_contribute() {
        for id in SAMPLE {
            let (f, s) = split(id);
            assert!(f > 1.0, "{id}: FPGA factor {f:.2} must exceed 1");
            assert!(s > 1.0, "{id}: system-software factor {s:.2} must exceed 1");
        }
    }

    #[test]
    fn system_software_matters_for_data_bound_benchmarks() {
        // Paper: six benchmarks gain more from the specialized system
        // software than from the FPGAs.
        let with_sw_dominant = SAMPLE
            .iter()
            .filter(|&&id| {
                let (f, s) = split(id);
                s > f * 0.5
            })
            .count();
        assert!(with_sw_dominant >= 2, "system software must matter broadly");
    }
}
