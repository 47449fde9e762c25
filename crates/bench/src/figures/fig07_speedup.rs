//! Figure 7: speedup over the 4-node Spark system as the cluster grows
//! from 4 to 8 to 16 nodes, for Spark and FPGA-CoSMIC.
//!
//! Paper headline: 4/8/16-FPGA-CoSMIC deliver 12.6×/23.1×/33.8× over
//! 4-CPU-Spark on average, while 16-node Spark reaches only 1.8×.

use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};

use crate::figures::FigureCtx;
use crate::harness::{cosmic_training_time_s, geomean, spark_training_time_s, AccelKind, EPOCHS};

/// The five system configurations of the figure (the 4-CPU-Spark
/// baseline is the implicit 1.0).
pub(crate) const CONFIGS: [(&str, bool, usize); 5] = [
    ("8-CPU-Spark", false, 8),
    ("16-CPU-Spark", false, 16),
    ("4-FPGA-CoSMIC", true, 4),
    ("8-FPGA-CoSMIC", true, 8),
    ("16-FPGA-CoSMIC", true, 16),
];

/// Speedups over 4-CPU-Spark for one benchmark, in `CONFIGS` order.
pub fn speedups(id: BenchmarkId) -> [f64; 5] {
    let b = DEFAULT_MINIBATCH;
    let baseline = spark_training_time_s(id, 4, b, EPOCHS);
    let mut out = [0.0; 5];
    for (i, &(_, cosmic, nodes)) in CONFIGS.iter().enumerate() {
        let t = if cosmic {
            cosmic_training_time_s(id, AccelKind::Fpga, nodes, b, EPOCHS)
        } else {
            spark_training_time_s(id, nodes, b, EPOCHS)
        };
        out[i] = baseline / t;
    }
    out
}

/// Renders the figure as a markdown table with a geomean row.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 7 — Speedup over 4-node Spark (baseline: 4-CPU-Spark)\n\n\
         | benchmark | 8-Spark | 16-Spark | 4-FPGA | 8-FPGA | 16-FPGA |\n\
         |---|---|---|---|---|---|\n",
    );
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for id in BenchmarkId::all() {
        let s = speedups(id);
        out.push_str(&format!(
            "| {id} | {:.2} | {:.2} | {:.1} | {:.1} | {:.1} |\n",
            s[0], s[1], s[2], s[3], s[4]
        ));
        for (c, v) in columns.iter_mut().zip(s) {
            c.push(v);
        }
    }
    let g: Vec<f64> = columns.iter().map(|c| geomean(c)).collect();
    out.push_str(&format!(
        "| **geomean** | {:.2} | {:.2} | {:.1} | {:.1} | {:.1} |\n",
        g[0], g[1], g[2], g[3], g[4]
    ));
    out.push_str(
        "\nPaper: 12.6x / 23.1x / 33.8x for 4/8/16-FPGA-CoSMIC; Spark scales 1.8x at 16 nodes.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cheap benchmarks exercise the full path; the complete sweep
    // runs under `cosmic-bench fig07_speedup`.
    const SAMPLE: [BenchmarkId; 4] =
        [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens, BenchmarkId::Face];

    #[test]
    fn cosmic_dominates_spark_and_grows_with_nodes() {
        for id in SAMPLE {
            let s = speedups(id);
            // 16-FPGA > 8-FPGA > 4-FPGA > 1 (CoSMIC scales).
            assert!(s[4] > s[3] && s[3] > s[2], "{id}: {s:?}");
            assert!(s[2] > 1.0, "{id}: 4-FPGA must beat 4-Spark, got {s:?}");
            // Spark's own scaling is sublinear.
            assert!(s[1] < 4.0, "{id}: 16-Spark speedup must stay well under linear");
        }
    }

    #[test]
    fn sixteen_node_band_matches_paper_order_of_magnitude() {
        let vals: Vec<f64> = SAMPLE.iter().map(|&id| speedups(id)[4]).collect();
        let g = geomean(&vals);
        assert!(
            (4.0..150.0).contains(&g),
            "16-FPGA geomean over 4-Spark should be tens-x, got {g:.1}"
        );
    }

    #[test]
    fn report_renders_all_rows() {
        // Uses every benchmark; relies on the process-wide plan cache.
        let report = run(&FigureCtx::default());
        for id in BenchmarkId::all() {
            assert!(report.contains(&id.to_string()), "{id} missing");
        }
        assert!(report.contains("geomean"));
    }
}
