//! Figure 8: scalability — each system's speedup over its *own* 4-node
//! configuration as the cluster grows to 8 and 16 nodes.
//!
//! Paper: CoSMIC reaches 1.8× / 2.7× at 8 / 16 nodes; Spark 1.3× / 1.8×.

use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};

use crate::figures::FigureCtx;
use crate::harness::{cosmic_training_time_s, geomean, spark_training_time_s, AccelKind, EPOCHS};

/// `(cosmic_8, cosmic_16, spark_8, spark_16)` self-relative speedups.
pub fn scaling(id: BenchmarkId) -> (f64, f64, f64, f64) {
    let b = DEFAULT_MINIBATCH;
    let c4 = cosmic_training_time_s(id, AccelKind::Fpga, 4, b, EPOCHS);
    let c8 = cosmic_training_time_s(id, AccelKind::Fpga, 8, b, EPOCHS);
    let c16 = cosmic_training_time_s(id, AccelKind::Fpga, 16, b, EPOCHS);
    let s4 = spark_training_time_s(id, 4, b, EPOCHS);
    let s8 = spark_training_time_s(id, 8, b, EPOCHS);
    let s16 = spark_training_time_s(id, 16, b, EPOCHS);
    (c4 / c8, c4 / c16, s4 / s8, s4 / s16)
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 8 — Scalability vs own 4-node configuration\n\n\
         | benchmark | CoSMIC 8 | CoSMIC 16 | Spark 8 | Spark 16 |\n\
         |---|---|---|---|---|\n",
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for id in BenchmarkId::all() {
        let (c8, c16, s8, s16) = scaling(id);
        out.push_str(&format!("| {id} | {c8:.2} | {c16:.2} | {s8:.2} | {s16:.2} |\n"));
        for (c, v) in cols.iter_mut().zip([c8, c16, s8, s16]) {
            c.push(v);
        }
    }
    let g: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    out.push_str(&format!(
        "| **geomean** | {:.2} | {:.2} | {:.2} | {:.2} |\n",
        g[0], g[1], g[2], g[3]
    ));
    out.push_str("\nPaper: CoSMIC 1.8x/2.7x at 8/16 nodes; Spark 1.3x/1.8x.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: [BenchmarkId; 4] =
        [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens, BenchmarkId::Face];

    #[test]
    fn cosmic_scales_better_than_spark_on_communication_heavy_benchmarks() {
        // Paper §7.2: "the improvement gap ... is larger for the
        // benchmarks that have higher ratio of communication to
        // computation (stock, texture, tumor, cancer1, face, cancer2)";
        // the compute-bound four scale *less* steeply than Spark.
        let heavy = [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Face];
        let mut c16s = Vec::new();
        let mut s16s = Vec::new();
        for id in heavy {
            let (c8, c16, s8, s16) = scaling(id);
            assert!(c16 > c8, "{id}: 16-node CoSMIC must beat 8-node");
            assert!(s16 >= s8 * 0.95, "{id}: Spark must not collapse");
            c16s.push(c16);
            s16s.push(s16);
        }
        assert!(
            geomean(&c16s) > geomean(&s16s) * 0.95,
            "CoSMIC must scale at least as well on the communication-heavy set: {:.2} vs {:.2}",
            geomean(&c16s),
            geomean(&s16s)
        );
    }

    #[test]
    fn scaling_is_sublinear_for_both() {
        for id in SAMPLE {
            let (_, c16, _, s16) = scaling(id);
            assert!(c16 < 4.0, "{id}: 4x nodes cannot give {c16}x");
            assert!(s16 < 4.0, "{id}");
        }
    }
}
