//! Figure 12: performance vs mini-batch size, swept from 500 to 100,000
//! on the three-node system; baseline is three-node Spark at b = 10,000.
//!
//! Paper: CoSMIC wins across the whole sweep — 16.8× at b = 500,
//! narrowing to 9.1× at b = 100,000 as Spark's per-iteration overheads
//! amortize.

use cosmic_core::cosmic_ml::BenchmarkId;

use crate::figures::FigureCtx;
use crate::harness::{cosmic_training_time_s, geomean, spark_training_time_s, AccelKind, EPOCHS};

/// The swept mini-batch sizes.
pub const BATCHES: [usize; 6] = [500, 1_000, 5_000, 10_000, 50_000, 100_000];

/// Nodes in the sweep cluster.
pub(crate) const NODES: usize = 3;

/// Speedup over 3-node Spark @ b=10,000 for `(cosmic, spark)` at each
/// swept batch size.
pub fn sweep(id: BenchmarkId) -> Vec<(usize, f64, f64)> {
    let baseline = spark_training_time_s(id, NODES, 10_000, EPOCHS);
    BATCHES
        .iter()
        .map(|&b| {
            let cosmic = baseline / cosmic_training_time_s(id, AccelKind::Fpga, NODES, b, EPOCHS);
            let spark = baseline / spark_training_time_s(id, NODES, b, EPOCHS);
            (b, cosmic, spark)
        })
        .collect()
}

/// Geomean CoSMIC-over-Spark ratio at one batch size across benchmarks.
pub(crate) fn cosmic_over_spark(b: usize, ids: &[BenchmarkId]) -> f64 {
    let ratios: Vec<f64> = ids
        .iter()
        .map(|&id| {
            spark_training_time_s(id, NODES, b, EPOCHS)
                / cosmic_training_time_s(id, AccelKind::Fpga, NODES, b, EPOCHS)
        })
        .collect();
    geomean(&ratios)
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 12 — Performance vs mini-batch size (3 nodes; baseline: 3-node Spark b=10,000)\n\n\
         | benchmark | system | b=500 | b=1k | b=5k | b=10k | b=50k | b=100k |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for id in BenchmarkId::all() {
        let rows = sweep(id);
        let fmt = |sel: fn(&(usize, f64, f64)) -> f64| {
            rows.iter().map(|r| format!("{:.2}", sel(r))).collect::<Vec<_>>().join(" | ")
        };
        out.push_str(&format!("| {id} | CoSMIC | {} |\n", fmt(|r| r.1)));
        out.push_str(&format!("| {id} | Spark | {} |\n", fmt(|r| r.2)));
    }
    let all = BenchmarkId::all();
    out.push_str(&format!(
        "\nCoSMIC/Spark geomean: {:.1}x at b=500, {:.1}x at b=100,000 \
         (paper: 16.8x and 9.1x).\n",
        cosmic_over_spark(500, &all),
        cosmic_over_spark(100_000, &all)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: [BenchmarkId; 3] =
        [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens];

    #[test]
    fn cosmic_wins_at_every_batch_size() {
        for id in SAMPLE {
            for (b, cosmic, spark) in sweep(id) {
                assert!(
                    cosmic > spark,
                    "{id} b={b}: CoSMIC {cosmic:.2} must beat Spark {spark:.2}"
                );
            }
        }
    }

    #[test]
    fn gap_narrows_as_batches_grow() {
        // Spark's fixed costs amortize with b, so the ratio shrinks.
        let small = cosmic_over_spark(500, &SAMPLE);
        let large = cosmic_over_spark(100_000, &SAMPLE);
        assert!(small > large, "advantage must narrow: {small:.1}x at 500 vs {large:.1}x at 100k");
        assert!(large > 1.0, "CoSMIC still wins at b=100k: {large:.1}");
    }

    #[test]
    fn both_systems_speed_up_with_larger_batches() {
        for id in SAMPLE {
            let rows = sweep(id);
            assert!(rows.last().unwrap().1 > rows[0].1, "{id}: CoSMIC");
            assert!(rows.last().unwrap().2 > rows[0].2, "{id}: Spark");
        }
    }
}
