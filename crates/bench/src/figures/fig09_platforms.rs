//! Figure 9: system-wide speedup of the three-node P-ASIC-F, P-ASIC-G,
//! and GPU systems over 3-FPGA-CoSMIC.
//!
//! Paper: 1.2× (P-ASIC-F), 2.3× (P-ASIC-G), 1.5× (GPU) on average —
//! faster silicon does *not* translate proportionally once the system
//! software and network are accounted for.

use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};

use crate::figures::FigureCtx;
use crate::harness::{cosmic_training_time_s, geomean, AccelKind, EPOCHS};

/// Nodes in the in-depth sensitivity cluster (paper: the local 3-node
/// system).
pub(crate) const NODES: usize = 3;

/// Speedups over 3-FPGA for `[P-ASIC-F, P-ASIC-G, GPU]`.
pub fn speedups(id: BenchmarkId) -> [f64; 3] {
    let b = DEFAULT_MINIBATCH;
    let fpga = cosmic_training_time_s(id, AccelKind::Fpga, NODES, b, EPOCHS);
    [AccelKind::PasicF, AccelKind::PasicG, AccelKind::Gpu]
        .map(|accel| fpga / cosmic_training_time_s(id, accel, NODES, b, EPOCHS))
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 9 — System-wide speedup over 3-FPGA-CoSMIC\n\n\
         | benchmark | P-ASIC-F | P-ASIC-G | GPU |\n\
         |---|---|---|---|\n",
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for id in BenchmarkId::all() {
        let s = speedups(id);
        out.push_str(&format!("| {id} | {:.2} | {:.2} | {:.2} |\n", s[0], s[1], s[2]));
        for (c, v) in cols.iter_mut().zip(s) {
            c.push(v);
        }
    }
    let g: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    out.push_str(&format!("| **geomean** | {:.2} | {:.2} | {:.2} |\n", g[0], g[1], g[2]));
    out.push_str("\nPaper: 1.2x / 2.3x / 1.5x — system costs cap the silicon advantage.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: [BenchmarkId; 4] =
        [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens, BenchmarkId::Netflix];

    #[test]
    fn system_wide_gains_are_modest() {
        // The whole point of Figure 9: even 11x-faster silicon yields only
        // small-factor system gains.
        for id in SAMPLE {
            let [f, g, _gpu] = speedups(id);
            assert!((0.5..8.0).contains(&f), "{id}: P-ASIC-F {f:.2}");
            assert!((0.5..13.0).contains(&g), "{id}: P-ASIC-G {g:.2}");
            assert!(g >= f * 0.9, "{id}: P-ASIC-G must not lose to P-ASIC-F");
        }
    }

    #[test]
    fn pasic_g_geomean_above_pasic_f() {
        let fs: Vec<f64> = SAMPLE.iter().map(|&id| speedups(id)[0]).collect();
        let gs: Vec<f64> = SAMPLE.iter().map(|&id| speedups(id)[1]).collect();
        assert!(geomean(&gs) > geomean(&fs));
    }
}
