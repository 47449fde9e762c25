//! Figure 10: *computation-only* speedup over the FPGA (system software
//! excluded) for P-ASIC-F, P-ASIC-G, and the GPU.
//!
//! Paper: 1.5× / 11.4× / 1.9× on average, with the GPU spiking on the
//! backpropagation benchmarks (20.3× mnist, 12.8× acoustic) whose
//! matrix-matrix work it executes near peak.

use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};

use crate::figures::FigureCtx;
use crate::harness::{cosmic_node_rps, geomean, AccelKind};

/// Per-node gradient-throughput ratios over the FPGA for
/// `[P-ASIC-F, P-ASIC-G, GPU]`.
pub(crate) fn speedups(id: BenchmarkId) -> [f64; 3] {
    let b = DEFAULT_MINIBATCH;
    let fpga = cosmic_node_rps(id, AccelKind::Fpga, b);
    [AccelKind::PasicF, AccelKind::PasicG, AccelKind::Gpu].map(|a| cosmic_node_rps(id, a, b) / fpga)
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 10 — Computation speedup over FPGA (no system software)\n\n\
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
    out.push_str(
        "\nPaper: 1.5x / 11.4x / 1.9x; GPU spikes on mnist (20.3x) and acoustic (12.8x).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pasic_f_gains_little_on_bandwidth_bound_work() {
        // Same PEs and bandwidth at 6.7x the clock: bandwidth-bound
        // benchmarks barely move (paper's central Fig. 10 observation).
        for id in [BenchmarkId::Stock, BenchmarkId::Texture, BenchmarkId::Cancer2] {
            let [f, ..] = speedups(id);
            assert!((0.9..2.5).contains(&f), "{id}: P-ASIC-F {f:.2}");
        }
    }

    #[test]
    fn pasic_g_dominates_on_compute_bound_work() {
        // mnist's wide matrix work uses P-ASIC-G's 3.75x PEs on top of
        // the shared 6.7x clock advantage.
        let [f, g, _] = speedups(BenchmarkId::Mnist);
        assert!(g > 1.5 * f, "mnist: G {g:.1} must dwarf F {f:.1}");
        // On collaborative filtering the tiny DFG can't use more PEs, so
        // the two P-ASICs converge.
        let [cf_f, cf_g, _] = speedups(BenchmarkId::Movielens);
        assert!(cf_g >= cf_f * 0.9, "movielens: {cf_g:.1} vs {cf_f:.1}");
    }

    #[test]
    fn gpu_spikes_on_backprop() {
        let mnist = speedups(BenchmarkId::Mnist)[2];
        let stock = speedups(BenchmarkId::Stock)[2];
        assert!(
            mnist > 3.0 * stock,
            "GPU must shine on matrix-matrix mnist ({mnist:.1}) vs thin stock ({stock:.1})"
        );
        assert!(mnist > 4.0, "paper reports ~20x; ours must at least be large: {mnist:.1}");
    }
}
