//! Figure 15: single-accelerator sensitivity to (a) the number of PEs and
//! (b) the off-chip memory bandwidth.
//!
//! Paper: the backpropagation and collaborative-filtering benchmarks are
//! compute-bound (they gain from PEs), while the regression/SVM
//! benchmarks are bandwidth-bound (more PEs do nothing; more bandwidth
//! helps). No single fixed design suits all algorithms — the case for a
//! reshapeable template.

use cosmic_core::cosmic_arch::AcceleratorSpec;
use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};
use cosmic_core::cosmic_planner;

use crate::figures::FigureCtx;
use crate::harness::full_dfg;

/// Swept PE counts (rows × 16 columns), up to the full 768-PE fabric.
pub(crate) const PE_SWEEP: [usize; 6] = [32, 64, 128, 256, 512, 768];

/// Swept bandwidth multipliers over the 9.6 GB/s baseline.
pub(crate) const BW_SWEEP: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

fn rps(id: BenchmarkId, spec: &AcceleratorSpec) -> f64 {
    cosmic_planner::plan(full_dfg(id), spec, DEFAULT_MINIBATCH).best.records_per_sec
}

/// Throughput at each swept PE count, normalized to the first point.
pub(crate) fn pe_sensitivity(id: BenchmarkId) -> Vec<(usize, f64)> {
    let base = AcceleratorSpec::fpga_vu9p();
    let mut first = None;
    PE_SWEEP
        .iter()
        .map(|&pes| {
            let spec = AcceleratorSpec { total_pes: pes, ..base };
            let v = rps(id, &spec);
            let norm = *first.get_or_insert(v);
            (pes, v / norm)
        })
        .collect()
}

/// Throughput at each swept bandwidth, normalized to the first point.
pub(crate) fn bw_sensitivity(id: BenchmarkId) -> Vec<(f64, f64)> {
    let base = AcceleratorSpec::fpga_vu9p();
    let mut first = None;
    BW_SWEEP
        .iter()
        .map(|&mult| {
            let spec = AcceleratorSpec { bandwidth_gbps: base.bandwidth_gbps * mult, ..base };
            let v = rps(id, &spec);
            let norm = *first.get_or_insert(v);
            (mult, v / norm)
        })
        .collect()
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 15(a) — Speedup vs number of PEs (normalized to 32 PEs)\n\n\
         | benchmark | 32 | 64 | 128 | 256 | 512 | 768 |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for id in BenchmarkId::all() {
        let cells: Vec<String> =
            pe_sensitivity(id).iter().map(|(_, v)| format!("{v:.2}")).collect();
        out.push_str(&format!("| {id} | {} |\n", cells.join(" | ")));
    }
    out.push_str(
        "\n## Figure 15(b) — Speedup vs off-chip bandwidth (normalized to 0.25x of 9.6 GB/s)\n\n\
         | benchmark | 0.25x | 0.5x | 1x | 2x | 4x |\n\
         |---|---|---|---|---|---|\n",
    );
    for id in BenchmarkId::all() {
        let cells: Vec<String> =
            bw_sensitivity(id).iter().map(|(_, v)| format!("{v:.2}")).collect();
        out.push_str(&format!("| {id} | {} |\n", cells.join(" | ")));
    }
    out.push_str(
        "\nPaper: backprop + collaborative filtering scale with PEs (compute-bound); \
         the regression/SVM benchmarks only scale with bandwidth.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bound_benchmarks_gain_from_pes() {
        // Collaborative filtering: tiny records, heavy flops/byte.
        let curve = pe_sensitivity(BenchmarkId::Movielens);
        let last = curve.last().unwrap().1;
        assert!(last > 2.0, "movielens must scale with PEs: {curve:?}");
    }

    #[test]
    fn bandwidth_bound_benchmarks_saturate_with_pes() {
        // Tiny fabrics can't even keep up with the memory stream, but once
        // bandwidth binds, more PEs stop helping (paper: stock is flat).
        let curve = pe_sensitivity(BenchmarkId::Stock);
        let at_quarter = curve.iter().find(|(p, _)| *p == 256).unwrap().1;
        let at_full = curve.last().unwrap().1;
        assert!(
            at_full < at_quarter * 1.5,
            "stock must saturate: {at_quarter:.2} at 256 PEs vs {at_full:.2} at 768"
        );
    }

    #[test]
    fn bandwidth_bound_benchmarks_gain_from_bandwidth() {
        let curve = bw_sensitivity(BenchmarkId::Tumor);
        let last = curve.last().unwrap().1;
        assert!(last > 3.0, "tumor must scale with bandwidth: {curve:?}");
    }

    #[test]
    fn curves_are_monotone_nondecreasing() {
        for id in [BenchmarkId::Stock, BenchmarkId::Movielens] {
            for pair in pe_sensitivity(id).windows(2) {
                assert!(pair[1].1 >= pair[0].1 * 0.98, "{id}: {pair:?}");
            }
            for pair in bw_sensitivity(id).windows(2) {
                assert!(pair[1].1 >= pair[0].1 * 0.98, "{id}: {pair:?}");
            }
        }
    }
}
