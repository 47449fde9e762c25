//! Figure 11: Performance-per-Watt of the 3-node FPGA and P-ASIC systems
//! relative to the 3-GPU system.
//!
//! Paper: 4.2× (FPGA), 6.9× (P-ASIC-F), 8.2× (P-ASIC-G).

use cosmic_core::cosmic_arch::{AcceleratorSpec, CpuSpec, GpuSpec, Platform};
use cosmic_core::cosmic_baseline::power::{cluster_power_w, perf_per_watt};
use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};

use crate::figures::FigureCtx;
use crate::harness::{cosmic_training_time_s, geomean, AccelKind, EPOCHS};

/// Nodes in the comparison cluster.
pub(crate) const NODES: usize = 3;

fn platform(accel: AccelKind) -> Platform {
    let cpu = CpuSpec::xeon_e3();
    match accel {
        AccelKind::Fpga => Platform::Accelerated(cpu, AcceleratorSpec::fpga_vu9p()),
        AccelKind::PasicF => Platform::Accelerated(cpu, AcceleratorSpec::pasic_f()),
        AccelKind::PasicG => Platform::Accelerated(cpu, AcceleratorSpec::pasic_g()),
        AccelKind::Gpu => Platform::Gpu(cpu, GpuSpec::k40c()),
    }
}

/// Performance-per-Watt relative to the 3-GPU system, for
/// `[FPGA, P-ASIC-F, P-ASIC-G]`.
pub(crate) fn ratios(id: BenchmarkId) -> [f64; 3] {
    let b = DEFAULT_MINIBATCH;
    let ppw = |accel: AccelKind| {
        let t = cosmic_training_time_s(id, accel, NODES, b, EPOCHS);
        perf_per_watt(t, cluster_power_w(platform(accel), NODES))
    };
    let gpu = ppw(AccelKind::Gpu);
    [AccelKind::Fpga, AccelKind::PasicF, AccelKind::PasicG].map(|a| ppw(a) / gpu)
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 11 — Performance-per-Watt vs the 3-GPU system\n\n\
         | benchmark | FPGA | P-ASIC-F | P-ASIC-G |\n\
         |---|---|---|---|\n",
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for id in BenchmarkId::all() {
        let r = ratios(id);
        out.push_str(&format!("| {id} | {:.1} | {:.1} | {:.1} |\n", r[0], r[1], r[2]));
        for (c, v) in cols.iter_mut().zip(r) {
            c.push(v);
        }
    }
    let g: Vec<f64> = cols.iter().map(|c| geomean(c)).collect();
    out.push_str(&format!("| **geomean** | {:.1} | {:.1} | {:.1} |\n", g[0], g[1], g[2]));
    out.push_str("\nPaper: 4.2x / 6.9x / 8.2x for FPGA / P-ASIC-F / P-ASIC-G.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: [BenchmarkId; 4] =
        [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens, BenchmarkId::Face];

    #[test]
    fn accelerators_beat_gpu_on_efficiency() {
        let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for id in SAMPLE {
            for (c, v) in per_col.iter_mut().zip(ratios(id)) {
                c.push(v);
            }
        }
        let g: Vec<f64> = per_col.iter().map(|c| geomean(c)).collect();
        assert!(g[0] > 1.0, "FPGA perf/W must beat GPU: {:.2}", g[0]);
        assert!(g[1] > g[0], "P-ASIC-F must beat FPGA: {:.2} vs {:.2}", g[1], g[0]);
        assert!(g[2] > 1.0, "P-ASIC-G must beat GPU: {:.2}", g[2]);
    }

    #[test]
    fn pasic_f_is_most_frugal_platform() {
        // 11 W vs 42 W at similar throughput on bandwidth-bound work.
        let [fpga, f, _] = ratios(BenchmarkId::Stock);
        assert!(f > 1.5 * fpga, "stock: {f:.1} vs {fpga:.1}");
    }
}
