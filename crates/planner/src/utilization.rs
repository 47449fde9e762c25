//! FPGA resource-utilization model (Table 3).
//!
//! Per-PE costs are calibrated against Table 3's published numbers: the
//! 768-PE full-fabric designs (mnist, movielens, …) use ~851 K LUTs and
//! ~772 K flip-flops, giving ≈1,100 LUTs and ≈1,000 FFs per PE plus a
//! fixed fabric overhead (memory interface, shifter, buses); each PE's
//! ALU consumes ~5.3 DSP slices (4,070 DSPs / 768 PEs). BRAM is allocated
//! in 4.5-KB blocks divided evenly among active PEs, which keeps the
//! published 83–89 % BRAM utilization across all benchmarks.

use cosmic_arch::AcceleratorSpec;
use cosmic_dfg::{analysis, Dfg};

use crate::plan::DesignPoint;

/// LUTs per PE (datapath muxing, scheduler, pipeline control).
pub(crate) const LUTS_PER_PE: f64 = 1_085.0;
/// Extra LUTs per PE carrying a non-linear (LUT-unit) operator.
pub(crate) const LUTS_PER_NONLINEAR: f64 = 640.0;
/// Fixed fabric overhead (memory interface, shifter, tree bus, AXI).
pub(crate) const LUTS_OVERHEAD: f64 = 15_000.0;
/// Flip-flops per PE (five pipeline stages of 32-bit registers).
pub(crate) const FFS_PER_PE: f64 = 985.0;
/// Fixed flip-flop overhead.
pub(crate) const FFS_OVERHEAD: f64 = 12_000.0;
/// DSP slices consumed by each PE's ALU (32-bit multiply + add).
pub(crate) const DSPS_PER_PE: f64 = 5.3;
/// BRAM block granularity in KB (a Xilinx 36-Kb block).
pub(crate) const BRAM_BLOCK_KB: f64 = 4.5;

/// One benchmark's resource usage at a design point — a row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Threads per FPGA at the chosen point.
    pub threads: usize,
    /// LUTs used.
    pub luts: u64,
    /// LUT utilization (0..1).
    pub luts_frac: f64,
    /// Flip-flops used.
    pub flip_flops: u64,
    /// FF utilization (0..1).
    pub ffs_frac: f64,
    /// BRAM bytes used.
    pub bram_bytes: u64,
    /// BRAM utilization (0..1).
    pub bram_frac: f64,
    /// DSP slices used.
    pub dsps: u64,
    /// DSP utilization (0..1).
    pub dsps_frac: f64,
}

/// Estimates FPGA resource utilization for a DFG compiled at a design
/// point on `spec`.
pub fn utilization(dfg: &Dfg, spec: &AcceleratorSpec, point: DesignPoint) -> Utilization {
    let active_pes = (point.rows() * spec.columns) as f64;
    let nonlinear_pes = if analysis::uses_nonlinear(dfg) {
        // The compiler instantiates the LUT unit only where a non-linear
        // op is scheduled; reductions concentrate them in roughly one PE
        // per row per thread.
        (point.rows() as f64).max(1.0)
    } else {
        0.0
    };

    let luts = (LUTS_OVERHEAD + active_pes * LUTS_PER_PE + nonlinear_pes * LUTS_PER_NONLINEAR)
        .round() as u64;
    let ffs = (FFS_OVERHEAD + active_pes * FFS_PER_PE).round() as u64;
    let dsps = (active_pes * DSPS_PER_PE).round() as u64;

    // BRAM: divide the block budget evenly among active PEs; every active
    // PE takes its blocks (data + model + interim partitions).
    let total_blocks = (spec.sram_kb as f64 / BRAM_BLOCK_KB).floor();
    let blocks_per_pe = (total_blocks / active_pes).floor().max(1.0);
    let bram_bytes = (blocks_per_pe * active_pes * BRAM_BLOCK_KB * 1024.0) as u64;

    let cap = |used: u64, total: usize| {
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    };
    Utilization {
        threads: point.threads,
        luts,
        luts_frac: cap(luts, spec.luts),
        flip_flops: ffs,
        ffs_frac: cap(ffs, spec.flip_flops),
        bram_bytes,
        bram_frac: cap(bram_bytes, spec.sram_kb * 1024),
        dsps,
        dsps_frac: cap(dsps, spec.dsp_slices),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_dfg::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn dfg(name: &str, n: usize) -> Dfg {
        let env = DimEnv::new().with("n", n).with("h", 16).with("o", 4).with("k", 8);
        lower(&parse(&programs::by_name(name, 64).unwrap()).unwrap(), &env).unwrap()
    }

    #[test]
    fn full_fabric_matches_table3_ballpark() {
        // Table 3, mnist: 2 threads on all 48 rows -> 851,276 LUTs (72%),
        // 772,029 FFs (32.7%), 4,070 DSPs (59.5%).
        let spec = AcceleratorSpec::fpga_vu9p();
        let u = utilization(
            &dfg("backprop", 64),
            &spec,
            DesignPoint { threads: 2, rows_per_thread: 24 },
        );
        assert!((0.65..0.80).contains(&u.luts_frac), "LUT frac {}", u.luts_frac);
        assert!((0.28..0.38).contains(&u.ffs_frac), "FF frac {}", u.ffs_frac);
        assert!((0.50..0.70).contains(&u.dsps_frac), "DSP frac {}", u.dsps_frac);
        assert!(u.bram_frac > 0.60, "BRAM frac {}", u.bram_frac);
    }

    #[test]
    fn quarter_fabric_matches_table3_ballpark() {
        // Table 3, stock: 8 threads on 16 rows -> 278,838 LUTs (23.6%),
        // 1,320 DSPs (19.3%).
        let spec = AcceleratorSpec::fpga_vu9p();
        let u =
            utilization(&dfg("linreg", 128), &spec, DesignPoint { threads: 8, rows_per_thread: 2 });
        assert!((0.18..0.30).contains(&u.luts_frac), "LUT frac {}", u.luts_frac);
        assert!((0.15..0.25).contains(&u.dsps_frac), "DSP frac {}", u.dsps_frac);
    }

    #[test]
    fn nonlinear_benchmarks_use_more_luts() {
        let spec = AcceleratorSpec::fpga_vu9p();
        let point = DesignPoint { threads: 4, rows_per_thread: 4 };
        let lin = utilization(&dfg("linreg", 64), &spec, point);
        let log = utilization(&dfg("logreg", 64), &spec, point);
        assert!(log.luts > lin.luts, "sigmoid LUT units cost LUTs");
        assert_eq!(log.flip_flops, lin.flip_flops);
    }

    #[test]
    fn utilization_scales_with_active_rows() {
        let spec = AcceleratorSpec::fpga_vu9p();
        let small =
            utilization(&dfg("svm", 64), &spec, DesignPoint { threads: 1, rows_per_thread: 4 });
        let large =
            utilization(&dfg("svm", 64), &spec, DesignPoint { threads: 4, rows_per_thread: 12 });
        assert!(large.luts > small.luts);
        assert!(large.dsps > small.dsps);
        assert!(large.dsps_frac <= 1.0);
    }
}
