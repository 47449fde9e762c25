//! Hardware platform specifications (paper Table 2).
//!
//! The template architecture's PE count and geometry follow from the
//! paper's own consistency: the UltraScale+ accelerator has 48 rows
//! (§7.2: "48, which is the maximum number of rows in UltraScale+") of 16
//! PEs each — 768 PEs, each ALU consuming a handful of the 6,840 DSP
//! slices — matching P-ASIC-F's 768 PEs ("PE count and off-chip bandwidth
//! match those of the FPGAs"), while P-ASIC-G's 2,880 PEs match the
//! GPU's 2,880 CUDA cores.

use std::fmt;

/// Which acceleration platform a spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Xilinx Virtex UltraScale+ VU9P FPGA.
    FpgaVu9p,
    /// P-ASIC-F: programmable ASIC matching the FPGA's PEs and bandwidth.
    PasicF,
    /// P-ASIC-G: programmable ASIC matching the GPU's PEs and bandwidth.
    PasicG,
}

impl fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlatformKind::FpgaVu9p => "FPGA (UltraScale+ VU9P)",
            PlatformKind::PasicF => "P-ASIC-F",
            PlatformKind::PasicG => "P-ASIC-G",
        };
        f.write_str(s)
    }
}

/// Specification of a CoSMIC-capable accelerator chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorSpec {
    /// Which platform this is.
    pub kind: PlatformKind,
    /// Total processing engines available to the Planner.
    pub total_pes: usize,
    /// PEs per row; by the Planner's rule this equals the number of words
    /// the memory interface can deliver per cycle *at the FPGA's design
    /// point* (geometry is fixed by the template).
    pub columns: usize,
    /// Operating frequency in MHz.
    pub freq_mhz: f64,
    /// Off-chip memory bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// On-chip storage budget for PE buffers, in KB (the BRAM budget the
    /// Planner divides among threads).
    pub sram_kb: usize,
    /// Board/chip thermal design power in watts.
    pub tdp_w: f64,
    /// DSP slices (FPGA only; informational for utilization reports).
    pub dsp_slices: usize,
    /// LUT count (FPGA only).
    pub luts: usize,
    /// Flip-flop count (FPGA only).
    pub flip_flops: usize,
}

impl AcceleratorSpec {
    /// The Xilinx UltraScale+ VU9P spec used in the evaluation: 48 rows ×
    /// 16 columns of PEs at 150 MHz, 9.6 GB/s AXI-4 off-chip bandwidth.
    pub fn fpga_vu9p() -> Self {
        AcceleratorSpec {
            kind: PlatformKind::FpgaVu9p,
            total_pes: 768,
            columns: 16,
            freq_mhz: 150.0,
            bandwidth_gbps: 9.6,
            sram_kb: 9_720,
            tdp_w: 42.0,
            dsp_slices: 6_840,
            luts: 1_182_240,
            flip_flops: 2_364_480,
        }
    }

    /// P-ASIC-F: the FPGA's PE count and bandwidth at 1 GHz in 45 nm
    /// (Table 2: 768 PEs, 29 mm², 11 W).
    pub fn pasic_f() -> Self {
        AcceleratorSpec {
            kind: PlatformKind::PasicF,
            total_pes: 768,
            columns: 16,
            freq_mhz: 1000.0,
            bandwidth_gbps: 9.6,
            sram_kb: 9_720,
            tdp_w: 11.0,
            dsp_slices: 0,
            luts: 0,
            flip_flops: 0,
        }
    }

    /// P-ASIC-G: the GPU's PE count and bandwidth at 1 GHz in 45 nm
    /// (Table 2: 2,880 PEs, 105 mm², 37 W).
    pub fn pasic_g() -> Self {
        AcceleratorSpec {
            kind: PlatformKind::PasicG,
            total_pes: 2_880,
            columns: 60,
            freq_mhz: 1000.0,
            bandwidth_gbps: 288.0,
            sram_kb: 24_000,
            tdp_w: 37.0,
            dsp_slices: 0,
            luts: 0,
            flip_flops: 0,
        }
    }

    /// Off-chip words (4 bytes) the memory system can supply per cycle.
    /// For the FPGA this equals `columns` by the Planner's construction;
    /// for the P-ASICs the higher clock makes it smaller or larger.
    pub(crate) fn mem_words_per_cycle(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / (self.freq_mhz * 1e6) / 4.0
    }

    /// Sustained streaming efficiency of the DRAM/AXI path (row misses,
    /// refresh, bus turnaround); applied by the performance models.
    pub(crate) const MEM_EFFICIENCY: f64 = 0.72;

    /// Effective sustained words per cycle.
    pub fn effective_words_per_cycle(&self) -> f64 {
        self.mem_words_per_cycle() * Self::MEM_EFFICIENCY
    }

    /// Maximum number of PE rows (total PEs ÷ columns).
    pub fn max_rows(&self) -> usize {
        self.total_pes / self.columns
    }
}

/// The host CPU of every node (Table 2: Intel Xeon E3-1275 v5, Skylake).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Physical cores.
    pub cores: usize,
    /// Clock in GHz.
    pub freq_ghz: f64,
    /// Peak double-precision flops per cycle per core (AVX2 FMA: 16).
    pub flops_per_cycle: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// TDP in watts.
    pub tdp_w: f64,
}

impl CpuSpec {
    /// Xeon E3-1275 v5: 4 cores @ 3.6 GHz, 80 W.
    pub fn xeon_e3() -> Self {
        CpuSpec { cores: 4, freq_ghz: 3.6, flops_per_cycle: 16.0, mem_bw_gbps: 34.1, tdp_w: 80.0 }
    }

    /// Peak GFLOP/s of the whole socket.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.freq_ghz * self.flops_per_cycle
    }
}

/// The comparison GPU (Table 2: NVIDIA Tesla K40c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// CUDA cores.
    pub cores: usize,
    /// Clock in MHz.
    pub freq_mhz: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// PCIe host↔device bandwidth in GB/s.
    pub pcie_gbps: f64,
    /// Board TDP in watts.
    pub tdp_w: f64,
}

impl GpuSpec {
    /// Tesla K40c: 2,880 cores @ 875 MHz, 288 GB/s, 235 W.
    pub fn k40c() -> Self {
        GpuSpec { cores: 2_880, freq_mhz: 875.0, mem_bw_gbps: 288.0, pcie_gbps: 12.0, tdp_w: 235.0 }
    }

    /// Peak single-precision GFLOP/s (1 FMA = 2 flops per core per cycle).
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.freq_mhz * 1e6 * 2.0 / 1e9
    }
}

/// A complete node-level platform description: host CPU plus an attached
/// accelerator or GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Platform {
    /// CPU plus a CoSMIC template accelerator on PCIe.
    Accelerated(CpuSpec, AcceleratorSpec),
    /// CPU plus a GPU on PCIe (the GPU-CoSMIC configuration).
    Gpu(CpuSpec, GpuSpec),
}

impl Platform {
    /// System power of one node under load, in watts. Host CPUs are not
    /// fully loaded when an accelerator does the gradient work; the
    /// derating mirrors the paper's WattsUp whole-system methodology.
    pub fn node_power_w(&self) -> f64 {
        match *self {
            Platform::Accelerated(c, a) => 0.5 * c.tdp_w + a.tdp_w,
            Platform::Gpu(c, g) => 0.5 * c.tdp_w + g.tdp_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_geometry_matches_paper() {
        let fpga = AcceleratorSpec::fpga_vu9p();
        assert_eq!(fpga.max_rows(), 48, "48 rows is the UltraScale+ maximum (paper §7.2)");
        assert_eq!(fpga.columns, 16);
        // Planner rule: columns = words per cycle from memory.
        assert!((fpga.mem_words_per_cycle() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn pasic_f_matches_fpga_resources() {
        let f = AcceleratorSpec::pasic_f();
        let fpga = AcceleratorSpec::fpga_vu9p();
        assert_eq!(f.total_pes, fpga.total_pes);
        assert_eq!(f.bandwidth_gbps, fpga.bandwidth_gbps);
        // Same bandwidth at a faster clock ⇒ fewer words per cycle.
        assert!(f.mem_words_per_cycle() < fpga.mem_words_per_cycle());
    }

    #[test]
    fn pasic_g_matches_gpu_resources() {
        let g = AcceleratorSpec::pasic_g();
        let gpu = GpuSpec::k40c();
        assert_eq!(g.total_pes, gpu.cores);
        assert_eq!(g.bandwidth_gbps, gpu.mem_bw_gbps);
    }

    #[test]
    fn peak_rates_are_sane() {
        assert!((CpuSpec::xeon_e3().peak_gflops() - 230.4).abs() < 0.1);
        assert!((GpuSpec::k40c().peak_gflops() - 5040.0).abs() < 1.0);
    }

    #[test]
    fn node_power_orders_platforms() {
        let cpu = CpuSpec::xeon_e3();
        let fpga = Platform::Accelerated(cpu, AcceleratorSpec::fpga_vu9p());
        let pasic_f = Platform::Accelerated(cpu, AcceleratorSpec::pasic_f());
        let gpu = Platform::Gpu(cpu, GpuSpec::k40c());
        assert!(pasic_f.node_power_w() < fpga.node_power_w());
        assert!(fpga.node_power_w() < gpu.node_power_w());
    }
}
