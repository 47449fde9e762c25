//! Table 2: the CPU, GPU, FPGA, and P-ASIC platform specifications.

use cosmic_core::cosmic_arch::{AcceleratorSpec, CpuSpec, GpuSpec};

use crate::figures::FigureCtx;

/// Renders the table.
pub fn run(_: &FigureCtx) -> String {
    let cpu = CpuSpec::xeon_e3();
    let gpu = GpuSpec::k40c();
    let fpga = AcceleratorSpec::fpga_vu9p();
    let pf = AcceleratorSpec::pasic_f();
    let pg = AcceleratorSpec::pasic_g();
    let mut out = String::from("## Table 2 — CPU, GPU, FPGA, and P-ASICs\n\n");
    out.push_str("| | CPU (Xeon E3-1275 v5) | GPU (Tesla K40c) | FPGA (UltraScale+ VU9P) | P-ASIC-F | P-ASIC-G |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    out.push_str(&format!(
        "| compute units | {} cores | {} cores | {} PEs ({} DSP slices) | {} PEs | {} PEs |\n",
        cpu.cores, gpu.cores, fpga.total_pes, fpga.dsp_slices, pf.total_pes, pg.total_pes
    ));
    out.push_str(&format!(
        "| frequency | {:.1} GHz | {:.0} MHz | {:.0} MHz | {:.0} MHz | {:.0} MHz |\n",
        cpu.freq_ghz, gpu.freq_mhz, fpga.freq_mhz, pf.freq_mhz, pg.freq_mhz
    ));
    out.push_str(&format!(
        "| memory BW | {:.1} GB/s | {:.0} GB/s | {:.1} GB/s | {:.1} GB/s | {:.0} GB/s |\n",
        cpu.mem_bw_gbps, gpu.mem_bw_gbps, fpga.bandwidth_gbps, pf.bandwidth_gbps, pg.bandwidth_gbps
    ));
    out.push_str(&format!(
        "| on-chip SRAM | - | - | {} KB | {} KB | {} KB |\n",
        fpga.sram_kb, pf.sram_kb, pg.sram_kb
    ));
    out.push_str(&format!(
        "| TDP | {:.0} W | {:.0} W | {:.0} W | {:.0} W | {:.0} W |\n",
        cpu.tdp_w, gpu.tdp_w, fpga.tdp_w, pf.tdp_w, pg.tdp_w
    ));
    out.push_str(&format!(
        "| geometry | - | - | {} rows x {} cols | {} rows x {} cols | {} rows x {} cols |\n",
        fpga.max_rows(),
        fpga.columns,
        pf.max_rows(),
        pf.columns,
        pg.max_rows(),
        pg.columns
    ));
    out.push_str(
        "\nP-ASIC-F matches the FPGA's PEs and bandwidth; P-ASIC-G matches the GPU's \
         (both 1 GHz, 45 nm, as in the paper).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_mentions_all_platforms() {
        let t = super::run(&super::FigureCtx::default());
        for label in ["Xeon", "K40c", "VU9P", "P-ASIC-F", "P-ASIC-G"] {
            assert!(t.contains(label), "{label}");
        }
        assert!(t.contains("48 rows x 16 cols"));
    }
}
