//! PCIe expansion-slot transfer model (host ↔ accelerator/GPU board).

use crate::SimTime;

/// A PCIe link's effective characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Effective unidirectional bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Per-DMA fixed setup cost in microseconds (descriptor setup, driver
    /// syscall, doorbell).
    pub dma_setup_us: f64,
}

impl PcieModel {
    /// PCIe 3.0 x8 as seen by the FPGA boards (~6 GB/s effective).
    pub fn gen3_x8() -> Self {
        PcieModel { bandwidth_gbps: 6.0, dma_setup_us: 10.0 }
    }

    /// PCIe 3.0 x16 as seen by the Tesla K40c (~12 GB/s effective).
    pub fn gen3_x16() -> Self {
        PcieModel { bandwidth_gbps: 12.0, dma_setup_us: 10.0 }
    }

    /// Time to move `bytes` across the link, in nanoseconds.
    pub fn transfer_ns(&self, bytes: usize) -> SimTime {
        let serialize = bytes as f64 / (self.bandwidth_gbps * 1e9) * 1e9;
        (serialize + self.dma_setup_us * 1e3).round() as SimTime
    }

    /// Effective bytes/second for large streaming transfers.
    pub fn streaming_bps(&self) -> f64 {
        self.bandwidth_gbps * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_and_has_setup_floor() {
        let p = PcieModel::gen3_x8();
        assert_eq!(p.transfer_ns(0), 10_000);
        // 6 MB at 6 GB/s = 1 ms + setup.
        let t = p.transfer_ns(6_000_000);
        assert!((1_000_000..1_100_000).contains(&t), "{t}");
    }

    #[test]
    fn x16_is_twice_x8() {
        let big = 100_000_000;
        let t8 = PcieModel::gen3_x8().transfer_ns(big) as f64;
        let t16 = PcieModel::gen3_x16().transfer_ns(big) as f64;
        assert!((t8 / t16 - 2.0).abs() < 0.01);
    }
}
