//! Per-node CPU (MLlib-on-Xeon) compute model.

use cosmic_arch::CpuSpec;

/// Roofline model of one node executing MLlib-style gradient kernels.
///
/// Two calibrated inefficiencies separate this from the hardware peak:
/// a *compute efficiency* (JVM, generic BLAS-1 kernels, bounds checks —
/// MLlib with OpenBLAS vectorization reaches a few percent of peak on
/// these thin per-record kernels) and a fixed *per-record overhead*
/// (RDD iterator, boxing, closure dispatch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuComputeModel {
    /// The host CPU.
    pub spec: CpuSpec,
    /// Fraction of peak flops sustained in MLlib gradient kernels.
    pub efficiency: f64,
    /// Fraction of peak memory bandwidth sustained when streaming
    /// training vectors from the heap.
    pub mem_efficiency: f64,
    /// Fixed per-record cost in nanoseconds (iterator + dispatch).
    pub per_record_ns: f64,
}

impl CpuComputeModel {
    /// Spark MLlib on the Xeon E3-1275 v5 (with vectorized OpenBLAS, as
    /// in the paper's baseline build).
    pub(crate) fn mllib_xeon() -> Self {
        CpuComputeModel {
            spec: CpuSpec::xeon_e3(),
            efficiency: 0.030,
            mem_efficiency: 0.35,
            per_record_ns: 600.0,
        }
    }

    /// Seconds to process one training record's gradient + update.
    pub(crate) fn seconds_per_record(&self, flops: u64, bytes: usize) -> f64 {
        let flop_s = flops as f64 / (self.spec.peak_gflops() * 1e9 * self.efficiency);
        let mem_s = bytes as f64 / (self.spec.mem_bw_gbps * 1e9 * self.mem_efficiency);
        flop_s.max(mem_s) + self.per_record_ns / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bound_workload_obeys_flop_roofline() {
        let m = CpuComputeModel::mllib_xeon();
        // mnist-like: 3.7 Mflops per 3 KB record -> compute-bound.
        let s = m.seconds_per_record(3_700_000, 3_136);
        let flop_time = 3_700_000.0 / (m.spec.peak_gflops() * 1e9 * m.efficiency);
        assert!((s - flop_time - m.per_record_ns / 1e9).abs() / s < 1e-9);
    }

    #[test]
    fn bandwidth_bound_workload_obeys_mem_roofline() {
        let m = CpuComputeModel::mllib_xeon();
        // A bytes-heavy record (few flops per word) is memory-bound even
        // at MLlib's low compute efficiency.
        let s = m.seconds_per_record(10_000, 32_004);
        let mem_time = 32_004.0 / (m.spec.mem_bw_gbps * 1e9 * m.mem_efficiency);
        assert!(s >= mem_time);
        assert!(s < mem_time * 1.5);
    }

    #[test]
    fn per_record_overhead_floors_tiny_records() {
        let m = CpuComputeModel::mllib_xeon();
        let rps = 1.0 / m.seconds_per_record(10, 12);
        assert!(rps < 1.7e6, "iterator overhead must cap throughput, got {rps}");
    }
}
