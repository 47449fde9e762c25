//! The distributed-GPU (Tesla K40c) node model.
//!
//! The paper's GPU baselines are hand-optimized CUDA implementations
//! (LibSVM-GPU, Caffe2 + cuDNN, cuBLAS). Their behaviour splits by
//! algorithm shape: backpropagation batches into large matrix-matrix
//! products that run near cuBLAS efficiency, while the thin per-record
//! kernels of (logistic/linear) regression, SVM, and collaborative
//! filtering are bound by device memory bandwidth — and by PCIe when the
//! training partition exceeds device memory and must be re-streamed
//! every epoch.

use cosmic_arch::GpuSpec;
use cosmic_ml::Algorithm;
use cosmic_sim::PcieModel;

/// Roofline + staging model of one GPU-accelerated node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// The device.
    pub spec: GpuSpec,
    /// The host link.
    pub pcie: PcieModel,
    /// Kernel-launch + driver cost per mini-batch kernel sequence, in
    /// microseconds.
    pub launch_us: f64,
}

impl GpuModel {
    /// Tesla K40c on PCIe 3.0 x16, cuBLAS/cuDNN-era software.
    pub fn k40c() -> Self {
        GpuModel { spec: GpuSpec::k40c(), pcie: PcieModel::gen3_x16(), launch_us: 120.0 }
    }

    /// Sustained fraction of peak flops for an algorithm family.
    pub fn efficiency(&self, alg: &Algorithm) -> f64 {
        match alg {
            // cuDNN GEMM-based backprop.
            Algorithm::Backprop { .. } => 0.35,
            // Thin BLAS-1 kernels; listed for completeness, the memory
            // roofline binds first.
            Algorithm::LinearRegression { .. }
            | Algorithm::LogisticRegression { .. }
            | Algorithm::Svm { .. } => 0.10,
            // Scattered latent-factor updates.
            Algorithm::CollabFilter { .. } => 0.06,
        }
    }

    /// Sustained fraction of device memory bandwidth. GEMM tiles stream
    /// near peak; the per-mini-batch SGD kernels of the 2017-era
    /// libraries (LibSVM-GPU, per-record updates, scattered latent
    /// access) achieve only a few percent — which is why the paper
    /// measures the GPU merely ~1.9x faster than the FPGA outside
    /// backpropagation (Fig. 10).
    pub(crate) fn mem_efficiency(&self, alg: &Algorithm) -> f64 {
        match alg {
            Algorithm::Backprop { .. } => 0.70,
            Algorithm::LinearRegression { .. }
            | Algorithm::LogisticRegression { .. }
            | Algorithm::Svm { .. } => 0.055,
            Algorithm::CollabFilter { .. } => 0.035,
        }
    }

    /// Records per second for one node's partition.
    ///
    /// `partition_bytes` decides whether the working set fits in device
    /// memory (loaded once) or must be re-streamed over PCIe each pass.
    pub fn records_per_sec(
        &self,
        alg: &Algorithm,
        flops_per_record: u64,
        bytes_per_record: usize,
        partition_bytes: usize,
    ) -> f64 {
        let flop_s =
            flops_per_record as f64 / (self.spec.peak_gflops() * 1e9 * self.efficiency(alg));
        let mem_s =
            bytes_per_record as f64 / (self.spec.mem_bw_gbps * 1e9 * self.mem_efficiency(alg));
        let fits = partition_bytes <= (self.spec_memory_bytes() as f64 * 0.9) as usize;
        let staging_s =
            if fits { 0.0 } else { bytes_per_record as f64 / self.pcie.streaming_bps() };
        1.0 / (flop_s.max(mem_s).max(staging_s))
    }

    /// Per-mini-batch fixed cost: kernel launches + result readback.
    pub fn minibatch_overhead_s(&self, model_bytes: usize) -> f64 {
        self.launch_us / 1e6 + 2.0 * self.pcie.transfer_ns(model_bytes) as f64 / 1e9
    }

    fn spec_memory_bytes(&self) -> u64 {
        // K40c: 12 GB GDDR5.
        12 * 1024 * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backprop_is_compute_efficient() {
        let g = GpuModel::k40c();
        let bp = Algorithm::Backprop { inputs: 784, hidden: 784, outputs: 10 };
        let svm = Algorithm::Svm { features: 784 };
        assert!(g.efficiency(&bp) > 3.0 * g.efficiency(&svm));
    }

    #[test]
    fn thin_kernels_are_bandwidth_bound() {
        let g = GpuModel::k40c();
        let alg = Algorithm::LinearRegression { features: 8_000 };
        // 32 KB record, 40 Kflops, fits in device memory.
        let rps = g.records_per_sec(&alg, 40_000, 32_004, 1 << 30);
        let mem_bound = (g.spec.mem_bw_gbps * 1e9 * g.mem_efficiency(&alg)) / 32_004.0;
        assert!((rps / mem_bound - 1.0).abs() < 0.01, "must sit on the memory roofline");
    }

    #[test]
    fn oversized_partitions_fall_to_pcie_rate() {
        let g = GpuModel::k40c();
        let alg = Algorithm::LinearRegression { features: 8_000 };
        let fits = g.records_per_sec(&alg, 40_000, 32_004, 1 << 30);
        let streams = g.records_per_sec(&alg, 40_000, 32_004, 20 << 30);
        assert!(streams < fits, "streaming must be slower: {fits} vs {streams}");
        let pcie_bound = g.pcie.streaming_bps() / 32_004.0;
        assert!(
            (streams / pcie_bound - 1.0).abs() < 0.01,
            "oversized partitions sit on the PCIe roofline"
        );
    }

    #[test]
    fn mnist_gpu_compute_beats_typical_fpga_throughput() {
        // Paper Fig. 10: GPU computes mnist ~20x faster than the FPGA.
        let g = GpuModel::k40c();
        let bp = Algorithm::Backprop { inputs: 784, hidden: 784, outputs: 10 };
        let rps = g.records_per_sec(&bp, 3_700_000, 3_176, 400 << 20);
        assert!(rps > 100_000.0, "K40c should sustain >100k mnist records/s, got {rps}");
    }

    #[test]
    fn minibatch_overhead_grows_with_model() {
        let g = GpuModel::k40c();
        assert!(g.minibatch_overhead_s(2_500_000) > g.minibatch_overhead_s(8_000));
    }
}
