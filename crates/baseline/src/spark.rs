//! The Spark 2.1 + MLlib cluster cost model.
//!
//! Spark executes each mini-batch as a stage of tasks followed by a
//! synchronous `treeAggregate` and a broadcast of the updated model. Its
//! generic stack pays costs CoSMIC's specialized system software avoids:
//!
//! - **per-iteration RDD sampling** — MLlib's `runMiniBatchSGD` draws the
//!   mini-batch with `data.sample(...)`, which *scans the whole cached
//!   partition every iteration* regardless of `b`;
//! - per-stage driver scheduling and task dispatch;
//! - Java serialization of partial models on both ends of the reduce;
//! - a `treeAggregate` whose reception and folding do **not** overlap;
//! - JVM-level kernel inefficiency (see [`crate::cpu`]).

use cosmic_sim::NetworkModel;

use crate::cpu::CpuComputeModel;

/// Cost parameters of the Spark baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparkModel {
    /// Per-node compute.
    pub cpu: CpuComputeModel,
    /// The cluster network.
    pub net: NetworkModel,
    /// Fixed driver-side cost per stage (DAG scheduling, result
    /// handling), in milliseconds.
    pub stage_overhead_ms: f64,
    /// Dispatch cost per task (one task per node partition), ms.
    pub per_task_ms: f64,
    /// Java serialization/deserialization throughput, bytes/s.
    pub ser_bps: f64,
    /// Per-record cost of the sampling scan over the cached RDD, ns.
    pub scan_ns: f64,
}

impl SparkModel {
    /// Spark 2.1 with MLlib + OpenBLAS on the evaluation cluster,
    /// calibrated so a mid-size benchmark scales ≈1.8× from 4 to 16
    /// nodes (paper §7.2).
    pub fn v2_cluster() -> Self {
        SparkModel {
            cpu: CpuComputeModel::mllib_xeon(),
            net: NetworkModel::gigabit(),
            stage_overhead_ms: 40.0,
            per_task_ms: 1.0,
            ser_bps: 1.2e9,
            scan_ns: 150.0,
        }
    }

    /// Times one mini-batch iteration on `nodes` nodes.
    ///
    /// `partition_records` is each node's share of the *whole* dataset
    /// (scanned by the sampler); `flops`/`bytes` describe one record's
    /// gradient work; `model_bytes` is the exchanged partial model.
    pub fn iteration(
        &self,
        nodes: usize,
        minibatch: usize,
        partition_records: usize,
        flops_per_record: u64,
        bytes_per_record: usize,
        model_bytes: usize,
    ) -> SparkIteration {
        // Sampling scan over the cached partition, then gradients on the
        // sampled mini-batch share — both spread over the node's cores
        // (the scan parallelizes across partition slices). Wide records
        // pay a per-byte heap-walk cost on top of the per-row overhead.
        let scan_per_record = (self.scan_ns / 1e9).max(bytes_per_record as f64 / 2.0e9);
        let scan_s = partition_records as f64 * scan_per_record / self.cpu.spec.cores as f64;
        let gradient_s = (minibatch as f64 / nodes as f64)
            * self.cpu.seconds_per_record(flops_per_record, bytes_per_record);
        let compute_s = scan_s + gradient_s;

        let schedule_s = self.stage_overhead_ms / 1e3 + nodes as f64 * self.per_task_ms / 1e3;

        // treeAggregate, depth 2: √N first-level combiners, then the
        // driver. Serialization happens on both ends and does not overlap
        // the wire in the generic stack.
        let l1_fan = (nodes as f64).sqrt().ceil() as usize;
        let l1_wire = self.net.fan_in_ns(model_bytes, l1_fan.saturating_sub(1)) as f64 / 1e9;
        let l2_wire =
            self.net.fan_in_ns(model_bytes, nodes.div_ceil(l1_fan).saturating_sub(1)) as f64 / 1e9;
        let ser_s =
            2.0 * nodes as f64 * model_bytes as f64 / self.ser_bps / self.cpu.spec.cores as f64;
        let reduce_s = l1_wire + l2_wire + ser_s;

        // Torrent broadcast: ~log2(N) store-and-forward rounds.
        let rounds = (nodes.max(2) as f64).log2().ceil();
        let broadcast_s = rounds * self.net.transfer_ns(model_bytes) as f64 / 1e9
            + model_bytes as f64 / self.ser_bps;

        SparkIteration { compute_s, schedule_s, reduce_s, broadcast_s }
    }

    /// Total training time for `epochs` passes over `total_records`.
    #[allow(clippy::too_many_arguments)]
    pub fn training_time_s(
        &self,
        nodes: usize,
        total_records: usize,
        minibatch: usize,
        epochs: usize,
        flops_per_record: u64,
        bytes_per_record: usize,
        model_bytes: usize,
    ) -> f64 {
        let iterations = total_records.div_ceil(minibatch).max(1);
        let it = self.iteration(
            nodes,
            minibatch,
            total_records.div_ceil(nodes),
            flops_per_record,
            bytes_per_record,
            model_bytes,
        );
        iterations as f64 * epochs as f64 * it.total_s()
    }
}

/// Per-iteration breakdown of the Spark stage, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparkIteration {
    /// Sampling scan + gradient computation across executors.
    pub compute_s: f64,
    /// Driver scheduling + task dispatch.
    pub schedule_s: f64,
    /// Synchronous tree reduce (wire + serialization).
    pub reduce_s: f64,
    /// Model broadcast.
    pub broadcast_s: f64,
}

impl SparkIteration {
    /// Total stage time.
    pub(crate) fn total_s(&self) -> f64 {
        self.compute_s + self.schedule_s + self.reduce_s + self.broadcast_s
    }

    /// Non-compute share.
    pub fn overhead_s(&self) -> f64 {
        self.total_s() - self.compute_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_matches_papers_sublinear_band() {
        // Paper §7.2: Spark scales ~1.3x to 8 nodes and ~1.8x to 16.
        let m = SparkModel::v2_cluster();
        let time = |nodes| m.training_time_s(nodes, 387_944, 10_000, 1, 10_000, 8_004, 8_192);
        let s8 = time(4) / time(8);
        let s16 = time(4) / time(16);
        assert!((1.05..1.8).contains(&s8), "4->8 speedup {s8:.2}");
        assert!((1.3..2.6).contains(&s16), "4->16 speedup {s16:.2}");
        assert!(s16 > s8);
    }

    #[test]
    fn sampling_scan_makes_iterations_expensive_even_for_tiny_batches() {
        let m = SparkModel::v2_cluster();
        let a = m.iteration(4, 500, 100_000, 10_000, 8_004, 8_192);
        let b = m.iteration(4, 10_000, 100_000, 10_000, 8_004, 8_192);
        // 20x more gradient work, far less than 20x total time: the scan
        // and fixed costs dominate.
        assert!(b.total_s() < 3.0 * a.total_s());
    }

    #[test]
    fn overheads_dominate_small_models_with_small_batches() {
        let m = SparkModel::v2_cluster();
        let it = m.iteration(16, 500, 5_000, 10_000, 8_004, 8_192);
        assert!(it.overhead_s() > it.compute_s, "b=500 must be overhead-dominated");
    }

    #[test]
    fn compute_dominates_mnist_like_stages() {
        let m = SparkModel::v2_cluster();
        // mnist: 3.7 Mflops/record, heavyweight compute per stage.
        let it = m.iteration(4, 10_000, 15_000, 3_700_000, 3_176, 2_490_000);
        assert!(it.compute_s > it.schedule_s);
    }

    #[test]
    fn reduce_grows_with_model_size() {
        let m = SparkModel::v2_cluster();
        let small = m.iteration(8, 10_000, 10_000, 10_000, 8_004, 8_192);
        let large = m.iteration(8, 10_000, 10_000, 10_000, 8_004, 2_490_000);
        assert!(large.reduce_s > 20.0 * small.reduce_s);
        assert!(large.broadcast_s > small.broadcast_s);
    }

    #[test]
    fn iteration_total_is_component_sum() {
        let it = SparkModel::v2_cluster().iteration(4, 1_000, 1_000, 1_000, 100, 1_000);
        let sum = it.compute_s + it.schedule_s + it.reduce_s + it.broadcast_s;
        assert!((it.total_s() - sum).abs() < 1e-15);
    }
}
