//! The analytic executor: what one aggregation round of a carved-out
//! job costs in virtual seconds.
//!
//! At director scale (hundreds of jobs × a thousand nodes) the
//! functional engine — real threads per node — is not a simulator, so
//! the director prices rounds analytically, the same way the `fig_*`
//! studies do: per-phase costs from the one commodity cluster
//! ([`ClusterTiming`]'s PCIe slot and management cost,
//! [`CostModel::commodity`]'s wire and fold), with the aggregation
//! phase priced by building the carve's *actual* collective schedule
//! and walking its rounds through that [`CostModel`]. Schedules come
//! from the shared, bounded, cross-job [`BoundedScheduleCache`], so
//! jobs whose carves share a shape share the build.
//!
//! A job's *logical* width is fixed at `max_nodes`; a physical grant of
//! `p ≤ max_nodes` nodes time-shares the logical workers in integer
//! multiples (`ceil(L/p)` logical workers per physical node), which is
//! what keeps the math — and the bit-identity story in [`crate::proof`]
//! — independent of the director's resizing.

use cosmic_collectives::{BoundedScheduleCache, CacheStats, CollectiveKind, CostModel};
use cosmic_runtime::{ClusterTiming, NodeCompute, CHUNK_WORDS};

use crate::carve::CarveOut;
use crate::error::DirectorError;
use crate::job::JobSpec;

/// Every node's accelerator throughput.
pub(crate) const NODE: NodeCompute = NodeCompute { records_per_sec: 1.0e5 };

/// The collective strategy every carve runs.
const COLLECTIVE: CollectiveKind = CollectiveKind::TwoLevelTree;

/// Prices job rounds on the commodity cluster.
#[derive(Debug)]
pub(crate) struct ExecModel {
    cache: BoundedScheduleCache,
}

impl ExecModel {
    /// An executor sharing a schedule cache bounded at
    /// `cache_capacity` entries.
    pub(crate) fn new(cache_capacity: usize) -> Self {
        ExecModel { cache: BoundedScheduleCache::new(cache_capacity) }
    }

    /// Schedule-cache hit/miss/eviction totals so far.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Seconds one aggregation round of `spec` takes on `carve`'s
    /// current grant: time-shared compute, PCIe readback, the carve's
    /// collective schedule priced round by round, and management.
    pub(crate) fn round_cost_s(
        &mut self,
        spec: &JobSpec,
        carve: &CarveOut,
    ) -> Result<f64, DirectorError> {
        let p = carve.live().max(1);
        let logical = carve.width().max(1);
        let share = logical.div_ceil(p) as f64;
        let compute_s = (spec.minibatch as f64 / logical as f64) / NODE.records_per_sec * share;
        let pcie_s =
            ClusterTiming::pcie().transfer_ns(2 * spec.exchange_bytes()) as f64 * 1e-9 * share;
        let net_s = self.net_s(carve, spec.exchange_bytes())?;
        Ok(compute_s + pcie_s + net_s + ClusterTiming::MANAGEMENT_S)
    }

    /// Seconds of the carve's collective schedule for `exchange_bytes`
    /// a node, priced round by round.
    fn net_s(&mut self, carve: &CarveOut, exchange_bytes: usize) -> Result<f64, DirectorError> {
        let words = exchange_bytes.div_ceil(std::mem::size_of::<f64>());
        let schedule = self.cache.get_or_build(
            COLLECTIVE.strategy(),
            carve.topology(),
            &carve.live_slots(),
            words,
            CHUNK_WORDS,
        )?;
        Ok(CostModel::commodity().round_costs_s(&schedule).iter().map(|r| r.seconds).sum())
    }

    /// Cheap analytic throughput estimate (records/s) for `spec` on `p`
    /// physical nodes — no schedule build, used by the greedy policy to
    /// rank marginal node assignments. Monotone non-decreasing in `p`
    /// up to the job's logical width.
    pub(crate) fn estimate_records_per_s(&self, spec: &JobSpec, p: usize) -> f64 {
        let p = p.clamp(1, spec.max_nodes);
        let timing = ClusterTiming::commodity(p, groups_for(p));
        let breakdown = timing
            .model(spec.minibatch, NODE, spec.exchange_bytes())
            .evaluate()
            .unwrap_or_default();
        let total = breakdown.total_s();
        if total > 0.0 {
            spec.minibatch as f64 / total
        } else {
            0.0
        }
    }
}

/// The same nearly-equal grouping rule carves use.
fn groups_for(nodes: usize) -> usize {
    cosmic_collectives::default_groups(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_sim::{ArrivalProfile, JobArrivalPlan};

    fn spec() -> JobSpec {
        let plan = JobArrivalPlan::random(5, 1, &ArrivalProfile::default());
        let mut s = JobSpec::from_arrival(&plan.jobs[0]);
        s.max_nodes = 16;
        s.min_nodes = 2;
        s
    }

    #[test]
    fn more_nodes_make_rounds_cheaper() {
        let mut exec = ExecModel::new(16);
        let s = spec();
        let narrow = CarveOut::new(0, 16, &[0, 1]).unwrap();
        let wide = CarveOut::new(0, 16, &(0..16).collect::<Vec<_>>()).unwrap();
        let slow = exec.round_cost_s(&s, &narrow).unwrap();
        let fast = exec.round_cost_s(&s, &wide).unwrap();
        assert!(slow > fast, "2 nodes {slow} vs 16 nodes {fast}");
    }

    #[test]
    fn identical_carve_shapes_hit_the_shared_cache() {
        let mut exec = ExecModel::new(16);
        let s = spec();
        let a = CarveOut::new(0, 16, &[0, 1, 2, 3]).unwrap();
        let b = CarveOut::new(1, 16, &[100, 101, 102, 103]).unwrap();
        let ca = exec.round_cost_s(&s, &a).unwrap();
        let cb = exec.round_cost_s(&s, &b).unwrap();
        assert_eq!(ca, cb, "same shape must price identically");
        let stats = exec.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn estimate_is_monotone_in_nodes() {
        let exec = ExecModel::new(4);
        let s = spec();
        let t2 = exec.estimate_records_per_s(&s, 2);
        let t8 = exec.estimate_records_per_s(&s, 8);
        let t16 = exec.estimate_records_per_s(&s, 16);
        assert!(t2 > 0.0);
        assert!(t8 >= t2);
        assert!(t16 >= t8);
    }

    /// The executor and the runtime's timing model read one commodity
    /// cluster: on a fully funded carve (the topology
    /// `ClusterTiming::commodity(w, default_groups(w))` builds), the
    /// executor's network seconds are the timing model's aggregation
    /// plus broadcast under the same collective.
    #[test]
    fn a_full_width_round_prices_as_the_timing_model_does() {
        for width in [2, 3, 8, 16, 33, 64] {
            let carve = CarveOut::new(0, width, &(0..width).collect::<Vec<_>>()).unwrap();
            let timing = ClusterTiming::commodity(width, groups_for(width));
            for exchange_bytes in [8, 4096, 100_000, 2_400_000] {
                let mut exec = ExecModel::new(1);
                let net_s = exec.net_s(&carve, exchange_bytes).unwrap();
                let it = timing
                    .model(10_000, NODE, exchange_bytes)
                    .with_collective(COLLECTIVE)
                    .evaluate()
                    .unwrap();
                let model_s = it.aggregate_s + it.broadcast_s;
                assert!(
                    (net_s - model_s).abs() <= 1e-12 * model_s,
                    "width {width}, {exchange_bytes} B: executor {net_s} vs timing {model_s}"
                );
            }
        }
    }
}
