//! The three fairness policies arbitrating nodes between jobs.
//!
//! A policy turns the current cluster view — running jobs with their
//! grants, queue pressure from waiting jobs — into per-job *target*
//! widths. The [`ElasticScaler`](crate::scaler::ElasticScaler) then
//! realizes the targets as shrink/grow operations. All three policies
//! are deterministic: every tie breaks toward the lowest job id.

use std::collections::BTreeMap;

use crate::exec::ExecModel;
use crate::job::JobSpec;

/// How the director arbitrates nodes between tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairnessPolicy {
    /// Head-of-line admission in arrival order; grants are fixed for a
    /// job's lifetime (no elastic reallocation). The baseline.
    StrictFifo,
    /// Weighted max-min share: water-fill nodes across running jobs
    /// proportionally to their weights, clamped to each job's
    /// `[min_nodes, max_nodes]`, holding back what the queue's waiting
    /// jobs minimally need.
    WeightedMaxMin,
    /// Aggregate-throughput greedy: assign each marginal node to the
    /// job whose analytic throughput gains the most, ignoring fairness.
    ThroughputGreedy,
}

impl FairnessPolicy {
    /// Every policy, in presentation order.
    pub const ALL: [FairnessPolicy; 3] = [
        FairnessPolicy::StrictFifo,
        FairnessPolicy::WeightedMaxMin,
        FairnessPolicy::ThroughputGreedy,
    ];

    /// Stable snake_case label for reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            FairnessPolicy::StrictFifo => "strict_fifo",
            FairnessPolicy::WeightedMaxMin => "weighted_max_min",
            FairnessPolicy::ThroughputGreedy => "throughput_greedy",
        }
    }

    /// Whether the elastic scaler reallocates under this policy.
    pub(crate) fn is_elastic(self) -> bool {
        !matches!(self, FairnessPolicy::StrictFifo)
    }
}

/// A running job as the policy sees it.
#[derive(Debug)]
pub(crate) struct RunningView<'a> {
    /// The job's submission.
    pub spec: &'a JobSpec,
    /// Physical nodes currently funding it.
    pub current: usize,
}

/// Computes per-job target widths, or `None` when the policy never
/// reallocates. `queued_min_demand` is the summed `min_nodes` of
/// waiting jobs — the queue pressure the elastic policies leave room
/// for.
pub(crate) fn target_widths(
    policy: FairnessPolicy,
    running: &[RunningView<'_>],
    queued_min_demand: usize,
    cluster: usize,
    exec: &ExecModel,
) -> Option<BTreeMap<usize, usize>> {
    if running.is_empty() || !policy.is_elastic() {
        return None;
    }
    let floor: usize = running.iter().map(|v| v.spec.min_nodes).sum();
    // Leave room for what the queue minimally needs, but never push
    // running jobs below their own floors.
    let budget = cluster.saturating_sub(queued_min_demand).max(floor.min(cluster));
    match policy {
        FairnessPolicy::StrictFifo => None,
        FairnessPolicy::WeightedMaxMin => Some(weighted_max_min(running, budget)),
        FairnessPolicy::ThroughputGreedy => Some(throughput_greedy(running, budget, exec)),
    }
}

/// Water-filling: start every job at its floor, then hand out one node
/// at a time to the unsaturated job with the smallest weighted
/// allocation (`alloc / weight`), ties to the lowest id.
fn weighted_max_min(running: &[RunningView<'_>], budget: usize) -> BTreeMap<usize, usize> {
    let mut alloc: BTreeMap<usize, usize> =
        running.iter().map(|v| (v.spec.id, v.spec.min_nodes)).collect();
    let mut spare = budget.saturating_sub(alloc.values().sum::<usize>());
    while spare > 0 {
        let next = running
            .iter()
            .filter(|v| alloc[&v.spec.id] < v.spec.max_nodes)
            .map(|v| {
                let share = alloc[&v.spec.id] as f64 / v.spec.weight;
                (v.spec.id, share)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let Some((id, _)) = next else { break };
        if let Some(a) = alloc.get_mut(&id) {
            *a += 1;
        }
        spare -= 1;
    }
    alloc
}

/// Greedy aggregate-throughput: start every job at its floor, then give
/// each marginal node to the job whose estimated records/s gains the
/// most from one more node, ties to the lowest id. Stops early when no
/// job gains anything (leaving the node free for admissions).
fn throughput_greedy(
    running: &[RunningView<'_>],
    budget: usize,
    exec: &ExecModel,
) -> BTreeMap<usize, usize> {
    let mut alloc: BTreeMap<usize, usize> =
        running.iter().map(|v| (v.spec.id, v.spec.min_nodes)).collect();
    let mut spare = budget.saturating_sub(alloc.values().sum::<usize>());
    while spare > 0 {
        let best = running
            .iter()
            .filter(|v| alloc[&v.spec.id] < v.spec.max_nodes)
            .map(|v| {
                let here = alloc[&v.spec.id];
                let gain = exec.estimate_records_per_s(v.spec, here + 1)
                    - exec.estimate_records_per_s(v.spec, here);
                (v.spec.id, gain)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        let Some((id, gain)) = best else { break };
        if gain <= 0.0 {
            break;
        }
        if let Some(a) = alloc.get_mut(&id) {
            *a += 1;
        }
        spare -= 1;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_sim::{ArrivalProfile, JobArrivalPlan};

    fn specs(n: usize) -> Vec<JobSpec> {
        let plan = JobArrivalPlan::random(11, n, &ArrivalProfile::default());
        plan.jobs.iter().map(JobSpec::from_arrival).collect()
    }

    fn views(specs: &[JobSpec]) -> Vec<RunningView<'_>> {
        specs.iter().map(|s| RunningView { spec: s, current: s.min_nodes }).collect()
    }

    fn exec() -> ExecModel {
        ExecModel::new(8)
    }

    #[test]
    fn fifo_never_reallocates() {
        let s = specs(4);
        assert!(target_widths(FairnessPolicy::StrictFifo, &views(&s), 0, 64, &exec()).is_none());
    }

    #[test]
    fn max_min_respects_bounds_and_budget() {
        let s = specs(6);
        let targets =
            target_widths(FairnessPolicy::WeightedMaxMin, &views(&s), 0, 64, &exec()).unwrap();
        let total: usize = targets.values().sum();
        assert!(total <= 64);
        for spec in &s {
            let t = targets[&spec.id];
            assert!(t >= spec.min_nodes && t <= spec.max_nodes, "job {}: {t}", spec.id);
        }
    }

    #[test]
    fn max_min_weights_tilt_the_shares() {
        let mut s = specs(2);
        for spec in &mut s {
            spec.min_nodes = 1;
            spec.max_nodes = 100;
        }
        s[0].weight = 3.0;
        s[1].weight = 1.0;
        let targets =
            target_widths(FairnessPolicy::WeightedMaxMin, &views(&s), 0, 40, &exec()).unwrap();
        assert!(targets[&s[0].id] > targets[&s[1].id], "heavier job must get more: {targets:?}");
    }

    #[test]
    fn queue_pressure_holds_nodes_back() {
        let s = specs(3);
        let open = target_widths(FairnessPolicy::WeightedMaxMin, &views(&s), 0, 64, &exec());
        let pressed = target_widths(FairnessPolicy::WeightedMaxMin, &views(&s), 32, 64, &exec());
        let open_total: usize = open.unwrap().values().sum();
        let pressed_total: usize = pressed.unwrap().values().sum();
        assert!(pressed_total <= open_total);
    }

    #[test]
    fn greedy_respects_bounds() {
        let s = specs(5);
        let targets =
            target_widths(FairnessPolicy::ThroughputGreedy, &views(&s), 0, 48, &exec()).unwrap();
        let total: usize = targets.values().sum();
        assert!(total <= 48);
        for spec in &s {
            let t = targets[&spec.id];
            assert!(t >= spec.min_nodes && t <= spec.max_nodes);
        }
    }
}
