//! The three fairness policies arbitrating nodes between jobs.
//!
//! A policy turns the current cluster view — running jobs with their
//! grants, queue pressure from waiting jobs — into per-job *target*
//! widths. The [`ElasticScaler`](crate::scaler::ElasticScaler) then
//! realizes the targets as shrink/grow operations. All three policies
//! are deterministic: every tie breaks toward the lowest job id.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

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
/// allocation (`alloc / weight`), ties to the lowest id. Negation
/// reverses `total_cmp` exactly, so that job ranks highest by
/// `-alloc / weight`.
fn weighted_max_min(running: &[RunningView<'_>], budget: usize) -> BTreeMap<usize, usize> {
    let floor: usize = running.iter().map(|v| v.spec.min_nodes).sum();
    let headroom: usize =
        running.iter().map(|v| v.spec.max_nodes.saturating_sub(v.spec.min_nodes)).sum();
    // A budget covering every job's headroom saturates them all, in
    // whatever order the nodes would have gone.
    if budget.saturating_sub(floor) >= headroom {
        return running
            .iter()
            .map(|v| (v.spec.id, v.spec.min_nodes.max(v.spec.max_nodes)))
            .collect();
    }
    fill(running, budget, |spec, nodes| -(nodes as f64 / spec.weight), |_| false)
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
    let gain = |spec: &JobSpec, here: usize| {
        exec.estimate_records_per_s(spec, here + 1) - exec.estimate_records_per_s(spec, here)
    };
    fill(running, budget, gain, |gain| gain <= 0.0)
}

/// Hands out the nodes `budget` leaves above the floors one at a time,
/// each to the unsaturated job of highest `rank(spec, nodes)` by
/// `total_cmp`, ties to the lowest id, until the top rank is one to
/// `stop` at. A job's rank depends on its own allocation alone, so a
/// max-heap of unsaturated jobs re-ranks just the winner: O(log jobs) a
/// node for the pick sequence a scan of every job per node makes.
fn fill(
    running: &[RunningView<'_>],
    budget: usize,
    rank: impl Fn(&JobSpec, usize) -> f64,
    stop: impl Fn(f64) -> bool,
) -> BTreeMap<usize, usize> {
    let mut alloc: Vec<usize> = running.iter().map(|v| v.spec.min_nodes).collect();
    let mut spare = budget.saturating_sub(alloc.iter().sum::<usize>());
    let mut ranks = vec![0.0; running.len()];
    let mut heap = BinaryHeap::new();
    for (at, v) in running.iter().enumerate().filter(|&(at, v)| alloc[at] < v.spec.max_nodes) {
        ranks[at] = rank(v.spec, alloc[at]);
        heap.push((total_order(ranks[at]), Reverse(v.spec.id), at));
    }
    while spare > 0 {
        let Some(mut top) = heap.peek_mut() else { break };
        let at = top.2;
        if stop(ranks[at]) {
            break;
        }
        alloc[at] += 1;
        spare -= 1;
        if alloc[at] < running[at].spec.max_nodes {
            ranks[at] = rank(running[at].spec, alloc[at]);
            top.0 = total_order(ranks[at]);
        } else {
            PeekMut::pop(top);
        }
    }
    running.iter().zip(alloc).map(|(v, a)| (v.spec.id, a)).collect()
}

/// `x` as an integer ordered as [`f64::total_cmp`] orders floats (the
/// standard library's own transform), so the heap ranks exactly as a
/// scan comparing with `total_cmp` does.
fn total_order(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::algorithm_for_family;
    use cosmic_sim::{ArrivalProfile, JobArrivalPlan};
    use proptest::prelude::*;

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

    /// The reference water-fill: every unsaturated job re-ranked for
    /// each node.
    fn scan_max_min(running: &[RunningView<'_>], budget: usize) -> BTreeMap<usize, usize> {
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

    /// The reference greedy: every unsaturated job's gain re-priced for
    /// each node.
    fn scan_greedy(
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

    /// A running set built to collide: weights from {0.5, 1, 2, 3} and
    /// floors from 1..5 tie `alloc / weight` exactly, two families and
    /// three minibatches repeat (and so tie) gains, a fifth of the jobs
    /// have `min_nodes == max_nodes`, and ids descend with position, so
    /// a tie broken by position instead of id shows.
    fn colliding(raw: &[u64]) -> Vec<JobSpec> {
        let base = specs(1).remove(0);
        raw.iter()
            .enumerate()
            .map(|(at, &r)| {
                let pick = |shift: u32, n: u64| ((r >> shift) % n) as usize;
                let min_nodes = 1 + pick(24, 4);
                JobSpec {
                    id: 1000 - 3 * at - pick(0, 3),
                    algorithm: algorithm_for_family(pick(8, 2)),
                    minibatch: [4, 512, 8192][pick(16, 3)],
                    min_nodes,
                    max_nodes: min_nodes + [0, 1, 3, 6, 12][pick(32, 5)],
                    weight: [0.5, 1.0, 2.0, 3.0][pick(40, 4)],
                    ..base.clone()
                }
            })
            .collect()
    }

    proptest! {
        /// The heaps hand out nodes exactly as the scans do, for
        /// budgets from nothing to past every job's maximum.
        #[test]
        fn heaps_pick_as_the_scans_do(
            raw in prop::collection::vec(any::<u64>(), 1..24),
            drawn in any::<u64>(),
        ) {
            let specs = colliding(&raw);
            let running = views(&specs);
            let floor: usize = specs.iter().map(|s| s.min_nodes).sum();
            let ceiling: usize = specs.iter().map(|s| s.max_nodes).sum();
            let exec = exec();
            let middle = floor + drawn as usize % (ceiling - floor + 1);
            for budget in [0, floor, middle, ceiling, ceiling + 1 + drawn as usize % 8] {
                prop_assert_eq!(
                    weighted_max_min(&running, budget),
                    scan_max_min(&running, budget),
                    "max-min, budget {}", budget
                );
                prop_assert_eq!(
                    throughput_greedy(&running, budget, &exec),
                    scan_greedy(&running, budget, &exec),
                    "greedy, budget {}", budget
                );
            }
        }
    }

    /// The greedy stops once no job gains: a job whose round is all
    /// network (four-record minibatches) loses throughput on a second
    /// node, so both the heap and the scan leave its spare nodes free.
    #[test]
    fn greedy_stops_where_no_job_gains() {
        let mut specs = colliding(&[0, 0]);
        for s in &mut specs {
            s.max_nodes = 8;
        }
        let running = views(&specs);
        let exec = exec();
        for s in &specs {
            assert_eq!(s.minibatch, 4);
            let gain = exec.estimate_records_per_s(s, 2) - exec.estimate_records_per_s(s, 1);
            assert!(gain <= 0.0, "job {}: gain {gain}", s.id);
        }
        let ceiling: usize = specs.iter().map(|s| s.max_nodes).sum();
        let floor: usize = specs.iter().map(|s| s.min_nodes).sum();
        let heap = throughput_greedy(&running, ceiling, &exec);
        assert_eq!(heap, scan_greedy(&running, ceiling, &exec));
        assert_eq!(heap.values().sum::<usize>(), floor, "no node is worth handing out");
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
