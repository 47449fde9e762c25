//! The elastic scaler: periodic node reallocation between running
//! jobs.
//!
//! Every `interval_s` of virtual time the scaler asks the fairness
//! policy for target widths — a function of each job's observed
//! throughput and the queue's pressure — and diffs them against the
//! current grants. The result is an ordered operation list: shrinks
//! first (freeing nodes), then grows (consuming them), both in
//! ascending job id, so the director can apply it in one deterministic
//! pass without ever overcommitting the cluster.

use crate::exec::ExecModel;
use crate::policy::{target_widths, FairnessPolicy, RunningView};

/// One resize decision: grow (`delta > 0`) or shrink (`delta < 0`)
/// `job` by `|delta|` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reallocation {
    /// The job being resized.
    pub job: usize,
    /// Node-count change (negative = preemption).
    pub delta: i64,
}

/// Periodic reallocation driver.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ElasticScaler {
    interval_s: f64,
    next_tick_s: f64,
}

impl ElasticScaler {
    /// A scaler ticking every `interval_s` (clamped to a positive
    /// value), first tick one interval in.
    pub(crate) fn new(interval_s: f64) -> Self {
        let interval_s = if interval_s.is_finite() && interval_s > 0.0 { interval_s } else { 1.0 };
        ElasticScaler { interval_s, next_tick_s: interval_s }
    }

    /// Virtual time of the next tick.
    pub(crate) fn next_tick_s(&self) -> f64 {
        self.next_tick_s
    }

    /// Moves the tick clock strictly past `now`.
    pub(crate) fn advance_past(&mut self, now: f64) {
        while self.next_tick_s <= now {
            self.next_tick_s += self.interval_s;
        }
    }

    /// Plans this tick's reallocations: policy targets diffed against
    /// current grants, shrinks (ascending job id) before grows
    /// (ascending job id). Empty when the policy is static or satisfied.
    pub(crate) fn plan(
        &self,
        policy: FairnessPolicy,
        running: &[RunningView<'_>],
        queued_min_demand: usize,
        cluster: usize,
        exec: &ExecModel,
    ) -> Vec<Reallocation> {
        let Some(targets) = target_widths(policy, running, queued_min_demand, cluster, exec) else {
            return Vec::new();
        };
        let mut shrinks = Vec::new();
        let mut grows = Vec::new();
        // `targets` is a BTreeMap: iteration is already ascending id.
        for (&job, &target) in &targets {
            let Some(view) = running.iter().find(|v| v.spec.id == job) else { continue };
            let delta = target as i64 - view.current as i64;
            if delta < 0 {
                shrinks.push(Reallocation { job, delta });
            } else if delta > 0 {
                grows.push(Reallocation { job, delta });
            }
        }
        shrinks.extend(grows);
        shrinks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use cosmic_sim::{ArrivalProfile, JobArrivalPlan};

    #[test]
    fn ticks_advance_on_a_fixed_grid() {
        let mut s = ElasticScaler::new(2.0);
        assert_eq!(s.next_tick_s(), 2.0);
        s.advance_past(2.0);
        assert_eq!(s.next_tick_s(), 4.0);
        s.advance_past(9.0);
        assert_eq!(s.next_tick_s(), 10.0);
        // Degenerate intervals clamp instead of spinning forever.
        let s = ElasticScaler::new(0.0);
        assert!(s.next_tick_s() > 0.0);
    }

    #[test]
    fn plan_orders_shrinks_before_grows() {
        let plan = JobArrivalPlan::random(21, 2, &ArrivalProfile::default());
        let mut specs: Vec<JobSpec> = plan.jobs.iter().map(JobSpec::from_arrival).collect();
        specs[0].min_nodes = 1;
        specs[0].max_nodes = 4;
        specs[1].min_nodes = 1;
        specs[1].max_nodes = 64;
        specs[1].weight = 4.0;
        // Job 0 holds far more than its max allows; job 1 is starved.
        let views = vec![
            RunningView { spec: &specs[0], current: 10 },
            RunningView { spec: &specs[1], current: 1 },
        ];
        let exec = ExecModel::new(4);
        let ops =
            ElasticScaler::new(1.0).plan(FairnessPolicy::WeightedMaxMin, &views, 0, 16, &exec);
        assert!(!ops.is_empty());
        let first_grow = ops.iter().position(|o| o.delta > 0);
        let last_shrink = ops.iter().rposition(|o| o.delta < 0);
        if let (Some(g), Some(s)) = (first_grow, last_shrink) {
            assert!(s < g, "shrinks must precede grows: {ops:?}");
        }
        assert!(ops.iter().any(|o| o.job == specs[0].id && o.delta < 0));
        assert!(ops.iter().any(|o| o.job == specs[1].id && o.delta > 0));
    }
}
