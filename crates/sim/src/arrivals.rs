//! Seeded job-arrival plans for the multi-tenant director.
//!
//! A [`JobArrivalPlan`] is a pure function of its seed: the same seed
//! always produces the same job mix, arrival times, resource bounds,
//! and weights, on every platform. That is what lets a director run —
//! and its telemetry exports — be byte-identical per seed, the same
//! contract [`crate::faults::FaultPlan::random`] gives fault injection.
//!
//! The plan deliberately knows nothing about concrete ML algorithms:
//! each job carries a `family` index in `0..family_count`, and the
//! director maps that index onto its own workload table. This keeps
//! `cosmic-sim` a leaf crate.

use crate::faults::SplitMix64;

/// One job in an arrival plan: when it shows up and what it asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// Dense job id, assigned in arrival order (0, 1, 2, …).
    pub id: usize,
    /// Virtual submission time in seconds, non-decreasing across the
    /// plan.
    pub arrival_s: f64,
    /// Workload-family index in `0..family_count`; the consumer maps
    /// it onto a concrete algorithm table.
    pub family: usize,
    /// Dataset size in records.
    pub records: usize,
    /// Minibatch size per aggregation round.
    pub minibatch: usize,
    /// Training epochs requested.
    pub epochs: usize,
    /// Smallest node grant the job will accept.
    pub min_nodes: usize,
    /// Largest node grant the job can use (its data-parallel width).
    pub max_nodes: usize,
    /// Fairness weight for weighted-share policies (≥ 1.0).
    pub weight: f64,
    /// SLA slack factor: the job's deadline is
    /// `arrival_s + sla_factor × ideal_jct` where the ideal JCT is the
    /// job's solo full-width completion time (the consumer computes
    /// it, since the plan knows nothing about execution cost).
    /// `None` means the job carries no deadline and is never shed.
    pub sla_factor: Option<f64>,
}

/// Distribution knobs for [`JobArrivalPlan::random`]. All ranges are
/// inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProfile {
    /// Mean gap between consecutive arrivals; actual gaps are uniform
    /// in `[0, 2 × mean)` so the plan needs no transcendental math.
    pub mean_interarrival_s: f64,
    /// Number of workload families to draw `family` from.
    pub family_count: usize,
    /// Range for `min_nodes`.
    pub min_nodes: (usize, usize),
    /// Range for `max_nodes`; draws below the job's `min_nodes` are
    /// clamped up to it.
    pub max_nodes: (usize, usize),
    /// Range for `minibatch`.
    pub minibatch: (usize, usize),
    /// Range for the number of minibatch rounds per epoch; `records`
    /// is `minibatch × rounds`, so every round is full.
    pub rounds_per_epoch: (usize, usize),
    /// Range for `epochs`.
    pub epochs: (usize, usize),
    /// When `Some((lo, hi))`, every job carries an SLA deadline with a
    /// slack factor uniform in `[lo, hi)`. Slack draws come from a
    /// *separate* PRNG stream (`seed ^ SLA_STREAM`), so enabling or
    /// disabling deadlines never perturbs the base plan: the same seed
    /// still produces the same arrival times, sizes, and weights.
    pub sla_slack: Option<(f64, f64)>,
}

/// Domain separator for the deadline-slack PRNG stream.
const SLA_STREAM: u64 = 0x534C_415F_534C_4B31; // "SLA_SLK1"

impl Default for ArrivalProfile {
    fn default() -> Self {
        ArrivalProfile {
            mean_interarrival_s: 0.5,
            family_count: 5,
            min_nodes: (2, 8),
            max_nodes: (8, 64),
            minibatch: (60, 240),
            rounds_per_epoch: (4, 12),
            epochs: (1, 4),
            sla_slack: None,
        }
    }
}

/// A deterministic, seed-keyed sequence of job submissions.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrivalPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Jobs in arrival order (ties share a timestamp; ids break them).
    pub jobs: Vec<JobArrival>,
}

impl JobArrivalPlan {
    /// Generates `jobs` arrivals from `seed` under `profile`. Pure:
    /// identical arguments give identical plans.
    pub fn random(seed: u64, jobs: usize, profile: &ArrivalProfile) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut sla_rng = SplitMix64::new(seed ^ SLA_STREAM);
        let mut out = Vec::with_capacity(jobs);
        let mut clock = 0.0_f64;
        for id in 0..jobs {
            clock += rng.unit() * 2.0 * profile.mean_interarrival_s.max(0.0);
            let family = draw(&mut rng, (0, profile.family_count.saturating_sub(1)));
            let min_nodes = draw(&mut rng, profile.min_nodes).max(1);
            let max_nodes = draw(&mut rng, profile.max_nodes).max(min_nodes);
            let minibatch = draw(&mut rng, profile.minibatch).max(1);
            let rounds = draw(&mut rng, profile.rounds_per_epoch).max(1);
            let epochs = draw(&mut rng, profile.epochs).max(1);
            // Weight tiers 1/2/4: coarse enough that weighted shares
            // differ visibly, drawn from one PRNG step.
            let weight = [1.0, 1.0, 2.0, 4.0][draw(&mut rng, (0, 3))];
            let sla_factor =
                profile.sla_slack.map(|(lo, hi)| lo + sla_rng.unit() * (hi - lo).max(0.0));
            out.push(JobArrival {
                id,
                arrival_s: clock,
                family,
                records: minibatch * rounds,
                minibatch,
                epochs,
                min_nodes,
                max_nodes,
                weight,
                sla_factor,
            });
        }
        JobArrivalPlan { seed, jobs: out }
    }
}

/// Uniform integer draw in the inclusive range `lo..=hi` (one step;
/// modulo bias is irrelevant at these range sizes).
fn draw(rng: &mut SplitMix64, (lo, hi): (usize, usize)) -> usize {
    if hi <= lo {
        return lo;
    }
    let span = (hi - lo + 1) as u64;
    lo + (rng.next_u64() % span) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_plans() {
        let p = ArrivalProfile::default();
        let a = JobArrivalPlan::random(42, 50, &p);
        let b = JobArrivalPlan::random(42, 50, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = ArrivalProfile::default();
        let a = JobArrivalPlan::random(1, 20, &p);
        let b = JobArrivalPlan::random(2, 20, &p);
        assert_ne!(a, b);
    }

    #[test]
    fn plan_invariants_hold() {
        let p = ArrivalProfile::default();
        let plan = JobArrivalPlan::random(7, 200, &p);
        assert_eq!(plan.jobs.len(), 200);
        let mut last = 0.0;
        for (i, j) in plan.jobs.iter().enumerate() {
            assert_eq!(j.id, i);
            assert!(j.arrival_s >= last);
            last = j.arrival_s;
            assert!(j.min_nodes >= 1);
            assert!(j.max_nodes >= j.min_nodes);
            assert!(j.family < p.family_count);
            assert!(j.epochs >= 1);
            assert!(j.records >= j.minibatch && j.records % j.minibatch == 0, "whole rounds");
            assert!(j.weight >= 1.0);
        }
    }

    #[test]
    fn sla_slack_rides_a_separate_stream() {
        let base = ArrivalProfile::default();
        let with_sla = ArrivalProfile { sla_slack: Some((2.0, 8.0)), ..base.clone() };
        let plain = JobArrivalPlan::random(13, 30, &base);
        let dead = JobArrivalPlan::random(13, 30, &with_sla);
        assert_eq!(plain.jobs.len(), dead.jobs.len());
        for (p, d) in plain.jobs.iter().zip(&dead.jobs) {
            // The base plan is byte-identical: only the SLA differs.
            assert_eq!(p.arrival_s, d.arrival_s);
            assert_eq!(p.minibatch, d.minibatch);
            assert_eq!(p.weight, d.weight);
            assert_eq!(p.sla_factor, None);
            let f = d.sla_factor.expect("slack enabled");
            assert!((2.0..8.0).contains(&f), "slack {f} outside [2, 8)");
        }
    }

    #[test]
    fn degenerate_ranges_are_safe() {
        let p = ArrivalProfile {
            mean_interarrival_s: 0.0,
            family_count: 1,
            min_nodes: (3, 3),
            max_nodes: (1, 1), // below min: clamped up
            minibatch: (10, 10),
            rounds_per_epoch: (1, 1),
            epochs: (1, 1),
            sla_slack: None,
        };
        let plan = JobArrivalPlan::random(9, 4, &p);
        for j in &plan.jobs {
            assert_eq!(j.arrival_s, 0.0);
            assert_eq!(j.family, 0);
            assert_eq!(j.min_nodes, 3);
            assert_eq!(j.max_nodes, 3);
        }
    }
}
