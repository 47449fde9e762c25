//! Seeded control-plane fault plans for the multi-tenant director.
//!
//! [`crate::faults::FaultPlan`] injects faults *inside* one training
//! job — chunk drops, stragglers, node crashes the runtime absorbs.
//! A [`DirectorFaultPlan`] lives one layer up: it schedules failures
//! of whole *jobs* and whole *node slabs* against the director's
//! virtual clock, plus a poison set of jobs whose checkpoint replay
//! never succeeds. Like every other plan in this crate it is fully
//! materialized and a pure function of its seed, so a director run
//! that consumes it — and the decision journal that run writes — is
//! reproducible bit for bit.

use crate::faults::SplitMix64;

/// One scheduled control-plane failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DirectorFaultKind {
    /// The job's entire carve-out is lost at once (every funded node
    /// of the victim job crashes simultaneously — a driver bug, an
    /// OOM cascade, a bad rollout). The director rolls the job back
    /// to its last checkpoint and restarts it through admission.
    JobCrash {
        /// The victim job id; a no-op if the job is not running when
        /// the fault fires.
        job: usize,
    },
    /// A contiguous range of physical nodes dies at once (a rack or
    /// power-domain loss). Every carve-out funded by a node in
    /// `lo..lo + len` is shrunk mid-run — one slab can cascade into
    /// shrinks of many jobs — and jobs that lose their whole grant
    /// take the [`DirectorFaultKind::JobCrash`] path. The nodes
    /// return to service `repair_s` virtual seconds later.
    SlabFailure {
        /// First physical node of the dead range.
        lo: usize,
        /// Number of contiguous dead nodes.
        len: usize,
        /// Virtual seconds until the slab returns to the free pool.
        repair_s: f64,
    },
}

/// A fault with its virtual-time trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectorFaultEvent {
    /// Virtual time at which the fault fires.
    pub at_s: f64,
    /// What fails.
    pub kind: DirectorFaultKind,
}

/// A materialized, seed-keyed schedule of director-level faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DirectorFaultPlan {
    /// The seed the plan was generated from (0 for explicit plans).
    pub seed: u64,
    /// Faults in firing order (ascending `at_s`, plan order breaking
    /// exact ties).
    pub events: Vec<DirectorFaultEvent>,
    /// Jobs whose checkpoint replay fails on every restart attempt
    /// (ascending, deduplicated). A poison job crashes, burns its
    /// capped retry budget of re-admissions, and must be quarantined
    /// rather than allowed to wedge the cluster.
    pub poison: Vec<usize>,
}

impl DirectorFaultPlan {
    /// The empty plan: no faults, no poison jobs.
    pub fn none() -> Self {
        DirectorFaultPlan::default()
    }

    /// Whether `job`'s checkpoint replay is doomed to fail.
    pub fn is_poison(&self, job: usize) -> bool {
        self.poison.binary_search(&job).is_ok()
    }

    /// Adds a whole-job crash at `at_s` (chainable).
    pub fn with_job_crash(mut self, at_s: f64, job: usize) -> Self {
        self.events.push(DirectorFaultEvent { at_s, kind: DirectorFaultKind::JobCrash { job } });
        self.sort_events();
        self
    }

    /// Marks `job` as poison (chainable).
    pub fn with_poison(mut self, job: usize) -> Self {
        if let Err(at) = self.poison.binary_search(&job) {
            self.poison.insert(at, job);
        }
        self
    }

    /// Samples a plan from `seed`: `rates.job_crashes` whole-job
    /// crashes and `rates.slab_failures` slab losses uniform over
    /// `[0, horizon_s)`, victims uniform over `0..jobs` and
    /// `0..cluster_nodes`, plus `rates.poison_jobs` distinct poison
    /// ids. Pure: identical arguments give identical plans.
    pub fn random(
        seed: u64,
        jobs: usize,
        cluster_nodes: usize,
        horizon_s: f64,
        rates: &DirectorFaultRates,
    ) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x4449_5246_4C54_5321); // "DIRFLT!"
        let mut plan = DirectorFaultPlan { seed, events: Vec::new(), poison: Vec::new() };
        let horizon = horizon_s.max(0.0);
        for _ in 0..rates.job_crashes {
            let at_s = rng.unit() * horizon;
            let job = index(&mut rng, jobs);
            plan.events
                .push(DirectorFaultEvent { at_s, kind: DirectorFaultKind::JobCrash { job } });
        }
        let (w_lo, w_hi) = rates.slab_width;
        for _ in 0..rates.slab_failures {
            let at_s = rng.unit() * horizon;
            let len = (w_lo + index(&mut rng, w_hi.saturating_sub(w_lo) + 1)).max(1);
            let lo = index(&mut rng, cluster_nodes.saturating_sub(len).max(1));
            plan.events.push(DirectorFaultEvent {
                at_s,
                kind: DirectorFaultKind::SlabFailure { lo, len, repair_s: rates.repair_s },
            });
        }
        for _ in 0..rates.poison_jobs.min(jobs) {
            let mut job = index(&mut rng, jobs.max(1));
            // Walk forward to the first unpoisoned id so the requested
            // count is met exactly (deterministic probe order).
            for _ in 0..jobs {
                if !plan.is_poison(job) {
                    break;
                }
                job = (job + 1) % jobs.max(1);
            }
            if let Err(at) = plan.poison.binary_search(&job) {
                plan.poison.insert(at, job);
            }
        }
        plan.sort_events();
        plan
    }

    /// Sorts events by firing time, keeping insertion order for exact
    /// ties (stable sort on the time key only).
    fn sort_events(&mut self) {
        self.events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    }
}

/// Distribution knobs for [`DirectorFaultPlan::random`].
#[derive(Debug, Clone, PartialEq)]
pub struct DirectorFaultRates {
    /// Whole-job crashes to schedule.
    pub job_crashes: usize,
    /// Correlated slab failures to schedule.
    pub slab_failures: usize,
    /// Inclusive range of slab widths (contiguous dead nodes).
    pub slab_width: (usize, usize),
    /// Virtual seconds a dead slab stays out of service.
    pub repair_s: f64,
    /// Jobs whose checkpoint replay always fails.
    pub poison_jobs: usize,
}

impl Default for DirectorFaultRates {
    fn default() -> Self {
        DirectorFaultRates {
            job_crashes: 4,
            slab_failures: 1,
            slab_width: (4, 16),
            repair_s: 0.05,
            poison_jobs: 1,
        }
    }
}

/// Uniform index draw in `0..n` (one step; `n = 0` yields 0).
fn index(rng: &mut SplitMix64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (rng.next_u64() % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_plans() {
        let r = DirectorFaultRates::default();
        let a = DirectorFaultPlan::random(7, 40, 256, 1.0, &r);
        let b = DirectorFaultPlan::random(7, 40, 256, 1.0, &r);
        assert_eq!(a, b);
        assert_ne!(a, DirectorFaultPlan::random(8, 40, 256, 1.0, &r));
    }

    #[test]
    fn random_plan_honours_the_rates() {
        let rates = DirectorFaultRates {
            job_crashes: 5,
            slab_failures: 3,
            slab_width: (2, 4),
            repair_s: 0.1,
            poison_jobs: 2,
        };
        let plan = DirectorFaultPlan::random(11, 30, 64, 2.0, &rates);
        let crashes = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, DirectorFaultKind::JobCrash { .. }))
            .count();
        let slabs = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, DirectorFaultKind::SlabFailure { .. }))
            .count();
        assert_eq!((crashes, slabs), (5, 3));
        assert_eq!(plan.poison.len(), 2);
        for e in &plan.events {
            assert!(e.at_s >= 0.0 && e.at_s < 2.0);
            if let DirectorFaultKind::SlabFailure { lo, len, repair_s } = e.kind {
                assert!((2..=4).contains(&len));
                assert!(lo + len <= 64 + 4, "slab {lo}+{len} way out of range");
                assert_eq!(repair_s, 0.1);
            }
        }
        let mut last = 0.0;
        for e in &plan.events {
            assert!(e.at_s >= last, "events must be time-sorted");
            last = e.at_s;
        }
    }

    #[test]
    fn poison_jobs_are_distinct_and_sorted() {
        let rates = DirectorFaultRates { poison_jobs: 8, ..DirectorFaultRates::default() };
        let plan = DirectorFaultPlan::random(3, 10, 32, 1.0, &rates);
        assert_eq!(plan.poison.len(), 8);
        let mut sorted = plan.poison.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, plan.poison);
        for &p in &plan.poison {
            assert!(plan.is_poison(p));
        }
    }

    #[test]
    fn chainable_constructors_build_explicit_plans() {
        let plan = DirectorFaultPlan::none()
            .with_job_crash(0.5, 3)
            .with_job_crash(0.2, 8)
            .with_poison(3)
            .with_poison(3);
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.poison, vec![3]);
        // Time-sorted regardless of insertion order.
        assert!(matches!(plan.events[0].kind, DirectorFaultKind::JobCrash { job: 8 }));
        assert!(plan.is_poison(3));
        assert!(!plan.is_poison(4));
    }
}
