//! Multi-tenant director study (beyond the paper's figures): hundreds
//! of training jobs sharing one simulated cluster.
//!
//! The paper's evaluation runs one job at a time on a dedicated
//! cluster. Real deployments run *hundreds* — so this study drives the
//! [`cosmic_director`](cosmic_core::cosmic_director) over a seeded
//! arrival plan of [`JOBS`] jobs
//! (each a DSL program with its own dataset size, mini-batch, epoch
//! budget, and `[min, max]` node request) onto one
//! [`CLUSTER_NODES`]-node cluster, under all three fairness policies:
//! strict FIFO (the static baseline), weighted max-min (water-filled
//! shares), and aggregate-throughput greedy (marginal records/s).
//!
//! Everything runs on the virtual clock: the director's event loop is
//! a pure function of (config, arrival plan), so every column — and the
//! exported trace — is byte-identical per seed. The closing section is
//! the resize-correctness proof: an elastic migration mid-job lands the
//! job's model bit-identical to an unresized reference run, and every
//! grow-by-rejoin catch-up matches the survivors bit for bit.

use cosmic_core::cosmic_director::{
    migration_proof, rejoin_proof, Director, DirectorConfig, DirectorReport, FairnessPolicy,
};
use cosmic_core::cosmic_sim::{ArrivalProfile, JobArrivalPlan};
use cosmic_core::cosmic_telemetry::TraceSink;

use crate::figures::FigureCtx;

/// Physical nodes in the overload study's deliberately small cluster.
pub(crate) const SWEEP_CLUSTER_NODES: usize = 64;

/// Jobs per offered-load point.
pub(crate) const SWEEP_JOBS: usize = 80;

/// Mean interarrival gaps swept, in seconds. Offered load rises left
/// to right: from comfortably underloaded to a 4× overload where the
/// admission queue and the deadline shedder must both engage.
pub(crate) const SWEEP_INTERARRIVALS_S: [f64; 4] = [0.016, 0.004, 0.001, 0.00025];

/// One offered-load measurement under one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SweepPoint {
    /// Offered arrival rate, jobs per virtual second.
    pub arrival_rate_per_s: f64,
    /// Training records of completed jobs per virtual second.
    pub goodput_records_per_s: f64,
    /// Fraction of submitted jobs shed by overload control.
    pub shed_rate: f64,
    /// Fraction of submitted jobs that completed within their SLA.
    pub deadline_hit_rate: f64,
    /// Completed jobs.
    pub completed: usize,
    /// Shed jobs.
    pub shed: usize,
}

/// The seeded arrival plan for one sweep point: every job carries an
/// SLA deadline (`arrival + slack × ideal JCT`, slack drawn from a
/// separate PRNG stream so the base plan is unchanged).
pub(crate) fn sweep_plan(mean_interarrival_s: f64) -> JobArrivalPlan {
    let profile = ArrivalProfile {
        mean_interarrival_s,
        sla_slack: Some((1.5, 6.0)),
        ..ArrivalProfile::default()
    };
    JobArrivalPlan::random(SEED, SWEEP_JOBS, &profile)
}

/// Director configuration for the overload study: a small cluster, a
/// bounded admission queue, and deadline-aware shedding (automatic
/// whenever queued jobs carry deadlines).
pub(crate) fn sweep_config(policy: FairnessPolicy) -> DirectorConfig {
    DirectorConfig {
        cluster_nodes: SWEEP_CLUSTER_NODES,
        policy,
        scaler_interval_s: 0.002,
        max_queue: 24,
        cache_capacity: 128,
        ..DirectorConfig::default()
    }
}

/// Runs one offered-load point under one policy and reduces the report
/// to the three overload curves.
pub(crate) fn sweep_point(policy: FairnessPolicy, mean_interarrival_s: f64) -> SweepPoint {
    let report =
        Director::run(&sweep_config(policy), &sweep_plan(mean_interarrival_s), &TraceSink::new())
            .expect("the sweep plan must drain");
    let submitted = (SWEEP_JOBS - report.rejected.len()).max(1);
    SweepPoint {
        arrival_rate_per_s: 1.0 / mean_interarrival_s,
        goodput_records_per_s: report.goodput_records_per_s,
        shed_rate: report.shed.len() as f64 / submitted as f64,
        deadline_hit_rate: report.deadline_hits as f64 / submitted as f64,
        completed: report.jobs.len(),
        shed: report.shed.len(),
    }
}

/// Physical nodes in the shared cluster.
pub(crate) const CLUSTER_NODES: usize = 1024;

/// Jobs in the arrival plan.
pub(crate) const JOBS: usize = 120;

/// Seed for the arrival plan and the resize proofs.
pub(crate) const SEED: u64 = 2017;

/// The seeded arrival plan: near-simultaneous submissions (2 ms mean
/// spacing against millisecond-scale jobs) so the cluster is genuinely
/// contended and the policies have something to arbitrate.
pub(crate) fn plan() -> JobArrivalPlan {
    let profile = ArrivalProfile { mean_interarrival_s: 0.002, ..ArrivalProfile::default() };
    JobArrivalPlan::random(SEED, JOBS, &profile)
}

/// Director configuration for one policy: the shared cluster, a scaler
/// tick every 5 virtual milliseconds, and a 128-entry schedule cache
/// shared across all tenants.
pub(crate) fn config(policy: FairnessPolicy) -> DirectorConfig {
    DirectorConfig {
        cluster_nodes: CLUSTER_NODES,
        policy,
        scaler_interval_s: 0.005,
        cache_capacity: 128,
        ..DirectorConfig::default()
    }
}

/// Runs the full plan under `policy`, booking the director's spans and
/// counters into `sink`.
pub(crate) fn run_policy(policy: FairnessPolicy, sink: &TraceSink) -> DirectorReport {
    Director::run(&config(policy), &plan(), sink)
        .expect("the seeded plan must drain on a 1024-node cluster")
}

/// Renders the study: every policy's run books its admission,
/// completion, and reallocation events — plus the director counters —
/// into the context's sink. Same seed, byte-identical exported trace.
pub(crate) fn run(ctx: &FigureCtx) -> String {
    let mut out = String::from(
        "## Multi-tenant director — 120 jobs on one 1024-node cluster\n\n\
         | policy | done | makespan (s) | p50 JCT (s) | p99 JCT (s) | Jain | reallocs | \
         preempted | cache hit% |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for policy in FairnessPolicy::ALL {
        let report = run_policy(policy, &ctx.sink);
        let reallocs: usize = report.jobs.iter().map(|j| j.reallocations).sum();
        let preempted: usize = report.jobs.iter().map(|j| j.preempted_nodes).sum();
        let lookups = report.cache.hits + report.cache.misses;
        out.push_str(&format!(
            "| {} | {}/{} | {:.4} | {:.4} | {:.4} | {:.3} | {} | {} | {:.1} |\n",
            policy.label(),
            report.jobs.len(),
            report.jobs.len() + report.rejected.len(),
            report.makespan_s,
            report.p50_jct_s,
            report.p99_jct_s,
            report.jain,
            reallocs,
            preempted,
            if lookups > 0 { 100.0 * report.cache.hits as f64 / lookups as f64 } else { 0.0 },
        ));
    }
    out.push_str(
        "\nEach job fixes its *logical* width at admission (the math); the director\n\
         elastically varies the *physical* grant (the time): p nodes time-share L\n\
         logical workers in ceil(L/p) multiples. Jain's index is computed over\n\
         per-job 1/slowdown (JCT against the job's solo full-width ideal). FIFO\n\
         never resizes; the elastic policies reallocate at every scaler tick\n\
         through the same fail/rejoin + checkpoint-replay machinery the runtime\n\
         uses for faults, which is why resizing is free of numeric consequences:\n",
    );

    out.push_str(&format!(
        "\n### Offered-load sweep — {SWEEP_JOBS} deadline-bearing jobs on \
         {SWEEP_CLUSTER_NODES} nodes\n\n\
         Every job carries an SLA deadline; the director sheds a queued job the\n\
         moment its deadline becomes provably unreachable (and at admission when\n\
         the bounded queue is full), so the cluster's capacity goes to jobs that\n\
         can still win. Goodput counts only completed jobs' records.\n\n\
         | arrivals/s | policy | goodput (rec/s) | shed % | deadline hit % |\n\
         |---|---|---|---|---|\n"
    ));
    for &gap in &SWEEP_INTERARRIVALS_S {
        for policy in FairnessPolicy::ALL {
            let p = sweep_point(policy, gap);
            out.push_str(&format!(
                "| {:.0} | {} | {:.0} | {:.1} | {:.1} |\n",
                p.arrival_rate_per_s,
                policy.label(),
                p.goodput_records_per_s,
                100.0 * p.shed_rate,
                100.0 * p.deadline_hit_rate,
            ));
        }
    }

    let migration = migration_proof(SEED).expect("proof runs are healthy");
    let rejoin = rejoin_proof(SEED).expect("degraded, not dead");
    out.push_str(&format!(
        "\n### Resize bit-identity proof (functional engine, seed {SEED})\n\n\
         migration: unresized reference {:#018x} vs resized-mid-job {:#018x} — {}\n\
         rejoin catch-up: {}/{} rejoins matched the survivors' model bit for bit\n",
        migration.reference_checksum,
        migration.migrated_checksum,
        if migration.identical { "IDENTICAL" } else { "MISMATCH" },
        rejoin.rejoins_matched,
        rejoin.rejoins_total,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_completes_every_job_at_scale() {
        for policy in FairnessPolicy::ALL {
            let report = run_policy(policy, &TraceSink::new());
            assert_eq!(report.jobs.len(), JOBS, "{}: all jobs complete", policy.label());
            assert!(report.rejected.is_empty());
            assert_eq!(report.cluster_nodes, CLUSTER_NODES);
            assert!(report.makespan_s > 0.0);
            assert!(report.jain > 0.0 && report.jain <= 1.0 + 1e-12);
            assert!(report.p99_jct_s >= report.p50_jct_s);
        }
    }

    #[test]
    fn fifo_is_static_and_elastic_policies_arbitrate() {
        let fifo = run_policy(FairnessPolicy::StrictFifo, &TraceSink::new());
        assert!(fifo.jobs.iter().all(|j| j.reallocations == 0));
        for policy in [FairnessPolicy::WeightedMaxMin, FairnessPolicy::ThroughputGreedy] {
            let report = run_policy(policy, &TraceSink::new());
            let reallocs: usize = report.jobs.iter().map(|j| j.reallocations).sum();
            assert!(reallocs > 0, "{}: contention must trigger resizes", policy.label());
        }
    }

    #[test]
    fn shared_cache_carries_most_schedule_builds() {
        let report = run_policy(FairnessPolicy::WeightedMaxMin, &TraceSink::new());
        assert!(
            report.cache.hits > report.cache.misses,
            "tenants share shapes: {:?}",
            report.cache
        );
    }

    #[test]
    fn shedding_rises_with_offered_load_and_spares_the_survivors() {
        let lightest = SWEEP_INTERARRIVALS_S[0];
        let heaviest = SWEEP_INTERARRIVALS_S[SWEEP_INTERARRIVALS_S.len() - 1];
        for policy in FairnessPolicy::ALL {
            let calm = sweep_point(policy, lightest);
            let slammed = sweep_point(policy, heaviest);
            // Every submitted job is accounted for: completed or shed.
            assert_eq!(calm.completed + calm.shed, SWEEP_JOBS, "{}", policy.label());
            assert_eq!(slammed.completed + slammed.shed, SWEEP_JOBS, "{}", policy.label());
            // A 4× overload forces heavy shedding; light load mostly admits.
            assert!(
                slammed.shed_rate > calm.shed_rate,
                "{}: shed rate must rise with load ({} vs {})",
                policy.label(),
                slammed.shed_rate,
                calm.shed_rate
            );
            assert!(slammed.shed_rate >= 0.5, "{}: {}", policy.label(), slammed.shed_rate);
            // Jobs that survive shedding overwhelmingly make their SLA at
            // light load; at overload the hit rate collapses with the queue.
            assert!(
                calm.deadline_hit_rate >= 0.8,
                "{}: {}",
                policy.label(),
                calm.deadline_hit_rate
            );
            assert!(
                slammed.deadline_hit_rate < calm.deadline_hit_rate,
                "{}: hit rate must fall under overload",
                policy.label()
            );
            // Saturation goodput beats trickle goodput: overlap fills nodes.
            let mid = sweep_point(policy, SWEEP_INTERARRIVALS_S[2]);
            assert!(
                mid.goodput_records_per_s > calm.goodput_records_per_s,
                "{}: goodput must rise toward saturation",
                policy.label()
            );
        }
    }

    #[test]
    fn elastic_policies_outrun_fifo_goodput_under_overload() {
        let heaviest = SWEEP_INTERARRIVALS_S[SWEEP_INTERARRIVALS_S.len() - 1];
        let fifo = sweep_point(FairnessPolicy::StrictFifo, heaviest);
        for policy in [FairnessPolicy::WeightedMaxMin, FairnessPolicy::ThroughputGreedy] {
            let elastic = sweep_point(policy, heaviest);
            assert!(
                elastic.goodput_records_per_s > 1.5 * fifo.goodput_records_per_s,
                "{}: {} vs fifo {}",
                policy.label(),
                elastic.goodput_records_per_s,
                fifo.goodput_records_per_s
            );
        }
    }
}
