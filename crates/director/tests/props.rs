//! Director property suite: for any seeded arrival plan and any
//! fairness policy, the director never starves an admitted job, never
//! loses or double-grants a node, and exports byte-identical telemetry
//! per seed.

use cosmic_director::{
    Decision, DecodeTail, Director, DirectorConfig, DirectorError, FairnessPolicy,
    JobCheckpointStore, Journal,
};
use cosmic_runtime::RetryPolicy;
use cosmic_sim::{ArrivalProfile, DirectorFaultPlan, DirectorFaultRates, JobArrivalPlan};
use cosmic_telemetry::TraceSink;
use proptest::prelude::*;

fn config(policy: FairnessPolicy) -> DirectorConfig {
    DirectorConfig { cluster_nodes: 128, policy, ..DirectorConfig::default() }
}

/// Arrivals tight enough that jobs actually overlap (the default
/// profile's half-second spacing dwarfs these millisecond jobs).
fn profile() -> ArrivalProfile {
    ArrivalProfile { mean_interarrival_s: 0.002, ..ArrivalProfile::default() }
}

proptest! {
    /// No starvation: every submitted job is either rejected at
    /// admission (with a reason) or runs to completion — under every
    /// policy, for any seed. Queued jobs never wait forever.
    #[test]
    fn every_admitted_job_completes(
        seed in 0u64..500,
        jobs in 1usize..24,
        policy_idx in 0usize..3,
    ) {
        let policy = FairnessPolicy::ALL[policy_idx];
        let plan = JobArrivalPlan::random(seed, jobs, &profile());
        let report = Director::run(&config(policy), &plan, &TraceSink::new()).expect("the loop must drain");
        prop_assert_eq!(report.jobs.len() + report.rejected.len(), jobs);
        for job in &report.jobs {
            prop_assert!(job.completed_s >= job.admitted_s);
            prop_assert!(job.admitted_s >= job.arrival_s);
            prop_assert!(job.rounds > 0, "job {} completed without work", job.id);
        }
    }

    /// Node conservation: per job, lifetime grants minus preemptions
    /// equal the nodes held at completion, and that holding always sits
    /// inside the job's requested `[min_nodes, max_nodes]` band. (The
    /// cluster-wide disjointness/conservation audit runs inside the
    /// director on every completed run.)
    #[test]
    fn grants_and_preemptions_conserve_nodes(
        seed in 0u64..500,
        jobs in 1usize..24,
        policy_idx in 0usize..3,
    ) {
        let policy = FairnessPolicy::ALL[policy_idx];
        let plan = JobArrivalPlan::random(seed, jobs, &profile());
        let report = Director::run(&config(policy), &plan, &TraceSink::new()).expect("the loop must drain");
        for job in &report.jobs {
            prop_assert_eq!(
                job.granted_nodes - job.preempted_nodes,
                job.final_nodes,
                "job {}: grants {} − preemptions {} ≠ final {}",
                job.id, job.granted_nodes, job.preempted_nodes, job.final_nodes
            );
            prop_assert!(job.final_nodes >= 1);
        }
    }

    /// Determinism: the same seed produces byte-identical telemetry —
    /// `metrics.json` and the chrome trace — and an equal report,
    /// run to run, under every policy.
    #[test]
    fn telemetry_is_byte_identical_per_seed(
        seed in 0u64..500,
        jobs in 1usize..16,
        policy_idx in 0usize..3,
    ) {
        let policy = FairnessPolicy::ALL[policy_idx];
        let plan = JobArrivalPlan::random(seed, jobs, &profile());
        let cfg = config(policy);
        let sink_a = TraceSink::new();
        let sink_b = TraceSink::new();
        let a = Director::run(&cfg, &plan, &sink_a).expect("run a");
        let b = Director::run(&cfg, &plan, &sink_b).expect("run b");
        prop_assert_eq!(a, b);
        prop_assert_eq!(sink_a.metrics_json(), sink_b.metrics_json());
        prop_assert_eq!(sink_a.chrome_trace_json(), sink_b.chrome_trace_json());
    }

    /// Crash consistency: truncate the decision journal at ANY byte —
    /// record boundary or mid-record — and recovery rolls back to the
    /// last complete record, replays, and lands bit-identical to the
    /// unkilled run: same report, same journal, same metrics export.
    #[test]
    fn any_journal_truncation_recovers_byte_identical(
        seed in 0u64..200,
        jobs in 2usize..14,
        cut_frac in 0.0f64..1.0,
        policy_idx in 0usize..3,
    ) {
        let policy = FairnessPolicy::ALL[policy_idx];
        let profile = ArrivalProfile {
            mean_interarrival_s: 0.002,
            sla_slack: Some((2.0, 8.0)),
            ..ArrivalProfile::default()
        };
        let plan = JobArrivalPlan::random(seed, jobs, &profile);
        let faults = DirectorFaultPlan::random(
            seed, jobs, 64, 0.02,
            &DirectorFaultRates {
                job_crashes: 3,
                slab_failures: 1,
                slab_width: (4, 12),
                repair_s: 0.005,
                poison_jobs: 0,
            },
        );
        let cfg = DirectorConfig {
            cluster_nodes: 64,
            policy,
            checkpoint_every_rounds: 4,
            ..DirectorConfig::default()
        };
        let sink = TraceSink::new();
        let baseline = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("unkilled run");
        let cut = ((baseline.journal.len() as f64) * cut_frac) as usize;
        // The prefix decodes to a prefix of the full record stream.
        let (partial, _) = Journal::decode(&baseline.journal[..cut]).expect("prefix decodes");
        let (full, _) = Journal::decode(&baseline.journal).expect("full journal decodes");
        prop_assert_eq!(&partial[..], &full[..partial.len()]);
        let rsink = TraceSink::new();
        let recovered = Director::recover(
            &cfg, &plan, &faults,
            &baseline.journal[..cut],
            &JobCheckpointStore::new().to_bytes(),
            &rsink,
        ).expect("recovery");
        prop_assert_eq!(recovered.report, baseline.report);
        prop_assert_eq!(recovered.journal, baseline.journal);
        prop_assert_eq!(rsink.metrics_json(), sink.metrics_json());
        let stats = recovered.recovery.expect("recovery stats");
        prop_assert_eq!(stats.replayed_records, partial.len() as u64);
    }

    /// Total decoders for the durable state: arbitrary bytes, and valid
    /// encodings with one bit flipped or cut anywhere, decode to records
    /// or a torn tail or a typed [`DirectorError`] — never a panic, and
    /// never to records the intact journal does not hold.
    #[test]
    fn durable_state_decoders_are_total(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        seed in 0u64..200,
        flip in any::<u64>(),
        cut in any::<u64>(),
    ) {
        // Whatever decodes, decodes consistently; whatever does not is
        // the decoder's own typed error.
        let decode_journal = |bytes: &[u8]| match Journal::decode(bytes) {
            Ok((records, DecodeTail::Clean)) => records,
            Ok((records, DecodeTail::Torn { valid_bytes })) => {
                prop_assert!(valid_bytes <= bytes.len());
                let prefix = Journal::decode(&bytes[..valid_bytes]).expect("valid prefix");
                prop_assert_eq!(prefix, (records.clone(), DecodeTail::Clean));
                records
            }
            Err(DirectorError::JournalCorrupt { .. }) => Vec::new(),
            Err(other) => panic!("untyped journal failure: {other:?}"),
        };
        let decode_store = |bytes: &[u8]| match JobCheckpointStore::from_bytes(bytes) {
            Ok(store) => Some(store),
            Err(DirectorError::RecoveryFailed { .. }) => None,
            Err(other) => panic!("untyped store failure: {other:?}"),
        };
        decode_journal(&bytes);
        decode_store(&bytes);

        // A real journal and a real store, then damaged.
        let plan = JobArrivalPlan::random(seed, 6, &profile());
        let faults = DirectorFaultPlan::none().with_job_crash(0.003, 1);
        let cfg = DirectorConfig {
            cluster_nodes: 64,
            checkpoint_every_rounds: 4,
            ..DirectorConfig::default()
        };
        let run = Director::run_journaled(&cfg, &plan, &faults, &TraceSink::new()).expect("run");
        let full = decode_journal(&run.journal);
        prop_assert!(!full.is_empty());
        let mut store = JobCheckpointStore::new();
        for job in 0..(seed as usize % 5) {
            store.record(job, 4 * (job + 1));
        }
        let encoded = store.to_bytes();
        prop_assert_eq!(decode_store(&encoded), Some(store));

        // One flipped bit, and a cut anywhere short of the end.
        let damaged = |valid: &[u8]| {
            let mut flipped = valid.to_vec();
            let bit = (flip % (valid.len() as u64 * 8)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            [flipped, valid[..(cut % valid.len() as u64) as usize].to_vec()]
        };
        for bad in damaged(&run.journal) {
            let records = decode_journal(&bad);
            prop_assert!(records.len() < full.len(), "a damaged journal lost no record");
            prop_assert_eq!(&records[..], &full[..records.len()]);
        }
        // FNV-1a steps are bijections of the running state, so one
        // flipped bit always moves the trailing sum.
        for bad in damaged(&encoded) {
            prop_assert_eq!(decode_store(&bad), None);
        }
    }

    /// Quarantine budget: a poison job's re-admissions after its crash
    /// never consume more node-grants than the retry budget, and a
    /// quarantined job burned exactly its replay attempts.
    #[test]
    fn poison_jobs_never_exceed_their_grant_budget(
        seed in 0u64..200,
        jobs in 2usize..14,
        max_retries in 1u32..6,
    ) {
        let profile = ArrivalProfile {
            mean_interarrival_s: 0.002,
            ..ArrivalProfile::default()
        };
        let plan = JobArrivalPlan::random(seed, jobs, &profile);
        // Dense staggered crashes so at least one usually lands while
        // job 0 runs; landed or not, the budget bound must hold.
        let mut faults = DirectorFaultPlan::none().with_poison(0);
        for i in 1..=40u32 {
            faults = faults.with_job_crash(0.0004 * f64::from(i), 0);
        }
        let cfg = DirectorConfig {
            cluster_nodes: 64,
            policy: FairnessPolicy::WeightedMaxMin,
            retry: RetryPolicy { backoff_base: 0.004, backoff_cap: 0.02, max_retries },
            checkpoint_every_rounds: 4,
            ..DirectorConfig::default()
        };
        let sink = TraceSink::new();
        let run = Director::run_journaled(&cfg, &plan, &faults, &sink).expect("faulted run");
        let (records, _) = Journal::decode(&run.journal).expect("clean journal");
        let retries = records.iter()
            .filter(|r| matches!(r.decision, Decision::PoisonRetry { job: 0, .. }))
            .count();
        let admits = records.iter()
            .filter(|r| matches!(r.decision, Decision::Admit { job: 0, .. }))
            .count();
        prop_assert!(retries <= max_retries as usize,
            "{retries} replay attempts exceed budget {max_retries}");
        // One grant per admission: the initial one plus one per retry.
        prop_assert!(admits <= 1 + max_retries as usize,
            "{admits} grants exceed 1 + budget {max_retries}");
        for q in &run.report.quarantined {
            prop_assert_eq!(q.replay_attempts, max_retries);
            prop_assert!(q.grants_burned <= max_retries as usize);
        }
        // A quarantined poison job never completes.
        if run.report.quarantined.iter().any(|q| q.job == 0) {
            prop_assert!(run.report.jobs.iter().all(|j| j.id != 0));
        }
    }
}

/// A deterministic smoke check pinning the FIFO baseline: jobs admitted
/// in arrival order never reallocate, and the elastic policies actually
/// exercise the scaler on the same plan.
#[test]
fn fifo_is_static_and_elastic_policies_resize() {
    // Near-simultaneous arrivals on a small cluster: heavy contention,
    // many scaler ticks per job lifetime.
    let profile = ArrivalProfile { mean_interarrival_s: 0.0005, ..ArrivalProfile::default() };
    let contended = |policy| DirectorConfig {
        cluster_nodes: 16,
        policy,
        scaler_interval_s: 0.002,
        ..DirectorConfig::default()
    };
    let plan = JobArrivalPlan::random(3, 20, &profile);
    let fifo = Director::run(&contended(FairnessPolicy::StrictFifo), &plan, &TraceSink::new())
        .expect("fifo");
    assert!(fifo.jobs.iter().all(|j| j.reallocations == 0), "FIFO must never resize");
    let elastic =
        Director::run(&contended(FairnessPolicy::WeightedMaxMin), &plan, &TraceSink::new())
            .expect("max-min");
    assert!(
        elastic.jobs.iter().any(|j| j.reallocations > 0),
        "a contended plan must trigger elastic resizes"
    );
}
