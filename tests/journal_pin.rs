//! Cross-commit pins on the director's decisions: a double run of one
//! tree proves a journal deterministic, not unchanged. Each literal is
//! the byte-serial FNV-1a of a journal or checkpoint store that the
//! three fairness policies write for one small seeded fleet, so a
//! change that moves any decision of any policy fails here.

use cosmic::cosmic_director::journal::fnv1a;
use cosmic::cosmic_director::{Director, DirectorConfig, FairnessPolicy};
use cosmic::cosmic_sim::{ArrivalProfile, DirectorFaultPlan, JobArrivalPlan};
use cosmic::cosmic_telemetry::TraceSink;

#[test]
fn director_journals_match_their_pinned_digests() {
    // The benchmark's `director_fleet` set-up at its quick size: 300
    // arrivals two milliseconds apart on 128 nodes, seed 2017.
    let profile = ArrivalProfile { mean_interarrival_s: 0.002, ..ArrivalProfile::default() };
    let plan = JobArrivalPlan::random(2017, 300, &profile);
    let pins = [
        (FairnessPolicy::StrictFifo, 0x06c4_25cf_3369_643f),
        (FairnessPolicy::WeightedMaxMin, 0xcda2_d6ad_31b8_83d2),
        (FairnessPolicy::ThroughputGreedy, 0x1fc0_a0ec_3443_2690),
    ];
    for (policy, journal) in pins {
        let cfg = DirectorConfig {
            cluster_nodes: 128,
            policy,
            scaler_interval_s: 0.005,
            cache_capacity: 128,
            max_queue: 100_000,
            ..DirectorConfig::default()
        };
        let run =
            Director::run_journaled(&cfg, &plan, &DirectorFaultPlan::none(), &TraceSink::new())
                .expect("the fleet drains");
        let label = policy.label();
        assert_eq!(fnv1a(&run.journal), journal, "{label}: journal");
        // Every job completes, so the store ends empty: its header and seal.
        assert_eq!(fnv1a(&run.checkpoints), 0x0d4f_d890_854a_d9bb, "{label}: checkpoint store");
    }
}
