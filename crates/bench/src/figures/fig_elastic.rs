//! Elastic-membership study (beyond the paper's figures): what churn
//! costs once failure detection, checkpointing, and rejoin are real.
//!
//! The fault study (`fig_faults`) asks what *permanent* failures cost a
//! cluster with an oracle for failure knowledge. This study removes the
//! oracle: the trainer runs in [`MembershipMode::Detector`], inferring
//! failure from missing heartbeats with the φ-accrual detector,
//! checkpointing on a fixed cadence, and re-admitting expelled nodes
//! through the catch-up protocol when their traffic reappears.
//!
//! The sweep crosses **churn rate** (per-node, per-iteration crash
//! probability with rejoin after a fixed down window, plus occasional
//! network partitions at half that rate) with all four collective
//! strategies. Throughput is measured on the virtual clock — records
//! aggregated per virtual second over the run's full makespan — so the
//! columns capture detection latency, barrier stretch from retries, and
//! catch-up traffic, not host noise. Every run is seeded: same seed,
//! byte-identical trace.

use cosmic_core::cosmic_ml::{data, Aggregation, Algorithm};
use cosmic_core::cosmic_runtime::collectives::CollectiveKind;
use cosmic_core::cosmic_runtime::{
    ClusterConfig, ClusterTrainer, FaultPlan, FaultRates, MembershipMode, TrainOutcome,
    TransportKind,
};
use cosmic_core::cosmic_telemetry::TraceSink;

use crate::figures::FigureCtx;

/// Nodes in the study cluster.
pub(crate) const NODES: usize = 8;

/// Aggregation groups.
pub(crate) const GROUPS: usize = 2;

/// Global mini-batch per aggregation round.
pub(crate) const MINIBATCH: usize = 512;

/// Epochs per run (24 aggregation rounds over the 2048-record set).
pub(crate) const EPOCHS: usize = 6;

/// Seed for the dataset and every churn plan.
pub(crate) const SEED: u64 = 1742;

/// Swept per-node, per-iteration crash probabilities. Partitions run at
/// half each rate.
pub(crate) const CHURN_RATES: [f64; 4] = [0.0, 0.01, 0.03, 0.06];

/// Iterations a crashed node stays down before it rejoins.
pub(crate) const REJOIN_AFTER: usize = 4;

fn algorithm() -> Algorithm {
    Algorithm::LogisticRegression { features: 12 }
}

fn iterations() -> usize {
    EPOCHS * 2_048 / MINIBATCH
}

/// The seeded churn plan for one sweep point: crashes that rejoin,
/// partitions that heal, and a matching dose of stragglers.
pub(crate) fn churn_plan(rate: f64) -> FaultPlan {
    FaultPlan::random(
        SEED,
        NODES,
        iterations(),
        4,
        &FaultRates {
            crash: rate,
            straggle: rate,
            straggle_factor: 2.0,
            rejoin_after: REJOIN_AFTER,
            partition: rate / 2.0,
            partition_heal_after: 3,
            ..FaultRates::default()
        },
    )
}

/// One sweep point: a detector-mode run of `kind` under `churn_plan
/// (rate)` over `transport`, booking the full span tree into `sink`.
/// Returns the outcome. [`TransportKind::Tcp`] routes the churned run's
/// gradients over real loopback sockets while the detector,
/// checkpoints, and rejoins adjudicate identically.
pub(crate) fn churn_run(
    kind: CollectiveKind,
    rate: f64,
    transport: TransportKind,
    sink: &TraceSink,
) -> TrainOutcome {
    let alg = algorithm();
    let dataset = data::generate(&alg, 2_048, 7);
    ClusterTrainer::new(ClusterConfig {
        nodes: NODES,
        groups: GROUPS,
        threads_per_node: 2,
        minibatch: MINIBATCH,
        learning_rate: 0.3,
        epochs: EPOCHS,
        aggregation: Aggregation::Average,
        collective: kind,
        faults: churn_plan(rate),
        membership: MembershipMode::Detector,
        transport,
        ..ClusterConfig::default()
    })
    .expect("valid study config")
    .train_traced(&alg, &dataset, alg.zero_model(), sink)
    .expect("churn plans leave a majority alive")
}

/// The virtual makespan of a traced run: the latest close over all
/// finished spans.
pub(crate) fn virtual_makespan(sink: &TraceSink) -> f64 {
    sink.spans().iter().filter(|s| s.dur.is_finite()).map(|s| s.start + s.dur).fold(0.0, f64::max)
}

/// Total wire bytes a traced run booked across all link levels.
pub(crate) fn wire_bytes(sink: &TraceSink) -> f64 {
    sink.sums().iter().filter(|(k, _)| k.starts_with("net.bytes.")).map(|(_, v)| v).sum()
}

/// Renders the study: the highest-churn flat-star run books its full
/// span tree — suspicions, expulsions, checkpoints, rejoins, partition
/// heals — and membership counters into the context's sink. Same seed,
/// byte-identical exported trace. Every churn run in the sweep — and
/// that reference run — moves its gradients through the context's
/// transport.
pub(crate) fn run(ctx: &FigureCtx) -> String {
    let mut out = String::from(
        "## Elastic membership — churn under the φ-accrual detector (8 nodes, no oracle)\n\n\
         | churn | rec/s (virtual) | suspicions | reinstated | rejoins | checkpoints | partitions |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for &rate in &CHURN_RATES {
        let point = TraceSink::new();
        let outcome = churn_run(CollectiveKind::TwoLevelTree, rate, ctx.transport, &point);
        let r = &outcome.faults;
        out.push_str(&format!(
            "| {:.0}% | {:.0} | {} | {} | {} | {} | {} |\n",
            rate * 100.0,
            (outcome.iterations * MINIBATCH) as f64 / virtual_makespan(&point),
            r.suspicions.len(),
            r.reinstatements.len(),
            r.rejoins.len(),
            r.checkpoints,
            r.partitions.len(),
        ));
    }
    out.push_str(&format!(
        "\nchurn = per-node, per-iteration crash probability (rejoin after {REJOIN_AFTER} \
         rounds; partitions at churn/2 heal after 3). No oracle: the φ-accrual detector\n\
         suspects on silence, expels past φ=2, and the first heartbeat back re-admits a\n\
         node via checkpoint + replay catch-up. Virtual throughput is the same for all\n\
         four strategies — the collective changes the wire pattern, never the barrier\n\
         clock (or the bits) — so the strategies differ only on the wire, below.\n",
    ));

    out.push_str(
        "\n### Wire traffic by strategy (KB over the run)\n\n\
         | churn | flat-star | two-level-tree | ring | halving-doubling |\n\
         |---|---|---|---|---|\n",
    );
    for &rate in &CHURN_RATES {
        let cells: Vec<String> = CollectiveKind::ALL
            .into_iter()
            .map(|kind| {
                let point = TraceSink::new();
                churn_run(kind, rate, ctx.transport, &point);
                format!("{:.1}", wire_bytes(&point) / 1024.0)
            })
            .collect();
        out.push_str(&format!("| {:.0}% | {} |\n", rate * 100.0, cells.join(" | ")));
    }
    out.push_str(
        "\nThe columns coincide by conservation: every allreduce moves 2(p-1) model\n\
         images in total and only redistributes them across ports and levels (the\n\
         per-port serialization, not the total, is what the selector prices). Churn\n\
         shrinks traffic — expelled nodes stop contributing until they rejoin.\n",
    );

    let max_rate = CHURN_RATES[CHURN_RATES.len() - 1];
    let outcome = churn_run(CollectiveKind::FlatStar, max_rate, ctx.transport, &ctx.sink);
    let r = &outcome.faults;
    let first = outcome.loss_history.first().copied().unwrap_or(f64::NAN);
    let last = outcome.loss_history.last().copied().unwrap_or(f64::NAN);
    out.push_str(&format!(
        "\n### Reference churned run (seed {SEED}, churn {:.0}%, flat-star)\n\n\
         loss {first:.4} -> {last:.4} over {} completed aggregation rounds\n\
         membership: {} suspicions ({} false), {} reinstatements, {} rejoins \
         ({} matched bit-for-bit), {} checkpoints, {} partitions\n\
         surviving nodes: {} of {NODES}\n",
        max_rate * 100.0,
        outcome.iterations,
        r.suspicions.len(),
        r.false_suspicions,
        r.reinstatements.len(),
        r.rejoins.len(),
        r.rejoins.iter().filter(|j| j.matched).count(),
        r.checkpoints,
        r.partitions.len(),
        outcome.final_topology.live_nodes(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_run(kind: CollectiveKind, rate: f64) -> TrainOutcome {
        churn_run(kind, rate, TransportKind::Sim, &TraceSink::new())
    }

    /// Virtual-time throughput (records aggregated per virtual second)
    /// of one sweep point.
    fn virtual_throughput(kind: CollectiveKind, rate: f64) -> f64 {
        let sink = TraceSink::new();
        let out = churn_run(kind, rate, TransportKind::Sim, &sink);
        (out.iterations * MINIBATCH) as f64 / virtual_makespan(&sink)
    }

    #[test]
    fn zero_churn_is_clean_and_fastest() {
        let out = sim_run(CollectiveKind::TwoLevelTree, 0.0);
        assert!(out.faults.is_clean(), "no churn, no degradation");
        assert!(out.faults.suspicions.is_empty(), "no false positives at zero churn");
        let healthy = virtual_throughput(CollectiveKind::TwoLevelTree, 0.0);
        let churned = virtual_throughput(CollectiveKind::TwoLevelTree, CHURN_RATES[3]);
        assert!(healthy > churned, "churn must cost virtual throughput ({healthy} vs {churned})");
    }

    #[test]
    fn churned_runs_still_converge_with_full_membership_restored() {
        let out = sim_run(CollectiveKind::RingAllReduce, CHURN_RATES[2]);
        assert!(!out.faults.is_clean(), "the seeded plan must inject churn");
        assert!(out.faults.rejoins.iter().all(|r| r.matched), "catch-up is bit-exact");
        let first = out.loss_history[0];
        let last = *out.loss_history.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn virtual_throughput_is_strategy_independent() {
        let base = virtual_throughput(CollectiveKind::FlatStar, CHURN_RATES[1]);
        for kind in CollectiveKind::ALL {
            let t = virtual_throughput(kind, CHURN_RATES[1]);
            assert!(
                (t - base).abs() < 1e-9,
                "{kind}: the collective must not change the barrier clock ({t} vs {base})"
            );
        }
    }

    #[test]
    fn strategies_conserve_total_wire_bytes() {
        let total = |kind: CollectiveKind| {
            let sink = TraceSink::new();
            churn_run(kind, 0.0, TransportKind::Sim, &sink);
            wire_bytes(&sink)
        };
        // Every allreduce moves 2(p-1) model images in total — the
        // strategies redistribute the same bytes across ports and levels.
        let star = total(CollectiveKind::FlatStar);
        assert!(star > 0.0);
        for kind in [
            CollectiveKind::TwoLevelTree,
            CollectiveKind::RingAllReduce,
            CollectiveKind::RecursiveHalvingDoubling,
        ] {
            assert_eq!(total(kind), star, "{kind}: totals must conserve");
        }
    }

    #[test]
    fn strategies_agree_bit_for_bit_under_churn() {
        let outcomes: Vec<TrainOutcome> =
            CollectiveKind::ALL.into_iter().map(|kind| sim_run(kind, CHURN_RATES[3])).collect();
        for pair in outcomes.windows(2) {
            assert_eq!(pair[0].model, pair[1].model, "strategy must not change the math");
            assert_eq!(pair[0].faults.rejoins, pair[1].faults.rejoins);
        }
    }
}
