//! Fault-tolerance study (beyond the paper's figures): what graceful
//! degradation costs.
//!
//! Two views, matching the two halves of the fault subsystem:
//!
//! 1. **Analytic** — steady-state throughput of the 8-node commodity
//!    cluster under rising chunk-drop, straggler, and Sigma-failover
//!    rates, from [`ClusterTiming::model`] with
//!    [`IterationModel::with_faults`](cosmic_core::cosmic_runtime::timing::IterationModel::with_faults).
//!    The healthy
//!    column is the Figure 12/13 operating point; every other column is
//!    the retained fraction of it.
//! 2. **Functional** — a real seeded [`FaultPlan::random`] run through
//!    the multi-threaded trainer, demonstrating that training still
//!    converges while crashes, stragglers, and corrupt chunks are being
//!    absorbed, and reporting exactly what the runtime survived.

use cosmic_core::cosmic_ml::{data, suite::WORD_BYTES, Aggregation, Algorithm, BenchmarkId};
use cosmic_core::cosmic_runtime::{
    ClusterConfig, ClusterTiming, ClusterTrainer, FaultPlan, FaultRates, FaultTimingModel,
    NodeCompute, TransportKind,
};
use cosmic_core::cosmic_telemetry::TraceSink;

use crate::figures::FigureCtx;
use crate::harness::{cosmic_node_rps, AccelKind};

/// Nodes in the study cluster.
pub(crate) const NODES: usize = 8;

/// Aggregation groups.
pub(crate) const GROUPS: usize = 2;

/// Mini-batch of the analytic sweep (the Figure 12 midpoint).
pub(crate) const MINIBATCH: usize = 10_000;

/// Swept per-chunk / per-node / per-iteration fault probabilities.
pub(crate) const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

fn timing() -> ClusterTiming {
    ClusterTiming::commodity(NODES, GROUPS)
}

fn study_point(id: BenchmarkId) -> (NodeCompute, usize) {
    let bench = id.benchmark();
    let node = NodeCompute { records_per_sec: cosmic_node_rps(id, AccelKind::Fpga, MINIBATCH) };
    let exchange = bench.exchanged_params(MINIBATCH.div_ceil(NODES)) * WORD_BYTES;
    (node, exchange)
}

fn study_faults(rate: f64) -> FaultTimingModel {
    FaultTimingModel {
        chunk_drop_rate: rate,
        retry_backoff_s: 250e-6,
        straggler_rate: rate,
        straggler_slowdown: 8.0,
        sigma_failover_rate: rate / 10.0,
        failover_penalty_s: 5e-3,
        reschedule_penalty_s: 1e-3,
    }
}

/// Throughput (records/s) for `id` when every fault class runs at
/// probability `rate` simultaneously, booking the degraded iteration's
/// spans and counters (including the `recovery` phase) into `sink`.
pub(crate) fn throughput_at(id: BenchmarkId, rate: f64, sink: &TraceSink) -> f64 {
    let (node, exchange) = study_point(id);
    let faults = study_faults(rate);
    timing()
        .model(MINIBATCH, node, exchange)
        .with_faults(&faults)
        .traced(sink)
        .throughput()
        .unwrap_or_default()
}

/// Retained throughput fraction vs the healthy cluster (telemetry
/// discarded).
pub(crate) fn retained_fraction(id: BenchmarkId, rate: f64) -> f64 {
    let sink = TraceSink::new();
    throughput_at(id, rate, &sink) / throughput_at(id, 0.0, &sink)
}

/// The functional half: a seeded random fault plan driven through the
/// real trainer over `transport`, recording the trainer's full span tree
/// (iterations, retransmits, re-elections, exclusions) and fault
/// counters into `sink`. Returns the outcome of the degraded run. Same
/// seed, byte-identical exported trace; [`TransportKind::Tcp`] routes
/// every gradient chunk through real loopback sockets, with identical
/// fault adjudication (and identical bits) to the in-process default.
pub(crate) fn degraded_run(
    seed: u64,
    transport: TransportKind,
    sink: &TraceSink,
) -> cosmic_core::cosmic_runtime::TrainOutcome {
    let alg = Algorithm::LogisticRegression { features: 12 };
    let dataset = data::generate(&alg, 2_048, 7);
    let epochs = 6;
    let iterations = epochs * dataset.len() / 512;
    let rates = FaultRates {
        crash: 0.004,
        straggle: 0.05,
        corrupt_chunk: 0.02,
        duplicate_chunk: 0.02,
        drop_chunk: 0.02,
        ..FaultRates::default()
    };
    let plan = FaultPlan::random(seed, NODES, iterations, 4, &rates);
    let trainer = ClusterTrainer::new(ClusterConfig {
        nodes: NODES,
        groups: GROUPS,
        threads_per_node: 2,
        minibatch: 512,
        learning_rate: 0.3,
        epochs,
        aggregation: Aggregation::Average,
        faults: plan,
        transport,
        ..ClusterConfig::default()
    })
    .expect("valid config");
    trainer.train_traced(&alg, &dataset, alg.zero_model(), sink).expect("recoverable plan")
}

/// Renders the study: the healthy column and the functional degraded
/// run book their spans and counters into the context's sink (the
/// retained fractions discard theirs so counters are not
/// double-booked). The throughput table is the timing model either way;
/// the context's transport only changes how the degraded run moves its
/// gradients.
pub(crate) fn run(ctx: &FigureCtx) -> String {
    let mut out = String::from(
        "## Fault study — throughput retained under faults (8-node FPGA cluster, b=10k)\n\n\
         | benchmark | healthy rec/s | p=1% | p=5% | p=20% |\n\
         |---|---|---|---|---|\n",
    );
    for id in BenchmarkId::all() {
        let healthy = throughput_at(id, 0.0, &ctx.sink);
        let cells: Vec<String> = RATES[1..]
            .iter()
            .map(|&r| format!("{:.0}%", 100.0 * retained_fraction(id, r)))
            .collect();
        out.push_str(&format!("| {id} | {healthy:.0} | {} |\n", cells.join(" | ")));
    }
    out.push_str(
        "\np = simultaneous chunk-drop and straggler probability (Sigma failover at p/10);\n\
         stragglers run 8x slow against a 4x deadline, so past 4x the node is excluded\n\
         and the barrier cost is capped.\n",
    );

    let outcome = degraded_run(42, ctx.transport, &ctx.sink);
    let first = outcome.loss_history.first().copied().unwrap_or(f64::NAN);
    let last = outcome.loss_history.last().copied().unwrap_or(f64::NAN);
    let r = &outcome.faults;
    out.push_str(&format!(
        "\n### Functional degraded run (seed 42, 8 nodes, random fault plan)\n\n\
         loss {first:.4} -> {last:.4} over {} completed aggregation rounds\n\
         survived: {} crashes, {} re-elections, {} exclusions, {} quarantines, \
         {} chunk retries, {} duplicates dropped\n\
         surviving nodes: {} of {NODES}\n",
        outcome.iterations,
        r.crashes.len(),
        r.reelections.len(),
        r.exclusions.len(),
        r.quarantines.len(),
        r.chunk_retries,
        r.duplicates_dropped,
        outcome.final_topology.live_nodes(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_degrades_monotonically_with_fault_rate() {
        for id in [BenchmarkId::Tumor, BenchmarkId::Mnist, BenchmarkId::Stock] {
            let mut prev = f64::INFINITY;
            for &r in &RATES {
                let t = throughput_at(id, r, &TraceSink::new());
                assert!(t > 0.0 && t <= prev, "{id} at p={r}: {t} vs {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn healthy_column_matches_the_fault_free_model() {
        let (node, exchange) = study_point(BenchmarkId::Tumor);
        let plain = MINIBATCH as f64
            / timing().model(MINIBATCH, node, exchange).evaluate().unwrap().total_s();
        assert!((throughput_at(BenchmarkId::Tumor, 0.0, &TraceSink::new()) - plain).abs() < 1e-9);
    }

    #[test]
    fn degraded_run_still_converges_and_reports() {
        let out = degraded_run(42, TransportKind::Sim, &TraceSink::new());
        assert!(out.iterations > 0);
        let first = out.loss_history[0];
        let last = *out.loss_history.last().unwrap();
        assert!(last < first, "loss {first} -> {last}");
        assert!(!out.faults.is_clean(), "seeded plan must inject something");
    }
}
