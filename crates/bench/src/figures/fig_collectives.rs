//! Collective-strategy study (beyond the paper's figures): what each
//! pluggable aggregation schedule costs on the commodity wire, and
//! which one the cost-based selector picks as the cluster grows.
//!
//! Two sweeps over node count, one per model-size regime:
//!
//! 1. **Large model** — bandwidth-bound rounds, where the ring's
//!    constant per-port traffic beats every rooted tree on small
//!    clusters;
//! 2. **Small model** — latency-bound rounds, where the shallow
//!    two-level tree overtakes the ring's `2(p-1)` round trips as the
//!    cluster widens.
//!
//! Throughput comes from [`ClusterTiming::model`] with
//! [`IterationModel::with_collective`](cosmic_core::cosmic_runtime::timing::IterationModel::with_collective)
//! (same compute/PCIe/management costs across strategies, only the
//! aggregation and broadcast phases repriced through each schedule), so
//! the columns isolate exactly what the wire pattern changes. The
//! `selector` column is the pick of [`CollectiveSelector::host_side`]
//! under the same gigabit cost model.

use cosmic_core::cosmic_ml::convergence::{default_reprs, repr_curves, study_workloads};
use cosmic_core::cosmic_runtime::collectives::{
    assign_roles, default_groups, CollectiveKind, CollectiveSelector, WireRepr,
};
use cosmic_core::cosmic_runtime::{ClusterTiming, FaultTimingModel, NodeCompute, CHUNK_WORDS};

use crate::figures::FigureCtx;

/// Swept cluster sizes.
pub(crate) const NODE_COUNTS: [usize; 4] = [4, 8, 16, 32];

/// The bandwidth-bound regime: a 300k-parameter model (2.4 MB/round).
pub(crate) const LARGE_WORDS: usize = 300_000;

/// The latency-bound regime: a 1k-parameter model (8 KB/round).
pub(crate) const SMALL_WORDS: usize = 1_024;

/// Mini-batch of the sweep (the Figure 12 midpoint).
pub(crate) const MINIBATCH: usize = 10_000;

/// Per-node accelerator throughput of the sweep, records/s.
const NODE_RPS: f64 = 1e5;

fn timing(nodes: usize) -> ClusterTiming {
    ClusterTiming::commodity(nodes, default_groups(nodes))
}

/// Steady-state throughput (records/s) of `kind` on an `nodes`-node
/// commodity cluster exchanging `words` f64 parameters per round.
pub(crate) fn throughput(nodes: usize, words: usize, kind: CollectiveKind) -> f64 {
    let it = timing(nodes)
        .model(MINIBATCH, NodeCompute { records_per_sec: NODE_RPS }, words * 8)
        .with_collective(kind)
        .evaluate()
        .expect("valid sweep configuration");
    MINIBATCH as f64 / it.total_s()
}

/// The cost-based selector's pick for the operating point, over the
/// four host-side strategies under the gigabit cost model.
pub(crate) fn selector_pick(nodes: usize, words: usize) -> CollectiveKind {
    selector_pick_repr(nodes, words, WireRepr::DenseF64).0
}

/// The wire-representation axis: dense reference, the study's
/// fixed-point grid, and a deep top-k sparsifier.
pub(crate) const REPRS: [WireRepr; 3] =
    [WireRepr::DenseF64, WireRepr::FixedPoint { frac_bits: 20 }, WireRepr::TopK { k: 512 }];

/// [`selector_pick`] with payloads priced under `repr`: the pick and
/// its schedule cost in seconds.
pub(crate) fn selector_pick_repr(
    nodes: usize,
    words: usize,
    repr: WireRepr,
) -> (CollectiveKind, f64) {
    let topology = assign_roles(nodes, default_groups(nodes)).expect("valid sweep topology");
    let sel = CollectiveSelector::host_side()
        .select_with_repr(&topology, words, CHUNK_WORDS, repr)
        .expect("valid sweep selection");
    (sel.kind, sel.cost_s)
}

/// The (node-count, repr) cells of the sweep where compressing the
/// payload changes which strategy is cheapest — the measured crossover
/// shifts the repr axis exists to demonstrate.
pub(crate) fn crossover_shifts(
    words: usize,
) -> Vec<(usize, WireRepr, CollectiveKind, CollectiveKind)> {
    let mut shifts = Vec::new();
    for nodes in NODE_COUNTS {
        let dense = selector_pick_repr(nodes, words, WireRepr::DenseF64).0;
        for repr in REPRS.into_iter().filter(|r| *r != WireRepr::DenseF64) {
            let pick = selector_pick_repr(nodes, words, repr).0;
            if pick != dense {
                shifts.push((nodes, repr, dense, pick));
            }
        }
    }
    shifts
}

fn sweep_table(title: &str, words: usize) -> String {
    let mut out = format!(
        "### {title} ({words} params, {:.1} KB/round)\n\n\
         | nodes | groups | flat-star | two-level-tree | ring | halving-doubling | selector picks |\n\
         |---|---|---|---|---|---|---|\n",
        words as f64 * 8.0 / 1024.0,
    );
    for nodes in NODE_COUNTS {
        let cells: Vec<String> = CollectiveSelector::host_side()
            .candidates
            .iter()
            .map(|&k| format!("{:.0}", throughput(nodes, words, k)))
            .collect();
        out.push_str(&format!(
            "| {nodes} | {} | {} | {} |\n",
            default_groups(nodes),
            cells.join(" | "),
            selector_pick(nodes, words),
        ));
    }
    out
}

/// One row per cluster size: the selector's pick (and schedule cost)
/// under every wire representation, crossover-shifted cells marked.
fn repr_table(title: &str, words: usize) -> String {
    let header: Vec<String> = REPRS.iter().map(|r| format!("{r}")).collect();
    let mut out = format!(
        "### {title} ({words} params) — selector pick by wire representation\n\n\
         | nodes | {} |\n|---|{}\n",
        header.join(" | "),
        "---|".repeat(REPRS.len()),
    );
    for nodes in NODE_COUNTS {
        let dense = selector_pick_repr(nodes, words, WireRepr::DenseF64).0;
        let cells: Vec<String> = REPRS
            .iter()
            .map(|&repr| {
                let (kind, cost_s) = selector_pick_repr(nodes, words, repr);
                let shift = if kind == dense { "" } else { " **(crossover shift)**" };
                format!("{kind} ({cost_s:.6} s){shift}")
            })
            .collect();
        out.push_str(&format!("| {nodes} | {} |\n", cells.join(" | ")));
    }
    out
}

/// Loss curves of the two `cosmic-ml` study workloads under every
/// representation: what the compression costs *statistically*, next to
/// the wire bytes it saves.
fn convergence_section() -> String {
    let mut out = String::from(
        "### Convergence under lossy representations (4-worker averaged SGD, 6 epochs)\n\n\
         | workload | repr | initial loss | final loss | wire compression |\n\
         |---|---|---|---|---|\n",
    );
    // The ml study sizes its own repr sweep to its 65-word models
    // (top-k must actually drop coordinates to be a lossy demo).
    for w in study_workloads() {
        for curve in repr_curves(&w, &default_reprs()) {
            let first = curve.loss_history[0];
            let last = curve.loss_history.last().copied().unwrap_or(f64::NAN);
            let ratio = if curve.repr == WireRepr::DenseF64 {
                String::from("1.000x (verbatim)")
            } else {
                format!("{:.3}x", curve.stats.compression_ratio())
            };
            out.push_str(&format!(
                "| {} | {} | {first:.5} | {last:.5} | {ratio} |\n",
                w.name, curve.repr,
            ));
        }
    }
    out.push_str(
        "\nThe dense rows are bit-identical to uncompressed training; the lossy rows\n\
         still converge while shrinking every aggregation payload.\n",
    );
    out
}

/// Renders the measured crossover shifts as prose the tests assert on.
fn shift_summary() -> String {
    let mut out = String::from("\nMeasured crossover shifts (cheapest strategy changed):\n\n");
    for (title, words) in [("large model", LARGE_WORDS), ("small model", SMALL_WORDS)] {
        for (nodes, repr, dense, pick) in crossover_shifts(words) {
            out.push_str(&format!(
                "- {title}, {nodes} nodes: {dense} under dense_f64 -> {pick} under {repr}\n",
            ));
        }
    }
    out
}

/// Renders the study. For every cluster size, the selector's
/// large-model winner *under the context's wire representation* replays
/// one iteration through the collective [`ClusterTiming::model`] with
/// tracing enabled, booking the per-round `collective` spans and
/// per-level wire counters into the context's sink. All time is
/// virtual, so same-seed traces are byte-identical — including under
/// lossy representations.
pub(crate) fn run(ctx: &FigureCtx) -> String {
    let mut out = String::from(
        "## Collective strategies — throughput (records/s) by node count (FPGA cluster, b=10k)\n\n",
    );
    out.push_str(&sweep_table("Large model", LARGE_WORDS));
    out.push('\n');
    out.push_str(&sweep_table("Small model", SMALL_WORDS));
    out.push_str(
        "\nAll strategies fold bit-identically; the columns differ only in wire cost\n\
         (per-port serialization, per-message overhead, and per-round latency).\n",
    );
    out.push('\n');
    out.push_str(&repr_table("Large model", LARGE_WORDS));
    out.push('\n');
    out.push_str(&repr_table("Small model", SMALL_WORDS));
    out.push_str(&shift_summary());
    out.push('\n');
    out.push_str(&convergence_section());

    let faults = FaultTimingModel::none();
    for nodes in NODE_COUNTS {
        let kind = selector_pick_repr(nodes, LARGE_WORDS, ctx.repr).0;
        timing(nodes)
            .model(MINIBATCH, NodeCompute { records_per_sec: NODE_RPS }, LARGE_WORDS * 8)
            .with_collective(kind)
            .with_faults(&faults)
            .traced(&ctx.sink)
            .evaluate()
            .expect("valid traced sweep point");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Selection restricted to the tree-vs-ring pair the paper's
    /// hierarchy debate is about.
    fn tree_or_ring(nodes: usize, words: usize) -> CollectiveKind {
        let topology = assign_roles(nodes, default_groups(nodes)).expect("valid topology");
        CollectiveSelector::host_side()
            .with_candidates(vec![CollectiveKind::TwoLevelTree, CollectiveKind::RingAllReduce])
            .select(&topology, words, CHUNK_WORDS)
            .expect("valid selection")
            .kind
    }

    #[test]
    fn ring_beats_the_tree_for_large_models_on_small_clusters() {
        assert_eq!(tree_or_ring(4, LARGE_WORDS), CollectiveKind::RingAllReduce);
        assert!(
            throughput(4, LARGE_WORDS, CollectiveKind::RingAllReduce)
                > throughput(4, LARGE_WORDS, CollectiveKind::TwoLevelTree)
        );
    }

    #[test]
    fn tree_beats_the_ring_for_small_models_on_wide_clusters() {
        assert_eq!(tree_or_ring(32, SMALL_WORDS), CollectiveKind::TwoLevelTree);
        assert!(
            throughput(32, SMALL_WORDS, CollectiveKind::TwoLevelTree)
                > throughput(32, SMALL_WORDS, CollectiveKind::RingAllReduce)
        );
    }

    #[test]
    fn every_sweep_point_is_finite_and_positive() {
        for nodes in NODE_COUNTS {
            for words in [LARGE_WORDS, SMALL_WORDS] {
                for kind in CollectiveKind::ALL {
                    let t = throughput(nodes, words, kind);
                    assert!(t.is_finite() && t > 0.0, "{kind} at {nodes} nodes: {t}");
                }
            }
        }
    }

    /// Acceptance criterion of the repr axis: there is a measured
    /// (node-count, repr) cell where the cheapest strategy under a
    /// compressed representation differs from the dense pick, and the
    /// study's report states it.
    #[test]
    fn compressed_payloads_shift_a_measured_crossover_cell() {
        let large = crossover_shifts(LARGE_WORDS);
        assert!(
            large.iter().any(|&(nodes, repr, dense, pick)| {
                nodes == 4
                    && repr == WireRepr::TopK { k: 512 }
                    && dense == CollectiveKind::RecursiveHalvingDoubling
                    && pick == CollectiveKind::FlatStar
            }),
            "top-k must flip the 4-node large-model cell: {large:?}"
        );
        let small = crossover_shifts(SMALL_WORDS);
        assert!(
            small.iter().any(|&(_, repr, dense, pick)| matches!(repr, WireRepr::FixedPoint { .. })
                && dense != pick),
            "fixed point must flip a small-model cell: {small:?}"
        );

        let report = run(&FigureCtx::default());
        assert!(report.contains("crossover shift"), "the tables mark shifted cells");
        assert!(
            report.contains("halving_doubling under dense_f64 -> flat_star under top_k:512"),
            "the shift summary names the measured cell"
        );
    }

    /// Dense picks are a degenerate case of the repr-aware path, so the
    /// repr axis cannot drift the historical columns.
    #[test]
    fn dense_repr_pick_matches_the_historical_selector() {
        for nodes in NODE_COUNTS {
            for words in [LARGE_WORDS, SMALL_WORDS] {
                assert_eq!(
                    selector_pick_repr(nodes, words, WireRepr::DenseF64).0,
                    selector_pick(nodes, words),
                );
            }
        }
    }
}
