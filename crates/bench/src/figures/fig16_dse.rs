//! Figure 16: the Planner's design-space exploration — normalized
//! performance of every (threads × rows) point for four representative
//! benchmarks, optimum marked.
//!
//! Paper: mnist and movielens want all 48 rows (compute-bound); stock and
//! tumor saturate beyond 16 rows; for a fixed row count, more threads
//! always help.

use cosmic_core::cosmic_arch::AcceleratorSpec;
use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};
use cosmic_core::cosmic_planner::dse::{self, DesignSpace};

use crate::figures::FigureCtx;
use crate::harness::full_dfg;

/// The four benchmarks the paper plots.
pub(crate) const BENCHES: [BenchmarkId; 4] =
    [BenchmarkId::Mnist, BenchmarkId::Movielens, BenchmarkId::Stock, BenchmarkId::Tumor];

/// Sweeps one benchmark's design space on the VU9P.
pub(crate) fn space(id: BenchmarkId) -> DesignSpace {
    dse::sweep(full_dfg(id), &AcceleratorSpec::fpga_vu9p(), DEFAULT_MINIBATCH)
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from("## Figure 16 — Design-space exploration (normalized to T1xR1)\n");
    for id in BENCHES {
        let ds = space(id);
        let best = ds.optimum();
        out.push_str(&format!(
            "\n### {id} (optimum {} at {:.1}x, t_max = {})\n\n| threads \\ rows |",
            best.point, best.speedup_vs_t1r1, ds.t_max
        ));
        // Columns: a compact set of total-row counts.
        let row_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 24, 32, 48]
            .into_iter()
            .filter(|&r| ds.points.iter().any(|p| p.point.rows() == r))
            .collect();
        for r in &row_counts {
            out.push_str(&format!(" R{r} |"));
        }
        out.push('\n');
        out.push_str(&format!("|---|{}\n", "---|".repeat(row_counts.len())));
        for t in ds.thread_counts() {
            let curve = ds.curve(t);
            out.push_str(&format!("| T{t} |"));
            for r in &row_counts {
                match curve.iter().find(|p| p.point.rows() == *r) {
                    Some(p) => {
                        let marker = if p.point == best.point { "**" } else { "" };
                        out.push_str(&format!(" {marker}{:.1}{marker} |", p.speedup_vs_t1r1));
                    }
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
    }
    out.push_str(
        "\nPaper: mnist/movielens peak at 48 rows; stock/tumor saturate past 16 rows; \
         more threads at fixed rows always help. Optima are bolded.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bound_optimum_uses_the_whole_fabric() {
        let ds = space(BenchmarkId::Movielens);
        assert!(
            ds.optimum().point.rows() >= 24,
            "movielens wants many rows, got {}",
            ds.optimum().point
        );
    }

    #[test]
    fn bandwidth_bound_benchmark_saturates() {
        let ds = space(BenchmarkId::Stock);
        // Performance at full rows is not much better than at 16 rows for
        // a single thread (paper: saturates beyond 16).
        let one_thread = ds.curve(1);
        let at16 = one_thread.iter().find(|p| p.point.rows() >= 16).unwrap().speedup_vs_t1r1;
        let at48 = one_thread.last().unwrap().speedup_vs_t1r1;
        assert!(at48 < at16 * 1.6, "stock must saturate: {at16:.1} at 16 rows vs {at48:.1} at 48");
    }

    #[test]
    fn more_threads_never_hurt_at_fixed_rows() {
        let ds = space(BenchmarkId::Tumor);
        for a in &ds.points {
            for b in &ds.points {
                if a.point.rows() == b.point.rows() && a.point.threads < b.point.threads {
                    assert!(b.records_per_sec >= a.records_per_sec * 0.97);
                }
            }
        }
    }
}
