//! Figure 16: the Planner's design-space exploration — normalized
//! performance of every (threads × rows) point for four representative
//! benchmarks, the Planner's choice marked.
//!
//! Paper: mnist and movielens want all 48 rows (compute-bound); stock and
//! tumor saturate beyond 16 rows; for a fixed row count, more threads
//! always help.

use cosmic_core::cosmic_arch::AcceleratorSpec;
use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};
use cosmic_core::cosmic_planner::{self, Plan};

use crate::figures::FigureCtx;
use crate::harness::full_dfg;

/// The four benchmarks the paper plots.
pub(crate) const BENCHES: [BenchmarkId; 4] =
    [BenchmarkId::Mnist, BenchmarkId::Movielens, BenchmarkId::Stock, BenchmarkId::Tumor];

/// Walks one benchmark's unpruned design space on the VU9P.
pub(crate) fn space(id: BenchmarkId) -> Plan {
    cosmic_planner::grid(full_dfg(id), &AcceleratorSpec::fpga_vu9p(), DEFAULT_MINIBATCH)
}

/// Renders the figure.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from("## Figure 16 — Design-space exploration (normalized to T1xR1)\n");
    for id in BENCHES {
        let grid = space(id);
        let best = grid.best;
        out.push_str(&format!(
            "\n### {id} (optimum {} at {:.1}x, t_max = {})\n\n| threads \\ rows |",
            best.point,
            grid.speedup(&best),
            grid.t_max
        ));
        // Columns: a compact set of total-row counts, always with the
        // marked point's.
        let mut row_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 24, 32, 48, best.point.rows()]
            .into_iter()
            .filter(|&r| grid.explored.iter().any(|p| p.point.rows() == r))
            .collect();
        row_counts.sort_unstable();
        row_counts.dedup();
        for r in &row_counts {
            out.push_str(&format!(" R{r} |"));
        }
        out.push('\n');
        out.push_str(&format!("|---|{}\n", "---|".repeat(row_counts.len())));
        for t in grid.thread_counts() {
            let curve = grid.curve(t);
            let cells: Vec<_> =
                row_counts.iter().map(|r| curve.iter().find(|p| p.point.rows() == *r)).collect();
            // A thread count no drawn column has a point for draws no row.
            if cells.iter().all(Option::is_none) {
                continue;
            }
            out.push_str(&format!("| T{t} |"));
            for cell in cells {
                match cell {
                    Some(p) => {
                        let marker = if p.point == best.point { "**" } else { "" };
                        out.push_str(&format!(" {marker}{:.1}{marker} |", grid.speedup(p)));
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
        let best = space(BenchmarkId::Movielens).best.point;
        assert!(best.rows() >= 24, "movielens wants many rows, got {best}");
    }

    #[test]
    fn bandwidth_bound_benchmark_saturates() {
        let grid = space(BenchmarkId::Stock);
        // Performance at full rows is not much better than at 16 rows for
        // a single thread (paper: saturates beyond 16).
        let one_thread = grid.curve(1);
        let at16 = grid.speedup(one_thread.iter().find(|p| p.point.rows() >= 16).unwrap());
        let at48 = grid.speedup(one_thread.last().unwrap());
        assert!(at48 < at16 * 1.6, "stock must saturate: {at16:.1} at 16 rows vs {at48:.1} at 48");
    }

    #[test]
    fn more_threads_never_hurt_at_fixed_rows() {
        let grid = space(BenchmarkId::Tumor);
        for a in &grid.explored {
            for b in &grid.explored {
                if a.point.rows() == b.point.rows() && a.point.threads < b.point.threads {
                    assert!(b.records_per_sec >= a.records_per_sec * 0.97);
                }
            }
        }
    }

    /// Every table bolds exactly one cell, and it is the point the
    /// Planner picks.
    #[test]
    fn the_figure_marks_the_planners_choice() {
        let report = run(&FigureCtx::default());
        let sections: Vec<&str> = report.split("\n### ").skip(1).collect();
        assert_eq!(sections.len(), BENCHES.len());
        for (id, section) in BENCHES.into_iter().zip(sections) {
            let spec = AcceleratorSpec::fpga_vu9p();
            let best = cosmic_planner::plan(full_dfg(id), &spec, DEFAULT_MINIBATCH).best.point;
            assert!(section.starts_with(&format!("{id} (optimum {best} at ")), "{section}");
            let table: Vec<Vec<&str>> = section
                .lines()
                .filter(|l| l.starts_with('|'))
                .map(|l| l.split('|').map(str::trim).collect())
                .collect();
            let marked: Vec<(&str, &str)> = table[2..]
                .iter()
                .flat_map(|row| {
                    let columns = &table[0];
                    (0..row.len())
                        .filter(|&i| row[i].starts_with("**"))
                        .map(|i| (row[1], columns[i]))
                })
                .collect();
            let (t, r) = (format!("T{}", best.threads), format!("R{}", best.rows()));
            assert_eq!(marked, [(t.as_str(), r.as_str())], "{id}");
            // Every drawn row carries a number.
            for row in &table[2..] {
                assert!(row[2..].iter().any(|cell| cell.contains(|c: char| c.is_ascii_digit())));
            }
        }
    }
}
