//! Full design-space sweep for Figure 16: normalized performance of every
//! (threads × rows) point, with the optimum marked.

use cosmic_arch::AcceleratorSpec;
use cosmic_dfg::Dfg;

use crate::plan::{thread_bounds, walk, DesignPoint};

/// One point of the Figure 16 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The configuration.
    pub point: DesignPoint,
    /// Estimated accelerator throughput in records/s.
    pub records_per_sec: f64,
    /// Speedup normalized to the T1xR1 point.
    pub speedup_vs_t1r1: f64,
}

/// The swept design space of one benchmark on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Every feasible point.
    pub points: Vec<SweepPoint>,
    /// Index of the optimum in `points`.
    pub best: usize,
    /// The thread bound that applied.
    pub t_max: usize,
}

impl DesignSpace {
    /// The optimal point (the concentric circle of Figure 16).
    pub fn optimum(&self) -> SweepPoint {
        self.points[self.best]
    }

    /// Points for a fixed thread count, ordered by total rows — one curve
    /// of Figure 16.
    pub fn curve(&self, threads: usize) -> Vec<SweepPoint> {
        let mut v: Vec<SweepPoint> =
            self.points.iter().copied().filter(|p| p.point.threads == threads).collect();
        v.sort_by_key(|p| p.point.rows());
        v
    }

    /// Distinct thread counts present, ascending.
    pub fn thread_counts(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.points.iter().map(|p| p.point.threads).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Sweeps every (threads, rows-per-thread) combination with
/// `threads × rows_per_thread ≤ row budget` and `threads ≤ t_max`,
/// normalizing to T1xR1.
///
/// Unlike [`crate::plan()`] (which explores the paper's pruned space), this
/// walks the *entire* row-granularity space so the full Figure 16 heat
/// map can be drawn. It estimates through the Planner's walk, but its
/// optimum is the strict maximum (the last of equals), not the Planner's
/// smallest-within-3 % rule.
///
/// # Panics
///
/// Panics if `minibatch` is zero or the chip has fewer PEs than one row.
pub fn sweep(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize) -> DesignSpace {
    let (_, t_max) = thread_bounds(dfg, spec, minibatch);
    let threads: Vec<usize> = (1..=t_max).collect();
    let (t1r1, explored) = walk(dfg, spec, 1..=spec.max_rows(), &threads);
    let baseline = t1r1.records_per_sec;
    let points: Vec<SweepPoint> = explored
        .into_iter()
        .map(|p| SweepPoint {
            point: p.point,
            records_per_sec: p.records_per_sec,
            speedup_vs_t1r1: p.records_per_sec / baseline,
        })
        .collect();
    // T1xR1 is point 0, the optimum of a sweep that found nothing better.
    let best = points
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.records_per_sec.total_cmp(&b.records_per_sec))
        .map_or(0, |(i, _)| i);
    DesignSpace { points, best, t_max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_dfg::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn spec() -> AcceleratorSpec {
        AcceleratorSpec { total_pes: 64, columns: 8, ..AcceleratorSpec::fpga_vu9p() }
    }

    fn sweep_of(name: &str, n: usize) -> DesignSpace {
        let env = DimEnv::new().with("n", n).with("h", 16).with("o", 4).with("k", 8);
        let dfg = lower(&parse(&programs::by_name(name, 10_000).unwrap()).unwrap(), &env).unwrap();
        sweep(&dfg, &spec(), 10_000)
    }

    #[test]
    fn t1r1_is_the_baseline() {
        let ds = sweep_of("linreg", 64);
        let t1r1 = ds
            .points
            .iter()
            .find(|p| p.point.threads == 1 && p.point.rows_per_thread == 1)
            .unwrap();
        assert!((t1r1.speedup_vs_t1r1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimum_dominates() {
        let ds = sweep_of("svm", 64);
        let best = ds.optimum();
        for p in &ds.points {
            assert!(best.records_per_sec >= p.records_per_sec);
        }
        assert!(best.speedup_vs_t1r1 >= 1.0);
    }

    #[test]
    fn curves_are_row_sorted_and_complete() {
        let ds = sweep_of("logreg", 32);
        for t in ds.thread_counts() {
            let curve = ds.curve(t);
            assert!(!curve.is_empty());
            for pair in curve.windows(2) {
                assert!(pair[0].point.rows() <= pair[1].point.rows());
            }
        }
    }

    #[test]
    fn fixed_rows_more_threads_not_slower() {
        // Paper Fig. 16's observation, checked on the sweep: compare
        // points with equal total rows and different thread counts.
        let ds = sweep_of("linreg", 128);
        for a in &ds.points {
            for b in &ds.points {
                if a.point.rows() == b.point.rows() && a.point.threads < b.point.threads {
                    assert!(
                        b.records_per_sec >= a.records_per_sec * 0.999,
                        "{} vs {}: {} vs {}",
                        a.point,
                        b.point,
                        a.records_per_sec,
                        b.records_per_sec
                    );
                }
            }
        }
    }

    #[test]
    fn feasibility_respects_row_budget() {
        let ds = sweep_of("svm", 32);
        assert!(ds.points.iter().all(|p| p.point.rows() <= spec().max_rows()));
    }
}
