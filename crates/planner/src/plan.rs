//! The Planner: design-point selection from static estimates.

use cosmic_arch::{AcceleratorSpec, Geometry};
use cosmic_compiler::{mapping, BusModel, ListScheduler, MappingStrategy, ScheduleEstimate};
use cosmic_dfg::{analysis, Dfg};

/// One candidate accelerator configuration: `threads` worker threads,
/// each owning `rows_per_thread` full rows of PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Concurrent worker threads.
    pub threads: usize,
    /// PE rows allocated to each thread.
    pub rows_per_thread: usize,
}

impl DesignPoint {
    /// Total rows the point occupies.
    pub fn rows(&self) -> usize {
        self.threads * self.rows_per_thread
    }
}

impl std::fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}xR{}", self.threads, self.rows())
    }
}

/// The estimated performance of one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorPerf {
    /// The configuration.
    pub point: DesignPoint,
    /// Steady-state cycles each thread spends per training record
    /// (gradient + local model update), at its bandwidth share.
    pub cycles_per_record: u64,
    /// Records per second the whole accelerator sustains at the chip's
    /// clock (all threads).
    pub records_per_sec: f64,
    /// The underlying single-thread schedule estimate (at full bandwidth).
    pub estimate: ScheduleEstimate,
}

/// The Planner's output: the chosen design point, every point explored,
/// and the pruning bounds that shaped the space.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Chip this plan targets.
    pub spec: AcceleratorSpec,
    /// The best (highest-throughput, smallest-on-ties) design point.
    pub best: AcceleratorPerf,
    /// All feasible points estimated, in exploration order.
    pub explored: Vec<AcceleratorPerf>,
    /// The storage-derived thread bound.
    pub t_max_storage: usize,
    /// The final thread bound `min(storage, rows, mini-batch)`.
    pub t_max: usize,
}

/// Runs the Planner for one algorithm DFG on one chip, with the
/// programmer's mini-batch size bounding useful parallelism.
///
/// Exploration follows the paper's pruning: rows per thread are powers
/// of two below the row budget plus the budget itself, thread counts
/// powers of two below `t_max` plus `t_max` itself. Each point is
/// estimated by scheduling the DFG once per distinct geometry and
/// analytically applying the per-thread bandwidth share — the memory
/// interface is time-multiplexed round-robin across threads (paper §5.2).
///
/// # Panics
///
/// Panics if `minibatch` is zero or the chip has fewer PEs than one row.
pub fn plan(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize) -> Plan {
    let (t_max_storage, t_max) = thread_bounds(dfg, spec, minibatch);
    let (t1r1, explored) = walk(dfg, spec, pow2_sweep(spec.max_rows()), &pow2_sweep(t_max));
    // "The smallest, best-performing design point" (paper §4.4): a point
    // must be materially faster to justify more rows; a near-tie goes to
    // the smaller allocation. T1xR1 is the first point explored, so
    // seeding with it changes nothing.
    let best = explored.iter().fold(t1r1, |best, &perf| {
        let better = perf.records_per_sec > best.records_per_sec * 1.03
            || (perf.records_per_sec > best.records_per_sec * 0.97
                && perf.point.rows() < best.point.rows());
        if better {
            perf
        } else {
            best
        }
    });
    Plan { spec: *spec, best, explored, t_max_storage, t_max }
}

/// The storage-derived thread bound and `t_max = min(storage, rows,
/// mini-batch)`.
///
/// # Panics
///
/// Panics if `minibatch` is zero or the chip has fewer PEs than one row.
pub(crate) fn thread_bounds(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize) -> (usize, usize) {
    assert!(minibatch > 0, "mini-batch must be positive");
    assert!(spec.max_rows() > 0, "the chip must hold at least one row of PEs");
    let storage = analysis::storage_bytes(dfg).max(1);
    let t_max_storage = ((spec.sram_kb * 1024) / storage).max(1);
    (t_max_storage, t_max_storage.min(spec.max_rows()).min(minibatch))
}

/// The estimation walk both walkers share ([`plan`] and Fig 16's
/// [`crate::dse::sweep`]): T1xR1, where both start, and every feasible
/// candidate, `rows` outer and the ascending `threads` inner. Each row
/// count is mapped and scheduled once, at full bandwidth and with the
/// DFG's one priority order; [`perf_at`] applies each thread's share.
pub(crate) fn walk(
    dfg: &Dfg,
    spec: &AcceleratorSpec,
    rows: impl IntoIterator<Item = usize>,
    threads: &[usize],
) -> (AcceleratorPerf, Vec<AcceleratorPerf>) {
    let scheduler = ListScheduler::new(dfg);
    let estimate = |rows_per_thread| {
        let geometry = Geometry::new(rows_per_thread, spec.columns);
        let map = mapping::map(dfg, geometry, MappingStrategy::DataFirst);
        let words_per_cycle = spec.effective_words_per_cycle();
        scheduler.schedule(&map, geometry, words_per_cycle, BusModel::Hierarchical).estimate
    };
    let t1r1 = perf_at(dfg, spec, estimate(1), DesignPoint { threads: 1, rows_per_thread: 1 });
    let mut points = Vec::new();
    for rows_per_thread in rows {
        let est = if rows_per_thread == 1 { t1r1.estimate } else { estimate(rows_per_thread) };
        for &threads in threads.iter().take_while(|&&t| t * rows_per_thread <= spec.max_rows()) {
            points.push(perf_at(dfg, spec, est, DesignPoint { threads, rows_per_thread }));
        }
    }
    (t1r1, points)
}

/// Estimates one design point from a geometry's full-bandwidth schedule.
fn perf_at(
    dfg: &Dfg,
    spec: &AcceleratorSpec,
    est: ScheduleEstimate,
    point: DesignPoint,
) -> AcceleratorPerf {
    let share = spec.effective_words_per_cycle() / point.threads as f64;
    let mem_cycles = (dfg.data_len() as f64 / share).ceil() as u64;
    // Compute-side throughput bound is bandwidth-independent; the memory
    // stream is re-derived at the thread's share.
    let ii_compute = est.max_pe_instrs.max(est.max_row_bus).max(est.tree_bus_transfers).max(1);
    // Local SGD update: the gradient's parameters are updated in place by
    // the thread's PEs, 2 ops per parameter spread over the thread's PEs.
    let pes = (point.rows_per_thread * spec.columns) as u64;
    let update_cycles = (2 * dfg.gradient_len() as u64).div_ceil(pes);
    let latency = est.latency_cycles.max(mem_cycles);
    let cycles_per_record = ii_compute.max(mem_cycles).max(latency.div_ceil(2)) + update_cycles;
    let records_per_sec = point.threads as f64 * spec.freq_mhz * 1e6 / cycles_per_record as f64;
    AcceleratorPerf { point, cycles_per_record, records_per_sec, estimate: est }
}

/// The pruned candidates for rows per thread and for threads: 1, 2, 4,
/// ... below `bound`, plus `bound` itself.
fn pow2_sweep(bound: usize) -> Vec<usize> {
    let mut v: Vec<usize> =
        std::iter::successors(Some(1), |p| Some(p * 2)).take_while(|&p| p < bound).collect();
    v.push(bound);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_dfg::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn dfg(name: &str, env: &DimEnv) -> Dfg {
        lower(&parse(&programs::by_name(name, 10_000).unwrap()).unwrap(), env).unwrap()
    }

    fn small_spec() -> AcceleratorSpec {
        AcceleratorSpec { total_pes: 64, columns: 8, ..AcceleratorSpec::fpga_vu9p() }
    }

    #[test]
    fn plan_explores_and_picks_feasible_best() {
        let d = dfg("linreg", &DimEnv::new().with("n", 64));
        let p = plan(&d, &small_spec(), 10_000);
        assert!(!p.explored.is_empty());
        assert!(p.best.records_per_sec > 0.0);
        assert!(p.best.point.rows() <= small_spec().max_rows());
        // Best is within the smallest-best-performing band of everything
        // explored (a near-tie legitimately goes to fewer rows).
        for e in &p.explored {
            assert!(p.best.records_per_sec >= e.records_per_sec * 0.95, "{}", e.point);
        }
    }

    #[test]
    fn minibatch_bounds_threads() {
        let d = dfg("linreg", &DimEnv::new().with("n", 16));
        let p = plan(&d, &small_spec(), 2);
        assert!(p.t_max <= 2);
        assert!(p.explored.iter().all(|e| e.point.threads <= 2));
    }

    #[test]
    fn storage_bounds_threads() {
        // A model so large only a couple of copies fit in SRAM.
        let d = dfg("linreg", &DimEnv::new().with("n", 200_000));
        let mut spec = small_spec();
        spec.sram_kb = 2_000; // 2 MB for a ~0.8 MB+ per-thread footprint
        let p = plan(&d, &spec, 10_000);
        assert!(p.t_max_storage <= 2, "t_max_storage = {}", p.t_max_storage);
    }

    #[test]
    fn bandwidth_bound_workload_prefers_multithreading_over_rows() {
        // Linear regression is bandwidth-bound: with plenty of rows, a
        // single thread cannot use them; the planner should pick a point
        // that multi-threads (or at least not pay for more rows).
        let d = dfg("linreg", &DimEnv::new().with("n", 256));
        let p = plan(&d, &AcceleratorSpec::fpga_vu9p(), 10_000);
        let best = p.best.point;
        assert!(
            best.threads > 1 || best.rows_per_thread < 48,
            "bandwidth-bound workload must not claim the whole chip for one thread: {best}"
        );
    }

    #[test]
    fn more_threads_raise_throughput_for_fixed_rows() {
        // Paper Fig. 16: "for a fixed number of PE rows, increasing the
        // number of threads improves performance".
        let d = dfg("svm", &DimEnv::new().with("n", 128));
        let spec = small_spec();
        let one = plan(&d, &spec, 1); // forced single thread
        let many = plan(&d, &spec, 10_000);
        assert!(many.best.records_per_sec >= one.best.records_per_sec);
    }

    #[test]
    fn sweeps_cover_bounds() {
        assert_eq!(pow2_sweep(48), vec![1, 2, 4, 8, 16, 32, 48]);
        assert_eq!(pow2_sweep(3), vec![1, 2, 3]);
        assert_eq!(pow2_sweep(2), vec![1, 2]);
        assert_eq!(pow2_sweep(1), vec![1]);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(DesignPoint { threads: 2, rows_per_thread: 8 }.to_string(), "T2xR16");
    }
}
