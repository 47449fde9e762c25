//! The Planner: design-point selection from static estimates.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// The smallest, best-performing design point (paper §4.4): the rule
    /// folds the pruned points in walk order from T1xR1, and a point
    /// replaces the incumbent only when it is more than 3 % faster, or
    /// within 3 % and on fewer rows.
    pub best: AcceleratorPerf,
    /// All feasible points estimated, in walk order (rows per thread
    /// outer, threads inner), T1xR1 first.
    pub explored: Vec<AcceleratorPerf>,
    /// The storage-derived thread bound.
    pub t_max_storage: usize,
    /// The final thread bound `min(storage, rows, mini-batch)`.
    pub t_max: usize,
}

impl Plan {
    /// `perf`'s throughput normalized to T1xR1, the first point explored.
    pub fn speedup(&self, perf: &AcceleratorPerf) -> f64 {
        perf.records_per_sec / self.explored[0].records_per_sec
    }

    /// Points for a fixed thread count, ordered by total rows — one curve
    /// of Figure 16.
    pub fn curve(&self, threads: usize) -> Vec<AcceleratorPerf> {
        let mut v: Vec<AcceleratorPerf> =
            self.explored.iter().copied().filter(|p| p.point.threads == threads).collect();
        v.sort_by_key(|p| p.point.rows());
        v
    }

    /// Distinct thread counts explored, ascending.
    pub fn thread_counts(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.explored.iter().map(|p| p.point.threads).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
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
/// The geometries are estimated on every core; the plan does not depend
/// on how many there are.
///
/// # Panics
///
/// Panics if `minibatch` is zero or the chip has fewer PEs than one row.
pub fn plan(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize) -> Plan {
    plan_on(dfg, spec, minibatch, cores())
}

/// [`plan`] with the walk fanned out to `workers` threads.
fn plan_on(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize, workers: usize) -> Plan {
    let (t_max_storage, t_max) = thread_bounds(dfg, spec, minibatch);
    let explored = walk(dfg, spec, &pow2_sweep(spec.max_rows()), &pow2_sweep(t_max), workers);
    let best = smallest_best(&explored);
    Plan { spec: *spec, best, explored, t_max_storage, t_max }
}

/// The unpruned design space Figure 16 draws: `explored` holds every
/// feasible point, threads `1..=t_max` and rows per thread
/// `1..=max_rows`, in walk order. `best` is [`plan`]'s choice: the rule
/// runs over the grid's pruned points, which are the Planner's estimates
/// in the Planner's order (the rule depends on order, so it never runs
/// over the whole grid).
///
/// # Panics
///
/// Panics if `minibatch` is zero or the chip has fewer PEs than one row.
pub fn grid(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize) -> Plan {
    grid_on(dfg, spec, minibatch, cores())
}

/// [`grid`] with the walk fanned out to `workers` threads.
fn grid_on(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize, workers: usize) -> Plan {
    let (t_max_storage, t_max) = thread_bounds(dfg, spec, minibatch);
    let all = |bound: usize| (1..=bound).collect::<Vec<_>>();
    let explored = walk(dfg, spec, &all(spec.max_rows()), &all(t_max), workers);
    let (rows, threads) = (pow2_sweep(spec.max_rows()), pow2_sweep(t_max));
    let pruned: Vec<AcceleratorPerf> = explored
        .iter()
        .copied()
        .filter(|p| rows.contains(&p.point.rows_per_thread) && threads.contains(&p.point.threads))
        .collect();
    let best = smallest_best(&pruned);
    Plan { spec: *spec, best, explored, t_max_storage, t_max }
}

/// The one selection rule, "the smallest, best-performing design point"
/// (paper §4.4), folded from `points[0]` as [`Plan::best`] states it.
fn smallest_best(points: &[AcceleratorPerf]) -> AcceleratorPerf {
    points.iter().fold(points[0], |best, &perf| {
        let better = perf.records_per_sec > best.records_per_sec * 1.03
            || (perf.records_per_sec > best.records_per_sec * 0.97
                && perf.point.rows() < best.point.rows());
        if better {
            perf
        } else {
            best
        }
    })
}

/// The storage-derived thread bound and `t_max = min(storage, rows,
/// mini-batch)`.
///
/// # Panics
///
/// Panics if `minibatch` is zero or the chip has fewer PEs than one row.
fn thread_bounds(dfg: &Dfg, spec: &AcceleratorSpec, minibatch: usize) -> (usize, usize) {
    assert!(minibatch > 0, "mini-batch must be positive");
    assert!(spec.max_rows() > 0, "the chip must hold at least one row of PEs");
    let storage = analysis::storage_bytes(dfg).max(1);
    let t_max_storage = ((spec.sram_kb * 1024) / storage).max(1);
    (t_max_storage, t_max_storage.min(spec.max_rows()).min(minibatch))
}

/// The cores the walk fans out to.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The estimation walk [`plan`] and [`grid`] share: every feasible
/// candidate, `rows` outer and the ascending `threads` inner. Both lists
/// start at 1, so T1xR1 is the first point. Each row count is mapped and
/// scheduled once, at full bandwidth and with the DFG's one priority
/// order; [`perf_at`] applies each thread's share.
///
/// The row counts are estimated on the caller and on up to `workers - 1`
/// scoped threads, each taking the next unclaimed row count. Every
/// estimate lands at its row count's position, so the result is the same
/// for any `workers`. A worker's panic is re-raised on the caller when the
/// scope ends.
fn walk(
    dfg: &Dfg,
    spec: &AcceleratorSpec,
    rows: &[usize],
    threads: &[usize],
    workers: usize,
) -> Vec<AcceleratorPerf> {
    debug_assert_eq!((rows.first(), threads.first()), (Some(&1), Some(&1)), "T1xR1 comes first");
    let scheduler = ListScheduler::new(dfg);
    let estimate = |rows_per_thread| {
        let geometry = Geometry::new(rows_per_thread, spec.columns);
        let map = mapping::map(dfg, geometry, MappingStrategy::DataFirst);
        let words_per_cycle = spec.effective_words_per_cycle();
        scheduler.schedule(&map, geometry, words_per_cycle, BusModel::Hierarchical).estimate
    };
    let slots: Vec<OnceLock<ScheduleEstimate>> = rows.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&rows_per_thread) = rows.get(i) else { break };
        let _ = slots[i].set(estimate(rows_per_thread));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(rows.len()) {
            scope.spawn(work);
        }
        work();
    });
    // The scope has joined every worker, so every slot is filled.
    let estimates: Vec<ScheduleEstimate> = slots
        .into_iter()
        .zip(rows)
        .map(|(slot, &rows_per_thread)| {
            slot.into_inner().unwrap_or_else(|| estimate(rows_per_thread))
        })
        .collect();
    let mut points = Vec::new();
    for (&rows_per_thread, &est) in rows.iter().zip(&estimates) {
        for &threads in threads.iter().take_while(|&&t| t * rows_per_thread <= spec.max_rows()) {
            points.push(perf_at(dfg, spec, est, DesignPoint { threads, rows_per_thread }));
        }
    }
    points
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

    /// The walk's fan-out changes nothing, and the grid marks the
    /// Planner's choice: three Table 1 programs at the compile golden's
    /// scale (mnist's backprop at an eighth, stock's linreg, movielens' CF)
    /// plan and walk the grid identically on 1, 2 and 7 workers.
    #[test]
    fn the_walk_is_the_same_on_any_number_of_workers() {
        let spec = AcceleratorSpec::fpga_vu9p();
        let table1 = [
            ("backprop", DimEnv::new().with("n", 98).with("h", 98).with("o", 2)),
            ("linreg", DimEnv::new().with("n", 8_000)),
            ("cf", DimEnv::new().with("k", 10)),
        ];
        for (name, env) in &table1 {
            let d = dfg(name, env);
            let plans = [1, 2, 7].map(|workers| plan_on(&d, &spec, 10_000, workers));
            assert_eq!(plans[0], plans[1], "{name}");
            assert_eq!(plans[0], plans[2], "{name}");
            let grids = [1, 2, 7].map(|workers| grid_on(&d, &spec, 10_000, workers));
            assert_eq!(grids[0], grids[1], "{name}");
            assert_eq!(grids[0], grids[2], "{name}");
            assert_eq!(grids[0].best, plans[0].best, "{name}");
        }
    }

    fn grid_of(name: &str, n: usize) -> Plan {
        let env = DimEnv::new().with("n", n).with("h", 16).with("o", 4).with("k", 8);
        grid(&dfg(name, &env), &small_spec(), 10_000)
    }

    #[test]
    fn t1r1_is_the_baseline() {
        let g = grid_of("linreg", 64);
        let t1r1 = g.explored[0];
        assert_eq!(t1r1.point, DesignPoint { threads: 1, rows_per_thread: 1 });
        assert!((g.speedup(&t1r1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_grid_marks_the_planners_choice() {
        let env = DimEnv::new().with("n", 64);
        let d = dfg("svm", &env);
        let (g, p) = (grid(&d, &small_spec(), 10_000), plan(&d, &small_spec(), 10_000));
        assert_eq!(g.best, p.best);
        assert!(g.explored.len() > p.explored.len());
        assert!(p.explored.iter().all(|e| g.explored.contains(e)));
        assert!(g.speedup(&g.best) >= 1.0);
    }

    #[test]
    fn curves_are_row_sorted_and_complete() {
        let g = grid_of("logreg", 32);
        let t_max = g.t_max;
        assert_eq!(g.thread_counts(), (1..=t_max).collect::<Vec<_>>());
        for t in g.thread_counts() {
            let curve = g.curve(t);
            // Every multiple of `t` within the row budget, ascending.
            let rows: Vec<usize> = curve.iter().map(|p| p.point.rows()).collect();
            assert_eq!(rows, (1..=small_spec().max_rows() / t).map(|r| r * t).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fixed_rows_more_threads_not_slower() {
        // Paper Fig. 16's observation, checked on the grid: compare
        // points with equal total rows and different thread counts.
        let g = grid_of("linreg", 128);
        for a in &g.explored {
            for b in &g.explored {
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
        let g = grid_of("svm", 32);
        assert!(g.explored.iter().all(|p| p.point.rows() <= small_spec().max_rows()));
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
