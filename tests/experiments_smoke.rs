//! Smoke tests over the evaluation harness: the cheap experiments render
//! well-formed reports (the full sweeps run in `cargo bench` and the
//! `cosmic-bench reproduce`).

use cosmic::prelude::*;
use cosmic_bench::figures::{self, FigureCtx};

#[test]
fn tables_render_every_benchmark() {
    let t1 = figures::table1_benchmarks::run(&FigureCtx::default());
    let t2 = figures::table2_platforms::run(&FigureCtx::default());
    for id in BenchmarkId::all() {
        assert!(t1.contains(&format!("| {id} |")), "table 1 misses {id}");
    }
    assert!(t2.contains("P-ASIC-G"));
    assert!(t2.contains("48 rows x 16 cols"));
}

#[test]
fn speedup_tables_have_consistent_shapes() {
    // Only the cheap benchmarks (collab filtering + thin models), so the
    // smoke test stays fast; backprop sweeps run under `cosmic-bench`.
    let id = BenchmarkId::Tumor;
    let s = figures::fig07_speedup::speedups(id);
    assert!(s.iter().all(|v| v.is_finite() && *v > 0.0));

    let (c8, c16, s8, s16) = figures::fig08_scalability::scaling(id);
    assert!(c8 > 1.0 && c16 > c8);
    assert!(s8 > 1.0 && s16 > s8);

    let platforms = figures::fig09_platforms::speedups(id);
    assert!(platforms.iter().all(|v| v.is_finite() && *v > 0.0));

    let f13 = figures::fig13_breakdown::compute_fraction(id, 10_000, &TraceSink::new());
    assert!((0.0..=1.0).contains(&f13));

    let (fpga, sw) = figures::fig14_sources::split(id);
    assert!(fpga > 1.0 && sw > 1.0);
}

#[test]
fn minibatch_sweep_brackets_the_default() {
    let rows = figures::fig12_minibatch::sweep(BenchmarkId::Face);
    assert_eq!(rows.len(), figures::fig12_minibatch::BATCHES.len());
    // Spark's own entry at b = 10,000 is its baseline: speedup 1.0.
    let at_default = rows.iter().find(|(b, _, _)| *b == 10_000).unwrap();
    assert!((at_default.2 - 1.0).abs() < 1e-9);
}

#[test]
fn tabla_comparison_is_material_on_a_dense_benchmark() {
    let (speedup, cosmic_t, tabla_t) =
        figures::fig17_tabla::comparison(BenchmarkId::Cancer1, &TraceSink::new());
    assert!(speedup > 1.2, "CoSMIC vs TABLA: {speedup:.2}");
    assert!(cosmic_t < tabla_t);
}
