//! Criterion benchmarks — one per table and figure of the paper's
//! evaluation. Each benchmark times the computation that regenerates its
//! experiment's data (on a representative slice where the full sweep
//! takes minutes); `cosmic-bench reproduce` prints the complete reports.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cosmic_bench::figures::{self, FigureCtx};
use cosmic_bench::harness::AccelKind;
use cosmic_core::cosmic_ml::BenchmarkId;
use cosmic_core::cosmic_telemetry::TraceSink;

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.bench_function("table1_benchmarks", |b| {
        b.iter(|| black_box(figures::table1_benchmarks::run(&FigureCtx::default()).len()))
    });
    g.bench_function("table2_platforms", |b| {
        b.iter(|| black_box(figures::table2_platforms::run(&FigureCtx::default()).len()))
    });
    g.bench_function("table3_utilization_row", |b| {
        b.iter(|| black_box(figures::table3_utilization::row(BenchmarkId::Tumor)))
    });
    g.finish();
}

fn bench_cluster_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_figures");
    g.sample_size(10);
    g.bench_function("fig07_speedup_row", |b| {
        b.iter(|| black_box(figures::fig07_speedup::speedups(BenchmarkId::Face)))
    });
    g.bench_function("fig08_scalability_row", |b| {
        b.iter(|| black_box(figures::fig08_scalability::scaling(BenchmarkId::Face)))
    });
    g.bench_function("fig09_platforms_row", |b| {
        b.iter(|| black_box(figures::fig09_platforms::speedups(BenchmarkId::Face)))
    });
    g.bench_function("fig10_compute_row", |b| {
        b.iter(|| black_box(figures::fig10_compute::speedups(BenchmarkId::Face)))
    });
    g.bench_function("fig11_perf_per_watt_row", |b| {
        b.iter(|| black_box(figures::fig11_perf_per_watt::ratios(BenchmarkId::Face)))
    });
    g.bench_function("fig12_minibatch_sweep", |b| {
        b.iter(|| black_box(figures::fig12_minibatch::sweep(BenchmarkId::Face)))
    });
    g.bench_function("fig13_breakdown_point", |b| {
        b.iter(|| {
            black_box(figures::fig13_breakdown::compute_fraction(
                BenchmarkId::Face,
                10_000,
                &TraceSink::new(),
            ))
        })
    });
    g.bench_function("fig14_sources_split", |b| {
        b.iter(|| black_box(figures::fig14_sources::split(BenchmarkId::Face)))
    });
    g.finish();
}

fn bench_accelerator_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("accelerator_figures");
    g.sample_size(10);
    // Warm the process-wide DFG/plan caches so the timed region is the
    // figure computation, not one-time lowering.
    let _ = cosmic_bench::cosmic_node_rps(BenchmarkId::Stock, AccelKind::Fpga, 10_000);
    g.bench_function("fig15_pe_sensitivity", |b| {
        b.iter(|| black_box(figures::fig15_sensitivity::pe_sensitivity(BenchmarkId::Stock)))
    });
    g.bench_function("fig15_bw_sensitivity", |b| {
        b.iter(|| black_box(figures::fig15_sensitivity::bw_sensitivity(BenchmarkId::Stock)))
    });
    g.bench_function("fig16_dse_sweep", |b| {
        b.iter(|| black_box(figures::fig16_dse::space(BenchmarkId::Tumor).points.len()))
    });
    g.bench_function("fig17_tabla_comparison", |b| {
        b.iter(|| {
            black_box(figures::fig17_tabla::comparison(BenchmarkId::Tumor, &TraceSink::new()))
        })
    });
    g.finish();
}

criterion_group!(evaluation, bench_tables, bench_cluster_figures, bench_accelerator_figures);
criterion_main!(evaluation);
