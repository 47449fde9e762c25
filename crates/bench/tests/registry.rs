//! The figure registry and its one dispatcher: `FIGURES` is the paper's
//! evaluation in order, `cosmic-bench` reaches every entry by name and
//! rejects everything else with exit code 2, `run_all` is the registry
//! walked once, and every instrumented figure exports byte-identical
//! telemetry per seed.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use cosmic_bench::figures::{run_all, FigureCtx, FigureFn, FIGURES};
use cosmic_core::cosmic_runtime::collectives::WireRepr;

const PAPER_ORDER: [&str; 18] = [
    "table1_benchmarks",
    "table2_platforms",
    "fig07_speedup",
    "fig08_scalability",
    "fig09_platforms",
    "fig10_compute",
    "fig11_perf_per_watt",
    "fig12_minibatch",
    "fig13_breakdown",
    "fig14_sources",
    "fig15_sensitivity",
    "fig16_dse",
    "table3_utilization",
    "fig17_tabla",
    "fig_faults",
    "fig_collectives",
    "fig_elastic",
    "fig_director",
];

fn cosmic_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosmic-bench")).args(args).output().expect("binary runs")
}

#[test]
fn registry_is_the_evaluation_in_paper_order_and_list_prints_it() {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, PAPER_ORDER);
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len(), "names are unique");

    let out = cosmic_bench(&["list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(listed.lines().collect::<Vec<_>>(), names);
}

#[test]
fn bad_invocations_exit_2_with_a_message() {
    let cases: [(&[&str], &str); 7] = [
        (&["nope"], "error: unknown figure \"nope\""),
        (&[], "error: no figure named"),
        (&["table2_platforms", "--trace"], "error: --trace requires a path argument"),
        (
            &["table2_platforms", "--transport", "carrier-pigeon"],
            "error: unknown transport \"carrier-pigeon\" (expected sim or tcp)",
        ),
        (
            &["table2_platforms", "--repr=nope"],
            "error: unknown repr \"nope\" (expected dense, fixed_point[:bits], or top_k[:k])",
        ),
        (&["table2_platforms", "--frobnicate"], "error: unexpected argument \"--frobnicate\""),
        (&["table2_platforms", "fig07_speedup"], "error: unexpected argument \"fig07_speedup\""),
    ];
    for (args, message) in cases {
        let out = cosmic_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing renders");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
    }
    // An unknown name lists the registry, so the fix is on screen.
    let stderr = String::from_utf8(cosmic_bench(&["nope"]).stderr).expect("utf-8");
    for name in PAPER_ORDER {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

/// One `run_all` render (the whole evaluation, minutes of it) checked
/// three ways: a root span per registry entry in order, and section
/// equality at both ends of the join — the two leading tables and the
/// three trailing studies re-render in well under a second, the
/// figures between them do not.
#[test]
fn run_all_is_the_registry_walked_once() {
    let ctx = FigureCtx::default();
    let all = run_all(&ctx);
    assert!(ctx.sink.validate_tree().is_ok());
    let spans = ctx.sink.spans();
    let roots: Vec<&str> =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| s.name.as_str()).collect();
    assert_eq!(roots, PAPER_ORDER, "one top-level span per experiment, in order");

    let sections = |entries: &[(&str, FigureFn)]| {
        entries.iter().map(|(_, run)| run(&FigureCtx::default())).collect::<Vec<_>>().join("\n")
    };
    let (head, tail) = (sections(&FIGURES[..2]), sections(&FIGURES[FIGURES.len() - 3..]));
    assert!(all.starts_with(&format!("{head}\n")), "leading sections, joined by newlines");
    assert!(all.ends_with(&format!("\n{tail}")), "trailing sections, joined by newlines");
}

/// Same seed, byte-identical report, Chrome trace and metrics — for
/// every figure that books telemetry, and for the lossy replay CI
/// double-runs as `fig_collectives --repr fixed_point`. The needle pins
/// that the report is the study it claims to be.
#[test]
fn instrumented_figures_export_byte_identical_telemetry_per_seed() {
    let lossy = WireRepr::FixedPoint { frac_bits: 20 };
    let cases = [
        ("fig13_breakdown", WireRepr::DenseF64, "**mean**"),
        ("fig17_tabla", WireRepr::DenseF64, "**geomean**"),
        ("fig_faults", WireRepr::DenseF64, "surviving nodes"),
        ("fig_collectives", WireRepr::DenseF64, "ring"),
        ("fig_collectives", lossy, "crossover shift"),
        ("fig_elastic", WireRepr::DenseF64, "rejoins"),
        ("fig_director", WireRepr::DenseF64, "IDENTICAL"),
    ];
    for (name, repr, needle) in cases {
        let (_, run) = FIGURES.iter().find(|(n, _)| *n == name).expect("registered");
        let export = || {
            let ctx = FigureCtx { repr, ..FigureCtx::default() };
            let report = run(&ctx);
            assert!(ctx.sink.validate_tree().is_ok(), "{name}");
            assert!(ctx.sink.span_count() > 0, "{name} books telemetry");
            (report, ctx.sink.chrome_trace_json(), ctx.sink.metrics_json())
        };
        let first = export();
        assert!(first.0.contains(needle), "{name}: report lacks {needle:?}");
        assert!(first == export(), "{name} ({repr}): exports differ between same-seed runs");
    }
}
