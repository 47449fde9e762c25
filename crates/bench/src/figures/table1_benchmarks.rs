//! Table 1: the ten benchmarks — algorithms, domains, model topologies,
//! programmer-written lines of code, and dataset shapes.

use cosmic_core::cosmic_dsl;
use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};

use crate::figures::FigureCtx;

/// Lines of DSL code the programmer writes for a benchmark (measured from
/// the built-in program, as [`cosmic_dsl::Program::lines_of_code`]).
pub(crate) fn measured_loc(id: BenchmarkId) -> usize {
    let bench = id.benchmark();
    let src = bench.algorithm.dsl_source(DEFAULT_MINIBATCH);
    cosmic_dsl::parse(&src).expect("builtin parses").lines_of_code()
}

/// Renders the table.
pub fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Table 1 — Benchmarks, algorithms, domains, datasets\n\n\
         | name | algorithm | domain | features | topology | model KB | LoC (paper) | \
         LoC (ours) | # vectors | data GB |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for id in BenchmarkId::all() {
        let b = id.benchmark();
        out.push_str(&format!(
            "| {id} | {} | {} | {} | {} | {} | {} | {} | {} | {:.1} |\n",
            b.algorithm.family(),
            b.domain,
            b.features,
            b.topology,
            b.model_kb,
            b.lines_of_code,
            measured_loc(id),
            b.input_vectors,
            b.input_gb,
        ));
    }
    out.push_str(
        "\nDatasets are synthetic with the published shapes (the originals are not \
         redistributable); 'LoC (ours)' counts the built-in DSL program's declarations, \
         statements, and directives.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_loc_lands_in_papers_band() {
        for id in BenchmarkId::all() {
            let loc = measured_loc(id);
            assert!(
                (7..=60).contains(&loc),
                "{id}: {loc} lines — paper reports 22-55 for its richer dialect"
            );
        }
    }

    #[test]
    fn backprop_programs_are_the_longest() {
        let mnist = measured_loc(BenchmarkId::Mnist);
        let stock = measured_loc(BenchmarkId::Stock);
        assert!(mnist > stock, "backprop ({mnist}) must exceed linreg ({stock})");
    }

    #[test]
    fn table_lists_all_rows() {
        let t = run(&FigureCtx::default());
        for id in BenchmarkId::all() {
            assert!(t.contains(&format!("| {id} |")), "{id}");
        }
    }
}
