//! Table 3: the Planner's chosen thread count per FPGA and the resulting
//! LUT / flip-flop / BRAM / DSP utilization for every benchmark.

use cosmic_core::cosmic_arch::AcceleratorSpec;
use cosmic_core::cosmic_ml::{suite::DEFAULT_MINIBATCH, BenchmarkId};
use cosmic_core::cosmic_planner::{utilization, Utilization};

use crate::figures::FigureCtx;
use crate::harness::{full_dfg, plan_for};

/// The planned design point's utilization for one benchmark.
pub(crate) fn row(id: BenchmarkId) -> (usize, Utilization) {
    let spec = AcceleratorSpec::fpga_vu9p();
    let plan = plan_for(id, &spec, DEFAULT_MINIBATCH);
    let u = utilization(full_dfg(id), &spec, plan.best.point);
    (plan.best.point.threads, u)
}

/// Renders the table.
pub(crate) fn run(_: &FigureCtx) -> String {
    let mut out = String::from(
        "## Table 3 — Threads per FPGA and resource utilization (UltraScale+ VU9P)\n\n\
         | benchmark | threads | LUTs | LUT % | FFs | FF % | BRAM KB | BRAM % | DSPs | DSP % |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for id in BenchmarkId::all() {
        let (threads, u) = row(id);
        out.push_str(&format!(
            "| {id} | {threads} | {} | {:.1}% | {} | {:.1}% | {} | {:.1}% | {} | {:.1}% |\n",
            u.luts,
            100.0 * u.luts_frac,
            u.flip_flops,
            100.0 * u.ffs_frac,
            u.bram_bytes / 1024,
            100.0 * u.bram_frac,
            u.dsps,
            100.0 * u.dsps_frac,
        ));
    }
    out.push_str(
        "\nPaper: 1-8 threads per FPGA; compute-bound benchmarks use the whole fabric \
         (72% LUTs, ~60% DSPs), bandwidth-bound ones a quarter (24% LUTs, ~20% DSPs); \
         BRAM stays 83-89% everywhere.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_are_in_papers_range() {
        for id in [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens] {
            let (threads, _) = row(id);
            assert!((1..=48).contains(&threads), "{id}: {threads} threads");
        }
    }

    #[test]
    fn utilization_fractions_are_sane() {
        for id in [BenchmarkId::Stock, BenchmarkId::Face] {
            let (_, u) = row(id);
            for (name, f) in [
                ("lut", u.luts_frac),
                ("ff", u.ffs_frac),
                ("bram", u.bram_frac),
                ("dsp", u.dsps_frac),
            ] {
                assert!((0.0..=1.0).contains(&f), "{id} {name}: {f}");
            }
            assert!(u.bram_frac > 0.5, "{id}: BRAM should be heavily used");
        }
    }
}
