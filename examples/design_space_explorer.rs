//! Design-space explorer: watch the Planner balance multi-threaded
//! parallelism against single-thread performance (paper §4.4 and
//! Figure 16) for any algorithm and chip.
//!
//! ```text
//! cargo run --release --example design_space_explorer
//! ```

use cosmic::cosmic_arch::AcceleratorSpec;
use cosmic::cosmic_dfg::{lower, DimEnv};
use cosmic::cosmic_dsl::{parse, programs};
use cosmic::cosmic_planner::grid;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = AcceleratorSpec::fpga_vu9p();
    println!(
        "chip: {} — {} PEs as {} rows x {} columns, {:.1} GB/s\n",
        spec.kind,
        spec.total_pes,
        spec.max_rows(),
        spec.columns,
        spec.bandwidth_gbps
    );

    for (label, source, env) in [
        (
            "stock (linear regression, 8,000 features — bandwidth-bound)",
            programs::linear_regression(10_000),
            DimEnv::new().with("n", 8_000),
        ),
        (
            "movielens (collaborative filtering, k = 10 — compute-bound)",
            programs::collaborative_filtering(10_000),
            DimEnv::new().with("k", 10),
        ),
        (
            "mnist-lite (backprop 256x256x10 — on-chip-communication-bound)",
            programs::backpropagation(10_000),
            DimEnv::new().with("n", 256).with("h", 256).with("o", 10),
        ),
    ] {
        let dfg = lower(&parse(&source)?, &env)?;
        println!("=== {label} ===");
        println!(
            "    DFG: {} ops, storage {} KB/thread",
            dfg.op_count(),
            cosmic::cosmic_dfg::analysis::storage_bytes(&dfg) / 1024
        );

        // The full Figure 16-style grid: the Planner's choice, then one
        // line per thread count.
        let g = grid(&dfg, &spec, 10_000);
        println!(
            "    Planner: t_max = {} (storage bound {}), chose {} at {:.0} records/s ({:.1}x over T1xR1)",
            g.t_max,
            g.t_max_storage,
            g.best.point,
            g.best.records_per_sec,
            g.speedup(&g.best)
        );
        for t in g.thread_counts().into_iter().take(4) {
            let curve = g.curve(t);
            let cells: Vec<String> = curve
                .iter()
                .step_by((curve.len() / 6).max(1))
                .map(|pt| format!("R{}:{:.1}x", pt.point.rows(), g.speedup(pt)))
                .collect();
            println!("    T{t}: {}", cells.join("  "));
        }
        println!();
    }
    Ok(())
}
