//! Figure 17: CoSMIC's template + compiler vs TABLA's, on the same
//! UltraScale+ fabric with the same number of PEs.
//!
//! Paper: 3.9× average speedup. TABLA's operation-first mapping ignores
//! operand location, so its communication grows with PE count; CoSMIC's
//! Algorithm 1 places data first and the hierarchical buses keep
//! transfers logarithmic.

use cosmic_core::cosmic_arch::{AcceleratorSpec, Geometry};
use cosmic_core::cosmic_compiler::{estimate, BusModel, CompileOptions, MappingStrategy};
use cosmic_core::cosmic_ml::BenchmarkId;
use cosmic_core::cosmic_telemetry::{Layer, TraceSink};

use crate::figures::FigureCtx;
use crate::harness::{full_dfg, geomean};

/// `(speedup, cosmic_transfers, tabla_transfers)` at the full-fabric
/// geometry (`max_rows × columns`). Records both compilation pipelines
/// (a `Dsl`-layer `lower` span around the shared DFG lookup, then one
/// `compile` span tree per mapper) and their static counters into `sink`.
pub fn comparison(id: BenchmarkId, sink: &TraceSink) -> (f64, u64, u64) {
    let dfg = {
        let guard = sink.span(Layer::Dsl, "lower");
        guard.arg("benchmark", &id.to_string());
        full_dfg(id)
    };
    let spec = AcceleratorSpec::fpga_vu9p();
    // Head-to-head on the full UltraScale+ fabric with the same PEs
    // (paper §7.2) — single-threaded, since TABLA has no multi-threading.
    let geometry = Geometry::new(spec.max_rows(), spec.columns);

    let cosmic = estimate(
        dfg,
        geometry,
        &CompileOptions { strategy: MappingStrategy::DataFirst, ..CompileOptions::default() },
        sink,
    );
    // TABLA: operation-first mapping over a single flat shared bus.
    let tabla = estimate(
        dfg,
        geometry,
        &CompileOptions { strategy: MappingStrategy::OpFirst, bus: BusModel::FlatShared },
        sink,
    );
    (
        tabla.cycles_per_record() as f64 / cosmic.cycles_per_record() as f64,
        cosmic.transfers(),
        tabla.transfers(),
    )
}

/// Renders the figure: every head-to-head compilation books its
/// `compile`/`map`/`schedule` spans and static counters into the
/// context's sink.
pub(crate) fn run(ctx: &FigureCtx) -> String {
    let mut out = String::from(
        "## Figure 17 — CoSMIC template architecture vs TABLA (same PEs, UltraScale+)\n\n\
         | benchmark | speedup | CoSMIC transfers/record | TABLA transfers/record |\n\
         |---|---|---|---|\n",
    );
    let mut speedups = Vec::new();
    for id in BenchmarkId::all() {
        let (s, ct, tt) = comparison(id, &ctx.sink);
        out.push_str(&format!("| {id} | {s:.1} | {ct} | {tt} |\n"));
        speedups.push(s);
    }
    out.push_str(&format!("| **geomean** | {:.1} | | |\n", geomean(&speedups)));
    out.push_str(
        "\nPaper: 3.9x average — TABLA's operation-first mapping drowns in \
         inter-PE communication at server-scale PE counts.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosmic_beats_tabla_on_cheap_benchmarks() {
        for id in [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Face] {
            let (s, ct, tt) = comparison(id, &TraceSink::new());
            assert!(s > 1.0, "{id}: speedup {s:.2}");
            assert!(ct < tt, "{id}: CoSMIC must communicate less ({ct} vs {tt})");
        }
    }

    #[test]
    fn average_advantage_is_substantial() {
        let vals: Vec<f64> = [BenchmarkId::Stock, BenchmarkId::Tumor, BenchmarkId::Movielens]
            .iter()
            .map(|&id| comparison(id, &TraceSink::new()).0)
            .collect();
        let g = geomean(&vals);
        assert!(g > 1.5, "geomean speedup over TABLA should be material, got {g:.2}");
    }
}
