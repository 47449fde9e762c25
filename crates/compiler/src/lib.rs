//! # cosmic-compiler — static mapping, scheduling, and code generation
//!
//! The compilation layer of the CoSMIC stack (paper §6). Its centerpiece
//! is the paper's Algorithm 1 — **minimum-communication data/operation
//! mapping** — which reverses the conventional order of mapping: training
//! data is placed first (exactly where the memory interface streams it,
//! avoiding all marshaling), then operations are mapped onto the PEs that
//! already hold their operands, and model parameters are pinned to the PEs
//! that consume them.
//!
//! The crate provides:
//!
//! - [`mapping`] — Algorithm 1 ([`MappingStrategy::DataFirst`]) plus the
//!   TABLA-style operation-first mapper ([`MappingStrategy::OpFirst`])
//!   used as the paper's Figure 17 comparator;
//! - [`schedule`] — communication-aware list scheduling over the
//!   three-level interconnect, producing the static performance estimate
//!   the Planner's design-space exploration consumes;
//! - [`codegen`] — conversion of map + schedule into a
//!   [`ThreadProgram`](cosmic_arch::ThreadProgram) (per-PE instruction
//!   streams, placements, and the memory-interface schedule), executable
//!   on the cycle-level machine and renderable as RTL.
//!
//! # Examples
//!
//! ```
//! use cosmic_arch::Geometry;
//! use cosmic_compiler::{compile, CompileOptions};
//! use cosmic_dfg::{lower, DimEnv};
//! use cosmic_dsl::{parse, programs};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse(&programs::svm(512))?;
//! let dfg = lower(&program, &DimEnv::new().with("n", 32))?;
//! let compiled = compile(&dfg, Geometry::new(2, 16), &CompileOptions::default());
//! assert!(compiled.program.validate().is_ok());
//! assert!(compiled.estimate.latency_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod codegen;
pub mod mapping;
pub mod schedule;

pub use codegen::CompiledThread;
pub use mapping::{MapResult, MappingStrategy};
pub use schedule::{BusModel, ListScheduler, Schedule, ScheduleEstimate};

use cosmic_arch::Geometry;
use cosmic_dfg::Dfg;
use cosmic_telemetry::{counters, Layer, TraceSink};

/// Options controlling compilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Which mapping algorithm to use.
    pub strategy: MappingStrategy,
    /// Which interconnect transfers route over (TABLA's comparator uses
    /// the flat shared bus).
    pub bus: schedule::BusModel,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: MappingStrategy::DataFirst,
            bus: schedule::BusModel::Hierarchical,
        }
    }
}

/// The one map → schedule pipeline behind [`compile`] and [`estimate`]:
/// a `map` and a `schedule` span, nested under whatever span the caller
/// holds open on `sink`. The thread streams one off-chip word per
/// column per cycle.
fn map_and_schedule(
    dfg: &Dfg,
    geometry: Geometry,
    options: &CompileOptions,
    sink: &TraceSink,
) -> (MapResult, Schedule) {
    let map = {
        let _map_span = sink.span(Layer::Map, "map");
        mapping::map(dfg, geometry, options.strategy)
    };
    let schedule = {
        let _sched_span = sink.span(Layer::Schedule, "schedule");
        ListScheduler::new(dfg).schedule(&map, geometry, geometry.columns as f64, options.bus)
    };
    (map, schedule)
}

/// Compiles a DFG for one worker thread's PE allocation: maps (Algorithm
/// 1 or the TABLA comparator), schedules, and generates the instruction
/// streams and memory schedule. Books no telemetry.
pub fn compile(dfg: &Dfg, geometry: Geometry, options: &CompileOptions) -> CompiledThread {
    let (map, schedule) = map_and_schedule(dfg, geometry, options, &TraceSink::new());
    codegen::generate(dfg, &map, &schedule, geometry)
}

/// The static performance estimate alone, skipping code generation (what
/// Figure 17's head-to-head compares; the Planner's design-space
/// exploration drives [`mapping`] and [`schedule`] directly). Records the
/// pipeline into `sink`: a `compile` span wrapping `map` and `schedule`
/// child spans, plus counters for ops, communication edges cut by the
/// mapping, schedule length, transfers, per-PE load, and utilization.
pub fn estimate(
    dfg: &Dfg,
    geometry: Geometry,
    options: &CompileOptions,
    sink: &TraceSink,
) -> ScheduleEstimate {
    let _guard = sink.span(Layer::Compile, "compile");
    let (map, schedule) = map_and_schedule(dfg, geometry, options, sink);
    record_compile(dfg, geometry, &map, &schedule.estimate, sink);
    schedule.estimate
}

/// Books one compiled thread's static metrics on the sink.
fn record_compile(
    dfg: &Dfg,
    geometry: Geometry,
    map: &MapResult,
    est: &ScheduleEstimate,
    sink: &TraceSink,
) {
    sink.add(counters::COMPILE_OPS, est.compute_ops as f64);
    sink.add(counters::COMPILE_REMOTE_EDGES, map.remote_edges(dfg) as f64);
    sink.add(counters::COMPILE_SCHEDULE_CYCLES, est.latency_cycles as f64);
    sink.add(counters::COMPILE_TRANSFERS, est.transfers() as f64);
    sink.add(counters::COMPILE_MODEL_WORDS, dfg.model_len() as f64);
    sink.record_max(counters::COMPILE_MAX_PE_INSTRS, est.max_pe_instrs as f64);
    let pes = (geometry.rows * geometry.columns).max(1) as f64;
    sink.record_max(counters::COMPILE_OPS_PER_PE, est.compute_ops as f64 / pes);
    sink.record_max(
        counters::PE_UTILIZATION,
        est.compute_ops as f64 / (est.latency_cycles.max(1) as f64 * pes),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_dfg::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    #[test]
    fn estimate_matches_compile_and_books_the_pipeline() {
        let program = parse(&programs::svm(64)).expect("parses");
        let dfg = lower(&program, &DimEnv::new().with("n", 8)).expect("lowers");
        let geometry = Geometry::new(2, 8);
        let options = CompileOptions::default();

        let sink = TraceSink::new();
        let est = estimate(&dfg, geometry, &options, &sink);
        let compiled = compile(&dfg, geometry, &options);
        assert_eq!(est, compiled.estimate, "both entry points run the one pipeline");
        assert!(sink.validate_tree().is_ok());

        let spans = sink.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["compile", "map", "schedule"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));

        let sums = sink.sums();
        assert_eq!(sums[counters::COMPILE_OPS], est.compute_ops as f64);
        assert_eq!(sums[counters::COMPILE_SCHEDULE_CYCLES], est.latency_cycles as f64);
        assert_eq!(sums[counters::COMPILE_MODEL_WORDS], dfg.model_len() as f64);
        let maxima = sink.maxima();
        assert!(maxima[counters::PE_UTILIZATION] > 0.0);
        assert!(maxima[counters::PE_UTILIZATION] <= 1.0);
        assert!(maxima[counters::COMPILE_OPS_PER_PE] > 0.0);
    }
}
