//! The six workloads. Each is a closed loop with one client: the
//! benchmark thread issues the next unit when the previous returns.
//!
//! A workload is *prepared* from the seed (input generation +
//! construction), *warmed* by one untimed unit, given its *reference*
//! answers once (the benchmark's own oracle, never timed), and then
//! runs timed units. Every call into the program goes through
//! [`Tracer::span`], so the same code serves the untraced and the
//! traced run. Output checks run outside the timed calls and turn a
//! wrong answer into a failed unit.

use std::collections::BTreeMap;

use cosmic_core::cosmic_arch::{rtl, AcceleratorSpec, Geometry, Machine};
use cosmic_core::cosmic_compiler::{
    codegen, compile, mapping, schedule, CompileOptions, MappingStrategy,
};
use cosmic_core::cosmic_dfg::{self, interp, DimEnv};
use cosmic_core::cosmic_director::{
    Director, DirectorConfig, DirectorReport, DirectorRun, FairnessPolicy,
};
use cosmic_core::cosmic_dsl;
use cosmic_core::cosmic_ml::sgd::{self, TrainConfig};
use cosmic_core::cosmic_ml::{data, Aggregation, Algorithm, BenchmarkId};
use cosmic_core::cosmic_planner;
use cosmic_core::cosmic_runtime::{
    model_checksum, ClusterConfig, ClusterTrainer, TraceSink, TransportKind, WireRepr,
};
use cosmic_core::cosmic_sim::{ArrivalProfile, DirectorFaultPlan, JobArrivalPlan};

use crate::trace::Tracer;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 6] = [
    "build_suite",
    "train_overhead",
    "train_wire_small",
    "train_wire_large",
    "train_wire_lossy",
    "director_fleet",
];

/// What one timed unit measured. A unit is a fixed sequence of timed
/// stages (each build stage of each program, each machine run, three
/// policy runs, one training job…):
/// stage `i` is the same call on the same input in every unit, so a
/// run can compare stage against stage across its units.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Per stage feeding `work_per_s`: work items done (simulated
    /// cycles, records, director events) and the host seconds they took.
    pub work: Vec<(f64, f64)>,
    /// Per stage feeding `latency_s`: seconds (one build stage of one
    /// program, a training job, a journal's recovery).
    pub latency: Vec<f64>,
    /// Layer numbers and exact counts observed along the way, keyed by
    /// per-layer metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Unit {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Work items per host second over the whole unit.
    pub fn work_per_s(&self) -> f64 {
        let (work, seconds) =
            self.work.iter().fold((0.0, 0.0), |(w, s), (dw, ds)| (w + dw, s + ds));
        work / seconds
    }

    /// The unit's gated latency: its stages summed.
    pub fn latency_s(&self) -> f64 {
        self.latency.iter().sum()
    }
}

/// One workload, prepared from a seed.
pub trait Workload {
    /// Computes the reference answers the output checks compare
    /// against, where they are not computed per unit. Untimed; called
    /// once.
    fn reference(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Runs one unit (timed by its spans) and checks its outputs.
    fn unit(&mut self, tracer: &Tracer) -> Result<Unit, String>;
}

/// The lossy workload's wire representation.
pub const LOSSY_REPR: WireRepr = WireRepr::FixedPoint { frac_bits: 20 };

/// Generates `name`'s inputs from `seed` and constructs the program
/// around them. `quick` shrinks every shape for the smoke mode; its
/// numbers are not comparable with a full run's.
pub fn prepare(name: &str, seed: u64, quick: bool) -> Result<Box<dyn Workload>, String> {
    let train = |spec| Train::new(spec, seed).map(|t| Box::new(t) as Box<dyn Workload>);
    match name {
        "build_suite" => Ok(Box::new(BuildSuite::prepare(seed, quick))),
        "train_overhead" => train(TrainSpec::overhead(quick)),
        "train_wire_small" => train(TrainSpec::wire_small(quick)),
        "train_wire_large" => train(TrainSpec::wire_large(WireRepr::DenseF64, quick)),
        "train_wire_lossy" => train(TrainSpec::wire_large(LOSSY_REPR, quick)),
        "director_fleet" => Ok(Box::new(DirectorFleet::prepare(seed, quick))),
        other => Err(format!("unknown workload {other}; one of {NAMES:?}")),
    }
}

/// SplitMix64: the benchmark's own generator for inputs no library
/// generator covers (machine stimulus).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn vector(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.unit()).collect()
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------- build_suite

/// Graphs larger than this are built but not simulated (`acoustic`'s
/// 1.6M nodes would make the workload a machine-only number).
const MACHINE_NODE_LIMIT: usize = 100_000;
/// Seeded records per benchmark through the machine, on each of two
/// geometries (the issue sized 16; 8 keeps a pass near 4 s so a
/// 10-second run still times three).
const MACHINE_RECORDS: usize = 8;
/// The published mini-batch the Planner sizes for.
const BUILD_MINIBATCH: usize = 10_000;

/// Nine Table 1 benchmarks (all but `mnist`) at full published
/// dimensions: parse → lower → plan → map → schedule → codegen → RTL,
/// then seeded records through the cycle machine, checked against the
/// DFG interpreter.
pub struct BuildSuite {
    spec: AcceleratorSpec,
    inputs: Vec<BuildInput>,
}

struct BuildInput {
    name: &'static str,
    source: String,
    env: DimEnv,
    stimulus_seed: u64,
}

impl BuildSuite {
    pub fn prepare(seed: u64, quick: bool) -> Self {
        use BenchmarkId::{Face, Mnist, Movielens, Tumor};
        let inputs = BenchmarkId::all()
            .into_iter()
            .filter(|id| if quick { [Tumor, Movielens, Face].contains(id) } else { *id != Mnist })
            .enumerate()
            .map(|(i, id)| {
                let alg = id.benchmark().algorithm;
                let env = alg
                    .dim_bindings()
                    .into_iter()
                    .fold(DimEnv::new(), |env, (name, size)| env.with(name, size));
                BuildInput {
                    name: id.name(),
                    source: alg.dsl_source(BUILD_MINIBATCH),
                    env,
                    stimulus_seed: seed ^ ((i as u64 + 1) << 32),
                }
            })
            .collect();
        BuildSuite { spec: AcceleratorSpec::fpga_vu9p(), inputs }
    }
}

/// What one program's build leaves for the machine stage.
struct Built {
    dfg: cosmic_dfg::Dfg,
    planned: Geometry,
    compiled: cosmic_core::cosmic_compiler::CompiledThread,
}

impl BuildSuite {
    /// The seven build stages for one program, each a span, with their
    /// times and exact counts added to `unit`.
    fn build(&self, input: &BuildInput, t: &Tracer, unit: &mut Unit) -> Result<Built, String> {
        let fail = |what: &str| format!("{}: {what}", input.name);
        let (program, s) = t.span("dsl.parse", || cosmic_dsl::parse(&input.source));
        let program = program.map_err(|e| fail(&e.to_string()))?;
        unit.latency.push(s);
        unit.add("dsl.parse_us", s * 1e6);
        let (dfg, s) = t.span("dfg.lower", || cosmic_dfg::lower(&program, &input.env));
        let dfg = dfg.map_err(|e| fail(&e.to_string()))?;
        unit.latency.push(s);
        unit.add("dfg.lower_s", s);
        let (plan, s) =
            t.span("planner.plan", || cosmic_planner::plan(&dfg, &self.spec, BUILD_MINIBATCH));
        unit.latency.push(s);
        unit.add("planner.plan_s", s);
        let planned = Geometry::new(plan.best.point.rows_per_thread, self.spec.columns);
        let words_per_cycle = planned.columns as f64;
        let (map, s) =
            t.span("compiler.map", || mapping::map(&dfg, planned, MappingStrategy::DataFirst));
        unit.latency.push(s);
        unit.add("compiler.map_s", s);
        let (sched, s) = t
            .span("compiler.schedule", || schedule::schedule(&dfg, &map, planned, words_per_cycle));
        unit.latency.push(s);
        unit.add("compiler.schedule_s", s);
        let (compiled, s) =
            t.span("compiler.codegen", || codegen::generate(&dfg, &map, &sched, planned));
        unit.latency.push(s);
        unit.add("compiler.codegen_s", s);
        let (verilog, s) =
            t.span("arch.rtl", || rtl::emit_accelerator(&compiled.program, input.name));
        unit.latency.push(s);
        unit.add("arch.rtl_s", s);

        unit.add("dfg.nodes", dfg.len() as f64);
        unit.add("compiler.remote_edges", map.remote_edges(&dfg) as f64);
        unit.add("compiler.cycles_per_record", sched.estimate.cycles_per_record() as f64);
        unit.add("arch.rtl_mib", verilog.len() as f64 / (1024.0 * 1024.0));
        if !verilog.contains("module") {
            return Err(fail("RTL has no module"));
        }
        Ok(Built { dfg, planned, compiled })
    }
}

impl Workload for BuildSuite {
    fn unit(&mut self, t: &Tracer) -> Result<Unit, String> {
        let mut unit = Unit::default();
        for input in &self.inputs {
            let fail = |what: &str| format!("{}: {what}", input.name);
            // The build latency is the wall around the seven stages,
            // so what the harness does between them (moves, dropping
            // the RTL text) is the span's self time, not lost.
            let first_stage = unit.latency.len();
            let (built, s) = t.span("build", || self.build(input, t, &mut unit));
            let Built { dfg, planned, compiled } = built?;
            let stages_s: f64 = unit.latency[first_stage..].iter().sum();
            unit.latency.push((s - stages_s).max(0.0));
            if dfg.len() > MACHINE_NODE_LIMIT {
                continue;
            }
            // The second geometry's program is stimulus for the machine,
            // not part of the seven build stages.
            let small = Geometry::new(4, 16);
            let (compiled_small, _) = t
                .span("compiler.compile_4x16", || compile(&dfg, small, &CompileOptions::default()));
            let mut rng = SplitMix64::new(input.stimulus_seed);
            for _ in 0..MACHINE_RECORDS {
                let record = rng.vector(dfg.data_len());
                let model = rng.vector(dfg.model_len());
                let (expected, s) =
                    t.span("dfg.interp", || interp::evaluate(&dfg, &record, &model));
                unit.add("dfg.interp_s", s);
                for (geometry, thread) in [(planned, &compiled), (small, &compiled_small)] {
                    let machine = Machine::new(geometry, geometry.columns as f64);
                    let (out, s) =
                        t.span("arch.machine", || machine.run(&thread.program, &record, &model));
                    let out = out.map_err(|e| fail(&format!("machine on {geometry}: {e}")))?;
                    unit.add("arch.machine_s", s);
                    unit.add("arch.machine_cycles", out.cycles as f64);
                    unit.work.push((out.cycles as f64, s));
                    unit.add("arch.machine_bus_stall_cycles", out.bus_stall_cycles as f64);
                    if !bits_equal(&out.gradients, &expected) {
                        return Err(fail(&format!(
                            "machine gradients on {geometry} differ from the DFG interpreter"
                        )));
                    }
                }
            }
        }
        unit.add("arch.machine_host_ns_per_cycle", 1e9 / unit.work_per_s());
        Ok(unit)
    }
}

/// The per-layer metrics of the seven build stages and the factor
/// that turns each into seconds; their sum must reconcile with the
/// build latency.
pub const BUILD_STAGES: [(&str, f64); 7] = [
    ("dsl.parse_us", 1e-6),
    ("dfg.lower_s", 1.0),
    ("planner.plan_s", 1.0),
    ("compiler.map_s", 1.0),
    ("compiler.schedule_s", 1.0),
    ("compiler.codegen_s", 1.0),
    ("arch.rtl_s", 1.0),
];

// -------------------------------------------------------------------- train_*

/// Shape of one training workload.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub algorithm: Algorithm,
    pub records: usize,
    pub minibatch: usize,
    pub epochs: usize,
    pub transport: TransportKind,
    pub repr: WireRepr,
}

/// Every training workload: 4 nodes × 1 thread, one aggregation group.
pub const TRAIN_NODES: usize = 4;
/// A lossy run's final loss may exceed the dense run's by this share.
pub const LOSSY_LOSS_TOLERANCE: f64 = 0.01;

impl TrainSpec {
    /// One-chunk payloads over the in-process wire: engine overhead is
    /// the whole cost.
    pub fn overhead(quick: bool) -> Self {
        TrainSpec {
            algorithm: Algorithm::LinearRegression { features: 64 },
            records: if quick { 256 } else { 4096 },
            minibatch: 16,
            epochs: if quick { 2 } else { 4 },
            transport: TransportKind::Sim,
            repr: WireRepr::DenseF64,
        }
    }

    /// The same job over loopback TCP: per-round connection set-up
    /// dominates.
    pub fn wire_small(quick: bool) -> Self {
        TrainSpec {
            records: if quick { 64 } else { 4096 },
            epochs: 1,
            transport: TransportKind::Tcp,
            ..TrainSpec::overhead(quick)
        }
    }

    /// 4 × 512 KB partials per round over loopback TCP: chunking,
    /// checksums, framing, Sigma staging and the fold dominate.
    pub fn wire_large(repr: WireRepr, quick: bool) -> Self {
        TrainSpec {
            algorithm: Algorithm::LinearRegression { features: if quick { 8192 } else { 65_536 } },
            records: if quick { 16 } else { 64 },
            minibatch: 4,
            epochs: if quick { 2 } else { 8 },
            transport: TransportKind::Tcp,
            repr,
        }
    }

    pub fn config(&self, transport: TransportKind, repr: WireRepr) -> ClusterConfig {
        ClusterConfig {
            nodes: TRAIN_NODES,
            groups: 1,
            threads_per_node: 1,
            minibatch: self.minibatch,
            epochs: self.epochs,
            transport,
            repr,
            ..ClusterConfig::default()
        }
    }

    pub fn iterations(&self) -> usize {
        self.epochs * self.records.div_ceil(self.minibatch)
    }
}

pub struct Train {
    pub spec: TrainSpec,
    pub dataset: data::Dataset,
    pub initial_model: Vec<f64>,
    pub trainer: ClusterTrainer,
    /// Model checksum of the Sim twin (same repr).
    expected_checksum: Option<u64>,
    /// Final loss of the dense Sim twin, for lossy runs.
    dense_final_loss: Option<f64>,
}

impl Train {
    pub fn new(spec: TrainSpec, seed: u64) -> Result<Train, String> {
        let dataset = data::generate(&spec.algorithm, spec.records, seed);
        let initial_model = data::init_model(&spec.algorithm, seed);
        let trainer = ClusterTrainer::new(spec.config(spec.transport, spec.repr))
            .map_err(|e| e.to_string())?;
        Ok(Train {
            spec,
            dataset,
            initial_model,
            trainer,
            expected_checksum: None,
            dense_final_loss: None,
        })
    }

    fn sim_twin(&self, repr: WireRepr) -> Result<(u64, f64), String> {
        let twin = ClusterTrainer::new(self.spec.config(TransportKind::Sim, repr))
            .and_then(|t| t.train(&self.spec.algorithm, &self.dataset, self.initial_model.clone()))
            .map_err(|e| format!("sim twin: {e}"))?;
        let last = twin.loss_history.last().copied().unwrap_or(f64::NAN);
        Ok((model_checksum(&twin.model), last))
    }
}

impl Workload for Train {
    fn reference(&mut self) -> Result<(), String> {
        let (checksum, _) = self.sim_twin(self.spec.repr)?;
        self.expected_checksum = Some(checksum);
        if self.spec.repr != WireRepr::DenseF64 {
            self.dense_final_loss = Some(self.sim_twin(WireRepr::DenseF64)?.1);
        } else if self.spec.algorithm.model_len() == 64 {
            // The dense small job also equals the single-process
            // reference trainer bit for bit (shards divide evenly).
            let cfg = self.spec.config(TransportKind::Sim, WireRepr::DenseF64);
            let reference = sgd::train_parallel(
                &self.spec.algorithm,
                &self.dataset,
                self.initial_model.clone(),
                &TrainConfig {
                    learning_rate: cfg.learning_rate,
                    epochs: cfg.epochs,
                    minibatch: cfg.minibatch,
                    workers: TRAIN_NODES,
                    aggregation: Aggregation::Average,
                },
            );
            if model_checksum(&reference.model) != checksum {
                return Err("sim twin differs from cosmic_ml::sgd::train_parallel".into());
            }
        }
        Ok(())
    }

    fn unit(&mut self, t: &Tracer) -> Result<Unit, String> {
        let init = self.initial_model.clone();
        let (out, wall) = t.span("runtime.train", || {
            self.trainer.train(&self.spec.algorithm, &self.dataset, init)
        });
        let out = out.map_err(|e| e.to_string())?;
        if let Some(expected) = self.expected_checksum {
            if model_checksum(&out.model) != expected {
                return Err("model checksum differs from the Sim twin".into());
            }
        }
        if !out.loss_history.windows(2).all(|w| w[1] < w[0]) {
            return Err(format!("loss is not strictly decreasing: {:?}", out.loss_history));
        }
        if !out.faults.is_clean() {
            return Err("a healthy run reported faults (dead link, exclusion, retry)".into());
        }
        if out.iterations != self.spec.iterations() {
            return Err(format!(
                "{} iterations, expected {}",
                out.iterations,
                self.spec.iterations()
            ));
        }
        if let Some(dense) = self.dense_final_loss {
            let last = out.loss_history.last().copied().unwrap_or(f64::NAN);
            if last.is_nan() || last > dense * (1.0 + LOSSY_LOSS_TOLERANCE) {
                return Err(format!(
                    "lossy final loss {last} is not within {LOSSY_LOSS_TOLERANCE} of dense {dense}"
                ));
            }
        }
        let mut unit = Unit {
            work: vec![((self.spec.records * self.spec.epochs) as f64, wall)],
            latency: vec![wall],
            ..Unit::default()
        };
        unit.add("runtime.engine.iter_us", wall * 1e6 / out.iterations as f64);
        Ok(unit)
    }
}

// ------------------------------------------------------------- director_fleet

const FLEET_JOBS: usize = 4000;
const FLEET_NODES: usize = 1024;

/// Per-policy per-layer metric names, in `FairnessPolicy::ALL` order.
const NS_PER_EVENT: [&str; 3] =
    ["director.ns_per_event.fifo", "director.ns_per_event.maxmin", "director.ns_per_event.greedy"];

/// The control plane alone: 4000 seeded arrivals on 1024 nodes under
/// all three fairness policies — journaled run, then recovery from the
/// full journal — with no gradient moved.
pub struct DirectorFleet {
    pub plan: JobArrivalPlan,
    pub configs: Vec<DirectorConfig>,
    /// The max-min policy's run from the latest unit: the journal and
    /// checkpoint rungs measure their codecs on real content.
    pub last_run: Option<DirectorRun>,
}

impl DirectorFleet {
    pub fn arrival_profile() -> ArrivalProfile {
        ArrivalProfile { mean_interarrival_s: 0.002, ..ArrivalProfile::default() }
    }

    pub fn prepare(seed: u64, quick: bool) -> Self {
        let (jobs, nodes) = if quick { (300, 128) } else { (FLEET_JOBS, FLEET_NODES) };
        let plan = JobArrivalPlan::random(seed, jobs, &Self::arrival_profile());
        let configs = FairnessPolicy::ALL
            .into_iter()
            .map(|policy| DirectorConfig {
                cluster_nodes: nodes,
                policy,
                scaler_interval_s: 0.005,
                cache_capacity: 128,
                max_queue: 100_000,
                ..DirectorConfig::default()
            })
            .collect();
        DirectorFleet { plan, configs, last_run: None }
    }
}

/// Every submitted job must be accounted for exactly once.
pub fn check_conservation(report: &DirectorReport, submitted: usize) -> Result<(), String> {
    let accounted =
        report.jobs.len() + report.shed.len() + report.rejected.len() + report.quarantined.len();
    if accounted == submitted {
        Ok(())
    } else {
        Err(format!(
            "{}: done {} + shed {} + rejected {} + quarantined {} != submitted {submitted}",
            report.policy.label(),
            report.jobs.len(),
            report.shed.len(),
            report.rejected.len(),
            report.quarantined.len()
        ))
    }
}

/// A recovered run must reproduce the original byte for byte.
pub fn check_recovered(run: &DirectorRun, recovered: &DirectorRun) -> Result<(), String> {
    if recovered.report != run.report {
        return Err(format!("{}: recovered report differs", run.report.policy.label()));
    }
    if recovered.journal != run.journal {
        return Err(format!("{}: recovered journal differs", run.report.policy.label()));
    }
    Ok(())
}

impl Workload for DirectorFleet {
    fn unit(&mut self, t: &Tracer) -> Result<Unit, String> {
        let faults = DirectorFaultPlan::none();
        let sink = TraceSink::new();
        let mut unit = Unit::default();
        let mut runs = Vec::with_capacity(self.configs.len());
        for (cfg, ns_name) in self.configs.iter().zip(NS_PER_EVENT) {
            let (run, s) = t.span("director.run_journaled", || {
                Director::run_journaled(cfg, &self.plan, &faults, &sink)
            });
            let run = run.map_err(|e| e.to_string())?;
            check_conservation(&run.report, self.plan.jobs.len())?;
            unit.work.push((run.report.events as f64, s));
            unit.add(ns_name, s * 1e9 / run.report.events as f64);
            unit.add("director.events", run.report.events as f64);
            unit.add("director.journal.bytes", run.journal.len() as f64);
            let cache = run.report.cache;
            unit.add("collectives.cache.hits", cache.hits as f64);
            unit.add("collectives.cache.lookups", (cache.hits + cache.misses) as f64);
            runs.push(run);
        }
        for (cfg, run) in self.configs.iter().zip(&runs) {
            let (recovered, s) = t.span("director.recover", || {
                Director::recover(cfg, &self.plan, &faults, &run.journal, &run.checkpoints, &sink)
            });
            let recovered = recovered.map_err(|e| e.to_string())?;
            check_recovered(run, &recovered)?;
            unit.latency.push(s);
        }
        let run_s: f64 = unit.work.iter().map(|(_, s)| s).sum();
        unit.add("director.recover_over_run", unit.latency_s() / run_s);
        let hits = unit.layers["collectives.cache.hits"];
        let lookups = unit.layers["collectives.cache.lookups"];
        unit.add("collectives.cache.hit_share", if lookups > 0.0 { hits / lookups } else { 0.0 });
        self.last_run = runs.into_iter().nth(1);
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_stage_times_reconcile_with_the_build_latency() {
        let mut suite = BuildSuite::prepare(7, true);
        let unit = suite.unit(&Tracer::new(true)).expect("quick build passes its checks");
        let stages: f64 = BUILD_STAGES.iter().map(|(name, scale)| unit.layers[name] * scale).sum();
        let build_s = unit.latency_s();
        assert!(stages <= build_s, "stages {stages} exceed the build wall {build_s}");
        assert!(
            stages >= 0.95 * build_s,
            "stages {stages} s leave more than 5 % of the {build_s} s build unexplained"
        );
        assert!(unit.work_per_s() > 0.0);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let (mut a, mut b) = (SplitMix64::new(9), SplitMix64::new(9));
        assert_eq!(a.vector(8), b.vector(8));
        assert!(a.vector(64).iter().all(|v| (-1.0..1.0).contains(v)));
        let (x, y) = (DirectorFleet::prepare(5, true), DirectorFleet::prepare(5, true));
        assert_eq!(x.plan, y.plan);
        assert_ne!(x.plan, DirectorFleet::prepare(6, true).plan);
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(prepare("nope", 1, true).is_err());
    }
}
