//! # cosmic-core — the CoSMIC stack, end to end
//!
//! A from-scratch Rust reproduction of **CoSMIC** (*Scale-Out
//! Acceleration for Machine Learning*, MICRO 2017): a full computing
//! stack — DSL, compiler, system software, multi-threaded template
//! accelerator architecture, and circuit generator — for distributed
//! acceleration of gradient-descent-trained learning algorithms.
//!
//! This crate is the facade: [`CosmicStack`] drives the whole pipeline
//! the way the paper's Figure 3 wires its layers together:
//!
//! 1. **Programming layer** — parse the gradient/aggregator/mini-batch
//!    specification ([`cosmic_dsl`]);
//! 2. **Translation** — lower to a dataflow graph ([`cosmic_dfg`]);
//! 3. **Architecture layer** — the Planner sizes threads × rows for the
//!    target chip ([`cosmic_planner`]);
//! 4. **Compilation layer** — Algorithm 1 maps data first, operations
//!    second; scheduling and code generation follow
//!    ([`cosmic_compiler`]);
//! 5. **Circuit layer** — the Constructor emits RTL, and the cycle-level
//!    machine executes the same program ([`cosmic_arch`]);
//! 6. **System layer** — Sigma/Delta orchestration, thread pools, and
//!    circular buffers train real models and the timing model predicts
//!    cluster performance ([`cosmic_runtime`]).
//!
//! # Examples
//!
//! ```
//! use cosmic_core::prelude::*;
//!
//! # fn main() -> Result<(), cosmic_core::StackError> {
//! // The paper's SVM example, 64 features, on a small FPGA slice.
//! let stack = CosmicStack::builder()
//!     .source(&cosmic_dsl::programs::svm(1_000))
//!     .dim("n", 64)
//!     .accelerator(AcceleratorSpec::fpga_vu9p())
//!     .nodes(4)
//!     .build()?;
//!
//! assert!(stack.plan().best.records_per_sec > 0.0);
//! let rtl = stack.rtl();
//! assert!(rtl.contains("module"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::error::Error;
use std::fmt;

pub use cosmic_arch;
pub use cosmic_baseline;
pub use cosmic_compiler;
pub use cosmic_dfg;
pub use cosmic_director;
pub use cosmic_dsl;
pub use cosmic_ml;
pub use cosmic_planner;
pub use cosmic_runtime;
pub use cosmic_sim;
pub use cosmic_telemetry;

/// The commonly used names, importable in one line.
pub mod prelude {
    pub use crate::{CosmicStack, StackError};
    pub use cosmic_arch::{AcceleratorSpec, Geometry, Machine, PlatformKind};
    pub use cosmic_compiler::{CompileOptions, MappingStrategy};
    pub use cosmic_dfg::DimEnv;
    pub use cosmic_ml::{Aggregation, Algorithm, Benchmark, BenchmarkId};
    pub use cosmic_planner::DesignPoint;
    pub use cosmic_runtime::{
        ClusterConfig, ClusterTiming, ClusterTrainer, FaultPlan, FaultRates, RuntimeError,
    };
    pub use cosmic_telemetry::{TraceSink, TraceSummary};
}

use cosmic_arch::AcceleratorSpec;
use cosmic_compiler::{CompileOptions, CompiledThread};
use cosmic_dfg::{Dfg, DimEnv};
use cosmic_dsl::Program;
use cosmic_ml::data::Dataset;
use cosmic_ml::{Aggregation, Algorithm};
use cosmic_planner::Plan;
use cosmic_runtime::{ClusterConfig, ClusterTrainer, RuntimeError, TrainOutcome};

/// An error from assembling or driving the stack.
#[derive(Debug, Clone, PartialEq)]
pub enum StackError {
    /// The DSL front end rejected the program.
    Dsl(cosmic_dsl::DslError),
    /// Lowering to a dataflow graph failed.
    Lower(cosmic_dfg::LowerError),
    /// The builder was configured inconsistently.
    Config(String),
    /// The distributed runtime failed unrecoverably (every node dead,
    /// no aggregator left to promote, …).
    Runtime(RuntimeError),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::Dsl(e) => write!(f, "{e}"),
            StackError::Lower(e) => write!(f, "{e}"),
            StackError::Config(msg) => write!(f, "configuration error: {msg}"),
            StackError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl Error for StackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StackError::Dsl(e) => Some(e),
            StackError::Lower(e) => Some(e),
            StackError::Config(_) => None,
            StackError::Runtime(e) => Some(e),
        }
    }
}

impl From<RuntimeError> for StackError {
    fn from(e: RuntimeError) -> Self {
        StackError::Runtime(e)
    }
}

impl From<cosmic_dsl::DslError> for StackError {
    fn from(e: cosmic_dsl::DslError) -> Self {
        StackError::Dsl(e)
    }
}

impl From<cosmic_dfg::LowerError> for StackError {
    fn from(e: cosmic_dfg::LowerError) -> Self {
        StackError::Lower(e)
    }
}

/// Builder for [`CosmicStack`]; start from [`CosmicStack::builder`].
#[derive(Debug, Clone, Default)]
pub struct CosmicStackBuilder {
    source: Option<String>,
    dims: DimEnv,
    accelerator: Option<AcceleratorSpec>,
    nodes: usize,
    groups: Option<usize>,
    threads_override: Option<usize>,
    minibatch_override: Option<usize>,
    learning_rate: f64,
}

impl CosmicStackBuilder {
    /// Sets the DSL source (the programmer's gradient + aggregator +
    /// mini-batch specification).
    pub fn source(mut self, src: &str) -> Self {
        self.source = Some(src.to_owned());
        self
    }

    /// Binds a symbolic dimension.
    pub fn dim(mut self, name: &str, size: usize) -> Self {
        self.dims = self.dims.with(name, size);
        self
    }

    /// Sets the target accelerator chip (defaults to the UltraScale+
    /// VU9P).
    pub fn accelerator(mut self, spec: AcceleratorSpec) -> Self {
        self.accelerator = Some(spec);
        self
    }

    /// Sets the cluster size (defaults to 4 nodes).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the number of aggregation groups (defaults to the System
    /// Director's policy).
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = Some(groups);
        self
    }

    /// Overrides the Planner's thread count (mainly for experiments).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads_override = Some(threads);
        self
    }

    /// Overrides the program's mini-batch size.
    pub fn minibatch(mut self, b: usize) -> Self {
        self.minibatch_override = Some(b);
        self
    }

    /// Sets the SGD learning rate used by functional training (default
    /// 0.05).
    pub fn learning_rate(mut self, mu: f64) -> Self {
        self.learning_rate = mu;
        self
    }

    /// Runs the front end, the translator, and the Planner.
    ///
    /// # Errors
    ///
    /// Returns [`StackError`] if the source is missing or invalid, a
    /// dimension is unbound, or the configuration is inconsistent.
    pub fn build(self) -> Result<CosmicStack, StackError> {
        let src = self.source.ok_or_else(|| StackError::Config("no DSL source provided".into()))?;
        let program = cosmic_dsl::parse(&src)?;
        let dfg = cosmic_dfg::lower(&program, &self.dims)?;
        let spec = self.accelerator.unwrap_or_else(AcceleratorSpec::fpga_vu9p);
        let nodes = if self.nodes == 0 { 4 } else { self.nodes };
        let minibatch = self
            .minibatch_override
            .or_else(|| program.minibatch())
            .unwrap_or(cosmic_ml::suite::DEFAULT_MINIBATCH);
        if minibatch == 0 {
            return Err(StackError::Config("mini-batch size must be positive".into()));
        }
        let plan = cosmic_planner::plan(&dfg, &spec, minibatch);
        let groups =
            self.groups.unwrap_or_else(|| cosmic_runtime::collectives::default_groups(nodes));
        if groups == 0 || groups > nodes {
            return Err(StackError::Config(format!(
                "{groups} groups for {nodes} nodes is not a valid topology"
            )));
        }
        Ok(CosmicStack {
            program,
            dfg,
            spec,
            plan,
            nodes,
            groups,
            minibatch,
            threads_override: self.threads_override,
            learning_rate: if self.learning_rate > 0.0 { self.learning_rate } else { 0.05 },
        })
    }
}

/// The assembled stack for one learning algorithm on one target system.
#[derive(Debug, Clone)]
pub struct CosmicStack {
    program: Program,
    dfg: Dfg,
    spec: AcceleratorSpec,
    plan: Plan,
    nodes: usize,
    groups: usize,
    minibatch: usize,
    threads_override: Option<usize>,
    learning_rate: f64,
}

impl CosmicStack {
    /// Starts a builder.
    pub fn builder() -> CosmicStackBuilder {
        CosmicStackBuilder { nodes: 4, learning_rate: 0.05, ..Default::default() }
    }

    /// The parsed DSL program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The lowered dataflow graph.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The Planner's output for the target chip.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The target accelerator.
    pub fn accelerator(&self) -> AcceleratorSpec {
        self.spec
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Worker threads per accelerator (Planner's choice unless
    /// overridden).
    pub fn threads_per_node(&self) -> usize {
        self.threads_override.unwrap_or(self.plan.best.point.threads)
    }

    /// Compiles the per-thread accelerator program at the planned design
    /// point (Algorithm 1 mapping, scheduling, code generation).
    pub fn compile(&self) -> CompiledThread {
        let geometry =
            cosmic_arch::Geometry::new(self.plan.best.point.rows_per_thread, self.spec.columns);
        cosmic_compiler::compile(&self.dfg, geometry, &CompileOptions::default())
    }

    /// The Constructor's output: synthesizable-style Verilog of the
    /// planned, compiled accelerator.
    pub fn rtl(&self) -> String {
        cosmic_arch::rtl::emit_accelerator(&self.compile().program, "cosmic_accelerator")
    }

    /// The cluster timing model for this system specification.
    pub(crate) fn timing(&self) -> cosmic_runtime::ClusterTiming {
        cosmic_runtime::ClusterTiming::commodity(self.nodes, self.groups)
    }

    /// Predicted wall-clock seconds to train `epochs` passes over
    /// `total_records`, exchanging `exchange_bytes` per aggregation.
    pub fn predict_training_seconds(
        &self,
        total_records: usize,
        epochs: usize,
        exchange_bytes: usize,
    ) -> f64 {
        let node = cosmic_runtime::NodeCompute { records_per_sec: self.plan.best.records_per_sec };
        self.timing().training_time_s(total_records, self.minibatch, epochs, node, exchange_bytes)
    }

    /// Functionally trains `alg` (whose analytic gradient must match this
    /// stack's DFG — see [`CosmicStack::verify_gradient`]) on `dataset`
    /// through the real system software.
    ///
    /// Errors with [`StackError::Runtime`] only when the run is
    /// unrecoverable.
    pub fn train(
        &self,
        alg: &Algorithm,
        dataset: &Dataset,
        initial_model: Vec<f64>,
        epochs: usize,
        aggregation: Aggregation,
    ) -> Result<TrainOutcome, StackError> {
        let trainer = ClusterTrainer::new(ClusterConfig {
            nodes: self.nodes,
            groups: self.groups,
            threads_per_node: self.threads_per_node(),
            minibatch: self.minibatch,
            learning_rate: self.learning_rate,
            epochs,
            aggregation,
            ..ClusterConfig::default()
        })?;
        Ok(trainer.train(alg, dataset, initial_model)?)
    }

    /// Checks that an analytic [`Algorithm`] gradient agrees with this
    /// stack's DFG on a sample record/model pair, within `tol`. Returns
    /// the maximum absolute difference.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatching component.
    pub fn verify_gradient(
        &self,
        alg: &Algorithm,
        record: &[f64],
        model: &[f64],
        tol: f64,
    ) -> Result<f64, String> {
        let dfg_record = alg.dfg_record(record);
        let view = alg.gather_model_view(record, model);
        let dfg_grad = cosmic_dfg::interp::evaluate(&self.dfg, &dfg_record, &view);
        let mut full = vec![0.0; alg.model_len()];
        alg.scatter_gradient(record, &dfg_grad, &mut full);

        let mut analytic = vec![0.0; alg.model_len()];
        alg.accumulate_gradient(record, model, &mut analytic);

        let mut worst = 0.0f64;
        for (i, (a, b)) in full.iter().zip(&analytic).enumerate() {
            let d = (a - b).abs();
            if d > tol {
                return Err(format!("gradient[{i}]: dfg {a} vs analytic {b}"));
            }
            worst = worst.max(d);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_ml::data;

    fn svm_stack(n: usize) -> CosmicStack {
        CosmicStack::builder()
            .source(&cosmic_dsl::programs::svm(64))
            .dim("n", n)
            .nodes(4)
            .groups(1)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_consistent_stack() {
        let stack = svm_stack(32);
        assert_eq!(stack.dfg().model_len(), 32);
        assert_eq!(stack.minibatch, 64);
        assert_eq!(stack.nodes(), 4);
        assert!(stack.threads_per_node() >= 1);
        assert!(stack.plan().best.records_per_sec > 0.0);
    }

    #[test]
    fn missing_source_is_config_error() {
        let err = CosmicStack::builder().build().unwrap_err();
        assert!(matches!(err, StackError::Config(_)));
        assert!(err.to_string().contains("source"));
    }

    #[test]
    fn bad_topology_is_config_error() {
        let err = CosmicStack::builder()
            .source(&cosmic_dsl::programs::svm(64))
            .dim("n", 8)
            .nodes(2)
            .groups(5)
            .build()
            .unwrap_err();
        assert!(matches!(err, StackError::Config(_)));
    }

    #[test]
    fn dsl_errors_propagate() {
        let err = CosmicStack::builder().source("model w[n").build().unwrap_err();
        assert!(matches!(err, StackError::Dsl(_)));
        let err =
            CosmicStack::builder().source(&cosmic_dsl::programs::svm(64)).build().unwrap_err();
        assert!(matches!(err, StackError::Lower(_)));
    }

    #[test]
    fn gradient_verification_passes_for_matching_algorithm() {
        let stack = svm_stack(8);
        let alg = Algorithm::Svm { features: 8 };
        let record: Vec<f64> = (0..9).map(|i| (i as f64 - 4.0) / 5.0).collect();
        let model: Vec<f64> = (0..8).map(|i| (i as f64) / 10.0).collect();
        let worst = stack.verify_gradient(&alg, &record, &model, 1e-9).unwrap();
        assert!(worst < 1e-12);
    }

    #[test]
    fn gradient_verification_catches_mismatch() {
        let stack = svm_stack(8);
        // Wrong family: linear regression gradient differs.
        let alg = Algorithm::LinearRegression { features: 8 };
        let record: Vec<f64> = vec![0.5; 9];
        let model: Vec<f64> = vec![0.9; 8];
        assert!(stack.verify_gradient(&alg, &record, &model, 1e-9).is_err());
    }

    #[test]
    fn end_to_end_training_through_the_stack() {
        let stack = CosmicStack::builder()
            .source(&cosmic_dsl::programs::logistic_regression(48))
            .dim("n", 8)
            .nodes(4)
            .groups(2)
            .learning_rate(0.3)
            .build()
            .unwrap();
        let alg = Algorithm::LogisticRegression { features: 8 };
        let ds = data::generate(&alg, 384, 17);
        let out =
            stack.train(&alg, &ds, alg.zero_model(), 4, Aggregation::Average).expect("healthy run");
        assert!(out.loss_history.last().unwrap() < &out.loss_history[0]);
    }

    #[test]
    fn prediction_and_rtl_are_available() {
        let stack = svm_stack(16);
        let secs = stack.predict_training_seconds(100_000, 1, 16 * 4);
        assert!(secs > 0.0);
        assert!(stack.rtl().contains("module cosmic_accelerator"));
    }
}
