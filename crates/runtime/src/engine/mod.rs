//! The phase-based iteration engine behind [`crate::ClusterTrainer`].
//!
//! The engine decomposes the trainer's aggregation loop into cohesive
//! phases, each its own module, all reading and writing one
//! [`RunState`]:
//!
//! 1. [`membership`] — absorb the plan's partitions/crashes/rejoins,
//!    then the φ-accrual detector sweep (phase 0);
//! 2. [`compute`] — one request to the run's [`Compute`] (the crew
//!    [`Engine::run`] spawned, whose job queue the engine's own thread
//!    works beside resident helpers, or a deployment's worker
//!    processes), panic absorption, and the deadline-admission barrier
//!    in virtual time (phases 1–2); the round's spent partials go back
//!    to it through [`Compute::settle`];
//! 3. [`rounds`] — collective-schedule refresh and the chunked Sigma
//!    aggregation with quarantine accounting (phase 3);
//! 4. [`checkpoint_phase`] — apply the surviving update, log it for
//!    replay, and take cadence snapshots.
//!
//! Tracing is a zero-cost seam: the engine is generic over a
//! [`RunObserver`], with [`NullObserver`] for untraced runs and
//! [`TraceObserver`] reproducing the historical trace vocabulary byte
//! for byte. Observers only watch — nothing they return feeds back into
//! the computation — so traced and untraced runs are bit-identical.

mod checkpoint_phase;
mod compute;
mod membership;
mod observer;
mod rounds;
mod state;

use compute::Crew;
pub(crate) use compute::{Arrival, Compute, Request, Shards};
pub(crate) use observer::{NullObserver, RunObserver, TraceObserver};
use state::RoundTables;
pub(crate) use state::RunState;

use std::num::NonZeroUsize;

use cosmic_ml::data::Dataset;
use cosmic_ml::Algorithm;
use cosmic_sim::faults::FaultPlan;

use crate::error::RuntimeError;
use crate::layout;
use crate::node::SigmaAggregator;
use crate::trainer::{ClusterConfig, MembershipMode, TrainOutcome};
use crate::transport::{self, Transport};
use cosmic_collectives::Topology;

/// The iteration engine: immutable run parameters plus the observer.
///
/// Everything that *changes* during a run lives in [`RunState`]; the
/// engine itself is the fixed frame the phases execute in — config,
/// fault plan, the data and its shard boundaries, the Sigma pipeline,
/// and derived layout constants.
pub(crate) struct Engine<'a, O: RunObserver> {
    pub(crate) cfg: &'a ClusterConfig,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) alg: &'a Algorithm,
    pub(crate) dataset: &'a Dataset,
    /// What accelerator thread `(node, thread)` computes in a step:
    /// [`Shards::thread_partial`] over its borrowed shard of `dataset`
    /// — a field so tests can plant a panic.
    pub(crate) work: Box<compute::Work<'a>>,
    pub(crate) sigma: SigmaAggregator,
    pub(crate) model_len: usize,
    /// Chunks per node partial on the wire.
    pub(crate) chunks: usize,
    /// Aggregation steps per epoch.
    pub(crate) steps: usize,
    /// Whether membership is oracle-driven (vs detector-driven).
    pub(crate) oracle: bool,
    /// The wire the collective round runs over (channels or sockets).
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) obs: O,
}

impl<'a, O: RunObserver> Engine<'a, O> {
    /// Builds an engine over `cfg` for a model of `model_len` words,
    /// sharding `dataset` across nodes and threads. Fails when the
    /// configured transport cannot come up (e.g. the TCP backend's
    /// listener fails to bind).
    pub(crate) fn new(
        cfg: &'a ClusterConfig,
        alg: &'a Algorithm,
        dataset: &'a Dataset,
        model_len: usize,
        obs: O,
    ) -> Result<Self, RuntimeError> {
        let shards = compute::Shards::new(cfg, dataset);
        let steps = shards.steps;
        let chunks = layout::chunk_count(model_len);
        let sigma = SigmaAggregator::default();
        let oracle = matches!(cfg.membership, MembershipMode::Oracle);
        let transport = transport::build(cfg)?;
        let work = Box::new(move |node, thread, step, model: &[f64], partial: &mut [f64]| {
            shards.thread_partial(alg, cfg, (node, thread), step, model, partial)
        });
        Ok(Engine {
            cfg,
            plan: &cfg.faults,
            alg,
            dataset,
            work,
            sigma,
            model_len,
            chunks,
            steps,
            oracle,
            transport,
            obs,
        })
    }

    /// Runs the full training loop from `initial_model` over a working
    /// copy `topology` on a compute crew as wide as the host — this
    /// thread plus resident helpers — returning the outcome of a
    /// still-successful degraded run or the error that made it
    /// unrecoverable. The crew lives
    /// exactly as long as this call: every return path drops it, and the
    /// scope joins the helpers — which borrow `work`, not the engine (nor
    /// its observer).
    pub(crate) fn run(
        &self,
        topology: Topology,
        initial_model: Vec<f64>,
    ) -> Result<TrainOutcome, RuntimeError> {
        std::thread::scope(|scope| {
            let geometry = (self.cfg.nodes, self.cfg.threads_per_node);
            let width = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            let mut crew = Crew::spawn(scope, geometry, width, self.cfg.aggregation, &*self.work)?;
            self.run_on(&mut crew, topology, initial_model)
        })
    }

    /// [`Engine::run`] with `compute` as the compute phase: every node
    /// partial of the run comes from it.
    pub(crate) fn run_on(
        &self,
        compute: &mut dyn Compute,
        topology: Topology,
        initial_model: Vec<f64>,
    ) -> Result<TrainOutcome, RuntimeError> {
        let mut st = RunState::new(self.cfg, topology, initial_model);
        let loss = compute.records_loss();
        // Root span for the whole run; held until after the pool-job
        // counter is booked so it encloses everything.
        let _root = self.obs.run_started(self.cfg, self.plan);
        for _ in 0..self.cfg.epochs {
            if loss {
                st.record_loss(self.alg, self.dataset);
            }
            for step in 0..self.steps {
                self.iteration(&mut st, compute, step)?;
            }
        }
        if loss {
            st.record_loss(self.alg, self.dataset);
        }
        self.obs.run_finished(self.sigma.jobs_submitted());
        Ok(st.into_outcome())
    }

    /// One aggregation iteration: membership, compute, admission,
    /// collective, update — in phase order.
    fn iteration(
        &self,
        st: &mut RunState,
        compute: &mut dyn Compute,
        step: usize,
    ) -> Result<(), RuntimeError> {
        let _span = self.obs.iteration_started(st.iter_idx);
        let t0 = self.obs.now();

        membership::plan_phase(self, st)?;
        membership::detector_sweep(self, st)?;

        // The round's tables leave the state for the round and go back
        // at its close (an error ends the run and drops them).
        let mut round = std::mem::take(&mut st.round);
        compute::fan_out(self, compute, st, &mut round, step)?;
        compute::absorb_panics(self, st, &round.arrivals)?;
        let round_cost = compute::admission_barrier(self, st, &mut round, t0);
        self.obs.compute_barrier(t0, round_cost);

        let contributions = &round.contributions;
        round.senders.clear();
        round.senders.extend((0..self.cfg.nodes).filter(|&n| contributions[n].is_some()));
        let output = if round.senders.is_empty() {
            None
        } else {
            rounds::collective_round(self, st, &mut round)?
        };
        let counted = output.is_some();
        if let Some(output) = output {
            checkpoint_phase::apply_update(self, st, output.sum, output.active_total);
            checkpoint_phase::maybe_checkpoint(self, st);
        }
        let spent = round.contributions.drain(..);
        let spent = spent.chain(round.arrivals.drain(..).map(Option::flatten));
        round.spent.extend(spent.flatten().map(|(partial, _)| partial));
        self.finish_round(st, compute, round, round_cost, counted)
    }

    /// Closes the round: the model it leaves, and the partials it is
    /// done with, go back to the compute phase, and its tables to the
    /// state; then end-of-iteration re-admission, iteration accounting,
    /// and the virtual-clock advance. `counted` rounds applied an update;
    /// empty rounds did not.
    fn finish_round(
        &self,
        st: &mut RunState,
        compute: &mut dyn Compute,
        mut round: RoundTables,
        round_cost: f64,
        counted: bool,
    ) -> Result<(), RuntimeError> {
        compute.settle(&st.model, &mut round.spent);
        round.spent.clear();
        st.round = round;
        membership::process_rejoins(self, st)?;
        if counted {
            self.obs.iteration_counted();
        }
        self.obs.advance(round_cost);
        st.vclock += round_cost;
        st.iter_idx += 1;
        Ok(())
    }
}
