//! The compute phase: one request to the run's [`Compute`] — its
//! resident compute workers (the [`Crew`]: created once, like Sigma's
//! pool) or a deployment's worker processes — panic absorption, and the
//! deadline-admission barrier in virtual time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, Scope};

use cosmic_ml::data::{self, Dataset};
use cosmic_ml::{Aggregation, Algorithm};
use cosmic_sim::faults::FaultPlan;
use crossbeam::channel::{self, Receiver, Sender};

use crate::checkpoint::CheckpointStore;
use crate::error::RuntimeError;
use crate::layout;
use crate::trainer::{ClusterConfig, Exclusion, ExclusionReason, RetryPolicy};

use super::membership::kill_node;
use super::observer::RunObserver;
use super::state::RunState;
use super::Engine;

/// A node's partial for one round: the locally-aggregated vector and
/// its contribution weight (threads for averaging, records for sums).
pub(crate) type NodePartial = Option<(Vec<f64>, usize)>;

/// What reached the engine from one node in a round: `None` when
/// nothing did (the node was not dispatched, or its worker process
/// stayed silent: no heartbeat), else its [`NodePartial`], itself `None`
/// when a compute worker panicked.
pub(crate) type Arrival = Option<NodePartial>;

/// What one accelerator thread computes in one step: its partial and
/// the records it consumed, or `None` when it had no records left.
pub(crate) type ThreadPartial = Option<(Vec<f64>, usize)>;

/// The per-thread function a [`Crew`] runs: `(node, thread, step, model)`
/// to that thread's partial — [`Shards::thread_partial`], or a test's
/// that panics.
pub(crate) type Work<'a> = dyn Fn(usize, usize, usize, &[f64]) -> ThreadPartial + Sync + 'a;

/// One round's request to the compute phase.
pub(crate) struct Request<'r> {
    /// The global aggregation iteration.
    pub iteration: usize,
    /// The step within the epoch.
    pub step: usize,
    /// The nodes the fault plan lets compute this round.
    pub dispatch: &'r [bool],
    /// The model every node computes against.
    pub model: &'r Arc<Vec<f64>>,
    /// Runtime membership going into the round.
    pub member: &'r [bool],
    /// The checkpoint/replay store a catching-up worker is served from.
    pub store: &'r CheckpointStore,
}

/// The engine's one seam: where a round's node partials come from. The
/// in-process trainer asks its [`Crew`]; the launcher's coordinator asks
/// its worker processes. Membership, the collective round, the update,
/// checkpoints and the observer are the same engine either way.
pub(crate) trait Compute {
    /// One [`Arrival`] per node for `req`.
    fn partials(&mut self, req: &Request<'_>) -> Result<Vec<Arrival>, RuntimeError>;

    /// The round closed on `model`, the model every node computes
    /// against next.
    fn settle(&mut self, _model: &[f64]) {}

    /// Whether the run records its loss history: a pass over the whole
    /// dataset on the engine's thread before every epoch and after the
    /// last. A deployment that reports no loss skips them, and its
    /// outcome's history is empty; nothing else depends on it.
    fn records_loss(&self) -> bool {
        true
    }
}

impl Compute for Crew {
    fn partials(&mut self, req: &Request<'_>) -> Result<Vec<Arrival>, RuntimeError> {
        let partials = self.round(req.dispatch, req.step, req.model);
        Ok(partials.into_iter().zip(req.dispatch).map(|(p, &go)| go.then_some(p)).collect())
    }
}

/// The engine's data rule: node `n`'s accelerator thread `t` owns
/// `shards[n][t]` of the dataset (Figure 1's D_ij; no copy), and step
/// `s` of every epoch takes its records `[s·w, (s+1)·w)`.
pub(crate) struct Shards<'a> {
    shards: Vec<Vec<&'a [Vec<f64>]>>,
    /// `w`: records per worker per step.
    per_worker: usize,
    /// Aggregation steps per epoch.
    pub steps: usize,
}

impl<'a> Shards<'a> {
    /// Shards `dataset` across `cfg`'s nodes, then each node's share
    /// across its threads.
    pub(crate) fn new(cfg: &ClusterConfig, dataset: &'a Dataset) -> Self {
        let per_worker = layout::shard_size(cfg.minibatch, cfg.nodes * cfg.threads_per_node);
        let shards: Vec<Vec<&[Vec<f64>]>> = data::shards(dataset.records(), cfg.nodes)
            .into_iter()
            .map(|node| data::shards(node, cfg.threads_per_node))
            .collect();
        let longest = shards.iter().flatten().map(|s| s.len()).max().unwrap_or(0);
        Shards { shards, per_worker, steps: longest.div_ceil(per_worker) }
    }

    /// One accelerator thread's step over its records: a private model
    /// walked by SGD (averaging) or a gradient sum against the shared one.
    pub(crate) fn thread_partial(
        &self,
        alg: &Algorithm,
        cfg: &ClusterConfig,
        (node, thread): (usize, usize),
        step: usize,
        model: &[f64],
    ) -> ThreadPartial {
        let shard = self.shards[node][thread];
        let lo = (step * self.per_worker).min(shard.len());
        let hi = ((step + 1) * self.per_worker).min(shard.len());
        if lo == hi {
            return None;
        }
        let records = &shard[lo..hi];
        let partial = match cfg.aggregation {
            Aggregation::Average => {
                let mut local = model.to_vec();
                for r in records {
                    alg.sgd_update(r, &mut local, cfg.learning_rate);
                }
                local
            }
            Aggregation::Sum => {
                let mut grad = vec![0.0; model.len()];
                for r in records {
                    alg.accumulate_gradient(r, model, &mut grad);
                }
                grad
            }
        };
        Some((partial, records.len()))
    }

    /// Node `node`'s partial at `step`: its threads' partials, computed
    /// one after another and folded exactly as a [`Crew`] folds them.
    pub(crate) fn node_partial(
        &self,
        alg: &Algorithm,
        cfg: &ClusterConfig,
        node: usize,
        step: usize,
        model: &[f64],
    ) -> NodePartial {
        let answers = (0..cfg.threads_per_node)
            .map(|thread| Some(self.thread_partial(alg, cfg, (node, thread), step, model)))
            .collect();
        fold_node(answers, model.len(), cfg.aggregation)
    }
}

/// One dispatch to one worker: the step and the model to compute against.
type Job = (usize, Arc<Vec<f64>>);

/// The resident compute workers of one run: one named OS thread per
/// (node, accelerator thread), alive from [`Crew::spawn`] until the crew
/// is dropped — dropping the job senders ends every worker's loop, and
/// the scope they were spawned in joins them.
pub(crate) struct Crew {
    /// Job senders, `jobs[node][thread]`.
    jobs: Vec<Vec<Sender<Job>>>,
    /// One `(node, partial)` per dispatched node per round, sent by the
    /// node's thread-0 worker.
    reports: Receiver<(usize, NodePartial)>,
}

impl Crew {
    /// Spawns `nodes × threads` workers into `scope`. A worker answers
    /// a job with `work`; a node's thread-0 worker also collects its
    /// siblings' answers and folds the node partial, so local
    /// aggregation stays parallel across nodes. Fails when the OS
    /// refuses a thread.
    pub(crate) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        (nodes, threads): (usize, usize),
        aggregation: Aggregation,
        work: &'scope Work<'scope>,
    ) -> Result<Crew, RuntimeError> {
        let (report, reports) = channel::unbounded();
        let mut jobs = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let (to_lead, siblings) = channel::unbounded();
            let mut lead = Some((siblings, report.clone()));
            let mut senders = Vec::with_capacity(threads);
            for thread in 0..threads {
                let (tx, rx) = channel::unbounded::<Job>();
                senders.push(tx);
                let (lead, to_lead) = (lead.take(), to_lead.clone());
                let serve = move || {
                    for (step, model) in rx {
                        let model_len = model.len();
                        // The job owns the model handle, so it is gone
                        // before the answer is — on unwind too — and the
                        // engine takes the model back unshared.
                        let job = move || work(node, thread, step, &model);
                        let mine = catch_unwind(AssertUnwindSafe(job)).ok();
                        // A send only fails once the crew is being
                        // dropped, and then `rx` ends this loop.
                        let Some((siblings, report)) = &lead else {
                            let _ = to_lead.send((thread, mine));
                            continue;
                        };
                        let mut answers = vec![None; threads];
                        answers[0] = mine;
                        for (sibling, answer) in siblings.into_iter().take(threads - 1) {
                            answers[sibling] = answer;
                        }
                        let _ = report.send((node, fold_node(answers, model_len, aggregation)));
                    }
                };
                thread::Builder::new()
                    .name(format!("cosmic-compute-{node}-{thread}"))
                    .spawn_scoped(scope, serve)
                    .map_err(|e| RuntimeError::WorkerPoolFailure(format!("compute worker: {e}")))?;
            }
            jobs.push(senders);
        }
        Ok(Crew { jobs, reports })
    }

    /// One round: sends `(step, model)` to every worker of every node
    /// `dispatch` selects and waits for exactly that many reports. A
    /// node not dispatched, or with a panicked worker, yields `None`.
    /// No worker holds `model` any more when this returns.
    pub(crate) fn round(
        &self,
        dispatch: &[bool],
        step: usize,
        model: &Arc<Vec<f64>>,
    ) -> Vec<NodePartial> {
        let mut partials = vec![None; dispatch.len()];
        let mut awaited = 0;
        for (senders, _) in self.jobs.iter().zip(dispatch).filter(|&(_, &go)| go) {
            awaited += 1;
            for tx in senders {
                // Cannot fail: a worker outlives its job sender.
                let _ = tx.send((step, Arc::clone(model)));
            }
        }
        for (node, partial) in (&self.reports).into_iter().take(awaited) {
            partials[node] = partial;
        }
        partials
    }
}

/// Local (on-chip) aggregation across a node's worker threads, in
/// thread order and in place in the first contributor's vector:
/// `((0.0 + p₀) + p₁) + …` — the leading zero is arithmetic (`0.0 +
/// -0.0` is `+0.0`). The weight is what the final operator divides by:
/// contributing threads for averaging, records for a gradient sum. A
/// thread without records contributes nothing, a node without any
/// yields `(zeros, 0)`, a panicked worker (`None`) fails the whole node.
fn fold_node(answers: Vec<Option<ThreadPartial>>, len: usize, op: Aggregation) -> NodePartial {
    let mut node: Option<(Vec<f64>, usize)> = None;
    for answer in answers {
        let Some((partial, records)) = answer? else {
            continue;
        };
        let weight = match op {
            Aggregation::Average => 1,
            Aggregation::Sum => records,
        };
        node = Some(match node {
            None => (partial.into_iter().map(|v| 0.0 + v).collect(), weight),
            Some((mut sum, total)) => {
                for (s, v) in sum.iter_mut().zip(&partial) {
                    *s += v;
                }
                (sum, total + weight)
            }
        });
    }
    Some(node.unwrap_or_else(|| (vec![0.0; len], 0)))
}

/// Phase 1: every physically-up, unpartitioned node computes its
/// partial. In detector mode this includes nodes the runtime has
/// expelled — they don't know they're out, and their traffic is what
/// triggers re-admission. The model moves into an `Arc` for the
/// compute and back out of it: no copy either way.
pub(crate) fn fan_out<O: RunObserver>(
    eng: &Engine<'_, O>,
    compute: &mut dyn Compute,
    st: &mut RunState,
    step: usize,
) -> Result<Vec<Arrival>, RuntimeError> {
    let dispatch: Vec<bool> = (0..eng.cfg.nodes)
        .map(|node| st.up[node] && !eng.plan.quiesced(node, st.iter_idx))
        .collect();
    let model = Arc::new(std::mem::take(&mut st.model));
    let req = Request {
        iteration: st.iter_idx,
        step,
        dispatch: &dispatch,
        model: &model,
        member: &st.member,
        store: &st.store,
    };
    let arrivals = compute.partials(&req);
    st.model = Arc::try_unwrap(model).unwrap_or_else(|shared| (*shared).clone());
    arrivals
}

/// Phase 1b: a node whose compute workers answered without a partial
/// had one panic — the pool sees it locally, with no detection latency
/// in either membership mode.
pub(crate) fn absorb_panics<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    arrivals: &[Arrival],
) -> Result<(), RuntimeError> {
    for (node, arrival) in arrivals.iter().enumerate() {
        if matches!(arrival, Some(None)) {
            st.up[node] = false;
            if st.member[node] {
                st.report.exclusions.push(Exclusion {
                    iteration: st.iter_idx,
                    node,
                    reason: ExclusionReason::ThreadPanic,
                });
                eng.obs.excluded(st.iter_idx, node);
                kill_node(eng, st, node)?;
            }
        }
    }
    Ok(())
}

/// Phase 2: deadline admission in virtual time. A node's completion
/// time is its straggle factor plus the backoff delays spent
/// retransmitting dropped chunks; past the deadline it is excluded and
/// the update will be rescaled over the survivors. Every arrival is
/// also a heartbeat: deliveries feed the detector, reinstate suspects,
/// and queue expelled senders for rejoin. Returns the admitted
/// contributions and the barrier's virtual wait (the slowest member's
/// completion time, capped at the deadline).
pub(crate) fn admission_barrier<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    arrivals: &mut [Arrival],
    t0: f64,
) -> (Vec<NodePartial>, f64) {
    let mut contributions: Vec<NodePartial> = (0..eng.cfg.nodes).map(|_| None).collect();
    let mut round_cost = 1.0f64; // nominal compute time
    for node in 0..eng.cfg.nodes {
        if !st.up[node] || eng.plan.quiesced(node, st.iter_idx) {
            continue;
        }
        let has_records = matches!(&arrivals[node], Some(Some((_, n))) if *n > 0);
        if !has_records {
            continue;
        }
        let adm =
            admit(eng.plan, &eng.cfg.retry, eng.cfg.deadline_factor, node, st.iter_idx, eng.chunks);
        if st.member[node] {
            // Only members hold up the barrier or count in the round's
            // retry traffic; an expelled node's stream is background
            // noise until it rejoins.
            st.report.chunk_retries += adm.retries;
            round_cost = round_cost.max(adm.cost.min(eng.cfg.deadline_factor));
            if adm.retries > 0 {
                eng.obs.retransmitted(node, t0, adm.backoff, adm.retries);
            }
        }
        // Every arrival is a heartbeat — even one past the deadline
        // (late is not lost). Only an undeliverable stream never
        // registers.
        if !eng.oracle && !matches!(adm.reason, Some(ExclusionReason::Undeliverable)) {
            let at = st.vclock + adm.cost;
            st.detector.observe(node, at);
            if st.member[node] && st.suspected[node] {
                st.suspected[node] = false;
                st.report.false_suspicions += 1;
                st.report.reinstatements.push((st.iter_idx, node));
                eng.obs.reinstated(st.iter_idx, node);
            } else if !st.member[node] {
                st.rejoiners.push((node, at));
            }
        }
        if !st.member[node] {
            continue;
        }
        match adm.reason {
            None => contributions[node] = arrivals[node].take().flatten(),
            Some(reason) => {
                st.report.exclusions.push(Exclusion { iteration: st.iter_idx, node, reason });
                eng.obs.excluded(st.iter_idx, node);
            }
        }
    }
    (contributions, round_cost)
}

/// The outcome of deadline admission for one node.
pub(crate) struct Admission {
    /// `None` when the node made the deadline and contributes.
    pub reason: Option<ExclusionReason>,
    /// Retransmissions spent recovering dropped chunks.
    pub retries: usize,
    /// Total backoff delay spent on those retransmissions, in
    /// nominal-iteration units.
    pub backoff: f64,
    /// The node's virtual completion time: straggle factor + backoff.
    pub cost: f64,
}

/// Deadline admission for one node, in virtual time.
pub(crate) fn admit(
    plan: &FaultPlan,
    retry: &RetryPolicy,
    deadline_factor: f64,
    node: usize,
    iteration: usize,
    chunks: usize,
) -> Admission {
    let mut retries = 0;
    let mut backoff = 0.0;
    let mut undeliverable = false;
    if plan.has_chunk_faults(node, iteration) {
        for chunk in 0..chunks {
            let drops = plan.chunk_drops(node, iteration, chunk);
            if drops == 0 {
                continue;
            }
            if drops > retry.max_retries {
                undeliverable = true;
            }
            let attempts = drops.min(retry.max_retries);
            for attempt in 0..attempts {
                backoff += retry.delay(attempt);
            }
            retries += attempts as usize;
        }
    }
    let cost = plan.straggle_factor(node, iteration) + backoff;
    let reason = if undeliverable {
        Some(ExclusionReason::Undeliverable)
    } else if cost > deadline_factor {
        Some(ExclusionReason::DeadlineExceeded { virtual_cost: cost })
    } else {
        None
    };
    Admission { reason, retries, backoff, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullObserver;
    use crate::trainer::ClusterTrainer;
    use cosmic_ml::data;
    use parking_lot::Mutex;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Runs `body` on a thread of its own and fails if it has not
    /// returned in twenty seconds: a crew that loses a report hangs
    /// rather than fails.
    fn within_deadline<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, wait) = mpsc::channel();
        thread::spawn(move || done.send(body()));
        match wait.recv_timeout(Duration::from_secs(20)) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("the crew hung"),
            Err(RecvTimeoutError::Disconnected) => panic!("the test body panicked"),
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn node_fold_keeps_thread_order_the_weights_and_the_leading_zero() {
        let answers = || {
            vec![Some(Some((vec![-0.0, 1e16], 3))), Some(None), Some(Some((vec![-0.0, 1.0], 5)))]
        };
        // ((0.0 + -0.0) + -0.0) is +0.0; (-0.0 + -0.0) would be -0.0.
        let (sum, weight) = fold_node(answers(), 2, Aggregation::Average).expect("no panic");
        assert_eq!((bits(&sum), weight), (bits(&[0.0, 1e16 + 1.0]), 2), "contributing threads");
        let (sum, weight) = fold_node(answers(), 2, Aggregation::Sum).expect("no panic");
        assert_eq!((bits(&sum), weight), (bits(&[0.0, 1e16 + 1.0]), 8), "records");
        // One contributor: its -0.0 still passes through `0.0 +`.
        let lone = vec![Some(None), Some(Some((vec![-0.0], 1)))];
        assert_eq!(fold_node(lone, 1, Aggregation::Sum), Some((vec![0.0], 1)));
        assert_eq!(
            bits(&fold_node(vec![Some(Some((vec![-0.0], 1)))], 1, Aggregation::Sum).unwrap().0),
            bits(&[0.0])
        );
        // Nobody had records: zeros of the model's length, weight 0.
        assert_eq!(
            fold_node(vec![Some(None); 3], 4, Aggregation::Average),
            Some((vec![0.0; 4], 0))
        );
        // Any panicked thread fails the node, wherever it sits.
        for at in 0..3 {
            let mut answers = answers();
            answers[at] = None;
            assert_eq!(fold_node(answers, 2, Aggregation::Average), None, "panic at {at}");
        }
    }

    /// A panic on a lead (thread 0) or a sibling worker: that node
    /// reports `None` for that round only, every other node reports its
    /// partial, undispatched nodes are left alone, and the very same OS
    /// thread answers the next dispatch.
    #[test]
    fn a_panicking_worker_fails_only_its_node_and_keeps_serving() {
        const NODES: usize = 3;
        const THREADS: usize = 2;
        for bomb in [(1, 0, 1), (1, 1, 1), (2, 1, 0)] {
            let (rounds, seen) = within_deadline(move || {
                let seen: Mutex<Vec<((usize, usize), ThreadId)>> = Mutex::new(Vec::new());
                let work = |node: usize, thread: usize, step: usize, model: &[f64]| {
                    seen.lock().push(((node, thread), thread::current().id()));
                    let name = format!("cosmic-compute-{node}-{thread}");
                    assert_eq!(thread::current().name(), Some(name.as_str()));
                    assert!((node, thread, step) != bomb, "planted panic");
                    Some((vec![model[0] + (node * 10 + thread) as f64], 4))
                };
                let rounds: Vec<Vec<NodePartial>> = thread::scope(|scope| {
                    let crew = Crew::spawn(scope, (NODES, THREADS), Aggregation::Sum, &work)
                        .expect("threads");
                    let model = Arc::new(vec![0.5]);
                    let rounds = (0..3)
                        .map(|step| crew.round(&[step != 2, true, true], step, &model))
                        .collect();
                    assert_eq!(Arc::strong_count(&model), 1, "workers keep no handle");
                    rounds
                });
                (rounds, seen.into_inner())
            });
            for (step, partials) in rounds.iter().enumerate() {
                for (node, partial) in partials.iter().enumerate() {
                    let healthy = Some((
                        vec![0.0 + (0.5 + (node * 10) as f64) + (0.5 + (node * 10 + 1) as f64)],
                        8,
                    ));
                    let want = match (node, step) {
                        (0, 2) => None, // not dispatched
                        _ if (node, step) == (bomb.0, bomb.2) => None,
                        _ => healthy,
                    };
                    assert_eq!(*partial, want, "bomb {bomb:?}: node {node} at step {step}");
                }
            }
            for node in 0..NODES {
                for thread in 0..THREADS {
                    let ids: Vec<ThreadId> = seen
                        .iter()
                        .filter(|(w, _)| *w == (node, thread))
                        .map(|(_, id)| *id)
                        .collect();
                    assert_eq!(ids.len(), if node == 0 { 2 } else { 3 }, "bomb {bomb:?}");
                    assert!(
                        ids.windows(2).all(|w| w[0] == w[1]),
                        "worker {node}-{thread} was replaced"
                    );
                }
            }
        }
    }

    /// `ExclusionReason::ThreadPanic` end to end, through the
    /// `Engine::work` seam (no dataset can reach it: a record that
    /// panics `sgd_update` panics `record_loss` on the engine thread
    /// first). Node 3 is the Sigma of group {3, 4, 5}; one of its
    /// workers panics at iteration 2. The run absorbs it exactly like a
    /// planned crash of node 3 at that iteration: one exclusion, one
    /// re-election, and every later update rescaled over the survivors —
    /// the same model and loss bits as the crash run.
    #[test]
    fn a_thread_panic_is_excluded_reelected_around_and_trained_past_like_a_crash() {
        for bomb_thread in [0, 1] {
            let (panicked, crashed) = within_deadline(move || {
                let alg = Algorithm::LogisticRegression { features: 6 };
                let ds = data::generate(&alg, 480, 7);
                let init = data::init_model(&alg, 3);
                let cfg = ClusterConfig {
                    nodes: 6,
                    groups: 2,
                    threads_per_node: 2,
                    minibatch: 96,
                    learning_rate: 0.2,
                    ..ClusterConfig::default()
                };
                let trainer = ClusterTrainer::new(cfg.clone()).expect("valid config");
                let mut eng = Engine::new(&cfg, &alg, &ds, init.len(), NullObserver).expect("sim");
                let real = std::mem::replace(&mut eng.work, Box::new(|_, _, _, _| None));
                eng.work = Box::new(move |node, thread, step, model: &[f64]| {
                    assert!((node, thread, step) != (3, bomb_thread, 2), "planted panic");
                    real(node, thread, step, model)
                });
                let panicked = eng.run(trainer.topology().clone(), init.clone());
                let plan = FaultPlan::none().crash(3, 2);
                let crashed = ClusterTrainer::new(ClusterConfig { faults: plan, ..cfg.clone() })
                    .expect("valid config")
                    .train(&alg, &ds, init);
                (panicked.expect("absorbed"), crashed.expect("absorbed"))
            });
            let excluded =
                Exclusion { iteration: 2, node: 3, reason: ExclusionReason::ThreadPanic };
            assert_eq!(panicked.faults.exclusions, vec![excluded]);
            assert!(panicked.faults.crashes.is_empty() && crashed.faults.exclusions.is_empty());
            assert_eq!(panicked.faults.reelections.len(), 1, "kill_node ran on a Sigma");
            assert_eq!(panicked.faults.reelections[0].1.failed, 3);
            assert_eq!(panicked.faults.reelections, crashed.faults.reelections);
            assert_eq!(panicked.iterations, 5);
            assert_eq!(bits(&panicked.model), bits(&crashed.model), "survivor rescaling");
            assert_eq!(bits(&panicked.loss_history), bits(&crashed.loss_history));
            assert_eq!(panicked.final_topology, crashed.final_topology);
        }
    }
}
