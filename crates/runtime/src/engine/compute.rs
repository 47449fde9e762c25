//! The compute phase: one request to the run's [`Compute`] — its
//! [`Crew`] (the engine's thread plus helpers created once, like Sigma's
//! pool) or a deployment's worker processes — panic absorption, and the
//! deadline-admission barrier in virtual time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

use cosmic_ml::data::{self, Dataset};
use cosmic_ml::{Aggregation, Algorithm};
use cosmic_sim::faults::FaultPlan;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::checkpoint::CheckpointStore;
use crate::error::RuntimeError;
use crate::layout;
use crate::trainer::{ClusterConfig, Exclusion, ExclusionReason, DEADLINE_FACTOR, RETRY};

use super::membership::kill_node;
use super::observer::RunObserver;
use super::state::{RoundTables, RunState};
use super::Engine;

/// A node's partial for one round: the locally-aggregated vector and
/// its contribution weight (threads for averaging, records for sums).
pub(crate) type NodePartial = Option<(Vec<f64>, usize)>;

/// What reached the engine from one node in a round: `None` when
/// nothing did (the node was not dispatched, or its worker process
/// stayed silent: no heartbeat), else its [`NodePartial`], itself `None`
/// when one of its compute jobs panicked.
pub(crate) type Arrival = Option<NodePartial>;

/// What one accelerator thread computed in one step: its buffer and the
/// records it consumed, `None` (the buffer unread) when it had none.
pub(crate) type ThreadPartial = (Vec<f64>, Option<usize>);

/// The per-thread function a [`Crew`] runs: `(node, thread, step, model,
/// partial)` fills the model-sized `partial` and returns the records it
/// consumed, or `None` when it had none — [`Shards::thread_partial`], or
/// a test's that panics.
pub(crate) type Work<'a> =
    dyn Fn(usize, usize, usize, &[f64], &mut [f64]) -> Option<usize> + Sync + 'a;

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
    /// Appends one [`Arrival`] per node for `req` to `arrivals`, which
    /// the engine hands over empty.
    fn partials(
        &mut self,
        req: &Request<'_>,
        arrivals: &mut Vec<Arrival>,
    ) -> Result<(), RuntimeError>;

    /// The round closed on `model`, the model every node computes
    /// against next; `spent` holds the round's arrival vectors, and
    /// whatever the compute phase does not take from it is dropped.
    fn settle(&mut self, model: &[f64], spent: &mut Vec<Vec<f64>>);

    /// Whether the run records its loss history: a pass over the whole
    /// dataset on the engine's thread before every epoch and after the
    /// last. A deployment that reports no loss skips them, and its
    /// outcome's history is empty; nothing else depends on it.
    fn records_loss(&self) -> bool {
        true
    }
}

impl Compute for Crew<'_> {
    fn partials(
        &mut self,
        req: &Request<'_>,
        arrivals: &mut Vec<Arrival>,
    ) -> Result<(), RuntimeError> {
        self.round(req.dispatch, req.step, req.model, arrivals);
        Ok(())
    }

    fn settle(&mut self, _model: &[f64], spent: &mut Vec<Vec<f64>>) {
        self.shared.board.lock().spares.append(spent);
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

    /// One accelerator thread's step into `partial`: a private model
    /// walked by SGD (averaging) or a gradient sum; `None` if no records.
    pub(crate) fn thread_partial(
        &self,
        alg: &Algorithm,
        cfg: &ClusterConfig,
        (node, thread): (usize, usize),
        step: usize,
        model: &[f64],
        partial: &mut [f64],
    ) -> Option<usize> {
        let shard = self.shards[node][thread];
        let lo = (step * self.per_worker).min(shard.len());
        let hi = ((step + 1) * self.per_worker).min(shard.len());
        if lo == hi {
            return None;
        }
        let records = &shard[lo..hi];
        match cfg.aggregation {
            Aggregation::Average => {
                partial.copy_from_slice(model);
                for r in records {
                    alg.sgd_update(r, partial, cfg.learning_rate);
                }
            }
            Aggregation::Sum => {
                partial.fill(0.0);
                for r in records {
                    alg.accumulate_gradient(r, model, partial);
                }
            }
        }
        Some(records.len())
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
        let answers = (0..cfg.threads_per_node).map(|thread| {
            let mut partial = vec![0.0; model.len()];
            let records = self.thread_partial(alg, cfg, (node, thread), step, model, &mut partial);
            Some((partial, records))
        });
        fold_node(answers, cfg.aggregation, &mut Vec::new())
    }
}

/// The compute crew of one run: the engine's thread, which works each
/// round it opens, and `min(nodes × threads, width) − 1` helpers
/// (`cosmic-compute-{i}`) that live until the crew is dropped and its
/// scope joins them. Jobs stay keyed by `(node, thread)` and each node
/// folds in thread order, so the width moves no bit.
pub(crate) struct Crew<'w> {
    shared: Arc<Shared>,
    work: &'w Work<'w>,
    threads: usize,
}

/// The crew's one lock and condvars: helpers sleep on `work`, the engine on `done`.
struct Shared {
    board: Mutex<Board>,
    work: Condvar,
    done: Condvar,
    op: Aggregation,
}

/// The job queue and the open round (step and model): `answers[node]
/// [thread]`, each node's jobs not yet answered, the buffers each
/// node's fold left over (`folded[node]`, on their way to `spares`), the
/// round's arrivals and the nodes yet to fold, every table kept from
/// round to round; the spare buffers and the helpers asleep with no
/// wake on its way (`idle`). What the wake rule reads: when the wake in
/// flight was sent, the fastest hand-off measured (a wake to its helper
/// holding the lock), the longest job of the round and whether the
/// round wakes helpers at all.
#[derive(Default)]
struct Board {
    round: Option<(usize, Arc<Vec<f64>>)>,
    queue: Vec<(usize, usize)>,
    answers: Vec<Vec<Option<ThreadPartial>>>,
    unanswered: Vec<usize>,
    folded: Vec<Vec<Vec<f64>>>,
    partials: Vec<Arrival>,
    unfolded: usize,
    spares: Vec<Vec<f64>>,
    idle: usize,
    closing: bool,
    woken: Option<Instant>,
    handoff: Option<Duration>,
    longest: Duration,
    waking: bool,
}

impl Board {
    /// Whether a pop wakes a helper: the round wakes helpers, a job is
    /// still queued, and a helper sleeps with no wake already on its way.
    fn wakes(&self) -> bool {
        self.waking && !self.queue.is_empty() && self.idle > 0 && self.woken.is_none()
    }
}

type Guard<'b> = MutexGuard<'b, Board>;

impl Shared {
    /// Runs queued jobs until none is left. A job is taken under the lock
    /// (waking a sleeping helper if [`Board::wakes`] says so) and run, and
    /// timed, outside it; whoever answers a node's last job folds it,
    /// outside it too.
    fn drain<'b>(&'b self, mut board: Guard<'b>, work: &Work<'_>) -> Guard<'b> {
        while let Some((node, thread)) = board.queue.pop() {
            if board.wakes() {
                board.idle -= 1;
                board.woken = Some(Instant::now());
                self.work.notify_one();
            }
            let (step, model) = board.round.clone().unwrap_or_default();
            let mut partial = board.spares.pop().unwrap_or_default(); // stocked by `round`
            drop(board);
            let started = Instant::now();
            let job = || work(node, thread, step, &model, &mut partial);
            let answer = catch_unwind(AssertUnwindSafe(job)).ok().map(|records| (partial, records));
            let took = started.elapsed();
            drop(model); // before booking: the engine takes it back unshared
            board = self.board.lock();
            board.longest = board.longest.max(took);
            board.answers[node][thread] = answer;
            board.unanswered[node] -= 1;
            if board.unanswered[node] == 0 {
                let mut answers = std::mem::take(&mut board.answers[node]);
                let mut spent = std::mem::take(&mut board.folded[node]);
                drop(board);
                let folded = fold_node(answers.drain(..), self.op, &mut spent);
                board = self.board.lock();
                board.spares.append(&mut spent);
                (board.answers[node], board.folded[node]) = (answers, spent);
                board.partials[node] = Some(folded);
                board.unfolded -= 1;
                if board.unfolded == 0 {
                    self.done.notify_one();
                }
            }
        }
        board
    }

    /// A helper: work the queue, sleep until woken, return on closing.
    /// The first helper to hold the lock after a wake measures the
    /// hand-off; any other return from the wait (spurious, or the crew
    /// closing) leaves `idle` itself.
    fn serve(&self, work: &Work<'_>) {
        let mut board = self.drain(self.board.lock(), work);
        while !board.closing {
            board.idle += 1;
            self.work.wait(&mut board);
            match board.woken.take() {
                Some(sent) => {
                    let took = sent.elapsed();
                    board.handoff = Some(board.handoff.map_or(took, |fastest| fastest.min(took)));
                }
                None => board.idle -= 1,
            }
            board = self.drain(board, work);
        }
    }
}

impl<'w> Crew<'w> {
    /// Spawns `min(nodes × threads, width) − 1` helpers into `scope`; the
    /// thread that calls [`Crew::round`] is the first worker, so a crew
    /// one wide has no helper. Fails if the OS refuses one.
    pub(crate) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        (nodes, threads): (usize, usize),
        width: usize,
        op: Aggregation,
        work: &'scope Work<'scope>,
    ) -> Result<Crew<'scope>, RuntimeError> {
        let (answers, unanswered, folded) =
            (vec![vec![]; nodes], vec![0; nodes], vec![vec![]; nodes]);
        let board = Mutex::new(Board { answers, unanswered, folded, ..Board::default() });
        let shared = Shared { board, work: Condvar::new(), done: Condvar::new(), op };
        // Built first: a refused thread drops it, closing the helpers so far.
        let crew = Crew { shared: Arc::new(shared), work, threads };
        for i in 0..(nodes * threads).min(width).saturating_sub(1) {
            let shared = Arc::clone(&crew.shared);
            thread::Builder::new()
                .name(format!("cosmic-compute-{i}"))
                .spawn_scoped(scope, move || shared.serve(work))
                .map_err(|e| RuntimeError::WorkerPoolFailure(format!("compute helper: {e}")))?;
        }
        Ok(crew)
    }

    /// One round: queues a job per thread of each node `dispatch` selects,
    /// works the queue, then waits for the nodes helpers still fold, and
    /// appends each node's [`Arrival`] to `arrivals`: `None` for a node
    /// not dispatched, `Some(None)` for one with a panicked job.
    pub(crate) fn round(
        &self,
        dispatch: &[bool],
        step: usize,
        model: &Arc<Vec<f64>>,
        arrivals: &mut Vec<Arrival>,
    ) {
        let mut board = self.shared.board.lock();
        board.partials.clear();
        board.partials.resize(dispatch.len(), None);
        for node in (0..dispatch.len()).filter(|&node| dispatch[node]) {
            board.answers[node].resize_with(self.threads, || None);
            board.unanswered[node] = self.threads;
            board.unfolded += 1;
            board.queue.extend((0..self.threads).map(|thread| (node, thread)));
        }
        // Allocates only for a round larger than any before, or for a panicked node's lost buffers.
        let missing = board.queue.len().saturating_sub(board.spares.len());
        board.spares.extend((0..missing).map(|_| vec![0.0; model.len()]));
        board.round = Some((step, Arc::clone(model)));
        // The wake rule: helpers join a round only while no hand-off is
        // measured yet, or if the last round's longest job took at least
        // the fastest one; a helper woken for shorter jobs would arrive
        // after the engine had run them.
        let longest = std::mem::take(&mut board.longest);
        board.waking = board.handoff.is_none_or(|fastest| longest >= fastest);
        board = self.shared.drain(board, self.work);
        while board.unfolded > 0 {
            self.shared.done.wait(&mut board);
        }
        board.round = None;
        arrivals.append(&mut board.partials);
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        self.shared.board.lock().closing = true;
        self.shared.work.notify_all();
    }
}

/// Local (on-chip) aggregation across a node's threads, in thread order
/// and in place in the first contributor's buffer: `((0.0 + p₀) + p₁) +
/// …` (the zero is arithmetic: `0.0 + -0.0` is `+0.0`). Weight: threads
/// that contributed (averaging) or records (sum). A thread without
/// records adds nothing, a node without any yields `(zeros, 0)`, and a
/// panicked thread (`None`) fails the node. Other buffers go to `spent`.
fn fold_node(
    answers: impl IntoIterator<Item = Option<ThreadPartial>>,
    op: Aggregation,
    spent: &mut Vec<Vec<f64>>,
) -> NodePartial {
    let mut node: NodePartial = None;
    for answer in answers {
        let (mut partial, records) = answer?;
        let Some(records) = records else {
            spent.push(partial);
            continue;
        };
        let weight = if op == Aggregation::Sum { records } else { 1 };
        if let Some((sum, total)) = &mut node {
            sum.iter_mut().zip(&partial).for_each(|(s, v)| *s += v);
            *total += weight;
            spent.push(partial);
        } else {
            // `v + 0.0` is `0.0 + v`: IEEE addition commutes.
            partial.iter_mut().for_each(|v| *v += 0.0);
            node = Some((partial, weight));
        }
    }
    Some(node.unwrap_or_else(|| {
        let mut zeros = spent.pop().unwrap_or_default();
        zeros.fill(0.0);
        (zeros, 0)
    }))
}

/// Phase 1: every physically-up, unpartitioned node computes its
/// partial, into `round.arrivals`. In detector mode this includes nodes
/// the runtime has expelled — they don't know they're out, and their
/// traffic is what triggers re-admission. The compute shares the
/// model's `Arc` and gives it back unshared.
pub(crate) fn fan_out<O: RunObserver>(
    eng: &Engine<'_, O>,
    compute: &mut dyn Compute,
    st: &RunState,
    round: &mut RoundTables,
    step: usize,
) -> Result<(), RuntimeError> {
    round.dispatch.clear();
    round.dispatch.extend(
        (0..eng.cfg.nodes).map(|node| st.up[node] && !eng.plan.quiesced(node, st.iter_idx)),
    );
    let req = Request {
        iteration: st.iter_idx,
        step,
        dispatch: &round.dispatch,
        model: &st.model,
        member: &st.member,
        store: &st.store,
    };
    round.arrivals.clear();
    compute.partials(&req, &mut round.arrivals)
}

/// Phase 1b: a node whose compute jobs answered without a partial had
/// one panic — the crew sees it locally, with no detection latency in
/// either membership mode.
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
/// and queue expelled senders for rejoin. Moves the admitted arrivals
/// into `round.contributions` and returns the barrier's virtual wait
/// (the slowest member's completion time, capped at the deadline).
pub(crate) fn admission_barrier<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    round: &mut RoundTables,
    t0: f64,
) -> f64 {
    let (arrivals, contributions) = (&mut round.arrivals, &mut round.contributions);
    contributions.clear();
    contributions.resize(eng.cfg.nodes, None);
    let mut round_cost = 1.0f64; // nominal compute time
    for node in 0..eng.cfg.nodes {
        if !st.up[node] || eng.plan.quiesced(node, st.iter_idx) {
            continue;
        }
        let has_records = matches!(&arrivals[node], Some(Some((_, n))) if *n > 0);
        if !has_records {
            continue;
        }
        let adm = admit(eng.plan, node, st.iter_idx, eng.chunks);
        if st.member[node] {
            // Only members hold up the barrier or count in the round's
            // retry traffic; an expelled node's stream is background
            // noise until it rejoins.
            st.report.chunk_retries += adm.retries;
            round_cost = round_cost.max(adm.cost.min(DEADLINE_FACTOR));
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
    round_cost
}

/// The outcome of deadline admission for one node.
struct Admission {
    /// `None` when the node made the deadline and contributes.
    reason: Option<ExclusionReason>,
    /// Retransmissions spent recovering dropped chunks.
    retries: usize,
    /// Total backoff delay spent on those retransmissions, in
    /// nominal-iteration units.
    backoff: f64,
    /// The node's virtual completion time: straggle factor + backoff.
    cost: f64,
}

/// Deadline admission for one node, in virtual time, under [`RETRY`]
/// and [`DEADLINE_FACTOR`].
fn admit(plan: &FaultPlan, node: usize, iteration: usize, chunks: usize) -> Admission {
    let mut retries = 0;
    let mut backoff = 0.0;
    let mut undeliverable = false;
    if plan.has_chunk_faults(node, iteration) {
        for chunk in 0..chunks {
            let drops = plan.chunk_drops(node, iteration, chunk);
            if drops == 0 {
                continue;
            }
            if drops > RETRY.max_retries {
                undeliverable = true;
            }
            let attempts = drops.min(RETRY.max_retries);
            for attempt in 0..attempts {
                backoff += RETRY.delay(attempt);
            }
            retries += attempts as usize;
        }
    }
    let cost = plan.straggle_factor(node, iteration) + backoff;
    let reason = if undeliverable {
        Some(ExclusionReason::Undeliverable)
    } else if cost > DEADLINE_FACTOR {
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
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Runs `body` on a thread of its own and fails if it has not
    /// returned in twenty seconds: a crew that loses a job or a wake
    /// hangs rather than fails.
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

    /// One [`Crew::round`], each node's arrival read as its partial:
    /// `None` when it was not dispatched or a job panicked.
    fn round_of(
        crew: &Crew<'_>,
        dispatch: &[bool],
        step: usize,
        model: &Arc<Vec<f64>>,
    ) -> Vec<NodePartial> {
        let mut arrivals = Vec::new();
        crew.round(dispatch, step, model, &mut arrivals);
        arrivals.into_iter().map(Option::flatten).collect()
    }

    #[test]
    fn node_fold_keeps_thread_order_the_weights_and_the_leading_zero() {
        let idle = |len| Some((vec![f64::NAN; len], None)); // no records: the buffer is unread
        let answers =
            || vec![Some((vec![-0.0, 1e16], Some(3))), idle(2), Some((vec![-0.0, 1.0], Some(5)))];
        let fold =
            |answers: Vec<Option<ThreadPartial>>, op| fold_node(answers, op, &mut Vec::new());
        // ((0.0 + -0.0) + -0.0) is +0.0; (-0.0 + -0.0) would be -0.0.
        let (sum, weight) = fold(answers(), Aggregation::Average).expect("no panic");
        assert_eq!((bits(&sum), weight), (bits(&[0.0, 1e16 + 1.0]), 2), "contributing threads");
        let (sum, weight) = fold(answers(), Aggregation::Sum).expect("no panic");
        assert_eq!((bits(&sum), weight), (bits(&[0.0, 1e16 + 1.0]), 8), "records");
        // One contributor: its -0.0 still passes through `0.0 +`.
        let lone = vec![idle(1), Some((vec![-0.0], Some(1)))];
        let (sum, weight) = fold(lone, Aggregation::Sum).expect("no panic");
        assert_eq!((bits(&sum), weight), (bits(&[0.0]), 1));
        let lone = vec![Some((vec![-0.0], Some(1)))];
        let (sum, weight) = fold(lone, Aggregation::Sum).expect("no panic");
        assert_eq!((bits(&sum), weight), (bits(&[0.0]), 1));
        // Nobody had records: zeros of the model's length, weight 0.
        let (zeros, weight) = fold(vec![idle(4); 3], Aggregation::Average).expect("no panic");
        assert_eq!((bits(&zeros), weight), (bits(&[0.0; 4]), 0));
        // Any panicked thread fails the node, wherever it sits.
        for at in 0..3 {
            let mut answers = answers();
            answers[at] = None;
            assert_eq!(fold(answers, Aggregation::Average), None, "panic at {at}");
        }
        // The buffers folded away or left unread are spent, in thread
        // order; a node's zeros are one of them.
        let mut spent = Vec::new();
        let (sum, _) = fold_node(answers(), Aggregation::Sum, &mut spent).expect("no panic");
        assert_eq!(bits(&sum), bits(&[0.0, 1e16 + 1.0]));
        assert_eq!(bits(&spent.concat()), bits(&[f64::NAN, f64::NAN, -0.0, 1.0]));
        let unread = vec![f64::NAN; 2];
        let at = unread.as_ptr();
        let (zeros, _) =
            fold_node(vec![Some((unread, None))], Aggregation::Sum, &mut spent).expect("no panic");
        assert_eq!((bits(&zeros), zeros.as_ptr(), spent.len()), (bits(&[0.0; 2]), at, 2));
    }

    /// A planted panic fails only its node for that round, whichever
    /// thread ran it: every other node reports its partial, undispatched
    /// nodes are left alone, and no thread is replaced. A barrier holds
    /// every job until all of its round's jobs have started, so each
    /// round's jobs run on that many distinct threads: the engine's
    /// (which takes the last-queued job, `(2, 1)`, first) and helpers
    /// `cosmic-compute-{i}`, the same `ThreadId`s in every round. The
    /// crew is pinned `NODES × THREADS` wide, whatever the host, and as
    /// every job waits for the others' hand-offs, every round's longest
    /// job outlasts a hand-off and the next round wakes helpers too.
    #[test]
    fn a_panicking_worker_fails_only_its_node_and_keeps_serving() {
        const NODES: usize = 3;
        const THREADS: usize = 2;
        const HELPERS: usize = NODES * THREADS - 1;
        const DISPATCH: [[bool; NODES]; 3] = [[true; NODES], [true; NODES], [false, true, true]];
        type Seen = ((usize, usize, usize), Option<String>, ThreadId);
        for bomb in [(1, 0, 1), (1, 1, 1), (2, 1, 0)] {
            let (rounds, seen, engine) = within_deadline(move || {
                let engine = thread::current().id();
                let barriers: Vec<Barrier> = DISPATCH
                    .iter()
                    .map(|go| Barrier::new(go.iter().filter(|&&go| go).count() * THREADS))
                    .collect();
                let seen: Mutex<Vec<Seen>> = Mutex::new(Vec::new());
                let work = |node: usize,
                            thread: usize,
                            step: usize,
                            model: &[f64],
                            partial: &mut [f64]| {
                    let me = thread::current();
                    seen.lock().push(((node, thread, step), me.name().map(str::to_owned), me.id()));
                    barriers[step].wait();
                    assert!((node, thread, step) != bomb, "planted panic");
                    partial[0] = model[0] + (node * 10 + thread) as f64;
                    Some(4)
                };
                let rounds: Vec<Vec<NodePartial>> = thread::scope(|scope| {
                    let width = NODES * THREADS;
                    let crew = Crew::spawn(scope, (NODES, THREADS), width, Aggregation::Sum, &work)
                        .expect("threads");
                    let model = Arc::new(vec![0.5]);
                    let rounds = (0..DISPATCH.len())
                        .map(|step| round_of(&crew, &DISPATCH[step], step, &model))
                        .collect();
                    assert_eq!(Arc::strong_count(&model), 1, "workers keep no handle");
                    rounds
                });
                (rounds, seen.into_inner(), engine)
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
            let mut helpers: Vec<Vec<(String, ThreadId)>> = vec![Vec::new(); DISPATCH.len()];
            for (job, name, id) in &seen {
                if *id == engine {
                    assert!(name.is_none(), "the engine's thread is the caller's");
                    continue;
                }
                let name = name.clone().expect("helpers are named");
                let i: usize = name
                    .strip_prefix("cosmic-compute-")
                    .and_then(|i| i.parse().ok())
                    .unwrap_or_else(|| panic!("job {job:?} ran on {name}"));
                assert!(i < HELPERS, "job {job:?} ran on {name}");
                helpers[job.2].push((name, *id));
            }
            for round in &mut helpers {
                round.sort_by(|a, b| a.0.cmp(&b.0));
            }
            let ran_on = |job| seen.iter().find(|(j, _, _)| *j == job).map(|(_, _, id)| *id);
            assert_eq!(ran_on((2, 1, 0)), Some(engine), "the engine works its round");
            assert_eq!(helpers[0].len(), HELPERS, "every helper worked round 0");
            assert_eq!(helpers[1], helpers[0], "bomb {bomb:?}: a helper was replaced");
            assert_eq!(helpers[2].len(), HELPERS - 2, "four jobs: the engine and three helpers");
            assert!(helpers[2].iter().all(|h| helpers[0].contains(h)), "bomb {bomb:?}: replaced");
        }
    }

    /// A pure stand-in for [`Shards::thread_partial`]: some threads have
    /// no records, and the values mix `-0.0`, `±1e16` and small terms, so
    /// the leading zero, the weights and the thread order all show in
    /// the folded bits.
    fn answer(
        node: usize,
        thread: usize,
        step: usize,
        model: &[f64],
        partial: &mut [f64],
    ) -> Option<usize> {
        let key = (node * 7 + thread * 3 + step) % 5;
        if key == 0 {
            return None;
        }
        for (i, (p, m)) in partial.iter_mut().zip(model).enumerate() {
            *p = match (i + key + thread) % 4 {
                0 => -0.0,
                1 => {
                    if thread.is_multiple_of(2) {
                        1e16
                    } else {
                        -1e16
                    }
                }
                _ => m + key as f64,
            };
        }
        Some(key)
    }

    /// The crew against a sequential fold, on seeded random shapes:
    /// nodes 1–6 × threads 1–3 × both aggregations, 64 consecutive rounds
    /// on one crew under random dispatch masks and planted panics, the
    /// spent partials handed back each round, on crews 1, 2 and
    /// `nodes × threads` wide. Every round equals, bit for bit,
    /// [`fold_node`] over the per-thread answers in thread order, and
    /// leaves the model unshared. A crew has `min(nodes × threads, width)
    /// − 1` helpers, each holding the board; one a single thread wide
    /// (every width of case 0, 1 × 1) has none and runs every job — the
    /// panicking ones too — on the engine's thread.
    #[test]
    fn the_crew_folds_every_round_like_a_sequential_fold() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ROUNDS: usize = 64;
        for case in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(0xC0DE + case);
            let (nodes, threads) =
                if case == 0 { (1, 1) } else { (rng.gen_range(1..7), rng.gen_range(1..4)) };
            let op = if rng.gen_bool(0.5) { Aggregation::Average } else { Aggregation::Sum };
            let len = rng.gen_range(1..40);
            let mut bombs = Vec::new();
            let mut plan = Vec::new();
            for step in 0..ROUNDS {
                let dispatch: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(0.8)).collect();
                let model: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
                if case == 0 && step % 16 == 3 || rng.gen_bool(1.0 / 16.0) {
                    bombs.push((rng.gen_range(0..nodes), rng.gen_range(0..threads), step));
                }
                plan.push((dispatch, model));
            }
            for width in [1, 2, nodes * threads] {
                let shape =
                    format!("case {case}: {nodes} x {threads} {op:?}, len {len}, {width} wide");
                let helpers = (nodes * threads).min(width) - 1;
                let (rounds, ran_on, engine) = within_deadline({
                    let (plan, bombs) = (plan.clone(), bombs.clone());
                    move || {
                        let engine = thread::current().id();
                        let ran_on = Mutex::new(Vec::new());
                        let work = |node, thread, step, model: &[f64], partial: &mut [f64]| {
                            ran_on.lock().push(thread::current().id());
                            assert!(!bombs.contains(&(node, thread, step)), "planted panic");
                            answer(node, thread, step, model, partial)
                        };
                        let rounds: Vec<Vec<NodePartial>> = thread::scope(|scope| {
                            let mut crew = Crew::spawn(scope, (nodes, threads), width, op, &work)
                                .expect("threads");
                            assert_eq!(Arc::strong_count(&crew.shared), 1 + helpers, "helpers");
                            let mut rounds = Vec::new();
                            for (step, (dispatch, model)) in plan.into_iter().enumerate() {
                                let model = Arc::new(model);
                                let partials = round_of(&crew, &dispatch, step, &model);
                                assert_eq!(Arc::strong_count(&model), 1, "step {step}: shared");
                                let spent = partials.iter().flatten().map(|(p, _)| p.clone());
                                crew.settle(&model, &mut spent.collect());
                                rounds.push(partials);
                            }
                            rounds
                        });
                        (rounds, ran_on.into_inner(), engine)
                    }
                });
                for (step, ((dispatch, model), got)) in plan.iter().zip(&rounds).enumerate() {
                    for node in 0..nodes {
                        let want = dispatch[node]
                            .then(|| {
                                let answers = (0..threads).map(|thread| {
                                    if bombs.contains(&(node, thread, step)) {
                                        return None;
                                    }
                                    let mut partial = vec![f64::NAN; len];
                                    let records = answer(node, thread, step, model, &mut partial);
                                    Some((partial, records))
                                });
                                fold_node(answers, op, &mut Vec::new())
                            })
                            .flatten();
                        let as_bits = |p: &NodePartial| p.as_ref().map(|(v, w)| (bits(v), *w));
                        assert_eq!(
                            as_bits(&got[node]),
                            as_bits(&want),
                            "{shape}: node {node}, step {step}"
                        );
                    }
                }
                if helpers == 0 {
                    assert!(ran_on.iter().all(|id| *id == engine), "{shape}: a helper ran a job");
                }
            }
            if case == 0 {
                assert!(bombs.len() >= 4, "case 0 plants a panic every 16 rounds");
            }
        }
    }

    /// The wake rule, in the one direction that cannot flake: after 32
    /// rounds of sub-µs jobs, rounds whose jobs each spin ≈ 2 ms (or the
    /// crew's fastest measured hand-off, if that is longer) put at least
    /// one job on a helper from the second such round on. The first may
    /// run serially: the round before it set its rule.
    #[test]
    fn helpers_come_back_one_round_after_the_jobs_outlast_a_hand_off() {
        const SHORT: usize = 32;
        const LONG: usize = 4;
        let (seen, engine) = within_deadline(|| {
            let engine = thread::current().id();
            let spin = Mutex::new(Duration::ZERO);
            let seen = Mutex::new(Vec::new());
            let work = |_: usize, _: usize, step: usize, _: &[f64], partial: &mut [f64]| {
                seen.lock().push((step, thread::current().id()));
                let (spin, started) = (*spin.lock(), Instant::now());
                while started.elapsed() < spin {
                    std::hint::spin_loop();
                }
                partial[0] = step as f64;
                Some(1)
            };
            thread::scope(|scope| {
                let crew = Crew::spawn(scope, (2, 4), 8, Aggregation::Sum, &work).expect("threads");
                let model = Arc::new(vec![0.0]);
                for step in 0..SHORT + LONG {
                    if step == SHORT {
                        let handoff = crew.shared.board.lock().handoff.unwrap_or_default();
                        *spin.lock() = handoff.max(Duration::from_millis(2));
                    }
                    round_of(&crew, &[true; 2], step, &model);
                }
            });
            (seen.into_inner(), engine)
        });
        for step in SHORT + 1..SHORT + LONG {
            assert!(
                seen.iter().any(|&(at, id)| at == step && id != engine),
                "round {step}: every job of ≈ 2 ms ran on the engine's thread"
            );
        }
    }

    /// After its first round a crew computes into the buffers it already
    /// has: on a model of four chunks, the spares it holds after every
    /// settled round are the very `Vec`s it held after the first, one
    /// per job, and every later job computed into one of them. Ballast
    /// allocated after each round and held to the end would take any
    /// buffer the crew freed, so a crew that freed and reallocated its
    /// partials would show new addresses.
    #[test]
    fn after_its_first_round_a_crew_allocates_no_partial_buffer() {
        within_deadline(|| {
            const JOBS: usize = 3 * 2;
            let len = 4 * crate::layout::CHUNK_WORDS;
            let seen = Mutex::new(Vec::new());
            let work =
                |_: usize, thread: usize, step: usize, model: &[f64], partial: &mut [f64]| {
                    seen.lock().push((step, partial.as_ptr() as usize));
                    partial.copy_from_slice(model);
                    partial[0] += thread as f64;
                    Some(1)
                };
            let mut ballast = Vec::new();
            let held = thread::scope(|scope| {
                let mut crew = Crew::spawn(scope, (3, 2), 3 * 2, Aggregation::Average, &work)
                    .expect("threads");
                let spares = |crew: &Crew<'_>| {
                    let mut at: Vec<usize> = crew
                        .shared
                        .board
                        .lock()
                        .spares
                        .iter()
                        .map(|s| s.as_ptr() as usize)
                        .collect();
                    at.sort();
                    at
                };
                let mut held = Vec::new();
                for step in 0..8 {
                    let model = Arc::new(vec![step as f64; len]);
                    let partials = round_of(&crew, &[true; 3], step, &model);
                    let mut spent: Vec<Vec<f64>> =
                        partials.into_iter().flatten().map(|p| p.0).collect();
                    crew.settle(&model, &mut spent);
                    held.push(spares(&crew));
                    ballast.extend((0..JOBS).map(|_| vec![1.0; len]));
                }
                held
            });
            assert_eq!(held[0].len(), JOBS, "one spare per job");
            for (step, at) in held.iter().enumerate() {
                assert_eq!(*at, held[0], "the crew's spares changed at step {step}");
            }
            for (step, at) in seen.into_inner() {
                assert!(held[0].contains(&at), "step {step} computed into a new buffer");
            }
            drop(ballast);
        });
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
                let real = std::mem::replace(&mut eng.work, Box::new(|_, _, _, _, _| None));
                eng.work =
                    Box::new(move |node, thread, step, model: &[f64], partial: &mut [f64]| {
                        assert!((node, thread, step) != (3, bomb_thread, 2), "planted panic");
                        real(node, thread, step, model, partial)
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
