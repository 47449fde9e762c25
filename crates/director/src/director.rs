//! The deterministic virtual-clock event loop multiplexing jobs onto
//! the cluster — now crash-consistent.
//!
//! Six event sources drive the loop: job arrivals (from the seeded
//! plan), per-job round completions (priced by [`ExecModel`]),
//! elastic-scaler ticks, control-plane faults (from the seeded
//! [`DirectorFaultPlan`]), slab repairs, and poison-retry backoffs.
//! The loop always advances to the earliest pending event time and
//! processes the phases in a fixed order — arrivals, backoff resumes,
//! completions, faults, repairs, reallocation, admission — breaking
//! every tie by ascending job id, so a run is a pure function of
//! (config, arrival plan, fault plan) and its telemetry exports are
//! byte-identical per seed.
//!
//! ## Crash consistency
//!
//! Every decision is appended to a checksummed write-ahead
//! [`Journal`] *before* it takes effect. Because the loop is
//! deterministic, [`Director::recover`] rebuilds a dead director by
//! re-running the loop with a *replay cursor*: each re-derived
//! decision is verified against the journaled record (a mismatch is
//! the typed [`DirectorError::JournalDiverged`]), and when the cursor
//! drains the director switches seamlessly to live appending. The
//! recovered run's journal, report, and telemetry exports are
//! byte-identical to an unkilled run's, no matter where the kill
//! landed — torn final records are detected by checksum and rolled
//! back first.
//!
//! Resize semantics: a reallocation lands at a round boundary — the
//! job's in-flight round restarts on the new grant (checkpoint-replay
//! hands the model state over, see [`crate::proof`] for why the math
//! is unaffected), so the cost of a resize is at most one round of
//! lost progress plus the schedule rebuild, which the shared cache
//! makes cheap.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cosmic_collectives::CacheStats;
use cosmic_runtime::RetryPolicy;
use cosmic_sim::{DirectorFaultKind, DirectorFaultPlan, JobArrivalPlan};
use cosmic_telemetry::{counters, Layer, TraceSink};

use crate::carve::{CarveOut, ClusterLedger};
use crate::checkpoints::JobCheckpointStore;
use crate::error::DirectorError;
use crate::exec::{self, ExecModel};
use crate::job::JobSpec;
use crate::journal::{Decision, DecodeTail, Journal, Record, ShedReason};
use crate::policy::{FairnessPolicy, RunningView};
use crate::scaler::ElasticScaler;
use crate::stats::{jain_index, percentile};

/// Director-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectorConfig {
    /// Physical cluster size.
    pub cluster_nodes: usize,
    /// The fairness policy arbitrating nodes.
    pub policy: FairnessPolicy,
    /// Elastic-scaler tick interval (virtual seconds).
    pub scaler_interval_s: f64,
    /// Bound on the shared cross-job schedule cache.
    pub cache_capacity: usize,
    /// Bound on the admission queue; arrivals past it are shed.
    pub max_queue: usize,
    /// Retry budget and backoff for failed checkpoint replays; a job
    /// that exhausts it is quarantined.
    pub retry: RetryPolicy,
    /// Checkpoint cadence in completed rounds (a crash rolls the job
    /// back to the last multiple).
    pub checkpoint_every_rounds: usize,
}

impl Default for DirectorConfig {
    fn default() -> Self {
        DirectorConfig {
            cluster_nodes: 1024,
            policy: FairnessPolicy::WeightedMaxMin,
            scaler_interval_s: 0.25,
            cache_capacity: 64,
            max_queue: 1024,
            retry: RetryPolicy::default(),
            checkpoint_every_rounds: 8,
        }
    }
}

/// One finished job's lifecycle record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: usize,
    /// Display name.
    pub name: String,
    /// Submission time.
    pub arrival_s: f64,
    /// First admission time.
    pub admitted_s: f64,
    /// Completion time.
    pub completed_s: f64,
    /// Seconds spent queued before admission (summed across restarts).
    pub queue_wait_s: f64,
    /// Job completion time (completion − arrival).
    pub jct_s: f64,
    /// JCT divided by the job's ideal solo-full-width JCT (≥ 1 up to
    /// model error).
    pub slowdown: f64,
    /// Physical nodes held at completion.
    pub final_nodes: usize,
    /// Nodes granted over the job's lifetime (admissions + grows).
    pub granted_nodes: usize,
    /// Nodes taken from the job by elastic shrinks, slab losses, and
    /// crashes (everything held at a crash is lost).
    pub preempted_nodes: usize,
    /// Elastic resizes applied to the job (slab shrinks included).
    pub reallocations: usize,
    /// Aggregation rounds completed (checkpoint-resumed rounds count
    /// once).
    pub rounds: usize,
    /// Training records the job processed (records × epochs) — the
    /// goodput numerator.
    pub trained_records: usize,
    /// The job's SLA deadline, if it carried one.
    pub deadline_s: Option<f64>,
    /// Whether it completed by the deadline (`None` without one).
    pub deadline_met: Option<bool>,
    /// Whole-job crashes the job recovered from.
    pub restarts: usize,
}

/// One quarantined job's retry accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The quarantined job.
    pub job: usize,
    /// Checkpoint-replay attempts made after its crash.
    pub replay_attempts: u32,
    /// Node-grants consumed by those attempts (one per attempt, never
    /// more than the retry budget).
    pub grants_burned: usize,
}

/// The outcome of one director run.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectorReport {
    /// The policy that produced this schedule.
    pub policy: FairnessPolicy,
    /// Cluster size.
    pub cluster_nodes: usize,
    /// Completed jobs, ascending id.
    pub jobs: Vec<JobRecord>,
    /// Jobs rejected at admission, with reasons.
    pub rejected: Vec<(usize, String)>,
    /// Jobs shed by overload control, with reason labels, in shed
    /// order.
    pub shed: Vec<(usize, String)>,
    /// Jobs quarantined after exhausting their replay budget.
    pub quarantined: Vec<QuarantineRecord>,
    /// Completed jobs that met their SLA deadline.
    pub deadline_hits: usize,
    /// Completed jobs that finished past their SLA deadline.
    pub deadline_misses: usize,
    /// Virtual time of the last completion.
    pub makespan_s: f64,
    /// Median job completion time.
    pub p50_jct_s: f64,
    /// 99th-percentile job completion time.
    pub p99_jct_s: f64,
    /// Jain's fairness index over per-job `1/slowdown`.
    pub jain: f64,
    /// Aggregate goodput: training records of *completed* jobs
    /// processed per virtual second of makespan (shed, quarantined,
    /// and rejected work counts for nothing).
    pub goodput_records_per_s: f64,
    /// Legacy aggregate rate: completed rounds per second of makespan.
    pub aggregate_records_per_s: f64,
    /// Shared schedule-cache totals.
    pub cache: CacheStats,
    /// Outer event-loop iterations.
    pub events: u64,
}

/// What recovery found on the way back up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Complete journal records replayed and verified.
    pub replayed_records: u64,
    /// Torn tail bytes rolled back (0 for a clean journal).
    pub torn_bytes: usize,
    /// Jobs in the handed-over checkpoint store (integrity-verified).
    pub checkpointed_jobs: usize,
}

/// A director run plus its durable state: the decision journal and
/// the checkpoint store as serialized bytes, ready to hand to
/// [`Director::recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct DirectorRun {
    /// The run's report.
    pub report: DirectorReport,
    /// The full encoded decision journal.
    pub journal: Vec<u8>,
    /// The encoded checkpoint store at run end.
    pub checkpoints: Vec<u8>,
    /// Set when this run recovered from a journal (see
    /// [`Director::recover`]); `None` for a fresh run.
    pub recovery: Option<RecoveryStats>,
}

#[derive(Debug, Clone)]
struct QueuedJob {
    spec: JobSpec,
    deadline_s: Option<f64>,
    ideal_jct_s: f64,
    resume_rounds: usize,
    attempt: u32,
    restarts: usize,
    queued_since_s: f64,
    wait_so_far_s: f64,
    first_admitted_s: Option<f64>,
    granted_nodes: usize,
    preempted_nodes: usize,
    reallocations: usize,
}

#[derive(Debug)]
struct Running {
    spec: JobSpec,
    carve: CarveOut,
    deadline_s: Option<f64>,
    admitted_s: f64,
    queue_wait_s: f64,
    rounds_done: usize,
    round_cost_s: f64,
    next_done_s: f64,
    ideal_jct_s: f64,
    granted_nodes: usize,
    preempted_nodes: usize,
    reallocations: usize,
    restarts: usize,
    attempt: u32,
}

#[derive(Debug, Default)]
struct Totals {
    submitted: u64,
    admitted: u64,
    completed: u64,
    queue_wait_s: f64,
    grants: u64,
    preemptions: u64,
    reallocations: u64,
    shed: u64,
    quarantined: u64,
    crashes: u64,
    slabs: u64,
    slab_repairs: u64,
    restarts: u64,
    poison_retries: u64,
    deadline_hits: u64,
    deadline_misses: u64,
}

/// Journal records decoded from a dead director, verified against the
/// re-derived decisions one by one during recovery replay.
#[derive(Debug)]
struct ReplayCursor {
    records: Vec<Record>,
    at: usize,
}

/// The multi-tenant job director.
#[derive(Debug)]
pub struct Director<'a> {
    cfg: &'a DirectorConfig,
    sink: &'a TraceSink,
    faults: &'a DirectorFaultPlan,
    exec: ExecModel,
    scaler: ElasticScaler,
    ledger: ClusterLedger,
    arrivals: VecDeque<JobSpec>,
    queue: VecDeque<QueuedJob>,
    running: BTreeMap<usize, Running>,
    finished: BTreeMap<usize, JobRecord>,
    rejected: Vec<(usize, String)>,
    shed: Vec<(usize, String)>,
    quarantined: Vec<QuarantineRecord>,
    checkpoints: JobCheckpointStore,
    journal: Journal,
    replay: Option<ReplayCursor>,
    fault_at: usize,
    /// Pending slab repairs: (due time, lo, len).
    repairs: Vec<(f64, usize, usize)>,
    /// Jobs sitting out a poison-retry backoff: job → (due, state).
    backoffs: BTreeMap<usize, (f64, QueuedJob)>,
    /// The DSL texts admission has seen parse.
    parsed: BTreeSet<String>,
    /// Scratch: the jobs whose round completes at `now`.
    due: Vec<usize>,
    totals: Totals,
    now: f64,
    events: u64,
}

/// Hard cap on outer-loop iterations; hitting it means the loop
/// stopped making progress (a bug surfaced as [`DirectorError::Stalled`]).
const EVENT_CAP: u64 = 10_000_000;

/// Folds a candidate event time into the running minimum.
fn fold_min(next: &mut Option<f64>, t: f64) {
    match *next {
        Some(n) if n <= t => {}
        _ => *next = Some(t),
    }
}

impl<'a> Director<'a> {
    /// Runs `plan` under `cfg` without faults, booking spans and
    /// counters into `sink` under [`Layer::Director`].
    pub fn run(
        cfg: &DirectorConfig,
        plan: &JobArrivalPlan,
        sink: &TraceSink,
    ) -> Result<DirectorReport, DirectorError> {
        let faults = DirectorFaultPlan::none();
        Ok(Director::run_journaled(cfg, plan, &faults, sink)?.report)
    }

    /// Runs `plan` under `cfg` against `faults`, returning the report
    /// together with the run's durable state (journal + checkpoints).
    pub fn run_journaled(
        cfg: &'a DirectorConfig,
        plan: &JobArrivalPlan,
        faults: &'a DirectorFaultPlan,
        sink: &'a TraceSink,
    ) -> Result<DirectorRun, DirectorError> {
        Self::new_instance(cfg, plan, faults, sink).execute()
    }

    /// Rebuilds a killed director from its durable state and runs it
    /// to completion. The journal's complete records are replayed by
    /// re-running the deterministic event loop and verifying every
    /// re-derived decision against the journal (a mismatch means the
    /// journal belongs to a different (config, plan, faults) triple
    /// and is the typed [`DirectorError::JournalDiverged`]); a torn
    /// final record is rolled back by checksum. The handed-over
    /// checkpoint store is integrity-verified — corruption surfaces
    /// as [`DirectorError::RecoveryFailed`] — and the recovered run's
    /// report, journal, and telemetry exports are byte-identical to
    /// an unkilled run's.
    pub fn recover(
        cfg: &'a DirectorConfig,
        plan: &JobArrivalPlan,
        faults: &'a DirectorFaultPlan,
        journal_bytes: &[u8],
        checkpoint_bytes: &[u8],
        sink: &'a TraceSink,
    ) -> Result<DirectorRun, DirectorError> {
        let (records, tail) = Journal::decode(journal_bytes)?;
        let store = JobCheckpointStore::from_bytes(checkpoint_bytes)?;
        let torn_bytes = match tail {
            DecodeTail::Clean => 0,
            DecodeTail::Torn { valid_bytes } => journal_bytes.len() - valid_bytes,
        };
        let stats = RecoveryStats {
            replayed_records: records.len() as u64,
            torn_bytes,
            checkpointed_jobs: store.len(),
        };
        let mut d = Self::new_instance(cfg, plan, faults, sink);
        d.replay = Some(ReplayCursor { records, at: 0 });
        // Scheduling-dependent by construction (the kill point moves),
        // so diagnostic: excluded from exports to keep the recovered
        // run's metrics byte-identical to the unkilled run's.
        sink.add_diagnostic(counters::DIRECTOR_RECOVERY_REPLAYED, stats.replayed_records as f64);
        sink.add_diagnostic(counters::DIRECTOR_RECOVERY_TORN_BYTES, stats.torn_bytes as f64);
        let mut run = d.execute()?;
        run.recovery = Some(stats);
        Ok(run)
    }

    fn new_instance(
        cfg: &'a DirectorConfig,
        plan: &JobArrivalPlan,
        faults: &'a DirectorFaultPlan,
        sink: &'a TraceSink,
    ) -> Self {
        Director {
            cfg,
            sink,
            faults,
            exec: ExecModel::new(cfg.cache_capacity),
            scaler: ElasticScaler::new(cfg.scaler_interval_s),
            ledger: ClusterLedger::new(cfg.cluster_nodes),
            arrivals: plan.jobs.iter().map(JobSpec::from_arrival).collect(),
            queue: VecDeque::new(),
            running: BTreeMap::new(),
            finished: BTreeMap::new(),
            rejected: Vec::new(),
            shed: Vec::new(),
            quarantined: Vec::new(),
            checkpoints: JobCheckpointStore::new(),
            journal: Journal::new(),
            replay: None,
            fault_at: 0,
            repairs: Vec::new(),
            backoffs: BTreeMap::new(),
            parsed: BTreeSet::new(),
            due: Vec::new(),
            totals: Totals::default(),
            now: 0.0,
            events: 0,
        }
    }

    fn execute(mut self) -> Result<DirectorRun, DirectorError> {
        let span = self.sink.span(Layer::Director, "director.run");
        span.arg("policy", self.cfg.policy.label());
        span.arg("cluster_nodes", &self.cfg.cluster_nodes.to_string());
        span.arg("jobs", &self.arrivals.len().to_string());
        self.event_loop()?;
        let report = self.report();
        self.sink.set_time(report.makespan_s);
        drop(span);
        self.book_counters();
        Ok(DirectorRun {
            report,
            journal: self.journal.into_bytes(),
            checkpoints: self.checkpoints.to_bytes(),
            recovery: None,
        })
    }

    /// Appends a decision to the write-ahead journal *before* the
    /// caller applies it. During recovery the decision is first
    /// verified against the replayed journal; once the cursor drains,
    /// appending continues live — so a recovered run's journal equals
    /// the unkilled run's.
    fn decide(&mut self, decision: Decision) -> Result<(), DirectorError> {
        let record = Record { event: self.events, at_s: self.now, decision };
        if let Some(cursor) = &mut self.replay {
            if cursor.at < cursor.records.len() {
                let expected = &cursor.records[cursor.at];
                if *expected != record {
                    return Err(DirectorError::JournalDiverged {
                        record: cursor.at as u64,
                        expected: format!("{expected:?}"),
                        got: format!("{record:?}"),
                    });
                }
                cursor.at += 1;
            } else {
                self.replay = None;
            }
        }
        self.journal.append(&record);
        Ok(())
    }

    /// Ledger conservation audit after every mutation burst, debug
    /// builds only (release runs skip the O(nodes) sweep).
    fn debug_audit(&self) -> Result<(), DirectorError> {
        #[cfg(debug_assertions)]
        self.ledger.audit()?;
        Ok(())
    }

    fn event_loop(&mut self) -> Result<(), DirectorError> {
        while let Some(t) = self.next_event_time() {
            self.now = t;
            self.sink.set_time(t);
            self.absorb_arrivals()?;
            self.resume_backoffs();
            self.complete_rounds()?;
            self.apply_faults()?;
            self.apply_repairs()?;
            if self.cfg.policy.is_elastic()
                && !self.running.is_empty()
                && t >= self.scaler.next_tick_s()
            {
                self.reallocate()?;
                self.scaler.advance_past(t);
                self.debug_audit()?;
            }
            self.admit()?;
            self.events += 1;
            if self.events > EVENT_CAP {
                break;
            }
        }
        self.ledger.audit()?;
        if !(self.queue.is_empty() && self.running.is_empty() && self.backoffs.is_empty()) {
            return Err(DirectorError::Stalled {
                queued: self.queue.len() + self.backoffs.len(),
                running: self.running.len(),
            });
        }
        if let Some(cursor) = &self.replay {
            if cursor.at < cursor.records.len() {
                return Err(DirectorError::JournalCorrupt {
                    detail: format!(
                        "{} journaled records were never re-derived by replay",
                        cursor.records.len() - cursor.at
                    ),
                });
            }
        }
        Ok(())
    }

    /// The earliest pending event across all six sources. Times from
    /// sources that can lag `now` (tick grid, fault schedule, repair
    /// and backoff queues) are clamped so virtual time stays monotone.
    fn next_event_time(&self) -> Option<f64> {
        let mut next: Option<f64> = None;
        if let Some(s) = self.arrivals.front() {
            fold_min(&mut next, s.arrival_s);
        }
        if let Some(done) = self.running.values().map(|r| r.next_done_s).min_by(f64::total_cmp) {
            fold_min(&mut next, done);
        }
        if self.cfg.policy.is_elastic() && !self.running.is_empty() {
            fold_min(&mut next, self.scaler.next_tick_s().max(self.now));
        }
        if let Some(e) = self.faults.events.get(self.fault_at) {
            fold_min(&mut next, e.at_s.max(self.now));
        }
        if let Some(t) = self.repairs.iter().map(|r| r.0).min_by(f64::total_cmp) {
            fold_min(&mut next, t.max(self.now));
        }
        if let Some(t) = self.backoffs.values().map(|b| b.0).min_by(f64::total_cmp) {
            fold_min(&mut next, t.max(self.now));
        }
        next
    }

    /// The ideal solo JCT: every logical slot funded, empty cluster.
    fn ideal_jct_s(&mut self, spec: &JobSpec) -> Result<f64, DirectorError> {
        let full: Vec<usize> = (0..spec.max_nodes).collect();
        let reference = CarveOut::new(spec.id, spec.max_nodes, &full)?;
        Ok(spec.total_rounds() as f64 * self.exec.round_cost_s(spec, &reference)?)
    }

    /// Node-seconds of work still owed to running jobs.
    fn running_backlog_node_s(&self) -> f64 {
        self.running
            .values()
            .map(|r| {
                let remaining = r.spec.total_rounds().saturating_sub(r.rounds_done) as f64;
                remaining * r.round_cost_s * r.carve.live() as f64
            })
            .sum()
    }

    /// Lower bound on a queued job's remaining compute (node-seconds):
    /// pure per-round compute, no network or management — so a
    /// deadline declared unreachable against it really is unreachable.
    fn queued_work_node_s(&self, q: &QueuedJob) -> f64 {
        let remaining = q.spec.total_rounds().saturating_sub(q.resume_rounds) as f64;
        remaining * q.spec.minibatch as f64 / exec::NODE.records_per_sec
    }

    /// Whether a deadline is provably unreachable given the backlog
    /// estimate ahead of the job.
    fn doomed(&self, deadline_s: f64, backlog_node_s: f64, ideal_jct_s: f64) -> bool {
        self.now + backlog_node_s / self.cfg.cluster_nodes as f64 + ideal_jct_s > deadline_s
    }

    fn absorb_arrivals(&mut self) -> Result<(), DirectorError> {
        while self.arrivals.front().is_some_and(|s| s.arrival_s <= self.now) {
            let Some(spec) = self.arrivals.pop_front() else { break };
            self.totals.submitted += 1;
            self.sink.instant(Layer::Director, "director.submit");
            if let Err(e) = spec.validate_with(self.cfg.cluster_nodes, &mut self.parsed) {
                let (job, reason) = match e {
                    DirectorError::InvalidJob { job, reason } => (job, reason),
                    other => (spec.id, other.to_string()),
                };
                self.decide(Decision::Reject { job, reason: reason.clone() })?;
                self.rejected.push((job, reason));
                continue;
            }
            if self.queue.len() >= self.cfg.max_queue.max(1) {
                self.shed_job(spec.id, ShedReason::QueueFull)?;
                continue;
            }
            let ideal_jct_s = self.ideal_jct_s(&spec)?;
            let deadline_s = spec.sla_factor.map(|f| spec.arrival_s + f * ideal_jct_s);
            if let Some(d) = deadline_s {
                let backlog = self.running_backlog_node_s()
                    + self.queue.iter().map(|q| self.queued_work_node_s(q)).sum::<f64>();
                if self.doomed(d, backlog, ideal_jct_s) {
                    self.shed_job(spec.id, ShedReason::DeadlineUnreachable)?;
                    continue;
                }
            }
            self.decide(Decision::Submit { job: spec.id })?;
            self.queue.push_back(QueuedJob {
                deadline_s,
                ideal_jct_s,
                resume_rounds: 0,
                attempt: 0,
                restarts: 0,
                queued_since_s: self.now,
                wait_so_far_s: 0.0,
                first_admitted_s: None,
                granted_nodes: 0,
                preempted_nodes: 0,
                reallocations: 0,
                spec,
            });
        }
        Ok(())
    }

    fn shed_job(&mut self, job: usize, reason: ShedReason) -> Result<(), DirectorError> {
        self.decide(Decision::Shed { job, reason })?;
        self.totals.shed += 1;
        self.shed.push((job, reason.label().to_string()));
        self.sink.instant(Layer::Director, "director.shed");
        Ok(())
    }

    /// Requeues jobs whose poison-retry backoff has elapsed.
    fn resume_backoffs(&mut self) {
        let due: Vec<usize> = self
            .backoffs
            .iter()
            .filter(|(_, (at, _))| *at <= self.now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            if let Some((_, q)) = self.backoffs.remove(&id) {
                self.queue.push_back(q);
            }
        }
    }

    fn complete_rounds(&mut self) -> Result<(), DirectorError> {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        due.extend(
            self.running.iter().filter(|(_, r)| r.next_done_s <= self.now).map(|(&id, _)| id),
        );
        for &id in &due {
            let Some((done, total)) = self.running.get_mut(&id).map(|r| {
                r.rounds_done += 1;
                (r.rounds_done, r.spec.total_rounds())
            }) else {
                continue;
            };
            if done >= total {
                self.decide(Decision::Complete { job: id })?;
                self.finish(id);
            } else {
                if done % self.cfg.checkpoint_every_rounds.max(1) == 0 {
                    self.checkpoints.record(id, done);
                }
                if let Some(r) = self.running.get_mut(&id) {
                    r.next_done_s += r.round_cost_s;
                }
            }
        }
        self.due = due;
        Ok(())
    }

    fn finish(&mut self, id: usize) {
        let Some(r) = self.running.remove(&id) else { return };
        self.ledger.release_all(id);
        self.checkpoints.remove(id);
        let jct = self.now - r.spec.arrival_s;
        let deadline_met = r.deadline_s.map(|d| self.now <= d);
        match deadline_met {
            Some(true) => self.totals.deadline_hits += 1,
            Some(false) => self.totals.deadline_misses += 1,
            None => {}
        }
        self.totals.completed += 1;
        self.sink.instant(Layer::Director, "director.complete");
        self.finished.insert(
            id,
            JobRecord {
                id,
                name: r.spec.name.clone(),
                arrival_s: r.spec.arrival_s,
                admitted_s: r.admitted_s,
                completed_s: self.now,
                queue_wait_s: r.queue_wait_s,
                jct_s: jct,
                slowdown: if r.ideal_jct_s > 0.0 { jct / r.ideal_jct_s } else { 1.0 },
                final_nodes: r.carve.live(),
                granted_nodes: r.granted_nodes,
                preempted_nodes: r.preempted_nodes,
                reallocations: r.reallocations,
                rounds: r.rounds_done,
                trained_records: r.spec.records * r.spec.epochs,
                deadline_s: r.deadline_s,
                deadline_met,
                restarts: r.restarts,
            },
        );
    }

    fn apply_faults(&mut self) -> Result<(), DirectorError> {
        while let Some(e) = self.faults.events.get(self.fault_at) {
            if e.at_s > self.now {
                break;
            }
            let kind = e.kind;
            self.fault_at += 1;
            match kind {
                DirectorFaultKind::JobCrash { job } => self.crash_job(job)?,
                DirectorFaultKind::SlabFailure { lo, len, repair_s } => {
                    self.slab_failure(lo, len, repair_s)?;
                }
            }
            self.debug_audit()?;
        }
        Ok(())
    }

    /// Loses `job`'s whole carve-out: the job rolls back to its last
    /// checkpoint and re-enters admission. A no-op (not journaled) if
    /// the job is not running.
    fn crash_job(&mut self, job: usize) -> Result<(), DirectorError> {
        if !self.running.contains_key(&job) {
            return Ok(());
        }
        let rollback = self.checkpoints.rounds_for(job);
        self.decide(Decision::Crash { job, rollback_rounds: rollback })?;
        let Some(r) = self.running.remove(&job) else { return Ok(()) };
        let lost = r.carve.live();
        self.ledger.release_all(job);
        self.totals.crashes += 1;
        self.sink.instant(Layer::Director, "director.crash");
        self.queue.push_back(QueuedJob {
            deadline_s: r.deadline_s,
            ideal_jct_s: r.ideal_jct_s,
            resume_rounds: rollback,
            attempt: r.attempt,
            restarts: r.restarts + 1,
            queued_since_s: self.now,
            wait_so_far_s: r.queue_wait_s,
            first_admitted_s: Some(r.admitted_s),
            granted_nodes: r.granted_nodes,
            preempted_nodes: r.preempted_nodes + lost,
            reallocations: r.reallocations,
            spec: r.spec,
        });
        Ok(())
    }

    /// A contiguous node range dies: every overlapping carve shrinks
    /// by its share (jobs losing every live slot crash instead), the
    /// nodes leave service, and a repair is scheduled.
    fn slab_failure(&mut self, lo: usize, len: usize, repair_s: f64) -> Result<(), DirectorError> {
        let hi = lo.saturating_add(len).min(self.cfg.cluster_nodes);
        let lo = lo.min(hi);
        if lo >= hi {
            return Ok(());
        }
        self.decide(Decision::Slab { lo, len: hi - lo })?;
        self.totals.slabs += 1;
        self.sink.instant(Layer::Director, "director.slab");
        let ids: Vec<usize> = self.running.keys().copied().collect();
        for job in ids {
            let Some((overlap, live)) = self.running.get(&job).map(|r| {
                let overlap: Vec<usize> =
                    r.carve.physical_nodes().into_iter().filter(|&n| n >= lo && n < hi).collect();
                (overlap, r.carve.live())
            }) else {
                continue;
            };
            if overlap.is_empty() {
                continue;
            }
            if overlap.len() >= live {
                self.crash_job(job)?;
                continue;
            }
            self.decide(Decision::Shrink { job, nodes: overlap.clone() })?;
            let Some(r) = self.running.get_mut(&job) else { continue };
            let released = r.carve.defund_nodes(&overlap)?;
            self.ledger.release(job, &released)?;
            let n = released.len();
            self.totals.preemptions += n as u64;
            r.preempted_nodes += n;
            r.reallocations += 1;
            r.round_cost_s = self.exec.round_cost_s(&r.spec, &r.carve)?;
            r.next_done_s = self.now + r.round_cost_s;
            self.sink.instant(Layer::Director, "director.slab_shrink");
        }
        let range: Vec<usize> = (lo..hi).collect();
        self.ledger.retire(&range)?;
        self.repairs.push((self.now + repair_s.max(0.0), lo, hi - lo));
        Ok(())
    }

    fn apply_repairs(&mut self) -> Result<(), DirectorError> {
        loop {
            let due = self
                .repairs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.0 <= self.now)
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let (_, lo, len) = self.repairs.remove(i);
            self.decide(Decision::SlabRepair { lo, len })?;
            let range: Vec<usize> = (lo..lo + len).collect();
            self.ledger.restore(&range);
            self.totals.slab_repairs += 1;
            self.sink.instant(Layer::Director, "director.slab_repair");
            self.debug_audit()?;
        }
        Ok(())
    }

    fn reallocate(&mut self) -> Result<(), DirectorError> {
        let views: Vec<RunningView<'_>> = self
            .running
            .values()
            .map(|r| RunningView { spec: &r.spec, current: r.carve.live() })
            .collect();
        let queued_min_demand: usize = self.queue.iter().map(|q| q.spec.min_nodes).sum();
        let ops = self.scaler.plan(
            self.cfg.policy,
            &views,
            queued_min_demand,
            self.cfg.cluster_nodes,
            &self.exec,
        );
        drop(views);
        for op in ops {
            let resized = if op.delta < 0 {
                self.apply_shrink(op.job, op.delta.unsigned_abs() as usize)?
            } else {
                self.apply_grow(op.job, op.delta as usize)?
            };
            if resized {
                self.totals.reallocations += 1;
                let Some(r) = self.running.get_mut(&op.job) else { continue };
                r.reallocations += 1;
                r.round_cost_s = self.exec.round_cost_s(&r.spec, &r.carve)?;
                r.next_done_s = self.now + r.round_cost_s;
                self.sink.instant(Layer::Director, "director.reallocate");
            }
        }
        Ok(())
    }

    fn apply_shrink(&mut self, job: usize, count: usize) -> Result<bool, DirectorError> {
        let Some(victims) = self.running.get(&job).map(|r| r.carve.shrink_victims(count)) else {
            return Ok(false);
        };
        if victims.is_empty() {
            return Ok(false);
        }
        self.decide(Decision::Shrink { job, nodes: victims.clone() })?;
        let Some(r) = self.running.get_mut(&job) else { return Ok(false) };
        let released = r.carve.shrink(victims.len())?;
        debug_assert_eq!(released, victims);
        self.ledger.release(job, &released)?;
        let n = released.len();
        self.totals.preemptions += n as u64;
        r.preempted_nodes += n;
        Ok(n > 0)
    }

    fn apply_grow(&mut self, job: usize, count: usize) -> Result<bool, DirectorError> {
        let Some(planned) = self.running.get(&job).map(|r| {
            let peek = self.ledger.peek_grant(count);
            let room = r.carve.width().saturating_sub(r.carve.live());
            peek[..peek.len().min(room)].to_vec()
        }) else {
            return Ok(false);
        };
        if planned.is_empty() {
            return Ok(false);
        }
        self.decide(Decision::Grow { job, nodes: planned.clone() })?;
        let grant = self.ledger.grant(job, planned.len());
        debug_assert_eq!(grant, planned);
        let Some(r) = self.running.get_mut(&job) else { return Ok(false) };
        let absorbed = r.carve.grow(&grant)?;
        debug_assert_eq!(absorbed.len(), grant.len());
        let n = absorbed.len();
        self.totals.grants += n as u64;
        r.granted_nodes += n;
        Ok(n > 0)
    }

    /// Sweeps the queue for jobs whose deadline has become provably
    /// unreachable and sheds them, accumulating the work estimate of
    /// everything kept ahead of each candidate.
    fn shed_unreachable(&mut self) -> Result<(), DirectorError> {
        if self.queue.iter().all(|q| q.deadline_s.is_none()) {
            return Ok(());
        }
        let mut backlog = self.running_backlog_node_s();
        let queue = std::mem::take(&mut self.queue);
        for q in queue {
            let doomed = q.deadline_s.is_some_and(|d| self.doomed(d, backlog, q.ideal_jct_s));
            if doomed {
                self.shed_job(q.spec.id, ShedReason::DeadlineUnreachable)?;
            } else {
                backlog += self.queued_work_node_s(&q);
                self.queue.push_back(q);
            }
        }
        Ok(())
    }

    fn admit(&mut self) -> Result<(), DirectorError> {
        self.shed_unreachable()?;
        match self.cfg.policy {
            // Strict FIFO: only the head of the line may be admitted.
            FairnessPolicy::StrictFifo => {
                while self
                    .queue
                    .front()
                    .is_some_and(|q| q.spec.min_nodes <= self.ledger.free_count())
                {
                    let Some(q) = self.queue.pop_front() else { break };
                    self.admit_one(q)?;
                }
            }
            // Elastic policies backfill: any queued job that fits goes
            // in (arrival order preserved), the scaler rebalances later.
            _ => {
                let mut still_waiting = VecDeque::new();
                while let Some(q) = self.queue.pop_front() {
                    if q.spec.min_nodes <= self.ledger.free_count() {
                        self.admit_one(q)?;
                    } else {
                        still_waiting.push_back(q);
                    }
                }
                self.queue = still_waiting;
            }
        }
        Ok(())
    }

    fn admit_one(&mut self, q: QueuedJob) -> Result<(), DirectorError> {
        let id = q.spec.id;
        let want = q.spec.max_nodes.min(self.ledger.free_count());
        let planned = self.ledger.peek_grant(want);
        self.decide(Decision::Admit { job: id, grant: planned.clone() })?;
        let grant = self.ledger.grant(id, want);
        debug_assert_eq!(grant, planned);
        let stint_wait = (self.now - q.queued_since_s).max(0.0);
        let wait = q.wait_so_far_s + stint_wait;
        self.totals.admitted += 1;
        self.totals.queue_wait_s += stint_wait;
        self.totals.grants += grant.len() as u64;
        self.sink.instant(Layer::Director, "director.admit");
        if q.restarts > 0 {
            // A restart replays the job's checkpoint onto the fresh
            // grant. Poison jobs fail that replay every time.
            if self.faults.is_poison(id) {
                return self.poison_retry(q, &grant, wait);
            }
            self.decide(Decision::Restart { job: id, rounds: q.resume_rounds })?;
            self.totals.restarts += 1;
            self.sink.instant(Layer::Director, "director.restart");
        }
        let carve = CarveOut::new(id, q.spec.max_nodes, &grant)?;
        let round_cost_s = self.exec.round_cost_s(&q.spec, &carve)?;
        self.running.insert(
            id,
            Running {
                admitted_s: q.first_admitted_s.unwrap_or(self.now),
                queue_wait_s: wait,
                rounds_done: q.resume_rounds,
                round_cost_s,
                next_done_s: self.now + round_cost_s,
                ideal_jct_s: q.ideal_jct_s,
                deadline_s: q.deadline_s,
                granted_nodes: q.granted_nodes + grant.len(),
                preempted_nodes: q.preempted_nodes,
                reallocations: q.reallocations,
                restarts: q.restarts,
                attempt: q.attempt,
                spec: q.spec,
                carve,
            },
        );
        Ok(())
    }

    /// A failed checkpoint replay: the grant goes back, the attempt is
    /// journaled, and the job either backs off for another try or —
    /// once the retry budget is gone — is quarantined. Each attempt
    /// consumes exactly one grant, so a poison job can never burn more
    /// than `retry.max_retries` grants after its crash.
    fn poison_retry(
        &mut self,
        mut q: QueuedJob,
        grant: &[usize],
        wait: f64,
    ) -> Result<(), DirectorError> {
        let id = q.spec.id;
        let attempt = q.attempt + 1;
        self.decide(Decision::PoisonRetry { job: id, attempt })?;
        self.ledger.release(id, grant)?;
        self.totals.poison_retries += 1;
        self.sink.instant(Layer::Director, "director.poison_retry");
        q.attempt = attempt;
        q.wait_so_far_s = wait;
        if attempt >= self.cfg.retry.max_retries.max(1) {
            self.decide(Decision::Quarantine { job: id })?;
            self.checkpoints.remove(id);
            self.totals.quarantined += 1;
            self.quarantined.push(QuarantineRecord {
                job: id,
                replay_attempts: attempt,
                grants_burned: attempt as usize,
            });
            self.sink.instant(Layer::Director, "director.quarantine");
        } else {
            let due = self.now + self.cfg.retry.delay(attempt.saturating_sub(1));
            q.queued_since_s = due;
            self.backoffs.insert(id, (due, q));
        }
        Ok(())
    }

    fn book_counters(&self) {
        let s = self.sink;
        s.add(counters::DIRECTOR_JOBS_SUBMITTED, self.totals.submitted as f64);
        s.add(counters::DIRECTOR_JOBS_ADMITTED, self.totals.admitted as f64);
        s.add(counters::DIRECTOR_JOBS_COMPLETED, self.totals.completed as f64);
        s.add(counters::DIRECTOR_QUEUE_WAIT_S, self.totals.queue_wait_s);
        s.add(counters::DIRECTOR_GRANTS, self.totals.grants as f64);
        s.add(counters::DIRECTOR_PREEMPTIONS, self.totals.preemptions as f64);
        s.add(counters::DIRECTOR_REALLOCATIONS, self.totals.reallocations as f64);
        s.add(counters::DIRECTOR_JOBS_SHED, self.totals.shed as f64);
        s.add(counters::DIRECTOR_JOBS_QUARANTINED, self.totals.quarantined as f64);
        s.add(counters::DIRECTOR_JOB_CRASHES, self.totals.crashes as f64);
        s.add(counters::DIRECTOR_SLAB_FAILURES, self.totals.slabs as f64);
        s.add(counters::DIRECTOR_SLAB_REPAIRS, self.totals.slab_repairs as f64);
        s.add(counters::DIRECTOR_RESTARTS, self.totals.restarts as f64);
        s.add(counters::DIRECTOR_POISON_RETRIES, self.totals.poison_retries as f64);
        s.add(counters::DIRECTOR_JOURNAL_RECORDS, self.journal.records() as f64);
        s.add(counters::DIRECTOR_DEADLINE_HITS, self.totals.deadline_hits as f64);
        s.add(counters::DIRECTOR_DEADLINE_MISSES, self.totals.deadline_misses as f64);
        let cache = self.exec.cache_stats();
        s.add(counters::DIRECTOR_CACHE_HITS, cache.hits as f64);
        s.add(counters::DIRECTOR_CACHE_MISSES, cache.misses as f64);
        s.add(counters::DIRECTOR_CACHE_EVICTIONS, cache.evictions as f64);
    }

    fn report(&self) -> DirectorReport {
        let jobs: Vec<JobRecord> = self.finished.values().cloned().collect();
        let jcts: Vec<f64> = jobs.iter().map(|j| j.jct_s).collect();
        let shares: Vec<f64> =
            jobs.iter().map(|j| if j.slowdown > 0.0 { 1.0 / j.slowdown } else { 0.0 }).collect();
        let makespan_s = jobs.iter().map(|j| j.completed_s).max_by(f64::total_cmp).unwrap_or(0.0);
        let trained: f64 = jobs.iter().map(|j| (j.rounds as f64) * 1.0).sum::<f64>().max(0.0);
        let good_records: f64 = jobs.iter().map(|j| j.trained_records as f64).sum();
        DirectorReport {
            policy: self.cfg.policy,
            cluster_nodes: self.cfg.cluster_nodes,
            rejected: self.rejected.clone(),
            shed: self.shed.clone(),
            quarantined: self.quarantined.clone(),
            deadline_hits: self.totals.deadline_hits as usize,
            deadline_misses: self.totals.deadline_misses as usize,
            makespan_s,
            p50_jct_s: percentile(&jcts, 50.0),
            p99_jct_s: percentile(&jcts, 99.0),
            jain: jain_index(&shares),
            goodput_records_per_s: if makespan_s > 0.0 { good_records / makespan_s } else { 0.0 },
            aggregate_records_per_s: if makespan_s > 0.0 { trained / makespan_s } else { 0.0 },
            cache: self.exec.cache_stats(),
            events: self.events,
            jobs,
        }
    }
}
