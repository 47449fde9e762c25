//! The multi-process launcher: one trainer, two deployments.
//!
//! The coordinator process runs [`ClusterTrainer`]'s own engine on
//! [`JobSpec::config`]: membership and the φ-accrual detector, the
//! collective round into Sigma, the update, checkpoints and the
//! observer. Only its compute phase is elsewhere: the coordinator takes
//! each worker process's stream and answers it with the model the round
//! left. Workers (re-executions of the `cosmic-launcher` binary, one
//! `RoundSender` link each) compute by the engine's own data rule and
//! node fold, so a healthy job trains the model, and records the trace
//! and metrics, that [`ClusterTrainer::train_traced`] does.
//!
//! What is left here is deployment: spawning workers and the fault
//! schedule's SIGKILL; respawning with `--join` a worker the detector
//! expelled, its compute window held open for it; and answering a join
//! with `CheckpointStore::catch_up` (never the live model — that is the
//! bit-identity proof), which the worker acknowledges with its model's
//! checksum on the link its rounds then ride.

use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use cosmic_ml::data::{self, Dataset};
use cosmic_ml::{Aggregation, Algorithm};
use cosmic_telemetry::TraceSink;

use crate::buffer::WordBuf;
use crate::checkpoint::{model_checksum, CheckpointConfig};
use crate::engine::{Arrival, Compute, Request, Shards};
use crate::error::RuntimeError;
use crate::node::{chunk_vector, Chunk, Layout};
use crate::trainer::{ClusterConfig, ClusterTrainer, MembershipMode, RETRY};

use super::link::{Carried, WireShim};
use super::supervisor::{Reply, RoundSender, RoundServer, Served};
use super::wire::{Frame, FrameKind};
use super::{LinkConfig, TransportKind, TransportStats};

/// Everything both halves of the launcher agree on. A worker receives
/// every field but `checkpoint_every` as [`JobSpec::flags`] renders them
/// and [`JobSpec::set_flag`] parses them, so both derive identical data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Worker process count.
    pub nodes: usize,
    /// Aggregation iterations (full-batch gradient-descent steps).
    pub iterations: usize,
    /// Total dataset records (partitioned across workers).
    pub samples: usize,
    /// Dataset/model seed.
    pub seed: u64,
    /// Linear-regression feature count (model length).
    pub features: usize,
    /// Gradient-step learning rate.
    pub learning_rate: f64,
    /// Model-snapshot cadence backing join catch-up.
    pub checkpoint_every: usize,
    /// Wire deadlines.
    pub link: LinkConfig,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            nodes: 3,
            iterations: 12,
            samples: 240,
            seed: 11,
            features: 6,
            learning_rate: 0.05,
            checkpoint_every: 4,
            link: LinkConfig::default(),
        }
    }
}

impl JobSpec {
    /// The engine configuration of the job: full-batch gradient descent
    /// (one step an epoch, one epoch an iteration) with one accelerator
    /// thread per worker, φ-accrual membership, and the collective round
    /// on loopback TCP.
    pub fn config(&self) -> ClusterConfig {
        ClusterConfig {
            nodes: self.nodes,
            groups: 1,
            threads_per_node: 1,
            minibatch: self.samples.max(1),
            learning_rate: self.learning_rate,
            epochs: self.iterations,
            aggregation: Aggregation::Sum,
            membership: MembershipMode::Detector,
            checkpoint: CheckpointConfig { cadence: self.checkpoint_every.max(1) },
            transport: TransportKind::Tcp,
            link: self.link,
            ..ClusterConfig::default()
        }
    }

    /// The command-line flags a worker receives — every field but
    /// `checkpoint_every` — in the order it receives them.
    pub fn flags(&self) -> [(&'static str, String); 8] {
        [
            ("--nodes", self.nodes.to_string()),
            ("--iterations", self.iterations.to_string()),
            ("--samples", self.samples.to_string()),
            ("--seed", self.seed.to_string()),
            ("--features", self.features.to_string()),
            ("--lr", self.learning_rate.to_string()),
            ("--read-timeout-ms", self.link.read_timeout_ms.to_string()),
            ("--connect-timeout-ms", self.link.connect_timeout_ms.to_string()),
        ]
    }

    /// Sets the field `flag` names — one of [`JobSpec::flags`], or
    /// `--checkpoint-every` — from `value`. `Ok(false)` when `flag`
    /// names no field; a value that does not parse is an error.
    pub fn set_flag(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            value.parse().map_err(|e| format!("{flag} {value}: {e}"))
        }
        match flag {
            "--nodes" => self.nodes = parse(flag, value)?,
            "--iterations" => self.iterations = parse(flag, value)?,
            "--samples" => self.samples = parse(flag, value)?,
            "--seed" => self.seed = parse(flag, value)?,
            "--features" => self.features = parse(flag, value)?,
            "--lr" => self.learning_rate = parse(flag, value)?,
            "--checkpoint-every" => self.checkpoint_every = parse(flag, value)?,
            "--read-timeout-ms" => self.link.read_timeout_ms = parse(flag, value)?,
            "--connect-timeout-ms" => self.link.connect_timeout_ms = parse(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The job's algorithm.
    pub fn algorithm(&self) -> Algorithm {
        Algorithm::LinearRegression { features: self.features }
    }

    /// The shared initial model every process derives independently.
    pub fn initial_model(&self) -> Vec<f64> {
        data::init_model(&self.algorithm(), self.seed)
    }

    /// The whole dataset, derived identically in every process from the
    /// seed alone; the engine's data rule shards it.
    pub fn dataset(&self) -> Dataset {
        data::generate(&self.algorithm(), self.samples, self.seed)
    }
}

/// What the coordinator run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LaunchSummary {
    /// Iterations that applied an update.
    pub iterations: usize,
    /// FNV-1a checksum of the coordinator's final model.
    pub final_checksum: u64,
    /// Workers that reported a final checksum.
    pub workers_reported: usize,
    /// Of those, workers whose final model matched bit for bit.
    pub workers_matched: usize,
    /// `(node, iteration)` kills injected by the failure schedule.
    pub kills: Vec<(usize, usize)>,
    /// `(node, iteration)` detector expulsions.
    pub expulsions: Vec<(usize, usize)>,
    /// `(node, iteration, checksum_matched)` join handshakes completed.
    pub rejoins: Vec<(usize, usize, bool)>,
    /// The worker links' accounting over the whole run, seen from the
    /// coordinator.
    pub stats: TransportStats,
}

impl LaunchSummary {
    /// One-line JSON for the driving test or shell.
    pub fn to_json(&self) -> String {
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let pairs =
            |v: &[(usize, usize)]| list(v.iter().map(|(n, i)| format!("[{n},{i}]")).collect());
        let rejoins = self.rejoins.iter().map(|(n, i, m)| format!("[{n},{i},{m}]")).collect();
        let s = &self.stats;
        let fields = [
            ("iterations", self.iterations.to_string()),
            ("final_checksum", format!("\"{:#018x}\"", self.final_checksum)),
            ("workers_reported", self.workers_reported.to_string()),
            ("workers_matched", self.workers_matched.to_string()),
            ("kills", pairs(&self.kills)),
            ("expulsions", pairs(&self.expulsions)),
            ("rejoins", list(rejoins)),
            ("frames_sent", s.frames_sent.to_string()),
            ("frames_received", s.frames_received.to_string()),
            ("bytes_sent", s.bytes_sent.to_string()),
            ("bytes_received", s.bytes_received.to_string()),
            ("heartbeats", s.heartbeats.to_string()),
            ("reconnects", s.reconnects.to_string()),
            ("links_dead", s.links_dead.to_string()),
            ("connections", s.connections.to_string()),
        ];
        let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The coordinator: the engine, with worker processes for its compute
/// phase.
pub struct Coordinator {
    spec: JobSpec,
    server: RoundServer,
    /// Kill `node` right before `iteration` (the fault schedule).
    pub kill: Option<(usize, usize)>,
}

impl Coordinator {
    /// Binds the listener the workers dial.
    pub fn bind(spec: JobSpec) -> Result<Self, RuntimeError> {
        let server = RoundServer::bind(spec.link)?;
        Ok(Coordinator { spec, server, kill: None })
    }

    /// The endpoint workers dial.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Runs the whole job: spawn the workers, train through the engine,
    /// collect the workers' final checksums.
    pub fn run(&mut self) -> Result<LaunchSummary, RuntimeError> {
        self.run_observed(None)
    }

    /// [`Coordinator::run`], recording the engine's run into `sink`.
    pub fn run_traced(&mut self, sink: &TraceSink) -> Result<LaunchSummary, RuntimeError> {
        self.run_observed(Some(sink))
    }

    fn run_observed(&self, sink: Option<&TraceSink>) -> Result<LaunchSummary, RuntimeError> {
        let (spec, cfg) = (self.spec, self.spec.config());
        let trainer = ClusterTrainer::new(cfg.clone())?;
        let mut workers = Workers::new(self);
        for node in 0..spec.nodes {
            workers.children[node] = Some(self.spawn_worker(node, false)?);
        }
        let (alg, dataset) = (spec.algorithm(), spec.dataset());
        let rounds = cfg.epochs * Shards::new(&cfg, &dataset).steps;
        let outcome = trainer.train_on(&mut workers, &alg, &dataset, spec.initial_model(), sink)?;
        workers.final_window(rounds, &outcome.model);
        let summary = LaunchSummary {
            iterations: outcome.iterations,
            final_checksum: model_checksum(&outcome.model),
            ..std::mem::take(&mut workers.summary)
        };
        Ok(summary)
    }

    /// Spawns worker `node` as a re-execution of the current binary.
    fn spawn_worker(&self, node: usize, join: bool) -> Result<Child, RuntimeError> {
        let failed =
            |detail: String| RuntimeError::TransportFailed { peer: node, attempts: 0, detail };
        let exe = std::env::current_exe().map_err(|e| failed(format!("current_exe: {e}")))?;
        let own = [("--worker", node.to_string()), ("--addr", self.addr().to_string())];
        let mut cmd = Command::new(exe);
        for (flag, value) in own.into_iter().chain(self.spec.flags()) {
            cmd.args([flag, value.as_str()]);
        }
        if join {
            cmd.arg("--join");
        }
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        cmd.spawn().map_err(|e| failed(format!("spawn worker {node}: {e}")))
    }
}

/// The coordinator's compute phase: the worker processes and what the
/// deployment did to them. Dropping it kills every worker still running.
struct Workers<'c> {
    coordinator: &'c Coordinator,
    children: Vec<Option<Child>>,
    /// Membership the last round started from (who left was expelled).
    member: Vec<bool>,
    /// Respawned workers the current window waits for.
    awaited: Vec<bool>,
    /// The round being computed.
    iteration: usize,
    /// This round's streams, each owed the round's update.
    owed: Vec<(usize, Reply)>,
    /// Per node, the iteration and checksum of the snapshot it was sent:
    /// what its `Ack`, whichever window it lands in, is judged against.
    caught: Vec<Option<(usize, u64)>>,
    summary: LaunchSummary,
}

impl Drop for Workers<'_> {
    fn drop(&mut self) {
        for node in 0..self.children.len() {
            self.kill(node);
        }
    }
}

impl<'c> Workers<'c> {
    fn new(coordinator: &'c Coordinator) -> Self {
        let nodes = coordinator.spec.nodes;
        Workers {
            coordinator,
            children: (0..nodes).map(|_| None).collect(),
            member: vec![true; nodes],
            awaited: vec![false; nodes],
            iteration: 0,
            owed: Vec::new(),
            caught: vec![None; nodes],
            summary: LaunchSummary::default(),
        }
    }

    /// Kills worker `node`'s process, if it has one running.
    fn kill(&mut self, node: usize) -> bool {
        let Some(mut child) = self.children[node].take() else {
            return false;
        };
        let _ = child.kill();
        let _ = child.wait();
        true
    }

    /// Applies the scheduled SIGKILL, then respawns with `--join` every
    /// worker the engine expelled since the last round.
    fn deploy(&mut self, req: &Request<'_>) -> Result<(), RuntimeError> {
        if let Some((node, at)) = self.coordinator.kill {
            if at == req.iteration && node < self.children.len() && self.kill(node) {
                self.summary.kills.push((node, at));
            }
        }
        for node in 0..self.member.len() {
            if self.member[node] && !req.member[node] {
                self.summary.expulsions.push((node, req.iteration));
                self.summary.stats.links_dead += 1;
                self.kill(node);
                self.children[node] = Some(self.coordinator.spawn_worker(node, true)?);
                self.awaited[node] = true;
            }
        }
        self.member = req.member.to_vec();
        Ok(())
    }

    /// Serves the queue until `serve` says the window is complete or
    /// its deadline passes. Senders await their reply for one read
    /// deadline from about the moment a window opens, and the reply is
    /// only written after the round: a window closes early enough that
    /// it still lands in time.
    fn serve_window(
        &mut self,
        mut serve: impl FnMut(&mut Self, Served) -> Result<bool, RuntimeError>,
    ) -> Result<(), RuntimeError> {
        let deadline = Instant::now() + self.coordinator.spec.link.read_timeout() * 3 / 4;
        while Instant::now() < deadline {
            let Some(served) = self.coordinator.server.next(Some(deadline)) else {
                continue;
            };
            if (served.node as usize) < self.member.len() && serve(self, served)? {
                break;
            }
        }
        Ok(())
    }

    /// One round's compute window: take round streams and join
    /// handshakes until every member and every awaited respawn has
    /// delivered. A stream from another round, or a second one from the
    /// same node, is dropped unanswered.
    fn window(&mut self, req: &Request<'_>) -> Result<Vec<Arrival>, RuntimeError> {
        let mut arrivals: Vec<Arrival> = vec![None; self.member.len()];
        let expected: Vec<usize> =
            (0..arrivals.len()).filter(|&n| req.member[n] || self.awaited[n]).collect();
        self.serve_window(|workers, mut served| {
            let node = served.node as usize;
            let stats = &mut workers.summary.stats;
            stats.merge(&served.stats);
            match served.carried {
                // The joiner is caught up from the checkpoint/replay log,
                // never the live model. A handshake that fails on the
                // wire is its to retry; only a store that no longer
                // reproduces the live model ends the job.
                Carried::Join => {
                    let caught = req.store.catch_up()?;
                    let (expected, at) = (model_checksum(req.model), req.iteration as u64);
                    if model_checksum(&caught.model) != expected {
                        return Err(RuntimeError::CheckpointCorrupt {
                            iteration: caught.base_iteration,
                        });
                    }
                    let payload = caught.model.into();
                    let head = Frame::control(FrameKind::Snapshot, served.node, at, at, expected);
                    let _ = served.reply.send(&Frame { payload, ..head }, stats);
                    workers.caught[node] = Some((req.iteration, expected));
                }
                Carried::Ack(checksum) => {
                    if let Some((at, sent)) = workers.caught[node].take() {
                        workers.summary.rejoins.push((node, at, checksum == sent));
                    }
                }
                Carried::Round { iteration, records, chunks } => {
                    let fresh = iteration == req.iteration as u64 && arrivals[node].is_none();
                    if let Some(partial) =
                        fresh.then(|| assemble(req.model.len(), &chunks)).flatten()
                    {
                        arrivals[node] = Some(Some((partial, records as usize)));
                        workers.owed.push((node, served.reply));
                    }
                }
            }
            Ok(!expected.is_empty() && expected.iter().all(|&n| arrivals[n].is_some()))
        })?;
        self.awaited.fill(false);
        Ok(arrivals)
    }

    /// The post-training window: every worker reports its final model's
    /// checksum as the record count of a chunkless stream stamped
    /// `rounds`, and is acknowledged.
    fn final_window(&mut self, rounds: usize, model: &[f64]) {
        let expected = model_checksum(model);
        let mut reported = vec![false; self.member.len()];
        let _ = self.serve_window(|workers, mut served| {
            let node = served.node as usize;
            let Carried::Round { iteration, records, .. } = served.carried else {
                return Ok(false);
            };
            if iteration != rounds as u64 || reported[node] {
                return Ok(false);
            }
            reported[node] = true;
            let stats = &mut workers.summary.stats;
            stats.merge(&served.stats);
            workers.summary.workers_reported += 1;
            workers.summary.workers_matched += usize::from(records == expected);
            let ack = Frame::control(FrameKind::Ack, served.node, iteration, 0, expected);
            let _ = served.reply.send(&ack, stats);
            Ok(!reported.contains(&false))
        });
    }
}

impl Compute for Workers<'_> {
    fn partials(
        &mut self,
        req: &Request<'_>,
        arrivals: &mut Vec<Arrival>,
    ) -> Result<(), RuntimeError> {
        self.iteration = req.iteration;
        self.deploy(req)?;
        arrivals.append(&mut self.window(req)?);
        Ok(())
    }

    /// The launcher reports no loss: the per-epoch pass over the whole
    /// dataset would be the coordinator's one serial stage.
    fn records_loss(&self) -> bool {
        false
    }

    /// Answers every stream of the round with the model it left, one
    /// shared payload for every reply. The spent partials were decoded
    /// off the wire; they are dropped.
    fn settle(&mut self, model: &[f64], _spent: &mut Vec<Vec<f64>>) {
        let (iteration, payload) = (self.iteration as u64, WordBuf::copy_of(model));
        for (node, mut owed) in std::mem::take(&mut self.owed) {
            let (node, payload) = (node as u32, payload.clone());
            let reply = Frame { kind: FrameKind::Model, node, iteration, a: 0, b: 0, payload };
            let _ = owed.send(&reply, &mut self.summary.stats);
        }
    }
}

/// A worker's node partial from its stream: the dense chunks
/// `chunk_vector` cut, in order and intact. `None` for anything else.
fn assemble(len: usize, chunks: &[Chunk]) -> Option<Vec<f64>> {
    let mut partial = Vec::with_capacity(len);
    for chunk in chunks {
        if chunk.offset != partial.len() || chunk.layout != Layout::Dense || !chunk.is_intact() {
            return None;
        }
        partial.extend_from_slice(&chunk.data);
    }
    (partial.len() == len).then_some(partial)
}

/// One worker process: compute the node's partial by the engine's rule,
/// stream it to the coordinator each round, and take the model it
/// answers with.
pub struct Worker {
    spec: JobSpec,
    node: usize,
    addr: SocketAddr,
    join: bool,
}

impl Worker {
    /// Builds worker `node` dialing `addr`; `join` workers start with
    /// the catch-up handshake instead of iteration 0.
    pub fn new(spec: JobSpec, node: usize, addr: SocketAddr, join: bool) -> Self {
        Worker { spec, node, addr, join }
    }

    /// Runs the worker loop to completion: rounds, re-syncs, the final
    /// checksum report.
    pub fn run(&self) -> Result<(), RuntimeError> {
        let (spec, node) = (self.spec, self.node);
        let (cfg, alg, dataset) = (spec.config(), spec.algorithm(), spec.dataset());
        let shards = Shards::new(&cfg, &dataset);
        let rounds = cfg.epochs * shards.steps;
        let mut model = spec.initial_model();
        let mut sender = RoundSender::new(self.addr, node, spec.link, RETRY);
        let mut iter = if self.join { rejoin(&mut sender, &mut model)? } else { 0 };
        while iter < rounds {
            let step = iter % shards.steps;
            let (partial, records) =
                shards.node_partial(&alg, &cfg, node, step, &model).unwrap_or_default();
            let chunks: Vec<(usize, Chunk)> =
                chunk_vector(&partial).into_iter().enumerate().collect();
            let shim = WireShim::default();
            let round =
                sender.send_round(iter as u64, &chunks, records as u64, &shim, FrameKind::Model);
            match round.map(|(reply, _)| reply.payload) {
                Ok(next) if next.len() == model.len() => {
                    model = next.into_vec();
                    iter += 1;
                }
                // Missed the window, or the answer was not a model: the
                // cluster moved on without this node. Re-sync through
                // the join handshake rather than fork the model.
                _ => iter = rejoin(&mut sender, &mut model)?,
            }
        }
        // Final report: a chunkless round carrying the model checksum
        // as the record count, acknowledged by the coordinator.
        let _ = sender.send_round(
            rounds as u64,
            &[],
            model_checksum(&model),
            &WireShim::default(),
            FrameKind::Ack,
        );
        Ok(())
    }
}

/// Re-syncs a worker through its link's join handshake: the model it
/// is caught up with, and the iteration to resume at.
fn rejoin(sender: &mut RoundSender, model: &mut Vec<f64>) -> Result<usize, RuntimeError> {
    let snapshot = sender.join()?;
    *model = snapshot.payload.into_vec();
    Ok(snapshot.a as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::transport::supervisor::fill;
    use crate::transport::wire::FrameReader;
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::Arc;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A worker's flags parse back into the spec they were rendered
    /// from, every field but `checkpoint_every`, which is not sent.
    #[test]
    fn worker_flags_round_trip_through_the_spec() {
        let sent = JobSpec {
            nodes: 7,
            iterations: 30,
            samples: 1001,
            seed: u64::MAX - 3,
            features: 13,
            learning_rate: 0.1 + 0.2,
            checkpoint_every: 9,
            link: LinkConfig { read_timeout_ms: 1234, connect_timeout_ms: 567 },
        };
        let mut got = JobSpec::default();
        for (flag, value) in sent.flags() {
            assert_eq!(got.set_flag(flag, &value), Ok(true), "{flag}");
        }
        assert_eq!(got, JobSpec { checkpoint_every: got.checkpoint_every, ..sent });
        assert_eq!(got.set_flag("--worker", "0"), Ok(false));
        assert!(got.set_flag("--lr", "fast").is_err());
    }

    /// Workers shard by the engine's rule: one step covers each node's
    /// whole shard, and the shards cover the dataset disjointly.
    #[test]
    fn shards_cover_the_dataset_disjointly() {
        let spec = JobSpec::default();
        let (cfg, dataset) = (spec.config(), spec.dataset());
        let shards = Shards::new(&cfg, &dataset);
        assert_eq!(shards.steps, 1, "full-batch: one step an epoch");
        let model = spec.initial_model();
        let records = |n| shards.node_partial(&spec.algorithm(), &cfg, n, 0, &model).map(|p| p.1);
        let total: usize = (0..spec.nodes).map(|n| records(n).unwrap_or(0)).sum();
        assert_eq!(total, spec.samples);
    }

    /// A round stream of `partial` as a worker sends it, with 5 records,
    /// optionally cut short before `Done`. The socket is returned open,
    /// as a worker awaiting its reply holds it.
    fn stream(addr: SocketAddr, node: u32, at: u64, whole: bool, partial: &[f64]) -> TcpStream {
        let mut frames = vec![Frame::control(FrameKind::Hello, node, at, 0, 0)];
        frames.extend(chunk_vector(partial).iter().map(|chunk| Frame::chunk(node, at, chunk)));
        frames.extend(whole.then(|| Frame::control(FrameKind::Done, node, at, 0, 5)));
        let mut client = TcpStream::connect(addr).unwrap();
        for frame in frames {
            client.write_all(&frame.encode()).unwrap();
        }
        client
    }

    /// The compute window's verdicts, each from a loopback socket: a
    /// stale iteration and a node id outside the job are served but
    /// rejected, a stream that dies before `Done` delivers nothing,
    /// `Hello(join)` runs the catch-up handshake, and one whole stream
    /// per member or awaited respawn is an arrival — answered, when the
    /// round settles, with the model it left.
    #[test]
    fn round_window_routes_what_the_round_server_classifies() {
        let spec = JobSpec { nodes: 2, ..JobSpec::default() };
        let coordinator = Coordinator::bind(spec).unwrap();
        let addr = coordinator.addr();
        let model = spec.initial_model();
        let partial: Vec<f64> = (0..model.len()).map(|i| i as f64 * 0.5).collect();
        let mut stale = stream(addr, 0, 3, true, &partial);
        let open = [stream(addr, 9, 4, true, &partial), stream(addr, 0, 4, true, &partial)];
        drop(stream(addr, 0, 4, false, &partial));
        // Node 1 was expelled and its respawn is awaited: the window
        // outlasts node 0's delivery until the joiner has caught up
        // through the worker's own handshake and delivered its round on
        // the same link. It joins once the stale stream was refused (its
        // socket shut), so that one is booked before the window can close.
        let chunks: Vec<(usize, Chunk)> = chunk_vector(&partial).into_iter().enumerate().collect();
        let worker = std::thread::spawn(move || {
            stale.set_read_timeout(Some(spec.link.read_timeout() * 2)).unwrap();
            let _ = std::io::Read::read(&mut stale, &mut [0]);
            let mut sender = RoundSender::new(addr, 1, spec.link, RETRY);
            let mut caught = Vec::new();
            let resume = rejoin(&mut sender, &mut caught).unwrap();
            let shim = WireShim::default();
            let round = sender.send_round(4, &chunks, 5, &shim, FrameKind::Model).unwrap();
            (resume, caught, round.0)
        });
        let store = CheckpointStore::new(CheckpointConfig { cadence: 4 }, &model);
        let shared = Arc::new(model.clone());
        let req = Request {
            iteration: 4,
            step: 0,
            dispatch: &[true, true],
            model: &shared,
            member: &[true, false],
            store: &store,
        };
        let mut workers = Workers::new(&coordinator);
        workers.awaited[1] = true;
        let arrivals = workers.window(&req).unwrap();
        assert_eq!(workers.summary.rejoins, [(1, 4, true)]);
        let whole = Some(Some((partial, 5)));
        assert_eq!(arrivals, [whole.clone(), whole], "one arrival per member and awaited node");
        assert_eq!(workers.awaited, [false; 2], "the awaited window closed");
        // Booked: the stale stream, the join's Hello and Ack, the two arrivals
        // (the joiner's with a heartbeat); not node 9, not the half stream.
        assert_eq!(workers.summary.stats.frames_received, 3 + 2 + 3 + 4);
        // Settling answers exactly the two arrivals, with the new model.
        let next: Vec<f64> = model.iter().map(|w| w - 1.0).collect();
        workers.iteration = 4;
        workers.settle(&next, &mut Vec::new());
        let mut reader = FrameReader::default();
        let answered = loop {
            match reader.next_frame().unwrap() {
                Some((reply, _)) => break reply,
                None => fill(&open[1], &mut reader).unwrap(),
            }
        };
        let (resume, caught, joiner) = worker.join().unwrap();
        assert_eq!((resume, caught), (4, model));
        for (node, reply) in [(0, answered), (1, joiner)] {
            assert_eq!((reply.kind, reply.node, reply.iteration), (FrameKind::Model, node, 4));
            assert_eq!(bits(&reply.payload), bits(&next), "node {node}");
        }
        assert!(workers.owed.is_empty());
    }

    /// A joiner that hangs up mid-handshake costs its own handshake, not
    /// the job: the window books no rejoin and serves the round on.
    #[test]
    fn a_joiner_that_hangs_up_mid_handshake_does_not_end_the_job() {
        // A short window: the awaited joiner never delivers, so the
        // window runs to its deadline and serves everything queued.
        let link = LinkConfig { read_timeout_ms: 200, ..LinkConfig::default() };
        let spec = JobSpec { nodes: 2, link, ..JobSpec::default() };
        let coordinator = Coordinator::bind(spec).unwrap();
        let addr = coordinator.addr();
        let model = spec.initial_model();
        let mut quitter = TcpStream::connect(addr).unwrap();
        quitter.write_all(&Frame::control(FrameKind::Hello, 1, 0, 1, 0).encode()).unwrap();
        drop(quitter);
        let _member = stream(addr, 0, 2, true, &model);
        let store = CheckpointStore::new(CheckpointConfig { cadence: 4 }, &model);
        let shared = Arc::new(model.clone());
        let req = Request {
            iteration: 2,
            step: 0,
            dispatch: &[true, true],
            model: &shared,
            member: &[true, false],
            store: &store,
        };
        let mut workers = Workers::new(&coordinator);
        workers.awaited[1] = true;
        let arrivals = workers.window(&req).expect("a lost joiner is not the job's failure");
        assert_eq!(arrivals, [Some(Some((model, 5))), None]);
        assert!(workers.summary.rejoins.is_empty());
        // The joiner's `Hello` was served, and the member's stream.
        assert_eq!(workers.summary.stats.frames_received, 1 + 3);
    }

    /// A worker's stream is its partial only whole, in order and intact.
    #[test]
    fn a_worker_stream_is_its_partial_only_whole_and_intact() {
        use crate::layout::CHUNK_WORDS;
        let len = 3 * CHUNK_WORDS + 7;
        let partial: Vec<f64> = (0..len).map(|i| (i * 7) as f64 * 0.125 - 3.0).collect();
        type Damage = fn(&mut Vec<Chunk>);
        let table: [(&str, Damage, bool); 6] = [
            ("clean", |_| (), true),
            ("corrupt chunk", |c| c[1] = c[1].clone().corrupted(), false),
            ("duplicated chunk", |c| c.insert(2, c[2].clone()), false),
            ("missing stripe", |c| drop(c.remove(1)), false),
            ("reordered", |c| c.swap(0, 1), false),
            ("no chunk at all", Vec::clear, false),
        ];
        for (name, damage, whole) in table {
            let mut chunks = chunk_vector(&partial);
            damage(&mut chunks);
            let got = assemble(len, &chunks);
            assert_eq!(got.is_some(), whole, "{name}");
            if let Some(got) = got {
                assert_eq!(bits(&got), bits(&partial), "{name}");
            }
        }
        assert_eq!(assemble(0, &[]), Some(Vec::new()), "an empty model is an empty stream");
    }

    proptest::proptest! {
        /// Whatever a worker's stream delivers, `assemble` is total and
        /// exact: the stream as cut is its partial bit for bit, and one
        /// with chunks dropped, duplicated, moved, corrupted, truncated
        /// or re-addressed, in any mix, is refused.
        #[test]
        fn assemble_refuses_every_broken_stream(
            len in 1usize..3 * crate::layout::CHUNK_WORDS + 9,
            damage in proptest::prop::collection::vec(proptest::any::<u64>(), 0..4),
        ) {
            let partial: Vec<f64> = (0..len).map(|i| i as f64 - 0.5).collect();
            let cut = chunk_vector(&partial);
            let mut chunks = cut.clone();
            for pick in damage {
                if chunks.is_empty() {
                    break;
                }
                let (n, at) = (chunks.len(), (pick >> 8) as usize % chunks.len());
                let c = chunks[at].clone();
                match pick % 6 {
                    0 => drop(chunks.remove(at)),
                    1 => chunks.insert(at, c),
                    2 => chunks.swap(at, (at + 1) % n),
                    3 => chunks[at] = c.corrupted(),
                    4 if c.data.len() > 1 => {
                        chunks[at] = Chunk::new(c.offset, c.data[..c.data.len() - 1].to_vec());
                    }
                    _ => chunks[at] = Chunk::new(c.offset + 1, c.data.to_vec()),
                }
            }
            let whole = (chunks == cut).then(|| bits(&partial));
            proptest::prop_assert_eq!(assemble(len, &chunks).map(|p| bits(&p)), whole);
        }
    }

    #[test]
    fn summary_json_is_well_formed_enough_to_grep() {
        let s = LaunchSummary {
            iterations: 4,
            final_checksum: 0xAB,
            workers_reported: 2,
            workers_matched: 2,
            kills: vec![(1, 2)],
            expulsions: vec![(1, 4)],
            rejoins: vec![(1, 6, true)],
            stats: TransportStats { frames_sent: 10, connections: 3, ..Default::default() },
        };
        let json = s.to_json();
        assert!(json.contains("\"workers_matched\":2"), "{json}");
        assert!(json.contains("\"kills\":[[1,2]]"), "{json}");
        assert!(json.contains("\"rejoins\":[[1,6,true]]"), "{json}");
        assert!(json.contains("\"frames_sent\":10"), "{json}");
        assert!(json.ends_with("\"links_dead\":0,\"connections\":3}"), "{json}");
    }
}
