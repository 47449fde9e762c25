//! Deterministic fault injection for scale-out runs.
//!
//! A [`FaultPlan`] is a fully materialized schedule of faults — node
//! crashes, straggler slowdowns, and per-chunk network pathologies —
//! keyed by `(node, iteration)`. The runtime consults the plan at each
//! aggregation step instead of rolling dice at execution time, so a run
//! with a given plan is reproducible bit for bit: the same plan always
//! produces the same exclusions, the same retries, and the same trained
//! model. Plans are built explicitly with the chainable constructors or
//! sampled from per-iteration rates with [`FaultPlan::random`], whose
//! output is a pure function of the seed.

use std::fmt;

/// What a single injected fault does when the runtime reaches it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node halts permanently at the start of the iteration and never
    /// contributes again (fail-stop).
    Crash,
    /// The node's compute for this iteration takes `factor`× its nominal
    /// time (e.g. a co-scheduled job or a thermally throttled card).
    Straggle {
        /// Slowdown multiplier; `1.0` means nominal speed.
        factor: f64,
    },
    /// The chunk at index `chunk` of the node's partial is lost in
    /// transit `repeats` times; each loss costs the sender one
    /// backed-off retransmission.
    DropChunk {
        /// Stripe index of the affected chunk within the partial vector.
        chunk: usize,
        /// How many consecutive transmissions of this chunk are lost.
        repeats: u32,
    },
    /// The chunk at index `chunk` arrives with a payload that fails its
    /// checksum (bit rot / truncated frame).
    CorruptChunk {
        /// Stripe index of the affected chunk.
        chunk: usize,
    },
    /// The chunk at index `chunk` is delivered twice (retransmission of
    /// a frame that was not actually lost).
    DuplicateChunk {
        /// Stripe index of the affected chunk.
        chunk: usize,
    },
    /// The node, previously crashed, powers back up at the start of the
    /// iteration and starts delivering again. The runtime re-admits it
    /// through the rejoin protocol (catch-up from the latest checkpoint
    /// plus replayed aggregated deltas).
    Rejoin,
    /// **Wire-level** (real-transport backends only; the discrete-event
    /// backend has no sockets to sever): the node's transport
    /// connection is cut immediately before it would send chunk
    /// `at_chunk` of this iteration's stream. On a reliable byte
    /// stream a lost frame *is* a broken connection, so frame drops
    /// are expressed as severs; the connection supervisor reconnects
    /// with capped-exponential backoff and retransmits the round.
    SeverLink {
        /// Stripe index before which the link is cut.
        at_chunk: usize,
    },
    /// **Wire-level**: the encoded frame carrying chunk `chunk` is
    /// damaged in flight (a flipped byte). The receiver's frame
    /// checksum catches it; the connection is reset and the round
    /// retransmitted — unlike [`FaultKind::CorruptChunk`], whose
    /// damage is *inside* a well-formed frame and is caught by
    /// Sigma-side chunk validation instead.
    CorruptFrame {
        /// Stripe index of the affected chunk's frame.
        chunk: usize,
    },
    /// **Wire-level**: every frame the node sends this iteration is
    /// held for `millis` wall milliseconds before hitting the socket
    /// (a congested or rate-limited link). Pure latency — no data is
    /// lost — so it exercises read deadlines without changing any
    /// conservation counter.
    DelayFrames {
        /// Added latency per frame, in wall milliseconds.
        millis: u64,
    },
    /// The network splits: the nodes in `minority` (a bitmask over node
    /// ids, so the kind stays `Copy`) are cut off from the rest for
    /// `heal_after` iterations. The majority side keeps training; the
    /// minority quiesces, then heals and merges back deterministically
    /// at `iteration + heal_after`.
    Partition {
        /// Bitmask of the quiesced (minority) node ids; node `n` is cut
        /// off iff bit `n` is set. Ids ≥ 64 are not representable.
        minority: u64,
        /// Iterations the split lasts; the heal-and-merge happens at
        /// `iteration + heal_after`.
        heal_after: usize,
    },
}

/// Builds the minority bitmask for [`FaultKind::Partition`] from a node
/// list. Ids ≥ 64 are ignored (the mask cannot represent them).
pub(crate) fn minority_mask(nodes: &[usize]) -> u64 {
    nodes.iter().filter(|&&n| n < 64).fold(0u64, |m, &n| m | (1u64 << n))
}

/// Expands a [`FaultKind::Partition`] minority bitmask back into an
/// ascending node list.
pub fn minority_nodes(mask: u64) -> Vec<usize> {
    (0..64).filter(|&n| mask & (1u64 << n) != 0).collect()
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash => write!(f, "crash"),
            FaultKind::Straggle { factor } => write!(f, "straggle(x{factor})"),
            FaultKind::DropChunk { chunk, repeats } => {
                write!(f, "drop(chunk={chunk}, x{repeats})")
            }
            FaultKind::CorruptChunk { chunk } => write!(f, "corrupt(chunk={chunk})"),
            FaultKind::DuplicateChunk { chunk } => write!(f, "duplicate(chunk={chunk})"),
            FaultKind::SeverLink { at_chunk } => write!(f, "sever(at_chunk={at_chunk})"),
            FaultKind::CorruptFrame { chunk } => write!(f, "corrupt_frame(chunk={chunk})"),
            FaultKind::DelayFrames { millis } => write!(f, "delay_frames({millis}ms)"),
            FaultKind::Rejoin => write!(f, "rejoin"),
            FaultKind::Partition { minority, heal_after } => {
                let nodes: Vec<String> =
                    minority_nodes(*minority).iter().map(usize::to_string).collect();
                write!(f, "partition(minority=[{}], heal_after={heal_after})", nodes.join(","))
            }
        }
    }
}

/// One scheduled fault: a [`FaultKind`] pinned to a node and an
/// aggregation iteration (iterations count globally across epochs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultEvent {
    /// The node the fault strikes.
    pub node: usize,
    /// The global aggregation-iteration index at which it strikes.
    pub iteration: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Per-iteration fault probabilities for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a live node crashes in a given iteration.
    pub crash: f64,
    /// Probability a node straggles in a given iteration.
    pub straggle: f64,
    /// Slowdown factor applied when a node straggles.
    pub straggle_factor: f64,
    /// Probability each chunk of a node's partial is dropped once.
    pub drop_chunk: f64,
    /// Probability each chunk arrives corrupted.
    pub corrupt_chunk: f64,
    /// Probability each chunk is delivered twice.
    pub duplicate_chunk: f64,
    /// Iterations a crashed node stays down before it rejoins; `0`
    /// makes crashes permanent (the pre-elastic behavior).
    pub rejoin_after: usize,
    /// Probability a network partition starts in a given iteration
    /// (when none is already active).
    pub partition: f64,
    /// Iterations a sampled partition lasts before it heals.
    pub partition_heal_after: usize,
    /// Probability a node's transport link is severed mid-stream in a
    /// given iteration (wire-level; real backends only).
    pub sever_link: f64,
    /// Probability each chunk's frame is damaged on the wire
    /// (wire-level; real backends only).
    pub corrupt_frame: f64,
    /// Probability a node's link is congested (frames delayed) in a
    /// given iteration (wire-level; real backends only).
    pub delay_frames: f64,
    /// Added per-frame latency applied when a delay fires, in wall
    /// milliseconds.
    pub delay_millis: u64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            crash: 0.0,
            straggle: 0.0,
            straggle_factor: 8.0,
            drop_chunk: 0.0,
            corrupt_chunk: 0.0,
            duplicate_chunk: 0.0,
            rejoin_after: 0,
            partition: 0.0,
            partition_heal_after: 3,
            sever_link: 0.0,
            corrupt_frame: 0.0,
            delay_frames: 0.0,
            delay_millis: 5,
        }
    }
}

/// A deterministic, fully materialized fault schedule.
///
/// The empty plan ([`FaultPlan::none`], also [`Default`]) injects
/// nothing: a run with it is identical to a run with no fault machinery
/// at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, healthy run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary event.
    pub(crate) fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Schedules a fail-stop crash of `node` at `iteration`.
    pub fn crash(self, node: usize, iteration: usize) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::Crash })
    }

    /// Schedules `node` to compute `factor`× slower at `iteration`.
    pub fn straggle(self, node: usize, iteration: usize, factor: f64) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::Straggle { factor } })
    }

    /// Schedules `repeats` consecutive losses of `node`'s chunk `chunk`
    /// at `iteration`.
    pub fn drop_chunk(self, node: usize, iteration: usize, chunk: usize, repeats: u32) -> Self {
        self.with_event(FaultEvent {
            node,
            iteration,
            kind: FaultKind::DropChunk { chunk, repeats },
        })
    }

    /// Schedules corruption of `node`'s chunk `chunk` at `iteration`.
    pub fn corrupt_chunk(self, node: usize, iteration: usize, chunk: usize) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::CorruptChunk { chunk } })
    }

    /// Schedules duplicate delivery of `node`'s chunk `chunk` at
    /// `iteration`.
    pub fn duplicate_chunk(self, node: usize, iteration: usize, chunk: usize) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::DuplicateChunk { chunk } })
    }

    /// Schedules `node`'s transport link to be severed immediately
    /// before chunk `at_chunk` of its `iteration` stream (wire-level;
    /// ignored by the discrete-event backend).
    pub fn sever_link(self, node: usize, iteration: usize, at_chunk: usize) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::SeverLink { at_chunk } })
    }

    /// Schedules wire damage to the frame carrying `node`'s chunk
    /// `chunk` at `iteration` (wire-level; ignored by the
    /// discrete-event backend).
    pub fn corrupt_frame(self, node: usize, iteration: usize, chunk: usize) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::CorruptFrame { chunk } })
    }

    /// Schedules `millis` of added per-frame latency on `node`'s link
    /// at `iteration` (wire-level; ignored by the discrete-event
    /// backend).
    pub fn delay_frames(self, node: usize, iteration: usize, millis: u64) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::DelayFrames { millis } })
    }

    /// Schedules `node` (crashed earlier) to power back up at
    /// `iteration`. The node is down over `[crash, rejoin)` and alive
    /// again from the rejoin iteration.
    pub(crate) fn rejoin(self, node: usize, iteration: usize) -> Self {
        self.with_event(FaultEvent { node, iteration, kind: FaultKind::Rejoin })
    }

    /// Schedules a crash of `node` at `iteration` that heals on its own:
    /// the node is down for `rejoin_after` iterations, then rejoins.
    pub fn crash_then_rejoin(self, node: usize, iteration: usize, rejoin_after: usize) -> Self {
        self.crash(node, iteration).rejoin(node, iteration + rejoin_after.max(1))
    }

    /// Schedules a network partition at `iteration`: the nodes in
    /// `minority` are cut off for `heal_after` iterations, then the
    /// split heals and the minority merges back. The partition event is
    /// keyed to node 0 (it is cluster-wide, not per-node). Node ids
    /// ≥ 64 cannot be represented and are ignored.
    pub fn partition(self, iteration: usize, minority: &[usize], heal_after: usize) -> Self {
        self.with_event(FaultEvent {
            node: 0,
            iteration,
            kind: FaultKind::Partition {
                minority: minority_mask(minority),
                heal_after: heal_after.max(1),
            },
        })
    }

    /// Samples a plan from per-iteration `rates` for a cluster of
    /// `nodes` nodes running `iterations` aggregation steps whose
    /// partials span `chunks` chunks each.
    ///
    /// The plan is a pure function of `seed`: the same arguments always
    /// produce the same plan, on every platform. Crashed nodes stop
    /// accumulating further faults while they are down; with a non-zero
    /// [`FaultRates::rejoin_after`] they come back (churn) and can fault
    /// again. At most one partition is active at a time, its minority a
    /// strict minority of the cluster.
    pub fn random(
        seed: u64,
        nodes: usize,
        iterations: usize,
        chunks: usize,
        rates: &FaultRates,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::none();
        // Iteration at which each node is back up (`usize::MAX` = never).
        let mut down_until = vec![0usize; nodes];
        let mut partition_until = 0usize;
        for iteration in 0..iterations {
            if nodes > 1 && iteration >= partition_until && rng.chance(rates.partition) {
                // Each node sides with the minority at ~1/3 odds, then
                // the mask is trimmed (highest ids first) to a strict
                // minority; an empty draw conscripts the last node.
                let mut picked: Vec<usize> =
                    (0..nodes.min(64)).filter(|_| rng.chance(1.0 / 3.0)).collect();
                while 2 * picked.len() >= nodes {
                    picked.pop();
                }
                if picked.is_empty() {
                    picked.push(nodes.min(64) - 1);
                }
                let heal_after = rates.partition_heal_after.max(1);
                plan = plan.partition(iteration, &picked, heal_after);
                partition_until = iteration + heal_after;
            }
            for (node, down) in down_until.iter_mut().enumerate() {
                if iteration < *down {
                    continue;
                }
                if rng.chance(rates.crash) {
                    if rates.rejoin_after > 0 {
                        plan = plan.crash_then_rejoin(node, iteration, rates.rejoin_after);
                        *down = iteration + rates.rejoin_after.max(1);
                    } else {
                        plan = plan.crash(node, iteration);
                        *down = usize::MAX;
                    }
                    continue;
                }
                if rng.chance(rates.straggle) {
                    plan = plan.straggle(node, iteration, rates.straggle_factor.max(1.0));
                }
                for chunk in 0..chunks {
                    if rng.chance(rates.drop_chunk) {
                        plan = plan.drop_chunk(node, iteration, chunk, 1);
                    }
                    if rng.chance(rates.corrupt_chunk) {
                        plan = plan.corrupt_chunk(node, iteration, chunk);
                    }
                    if rng.chance(rates.duplicate_chunk) {
                        plan = plan.duplicate_chunk(node, iteration, chunk);
                    }
                }
            }
        }
        // Wire-level faults are sampled from a second, independently
        // seeded stream appended after the main schedule: the original
        // SplitMix64 stream is frozen, so enabling (or ignoring) wire
        // rates never re-seeds a pre-existing plan.
        if rates.sever_link > 0.0 || rates.corrupt_frame > 0.0 || rates.delay_frames > 0.0 {
            let mut wire = SplitMix64::new(seed ^ 0x5749_5245); // "WIRE"
            for iteration in 0..iterations {
                for node in 0..nodes {
                    if plan.crashed(node, iteration) {
                        continue;
                    }
                    if wire.chance(rates.sever_link) {
                        let at_chunk = (wire.next_u64() % chunks.max(1) as u64) as usize;
                        plan = plan.sever_link(node, iteration, at_chunk);
                    }
                    if wire.chance(rates.delay_frames) {
                        plan = plan.delay_frames(node, iteration, rates.delay_millis.max(1));
                    }
                    for chunk in 0..chunks {
                        if wire.chance(rates.corrupt_frame) {
                            plan = plan.corrupt_frame(node, iteration, chunk);
                        }
                    }
                }
            }
        }
        plan
    }

    /// Whether `node` is down at `iteration`: crashed at or before it
    /// with no [`FaultKind::Rejoin`] since. A node is down over
    /// `[crash, rejoin)` and alive again from the rejoin iteration.
    pub fn crashed(&self, node: usize, iteration: usize) -> bool {
        let latest = |kind: FaultKind| {
            self.events
                .iter()
                .filter(|e| e.node == node && e.iteration <= iteration && e.kind == kind)
                .map(|e| e.iteration)
                .max()
        };
        match (latest(FaultKind::Crash), latest(FaultKind::Rejoin)) {
            (Some(crash), Some(rejoin)) => rejoin <= crash,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Whether a [`FaultKind::Rejoin`] of `node` fires exactly at
    /// `iteration`.
    pub fn rejoined_at(&self, node: usize, iteration: usize) -> bool {
        self.events.iter().any(|e| {
            e.node == node && e.iteration == iteration && matches!(e.kind, FaultKind::Rejoin)
        })
    }

    /// Whether `node` is cut off by an active partition at `iteration`
    /// (it sits on the minority side of a split that has not healed).
    pub fn quiesced(&self, node: usize, iteration: usize) -> bool {
        if node >= 64 {
            return false;
        }
        self.events.iter().any(|e| {
            matches!(e.kind, FaultKind::Partition { minority, heal_after }
                if minority & (1u64 << node) != 0
                    && e.iteration <= iteration
                    && iteration < e.iteration + heal_after)
        })
    }

    /// Partitions that start exactly at `iteration`, as
    /// `(minority_mask, heal_iteration)` pairs.
    pub fn partitions_starting_at(&self, iteration: usize) -> Vec<(u64, usize)> {
        self.events
            .iter()
            .filter(|e| e.iteration == iteration)
            .filter_map(|e| match e.kind {
                FaultKind::Partition { minority, heal_after } => {
                    Some((minority, iteration + heal_after))
                }
                _ => None,
            })
            .collect()
    }

    /// The node's compute slowdown for `iteration` (`1.0` = nominal).
    /// Multiple straggle events on the same iteration compound.
    pub fn straggle_factor(&self, node: usize, iteration: usize) -> f64 {
        self.events
            .iter()
            .filter(|e| e.node == node && e.iteration == iteration)
            .filter_map(|e| match e.kind {
                FaultKind::Straggle { factor } => Some(factor.max(1.0)),
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// How many times `node`'s chunk `chunk` is lost at `iteration`.
    pub fn chunk_drops(&self, node: usize, iteration: usize, chunk: usize) -> u32 {
        self.events
            .iter()
            .filter(|e| e.node == node && e.iteration == iteration)
            .filter_map(|e| match e.kind {
                FaultKind::DropChunk { chunk: c, repeats } if c == chunk => Some(repeats),
                _ => None,
            })
            .sum()
    }

    /// Whether `node`'s chunk `chunk` arrives corrupted at `iteration`.
    pub fn chunk_corrupted(&self, node: usize, iteration: usize, chunk: usize) -> bool {
        self.events.iter().any(|e| {
            e.node == node
                && e.iteration == iteration
                && matches!(e.kind, FaultKind::CorruptChunk { chunk: c } if c == chunk)
        })
    }

    /// Whether `node`'s chunk `chunk` is delivered twice at `iteration`.
    pub fn chunk_duplicated(&self, node: usize, iteration: usize, chunk: usize) -> bool {
        self.events.iter().any(|e| {
            e.node == node
                && e.iteration == iteration
                && matches!(e.kind, FaultKind::DuplicateChunk { chunk: c } if c == chunk)
        })
    }

    /// Records the whole schedule into `sink`: one zero-duration span
    /// per event (timestamped at its iteration index, annotated with the
    /// target node and kind) plus a `faults.planned.*` counter per
    /// [`FaultKind`]. The trainer calls this once up front so a trace
    /// shows what was *planned* alongside what the run actually hit.
    pub fn record_into(&self, sink: &cosmic_telemetry::TraceSink) {
        use cosmic_telemetry::{counters, Layer};
        for event in &self.events {
            let (layer, name, counter) = match event.kind {
                FaultKind::Crash => {
                    (Layer::Failover, "fault.crash", counters::FAULTS_PLANNED_CRASHES)
                }
                FaultKind::Straggle { .. } => {
                    (Layer::Exec, "fault.straggle", counters::FAULTS_PLANNED_STRAGGLES)
                }
                FaultKind::DropChunk { .. } => {
                    (Layer::Retry, "fault.drop_chunk", counters::FAULTS_PLANNED_DROPS)
                }
                FaultKind::CorruptChunk { .. } => {
                    (Layer::Retry, "fault.corrupt_chunk", counters::FAULTS_PLANNED_CORRUPTIONS)
                }
                FaultKind::DuplicateChunk { .. } => {
                    (Layer::Retry, "fault.duplicate_chunk", counters::FAULTS_PLANNED_DUPLICATES)
                }
                FaultKind::SeverLink { .. } => {
                    (Layer::Net, "fault.sever_link", counters::FAULTS_PLANNED_SEVERS)
                }
                FaultKind::CorruptFrame { .. } => {
                    (Layer::Net, "fault.corrupt_frame", counters::FAULTS_PLANNED_FRAME_CORRUPTIONS)
                }
                FaultKind::DelayFrames { .. } => {
                    (Layer::Net, "fault.delay_frames", counters::FAULTS_PLANNED_DELAYS)
                }
                FaultKind::Rejoin => {
                    (Layer::Membership, "fault.rejoin", counters::FAULTS_PLANNED_REJOINS)
                }
                FaultKind::Partition { .. } => {
                    (Layer::Membership, "fault.partition", counters::FAULTS_PLANNED_PARTITIONS)
                }
            };
            let idx = sink.span_closed(layer, name, event.iteration as f64, 0.0);
            sink.set_arg(idx, "node", &event.node.to_string());
            sink.set_arg(idx, "kind", &event.kind.to_string());
            sink.add(counter, 1.0);
        }
    }

    /// The chunk index before which `node`'s transport link is severed
    /// at `iteration`, if a [`FaultKind::SeverLink`] is scheduled
    /// (earliest cut wins when several are).
    pub fn sever_at(&self, node: usize, iteration: usize) -> Option<usize> {
        self.events
            .iter()
            .filter(|e| e.node == node && e.iteration == iteration)
            .filter_map(|e| match e.kind {
                FaultKind::SeverLink { at_chunk } => Some(at_chunk),
                _ => None,
            })
            .min()
    }

    /// Whether the frame carrying `node`'s chunk `chunk` is damaged on
    /// the wire at `iteration` ([`FaultKind::CorruptFrame`]).
    pub fn frame_corrupted(&self, node: usize, iteration: usize, chunk: usize) -> bool {
        self.events.iter().any(|e| {
            e.node == node
                && e.iteration == iteration
                && matches!(e.kind, FaultKind::CorruptFrame { chunk: c } if c == chunk)
        })
    }

    /// Added per-frame latency on `node`'s link at `iteration`, in wall
    /// milliseconds (`0` = no delay; multiple delay events sum).
    pub fn frame_delay_millis(&self, node: usize, iteration: usize) -> u64 {
        self.events
            .iter()
            .filter(|e| e.node == node && e.iteration == iteration)
            .filter_map(|e| match e.kind {
                FaultKind::DelayFrames { millis } => Some(millis),
                _ => None,
            })
            .sum()
    }

    /// Whether any wire-level fault targets `node` at `iteration`
    /// (cheap pre-check before consulting the per-kind accessors).
    pub fn has_wire_faults(&self, node: usize, iteration: usize) -> bool {
        self.events.iter().any(|e| {
            e.node == node
                && e.iteration == iteration
                && matches!(
                    e.kind,
                    FaultKind::SeverLink { .. }
                        | FaultKind::CorruptFrame { .. }
                        | FaultKind::DelayFrames { .. }
                )
        })
    }

    /// Whether any chunk-level fault targets `node` at `iteration`
    /// (cheap pre-check before walking every chunk index).
    pub fn has_chunk_faults(&self, node: usize, iteration: usize) -> bool {
        self.events.iter().any(|e| {
            e.node == node
                && e.iteration == iteration
                && matches!(
                    e.kind,
                    FaultKind::DropChunk { .. }
                        | FaultKind::CorruptChunk { .. }
                        | FaultKind::DuplicateChunk { .. }
                )
        })
    }
}

/// SplitMix64 (Steele et al.): a tiny, platform-independent PRNG. Kept
/// crate-private and inline so plan generation has no dependencies and
/// its stream is frozen — changing it would silently re-seed every plan
/// (and every job-arrival plan in [`crate::arrivals`]).
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` from one PRNG step (53 mantissa bits).
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw; always consumes exactly one PRNG step so event
    /// streams stay aligned across probability changes.
    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_reports_nothing() {
        let p = FaultPlan::none();
        assert!(p.events.is_empty());
        assert!(!p.crashed(0, 100));
        assert_eq!(p.straggle_factor(0, 0), 1.0);
        assert_eq!(p.chunk_drops(0, 0, 0), 0);
        assert!(!p.chunk_corrupted(0, 0, 0));
        assert!(!p.chunk_duplicated(0, 0, 0));
        assert!(!p.has_chunk_faults(0, 0));
    }

    #[test]
    fn crash_is_permanent_from_its_iteration() {
        let p = FaultPlan::none().crash(3, 5);
        assert!(!p.crashed(3, 4));
        assert!(p.crashed(3, 5));
        assert!(p.crashed(3, 99));
        assert!(!p.crashed(2, 99));
    }

    #[test]
    fn straggle_factors_compound_and_clamp() {
        let p = FaultPlan::none().straggle(1, 2, 3.0).straggle(1, 2, 2.0).straggle(1, 3, 0.5);
        assert_eq!(p.straggle_factor(1, 2), 6.0);
        // Sub-unit factors clamp to nominal: a straggler is never faster.
        assert_eq!(p.straggle_factor(1, 3), 1.0);
        assert_eq!(p.straggle_factor(1, 4), 1.0);
    }

    #[test]
    fn chunk_faults_are_keyed_precisely() {
        let p = FaultPlan::none()
            .drop_chunk(0, 1, 2, 3)
            .drop_chunk(0, 1, 2, 1)
            .corrupt_chunk(4, 0, 7)
            .duplicate_chunk(2, 2, 0);
        assert_eq!(p.chunk_drops(0, 1, 2), 4);
        assert_eq!(p.chunk_drops(0, 1, 3), 0);
        assert_eq!(p.chunk_drops(0, 2, 2), 0);
        assert!(p.chunk_corrupted(4, 0, 7));
        assert!(!p.chunk_corrupted(4, 0, 6));
        assert!(p.chunk_duplicated(2, 2, 0));
        assert!(p.has_chunk_faults(0, 1));
        assert!(!p.has_chunk_faults(0, 0));
    }

    #[test]
    fn random_plans_are_reproducible() {
        let rates = FaultRates {
            crash: 0.02,
            straggle: 0.1,
            straggle_factor: 6.0,
            drop_chunk: 0.05,
            corrupt_chunk: 0.01,
            duplicate_chunk: 0.03,
            ..FaultRates::default()
        };
        let a = FaultPlan::random(42, 8, 20, 4, &rates);
        let b = FaultPlan::random(42, 8, 20, 4, &rates);
        assert_eq!(a, b, "same seed must reproduce the same plan");
        let c = FaultPlan::random(43, 8, 20, 4, &rates);
        assert_ne!(a, c, "different seeds should differ at these rates");
    }

    #[test]
    fn random_crashed_nodes_stop_faulting() {
        let rates = FaultRates { crash: 1.0, ..FaultRates::default() };
        let p = FaultPlan::random(7, 4, 10, 2, &rates);
        // Every node crashes exactly once, in iteration 0.
        assert_eq!(p.events.len(), 4);
        for e in &p.events {
            assert_eq!(e.iteration, 0);
            assert!(matches!(e.kind, FaultKind::Crash));
        }
    }

    #[test]
    fn zero_rates_give_empty_plan() {
        let p = FaultPlan::random(1, 16, 50, 8, &FaultRates::default());
        assert!(p.events.is_empty());
    }

    #[test]
    fn record_into_emits_planned_spans_and_counters() {
        use cosmic_telemetry::{counters, TraceSink};
        let plan = FaultPlan::none()
            .crash(3, 5)
            .straggle(1, 2, 4.0)
            .drop_chunk(0, 1, 2, 3)
            .corrupt_chunk(2, 0, 1)
            .duplicate_chunk(2, 0, 1);
        let sink = TraceSink::new();
        plan.record_into(&sink);
        let sums = sink.sums();
        assert_eq!(sums[counters::FAULTS_PLANNED_CRASHES], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_STRAGGLES], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_DROPS], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_CORRUPTIONS], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_DUPLICATES], 1.0);
        let spans = sink.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].name, "fault.crash");
        assert_eq!(spans[0].start, 5.0);
        assert_eq!(spans[0].args[0], ("node".to_string(), "3".to_string()));
        assert!(sink.validate_tree().is_ok());
    }

    #[test]
    fn display_forms() {
        assert_eq!(FaultKind::Crash.to_string(), "crash");
        assert!(FaultKind::Straggle { factor: 4.0 }.to_string().contains("x4"));
        assert!(FaultKind::DropChunk { chunk: 1, repeats: 2 }.to_string().contains("chunk=1"));
        assert_eq!(FaultKind::Rejoin.to_string(), "rejoin");
        let p = FaultKind::Partition { minority: minority_mask(&[1, 3]), heal_after: 2 };
        assert_eq!(p.to_string(), "partition(minority=[1,3], heal_after=2)");
    }

    #[test]
    fn rejoin_closes_the_down_window() {
        let p = FaultPlan::none().crash_then_rejoin(3, 5, 4);
        assert!(!p.crashed(3, 4));
        assert!(p.crashed(3, 5));
        assert!(p.crashed(3, 8));
        assert!(!p.crashed(3, 9), "the node is back from the rejoin iteration");
        assert!(p.rejoined_at(3, 9));
        assert!(!p.rejoined_at(3, 8));
        // A second crash after the rejoin opens a new window.
        let p = p.crash(3, 12);
        assert!(!p.crashed(3, 11));
        assert!(p.crashed(3, 12));
        assert!(p.crashed(3, 99));
    }

    #[test]
    fn partition_quiesces_exactly_the_minority_for_exactly_the_window() {
        let p = FaultPlan::none().partition(4, &[1, 2], 3);
        for node in [1, 2] {
            assert!(!p.quiesced(node, 3));
            assert!(p.quiesced(node, 4));
            assert!(p.quiesced(node, 6));
            assert!(!p.quiesced(node, 7), "healed at start of iteration 7");
        }
        assert!(!p.quiesced(0, 5), "the majority side keeps running");
        assert_eq!(p.partitions_starting_at(4), vec![(minority_mask(&[1, 2]), 7)]);
        assert!(p.partitions_starting_at(5).is_empty());
    }

    #[test]
    fn minority_mask_roundtrips_and_ignores_unrepresentable_ids() {
        assert_eq!(minority_nodes(minority_mask(&[0, 5, 63])), vec![0, 5, 63]);
        assert_eq!(minority_mask(&[64, 100]), 0);
        assert!(!FaultPlan::none().partition(0, &[2], 2).quiesced(64, 0));
    }

    #[test]
    fn random_churn_brings_crashed_nodes_back() {
        let rates = FaultRates { crash: 1.0, rejoin_after: 2, ..FaultRates::default() };
        let p = FaultPlan::random(9, 3, 8, 2, &rates);
        // crash=1.0: every node crashes the moment it is up, rejoins two
        // iterations later, and immediately crashes again.
        for node in 0..3 {
            assert!(p.crashed(node, 0));
            assert!(p.rejoined_at(node, 2));
            assert!(p.crashed(node, 2), "re-crash on the rejoin iteration");
        }
        let rejoins = p.events.iter().filter(|e| matches!(e.kind, FaultKind::Rejoin)).count();
        assert!(rejoins >= 3);
    }

    #[test]
    fn random_partitions_are_strict_minorities_and_never_overlap() {
        let rates = FaultRates { partition: 0.5, partition_heal_after: 3, ..FaultRates::default() };
        let p = FaultPlan::random(13, 8, 40, 2, &rates);
        let partitions: Vec<(usize, u64, usize)> = p
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Partition { minority, heal_after } => {
                    Some((e.iteration, minority, heal_after))
                }
                _ => None,
            })
            .collect();
        assert!(!partitions.is_empty(), "rate 0.5 over 40 iterations must fire");
        let mut prev_end = 0;
        for (start, minority, heal_after) in partitions {
            assert!(start >= prev_end, "partitions must not overlap");
            prev_end = start + heal_after;
            let size = minority.count_ones() as usize;
            assert!(size >= 1 && 2 * size < 8, "strict minority, got {size}");
        }
        let again = FaultPlan::random(13, 8, 40, 2, &rates);
        assert_eq!(p, again, "partition sampling must be seed-deterministic");
    }

    #[test]
    fn wire_faults_are_keyed_precisely() {
        let p = FaultPlan::none()
            .sever_link(1, 3, 2)
            .sever_link(1, 3, 5)
            .corrupt_frame(0, 2, 1)
            .delay_frames(2, 4, 5)
            .delay_frames(2, 4, 7);
        assert_eq!(p.sever_at(1, 3), Some(2), "earliest cut wins");
        assert_eq!(p.sever_at(1, 4), None);
        assert_eq!(p.sever_at(0, 3), None);
        assert!(p.frame_corrupted(0, 2, 1));
        assert!(!p.frame_corrupted(0, 2, 0));
        assert!(!p.frame_corrupted(0, 1, 1));
        assert_eq!(p.frame_delay_millis(2, 4), 12, "delay events sum");
        assert_eq!(p.frame_delay_millis(2, 5), 0);
        assert!(p.has_wire_faults(1, 3));
        assert!(!p.has_wire_faults(1, 2));
        // Wire faults are invisible to the chunk-level accessors.
        assert!(!p.has_chunk_faults(1, 3));
        assert!(!p.chunk_corrupted(0, 2, 1));
    }

    #[test]
    fn wire_rates_extend_without_reseeding_the_base_schedule() {
        let base =
            FaultRates { crash: 0.05, drop_chunk: 0.05, rejoin_after: 2, ..FaultRates::default() };
        let wired = FaultRates {
            sever_link: 0.2,
            corrupt_frame: 0.1,
            delay_frames: 0.2,
            delay_millis: 3,
            ..base
        };
        let plain = FaultPlan::random(21, 6, 30, 3, &base);
        let extended = FaultPlan::random(21, 6, 30, 3, &wired);
        // The wire stream is independent: the base schedule is a strict
        // prefix of the extended plan's event list.
        assert_eq!(&extended.events[..plain.events.len()], &plain.events[..]);
        let wire_events = &extended.events[plain.events.len()..];
        assert!(!wire_events.is_empty(), "these rates over 30 iterations must fire");
        for e in wire_events {
            assert!(
                matches!(
                    e.kind,
                    FaultKind::SeverLink { .. }
                        | FaultKind::CorruptFrame { .. }
                        | FaultKind::DelayFrames { .. }
                ),
                "only wire kinds may follow the base schedule, got {}",
                e.kind
            );
            assert!(!extended.crashed(e.node, e.iteration), "down nodes have no live link");
            if let FaultKind::DelayFrames { millis } = e.kind {
                assert_eq!(millis, 3);
            }
        }
        assert_eq!(extended, FaultPlan::random(21, 6, 30, 3, &wired), "seed-deterministic");
    }

    #[test]
    fn wire_display_forms() {
        assert_eq!(FaultKind::SeverLink { at_chunk: 2 }.to_string(), "sever(at_chunk=2)");
        assert_eq!(FaultKind::CorruptFrame { chunk: 1 }.to_string(), "corrupt_frame(chunk=1)");
        assert_eq!(FaultKind::DelayFrames { millis: 5 }.to_string(), "delay_frames(5ms)");
    }

    #[test]
    fn record_into_books_wire_faults() {
        use cosmic_telemetry::{counters, TraceSink};
        let plan =
            FaultPlan::none().sever_link(0, 1, 2).corrupt_frame(1, 1, 0).delay_frames(2, 1, 4);
        let sink = TraceSink::new();
        plan.record_into(&sink);
        let sums = sink.sums();
        assert_eq!(sums[counters::FAULTS_PLANNED_SEVERS], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_FRAME_CORRUPTIONS], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_DELAYS], 1.0);
        assert!(sink.spans().iter().any(|s| s.name == "fault.sever_link"));
    }

    #[test]
    fn record_into_books_rejoins_and_partitions() {
        use cosmic_telemetry::{counters, TraceSink};
        let plan = FaultPlan::none().crash_then_rejoin(1, 2, 3).partition(4, &[2], 2);
        let sink = TraceSink::new();
        plan.record_into(&sink);
        let sums = sink.sums();
        assert_eq!(sums[counters::FAULTS_PLANNED_CRASHES], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_REJOINS], 1.0);
        assert_eq!(sums[counters::FAULTS_PLANNED_PARTITIONS], 1.0);
        assert!(sink.spans().iter().any(|s| s.name == "fault.partition"));
    }
}
