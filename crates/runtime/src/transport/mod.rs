//! The transport seam between the iteration engine and the wire.
//!
//! The engine's collective round lends its partials to
//! [`Transport::round_lent`] and gets the same buffers back. The wire is
//! a backend choice: [`SimTransport`], the caller as the wire (the
//! default), or [`TcpTransport`], loopback sockets carrying the
//! checksummed frames of [`wire`] under the fault-injecting `WireShim`,
//! where a link that exhausts its retry budget is a [`DeadLink`] the
//! engine books through membership. Neither creates a thread per round.
//!
//! The link protocol is [`link`]'s state machines, which do no I/O;
//! `supervisor` drives them over sockets, a served link on its reader
//! thread and a sending link on the thread that sends (the round's
//! caller for [`TcpTransport`], each worker of the multi-process
//! launcher, [`proc`]). On a healthy run both backends give identical
//! conservation counters and a bit-identical model for the same topology
//! and seed.

pub mod link;
pub mod proc;
mod sim;
mod supervisor;
mod tcp;
pub mod wire;

pub use sim::SimTransport;
pub use tcp::TcpTransport;

use std::time::Duration;

use cosmic_collectives::codec::{CodecStats, WireRepr, WORD_BYTES};
use cosmic_sim::faults::FaultPlan;

use crate::buffer::WordBuf;
use crate::error::RuntimeError;
use crate::node::{chunk_views, grid_chunks, AggregateOutcome, Chunk, SigmaAggregator};
use crate::trainer::{ClusterConfig, RetryPolicy};

/// Which wire the collective round runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The in-process discrete-event path, the caller as the wire.
    #[default]
    Sim,
    /// Loopback TCP, supervised, with socket-level fault injection.
    Tcp,
}

impl TransportKind {
    /// Parses a `--transport {sim,tcp}` flag value.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "sim" => Some(TransportKind::Sim),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

/// Wall-clock deadlines for real-wire links. Irrelevant to (and
/// ignored by) the discrete-event backend, whose time is virtual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Deadline on establishing a connection, in milliseconds.
    pub connect_timeout_ms: u64,
    /// Deadline on any single blocking read or write, in milliseconds.
    /// This bounds how long a receiver waits on a silent peer.
    pub read_timeout_ms: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { connect_timeout_ms: 1_000, read_timeout_ms: 2_000 }
    }
}

impl LinkConfig {
    /// Validates the deadlines (zero would make blocking calls
    /// unbounded or instantly failing, both useless).
    pub fn validate(&self) -> Result<(), String> {
        if self.connect_timeout_ms == 0 || self.read_timeout_ms == 0 {
            return Err("link timeouts must be non-zero".to_string());
        }
        Ok(())
    }

    /// The connect deadline as a [`Duration`].
    pub(crate) fn connect_timeout(&self) -> Duration {
        Duration::from_millis(self.connect_timeout_ms)
    }

    /// The per-call read/write deadline as a [`Duration`].
    pub(crate) fn read_timeout(&self) -> Duration {
        Duration::from_millis(self.read_timeout_ms)
    }
}

/// Wire accounting for one round (or one connection's share of it);
/// the sim backend books nothing. On a healthy real-wire run frames and
/// bytes sent equal those received. A stream dropped cold (a sever, a
/// damaged frame, a delivery nobody answered) is booked by its sender
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Frames placed on the wire.
    pub frames_sent: u64,
    /// Frames decoded intact off the wire.
    pub frames_received: u64,
    /// Encoded bytes written.
    pub bytes_sent: u64,
    /// Encoded bytes of intact frames read.
    pub bytes_received: u64,
    /// Heartbeat frames observed by the receive side.
    pub heartbeats: u64,
    /// Supervised reconnects after a connect or stream failure.
    pub reconnects: u64,
    /// Connections the server accepted and got a first stream from. On
    /// a healthy run this is the number of links ever used — a round
    /// opens none — and each reconnect adds the one that replaced it.
    pub connections: u64,
    /// Links declared dead after the retry budget exhausted.
    pub links_dead: u64,
}

impl TransportStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.heartbeats += other.heartbeats;
        self.reconnects += other.reconnects;
        self.connections += other.connections;
        self.links_dead += other.links_dead;
    }

    /// Whether nothing was booked (the sim backend's permanent state).
    pub(crate) fn is_empty(&self) -> bool {
        *self == TransportStats::default()
    }
}

/// A link the supervisor gave up on: the engine books it through
/// membership instead of hanging the round.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLink {
    /// The unreachable node.
    pub node: usize,
    /// Connection attempts spent before giving up.
    pub attempts: u32,
    /// The terminal failure.
    pub error: RuntimeError,
}

/// What one collective round delivered.
#[derive(Debug)]
pub struct RoundDelivery {
    /// The validated fold over every stream that arrived complete.
    pub outcome: AggregateOutcome,
    /// Links the supervisor declared dead this round (their streams
    /// contributed nothing to the fold).
    pub dead: Vec<DeadLink>,
    /// Wire accounting (empty for the sim backend).
    pub stats: TransportStats,
    /// What `ctx.repr` did to the partials (zero on a dense round),
    /// booked once per partial however often its stream was resent.
    pub codec: CodecStats,
}

/// Everything a backend needs to run one collective round.
#[derive(Debug, Clone, Copy)]
pub struct RoundCtx<'a> {
    /// The global aggregation iteration (fault-plan key).
    pub iteration: usize,
    /// Model length in words.
    pub model_len: usize,
    /// The run's fault plan (chunk-level faults apply on either wire;
    /// wire-level kinds only on real transports).
    pub plan: &'a FaultPlan,
    /// Reconnect/retransmission policy.
    pub retry: &'a RetryPolicy,
    /// The admitted sender node ids, ascending.
    pub senders: &'a [usize],
    /// The wire representation the partials travel under: they are raw,
    /// and `RoundCtx::wire_chunks` applies it for either backend, so both
    /// stay bit-identical.
    pub repr: WireRepr,
}

impl RoundCtx<'_> {
    /// `member`'s wire stream for this round, the one boundary where
    /// `repr` meets a lent partial `part`: dense chunks view it, a
    /// fixed-point partial is quantized once into grid chunks, a top-k one
    /// sparsified, then chunked. The plan's chunk corruption and
    /// duplication apply on top, giving `(chunk_index, chunk)` in send
    /// order, beside what the codec did. Every backend sends exactly this.
    pub(crate) fn wire_chunks(
        &self,
        member: usize,
        part: &WordBuf,
    ) -> (CodecStats, impl Iterator<Item = (usize, Chunk)> + '_) {
        let (stats, chunks) = match self.repr {
            WireRepr::DenseF64 => (CodecStats::default(), chunk_views(part)),
            WireRepr::FixedPoint { frac_bits } => {
                let (chunks, clipped) = grid_chunks(part, frac_bits);
                let stats = CodecStats {
                    dense_bytes: (part.len() * WORD_BYTES) as u64,
                    wire_bytes: self.repr.payload_bytes(part.len()) as u64,
                    clipped,
                    dropped: 0,
                };
                (stats, chunks)
            }
            WireRepr::TopK { .. } => {
                let (sparse, stats) = self.repr.transform(part);
                (stats, chunk_views(&WordBuf::from_vec(sparse)))
            }
        };
        let (plan, iteration) = (self.plan, self.iteration);
        let stream = chunks.into_iter().enumerate().flat_map(move |(ci, chunk)| {
            let chunk =
                if plan.chunk_corrupted(member, iteration, ci) { chunk.corrupted() } else { chunk };
            let duplicate = plan.chunk_duplicated(member, iteration, ci).then(|| chunk.clone());
            duplicate.into_iter().chain([chunk]).map(move |chunk| (ci, chunk))
        });
        (stats, stream)
    }
}

/// A wire backend for the collective round.
///
/// Implementations must uphold the seam invariant: given the same
/// senders and partials on a healthy wire, [`Transport::round_lent`]
/// returns the same [`AggregateOutcome`] (bit for bit) as every other
/// backend — the wire moves data, it never changes arithmetic.
pub trait Transport: Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> TransportKind;

    /// Streams every sender's raw partial (`parts[i]` is
    /// `ctx.senders[i]`'s) as `RoundCtx::wire_chunks` into `sigma`: the
    /// validated fold, any links that died, the wire and codec
    /// accounting. Each partial is lent, no word copied, and is back in
    /// its slot, the same allocation, when the call returns.
    fn round_lent(
        &self,
        ctx: &RoundCtx<'_>,
        sigma: &SigmaAggregator,
        parts: &mut [Option<Vec<f64>>],
    ) -> Result<RoundDelivery, RuntimeError>;

    /// [`Transport::round_lent`] over borrowed partials, each copied into
    /// a buffer of its own to lend: the copy a lent round spares.
    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        sigma: &SigmaAggregator,
        parts: &[Option<&[f64]>],
    ) -> Result<RoundDelivery, RuntimeError> {
        let mut owned: Vec<Option<Vec<f64>>> =
            parts.iter().map(|p| p.map(<[f64]>::to_vec)).collect();
        self.round_lent(ctx, sigma, &mut owned)
    }
}

/// Lends `parts` to `round` as arenas — each buffer moved into a
/// [`WordBuf`], no word copied — and puts each back in its slot when
/// `round` is done, even by unwinding. `round` must drop every view of
/// them first: the hand-back takes the allocation back only from its
/// last holder, and copies it out of a shared one.
pub(crate) fn lend<T>(
    parts: &mut [Option<Vec<f64>>],
    round: impl FnOnce(&[Option<WordBuf>]) -> T,
) -> T {
    struct HandBack<'p> {
        parts: &'p mut [Option<Vec<f64>>],
        arenas: Vec<Option<WordBuf>>,
    }
    impl Drop for HandBack<'_> {
        fn drop(&mut self) {
            for (slot, arena) in self.parts.iter_mut().zip(self.arenas.drain(..)) {
                *slot = arena.map(WordBuf::into_vec);
            }
        }
    }
    let arenas = parts.iter_mut().map(|part| part.take().map(WordBuf::from_vec)).collect();
    let lent = HandBack { parts, arenas };
    round(&lent.arenas)
}

/// Builds the configured backend. Binding the TCP listener can fail;
/// the sim backend cannot.
pub(crate) fn build(cfg: &ClusterConfig) -> Result<Box<dyn Transport>, RuntimeError> {
    match cfg.transport {
        TransportKind::Sim => Ok(Box::new(SimTransport)),
        TransportKind::Tcp => Ok(Box::new(TcpTransport::bind(cfg.link)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::RetryPolicy;

    #[test]
    fn transport_kind_parses_its_flag_values() {
        assert_eq!(TransportKind::parse("sim"), Some(TransportKind::Sim));
        assert_eq!(TransportKind::parse("tcp"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("quic"), None);
        assert_eq!(TransportKind::default(), TransportKind::Sim);
    }

    #[test]
    fn link_config_validates_deadlines() {
        assert!(LinkConfig::default().validate().is_ok());
        assert!(LinkConfig { connect_timeout_ms: 0, ..LinkConfig::default() }.validate().is_err());
        assert!(LinkConfig { read_timeout_ms: 0, ..LinkConfig::default() }.validate().is_err());
    }

    /// A lent partial is back in its slot when the round returns — the
    /// very allocation, its words untouched — on both wires, whatever the
    /// round met. On TCP the round's caller holds every view until its
    /// Sigma pass finishes.
    #[test]
    fn a_lent_partial_comes_back_the_same_allocation_whatever_the_round_met() {
        use crate::layout::CHUNK_WORDS;
        let (len, senders, retry) = (2 * CHUNK_WORDS + 5, [0usize, 1, 2], RetryPolicy::default());
        let none = FaultPlan::none;
        let dense = WireRepr::DenseF64;
        // (what, plan, repr, Sigma's staging trips, a link's send trips)
        let cases = [
            ("healthy", none(), dense, false, false),
            ("corrupt_chunk", none().corrupt_chunk(1, 0, 1), dense, false, false),
            ("duplicate_chunk", none().duplicate_chunk(2, 0, 0), dense, false, false),
            ("sever_link", none().sever_link(0, 0, 1), dense, false, false),
            ("corrupt_frame", none().corrupt_frame(1, 0, 2), dense, false, false),
            ("staging tripwire", none(), dense, true, false),
            ("dead link", none(), dense, false, true),
            ("fixed point", none(), WireRepr::FixedPoint { frac_bits: 20 }, false, false),
            ("top-k", none(), WireRepr::TopK { k: 100 }, false, false),
        ];
        for (what, plan, repr, staging, sending) in cases {
            let sigma = SigmaAggregator::default();
            let sigma = if staging { sigma.tripwired() } else { sigma };
            let tcp = TcpTransport::bind(LinkConfig::default()).expect("loopback");
            let tcp = if sending { tcp.tripwired() } else { tcp };
            for wire in [&SimTransport as &dyn Transport, &tcp] {
                for iteration in 0..8 {
                    let mut parts: Vec<Option<Vec<f64>>> = senders
                        .iter()
                        .map(|&n| Some((0..len).map(|i| (i * 7 + n) as f64 / 64.0).collect()))
                        .collect();
                    let trips = (staging || sending) && iteration == 0;
                    if let (true, Some(marked)) = (trips, &mut parts[1]) {
                        marked[0] = SigmaAggregator::TRIPWIRE;
                    }
                    let lent: Vec<(*const f64, Vec<f64>)> =
                        parts.iter().flatten().map(|p| (p.as_ptr(), p.clone())).collect();
                    let ctx = RoundCtx {
                        iteration,
                        model_len: len,
                        plan: &plan,
                        retry: &retry,
                        senders: &senders,
                        repr,
                    };
                    let delivery = wire.round_lent(&ctx, &sigma, &mut parts).expect("a round");
                    let at = format!("{what}, {:?} round {iteration}", wire.kind());
                    for (part, (ptr, words)) in parts.iter().zip(&lent) {
                        let part = part.as_ref().unwrap_or_else(|| panic!("{at}: slot emptied"));
                        assert_eq!(part.as_ptr(), *ptr, "{at}: a copy came back");
                        assert_eq!(part, words, "{at}");
                    }
                    let tripped = (staging, sending && wire.kind() == TransportKind::Tcp);
                    let lost = (delivery.outcome.quarantined.len(), delivery.dead.len());
                    let expect = match (what, tripped) {
                        (_, (true, _)) | ("corrupt_chunk", _) if iteration == 0 => (1, 0),
                        (_, (_, true)) if iteration == 0 => (0, 1),
                        _ => (0, 0),
                    };
                    assert_eq!(lost, expect, "{at}: quarantines and dead links");
                }
            }
        }
    }

    #[test]
    fn stats_merge_and_emptiness() {
        let mut a = TransportStats::default();
        assert!(a.is_empty());
        let b =
            TransportStats { frames_sent: 2, bytes_sent: 90, heartbeats: 1, ..Default::default() };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.frames_sent, 4);
        assert_eq!(a.bytes_sent, 180);
        assert_eq!(a.heartbeats, 2);
        assert!(!a.is_empty());
    }
}
