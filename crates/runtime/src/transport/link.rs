//! The link protocol with no socket inside it: both ends of a link as
//! state machines that do no I/O and read no clock, time coming in only
//! as an argument. A driver moves the bytes and hands over the time:
//! `supervisor`'s threads over `TcpStream` in production, plain byte
//! vectors in the tests.
//!
//! - [`ServedLink`], the receive end of one connection: bytes in through
//!   its [`FrameReader`], whole streams out, store-and-forward.
//! - `SendingLink`, one exchange of the send end: a stream's frames
//!   under its `WireShim` faults, the reply it awaits, its attempt
//!   count and the [`RetryPolicy`] backoff as the instant to try next,
//!   asked of its driver one `Step` at a time.

use std::time::{Duration, Instant};

use cosmic_collectives::codec::WireRepr;
use cosmic_sim::faults::FaultPlan;

use crate::checkpoint::model_checksum;
use crate::error::RuntimeError;
use crate::node::Chunk;
use crate::trainer::RetryPolicy;

use super::wire::{Frame, FrameKind, FrameReader, WireError, CHECKSUM_BYTES, HEADER_BYTES};
use super::TransportStats;

/// The receive end of one connection. Its grammar: `Hello`, then either
/// a join — `Hello(join)` delivered at once, then the joiner's `Ack` of
/// its `Snapshot` — or heartbeats, chunks and `Done`, one stream. Any
/// other frame, or a malformed one, is a typed error, and its driver
/// drops the connection: a stream that dies half-way delivers nothing.
/// With no stream open and no byte buffered the link is idle, and a read
/// deadline that passes is nobody's fault.
#[derive(Debug, Default)]
pub struct ServedLink {
    reader: FrameReader,
    open: Open,
    /// A stream has opened on this connection: the first books it.
    used: bool,
}

/// Where a [`ServedLink`] is in its grammar.
#[derive(Debug, Default)]
enum Open {
    #[default]
    Idle,
    /// A joiner was sent its `Snapshot` and owes the `Ack`.
    Joining,
    /// A round stream: its `Hello`, what it cost so far, its chunks.
    Round(Frame, TransportStats, Vec<Chunk>),
}

/// One stream a [`ServedLink`] read to its end.
#[derive(Debug)]
pub struct Streamed {
    /// The sender's node id.
    pub node: u32,
    /// What the stream cost the wire and, on a connection's first, the
    /// connection.
    pub stats: TransportStats,
    /// What it carried.
    pub carried: Carried,
}

/// What a [`Streamed`] carried.
#[derive(Debug)]
pub enum Carried {
    /// `Hello(join)`: the joiner awaits its catch-up `Snapshot`.
    Join,
    /// The joiner's `Ack` of its `Snapshot`: its model's checksum.
    Ack(u64),
    /// A round stream.
    Round {
        /// The iteration the sender stamped on it.
        iteration: u64,
        /// The sender's record count, from its `Done`.
        records: u64,
        /// Its chunks, in arrival order.
        chunks: Vec<Chunk>,
    },
}

impl ServedLink {
    /// The reader its driver puts the connection's bytes into.
    pub fn reader(&mut self) -> &mut FrameReader {
        &mut self.reader
    }

    /// The next stream the buffered bytes complete, if they complete one.
    pub fn poll(&mut self) -> Result<Option<Streamed>, WireError> {
        while let Some((frame, digest)) = self.reader.next_frame()? {
            let (node, kind, len) = (frame.node, frame.kind, frame.encoded_len() as u64);
            let booked =
                TransportStats { frames_received: 1, bytes_received: len, ..Default::default() };
            let (stats, carried) = match (std::mem::take(&mut self.open), kind) {
                (Open::Idle, FrameKind::Hello) => {
                    let connections = u64::from(!std::mem::replace(&mut self.used, true));
                    let stats = TransportStats { connections, ..booked };
                    if frame.a != 1 {
                        self.open = Open::Round(frame, stats, Vec::new());
                        continue;
                    }
                    self.open = Open::Joining;
                    (stats, Carried::Join)
                }
                (Open::Joining, FrameKind::Ack) => (booked, Carried::Ack(frame.b)),
                (Open::Round(hello, mut stats, mut chunks), kind) => {
                    stats.merge(&booked);
                    match kind {
                        FrameKind::Heartbeat => stats.heartbeats += 1,
                        // The words decoded off the socket are the words
                        // Sigma folds, and the digest taken as they were
                        // decoded is the one it checks.
                        FrameKind::Chunk => chunks.push(frame.into_chunk(digest)),
                        // A grid chunk is a view of its frame, a sparse
                        // one is decoded; its checksum travelled verbatim.
                        FrameKind::Encoded => chunks.push(frame.decode_encoded_chunk()?),
                        FrameKind::Done => {
                            let (iteration, records) = (hello.iteration, frame.b);
                            let carried = Carried::Round { iteration, records, chunks };
                            return Ok(Some(Streamed { node: hello.node, stats, carried }));
                        }
                        kind => return Err(refused(kind)),
                    }
                    self.open = Open::Round(hello, stats, chunks);
                    continue;
                }
                (_, kind) => return Err(refused(kind)),
            };
            return Ok(Some(Streamed { node, stats, carried }));
        }
        Ok(None)
    }

    /// A read deadline passed: an error unless the link is idle.
    pub fn timed_out(&self) -> Result<(), WireError> {
        match (&self.open, self.reader.is_empty()) {
            (Open::Idle, true) => Ok(()),
            _ => Err(WireError::from_io(std::io::ErrorKind::TimedOut.into())),
        }
    }
}

fn refused(kind: FrameKind) -> WireError {
    WireError::Protocol { detail: format!("{kind:?} frame out of place in the stream grammar") }
}

/// Plan-driven wire damage for one sender's round stream, read from the
/// run's [`FaultPlan`] once and owned, so it can travel with the stream:
/// the wire-level kinds — `SeverLink`, `CorruptFrame`, `DelayFrames` —
/// on a round's first attempt only. A deterministic plan that hit the
/// retransmission too would cut the link at the same chunk forever; one
/// clean retry models a transient fault recovered by reconnection. The
/// default shim injects nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireShim {
    /// The chunk index before which the first attempt is severed.
    sever: Option<usize>,
    /// Added latency before each of the first attempt's chunk frames.
    delay: Duration,
    /// The chunk indices whose first-attempt frames are damaged.
    corrupted: Vec<usize>,
}

impl WireShim {
    /// The shim for `node`'s stream of `chunks` chunk indices at
    /// `iteration`, read from `plan`.
    pub(super) fn new(plan: &FaultPlan, node: usize, iteration: usize, chunks: usize) -> Self {
        WireShim {
            sever: plan.sever_at(node, iteration),
            delay: Duration::from_millis(plan.frame_delay_millis(node, iteration)),
            corrupted: (0..chunks)
                .filter(|&ci| plan.frame_corrupted(node, iteration, ci))
                .collect(),
        }
    }
}

/// Damages an encoded frame the way a flaky link would: one payload bit
/// flips (a control frame's checksum, which has no payload), so the
/// receiver still frames the stream and fails on the checksum, not on
/// desynchronization.
fn damage(encoded: &mut [u8]) {
    let carries = encoded.len() > HEADER_BYTES + CHECKSUM_BYTES;
    let at = if carries { HEADER_BYTES } else { encoded.len().saturating_sub(1) };
    if let Some(byte) = encoded.get_mut(at) {
        *byte ^= 0x01;
    }
}

/// Wall milliseconds per unit of the [`RetryPolicy`] backoff curve.
const BACKOFF_UNIT_MS: f64 = 20.0;

/// Framed bytes a [`SendingLink`] holds before it asks for a write.
const FLUSH_BYTES: usize = 8 * 1024;

/// What one exchange sends, and the reply it awaits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outgoing<'s> {
    /// `Hello`, `Heartbeat`, the `(chunk_index, chunk)`s in order and
    /// `Done(records)`, under `shim`, in `repr`, answered by `expect`.
    Round {
        iteration: u64,
        chunks: &'s [(usize, Chunk)],
        records: u64,
        shim: &'s WireShim,
        repr: WireRepr,
        expect: FrameKind,
    },
    /// A join handshake: `Hello(join)`, answered by a `Snapshot` that
    /// the link acknowledges with its model's checksum.
    Join,
}

/// What a [`SendingLink`] asks of its driver next.
#[derive(Debug)]
pub(crate) enum Step<'a> {
    /// Drop any connection and dial; report `dialled` or `failed`.
    Dial,
    /// Write these bytes; report [`SendingLink::written`] or failed.
    Write(&'a [u8]),
    /// Read into [`SendingLink::reader`], or report failed.
    Read,
    /// Ask again at this instant: a retry's backoff or a planned delay.
    Wait(Instant),
    /// The reply, or the dead link, whose connection the driver drops.
    Done(Result<Frame, RuntimeError>),
}

/// One exchange on a sending link. It frames the stream through the
/// link's kept buffer, asks for a write whenever [`FLUSH_BYTES`] are
/// framed and once the stream is, then for reads until the reply. A
/// failed attempt — the driver's I/O, a planned sever, a malformed or
/// unexpected reply — drops the connection cold; the next waits out the
/// backoff and dials, until `max_retries` retries are spent. `WireShim`
/// faults apply only to attempt 0.
#[derive(Debug)]
pub(crate) struct SendingLink<'s> {
    node: usize,
    sending: Outgoing<'s>,
    retry: RetryPolicy,
    out: &'s mut Vec<u8>,
    reader: &'s mut FrameReader,
    attempt: u32,
    phase: Phase,
    /// Wire accounting of every attempt, `reconnects` the retries.
    pub(crate) stats: TransportStats,
}

#[derive(Debug)]
enum Phase {
    /// A dial, once a failed attempt's backoff ends at the instant.
    Dial(Option<Instant>),
    /// Framing frame `next`, once a planned delay ends at the instant.
    Send(usize, Option<Instant>),
    Reply,
    /// The reply is in; what is framed (a join's `Ack`) goes out first.
    Answered(Frame),
    Dead(RuntimeError),
}

impl<'s> SendingLink<'s> {
    /// The exchange `sending` from node `node`, over the link's kept
    /// buffers, on its live connection if `connected`.
    pub(crate) fn new(
        node: usize,
        sending: Outgoing<'s>,
        retry: RetryPolicy,
        (out, reader): (&'s mut Vec<u8>, &'s mut FrameReader),
        connected: bool,
    ) -> Self {
        out.clear();
        let phase = if connected { Phase::Send(0, None) } else { Phase::Dial(None) };
        let (attempt, stats) = (0, TransportStats::default());
        SendingLink { node, sending, retry, out, reader, attempt, phase, stats }
    }

    /// The next thing the exchange needs, at `now`.
    pub(crate) fn poll(&mut self, now: Instant) -> Step<'_> {
        loop {
            self.phase = match std::mem::replace(&mut self.phase, Phase::Reply) {
                Phase::Dial(Some(at)) if now < at => {
                    self.phase = Phase::Dial(Some(at));
                    return Step::Wait(at);
                }
                Phase::Dial(_) => {
                    *self.reader = FrameReader::default();
                    self.phase = Phase::Dial(None);
                    return Step::Dial;
                }
                Phase::Send(next, held) => {
                    let (frames, delay) = match self.sending {
                        Outgoing::Round { chunks, shim, .. } if self.attempt == 0 => {
                            let chunk = chunks.get(next.wrapping_sub(2));
                            let severs = chunk.is_some_and(|&(ci, _)| shim.sever == Some(ci));
                            (chunks.len() + 3, if severs { Duration::ZERO } else { shim.delay })
                        }
                        Outgoing::Round { chunks, .. } => (chunks.len() + 3, Duration::ZERO),
                        Outgoing::Join => (1, Duration::ZERO),
                    };
                    // A planned delay holds a chunk frame, after what is
                    // framed before it has gone out.
                    let delayed = (2..frames - 1).contains(&next) && !delay.is_zero();
                    let full = self.out.len() >= FLUSH_BYTES;
                    if !self.out.is_empty() && (next == frames || full || delayed && held.is_none())
                    {
                        self.phase = Phase::Send(next, held);
                        return Step::Write(&self.out[..]);
                    }
                    match held {
                        _ if next == frames => Phase::Reply,
                        None if delayed => Phase::Send(next, Some(now + delay)),
                        Some(at) if now < at => {
                            self.phase = Phase::Send(next, held);
                            return Step::Wait(at);
                        }
                        _ => match self.frame(next) {
                            Ok(()) => Phase::Send(next + 1, None),
                            Err(detail) => self.fail(now, detail),
                        },
                    }
                }
                Phase::Reply => match self.reader.next_frame() {
                    Ok(None) => {
                        self.phase = Phase::Reply;
                        return Step::Read;
                    }
                    Ok(Some((reply, _))) => self.answer(reply, now),
                    Err(err) => self.fail(now, format!("reply: {err}")),
                },
                Phase::Answered(reply) if self.out.is_empty() => return Step::Done(Ok(reply)),
                Phase::Answered(reply) => {
                    self.phase = Phase::Answered(reply);
                    return Step::Write(&self.out[..]);
                }
                Phase::Dead(error) => return Step::Done(Err(error)),
            }
        }
    }

    /// Frames the stream's frame `next` into the kept buffer, booking
    /// it, or fails the attempt on the plan's sever.
    fn frame(&mut self, next: usize) -> Result<(), String> {
        let (start, node, attempt) = (self.out.len(), self.node as u32, self.attempt);
        let control = |kind, iteration, a, b| Frame::control(kind, node, iteration, a, b);
        match self.sending {
            Outgoing::Join => control(FrameKind::Hello, 0, 1, 0).write_into(self.out),
            Outgoing::Round { iteration, chunks, records, shim, repr, .. } => match next {
                0 => control(FrameKind::Hello, iteration, 0, 0).write_into(self.out),
                1 => control(FrameKind::Heartbeat, iteration, 0, 0).write_into(self.out),
                n if n == chunks.len() + 2 => {
                    control(FrameKind::Done, iteration, 0, records).write_into(self.out);
                }
                n => {
                    let (ci, ref chunk) = chunks[n - 2];
                    if attempt == 0 && shim.sever == Some(ci) {
                        // Fail the attempt so the socket drops cold, as a
                        // dying NIC would.
                        return Err(format!("link severed by fault plan before chunk {ci}"));
                    }
                    Frame::write_chunk(self.out, node, iteration, chunk, repr);
                    if attempt == 0 && shim.corrupted.contains(&ci) {
                        damage(&mut self.out[start..]);
                    }
                }
            },
        }
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += (self.out.len() - start) as u64;
        Ok(())
    }

    /// Books the reply and judges it: the phase it leaves. A join's
    /// `Snapshot` is acknowledged with its model's checksum.
    fn answer(&mut self, reply: Frame, now: Instant) -> Phase {
        self.stats.frames_received += 1;
        self.stats.bytes_received += reply.encoded_len() as u64;
        let expect = match self.sending {
            Outgoing::Round { expect, .. } => expect,
            Outgoing::Join => FrameKind::Snapshot,
        };
        if reply.kind != expect {
            return self.fail(now, format!("expected {expect:?} reply, got {:?}", reply.kind));
        }
        if let Outgoing::Join = self.sending {
            let checksum = model_checksum(&reply.payload);
            let ack =
                Frame::control(FrameKind::Ack, self.node as u32, reply.iteration, 0, checksum);
            ack.write_into(self.out);
            self.stats.frames_sent += 1;
            self.stats.bytes_sent += self.out.len() as u64;
        }
        Phase::Answered(reply)
    }

    /// A new connection is live: the attempt starts on it.
    pub(crate) fn dialled(&mut self) {
        self.phase = Phase::Send(0, None);
    }

    /// The bytes of the last [`Step::Write`] are on the connection.
    pub(crate) fn written(&mut self) {
        self.out.clear();
    }

    /// The reader its driver puts the connection's bytes into.
    pub(crate) fn reader(&mut self) -> &mut FrameReader {
        self.reader
    }

    /// The driver's I/O failed the attempt at `now`; `detail` says how.
    pub(crate) fn failed(&mut self, now: Instant, detail: String) {
        self.phase = self.fail(now, detail);
    }

    /// Ends the attempt: the phase that follows, a retry's backoff or,
    /// with the budget spent, the dead link.
    fn fail(&mut self, now: Instant, detail: String) -> Phase {
        self.attempt += 1;
        self.out.clear();
        if self.attempt > self.retry.max_retries {
            let (peer, attempts) = (self.node, self.attempt);
            return Phase::Dead(RuntimeError::TransportFailed { peer, attempts, detail });
        }
        self.stats.reconnects += 1;
        let units = self.retry.delay(self.attempt - 1);
        Phase::Dial(Some(now + Duration::from_millis((units * BACKOFF_UNIT_MS).round() as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node `node`'s round stream for `iteration`, one chunk, as bytes.
    fn stream(node: u32, iteration: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for kind in [FrameKind::Hello, FrameKind::Heartbeat] {
            Frame::control(kind, node, iteration, 0, 0).write_into(&mut out);
        }
        Frame::chunk(node, iteration, &Chunk::new(0, vec![1.0, 2.0])).write_into(&mut out);
        Frame::control(FrameKind::Done, node, iteration, 0, 9).write_into(&mut out);
        out
    }

    #[test]
    fn an_idle_link_is_not_a_silent_peer() {
        // Read deadlines that pass between rounds, a compute phase long,
        // cost nothing: one holds only a stream in progress to account.
        let mut link = ServedLink::default();
        let mut delivered = Vec::new();
        for iteration in 0..2 {
            link.reader().feed(&stream(4, iteration));
            delivered.push(link.poll().unwrap().expect("a whole stream").stats);
            for _ in 0..3 {
                assert_eq!(link.timed_out(), Ok(()));
            }
        }
        let booked: Vec<_> = delivered.iter().map(|s| (s.connections, s.frames_received)).collect();
        assert_eq!(booked, [(1, 4), (0, 4)], "one connection, two streams");
        // From a stream's first byte the deadline is the sender's.
        for cut in [1, HEADER_BYTES + 8 + 3] {
            let mut link = ServedLink::default();
            link.reader().feed(&stream(4, 0)[..cut]);
            assert!(link.poll().unwrap().is_none());
            assert!(link.timed_out().is_err_and(|e| e.is_io()), "cut at {cut}");
        }
    }

    /// One exchange over byte vectors, time starting at `t0` and moving
    /// only when the link waits. Each dial meets a fresh served link,
    /// through `wire` (given the dial count), which may damage the bytes:
    /// a stream it completes is answered `Ack`, one it refuses drops the
    /// connection. The verdict, and the instants the link waited until.
    fn pipe(
        link: &mut SendingLink<'_>,
        t0: Instant,
        wire: impl Fn(usize, &mut Vec<u8>),
    ) -> (Result<Frame, RuntimeError>, Vec<Instant>) {
        let (mut now, mut waits, mut dials) = (t0, Vec::new(), 0);
        let mut served = ServedLink::default();
        loop {
            match link.poll(now) {
                Step::Dial => {
                    (served, dials) = (ServedLink::default(), dials + 1);
                    link.dialled();
                }
                Step::Write(bytes) => {
                    let mut bytes = bytes.to_vec();
                    wire(dials, &mut bytes);
                    served.reader().feed(&bytes);
                    link.written();
                }
                Step::Read => match served.poll() {
                    Ok(Some(done)) => {
                        let ack = Frame::control(FrameKind::Ack, done.node, 0, 0, 0);
                        link.reader().feed(&ack.encode());
                    }
                    refused => link.failed(now, format!("the server dropped it: {refused:?}")),
                },
                Step::Wait(at) => (now, _) = (at, waits.push(at)),
                Step::Done(done) => return (done, waits),
            }
        }
    }

    /// Node 1's round exchange of `chunks` under `retry`.
    fn exchange<'s>(
        (chunks, shim): (&'s [(usize, Chunk)], &'s WireShim),
        retry: RetryPolicy,
        buffers: &'s mut Buffers,
        connected: bool,
    ) -> SendingLink<'s> {
        let (repr, expect) = (WireRepr::DenseF64, FrameKind::Ack);
        let sending = Outgoing::Round { iteration: 0, chunks, records: 0, shim, repr, expect };
        SendingLink::new(1, sending, retry, (&mut buffers.0, &mut buffers.1), connected)
    }

    type Buffers = (Vec<u8>, FrameReader);

    fn one_chunk() -> ([(usize, Chunk); 1], WireShim, Buffers) {
        ([(0, Chunk::new(0, vec![1.0]))], WireShim::default(), Buffers::default())
    }

    #[test]
    fn a_delivery_dropped_unanswered_fails_the_attempt_at_once() {
        let retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let (chunks, shim, mut buffers) = one_chunk();
        let mut link = exchange((&chunks, &shim), retry, &mut buffers, true);
        let now = Instant::now();
        assert!(matches!(link.poll(now), Step::Write(bytes) if bytes.len() > 4 * HEADER_BYTES));
        link.written();
        assert!(matches!(link.poll(now), Step::Read));
        // The server shut the connection: the verdict is the very next
        // step, with no deadline waited out.
        link.failed(now, "UnexpectedEof".to_string());
        let Step::Done(verdict) = link.poll(now) else { panic!("a verdict at once") };
        assert!(
            matches!(verdict, Err(RuntimeError::TransportFailed { peer: 1, attempts: 1, .. })),
            "{verdict:?}"
        );
    }

    /// The redial curve: the `RetryPolicy` backoff, in wall time, from
    /// each failure.
    fn curve(t0: Instant, retry: RetryPolicy) -> Vec<Instant> {
        (0..retry.max_retries)
            .scan(t0, |at, k| {
                *at += Duration::from_millis((retry.delay(k) * BACKOFF_UNIT_MS).round() as u64);
                Some(*at)
            })
            .collect()
    }

    #[test]
    fn an_unreachable_peer_is_redialled_on_the_backoff_curve_until_the_link_dies() {
        let retry = RetryPolicy { max_retries: 3, ..RetryPolicy::default() };
        let (chunks, shim, mut buffers) = one_chunk();
        let mut link = exchange((&chunks, &shim), retry, &mut buffers, false);
        let (t0, mut waits) = (Instant::now(), Vec::new());
        let mut now = t0;
        let verdict = loop {
            match link.poll(now) {
                Step::Dial => link.failed(now, "connect: refused".to_string()),
                Step::Wait(at) => (now, _) = (at, waits.push(at)),
                Step::Done(verdict) => break verdict,
                step => panic!("nothing to write or read unconnected: {step:?}"),
            }
        };
        assert!(matches!(verdict, Err(RuntimeError::TransportFailed { attempts: 4, .. })));
        assert_eq!(waits, curve(t0, retry));
        assert_eq!(link.stats, TransportStats { reconnects: 3, ..TransportStats::default() });
    }

    #[test]
    fn wire_damage_on_every_attempt_exhausts_the_budget_on_the_curve() {
        let retry = RetryPolicy::default();
        let chunks = [(0, Chunk::new(0, vec![1.0, 2.0])), (1, Chunk::new(2, vec![3.0]))];
        let shim = WireShim::default();
        let stream = (&chunks[..], &shim);
        let flip = |bytes: &mut Vec<u8>| bytes[HEADER_BYTES] ^= 1;
        let (t0, mut buffers) = (Instant::now(), Default::default());
        let mut link = exchange(stream, retry, &mut buffers, false);
        let (verdict, waits) = pipe(&mut link, t0, |_, bytes| flip(bytes));
        let attempts = retry.max_retries + 1;
        let dead = matches!(verdict, Err(RuntimeError::TransportFailed { attempts: a, .. }) if a == attempts);
        assert!(dead, "{verdict:?}");
        assert_eq!(waits, curve(t0, retry), "one backoff before each retry, none after the last");
        let (sent, received) = (link.stats.frames_sent, link.stats.frames_received);
        assert_eq!((sent, received, link.stats.reconnects), (5 * u64::from(attempts), 0, 5));
        // The pipe delivers an undamaged attempt: the retry after the
        // last damaged one lands, at the backoff curve's instant.
        for clean in 1..=retry.max_retries as usize {
            let mut link = exchange(stream, retry, &mut buffers, false);
            let (verdict, waits) = pipe(&mut link, t0, |dial, b| {
                if dial <= clean {
                    flip(b)
                }
            });
            assert_eq!(verdict.map(|ack| ack.kind), Ok(FrameKind::Ack), "clean from {clean}");
            assert_eq!(waits, curve(t0, retry)[..clean], "clean from {clean}");
            assert_eq!(link.stats.reconnects, clean as u64);
        }
    }

    #[test]
    fn shim_reads_the_plan_for_its_node_and_iteration() {
        let plan =
            FaultPlan::none().sever_link(1, 2, 3).corrupt_frame(1, 2, 0).delay_frames(1, 2, 4);
        let shim = WireShim::new(&plan, 1, 2, 4);
        let read = |shim: &WireShim| (shim.sever, shim.delay, shim.corrupted.clone());
        assert_eq!(read(&shim), (Some(3), Duration::from_millis(4), vec![0]));
        assert_eq!(read(&WireShim::new(&plan, 0, 2, 4)), read(&WireShim::default()));
        assert_eq!(read(&WireShim::default()), (None, Duration::ZERO, vec![]));
    }

    #[test]
    fn damage_keeps_framing_but_breaks_the_checksum() {
        let chunk = Frame::chunk(0, 0, &Chunk::new(0, vec![1.0, 2.0]));
        for frame in [chunk, Frame::control(FrameKind::Done, 0, 0, 0, 0)] {
            let mut bytes = frame.encode();
            damage(&mut bytes);
            let err = Frame::decode(&bytes);
            assert!(matches!(err, Err(WireError::ChecksumMismatch { .. })), "{err:?}");
        }
    }

    #[test]
    fn planned_faults_hit_attempt_zero_and_a_delay_is_a_wait() {
        // Chunk 0's frame is delayed 4 ms and damaged, and the link is
        // severed before chunk 1 (no delay before a sever): attempt 1,
        // 3 ms of backoff later, lands clean.
        let plan =
            FaultPlan::none().delay_frames(1, 0, 4).corrupt_frame(1, 0, 0).sever_link(1, 0, 1);
        let chunks = [(0, Chunk::new(0, vec![1.0])), (1, Chunk::new(1, vec![2.0]))];
        let (shim, t0, mut buffers) =
            (WireShim::new(&plan, 1, 0, 2), Instant::now(), Buffers::default());
        let mut link = exchange((&chunks, &shim), RetryPolicy::default(), &mut buffers, false);
        let (verdict, waits) = pipe(&mut link, t0, |_, _| ());
        assert_eq!(verdict.map(|ack| ack.kind), Ok(FrameKind::Ack));
        let ms = |n| t0 + Duration::from_millis(n);
        assert_eq!(waits, [ms(4), ms(7)]);
        let stats = (link.stats.frames_sent, link.stats.frames_received, link.stats.reconnects);
        assert_eq!(stats, (3 + 5, 1, 1));
    }
}
