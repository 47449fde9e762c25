//! The connection supervisor: the one place a real-wire socket is
//! connected, accepted, armed with deadlines, retried and served. The
//! in-engine [`super::tcp::TcpTransport`] and the multi-process
//! launcher ([`super::proc`]) are both clients of its two halves, and a
//! link on either side lives as long as its connection, not its round:
//!
//! - [`RoundSender`] keeps its armed connection between exchanges and
//!   retries an exchange under the capped-exponential [`RetryPolicy`];
//!   only a failed attempt drops the connection cold and redials.
//!   [`RoundSender::send_round`] pushes one complete chunk stream
//!   (`Hello`, `Heartbeat`, chunks, `Done`) and awaits a typed reply;
//!   the launcher's join handshake rides the same loop. [`WireShim`]
//!   faults apply only to the first attempt, so a retransmission after
//!   a plan-injected sever or frame flip always lands.
//! - [`RoundServer`] owns the listener, one acceptor thread blocked in
//!   `accept`, and one reader thread per live connection that reads
//!   stream after stream store-and-forward and hands each to the
//!   delivery queue as a [`Served`]. Buffering the attempt means a
//!   stream that dies mid-round contributes **nothing** — the
//!   retransmission is the only delivery, so chunk-conservation
//!   counters match the discrete-event backend exactly. Callers only
//!   route what the queue yields, and a [`Served`] they drop unanswered
//!   shuts its connection, so the sender retransmits at once.
//!
//! Every blocking call on a stream in flight carries a deadline, so a
//! dead peer costs bounded time, never a hang: the failure surfaces as a
//! typed [`RuntimeError::TransportFailed`] and flows into the membership
//! machinery. An idle link is not a silent peer — the read deadline arms
//! at a stream's first byte.

use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cosmic_collectives::codec::WireRepr;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::RuntimeError;
use crate::node::{Chunk, Layout};
use crate::trainer::RetryPolicy;

use super::shim::{damage, WireShim};
use super::wire::{Frame, FrameKind, WireError};
use super::{LinkConfig, TransportStats};

/// The reply and accounting of one successful supervised round.
#[derive(Debug)]
pub(crate) struct SendReport {
    /// The reply frame the receiver closed the round with.
    pub reply: Frame,
    /// Wire accounting for every attempt, including failed ones
    /// (`reconnects` is the attempts spent beyond the first).
    pub stats: TransportStats,
}

/// A sender's armed connection: replies read through a buffer, a
/// stream's frames coalesced onto a second handle of the same socket.
#[derive(Debug)]
pub(super) struct Wire {
    pub(super) reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Wire {
    /// Writes one frame and flushes it onto the socket.
    pub(super) fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        frame.write_to(&mut self.writer)?;
        self.writer.flush().map_err(WireError::from_io)
    }
}

/// Wall milliseconds per unit of the virtual-time [`RetryPolicy`]
/// backoff curve when it paces reconnects.
const BACKOFF_UNIT_MS: u64 = 20;

/// One supervised sender link, named by the worker-side `node` id. The
/// connection outlives the exchange: the next one reuses it.
#[derive(Debug)]
pub(crate) struct RoundSender {
    /// The receiver's address.
    pub addr: SocketAddr,
    /// The sending node's id (also the link's name in errors).
    pub node: usize,
    /// Connect/read/write deadlines.
    pub link: LinkConfig,
    /// Reconnect backoff policy (shared with chunk retransmission).
    pub retry: RetryPolicy,
    /// Wire representation of the round: on a dense wire dense chunks
    /// travel as plain [`FrameKind::Chunk`] frames (the historical
    /// wire, byte-identical); grid chunks ride [`FrameKind::Encoded`]
    /// verbatim, and dense chunks on any other wire as the coordinate
    /// list of their non-zero words (`Frame::sparse_chunk`: lossless
    /// for the sparsified chunks of a top-k round).
    pub repr: WireRepr,
    wire: Option<Wire>,
}

impl RoundSender {
    /// An unconnected dense-wire link; the first exchange dials.
    pub(super) fn new(addr: SocketAddr, node: usize, link: LinkConfig, retry: RetryPolicy) -> Self {
        RoundSender { addr, node, link, retry, repr: WireRepr::DenseF64, wire: None }
    }

    /// Streams one round — `chunks` as `(chunk_index, chunk)` pairs, in
    /// order, duplicates included — and awaits a reply of kind
    /// `expect`. Reconnects with capped-exponential backoff on any
    /// failure; after the retry budget the link is declared dead with
    /// [`RuntimeError::TransportFailed`].
    pub(crate) fn send_round(
        &mut self,
        iteration: u64,
        chunks: &[(usize, Chunk)],
        records: u64,
        shim: &WireShim,
        expect: FrameKind,
    ) -> Result<SendReport, RuntimeError> {
        let (peer, node, repr) = (self.node, self.node as u32, self.repr);
        let control = |kind, b| Frame::control(kind, node, iteration, 0, b).encode();
        let mut stats = TransportStats::default();
        let reply = self.supervise(&mut stats, |wire, attempt, stats| {
            let fail = |detail: String| RuntimeError::TransportFailed {
                peer,
                attempts: attempt + 1,
                detail,
            };
            // Books each frame as it is pushed; the socket sees them
            // coalesced, flushed before the reply is awaited.
            let mut push = |wire: &mut Wire, bytes: &[u8]| {
                wire.writer.write_all(bytes).map_err(|e| fail(format!("write: {e}")))?;
                stats.frames_sent += 1;
                stats.bytes_sent += bytes.len() as u64;
                Ok::<(), RuntimeError>(())
            };
            let (sever, delay) = (shim.sever_at(attempt), shim.frame_delay(attempt));
            push(wire, &control(FrameKind::Hello, 0))?;
            push(wire, &control(FrameKind::Heartbeat, 0))?;
            for &(ci, ref chunk) in chunks {
                if sever == Some(ci) {
                    // A plan-injected sever: fail the attempt so the
                    // socket drops cold, as a dying NIC would, and let
                    // the reconnect loop recover the round.
                    return Err(fail(format!("link severed by fault plan before chunk {ci}")));
                }
                if !delay.is_zero() {
                    // The delay is wire latency: what is already pushed
                    // goes out first.
                    wire.writer.flush().map_err(|e| fail(format!("write: {e}")))?;
                    thread::sleep(delay);
                }
                let mut bytes = match (chunk.layout, repr) {
                    (Layout::Grid, _) => Frame::grid_chunk(node, iteration, chunk),
                    (Layout::Dense, WireRepr::DenseF64) => Frame::chunk(node, iteration, chunk),
                    (Layout::Dense, _) => Frame::sparse_chunk(node, iteration, chunk),
                }
                .encode();
                if shim.frame_corrupted(attempt, ci) {
                    damage(&mut bytes);
                }
                push(wire, &bytes)?;
            }
            push(wire, &control(FrameKind::Done, records))?;
            wire.writer.flush().map_err(|e| fail(format!("write: {e}")))?;
            let reply = take(&mut wire.reader, stats).map_err(|err| match err {
                // Stream-level trouble is a transport failure, a
                // malformed frame a corruption report; both retry.
                err if err.is_io() => fail(err.to_string()),
                err => RuntimeError::FrameCorrupt { peer, offset: 0, detail: err.to_string() },
            })?;
            if reply.kind != expect {
                return Err(RuntimeError::FrameCorrupt {
                    peer,
                    offset: reply.a as usize,
                    detail: format!("expected {expect:?} reply, got {:?}", reply.kind),
                });
            }
            Ok(reply)
        })?;
        Ok(SendReport { reply, stats })
    }

    /// The one retry loop: runs `exchange` over the link's armed
    /// connection — the one the last exchange left, or a fresh dial —
    /// until it succeeds or the budget exhausts. A failed attempt's
    /// socket is dropped cold; each reconnect is booked and waits out
    /// the virtual-time [`RetryPolicy`] curve, scaled to wall
    /// milliseconds by [`BACKOFF_UNIT_MS`].
    pub(super) fn supervise<T>(
        &mut self,
        stats: &mut TransportStats,
        mut exchange: impl FnMut(&mut Wire, u32, &mut TransportStats) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let budget = self.retry.max_retries.saturating_add(1);
        let mut last = "never attempted".to_string();
        for attempt in 0..budget {
            if attempt > 0 {
                stats.reconnects += 1;
                let units = self.retry.delay(attempt - 1);
                thread::sleep(Duration::from_millis(
                    (units * BACKOFF_UNIT_MS as f64).round() as u64
                ));
            }
            let outcome = self.armed(attempt).and_then(|wire| exchange(wire, attempt, &mut *stats));
            match outcome {
                Ok(value) => return Ok(value),
                Err(err) => {
                    self.wire = None;
                    last = err.to_string();
                }
            }
        }
        Err(RuntimeError::TransportFailed { peer: self.node, attempts: budget, detail: last })
    }

    /// The link's connection, dialled within the connect deadline if the
    /// last exchange left none.
    fn armed(&mut self, attempt: u32) -> Result<&mut Wire, RuntimeError> {
        let wire = match self.wire.take() {
            Some(wire) => wire,
            None => self.connect().map_err(|e| RuntimeError::TransportFailed {
                peer: self.node,
                attempts: attempt + 1,
                detail: format!("connect: {e}"),
            })?,
        };
        Ok(self.wire.insert(wire))
    }

    fn connect(&self) -> io::Result<Wire> {
        let stream = dial(&self.addr, &self.link)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Wire { reader: BufReader::new(stream), writer })
    }
}

/// The receive side of every real wire: one loopback listener, an
/// acceptor thread, a reader thread per live connection, and the queue
/// both the in-engine transport and the launcher's coordinator drain.
/// Dropping it wakes the acceptor, shuts every live connection and
/// joins every thread.
#[derive(Debug)]
pub(crate) struct RoundServer {
    addr: SocketAddr,
    deliveries: Receiver<Option<Served>>,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// What the acceptor, the readers and the server handle share.
#[derive(Debug)]
struct Shared {
    /// The deadlines every served connection is armed with.
    link: LinkConfig,
    /// The delivery queue; `None` is a [`Waker::wake`].
    queue: Sender<Option<Served>>,
    live: Mutex<Live>,
}

/// The live connections, each with the thread reading it.
#[derive(Debug, Default)]
struct Live {
    closing: bool,
    readers: Vec<(Arc<TcpStream>, JoinHandle<()>)>,
}

impl RoundServer {
    /// Binds a fresh loopback listener (ephemeral port) and starts
    /// accepting.
    pub(super) fn bind(link: LinkConfig) -> Result<Self, RuntimeError> {
        let fail = |detail: String| RuntimeError::TransportFailed { peer: 0, attempts: 0, detail };
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| fail(format!("bind: {e}")))?;
        let addr = listener.local_addr().map_err(|e| fail(format!("local_addr: {e}")))?;
        let (queue, deliveries) = channel::unbounded();
        let shared = Arc::new(Shared { link, queue, live: Mutex::default() });
        let accepting = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("cosmic-link-acceptor".to_string())
            .spawn(move || accept_links(&listener, &accepting))
            .map_err(|e| fail(format!("acceptor: {e}")))?;
        Ok(RoundServer { addr, deliveries, shared, acceptor: Some(acceptor) })
    }

    /// The address senders dial.
    pub(super) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The deadlines every served connection is armed with.
    pub(super) fn link(&self) -> LinkConfig {
        self.shared.link
    }

    /// The next delivery, in arrival order across every live
    /// connection. Blocks until one arrives, `deadline` passes, or
    /// another thread calls [`Waker::wake`] — the last two yield `None`,
    /// and the caller decides whether to keep waiting.
    pub(super) fn next(&self, deadline: Option<Instant>) -> Option<Served> {
        match deadline {
            Some(at) => {
                self.deliveries.recv_timeout(at.saturating_duration_since(Instant::now())).ok()
            }
            None => self.deliveries.recv().ok(),
        }
        .flatten()
    }

    /// A handle any thread can end one [`RoundServer::next`] wait with.
    pub(super) fn waker(&self) -> Waker {
        Waker(self.shared.queue.clone())
    }

    /// Drops cold every delivery still queued. Called between rounds,
    /// when whatever is queued is a stream its sender already gave up
    /// on, so iteration stamps are only ever compared with the round
    /// being served.
    pub(super) fn discard_stale(&self) {
        while self.deliveries.try_recv().is_ok() {}
    }
}

/// How a thread whose progress ends a [`RoundServer::next`] wait says
/// so without a poll.
#[derive(Debug, Clone)]
pub(super) struct Waker(Sender<Option<Served>>);

impl Waker {
    /// Makes one `next` (the current or the coming one) return `None`.
    pub(super) fn wake(&self) {
        let _ = self.0.send(None);
    }
}

impl Drop for RoundServer {
    fn drop(&mut self) {
        let readers = {
            let mut live = self.shared.live.lock();
            live.closing = true;
            std::mem::take(&mut live.readers)
        };
        // A throwaway connection gets the acceptor out of `accept`; it
        // sees `closing` and exits. If even that cannot connect the
        // thread is left to the process rather than waited on forever.
        if let (Ok(_), Some(acceptor)) = (dial(&self.addr, &self.shared.link), self.acceptor.take())
        {
            let _ = acceptor.join();
        }
        for (socket, _) in &readers {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for (_, reader) in readers {
            let _ = reader.join();
        }
        // Undrained deliveries hold connections (and, for a join, this
        // server's shared state): release them.
        self.discard_stale();
    }
}

/// The acceptor thread: blocks in `accept` and puts each connection on
/// a reader. A listener error ends it — senders then see refused
/// connects and report dead links, a typed failure rather than a spin.
fn accept_links(listener: &TcpListener, shared: &Arc<Shared>) {
    while let Ok((stream, _)) = listener.accept() {
        if shared.live.lock().closing {
            return;
        }
        let armed = arm(&stream, &shared.link).and_then(|()| stream.try_clone());
        if let Ok(socket) = armed {
            let peer =
                Peer { reader: BufReader::new(stream), socket: Arc::new(socket), fresh: true };
            adopt(shared, peer);
        }
    }
}

/// Puts `peer` on a reader thread of its own, forgetting readers whose
/// connections have ended. A server that is closing adopts nothing: the
/// connection drops.
fn adopt(shared: &Arc<Shared>, peer: Peer) {
    let mut live = shared.live.lock();
    if live.closing {
        return;
    }
    live.readers.retain(|(_, reader)| !reader.is_finished());
    let (socket, serving) = (Arc::clone(&peer.socket), Arc::clone(shared));
    let reader = thread::Builder::new()
        .name("cosmic-link-reader".to_string())
        .spawn(move || serve_link(peer, &serving));
    if let Ok(reader) = reader {
        live.readers.push((socket, reader));
    }
}

/// One accepted connection, owned by whichever thread reads it. Dropping
/// it shuts the socket under every other handle, so the sender notices
/// at once.
#[derive(Debug)]
struct Peer {
    reader: BufReader<TcpStream>,
    /// A second handle of the socket: replies, and shutdown.
    socket: Arc<TcpStream>,
    /// No complete stream yet: the first books the connection.
    fresh: bool,
}

impl Drop for Peer {
    fn drop(&mut self) {
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

/// The reader thread: serves stream after stream off one connection
/// until it ends — EOF, a bad frame, a deadline missed mid-stream, or a
/// join that hands the whole connection to the queue's consumer.
fn serve_link(mut peer: Peer, shared: &Arc<Shared>) {
    while let Ok((node, stats, round)) = peer.read_stream() {
        let Some((iteration, records, chunks)) = round else {
            let kind = ServedKind::Join(Handshake { peer, server: Arc::clone(shared) });
            let _ = shared.queue.send(Some(Served { node, kind, stats }));
            return;
        };
        let reply = Reply { socket: Arc::clone(&peer.socket), answered: false };
        let kind = ServedKind::Round { iteration, records, chunks, reply };
        if shared.queue.send(Some(Served { node, kind, stats })).is_err() {
            return;
        }
    }
}

/// A round stream's iteration stamp, record count and buffered chunks.
type RoundBody = (u64, u64, Vec<Chunk>);

impl Peer {
    /// Waits for the next stream and reads it to completion: `Hello`,
    /// then either a join handshake (`None`, returned at once) or
    /// heartbeats, chunks and `Done`. A stream that fails mid-way is an
    /// error and the connection is dropped cold.
    fn read_stream(&mut self) -> Result<(u32, TransportStats, Option<RoundBody>), WireError> {
        // An idle link is not a silent peer: wait out read deadlines
        // until a stream's first byte (or EOF) shows, and only from
        // there hold the sender to them.
        loop {
            match self.reader.fill_buf() {
                Ok([]) => return Err(WireError::from_io(ErrorKind::UnexpectedEof.into())),
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(WireError::from_io(e)),
            }
        }
        let mut stats = TransportStats::default();
        let hello = take(&mut self.reader, &mut stats)?;
        if hello.kind != FrameKind::Hello {
            return Err(WireError::Protocol {
                detail: format!("expected Hello to open the stream, got {:?}", hello.kind),
            });
        }
        stats.connections += u64::from(std::mem::take(&mut self.fresh));
        if hello.a == 1 {
            return Ok((hello.node, stats, None));
        }
        let mut chunks = Vec::new();
        loop {
            let frame = take(&mut self.reader, &mut stats)?;
            match frame.kind {
                FrameKind::Heartbeat => stats.heartbeats += 1,
                // `into_chunk` moves the payload out of the frame: the
                // words decoded off the socket are the words the Sigma
                // folds, with no per-frame copy.
                FrameKind::Chunk => chunks.push(frame.into_chunk()),
                // A grid chunk is a view of its frame, a sparse one is
                // decoded; either way the chunk checksum travelled
                // verbatim, so Sigma validation (including
                // corrupt-injection quarantine) is unchanged.
                FrameKind::Encoded => chunks.push(frame.decode_encoded_chunk()?),
                FrameKind::Done => {
                    return Ok((hello.node, stats, Some((hello.iteration, frame.b, chunks))))
                }
                other => {
                    return Err(WireError::Protocol {
                        detail: format!("unexpected {other:?} frame inside a round stream"),
                    })
                }
            }
        }
    }
}

/// Everything one served stream delivered. Dropping it unanswered shuts
/// its connection: the sender's retransmission is the only delivery.
#[derive(Debug)]
pub(crate) struct Served {
    /// The sending node's id (from its `Hello`).
    pub node: u32,
    /// Join handshake or round stream.
    pub kind: ServedKind,
    /// Wire accounting for this stream (and, on a connection's first,
    /// the connection itself).
    pub stats: TransportStats,
}

/// What a served stream carried.
#[derive(Debug)]
pub(crate) enum ServedKind {
    /// `Hello(join)`: a rejoin/catch-up handshake. Nothing else was
    /// read; the caller runs the join protocol on the connection.
    Join(Handshake),
    /// A complete round stream: `Hello`, heartbeats, chunks, `Done`.
    Round {
        /// The iteration the sender stamped on the stream.
        iteration: u64,
        /// The sender's record count from its `Done` frame.
        records: u64,
        /// The buffered chunk stream, in arrival order.
        chunks: Vec<Chunk>,
        /// Where the sender awaits its answer.
        reply: Reply,
    },
}

/// The reply a served round stream is owed. Dropped without one, it
/// shuts the connection.
#[derive(Debug)]
pub(crate) struct Reply {
    socket: Arc<TcpStream>,
    answered: bool,
}

impl Reply {
    /// Writes the reply frame, booking it into `stats`.
    pub(super) fn send(
        &mut self,
        frame: &Frame,
        stats: &mut TransportStats,
    ) -> Result<(), WireError> {
        put(&self.socket, frame, stats)?;
        self.answered = true;
        Ok(())
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            let _ = self.socket.shutdown(Shutdown::Both);
        }
    }
}

/// A joining peer's whole connection, handed over by its reader.
/// [`Handshake::resume`] gives it back to serve the peer's round
/// streams; dropping it instead shuts the connection.
#[derive(Debug)]
pub(crate) struct Handshake {
    peer: Peer,
    server: Arc<Shared>,
}

impl Handshake {
    /// Writes one frame to the joiner, booking it into `stats`.
    pub(super) fn send(
        &mut self,
        frame: &Frame,
        stats: &mut TransportStats,
    ) -> Result<(), WireError> {
        put(&self.peer.socket, frame, stats)
    }

    /// Reads and books the joiner's next frame.
    pub(super) fn take(&mut self, stats: &mut TransportStats) -> Result<Frame, WireError> {
        take(&mut self.peer.reader, stats)
    }

    /// Hands the connection back to the server: a reader thread serves
    /// whatever the peer streams next.
    pub(crate) fn resume(self) {
        adopt(&self.server, self.peer);
    }
}

/// Writes and books one frame on a served connection.
fn put(mut socket: &TcpStream, frame: &Frame, stats: &mut TransportStats) -> Result<(), WireError> {
    frame.write_to(&mut socket)?;
    stats.frames_sent += 1;
    stats.bytes_sent += frame.encoded_len() as u64;
    Ok(())
}

/// Reads and books one frame.
fn take(reader: &mut impl io::Read, stats: &mut TransportStats) -> Result<Frame, WireError> {
    let frame = Frame::read_from(reader)?;
    stats.frames_received += 1;
    stats.bytes_received += frame.encoded_len() as u64;
    Ok(frame)
}

/// Connects within the configured deadline and arms the socket.
fn dial(addr: &SocketAddr, link: &LinkConfig) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, link.connect_timeout())?;
    arm(&stream, link)?;
    Ok(stream)
}

/// Arms per-call read/write deadlines so no blocking socket call on a
/// stream in flight can outlive the configured budget.
fn arm(stream: &TcpStream, link: &LinkConfig) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(link.read_timeout()))?;
    stream.set_write_timeout(Some(link.read_timeout()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(node: u32, iteration: u64) -> Frame {
        Frame::control(FrameKind::Ack, node, iteration, 0, 0)
    }

    #[test]
    fn one_connection_serves_stream_after_stream() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        let addr = server.addr();
        let sender = thread::spawn(move || {
            let mut link = RoundSender::new(addr, 3, LinkConfig::default(), RetryPolicy::default());
            let shim = WireShim::default();
            (0..5u64)
                .map(|i| {
                    let report = link.send_round(i, &[], i + 10, &shim, FrameKind::Ack).unwrap();
                    report.stats.reconnects
                })
                .collect::<Vec<_>>()
        });
        let mut connections = 0;
        for i in 0..5u64 {
            let mut served = server.next(None).expect("a delivery");
            connections += served.stats.connections;
            let ServedKind::Round { iteration, records, ref mut reply, .. } = served.kind else {
                panic!("expected a round stream, got {served:?}");
            };
            assert_eq!((served.node, iteration, records), (3, i, i + 10));
            reply.send(&ack(3, i), &mut served.stats).unwrap();
        }
        assert_eq!(sender.join().unwrap(), [0; 5], "every exchange lands first try");
        assert_eq!(connections, 1, "five streams, one connection");
    }

    #[test]
    fn a_delivery_dropped_unanswered_fails_the_attempt_at_once() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        let retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let mut link = RoundSender::new(server.addr(), 1, LinkConfig::default(), retry);
        let sender = thread::spawn(move || {
            let started = Instant::now();
            let outcome = link.send_round(0, &[], 0, &WireShim::default(), FrameKind::Ack);
            (outcome, started.elapsed())
        });
        drop(server.next(None).expect("a delivery"));
        let (outcome, waited) = sender.join().unwrap();
        assert!(
            matches!(outcome, Err(RuntimeError::TransportFailed { peer: 1, attempts: 1, .. })),
            "{outcome:?}"
        );
        // The connection was shut, not left to the 2 s read deadline.
        assert!(waited < LinkConfig::default().read_timeout() / 4, "sender waited {waited:?}");
    }

    #[test]
    fn a_join_takes_the_whole_connection_and_resume_serves_what_follows() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        let addr = server.addr();
        let sender = thread::spawn(move || {
            let mut link = RoundSender::new(addr, 2, LinkConfig::default(), RetryPolicy::default());
            let mut join_stats = TransportStats::default();
            let snapshot = link
                .supervise(&mut join_stats, |wire, _, _| {
                    let attempt = |wire: &mut Wire| {
                        wire.send(&Frame::control(FrameKind::Hello, 2, 0, 1, 0))?;
                        let snapshot = Frame::read_from(&mut wire.reader)?;
                        wire.send(&ack(2, snapshot.iteration))?;
                        Ok(snapshot.kind)
                    };
                    attempt(wire).map_err(|e: WireError| RuntimeError::TransportFailed {
                        peer: 2,
                        attempts: 1,
                        detail: e.to_string(),
                    })
                })
                .unwrap();
            let round = link.send_round(7, &[], 3, &WireShim::default(), FrameKind::Ack).unwrap();
            (snapshot, join_stats.reconnects, round.stats.reconnects)
        });
        let mut joined = server.next(None).expect("the join");
        let ServedKind::Join(mut link) = joined.kind else {
            panic!("expected a join, got {joined:?}");
        };
        link.send(&Frame::control(FrameKind::Snapshot, 2, 7, 7, 0), &mut joined.stats).unwrap();
        assert_eq!(link.take(&mut joined.stats).unwrap().kind, FrameKind::Ack);
        link.resume();
        let mut round = server.next(None).expect("the round after the join");
        let ServedKind::Round { iteration, records, ref mut reply, .. } = round.kind else {
            panic!("expected a round stream, got {round:?}");
        };
        reply.send(&ack(2, 7), &mut round.stats).unwrap();
        assert_eq!((round.node, iteration, records), (2, 7, 3));
        assert_eq!((joined.stats.connections, round.stats.connections), (1, 0));
        assert_eq!(sender.join().unwrap(), (FrameKind::Snapshot, 0, 0));
    }

    #[test]
    fn a_wake_or_a_deadline_ends_the_wait_without_a_delivery() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        assert!(server.next(Some(Instant::now() + Duration::from_millis(5))).is_none());
        let waker = server.waker();
        thread::scope(|s| {
            s.spawn(move || waker.wake());
            assert!(server.next(None).is_none());
        });
    }
}
