//! The connection supervisor: the one place a real-wire socket is
//! connected, accepted, armed with deadlines, read or written, driving
//! the [`super::link`] state machines. A link lives as long as its
//! connection, not its round.
//!
//! - [`RoundSender`] keeps a link's connection and buffers between
//!   exchanges; an [`Exchange`] drives one [`SendingLink`] on the calling
//!   thread, to its end or until it awaits the reply to what it wrote.
//! - [`RoundServer`] owns the listener, an acceptor thread and a reader
//!   thread per connection, its [`ServedLink`]'s one driver, which queues
//!   each stream as a [`Delivery::Served`] and, once it drops the
//!   connection, a [`Delivery::Closed`]. A stream dropped unanswered
//!   shuts its connection, so the sender retransmits at once.
//!
//! No reader waits on a caller mid-stream, so a caller's blocking writes
//! always drain, and every blocking call on a stream in flight carries a
//! deadline: a dead peer costs bounded time, never a hang.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use cosmic_collectives::codec::WireRepr;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::RuntimeError;
use crate::node::Chunk;
use crate::trainer::{RetryPolicy, RETRY};

use super::link::{Carried, Outgoing, SendingLink, ServedLink, Step, Streamed, WireShim};
use super::wire::{Frame, FrameKind, FrameReader, WireError};
use super::{LinkConfig, TransportStats};

/// One supervised sender link from `node` to `addr`. The connection
/// outlives the exchange: the next one reuses it.
#[derive(Debug)]
pub(crate) struct RoundSender {
    addr: SocketAddr,
    pub node: usize,
    link: LinkConfig,
    socket: Option<TcpStream>,
    /// The frames the link writes and the replies it reads, kept.
    buffers: (Vec<u8>, FrameReader),
}

impl RoundSender {
    /// An unconnected link; the first exchange dials.
    pub(super) fn new(addr: SocketAddr, node: usize, link: LinkConfig) -> Self {
        RoundSender { addr, node, link, socket: None, buffers: Default::default() }
    }

    /// Streams one dense round — `(chunk_index, chunk)` pairs in order,
    /// duplicates included — and awaits a reply of kind `expect`, under
    /// [`RETRY`]: the reply and every attempt's accounting, or the dead
    /// link, [`RuntimeError::TransportFailed`].
    pub(crate) fn send_round(
        &mut self,
        iteration: u64,
        chunks: &[(usize, Chunk)],
        records: u64,
        shim: &WireShim,
        expect: FrameKind,
    ) -> Result<(Frame, TransportStats), RuntimeError> {
        let repr = WireRepr::DenseF64;
        self.exchange(Outgoing::Round { iteration, chunks, records, shim, repr, expect })
    }

    /// The join handshake: the `Snapshot` the server caught the link up
    /// with, acknowledged with its model's checksum.
    pub(crate) fn join(&mut self) -> Result<Frame, RuntimeError> {
        self.exchange(Outgoing::Join).map(|(snapshot, _)| snapshot)
    }

    fn exchange(&mut self, sending: Outgoing<'_>) -> Result<(Frame, TransportStats), RuntimeError> {
        let mut exchange = self.start(sending, RETRY);
        let done = loop {
            if let Some(done) = exchange.drive(false) {
                break done;
            }
        };
        done.map(|reply| (reply, exchange.sending.stats))
    }

    /// Starts `sending` under `retry` on the link's connection and buffers.
    pub(super) fn start<'s>(
        &'s mut self,
        sending: Outgoing<'s>,
        retry: RetryPolicy,
    ) -> Exchange<'s> {
        let RoundSender { addr, node, link, socket, buffers: (out, replies) } = self;
        let sending = SendingLink::new(*node, sending, retry, (out, replies), socket.is_some());
        Exchange { sending, socket, addr: *addr, link: *link }
    }
}

/// One exchange in flight: its [`SendingLink`] and the connection the
/// calling thread drives it over.
#[derive(Debug)]
pub(super) struct Exchange<'s> {
    pub(super) sending: SendingLink<'s>,
    /// Dropped cold by a failed attempt, a dead link, or a send that
    /// panicked, so the link's next exchange redials.
    pub(super) socket: &'s mut Option<TcpStream>,
    addr: SocketAddr,
    link: LinkConfig,
}

impl Exchange<'_> {
    /// Drives the exchange until its verdict or, if `pause`, until it
    /// awaits the reply to what this call wrote (`None`).
    pub(super) fn drive(&mut self, pause: bool) -> Option<Result<Frame, RuntimeError>> {
        let mut wrote = false;
        loop {
            let now = Instant::now();
            match self.sending.poll(now) {
                Step::Dial => {
                    *self.socket = None;
                    match dial(&self.addr, &self.link) {
                        Ok(socket) => {
                            *self.socket = Some(socket);
                            self.sending.dialled();
                        }
                        Err(e) => self.sending.failed(now, format!("connect: {e}")),
                    }
                }
                Step::Write(bytes) => {
                    match live(self.socket).and_then(|mut s| s.write_all(bytes)) {
                        Ok(()) => {
                            wrote = true;
                            self.sending.written();
                        }
                        Err(e) => self.sending.failed(now, format!("write: {e}")),
                    }
                }
                Step::Read if pause && wrote => return None,
                Step::Read => {
                    if let Err(e) = live(self.socket).and_then(|s| fill(s, self.sending.reader())) {
                        self.sending.failed(now, format!("reply: {}", WireError::from_io(e)));
                    }
                }
                Step::Wait(at) => thread::sleep(at.saturating_duration_since(now)),
                Step::Done(done) => {
                    if done.is_err() {
                        *self.socket = None;
                    }
                    return Some(done);
                }
            }
        }
    }

    /// Whether the exchange rides the connection from `local`, the peer
    /// address a [`Delivery::Closed`] names.
    pub(super) fn rides(&self, local: SocketAddr) -> bool {
        self.socket.as_ref().and_then(|s| s.local_addr().ok()) == Some(local)
    }
}

/// The sender's connection, if it has one.
fn live(socket: &Option<TcpStream>) -> io::Result<&TcpStream> {
    socket.as_ref().ok_or_else(|| ErrorKind::NotConnected.into())
}

/// Reads once from `socket` straight into `reader`. A stream that ended
/// is an [`ErrorKind::UnexpectedEof`] error.
pub(super) fn fill(mut socket: &TcpStream, reader: &mut FrameReader) -> io::Result<()> {
    match socket.read(reader.spare())? {
        0 => Err(ErrorKind::UnexpectedEof.into()),
        n => {
            reader.filled(n);
            Ok(())
        }
    }
}

/// The receive side of every real wire, its listener, threads and
/// delivery queue. Dropping it wakes the acceptor, shuts every live
/// connection and joins every thread.
#[derive(Debug)]
pub(crate) struct RoundServer {
    addr: SocketAddr,
    deliveries: Receiver<Delivery>,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// What the acceptor, the readers and the server handle share.
#[derive(Debug)]
struct Shared {
    /// The deadlines every served connection is armed with.
    link: LinkConfig,
    queue: Sender<Delivery>,
    live: Mutex<Live>,
}

/// The live connections, each with the thread reading it.
#[derive(Debug, Default)]
struct Live {
    closing: bool,
    readers: Vec<(Arc<Conn>, JoinHandle<()>)>,
}

/// What a reader thread queues: a stream read to its end, or the peer
/// address of the connection it dropped, whose sender gets no reply.
#[derive(Debug)]
pub(crate) enum Delivery {
    Served(Served),
    Closed(SocketAddr),
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

    /// The next delivery, in arrival order across every connection, or
    /// `None` once `deadline` passes.
    pub(super) fn next(&self, deadline: Instant) -> Option<Delivery> {
        self.deliveries.recv_timeout(deadline.saturating_duration_since(Instant::now())).ok()
    }

    /// Drops cold every delivery still queued: between rounds, a stream
    /// its sender gave up on, so iteration stamps are only ever compared
    /// with the round being served.
    pub(super) fn discard_stale(&self) {
        while self.deliveries.try_recv().is_ok() {}
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
        for (conn, _) in &readers {
            let _ = conn.socket.shutdown(Shutdown::Both);
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
/// a reader thread of its own, forgetting readers whose connections have
/// ended. A listener error ends it — senders then see refused connects
/// and report dead links, a typed failure rather than a spin.
fn accept_links(listener: &TcpListener, shared: &Arc<Shared>) {
    while let Ok((socket, peer)) = listener.accept() {
        let mut live = shared.live.lock();
        if live.closing {
            return;
        }
        if arm(&socket, &shared.link).is_err() {
            continue;
        }
        live.readers.retain(|(_, reader)| !reader.is_finished());
        let (conn, serving) =
            (Arc::new(Conn { socket, out: Mutex::default() }), Arc::clone(shared));
        let served = Arc::clone(&conn);
        let reader = thread::Builder::new()
            .name("cosmic-link-reader".to_string())
            .spawn(move || serve_link(&served, peer, &serving));
        if let Ok(reader) = reader {
            live.readers.push((conn, reader));
        }
    }
}

/// An accepted connection's socket, shared by its reader thread and the
/// replies owed on it, and the buffer every reply is encoded through.
#[derive(Debug)]
struct Conn {
    socket: TcpStream,
    out: Mutex<Vec<u8>>,
}

/// The reader thread: reads the socket into the connection's
/// [`ServedLink`] and queues stream after stream until EOF, a bad frame
/// or a missed deadline, then shuts the socket and says so for `peer`.
fn serve_link(conn: &Arc<Conn>, peer: SocketAddr, shared: &Arc<Shared>) {
    let mut link = ServedLink::default();
    let mut next = || loop {
        if let Some(streamed) = link.poll()? {
            return Ok::<_, WireError>(streamed);
        }
        match fill(&conn.socket, link.reader()) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                link.timed_out()?;
            }
            read => read.map_err(WireError::from_io)?,
        }
    };
    while let Ok(Streamed { node, stats, carried }) = next() {
        // A joiner's `Ack` is owed nothing.
        let answered = matches!(carried, Carried::Ack(_));
        let reply = Reply { conn: Arc::clone(conn), answered };
        if shared.queue.send(Delivery::Served(Served { node, stats, carried, reply })).is_err() {
            return;
        }
    }
    let _ = conn.socket.shutdown(Shutdown::Both);
    let _ = shared.queue.send(Delivery::Closed(peer));
}

/// Everything one served stream delivered. Dropping it unanswered shuts
/// its connection: the sender's retransmission is the only delivery.
#[derive(Debug)]
pub(crate) struct Served {
    /// The sending node's id (from its `Hello`).
    pub node: u32,
    /// Wire accounting for this stream (and, on a connection's first,
    /// the connection itself).
    pub stats: TransportStats,
    /// A join's `Hello` (owed the `Snapshot`), a joiner's `Ack`, or a
    /// round stream (owed its `Ack` or `Model`).
    pub carried: Carried,
    /// Where the sender awaits its answer.
    pub reply: Reply,
}

/// The answer a served stream is owed, written through its connection's
/// kept buffer. Dropped without one, it shuts the connection.
#[derive(Debug)]
pub(crate) struct Reply {
    conn: Arc<Conn>,
    answered: bool,
}

impl Reply {
    /// Writes the answer, booking it into `stats`.
    pub(super) fn send(
        &mut self,
        frame: &Frame,
        stats: &mut TransportStats,
    ) -> Result<(), WireError> {
        let mut out = self.conn.out.lock();
        out.clear();
        frame.write_into(&mut out);
        (&self.conn.socket).write_all(&out).map_err(WireError::from_io)?;
        stats.frames_sent += 1;
        stats.bytes_sent += out.len() as u64;
        self.answered = true;
        Ok(())
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            let _ = self.conn.socket.shutdown(Shutdown::Both);
        }
    }
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
    use crate::checkpoint::model_checksum;
    use std::time::Duration;

    fn ack(node: u32, iteration: u64) -> Frame {
        Frame::control(FrameKind::Ack, node, iteration, 0, 0)
    }

    /// The next delivery, within a generous deadline.
    fn next(server: &RoundServer) -> Delivery {
        server.next(Instant::now() + Duration::from_secs(10)).expect("a delivery")
    }

    /// The next stream delivered.
    fn served(server: &RoundServer) -> Served {
        match next(server) {
            Delivery::Served(served) => served,
            closed => panic!("expected a stream, got {closed:?}"),
        }
    }

    #[test]
    fn one_connection_serves_stream_after_stream() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        let addr = server.addr();
        let sender = thread::spawn(move || {
            let mut link = RoundSender::new(addr, 3, LinkConfig::default());
            let shim = WireShim::default();
            let mut round = |i| link.send_round(i, &[], i + 10, &shim, FrameKind::Ack).unwrap();
            (0..5u64).map(|i| round(i).1.reconnects).collect::<Vec<_>>()
        });
        let mut connections = 0;
        for i in 0..5u64 {
            let mut served = served(&server);
            connections += served.stats.connections;
            let Carried::Round { iteration, records, .. } = served.carried else {
                panic!("expected a round stream, got {served:?}");
            };
            assert_eq!((served.node, iteration, records), (3, i, i + 10));
            served.reply.send(&ack(3, i), &mut served.stats).unwrap();
        }
        assert_eq!(sender.join().unwrap(), [0; 5], "every exchange lands first try");
        assert_eq!(connections, 1, "five streams, one connection");
    }

    #[test]
    fn a_join_is_caught_up_and_acknowledged_on_the_connection_its_rounds_ride() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        let addr = server.addr();
        let sender = thread::spawn(move || {
            let mut link = RoundSender::new(addr, 2, LinkConfig::default());
            let snapshot = link.join().unwrap();
            let (_, round) =
                link.send_round(7, &[], 3, &WireShim::default(), FrameKind::Ack).unwrap();
            (snapshot.payload.to_vec(), round.reconnects)
        });
        let model = vec![1.5, -2.0];
        let snapshot =
            Frame { kind: FrameKind::Snapshot, payload: model.clone().into(), ..ack(2, 7) };
        let mut delivered = Vec::new();
        // The join is answered, the joiner's `Ack` is owed nothing, the round is.
        for answer in [Some(snapshot), None, Some(ack(2, 7))] {
            let mut next = served(&server);
            if let Some(answer) = answer {
                next.reply.send(&answer, &mut next.stats).unwrap();
            }
            delivered.push(next);
        }
        assert!(matches!(delivered[0].carried, Carried::Join));
        assert!(matches!(delivered[1].carried, Carried::Ack(sum) if sum == model_checksum(&model)));
        assert!(matches!(delivered[2].carried, Carried::Round { iteration: 7, records: 3, .. }));
        let booked: Vec<_> = delivered.iter().map(|s| s.stats.connections).collect();
        assert_eq!(booked, [1, 0, 0], "one connection");
        assert_eq!(sender.join().unwrap(), (model, 0));
    }

    #[test]
    fn a_refused_dial_fails_the_attempt() {
        let addr = RoundServer::bind(LinkConfig::default()).unwrap().addr(); // dropped
        let retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let mut link = RoundSender::new(addr, 4, LinkConfig::default());
        let (shim, repr, expect) = (WireShim::default(), WireRepr::DenseF64, FrameKind::Ack);
        let sending =
            Outgoing::Round { iteration: 0, chunks: &[], records: 0, shim: &shim, repr, expect };
        let dead = link.start(sending, retry).drive(true);
        assert!(matches!(
            dead,
            Some(Err(RuntimeError::TransportFailed { peer: 4, attempts: 1, .. }))
        ));
    }

    #[test]
    fn a_reader_that_drops_a_stream_names_its_connection() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        let mut link = RoundSender::new(server.addr(), 5, LinkConfig::default());
        let (retry, repr, expect) = (RetryPolicy::default(), WireRepr::DenseF64, FrameKind::Ack);
        let chunks = [(0, Chunk::new(0, vec![1.0, 2.0]))];
        let plan = cosmic_sim::faults::FaultPlan::none().corrupt_frame(5, 0, 0);
        let shim = WireShim::new(&plan, 5, 0, 1);
        let sending = Outgoing::Round {
            iteration: 0,
            chunks: &chunks,
            records: 0,
            shim: &shim,
            repr,
            expect,
        };
        let mut exchange = link.start(sending, retry);
        assert!(exchange.drive(true).is_none(), "the stream is written and its reply owed");
        // The damaged frame fails the reader's checksum: it drops the
        // connection and names it by the address this sender dialled from.
        let Delivery::Closed(peer) = next(&server) else { panic!("a closed notice") };
        assert!(exchange.rides(peer));
        // The sender reads its end of stream at once and retransmits
        // (attempt 1 is clean) on a new connection.
        assert!(exchange.drive(true).is_none());
        assert!(!exchange.rides(peer));
        let mut served = served(&server);
        assert!(matches!(served.carried, Carried::Round { iteration: 0, .. }));
        served.reply.send(&ack(5, 0), &mut served.stats).unwrap();
        let reply = exchange.drive(true).expect("a verdict").expect("the ack");
        assert_eq!((reply.kind, exchange.sending.stats.reconnects), (FrameKind::Ack, 1));
    }
}
