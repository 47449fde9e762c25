//! The connection supervisor: the one place a real-wire socket is
//! connected, accepted, armed with deadlines, read or written, by
//! threads that block on it and drive the [`super::link`] state
//! machines. A link lives as long as its connection, not its round.
//!
//! - [`RoundSender`] keeps a link's connection and buffers between
//!   exchanges and drives each exchange's [`SendingLink`] on the calling
//!   thread, dialling, writing, reading and sleeping as it asks.
//! - [`RoundServer`] owns the listener, an acceptor thread blocked in
//!   `accept`, and a reader thread per connection that reads the socket
//!   straight into its [`ServedLink`] and queues each stream it completes
//!   as a [`Served`]. Callers only route what the queue yields; one they
//!   drop unanswered shuts its connection, so the sender retransmits at
//!   once.
//!
//! Every blocking call on a stream in flight carries a deadline, so a
//! dead peer costs bounded time, never a hang.

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
use crate::trainer::RetryPolicy;

use super::link::{Carried, Outgoing, SendingLink, ServedLink, Step, Streamed, WireShim};
use super::wire::{Frame, FrameKind, FrameReader, WireError};
use super::{LinkConfig, TransportStats};

/// One supervised sender link, named by the worker-side `node` id. The
/// connection outlives the exchange: the next one reuses it.
#[derive(Debug)]
pub(crate) struct RoundSender {
    /// The receiver's address, the sending node, the deadlines.
    pub addr: SocketAddr,
    pub node: usize,
    pub link: LinkConfig,
    /// The round's retry policy and wire representation.
    pub retry: RetryPolicy,
    pub repr: WireRepr,
    socket: Option<TcpStream>,
    /// The frames the link writes and the replies it reads, kept.
    buffers: (Vec<u8>, FrameReader),
}

impl RoundSender {
    /// An unconnected dense-wire link; the first exchange dials.
    pub(super) fn new(addr: SocketAddr, node: usize, link: LinkConfig, retry: RetryPolicy) -> Self {
        let (repr, socket, buffers) = (WireRepr::DenseF64, None, Default::default());
        RoundSender { addr, node, link, retry, repr, socket, buffers }
    }

    /// Streams one round — `chunks` as `(chunk_index, chunk)` pairs, in
    /// order, duplicates included — and awaits a reply of kind `expect`:
    /// the reply, and the accounting of every attempt. After the retry
    /// budget the link is dead: [`RuntimeError::TransportFailed`].
    pub(crate) fn send_round(
        &mut self,
        iteration: u64,
        chunks: &[(usize, Chunk)],
        records: u64,
        shim: &WireShim,
        expect: FrameKind,
    ) -> Result<(Frame, TransportStats), RuntimeError> {
        let repr = self.repr;
        self.exchange(Outgoing::Round { iteration, chunks, records, shim, repr, expect })
    }

    /// The join handshake: the `Snapshot` the server caught the link up
    /// with, acknowledged with its model's checksum.
    pub(crate) fn join(&mut self) -> Result<Frame, RuntimeError> {
        self.exchange(Outgoing::Join).map(|(snapshot, _)| snapshot)
    }

    /// Drives one exchange's [`SendingLink`] over the link's connection.
    fn exchange(&mut self, sending: Outgoing<'_>) -> Result<(Frame, TransportStats), RuntimeError> {
        let (out, replies) = &mut self.buffers;
        let connected = self.socket.is_some();
        let mut link = SendingLink::new(self.node, sending, self.retry, (out, replies), connected);
        loop {
            let now = Instant::now();
            match link.poll(now) {
                Step::Dial => {
                    self.socket = None;
                    match dial(&self.addr, &self.link) {
                        Ok(socket) => {
                            self.socket = Some(socket);
                            link.dialled();
                        }
                        Err(e) => link.failed(now, format!("connect: {e}")),
                    }
                }
                Step::Write(bytes) => match live(&self.socket).and_then(|mut s| s.write_all(bytes))
                {
                    Ok(()) => link.written(),
                    Err(e) => link.failed(now, format!("write: {e}")),
                },
                Step::Read => {
                    if let Err(e) = live(&self.socket).and_then(|s| fill(s, link.reader())) {
                        link.failed(now, format!("reply: {}", WireError::from_io(e)));
                    }
                }
                Step::Wait(at) => thread::sleep(at.saturating_duration_since(now)),
                Step::Done(done) => {
                    if done.is_err() {
                        self.socket = None;
                    }
                    return done.map(|reply| (reply, link.stats));
                }
            }
        }
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
    readers: Vec<(Arc<Conn>, JoinHandle<()>)>,
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
    /// `None` once `deadline` passes or another thread calls
    /// [`Waker::wake`]: the caller decides whether to keep waiting.
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
    while let Ok((socket, _)) = listener.accept() {
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
            .spawn(move || serve_link(&served, &serving));
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
/// or a deadline the link holds missed, then shuts the socket.
fn serve_link(conn: &Arc<Conn>, shared: &Arc<Shared>) {
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
        if shared.queue.send(Some(Served { node, stats, carried, reply })).is_err() {
            break;
        }
    }
    let _ = conn.socket.shutdown(Shutdown::Both);
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

    #[test]
    fn one_connection_serves_stream_after_stream() {
        let server = RoundServer::bind(LinkConfig::default()).unwrap();
        let addr = server.addr();
        let sender = thread::spawn(move || {
            let mut link = RoundSender::new(addr, 3, LinkConfig::default(), RetryPolicy::default());
            let shim = WireShim::default();
            let mut round = |i| link.send_round(i, &[], i + 10, &shim, FrameKind::Ack).unwrap();
            (0..5u64).map(|i| round(i).1.reconnects).collect::<Vec<_>>()
        });
        let mut connections = 0;
        for i in 0..5u64 {
            let mut served = server.next(None).expect("a delivery");
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
            let mut link = RoundSender::new(addr, 2, LinkConfig::default(), RetryPolicy::default());
            let snapshot = link.join().unwrap();
            let (_, round) =
                link.send_round(7, &[], 3, &WireShim::default(), FrameKind::Ack).unwrap();
            (snapshot.payload.to_vec(), round.reconnects)
        });
        let model = vec![1.5, -2.0];
        let snapshot =
            Frame { kind: FrameKind::Snapshot, payload: model.clone().into(), ..ack(2, 7) };
        let mut served = Vec::new();
        // The join is answered, the joiner's `Ack` is owed nothing, the round is.
        for answer in [Some(snapshot), None, Some(ack(2, 7))] {
            let mut next = server.next(None).expect("a delivery");
            if let Some(answer) = answer {
                next.reply.send(&answer, &mut next.stats).unwrap();
            }
            served.push(next);
        }
        assert!(matches!(served[0].carried, Carried::Join));
        assert!(matches!(served[1].carried, Carried::Ack(sum) if sum == model_checksum(&model)));
        assert!(matches!(served[2].carried, Carried::Round { iteration: 7, records: 3, .. }));
        let booked: Vec<_> = served.iter().map(|s| s.stats.connections).collect();
        assert_eq!(booked, [1, 0, 0], "one connection");
        assert_eq!(sender.join().unwrap(), (model, 0));
    }

    #[test]
    fn a_refused_dial_fails_the_attempt() {
        let addr = RoundServer::bind(LinkConfig::default()).unwrap().addr(); // dropped
        let retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let mut link = RoundSender::new(addr, 4, LinkConfig::default(), retry);
        let dead = link.send_round(0, &[], 0, &WireShim::default(), FrameKind::Ack);
        assert!(matches!(dead, Err(RuntimeError::TransportFailed { peer: 4, attempts: 1, .. })));
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
