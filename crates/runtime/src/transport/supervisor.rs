//! The connection supervisor: the one place a real-wire socket is
//! connected, accepted, armed with deadlines, retried and served. The
//! in-engine [`super::tcp::TcpTransport`] and the multi-process
//! launcher ([`super::proc`]) are both clients of its two halves:
//!
//! - [`RoundSender`] connects within a deadline and retries an exchange
//!   under the capped-exponential [`RetryPolicy`].
//!   [`RoundSender::send_round`] pushes one complete chunk stream
//!   (`Hello`, `Heartbeat`, chunks, `Done`) and awaits a typed reply;
//!   the launcher's join handshake rides the same loop. [`WireShim`]
//!   faults apply only to the first attempt, so a retransmission after
//!   a plan-injected sever or frame flip always lands.
//! - [`RoundServer`] owns the listener, the accept poll and the
//!   store-and-forward read of one connection into a [`Served`].
//!   Buffering the attempt means a stream that dies mid-round
//!   contributes **nothing** — the retransmission is the only delivery,
//!   so chunk-conservation counters match the discrete-event backend
//!   exactly. Callers only route what the server returns.
//!
//! Every blocking call carries a deadline, so a dead peer costs bounded
//! time, never a hang: the failure surfaces as a typed
//! [`RuntimeError::TransportFailed`] and flows into the membership
//! machinery.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use cosmic_collectives::codec::WireRepr;

use crate::error::RuntimeError;
use crate::node::Chunk;
use crate::trainer::RetryPolicy;

use super::shim::{damage, WireShim};
use super::wire::{Frame, FrameKind, WireError};
use super::{LinkConfig, TransportStats};

/// The reply and accounting of one successful supervised round.
#[derive(Debug)]
pub struct SendReport {
    /// The reply frame the receiver closed the round with.
    pub reply: Frame,
    /// Wire accounting for every attempt, including failed ones.
    pub stats: TransportStats,
    /// Connection attempts spent (1 = clean first try).
    pub attempts: u32,
}

/// One supervised sender link, named by the worker-side `node` id.
#[derive(Debug, Clone, Copy)]
pub struct RoundSender<'a> {
    /// The receiver's address.
    pub addr: SocketAddr,
    /// The sending node's id (also the link's name in errors).
    pub node: usize,
    /// Connect/read/write deadlines.
    pub link: &'a LinkConfig,
    /// Reconnect backoff policy (shared with chunk retransmission).
    pub retry: &'a RetryPolicy,
    /// Wire representation for chunk payloads: dense chunks travel as
    /// plain [`FrameKind::Chunk`] frames (the historical wire,
    /// byte-identical); anything else rides [`FrameKind::Encoded`].
    pub repr: WireRepr,
}

impl RoundSender<'_> {
    /// Streams one round — `chunks` as `(chunk_index, chunk)` pairs, in
    /// order, duplicates included — and awaits a reply of kind
    /// `expect`. Reconnects with capped-exponential backoff on any
    /// failure; after the retry budget the link is declared dead with
    /// [`RuntimeError::TransportFailed`].
    pub fn send_round(
        &self,
        iteration: u64,
        chunks: &[(usize, Chunk)],
        records: u64,
        shim: &WireShim<'_>,
        expect: FrameKind,
    ) -> Result<SendReport, RuntimeError> {
        let node = self.node as u32;
        let control = |kind, b| Frame::control(kind, node, iteration, 0, b).encode();
        let mut stats = TransportStats::default();
        let (reply, attempts) = self.supervise(&mut stats, |stream, attempt, stats| {
            let (sever, delay) = (shim.sever_at(attempt), shim.frame_delay(attempt));
            self.push(stream, &control(FrameKind::Hello, 0), stats)?;
            self.push(stream, &control(FrameKind::Heartbeat, 0), stats)?;
            for &(ci, ref chunk) in chunks {
                if sever == Some(ci) {
                    // A plan-injected sever: fail the attempt so the
                    // socket drops cold, as a dying NIC would, and let
                    // the reconnect loop recover the round.
                    return Err(RuntimeError::TransportFailed {
                        peer: self.node,
                        attempts: attempt + 1,
                        detail: format!("link severed by fault plan before chunk {ci}"),
                    });
                }
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
                let mut bytes = match self.repr {
                    WireRepr::DenseF64 => Frame::chunk(node, iteration, chunk).encode(),
                    repr => Frame::encoded_chunk(node, iteration, repr, chunk).encode(),
                };
                if shim.frame_corrupted(attempt, ci) {
                    damage(&mut bytes);
                }
                self.push(stream, &bytes, stats)?;
            }
            self.push(stream, &control(FrameKind::Done, records), stats)?;
            let reply = take(stream, stats).map_err(|err| self.classify(err, attempt))?;
            if reply.kind != expect {
                return Err(RuntimeError::FrameCorrupt {
                    peer: self.node,
                    offset: reply.a as usize,
                    detail: format!("expected {expect:?} reply, got {:?}", reply.kind),
                });
            }
            Ok(reply)
        })?;
        Ok(SendReport { reply, stats, attempts })
    }

    /// The one retry loop: runs `exchange` over a freshly connected,
    /// armed socket until it succeeds or the budget exhausts. A failed
    /// attempt's socket is dropped cold; each reconnect is booked and
    /// waits out the virtual-time [`RetryPolicy`] curve, scaled to wall
    /// milliseconds by the link's backoff unit. Returns the exchange's
    /// value and the attempts spent.
    pub(super) fn supervise<T>(
        &self,
        stats: &mut TransportStats,
        mut exchange: impl FnMut(&mut TcpStream, u32, &mut TransportStats) -> Result<T, RuntimeError>,
    ) -> Result<(T, u32), RuntimeError> {
        let budget = self.retry.max_retries.saturating_add(1);
        let mut last = "never attempted".to_string();
        for attempt in 0..budget {
            if attempt > 0 {
                stats.reconnects += 1;
                let units = self.retry.delay(attempt - 1);
                thread::sleep(Duration::from_millis(
                    (units * self.link.backoff_unit_ms as f64).round() as u64,
                ));
            }
            let outcome = self
                .connect(attempt)
                .and_then(|mut stream| exchange(&mut stream, attempt, &mut *stats));
            match outcome {
                Ok(value) => return Ok((value, attempt + 1)),
                Err(err) => last = err.to_string(),
            }
        }
        Err(RuntimeError::TransportFailed { peer: self.node, attempts: budget, detail: last })
    }

    /// Connects within the configured deadline and arms per-call
    /// read/write deadlines on the socket.
    fn connect(&self, attempt: u32) -> Result<TcpStream, RuntimeError> {
        let fail = |detail: String| RuntimeError::TransportFailed {
            peer: self.node,
            attempts: attempt + 1,
            detail,
        };
        let stream = TcpStream::connect_timeout(&self.addr, self.link.connect_timeout())
            .map_err(|e| fail(format!("connect: {e}")))?;
        arm(&stream, self.link).map_err(|e| fail(format!("socket setup: {e}")))?;
        Ok(stream)
    }

    /// Writes one encoded frame and books it.
    fn push(
        &self,
        stream: &mut TcpStream,
        bytes: &[u8],
        stats: &mut TransportStats,
    ) -> Result<(), RuntimeError> {
        stream.write_all(bytes).map_err(|e| RuntimeError::TransportFailed {
            peer: self.node,
            attempts: 1,
            detail: format!("write: {e}"),
        })?;
        stats.frames_sent += 1;
        stats.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    /// Maps a reply-read failure: stream-level trouble is a transport
    /// failure (retryable), a malformed frame is a corruption report.
    fn classify(&self, err: WireError, attempt: u32) -> RuntimeError {
        if err.is_io() {
            RuntimeError::TransportFailed {
                peer: self.node,
                attempts: attempt + 1,
                detail: err.to_string(),
            }
        } else {
            RuntimeError::FrameCorrupt { peer: self.node, offset: 0, detail: err.to_string() }
        }
    }
}

/// The receive side of every real wire: one loopback listener and the
/// accept-poll-serve steps both the in-engine transport and the
/// launcher's coordinator drive.
#[derive(Debug)]
pub struct RoundServer {
    listener: TcpListener,
    addr: SocketAddr,
    /// The deadlines every served connection is armed with.
    pub link: LinkConfig,
}

impl RoundServer {
    /// Binds a fresh non-blocking loopback listener (ephemeral port).
    pub fn bind(link: LinkConfig) -> Result<Self, RuntimeError> {
        let fail = |detail: String| RuntimeError::TransportFailed { peer: 0, attempts: 0, detail };
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| fail(format!("bind: {e}")))?;
        listener.set_nonblocking(true).map_err(|e| fail(format!("listener setup: {e}")))?;
        let addr = listener.local_addr().map_err(|e| fail(format!("local_addr: {e}")))?;
        Ok(RoundServer { listener, addr, link })
    }

    /// The address senders dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One accept poll: the pending connection, reset to blocking, or —
    /// after a short doze — `None`. The caller decides when to stop
    /// polling and where [`RoundServer::serve`] runs (inline, or on a
    /// reader thread).
    pub fn poll(&self) -> Option<TcpStream> {
        let Ok((stream, _)) = self.listener.accept() else {
            thread::sleep(Duration::from_millis(1));
            return None;
        };
        stream.set_nonblocking(false).ok()?;
        Some(stream)
    }

    /// Reads an accepted connection's whole stream and classifies it. A
    /// stream that fails mid-way — bad frame, missed deadline, socket
    /// death before `Done` — yields `None` and is dropped cold.
    pub fn serve(&self, stream: TcpStream) -> Option<Served> {
        serve_round(stream, &self.link).ok()
    }
}

/// Everything one served connection delivered, with the socket the
/// caller still owes a reply on.
#[derive(Debug)]
pub struct Served {
    /// The sending node's id (from its `Hello`).
    pub node: u32,
    /// Join handshake or round stream.
    pub kind: ServedKind,
    /// Wire accounting for this connection so far.
    pub stats: TransportStats,
    /// The open connection.
    pub stream: TcpStream,
}

/// What a served connection carried.
#[derive(Debug)]
pub enum ServedKind {
    /// `Hello(join)`: a rejoin/catch-up handshake. Nothing else was
    /// read; the caller runs the join protocol on the stream.
    Join,
    /// A complete round stream: `Hello`, heartbeats, chunks, `Done`.
    Round {
        /// The iteration the sender stamped on the stream.
        iteration: u64,
        /// The sender's record count from its `Done` frame.
        records: u64,
        /// The buffered chunk stream, in arrival order.
        chunks: Vec<Chunk>,
    },
}

/// Arms `stream` and reads it to completion: `Hello`, then either a
/// join handshake (returned at once) or heartbeats, chunks and `Done`.
fn serve_round(mut stream: TcpStream, link: &LinkConfig) -> Result<Served, WireError> {
    arm(&stream, link).map_err(|e| WireError::Io { detail: format!("socket setup: {e}") })?;
    let mut stats = TransportStats::default();
    let hello = take(&mut stream, &mut stats)?;
    if hello.kind != FrameKind::Hello {
        return Err(WireError::Protocol {
            detail: format!("expected Hello to open the stream, got {:?}", hello.kind),
        });
    }
    let node = hello.node;
    if hello.a == 1 {
        return Ok(Served { node, kind: ServedKind::Join, stats, stream });
    }
    let mut chunks = Vec::new();
    loop {
        let frame = take(&mut stream, &mut stats)?;
        match frame.kind {
            FrameKind::Heartbeat => stats.heartbeats += 1,
            // `into_chunk` moves the payload out of the frame: the
            // words decoded off the socket are the words the Sigma
            // folds, with no per-frame copy.
            FrameKind::Chunk => chunks.push(frame.into_chunk()),
            // Encoded chunks decode under their carried codec tag; the
            // chunk checksum travelled verbatim, so Sigma validation
            // (including corrupt-injection quarantine) is unchanged.
            FrameKind::Encoded => chunks.push(frame.decode_encoded_chunk()?),
            FrameKind::Done => {
                let kind =
                    ServedKind::Round { iteration: hello.iteration, records: frame.b, chunks };
                return Ok(Served { node, kind, stats, stream });
            }
            other => {
                return Err(WireError::Protocol {
                    detail: format!("unexpected {other:?} frame inside a round stream"),
                })
            }
        }
    }
}

/// Writes a reply frame on a served connection, booking it into
/// `stats`.
pub fn reply(
    stream: &mut TcpStream,
    frame: &Frame,
    stats: &mut TransportStats,
) -> Result<(), WireError> {
    frame.write_to(stream)?;
    stats.frames_sent += 1;
    stats.bytes_sent += frame.encoded_len() as u64;
    Ok(())
}

/// Reads and books one frame.
pub(super) fn take(stream: &mut TcpStream, stats: &mut TransportStats) -> Result<Frame, WireError> {
    let frame = Frame::read_from(stream)?;
    stats.frames_received += 1;
    stats.bytes_received += frame.encoded_len() as u64;
    Ok(frame)
}

/// Arms per-call read/write deadlines so no blocking socket call can
/// outlive the configured budget.
fn arm(stream: &TcpStream, link: &LinkConfig) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(link.read_timeout()))?;
    stream.set_write_timeout(Some(link.read_timeout()))
}
