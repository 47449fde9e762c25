//! The real-wire backend: loopback TCP with connection supervision.
//!
//! One [`RoundServer`] and, per sender node, one [`RoundSender`] outlive
//! the round: after a link's first use a healthy round opens no socket
//! and creates no thread. The round's caller sends on every link:
//! 1. *Write*: per sender in order, cut the lent partial into chunks that
//!    view it and drive the link's exchange until it awaits its reply.
//! 2. *Route*: acknowledge each complete stream the server's reader
//!    threads deliver and stage it into its peer's Sigma stage (the
//!    stages the discrete-event backend feeds, so the fold is identical
//!    bit for bit); mark the link of each connection a reader dropped.
//! 3. *Finish*: read each marked link's `Ack` or end of stream. A failed
//!    attempt backs off, redials and rewrites, and routing resumes.
//!
//! The caller holds every chunk view until the pass finishes, so each
//! partial goes back uncopied. A link whose retry budget exhausts, or
//! whose send panics, is a [`DeadLink`], booked like a crashed node.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cosmic_collectives::codec::CodecStats;
use parking_lot::Mutex;

use crate::buffer::WordBuf;
use crate::error::RuntimeError;
use crate::node::{Chunk, Pass, SigmaAggregator};

use super::link::{Carried, Outgoing, WireShim};
use super::supervisor::{Delivery, Exchange, RoundSender, RoundServer, Served};
use super::wire::{Frame, FrameKind};
use super::{
    lend, DeadLink, LinkConfig, RoundCtx, RoundDelivery, Transport, TransportKind, TransportStats,
};

/// The loopback TCP wire.
pub struct TcpTransport {
    server: RoundServer,
    /// One sender per node id, created with its first stream and kept
    /// across rounds and membership changes. Held for a whole round,
    /// which also keeps two rounds off the one delivery queue.
    links: Mutex<BTreeMap<usize, RoundSender>>,
    /// Whether a test planted a panic in the send of a tripwired stream.
    #[cfg(test)]
    tripwire: bool,
}

/// A sender's link and lent partial this round, with the chunks and
/// faults its exchange borrows.
struct Stream<'l> {
    sender: &'l mut RoundSender,
    arena: &'l WordBuf,
    chunks: Vec<(usize, Chunk)>,
    shim: WireShim,
}

/// A link's exchange in flight, and where it is in the round.
struct Flight<'s> {
    node: usize,
    exchange: Exchange<'s>,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Its stream is written and its reply owed: routing waits on it.
    Owed,
    /// Its `Ack`, or its connection's end, is on the socket to read.
    Answered,
    /// Booked: delivered, or a dead link.
    Done,
}

impl TcpTransport {
    /// Binds a fresh loopback listener (ephemeral port) for this
    /// transport's rounds.
    pub fn bind(link: LinkConfig) -> Result<Self, RuntimeError> {
        let server = RoundServer::bind(link)?;
        Ok(TcpTransport {
            server,
            links: Mutex::default(),
            #[cfg(test)]
            tripwire: false,
        })
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn round_lent(
        &self,
        ctx: &RoundCtx<'_>,
        sigma: &SigmaAggregator,
        parts: &mut [Option<Vec<f64>>],
    ) -> Result<RoundDelivery, RuntimeError> {
        let mut links = self.links.lock();
        self.server.discard_stale();
        let (addr, link) = (self.server.addr(), self.server.link());
        lend(parts, |arenas| {
            // A sender without a part sends nothing.
            for (&member, _) in ctx.senders.iter().zip(arenas).filter(|(_, a)| a.is_some()) {
                links.entry(member).or_insert_with(|| RoundSender::new(addr, member, link));
            }
            let mut streams = Vec::with_capacity(ctx.senders.len());
            streams.extend(links.iter_mut().filter_map(|(member, sender)| {
                let arena = arenas[ctx.senders.iter().position(|n| n == member)?].as_ref()?;
                Some(Stream { sender, arena, chunks: Vec::new(), shim: WireShim::default() })
            }));
            let mut pass = sigma.pass(ctx.model_len, arenas.len(), None);
            let (mut codec, mut books) =
                (CodecStats::default(), (TransportStats::default(), vec![]));
            let mut flights = Vec::with_capacity(streams.len());
            // 1. Write.
            for Stream { sender, arena, chunks, shim } in &mut streams {
                let node = sender.node;
                // Booked once, whatever the link then costs in
                // retransmissions.
                let (applied, wire) = ctx.wire_chunks(node, arena);
                codec.merge(&applied);
                chunks.extend(wire);
                *shim = WireShim::new(ctx.plan, node, ctx.iteration, chunks.len());
                let (iteration, repr, expect) = (ctx.iteration as u64, ctx.repr, FrameKind::Ack);
                let sending = Outgoing::Round { iteration, chunks, records: 0, shim, repr, expect };
                let exchange = sender.start(sending, *ctx.retry);
                let mut flight = Flight { node, exchange, state: State::Owed };
                flight.drive(&mut books, || {
                    #[cfg(test)]
                    self.trip(chunks);
                });
                flights.push(flight);
            }
            while flights.iter().any(|f| f.state != State::Done) {
                // 2. Route until no reply is owed.
                while flights.iter().any(|f| f.state == State::Owed) {
                    let owed = |f: &&mut Flight<'_>| f.state == State::Owed;
                    match self.server.next(Instant::now() + link.read_timeout()) {
                        Some(Delivery::Served(served)) => {
                            route(served, ctx, &mut flights, &mut books.0, &mut pass);
                        }
                        Some(Delivery::Closed(peer)) => {
                            let closed =
                                flights.iter_mut().filter(owed).find(|f| f.exchange.rides(peer));
                            closed.into_iter().for_each(|f| f.state = State::Answered);
                        }
                        // No reader spoke for a read deadline: every owed
                        // reply is read under the socket's own.
                        None => {
                            flights.iter_mut().filter(owed).for_each(|f| f.state = State::Answered)
                        }
                    }
                }
                // 3. Finish: read each answer; a retry owes one again.
                for flight in flights.iter_mut().filter(|f| f.state == State::Answered) {
                    flight.drive(&mut books, || ());
                }
            }
            let outcome = pass.finish();
            let (stats, dead) = books;
            Ok(RoundDelivery { outcome, dead, stats, codec })
        })
    }
}

impl Flight<'_> {
    /// Drives the exchange, after `before`, until it owes a reply again or
    /// has a verdict, which it books. A drive that panics is the link's
    /// death, typed, and its half-written connection drops cold.
    fn drive(&mut self, books: &mut (TransportStats, Vec<DeadLink>), before: impl FnOnce()) {
        let sent = catch_unwind(AssertUnwindSafe(|| {
            before();
            self.exchange.drive(true)
        }));
        let verdict = match sent {
            Ok(None) => {
                self.state = State::Owed;
                return;
            }
            Ok(Some(verdict)) => verdict,
            Err(panic) => {
                *self.exchange.socket = None;
                let why = panic.downcast_ref::<String>().map(String::as_str);
                let why = why.or_else(|| panic.downcast_ref::<&str>().copied()).unwrap_or("?");
                let detail = format!("link sender panicked: {why}");
                Err(RuntimeError::TransportFailed { peer: self.node, attempts: 1, detail })
            }
        };
        self.state = State::Done;
        match verdict {
            Ok(_) => books.0.merge(&self.exchange.sending.stats),
            Err(error) => {
                let attempts = match error {
                    RuntimeError::TransportFailed { attempts, .. } => attempts,
                    _ => 0,
                };
                books.0.links_dead += 1;
                books.1.push(DeadLink { node: self.node, attempts, error });
            }
        }
    }
}

/// Routes one delivery: only a stream that arrived complete — this
/// round's iteration, from a sender whose reply is owed — is
/// acknowledged and its buffered chunks staged into its peer's stage.
/// Anything else is dropped unanswered, which shuts its connection; the
/// sender's retransmission is the only delivery.
fn route(
    mut served: Served,
    ctx: &RoundCtx<'_>,
    flights: &mut [Flight<'_>],
    stats: &mut TransportStats,
    pass: &mut Pass<'_>,
) {
    let Carried::Round { iteration, chunks, .. } = served.carried else {
        return;
    };
    let node = served.node as usize;
    let owed = |f: &&mut Flight<'_>| f.node == node && f.state == State::Owed;
    let (Some(flight), Some(peer)) =
        (flights.iter_mut().find(owed), ctx.senders.iter().position(|&n| n == node))
    else {
        return;
    };
    let mut booked = served.stats;
    let ack = Frame::control(FrameKind::Ack, served.node, iteration, 0, 0);
    if iteration != ctx.iteration as u64 || served.reply.send(&ack, &mut booked).is_err() {
        return;
    }
    flight.state = State::Answered;
    stats.merge(&booked);
    pass.stage(peer, chunks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::RetryPolicy;
    use cosmic_collectives::codec::WireRepr;
    use cosmic_sim::faults::FaultPlan;

    impl TcpTransport {
        /// Plants a panic in the send of any stream that starts with
        /// [`SigmaAggregator::TRIPWIRE`], before it writes a byte.
        pub(crate) fn tripwired(mut self) -> Self {
            self.tripwire = true;
            self
        }

        /// The planted panic, if `chunks` trip it.
        pub(super) fn trip(&self, chunks: &[(usize, Chunk)]) {
            let first = chunks.first().and_then(|(_, chunk)| chunk.data.first());
            let tripped = self.tripwire && first == Some(&SigmaAggregator::TRIPWIRE);
            assert!(!tripped, "planted panic");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn ctx<'a>(
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
        senders: &'a [usize],
        model_len: usize,
    ) -> RoundCtx<'a> {
        RoundCtx { iteration: 0, model_len, plan, retry, senders, repr: WireRepr::DenseF64 }
    }

    /// Sender `node`'s seeded partial for `iteration`.
    fn part(node: usize, iteration: usize, len: usize) -> Vec<f64> {
        (0..len).map(|i| ((i * 31 + node * 7 + iteration * 3) % 997) as f64 / 997.0 - 0.5).collect()
    }

    /// One round of seeded partials from `senders` on `transport`, its
    /// sum checked bit for bit against the reference fold.
    fn checked_round(
        transport: &TcpTransport,
        plan: &FaultPlan,
        iteration: usize,
        senders: &[usize],
        len: usize,
    ) -> RoundDelivery {
        let retry = RetryPolicy::default();
        let sigma = SigmaAggregator::new(2, 2);
        let data: Vec<Vec<f64>> = senders.iter().map(|&n| part(n, iteration, len)).collect();
        let parts: Vec<Option<&[f64]>> = data.iter().map(|p| Some(p.as_slice())).collect();
        let ctx = RoundCtx { iteration, ..ctx(plan, &retry, senders, len) };
        let delivery = transport.round(&ctx, &sigma, &parts).unwrap();
        let mut expected = vec![0.0; len];
        let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        crate::fold::fold_parts_reference(&mut expected, &slices);
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected), "iteration {iteration}");
        assert!(delivery.dead.is_empty(), "iteration {iteration}: {:?}", delivery.dead);
        delivery
    }

    #[test]
    fn tcp_round_matches_the_sim_fold_on_a_healthy_wire() {
        let plan = FaultPlan::none();
        let retry = RetryPolicy::default();
        let senders = [0usize, 1, 2];
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let sigma = SigmaAggregator::new(2, 2);
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let c = [7.0, 8.0, 9.0];
        let delivery = transport
            .round(
                &ctx(&plan, &retry, &senders, 3),
                &sigma,
                &[Some(&a[..]), Some(&b[..]), Some(&c[..])],
            )
            .unwrap();
        assert_eq!(delivery.outcome.sum, vec![12.0, 15.0, 18.0]);
        assert!(delivery.dead.is_empty());
        assert_eq!(delivery.stats.links_dead, 0);
        // Socket-level conservation on a healthy wire.
        assert_eq!(delivery.stats.frames_sent, delivery.stats.frames_received);
        assert_eq!(delivery.stats.bytes_sent, delivery.stats.bytes_received);
        assert_eq!(delivery.stats.heartbeats, 3);
        assert_eq!(delivery.stats.reconnects, 0);
        assert_eq!(transport.kind(), TransportKind::Tcp);
    }

    #[test]
    fn iterations_may_restart_and_the_model_may_change_size_on_one_transport() {
        // The benchmark ladder does exactly this: small rounds from
        // iteration 0, then large rounds from iteration 0 again.
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let (plan, senders) = (FaultPlan::none(), [0usize, 1, 2, 3]);
        let mut total = TransportStats::default();
        for len in [64, 65_536, 64, 65_536] {
            for iteration in 0..3 {
                total.merge(&checked_round(&transport, &plan, iteration, &senders, len).stats);
            }
        }
        assert_eq!((total.connections, total.reconnects, total.links_dead), (4, 0, 0));
        assert_eq!(total.frames_sent, total.frames_received);
        assert_eq!(total.bytes_sent, total.bytes_received);
    }

    #[test]
    fn a_wire_fault_costs_one_reconnect_and_the_new_connection_persists() {
        let plan = FaultPlan::none().sever_link(1, 2, 0).corrupt_frame(3, 4, 0);
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let senders = [0usize, 1, 2, 3];
        let booked: Vec<(u64, u64)> = (0..7)
            .map(|iteration| {
                let stats = checked_round(&transport, &plan, iteration, &senders, 64).stats;
                (stats.connections, stats.reconnects)
            })
            .collect();
        // Four links dialled in round 0; each fault replaces one link in
        // its own round and no round after it opens a socket.
        assert_eq!(booked, [(4, 0), (0, 0), (1, 1), (0, 0), (1, 1), (0, 0), (0, 0)]);
    }

    #[test]
    fn a_stream_a_reader_drops_is_retried_at_once_not_after_the_read_deadline() {
        // The reader refuses the damaged frame and drops the connection;
        // its closed notice, not a 60 s read deadline, sends the caller
        // to the link's end of stream and the retransmission.
        let link = LinkConfig { read_timeout_ms: 60_000, ..LinkConfig::default() };
        let transport = TcpTransport::bind(link).unwrap();
        let plan = FaultPlan::none().corrupt_frame(2, 0, 0);
        let started = Instant::now();
        let stats = checked_round(&transport, &plan, 0, &[0, 1, 2, 3], 64).stats;
        assert_eq!(stats.reconnects, 1);
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs() < 10, "the round waited out a deadline: {elapsed:?}");
    }

    #[test]
    fn a_sender_absent_for_several_rounds_finds_its_link_still_alive() {
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let plan = FaultPlan::none();
        let mut total = TransportStats::default();
        let memberships: [&[usize]; 6] =
            [&[0, 1, 2, 3], &[0, 1, 3], &[0, 1, 3], &[1, 3], &[0, 1, 2, 3], &[0, 1, 2, 3, 4]];
        for (iteration, senders) in memberships.into_iter().enumerate() {
            total.merge(&checked_round(&transport, &plan, iteration, senders, 64).stats);
        }
        // Node 2 sat out three rounds and node 4 joined late: five
        // links, five connections, none redialled.
        assert_eq!((total.connections, total.reconnects, total.links_dead), (5, 0, 0));
    }

    #[test]
    fn sixteen_links_stage_on_the_routing_caller() {
        // The router stages sixteen streams as they arrive, one at a
        // time on its own thread, and each counts as one job.
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
        let senders: Vec<usize> = (0..16).collect();
        let len = 16 * crate::layout::CHUNK_WORDS;
        let data: Vec<Vec<f64>> = senders.iter().map(|&n| part(n, 0, len)).collect();
        let parts: Vec<Option<&[f64]>> = data.iter().map(|p| Some(p.as_slice())).collect();
        let sigma = SigmaAggregator::new(1, 1);
        let delivery = transport.round(&ctx(&plan, &retry, &senders, len), &sigma, &parts).unwrap();
        let mut expected = vec![0.0; len];
        let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        crate::fold::fold_parts_reference(&mut expected, &slices);
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected));
        assert!(delivery.dead.is_empty() && delivery.outcome.quarantined.is_empty());
        assert_eq!(sigma.jobs_submitted(), 16);
    }

    #[test]
    fn a_sender_that_panics_is_a_dead_link_not_a_wedged_round() {
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap().tripwired();
        let (plan, retry, senders) = (FaultPlan::none(), RetryPolicy::default(), [0usize, 1, 2]);
        let sigma = SigmaAggregator::new(2, 2);
        let data: Vec<Vec<f64>> = senders.iter().map(|&n| part(n, 0, 64)).collect();
        let mut marked = data[1].clone();
        marked[0] = SigmaAggregator::TRIPWIRE;
        let parts = [Some(&data[0][..]), Some(&marked[..]), Some(&data[2][..])];
        let delivery = transport.round(&ctx(&plan, &retry, &senders, 64), &sigma, &parts).unwrap();
        let [dead] = &delivery.dead[..] else {
            panic!("expected one dead link, got {:?}", delivery.dead);
        };
        assert_eq!((dead.node, dead.attempts, delivery.stats.links_dead), (1, 1, 1));
        assert!(
            matches!(&dead.error, RuntimeError::TransportFailed { peer: 1, detail, .. }
                if detail.contains("planted panic")),
            "{dead:?}"
        );
        let mut expected = vec![0.0; 64];
        crate::fold::fold_parts_reference(&mut expected, &[&data[0], &data[2]]);
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected), "the other peers, bit for bit");

        // The link dropped its connection cold and redials next round.
        let next = checked_round(&transport, &plan, 1, &senders, 64).stats;
        assert_eq!((next.connections, next.reconnects), (1, 0));
    }

    #[test]
    fn a_staging_panic_on_the_routing_caller_aborts_only_its_peer() {
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let (plan, retry, senders) = (FaultPlan::none(), RetryPolicy::default(), [0usize, 1, 2]);
        let sigma = SigmaAggregator::new(2, 2).tripwired();
        let len = 2 * crate::layout::CHUNK_WORDS + 5;
        let data: Vec<Vec<f64>> = senders.iter().map(|&n| part(n, 0, len)).collect();
        let mut marked = data[1].clone();
        marked[0] = SigmaAggregator::TRIPWIRE;
        let parts = [Some(&data[0][..]), Some(&marked[..]), Some(&data[2][..])];
        let delivery = transport.round(&ctx(&plan, &retry, &senders, len), &sigma, &parts).unwrap();
        assert_eq!(delivery.outcome.quarantined, vec![(1, crate::node::ChunkFault::Aborted)]);
        assert!(delivery.dead.is_empty(), "the link delivered: {:?}", delivery.dead);
        let mut expected = vec![0.0; len];
        crate::fold::fold_parts_reference(&mut expected, &[&data[0], &data[2]]);
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected), "the other peers, bit for bit");

        // The same aggregator and transport: the next round folds every
        // peer, over the links the first one dialled.
        let data: Vec<Vec<f64>> = senders.iter().map(|&n| part(n, 1, len)).collect();
        let parts: Vec<Option<&[f64]>> = data.iter().map(|p| Some(p.as_slice())).collect();
        let ctx = RoundCtx { iteration: 1, ..ctx(&plan, &retry, &senders, len) };
        let delivery = transport.round(&ctx, &sigma, &parts).unwrap();
        assert!(delivery.outcome.quarantined.is_empty() && delivery.dead.is_empty());
        assert_eq!((delivery.stats.connections, delivery.stats.reconnects), (0, 0));
        let mut expected = vec![0.0; len];
        let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        crate::fold::fold_parts_reference(&mut expected, &slices);
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected));
    }
}
