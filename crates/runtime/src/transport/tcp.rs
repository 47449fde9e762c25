//! The real-wire backend: loopback TCP with connection supervision.
//!
//! One [`RoundServer`] and, per sender node, one [`RoundSender`] owned by
//! a resident worker thread (`cosmic-link-sender-{node}`) outlive the
//! round: after a link's first use a healthy round opens no socket and
//! creates no thread. The caller cuts each lent partial into chunks that
//! view it and posts the stream to its link's worker (link *k* writes
//! while the caller chunks *k + 1*); the worker drops its views before
//! the caller can see the post done, so each partial goes back uncopied.
//! The caller then routes the complete streams the server's reader
//! threads deliver, acknowledging each and staging it into its peer's
//! Sigma stage while the other links are still being read: the stages
//! the discrete-event backend feeds, so the fold is identical bit for
//! bit. A link whose retry budget exhausts, or whose send panics, is a
//! [`DeadLink`], booked like a crashed node.

use std::collections::btree_map::{BTreeMap, Entry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use cosmic_collectives::codec::{CodecStats, WireRepr};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::RuntimeError;
use crate::node::{Chunk, Pass, SigmaAggregator};
use crate::trainer::RetryPolicy;

use super::link::{Carried, WireShim};
use super::supervisor::{RoundSender, RoundServer, Served, Waker};
use super::wire::{Frame, FrameKind};
use super::{
    lend, DeadLink, LinkConfig, RoundCtx, RoundDelivery, Transport, TransportKind, TransportStats,
};

/// A link worker's send: [`send_post`], or a test's planted panic.
type SendFn = fn(&mut RoundSender, &Post) -> Result<TransportStats, RuntimeError>;

/// The loopback TCP wire.
pub struct TcpTransport {
    server: RoundServer,
    /// One resident sender per node id, created with its first stream
    /// and kept across rounds and membership changes. Held for a whole
    /// round, which also keeps two rounds off the one delivery queue.
    links: Mutex<BTreeMap<usize, Link>>,
    /// A field so tests can plant a panic.
    send: SendFn,
}

/// A node's resident sender: the mailbox of the worker that owns its
/// [`RoundSender`].
struct Link {
    posts: Sender<Post>,
    worker: JoinHandle<()>,
}

/// What a round's caller and its link workers share: whether each
/// sender's slot is still open to a delivery (closed once its post
/// finished), the books, and how many posts are still out.
struct Round {
    open: Mutex<Vec<bool>>,
    stats: Mutex<TransportStats>,
    dead: Mutex<Vec<DeadLink>>,
    pending: AtomicUsize,
    waker: Waker,
}

/// One round's stream for one link, owned: the worker borrows nothing.
/// Also the drop guard: however a post ends, dropping it drops its
/// chunks — views of a lent partial — then closes its slot, so no later
/// delivery of its stream is staged; the last one dropped wakes the
/// routing caller, which then holds the last view of every partial.
struct Post {
    iteration: u64,
    chunks: Vec<(usize, Chunk)>,
    shim: WireShim,
    retry: RetryPolicy,
    repr: WireRepr,
    round: Arc<Round>,
    slot: usize,
}

impl Post {
    /// Books `node`'s send: what it cost the wire, or the link.
    fn book(&self, node: usize, sent: Result<TransportStats, RuntimeError>) {
        match sent {
            Ok(stats) => self.round.stats.lock().merge(&stats),
            Err(error) => {
                let attempts = if let RuntimeError::TransportFailed { attempts, .. } = error {
                    attempts
                } else {
                    0
                };
                self.round.stats.lock().links_dead += 1;
                self.round.dead.lock().push(DeadLink { node, attempts, error });
            }
        }
    }
}

impl Drop for Post {
    fn drop(&mut self) {
        drop(std::mem::take(&mut self.chunks));
        self.round.open.lock()[self.slot] = false;
        if self.round.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.round.waker.wake();
        }
    }
}

impl TcpTransport {
    /// Binds a fresh loopback listener (ephemeral port) for this
    /// transport's rounds.
    pub fn bind(link: LinkConfig) -> Result<Self, RuntimeError> {
        let server = RoundServer::bind(link)?;
        Ok(TcpTransport { server, links: Mutex::default(), send: send_post })
    }

    /// Starts `node`'s link worker over a fresh, undialled link.
    fn spawn(&self, node: usize, retry: RetryPolicy) -> Result<Link, RuntimeError> {
        let link = RoundSender::new(self.server.addr(), node, self.server.link(), retry);
        let (send, (posts, mailbox)) = (self.send, channel::unbounded());
        let worker = thread::Builder::new()
            .name(format!("cosmic-link-sender-{node}"))
            .spawn(move || serve_posts(link, mailbox, send))
            .map_err(|e| {
                let detail = format!("link sender thread: {e}");
                RuntimeError::TransportFailed { peer: node, attempts: 0, detail }
            })?;
        Ok(Link { posts, worker })
    }
}

impl Drop for TcpTransport {
    /// Closes every mailbox and joins every worker — idle between
    /// rounds, so each ends at once; the server then joins its threads.
    fn drop(&mut self) {
        for (_, link) in std::mem::take(self.links.get_mut()) {
            drop(link.posts);
            let _ = link.worker.join();
        }
    }
}

/// Pushes one post's stream through its supervised link.
fn send_post(link: &mut RoundSender, post: &Post) -> Result<TransportStats, RuntimeError> {
    let (_, stats) =
        link.send_round(post.iteration, &post.chunks, 0, &post.shim, FrameKind::Ack)?;
    Ok(stats)
}

/// A link worker: sends and books each post, then drops it. A send that
/// panics is the link's death, typed, and the link is replaced by an
/// undialled one, so the half-written connection drops cold.
fn serve_posts(mut link: RoundSender, posts: Receiver<Post>, send: SendFn) {
    for post in posts {
        (link.retry, link.repr) = (post.retry, post.repr);
        let sent = catch_unwind(AssertUnwindSafe(|| send(&mut link, &post)));
        let sent = sent.unwrap_or_else(|panic| {
            link = RoundSender::new(link.addr, link.node, link.link, link.retry);
            let why = panic.downcast_ref::<String>().map(String::as_str);
            let why = why.or_else(|| panic.downcast_ref::<&str>().copied()).unwrap_or("?");
            let detail = format!("link sender panicked: {why}");
            Err(RuntimeError::TransportFailed { peer: link.node, attempts: 1, detail })
        });
        post.book(link.node, sent);
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
        // A sender without a part posts nothing: its slot starts closed.
        let round = Arc::new(Round {
            open: Mutex::new(parts.iter().map(Option::is_some).collect()),
            stats: Mutex::default(),
            dead: Mutex::default(),
            pending: AtomicUsize::new(parts.iter().flatten().count()),
            waker: self.server.waker(),
        });
        lend(parts, |arenas| {
            let mut pass = sigma.pass(ctx.model_len, arenas.len(), None);
            let mut codec = CodecStats::default();
            for (slot, (&member, arena)) in ctx.senders.iter().zip(arenas).enumerate() {
                let Some(arena) = arena else {
                    continue;
                };
                // Booked once, whatever the link then costs in
                // retransmissions.
                let (applied, chunks) = ctx.wire_chunks(member, arena);
                let chunks: Vec<(usize, Chunk)> = chunks.collect();
                codec.merge(&applied);
                let shim = WireShim::new(ctx.plan, member, ctx.iteration, chunks.len());
                let (iteration, retry, repr) = (ctx.iteration as u64, *ctx.retry, ctx.repr);
                let round = Arc::clone(&round);
                let post = Post { iteration, chunks, shim, retry, repr, round, slot };
                let link = match links.entry(member) {
                    Entry::Occupied(link) => Ok(link.into_mut()),
                    Entry::Vacant(vacant) => self.spawn(member, retry).map(|l| vacant.insert(l)),
                };
                match link {
                    // Cannot fail: a worker outlives its mailbox.
                    Ok(link) => drop(link.posts.send(post)),
                    Err(error) => post.book(member, Err(error)),
                }
            }
            // Route and stage on this thread until every post is done —
            // and, with it, every view of `arenas` it held.
            while round.pending.load(Ordering::Acquire) > 0 {
                if let Some(served) = self.server.next(None) {
                    route(served, ctx, &round, &mut pass);
                }
            }
            let outcome = pass.finish();
            let dead = std::mem::take(&mut *round.dead.lock());
            let stats = *round.stats.lock();
            Ok(RoundDelivery { outcome, dead, stats, codec })
        })
    }
}

/// Routes one delivery: only a stream that arrived complete — this
/// round's iteration, a known sender, slot still open — is acknowledged
/// and its buffered chunks staged into its peer's stage. Anything else
/// is dropped unanswered, which shuts its connection; the sender's
/// retransmission is the only delivery.
fn route(mut served: Served, ctx: &RoundCtx<'_>, round: &Round, pass: &mut Pass<'_>) {
    let Carried::Round { iteration, chunks, .. } = served.carried else {
        return;
    };
    if iteration != ctx.iteration as u64 {
        return;
    }
    let Some(peer) = ctx.senders.iter().position(|&n| n == served.node as usize) else {
        return;
    };
    // Read the slot *before* acknowledging: the sender closes it the
    // moment the ack lands.
    if !round.open.lock()[peer] {
        return;
    }
    let mut booked = served.stats;
    let ack = Frame::control(FrameKind::Ack, served.node, iteration, 0, 0);
    if served.reply.send(&ack, &mut booked).is_err() {
        return;
    }
    round.stats.lock().merge(&booked);
    pass.stage(peer, chunks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmic_sim::faults::FaultPlan;

    impl TcpTransport {
        /// Plants a panic in the link worker of any stream that starts
        /// with [`SigmaAggregator::TRIPWIRE`], before it writes a byte.
        /// Takes effect for links created after it.
        pub(crate) fn tripwired(mut self) -> Self {
            self.send = |link, post| {
                let first = post.chunks.first().and_then(|(_, chunk)| chunk.data.first());
                assert!(first != Some(&SigmaAggregator::TRIPWIRE), "planted panic");
                send_post(link, post)
            };
            self
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

        // The worker caught its panic and serves the next round itself.
        let worker = || transport.links.lock()[&1].worker.thread().id();
        let before = worker();
        checked_round(&transport, &plan, 1, &senders, 64);
        assert_eq!(worker(), before);
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
