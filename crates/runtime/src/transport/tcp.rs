//! The real-wire backend: loopback TCP with connection supervision.
//!
//! The backend holds one supervised [`RoundSender`] link per sender
//! node and one [`RoundServer`]; both outlive the round, so after a
//! link's first use a healthy round opens no socket. Senders stream
//! length-prefixed, checksummed frames through the fault shim; the
//! server's reader threads take each stream store-and-forward (a stream
//! that dies mid-round contributes nothing) and this module routes the
//! complete ones off the delivery queue into the same per-peer channels
//! the discrete-event backend uses, so the Sigma fold — and therefore
//! the model arithmetic — is identical bit for bit.
//!
//! A link whose retry budget exhausts is reported as a
//! [`DeadLink`] rather than an error: the engine books
//! it through the membership/failover machinery exactly like a crashed
//! node, so a dead socket degrades the run instead of hanging it.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use cosmic_collectives::codec::CodecStats;
use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;

use crate::error::RuntimeError;
use crate::node::{Chunk, SigmaAggregator};

use super::shim::WireShim;
use super::supervisor::{RoundSender, RoundServer, Served, ServedKind};
use super::wire::{Frame, FrameKind};
use super::{
    DeadLink, LinkConfig, RoundCtx, RoundDelivery, Transport, TransportKind, TransportStats,
};

/// One forwarding slot per sender; `None` once that sender finished.
type Slots = Mutex<Vec<Option<Sender<Chunk>>>>;

/// The loopback TCP wire.
pub struct TcpTransport {
    server: RoundServer,
    /// One link per sender node id, created on first use and kept
    /// across rounds and membership changes. Held for a whole round,
    /// which also keeps two rounds off the one delivery queue.
    links: Mutex<BTreeMap<usize, RoundSender>>,
}

impl TcpTransport {
    /// Binds a fresh loopback listener (ephemeral port) for this
    /// transport's rounds.
    pub fn bind(link: LinkConfig) -> Result<Self, RuntimeError> {
        Ok(TcpTransport { server: RoundServer::bind(link)?, links: Mutex::default() })
    }

    /// The listener's address (loopback, ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// Pushes one sender's wire stream through its supervised link,
/// booking what the codec did to the partial into `codec` — once,
/// whatever the link then costs in retransmissions.
fn send_part(
    link: &mut RoundSender,
    ctx: &RoundCtx<'_>,
    part: &[f64],
    codec: &Mutex<CodecStats>,
) -> Result<TransportStats, RuntimeError> {
    let (applied, chunks) = ctx.wire_chunks(link.node, part);
    let wire_chunks: Vec<(usize, Chunk)> = chunks.collect();
    codec.lock().merge(&applied);
    let shim = WireShim::new(ctx.plan, link.node, ctx.iteration);
    (link.retry, link.repr) = (*ctx.retry, ctx.repr);
    let report = link.send_round(ctx.iteration as u64, &wire_chunks, 0, &shim, FrameKind::Ack)?;
    Ok(report.stats)
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        sigma: &SigmaAggregator,
        parts: &[Option<&[f64]>],
    ) -> Result<RoundDelivery, RuntimeError> {
        let mut links = self.links.lock();
        for &member in ctx.senders {
            links.entry(member).or_insert_with(|| {
                RoundSender::new(self.addr(), member, self.server.link(), *ctx.retry)
            });
        }
        self.server.discard_stale();
        let mut receivers = Vec::with_capacity(ctx.senders.len());
        let mut slots = Vec::with_capacity(ctx.senders.len());
        for _ in ctx.senders {
            // A served stream is already whole in memory, so the router
            // hands it over in one go instead of pacing on the fold.
            let (tx, rx) = channel::unbounded();
            receivers.push(rx);
            slots.push(Some(tx));
        }
        let txs: Slots = Mutex::new(slots);
        let stats = Mutex::new(TransportStats::default());
        let codec = Mutex::new(CodecStats::default());
        let dead: Mutex<Vec<DeadLink>> = Mutex::new(Vec::new());
        let pending = AtomicUsize::new(ctx.senders.len());

        let outcome = thread::scope(|s| {
            let (txs, stats, codec, dead, pending) = (&txs, &stats, &codec, &dead, &pending);
            for (&member, link) in links.iter_mut() {
                let Some(i) = ctx.senders.iter().position(|&n| n == member) else {
                    continue; // Not in this round's membership: the link idles.
                };
                let part = parts[i];
                s.spawn(move || {
                    if let Some(part) = part {
                        match send_part(link, ctx, part, codec) {
                            Ok(sent) => stats.lock().merge(&sent),
                            Err(error) => {
                                let attempts = match &error {
                                    RuntimeError::TransportFailed { attempts, .. } => *attempts,
                                    _ => ctx.retry.max_retries.saturating_add(1),
                                };
                                stats.lock().links_dead += 1;
                                dead.lock().push(DeadLink { node: member, attempts, error });
                            }
                        }
                    }
                    // Drop this peer's forwarding slot so the Sigma
                    // receiver disconnects once in-flight chunks drain;
                    // the last sender to finish ends the routing loop.
                    txs.lock()[i] = None;
                    if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.server.wake();
                    }
                });
            }
            let fold = s.spawn(|| sigma.aggregate_validated(ctx.model_len, receivers));
            // Route on this thread until every sender finished: the
            // receive side spawns nothing per round.
            while pending.load(Ordering::Acquire) > 0 {
                if let Some(served) = self.server.next(None) {
                    route(served, ctx, txs, stats);
                }
            }
            fold.join().unwrap_or_else(|payload| panic::resume_unwind(payload))
        });

        Ok(RoundDelivery {
            outcome,
            dead: dead.into_inner(),
            stats: stats.into_inner(),
            codec: codec.into_inner(),
        })
    }
}

/// Routes one delivery: only a stream that arrived complete — this
/// round's iteration, a known sender, slot still open — is acknowledged
/// and its buffered chunks forwarded to Sigma. Anything else is dropped
/// unanswered, which shuts its connection; the sender's retransmission
/// is the only delivery.
fn route(served: Served, ctx: &RoundCtx<'_>, txs: &Slots, stats: &Mutex<TransportStats>) {
    let ServedKind::Round { iteration, chunks, mut reply, .. } = served.kind else {
        return;
    };
    if iteration != ctx.iteration as u64 {
        return;
    }
    let Some(peer) = ctx.senders.iter().position(|&n| n == served.node as usize) else {
        return;
    };
    // Clone the slot *before* acknowledging: the sender nulls it the
    // moment the ack lands, and the clone keeps the channel alive while
    // the buffer drains into Sigma.
    let Some(tx) = txs.lock()[peer].clone() else {
        return;
    };
    let mut booked = served.stats;
    let ack = Frame::control(FrameKind::Ack, served.node, iteration, 0, 0);
    if reply.send(&ack, &mut booked).is_err() {
        return;
    }
    stats.lock().merge(&booked);
    for chunk in chunks {
        if tx.send(chunk).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::RetryPolicy;
    use cosmic_collectives::codec::WireRepr;
    use cosmic_sim::faults::FaultPlan;

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
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
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
    fn severed_link_recovers_via_retransmission() {
        let plan = FaultPlan::none().sever_link(1, 0, 0);
        let retry = RetryPolicy::default();
        let senders = [0usize, 1];
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let sigma = SigmaAggregator::new(2, 2);
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let delivery = transport
            .round(&ctx(&plan, &retry, &senders, 2), &sigma, &[Some(&a[..]), Some(&b[..])])
            .unwrap();
        // The sever hit attempt 0; the supervised reconnect delivered
        // the full stream, so the fold is whole.
        assert_eq!(delivery.outcome.sum, vec![11.0, 22.0]);
        assert!(delivery.dead.is_empty());
        assert_eq!(delivery.stats.reconnects, 1);
    }

    #[test]
    fn corrupt_frame_is_rejected_and_retransmitted() {
        let plan = FaultPlan::none().corrupt_frame(0, 0, 0);
        let retry = RetryPolicy::default();
        let senders = [0usize];
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let sigma = SigmaAggregator::new(2, 2);
        let a = [3.0, 4.0];
        let delivery =
            transport.round(&ctx(&plan, &retry, &senders, 2), &sigma, &[Some(&a[..])]).unwrap();
        assert_eq!(delivery.outcome.sum, vec![3.0, 4.0]);
        assert!(delivery.outcome.quarantined.is_empty());
        assert!(delivery.dead.is_empty());
        assert_eq!(delivery.stats.reconnects, 1);
    }

    #[test]
    fn chunk_level_corruption_survives_the_wire_into_quarantine() {
        // Sigma-level corruption (stale chunk checksum) must not be
        // "fixed" by the wire: the frame itself is valid, the chunk is
        // not, and quarantine — not retransmission — handles it.
        let plan = FaultPlan::none().corrupt_chunk(1, 0, 0);
        let retry = RetryPolicy::default();
        let senders = [0usize, 1];
        let transport = TcpTransport::bind(LinkConfig::default()).unwrap();
        let sigma = SigmaAggregator::new(2, 2);
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let delivery = transport
            .round(&ctx(&plan, &retry, &senders, 2), &sigma, &[Some(&a[..]), Some(&b[..])])
            .unwrap();
        assert_eq!(delivery.outcome.sum, vec![1.0, 2.0]);
        assert_eq!(delivery.outcome.quarantined.len(), 1);
        assert_eq!(delivery.outcome.quarantined[0].0, 1);
        assert_eq!(delivery.stats.reconnects, 0);
    }

    #[test]
    fn unreachable_budget_exhaustion_reports_a_dead_link() {
        // A sever at every attempt is impossible (faults fire on
        // attempt 0 only), so exhaust the budget the honest way: point
        // the sender at a dead port via a transport whose listener is
        // dropped.
        let retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let link = LinkConfig { connect_timeout_ms: 100, ..LinkConfig::default() };
        let dead_addr = {
            let t = TcpTransport::bind(link).unwrap();
            t.addr()
        };
        let mut sender = RoundSender::new(dead_addr, 4, link, retry);
        let err =
            sender.send_round(0, &[], 0, &WireShim::transparent(), FrameKind::Ack).unwrap_err();
        match err {
            RuntimeError::TransportFailed { peer, attempts, .. } => {
                assert_eq!(peer, 4);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected TransportFailed, got {other:?}"),
        }
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
    fn an_idle_link_is_not_a_silent_peer() {
        // A compute phase of several read deadlines between rounds must
        // cost nothing: the deadline arms at a stream's first byte.
        let link = LinkConfig { read_timeout_ms: 40, ..LinkConfig::default() };
        let transport = TcpTransport::bind(link).unwrap();
        let (plan, senders) = (FaultPlan::none(), [0usize, 1]);
        let first = checked_round(&transport, &plan, 0, &senders, 64).stats;
        thread::sleep(2 * link.read_timeout() + link.read_timeout() / 2);
        let second = checked_round(&transport, &plan, 1, &senders, 64).stats;
        assert_eq!((first.connections, first.reconnects), (2, 0));
        assert_eq!((second.connections, second.reconnects), (0, 0));
    }
}
