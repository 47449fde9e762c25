//! The real-wire backend: loopback TCP with connection supervision.
//!
//! Each collective round opens one supervised TCP connection per
//! admitted sender to the backend's [`RoundServer`]. Senders stream
//! length-prefixed, checksummed frames through the fault shim; the
//! server reads each connection store-and-forward on its own reader
//! thread (a stream that dies mid-round contributes nothing) and this
//! module routes complete streams into the same bounded channels the
//! discrete-event backend uses, so the Sigma fold — and therefore the
//! model arithmetic — is identical bit for bit.
//!
//! A link whose retry budget exhausts is reported as a
//! [`DeadLink`] rather than an error: the engine books
//! it through the membership/failover machinery exactly like a crashed
//! node, so a dead socket degrades the run instead of hanging it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;

use crate::error::RuntimeError;
use crate::node::{Chunk, SigmaAggregator};

use super::shim::WireShim;
use super::supervisor::{self, RoundSender, RoundServer, Served, ServedKind};
use super::wire::{Frame, FrameKind};
use super::{
    DeadLink, LinkConfig, RoundCtx, RoundDelivery, Transport, TransportKind, TransportStats,
};

/// One forwarding slot per sender; `None` once that sender finished.
type Slots = Mutex<Vec<Option<Sender<Chunk>>>>;

/// The loopback TCP wire.
pub struct TcpTransport {
    server: RoundServer,
}

impl TcpTransport {
    /// Binds a fresh loopback listener (ephemeral port) for this
    /// transport's rounds.
    pub fn bind(link: LinkConfig) -> Result<Self, RuntimeError> {
        Ok(TcpTransport { server: RoundServer::bind(link)? })
    }

    /// The listener's address (loopback, ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Pushes one sender's wire stream through the connection
    /// supervisor.
    fn send_part(
        &self,
        member: usize,
        ctx: &RoundCtx<'_>,
        part: &[f64],
    ) -> Result<TransportStats, RuntimeError> {
        let wire_chunks: Vec<(usize, Chunk)> = ctx.wire_chunks(member, part).collect();
        let shim = WireShim::new(ctx.plan, member, ctx.iteration);
        let sender = RoundSender {
            addr: self.addr(),
            node: member,
            link: &self.server.link,
            retry: ctx.retry,
            repr: ctx.repr,
        };
        let report =
            sender.send_round(ctx.iteration as u64, &wire_chunks, 0, &shim, FrameKind::Ack)?;
        Ok(report.stats)
    }
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
        let mut receivers = Vec::with_capacity(ctx.senders.len());
        let mut slots = Vec::with_capacity(ctx.senders.len());
        for _ in ctx.senders {
            let (tx, rx) = channel::bounded(8);
            receivers.push(rx);
            slots.push(Some(tx));
        }
        let txs: Slots = Mutex::new(slots);
        let stats = Mutex::new(TransportStats::default());
        let dead: Mutex<Vec<DeadLink>> = Mutex::new(Vec::new());
        let stop = AtomicBool::new(false);
        let pending = AtomicUsize::new(ctx.senders.len());

        let outcome = thread::scope(|s| {
            let (txs, stats, dead, stop, pending) = (&txs, &stats, &dead, &stop, &pending);
            // Poll until every sender finished, serving each accepted
            // connection on a reader thread of its own.
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if let Some(stream) = self.server.poll() {
                        s.spawn(move || {
                            if let Some(served) = self.server.serve(stream) {
                                route(served, ctx, txs, stats);
                            }
                        });
                    }
                }
            });
            for (i, &member) in ctx.senders.iter().enumerate() {
                let part = parts[i];
                s.spawn(move || {
                    if let Some(part) = part {
                        match self.send_part(member, ctx, part) {
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
                    // the last sender to finish stops the accept loop.
                    txs.lock()[i] = None;
                    if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        stop.store(true, Ordering::Release);
                    }
                });
            }
            sigma.aggregate_validated(ctx.model_len, receivers)
        });

        Ok(RoundDelivery { outcome, dead: dead.into_inner(), stats: stats.into_inner() })
    }
}

/// Routes one connection: only a stream that arrived complete — this
/// round's iteration, a known sender, slot still open — is acknowledged
/// and its buffered chunks forwarded to Sigma. Anything else drops the
/// connection cold; the sender's retransmission is the only delivery.
fn route(mut served: Served, ctx: &RoundCtx<'_>, txs: &Slots, stats: &Mutex<TransportStats>) {
    let ServedKind::Round { iteration, chunks, .. } = served.kind else {
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
    // this reader drains its buffer into Sigma.
    let Some(tx) = txs.lock()[peer].clone() else {
        return;
    };
    let ack = Frame::control(FrameKind::Ack, served.node, iteration, 0, 0);
    if supervisor::reply(&mut served.stream, &ack, &mut served.stats).is_err() {
        return;
    }
    stats.lock().merge(&served.stats);
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
        let plan = FaultPlan::none();
        let retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let link = LinkConfig { connect_timeout_ms: 100, ..LinkConfig::default() };
        let dead_addr = {
            let t = TcpTransport::bind(link).unwrap();
            t.addr()
        };
        let sender = RoundSender {
            addr: dead_addr,
            node: 4,
            link: &link,
            retry: &retry,
            repr: WireRepr::DenseF64,
        };
        let err =
            sender.send_round(0, &[], 0, &WireShim::transparent(), FrameKind::Ack).unwrap_err();
        match err {
            RuntimeError::TransportFailed { peer, attempts, .. } => {
                assert_eq!(peer, 4);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected TransportFailed, got {other:?}"),
        }
        let _ = plan;
    }
}
