//! The discrete-event backend: crossbeam channels as sockets.
//!
//! The caller is the wire: the calling thread chunks each admitted
//! peer's partial in turn ([`RoundCtx::wire_chunks`], plan-driven chunk
//! corruption and duplication included) into that peer's unbounded
//! channel, which Sigma's aggregation job for that peer drains directly
//! — one hand-off per chunk — and the round creates no thread. Nothing
//! is booked into [`TransportStats`], so traced runs export telemetry
//! with no wire counters at all.

use cosmic_collectives::codec::CodecStats;
use crossbeam::channel;

use crate::error::RuntimeError;
use crate::node::SigmaAggregator;

use super::{RoundCtx, RoundDelivery, Transport, TransportKind, TransportStats};

/// The in-process channel wire (the default backend).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl Transport for SimTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        sigma: &SigmaAggregator,
        parts: &[Option<&[f64]>],
    ) -> Result<RoundDelivery, RuntimeError> {
        // Unbounded: a partial's chunks are views of one arena already,
        // so a bound would save no memory, only block the one feeder.
        let (txs, receivers): (Vec<_>, Vec<_>) =
            ctx.senders.iter().map(|_| channel::unbounded()).unzip();
        let mut codec = CodecStats::default();
        let outcome = sigma.aggregate_while(ctx.model_len, receivers, || {
            // Each `tx` drops at the end of its turn, ending that stream.
            for ((tx, &member), part) in txs.into_iter().zip(ctx.senders).zip(parts) {
                let Some(part) = part else {
                    continue;
                };
                let (stats, chunks) = ctx.wire_chunks(member, part);
                codec.merge(&stats);
                for (_, chunk) in chunks {
                    if tx.send(chunk).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(RoundDelivery { outcome, dead: Vec::new(), stats: TransportStats::default(), codec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::RetryPolicy;
    use cosmic_sim::faults::FaultPlan;

    #[test]
    fn sim_round_folds_parts_and_books_nothing() {
        let plan = FaultPlan::none();
        let retry = RetryPolicy::default();
        let senders = [0usize, 1];
        let ctx = RoundCtx {
            iteration: 0,
            model_len: 3,
            plan: &plan,
            retry: &retry,
            senders: &senders,
            repr: Default::default(),
        };
        let sigma = SigmaAggregator::new(2, 2);
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        let delivery = SimTransport.round(&ctx, &sigma, &[Some(&a[..]), Some(&b[..])]).unwrap();
        assert_eq!(delivery.outcome.sum, vec![11.0, 22.0, 33.0]);
        assert!(delivery.outcome.quarantined.is_empty());
        assert!(delivery.dead.is_empty());
        assert!(delivery.stats.is_empty());
        assert_eq!(SimTransport.kind(), TransportKind::Sim);
    }

    #[test]
    fn the_caller_feeds_more_peers_than_aggregation_workers() {
        let plan = FaultPlan::none();
        let retry = RetryPolicy::default();
        let senders: Vec<usize> = (0..16).collect();
        let model_len = 16 * crate::layout::CHUNK_WORDS;
        let ctx = RoundCtx {
            iteration: 0,
            model_len,
            plan: &plan,
            retry: &retry,
            senders: &senders,
            repr: Default::default(),
        };
        let data: Vec<Vec<f64>> =
            senders.iter().map(|&n| (0..model_len).map(|i| (i * 7 + n) as f64).collect()).collect();
        let parts: Vec<Option<&[f64]>> = data.iter().map(|p| Some(p.as_slice())).collect();
        let sigma = SigmaAggregator::new(1, 1);
        let delivery = SimTransport.round(&ctx, &sigma, &parts).unwrap();
        let expected: Vec<f64> =
            (0..model_len).map(|i| senders.iter().map(|&n| (i * 7 + n) as f64).sum()).collect();
        assert_eq!(delivery.outcome.sum, expected);
        assert_eq!(sigma.jobs_submitted(), 16);
    }

    #[test]
    fn sim_round_applies_chunk_faults_from_the_plan() {
        let plan = FaultPlan::none().corrupt_chunk(1, 0, 0).duplicate_chunk(0, 0, 0);
        let retry = RetryPolicy::default();
        let senders = [0usize, 1];
        let ctx = RoundCtx {
            iteration: 0,
            model_len: 2,
            plan: &plan,
            retry: &retry,
            senders: &senders,
            repr: Default::default(),
        };
        let sigma = SigmaAggregator::new(2, 2);
        let a = [1.0, 2.0];
        let b = [5.0, 5.0];
        let delivery = SimTransport.round(&ctx, &sigma, &[Some(&a[..]), Some(&b[..])]).unwrap();
        // Peer 1's corrupted chunk is quarantined; peer 0's duplicate is
        // dropped by the dedup, leaving peer 0's clean contribution.
        assert_eq!(delivery.outcome.sum, vec![1.0, 2.0]);
        assert_eq!(delivery.outcome.duplicates_dropped, 1);
        assert_eq!(delivery.outcome.quarantined.len(), 1);
        assert_eq!(delivery.outcome.quarantined[0].0, 1);
    }
}
