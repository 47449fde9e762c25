//! The discrete-event backend: the caller is the wire.
//!
//! The calling thread chunks each admitted peer's partial in turn
//! ([`RoundCtx::wire_chunks`], plan-driven chunk corruption and
//! duplication included) and stages each chunk into that peer's Sigma
//! stage as it is made: no channel, no hand-off, and no thread. Nothing
//! is booked into [`TransportStats`], so traced runs export telemetry
//! with no wire counters at all.

use cosmic_collectives::codec::CodecStats;

use crate::error::RuntimeError;
use crate::node::SigmaAggregator;

use super::{lend, RoundCtx, RoundDelivery, Transport, TransportKind, TransportStats};

/// The in-process wire (the default backend).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl Transport for SimTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }

    fn round_lent(
        &self,
        ctx: &RoundCtx<'_>,
        sigma: &SigmaAggregator,
        parts: &mut [Option<Vec<f64>>],
    ) -> Result<RoundDelivery, RuntimeError> {
        lend(parts, |arenas| {
            let mut pass = sigma.pass(ctx.model_len, ctx.senders.len(), None);
            let mut codec = CodecStats::default();
            for (peer, (&member, arena)) in ctx.senders.iter().zip(arenas).enumerate() {
                let Some(arena) = arena else {
                    continue;
                };
                let (stats, chunks) = ctx.wire_chunks(member, arena);
                codec.merge(&stats);
                pass.stage(peer, chunks.map(|(_, chunk)| chunk));
            }
            let outcome = pass.finish();
            Ok(RoundDelivery { outcome, dead: Vec::new(), stats: TransportStats::default(), codec })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_parts_reference;
    use crate::node::ChunkFault;
    use crate::trainer::RetryPolicy;
    use cosmic_sim::faults::FaultPlan;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

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
    fn the_caller_stages_sixteen_peers_on_its_own_thread() {
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

    #[test]
    fn a_staging_panic_aborts_only_its_peer_and_the_next_round_runs() {
        let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
        let senders = [0usize, 1, 2];
        let model_len = 2 * crate::layout::CHUNK_WORDS + 5;
        let ctx = RoundCtx {
            iteration: 0,
            model_len,
            plan: &plan,
            retry: &retry,
            senders: &senders,
            repr: Default::default(),
        };
        let data: Vec<Vec<f64>> = senders
            .iter()
            .map(|&n| (0..model_len).map(|i| ((i * 31 + n * 7) % 997) as f64 / 997.0).collect())
            .collect();
        let mut marked = data[1].clone();
        marked[0] = SigmaAggregator::TRIPWIRE;
        let sigma = SigmaAggregator::new(2, 2).tripwired();
        let parts = [Some(&data[0][..]), Some(&marked[..]), Some(&data[2][..])];
        let delivery = SimTransport.round(&ctx, &sigma, &parts).unwrap();
        assert_eq!(delivery.outcome.quarantined, vec![(1, ChunkFault::Aborted)]);
        let mut expected = vec![0.0; model_len];
        fold_parts_reference(&mut expected, &[&data[0], &data[2]]);
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected), "the other peers, bit for bit");

        // The same aggregator on the next round folds every peer.
        let parts: Vec<Option<&[f64]>> = data.iter().map(|p| Some(p.as_slice())).collect();
        let delivery =
            SimTransport.round(&RoundCtx { iteration: 1, ..ctx }, &sigma, &parts).unwrap();
        assert!(delivery.outcome.quarantined.is_empty());
        let slices: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let mut expected = vec![0.0; model_len];
        fold_parts_reference(&mut expected, &slices);
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected));
    }
}
