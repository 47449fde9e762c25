//! The collective-aggregation phase: schedule refresh, chunk streaming
//! over the configured transport into the Sigma pipeline, and
//! quarantine/dead-link accounting.

use cosmic_collectives::codec::WireRepr;

use std::mem::take;

use crate::error::RuntimeError;
use crate::layout::CHUNK_WORDS;
use crate::trainer::{Exclusion, ExclusionReason, Quarantine, RETRY};
use crate::transport::RoundCtx;

use super::membership::kill_node;
use super::observer::RunObserver;
use super::state::{RoundTables, RunState, ScheduleCache};
use super::Engine;

/// The surviving aggregate of one collective round.
pub(crate) struct RoundOutput {
    /// Element-wise sum over the streams that cleared Sigma validation.
    pub sum: Vec<f64>,
    /// The rescaling denominator: contribution weight of the peers that
    /// survived admission *and* Sigma validation.
    pub active_total: usize,
}

/// Phase 3: collective aggregation. The admitted members' raw partials
/// go to the configured [`Transport`](crate::transport::Transport) —
/// channels for the discrete-event wire, supervised sockets for TCP —
/// which chunks them under the configured wire representation and
/// streams them into the Sigma pipeline, with injected corruption and
/// duplication applied on the wire; quarantined peers and dead links
/// are withheld from the fold and from the contributor count. Returns
/// `None` when no contribution survived (the round applies no update).
/// Reads `round.senders` and `round.contributions`.
pub(crate) fn collective_round<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    round: &mut RoundTables,
) -> Result<Option<RoundOutput>, RuntimeError> {
    let (senders, contributions) = (&round.senders, &mut round.contributions);
    refresh_schedule(eng, st, senders)?;
    // The partials are lent to the transport raw — the chunking
    // boundary, where a lossy wire repr applies, is
    // `RoundCtx::wire_chunks`, on this thread — and come back, the same
    // buffers, for `Compute::settle`.
    let repr = eng.cfg.repr;
    let parts = &mut round.parts;
    parts.extend(senders.iter().map(|&m| contributions[m].as_mut().map(|(p, _)| take(p))));
    let ctx = RoundCtx {
        iteration: st.iter_idx,
        model_len: eng.model_len,
        plan: eng.plan,
        retry: &RETRY,
        senders,
        repr,
    };
    let delivery = eng.transport.round_lent(&ctx, &eng.sigma, parts);
    for (&m, part) in senders.iter().zip(parts.drain(..)) {
        if let (Some((lent, _)), Some(part)) = (&mut contributions[m], part) {
            *lent = part;
        }
    }
    let delivery = delivery?;
    if repr != WireRepr::DenseF64 {
        eng.obs.codec_applied(st.iter_idx, repr, &delivery.codec);
    }
    let outcome = delivery.outcome;
    st.report.duplicates_dropped += outcome.duplicates_dropped;
    if let Some(cache) = &st.schedule_cache {
        eng.obs.aggregated(cache, eng.cfg.collective.label(), senders.len(), eng.chunks, &outcome);
    }
    eng.obs.transported(&delivery.stats);
    let rejected = &mut round.rejected;
    rejected.clear();
    rejected.resize(senders.len(), false);
    for &(peer, fault) in &outcome.quarantined {
        rejected[peer] = true;
        st.report.quarantines.push(Quarantine {
            iteration: st.iter_idx,
            node: senders[peer],
            fault,
        });
    }

    // A dead link is a membership event, not just a lost round: the
    // peer is unreachable, so it is expelled through the same failover
    // machinery as a crashed node (re-election included) rather than
    // silently re-polled forever.
    for dead in &delivery.dead {
        if let Some(peer) = senders.iter().position(|&m| m == dead.node) {
            rejected[peer] = true;
        }
        eng.obs.link_dead(st.iter_idx, dead.node, dead.attempts);
        if st.member[dead.node] {
            st.report.exclusions.push(Exclusion {
                iteration: st.iter_idx,
                node: dead.node,
                reason: ExclusionReason::LinkDead { attempts: dead.attempts },
            });
            eng.obs.excluded(st.iter_idx, dead.node);
            kill_node(eng, st, dead.node)?;
        }
    }

    // `active_total` is the single source of truth for the rescaling
    // denominator: contributors that survived admission *and* Sigma
    // validation.
    let active_total: usize = senders
        .iter()
        .enumerate()
        .filter(|&(i, _)| !rejected[i])
        .filter_map(|(_, &m)| contributions[m].as_ref().map(|(_, n)| *n))
        .sum();
    if active_total == 0 {
        return Ok(None);
    }
    Ok(Some(RoundOutput { sum: outcome.sum, active_total }))
}

/// Rebuilds the collective schedule when the topology epoch or the
/// admitted participant set changed since it was last built. The
/// configured strategy decides the wire pattern (and therefore what the
/// trace books per link level); the arithmetic stays the canonical
/// ascending fold, so every strategy trains bit-identically.
fn refresh_schedule<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    senders: &[usize],
) -> Result<(), RuntimeError> {
    let stale = st
        .schedule_cache
        .as_ref()
        .is_none_or(|c| c.epoch != st.topology.epoch() || c.participants != senders);
    if !stale {
        return Ok(());
    }
    let schedule = eng
        .cfg
        .collective
        .strategy()
        .schedule(&st.topology, senders, eng.model_len, CHUNK_WORDS)?
        .with_repr(eng.cfg.repr);
    schedule.validate()?;
    eng.obs.schedule_rebuilt(eng.cfg.collective.label(), senders.len());
    st.schedule_cache = Some(ScheduleCache {
        epoch: st.topology.epoch(),
        participants: senders.to_vec(),
        levels: schedule.bytes_by_level(),
        rounds: schedule.rounds(),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullObserver;
    use crate::node::{ChunkFault, SigmaAggregator};
    use crate::trainer::{ClusterConfig, ClusterTrainer};
    use crate::transport::{RoundDelivery, SimTransport, TcpTransport, Transport, TransportKind};
    use cosmic_ml::{data, Algorithm};
    use cosmic_sim::faults::FaultPlan;

    /// `wire`, with sender `at.1`'s partial of iteration `at.0` marked
    /// to trip [`SigmaAggregator::tripwired`] or
    /// [`TcpTransport::tripwired`].
    struct Marked {
        at: (usize, usize),
        wire: Box<dyn Transport>,
    }

    impl Transport for Marked {
        fn kind(&self) -> TransportKind {
            TransportKind::Sim
        }

        fn round_lent(
            &self,
            ctx: &RoundCtx<'_>,
            sigma: &SigmaAggregator,
            parts: &mut [Option<Vec<f64>>],
        ) -> Result<RoundDelivery, RuntimeError> {
            let Some(marked) = parts[self.at.1].as_mut().filter(|_| ctx.iteration == self.at.0)
            else {
                return self.wire.round_lent(ctx, sigma, parts);
            };
            let word = std::mem::replace(&mut marked[0], SigmaAggregator::TRIPWIRE);
            let delivery = self.wire.round_lent(ctx, sigma, parts);
            if let Some(marked) = &mut parts[self.at.1] {
                marked[0] = word;
            }
            delivery
        }
    }

    /// An aggregation job that unwinds takes its peer out of the sum
    /// *and* out of `active_total`: the run is, bit for bit, the run in
    /// which that peer's stream was quarantined for a corrupt chunk.
    #[test]
    fn an_aborted_aggregation_job_leaves_the_denominator_with_its_peer() {
        let alg = Algorithm::LogisticRegression { features: 6 };
        let ds = data::generate(&alg, 240, 7);
        let init = data::init_model(&alg, 3);
        let cfg = ClusterConfig {
            nodes: 4,
            groups: 2,
            minibatch: 48,
            learning_rate: 0.2,
            ..ClusterConfig::default()
        };
        let trainer = ClusterTrainer::new(cfg.clone()).expect("valid config");
        let mut eng = Engine::new(&cfg, &alg, &ds, init.len(), NullObserver).expect("sim");
        eng.sigma = SigmaAggregator::default().tripwired();
        eng.transport = Box::new(Marked { at: (2, 1), wire: Box::new(SimTransport) });
        let aborted = eng.run(trainer.topology().clone(), init.clone()).expect("absorbed");

        let plan = FaultPlan::none().corrupt_chunk(1, 2, 0);
        let corrupted = ClusterTrainer::new(ClusterConfig { faults: plan, ..cfg.clone() })
            .expect("valid config")
            .train(&alg, &ds, init.clone())
            .expect("absorbed");
        let healthy = trainer.train(&alg, &ds, init).expect("healthy");

        let verdicts = |faults: &[Quarantine]| -> Vec<(usize, usize, ChunkFault)> {
            faults.iter().map(|q| (q.iteration, q.node, q.fault)).collect()
        };
        assert_eq!(verdicts(&aborted.faults.quarantines), [(2, 1, ChunkFault::Aborted)]);
        assert_eq!(
            verdicts(&corrupted.faults.quarantines),
            [(2, 1, ChunkFault::Corrupt { offset: 0 })]
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&aborted.model), bits(&corrupted.model), "survivor rescaling");
        assert_eq!(bits(&aborted.loss_history), bits(&corrupted.loss_history));
        assert_ne!(bits(&aborted.model), bits(&healthy.model), "the round was not a no-op");
        assert_eq!(aborted.iterations, healthy.iterations, "and the next one ran");
    }

    /// A link sender that panics costs its node the link, not the round:
    /// the engine books it `LinkDead` and the job trains on.
    #[test]
    fn a_panicking_link_sender_is_booked_as_a_dead_link() {
        let alg = Algorithm::LogisticRegression { features: 6 };
        let ds = data::generate(&alg, 240, 7);
        let init = data::init_model(&alg, 3);
        let cfg = ClusterConfig {
            nodes: 4,
            groups: 2,
            minibatch: 48,
            learning_rate: 0.2,
            transport: TransportKind::Tcp,
            ..ClusterConfig::default()
        };
        let trainer = ClusterTrainer::new(cfg.clone()).expect("valid config");
        let mut eng = Engine::new(&cfg, &alg, &ds, init.len(), NullObserver).expect("loopback");
        let tcp = TcpTransport::bind(cfg.link).expect("loopback").tripwired();
        eng.transport = Box::new(Marked { at: (2, 1), wire: Box::new(tcp) });
        let out = eng.run(trainer.topology().clone(), init.clone()).expect("absorbed");

        let reasons: Vec<(usize, usize, ExclusionReason)> =
            out.faults.exclusions.iter().map(|e| (e.iteration, e.node, e.reason)).collect();
        assert_eq!(reasons, [(2, 1, ExclusionReason::LinkDead { attempts: 1 })]);
        assert!(out.faults.quarantines.is_empty());
        let healthy = trainer.train(&alg, &ds, init).expect("healthy");
        assert_eq!(out.iterations, healthy.iterations, "the job trained on");
    }
}
