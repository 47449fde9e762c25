//! Membership maintenance: plan-driven liveness, detector verdicts,
//! expulsion, and the rejoin protocol.
//!
//! The *physical* fate of every node comes from the fault plan in both
//! membership modes — crash windows open and close, partitions quiesce
//! and heal. What differs is how the runtime learns about it: the
//! oracle expels and re-admits instantly; the detector only ever
//! reacts to heartbeats.

use cosmic_sim::faults::minority_nodes;

use crate::detector::SuspicionLevel;
use crate::error::RuntimeError;
use crate::trainer::{PartitionOutage, Suspicion};
use cosmic_collectives::TopologyError;

use super::observer::RunObserver;
use super::state::RunState;
use super::Engine;

/// Phase 0a: absorb the plan's partitions, crashes, and oracle-visible
/// rejoins for this iteration.
pub(crate) fn plan_phase<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
) -> Result<(), RuntimeError> {
    let iter = st.iter_idx;
    for (mask, heal) in eng.plan.partitions_starting_at(iter) {
        let minority = minority_nodes(mask);
        eng.obs.partition_started(iter, &minority, heal);
        st.report.partitions.push(PartitionOutage { start: iter, heal, minority });
    }
    let healing = st.report.partitions.iter().filter(|p| p.heal == iter).count();
    for _ in 0..healing {
        eng.obs.partition_healed(iter);
    }
    for node in 0..eng.cfg.nodes {
        // A rejoin event closes the down window unless a fresh crash
        // re-opens it at the same iteration.
        if !st.up[node] && eng.plan.rejoined_at(node, iter) && !eng.plan.crashed(node, iter) {
            st.up[node] = true;
            if eng.oracle && !st.member[node] {
                readmit(eng, st, node)?;
            }
        }
        if st.up[node] && eng.plan.crashed(node, iter) {
            st.up[node] = false;
            st.report.crashes.push((iter, node));
            eng.obs.crashed(iter, node);
            if eng.oracle && st.member[node] {
                kill_node(eng, st, node)?;
            }
        }
    }
    Ok(())
}

/// Phase 0b: the detector sweep. Suspicion is evaluated on the virtual
/// clock at the top of the round, over the heartbeats of every
/// previous round. No-op in oracle mode.
pub(crate) fn detector_sweep<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
) -> Result<(), RuntimeError> {
    if eng.oracle {
        return Ok(());
    }
    for node in 0..eng.cfg.nodes {
        if !st.member[node] {
            continue;
        }
        match st.detector.level(node, st.vclock) {
            SuspicionLevel::Healthy => {}
            SuspicionLevel::Suspected => {
                if !st.suspected[node] {
                    st.suspected[node] = true;
                    let phi = st.detector.phi(node, st.vclock);
                    st.report.suspicions.push(Suspicion { iteration: st.iter_idx, node, phi });
                    eng.obs.suspected(st.iter_idx, node, phi);
                }
            }
            SuspicionLevel::Failed => {
                st.suspected[node] = false;
                st.expelled_while_up[node] = st.up[node] && !eng.plan.quiesced(node, st.iter_idx);
                let phi = st.detector.phi(node, st.vclock);
                eng.obs.declared_failed(st.iter_idx, node, phi);
                kill_node(eng, st, node)?;
            }
        }
    }
    Ok(())
}

/// Expels `node` from membership and repairs the aggregation
/// hierarchy, recording any re-election. The repair bumps the
/// topology's membership epoch, so the collective schedule is rebuilt
/// over the survivors. Errors when the failure is unrecoverable.
pub(crate) fn kill_node<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    node: usize,
) -> Result<(), RuntimeError> {
    st.member[node] = false;
    if !st.member.iter().any(|&a| a) {
        return Err(RuntimeError::AllNodesFailed { iteration: st.iter_idx });
    }
    match st.topology.fail_node(node) {
        Ok(Some(promotion)) => {
            eng.obs.reelected(&promotion);
            st.report.reelections.push((st.iter_idx, promotion));
            Ok(())
        }
        Ok(None) => Ok(()),
        Err(TopologyError::NoMaster) => {
            Err(RuntimeError::NoSurvivingAggregator { iteration: st.iter_idx })
        }
        Err(other) => Err(other.into()),
    }
}

/// Whether two models are equal bit for bit (the elastic-membership
/// correctness bar: `==` would conflate `0.0` with `-0.0` and choke on
/// NaN).
pub(crate) fn model_bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Re-admits `node` through the rejoin protocol: attach it to the
/// repaired topology (bumping the membership epoch, so the collective
/// schedule rebuilds on join), reconstruct the current model from the
/// latest checkpoint plus replayed aggregated deltas, and record the
/// catch-up accounting — including whether the reconstruction matched
/// the survivors' model bit for bit.
pub(crate) fn readmit<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    node: usize,
) -> Result<(), RuntimeError> {
    st.topology.rejoin_node(node)?;
    st.member[node] = true;
    let caught = st.store.catch_up()?;
    let matched = model_bits_equal(&caught.model, &st.model);
    eng.obs.rejoined(st.iter_idx, node, &caught, matched);
    st.report.rejoins.push(crate::trainer::RejoinEvent {
        iteration: st.iter_idx,
        node,
        base_iteration: caught.base_iteration,
        replayed: caught.replayed,
        bytes: caught.bytes,
        matched,
    });
    Ok(())
}

/// End-of-iteration re-admission: every expelled node whose heartbeat
/// was observed this round rejoins (so it participates from the next
/// round on, with a caught-up model). An expulsion that turns out to
/// have been wrong — the node was up the whole time — is additionally
/// booked as a false suspicion.
pub(crate) fn process_rejoins<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
) -> Result<(), RuntimeError> {
    for (node, at) in std::mem::take(&mut st.rejoiners) {
        if st.member[node] {
            continue;
        }
        st.detector.reset(node, at);
        if st.expelled_while_up[node] {
            st.expelled_while_up[node] = false;
            st.report.false_suspicions += 1;
            eng.obs.false_suspicion();
        }
        readmit(eng, st, node)?;
    }
    Ok(())
}
