//! The compute phase: worker fan-out, panic absorption, and the
//! deadline-admission barrier in virtual time.

use std::thread;

use cosmic_ml::data::Dataset;
use cosmic_ml::{Aggregation, Algorithm};
use cosmic_sim::faults::FaultPlan;

use crate::error::RuntimeError;
use crate::trainer::{ClusterConfig, Exclusion, ExclusionReason, RetryPolicy};

use super::membership::kill_node;
use super::observer::RunObserver;
use super::state::RunState;
use super::Engine;

/// A node's partial for one round: the locally-aggregated vector and
/// its contribution weight (threads for averaging, records for sums).
pub(crate) type NodePartial = Option<(Vec<f64>, usize)>;

/// Phase 1: every physically-up, unpartitioned node computes its
/// partial in parallel; within a node, every accelerator thread in
/// parallel. In detector mode this includes nodes the runtime has
/// expelled — they don't know they're out, and their traffic is what
/// triggers re-admission. A panicked node thread yields `None`.
pub(crate) fn fan_out<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &RunState,
    step: usize,
) -> Vec<NodePartial> {
    let (alg, per_worker, cfg) = (eng.alg, eng.per_worker, eng.cfg);
    thread::scope(|s| {
        let handles: Vec<Option<_>> = eng
            .thread_parts
            .iter()
            .enumerate()
            .map(|(node, subs)| {
                if !st.up[node] || eng.plan.quiesced(node, st.iter_idx) {
                    return None;
                }
                let model = &st.model;
                Some(s.spawn(move || node_partial(alg, subs, model, step, per_worker, cfg)))
            })
            .collect();
        handles.into_iter().map(|h| h.and_then(|h| h.join().ok().flatten())).collect()
    })
}

/// Phase 1b: a node that should have computed but produced nothing had
/// a panicking worker thread — the pool sees it locally, with no
/// detection latency in either membership mode.
pub(crate) fn absorb_panics<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    partials: &[NodePartial],
) -> Result<(), RuntimeError> {
    for (node, partial) in partials.iter().enumerate() {
        let computing = st.up[node] && !eng.plan.quiesced(node, st.iter_idx);
        if computing && partial.is_none() {
            st.up[node] = false;
            if st.member[node] {
                st.report.exclusions.push(Exclusion {
                    iteration: st.iter_idx,
                    node,
                    reason: ExclusionReason::ThreadPanic,
                });
                eng.obs.excluded(st.iter_idx, node);
                kill_node(eng, st, node)?;
            }
        }
    }
    Ok(())
}

/// Phase 2: deadline admission in virtual time. A node's completion
/// time is its straggle factor plus the backoff delays spent
/// retransmitting dropped chunks; past the deadline it is excluded and
/// the update will be rescaled over the survivors. Every arrival is
/// also a heartbeat: deliveries feed the detector, reinstate suspects,
/// and queue expelled senders for rejoin. Returns the admitted
/// contributions and the barrier's virtual wait (the slowest member's
/// completion time, capped at the deadline).
pub(crate) fn admission_barrier<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    partials: &mut [NodePartial],
    t0: f64,
) -> (Vec<NodePartial>, f64) {
    let mut contributions: Vec<NodePartial> = (0..eng.cfg.nodes).map(|_| None).collect();
    let mut round_cost = 1.0f64; // nominal compute time
    for node in 0..eng.cfg.nodes {
        if !st.up[node] || eng.plan.quiesced(node, st.iter_idx) {
            continue;
        }
        let has_records = matches!(&partials[node], Some((_, n)) if *n > 0);
        if !has_records {
            continue;
        }
        let adm =
            admit(eng.plan, &eng.cfg.retry, eng.cfg.deadline_factor, node, st.iter_idx, eng.chunks);
        if st.member[node] {
            // Only members hold up the barrier or count in the round's
            // retry traffic; an expelled node's stream is background
            // noise until it rejoins.
            st.report.chunk_retries += adm.retries;
            round_cost = round_cost.max(adm.cost.min(eng.cfg.deadline_factor));
            if adm.retries > 0 {
                eng.obs.retransmitted(node, t0, adm.backoff, adm.retries);
            }
        }
        // Every arrival is a heartbeat — even one past the deadline
        // (late is not lost). Only an undeliverable stream never
        // registers.
        if !eng.oracle && !matches!(adm.reason, Some(ExclusionReason::Undeliverable)) {
            let at = st.vclock + adm.cost;
            st.detector.observe(node, at);
            if st.member[node] && st.suspected[node] {
                st.suspected[node] = false;
                st.report.false_suspicions += 1;
                st.report.reinstatements.push((st.iter_idx, node));
                eng.obs.reinstated(st.iter_idx, node);
            } else if !st.member[node] {
                st.rejoiners.push((node, at));
            }
        }
        if !st.member[node] {
            continue;
        }
        match adm.reason {
            None => contributions[node] = partials[node].take(),
            Some(reason) => {
                st.report.exclusions.push(Exclusion { iteration: st.iter_idx, node, reason });
                eng.obs.excluded(st.iter_idx, node);
            }
        }
    }
    (contributions, round_cost)
}

/// The outcome of deadline admission for one node.
pub(crate) struct Admission {
    /// `None` when the node made the deadline and contributes.
    pub reason: Option<ExclusionReason>,
    /// Retransmissions spent recovering dropped chunks.
    pub retries: usize,
    /// Total backoff delay spent on those retransmissions, in
    /// nominal-iteration units.
    pub backoff: f64,
    /// The node's virtual completion time: straggle factor + backoff.
    pub cost: f64,
}

/// Deadline admission for one node, in virtual time.
pub(crate) fn admit(
    plan: &FaultPlan,
    retry: &RetryPolicy,
    deadline_factor: f64,
    node: usize,
    iteration: usize,
    chunks: usize,
) -> Admission {
    let mut retries = 0;
    let mut backoff = 0.0;
    let mut undeliverable = false;
    if plan.has_chunk_faults(node, iteration) {
        for chunk in 0..chunks {
            let drops = plan.chunk_drops(node, iteration, chunk);
            if drops == 0 {
                continue;
            }
            if drops > retry.max_retries {
                undeliverable = true;
            }
            let attempts = drops.min(retry.max_retries);
            for attempt in 0..attempts {
                backoff += retry.delay(attempt);
            }
            retries += attempts as usize;
        }
    }
    let cost = plan.straggle_factor(node, iteration) + backoff;
    let reason = if undeliverable {
        Some(ExclusionReason::Undeliverable)
    } else if cost > deadline_factor {
        Some(ExclusionReason::DeadlineExceeded { virtual_cost: cost })
    } else {
        None
    };
    Admission { reason, retries, backoff, cost }
}

/// A worker thread's result: the outer `Option` is `None` when the
/// thread panicked; the inner one is `None` when it had no records for
/// this step.
type ThreadResult = Option<Option<(Vec<f64>, usize)>>;

/// One node's iteration: run every accelerator thread over its share of
/// the mini-batch, then aggregate locally on chip. Returns the node
/// partial and how many worker threads contributed, or `None` if a
/// worker thread panicked (the node counts as failed).
fn node_partial(
    alg: &Algorithm,
    subs: &[Dataset],
    model: &[f64],
    step: usize,
    per_worker: usize,
    cfg: &ClusterConfig,
) -> Option<(Vec<f64>, usize)> {
    let thread_results: Vec<ThreadResult> = thread::scope(|s| {
        let handles: Vec<_> = subs
            .iter()
            .map(|sub| {
                s.spawn(move || {
                    let lo = (step * per_worker).min(sub.len());
                    let hi = ((step + 1) * per_worker).min(sub.len());
                    if lo == hi {
                        return None;
                    }
                    let records = &sub.records()[lo..hi];
                    let partial = match cfg.aggregation {
                        Aggregation::Average => {
                            let mut local = model.to_vec();
                            for r in records {
                                alg.sgd_update(r, &mut local, cfg.learning_rate);
                            }
                            local
                        }
                        Aggregation::Sum => {
                            let mut grad = vec![0.0; model.len()];
                            for r in records {
                                alg.accumulate_gradient(r, model, &mut grad);
                            }
                            grad
                        }
                    };
                    Some((partial, records.len()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });

    // Local (on-chip) aggregation across the node's worker threads. The
    // weight is what the final operator divides by: contributing threads
    // for model averaging, records for a batched-gradient sum. A
    // panicked worker fails the whole node.
    let mut sum = vec![0.0; model.len()];
    let mut weight = 0;
    for result in thread_results {
        let Some((partial, records)) = result? else {
            continue;
        };
        for (s, v) in sum.iter_mut().zip(&partial) {
            *s += v;
        }
        weight += match cfg.aggregation {
            Aggregation::Average => 1,
            Aggregation::Sum => records,
        };
    }
    Some((sum, weight))
}
