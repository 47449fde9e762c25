//! The round's closing phase: apply the surviving update to the model,
//! log it for replay, and take cadence snapshots.

use std::sync::Arc;

use cosmic_ml::Aggregation;

use crate::checkpoint::ReplayOp;

use super::observer::RunObserver;
use super::state::RunState;
use super::Engine;

/// Applies the round's surviving aggregate to the model and records the
/// update into the replay log backing the rejoin protocol. The logged
/// op's own statements are the ones applied, so replay reproduces the
/// model bit for bit.
pub(crate) fn apply_update<O: RunObserver>(
    eng: &Engine<'_, O>,
    st: &mut RunState,
    total: Vec<f64>,
    active_total: usize,
) {
    let op = match eng.cfg.aggregation {
        // Partials are worker models; averaging over the surviving
        // contributors yields the parallelized-SGD update (Eq. 3b).
        Aggregation::Average => ReplayOp::Average { sum: total, active_total: active_total as f64 },
        // Partials are gradient sums over the records the survivors
        // actually processed.
        Aggregation::Sum => {
            ReplayOp::Step { grad: total, scale: eng.cfg.learning_rate / active_total as f64 }
        }
    };
    op.apply(Arc::<Vec<f64>>::make_mut(&mut st.model)); // unshared: no copy
    st.store.record_update(op);
    st.iterations += 1;
}

/// Takes a cadence snapshot when the checkpoint config says this
/// completed iteration is due one.
pub(crate) fn maybe_checkpoint<O: RunObserver>(eng: &Engine<'_, O>, st: &mut RunState) {
    if st.store.maybe_checkpoint(st.iter_idx + 1, &st.model) {
        st.report.checkpoints += 1;
        eng.obs.checkpointed(st.iter_idx, st.model.len());
    }
}
