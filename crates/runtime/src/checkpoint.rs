//! Deterministic model checkpointing and rejoin catch-up.
//!
//! Elastic membership needs two things an oracle-driven runtime never
//! did: a **recovery point** (so a rejoining node doesn't restart from
//! iteration zero) and a **bit-exact catch-up path** (so the rejoined
//! node's model equals the survivors' model, not an approximation of
//! it). This module provides both on virtual time:
//!
//! - `CheckpointStore` snapshots the model every `cadence`
//!   iterations. Each [`Checkpoint`] is sealed with the memory-speed
//!   [`payload_digest`] of the model's f64 bit patterns;
//!   [`Checkpoint::verify`] rejects a corrupted snapshot before anyone
//!   catches up from it.
//! - Between checkpoints the store retains each iteration's aggregated
//!   update as a `ReplayOp` — the *exact operands* the trainer
//!   applied (`model = sum / active_total` for averaging,
//!   `model -= scale · grad` for gradient steps). Replaying those
//!   operations over the snapshot reproduces the survivors' model bit
//!   for bit, because floating-point evaluation is deterministic when
//!   the operations and their order are identical. Storing post-update
//!   models instead would also be exact but costs a full model per
//!   iteration; storing `new − old` deltas would *not* be exact
//!   (catastrophic cancellation re-orders rounding).
//! - `CheckpointStore::catch_up` packages the recovery: verify the
//!   newest snapshot, replay the retained ops, and report how many
//!   bytes the joining node had to pull — the metric `fig_elastic`
//!   charges against churn.

use std::error::Error;
use std::fmt;

use cosmic_collectives::{payload_digest, Fnv1a};

/// FNV-1a over the little-endian bytes of each word's bit pattern.
/// Stable across platforms and sensitive to single-bit flips; the
/// launcher names models by it (`final_checksum`, the catch-up
/// handshake). Byte-serial, so snapshots seal with [`payload_digest`]
/// instead.
pub fn model_checksum(model: &[f64]) -> u64 {
    let mut hash = Fnv1a::default();
    for word in model {
        hash.write_u64(word.to_bits());
    }
    hash.finish()
}

/// Checkpointing cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Snapshot the model after every `cadence`-th completed iteration.
    pub cadence: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { cadence: 8 }
    }
}

impl CheckpointConfig {
    /// Validates the cadence (zero would never checkpoint and never
    /// bound the replay log).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.cadence == 0 {
            return Err("checkpoint cadence must be at least 1".to_string());
        }
        Ok(())
    }
}

/// A checksummed model snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed iterations when the snapshot was taken (0 = the
    /// genesis snapshot of the initial model).
    pub iteration: usize,
    /// The model words at that point.
    pub model: Vec<f64>,
    /// The [`payload_digest`] of `model`.
    pub checksum: u64,
}

impl Checkpoint {
    /// Snapshots `model` as of `iteration` completed iterations.
    pub fn take(iteration: usize, model: &[f64]) -> Self {
        Checkpoint { iteration, model: model.to_vec(), checksum: payload_digest(model) }
    }

    /// Re-derives the checksum and compares it to the stored one.
    pub fn verify(&self) -> Result<(), CheckpointError> {
        if payload_digest(&self.model) == self.checksum {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt { iteration: self.iteration })
        }
    }
}

/// One iteration's aggregated model update, stored in exactly the form
/// the trainer applied it so replay is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReplayOp {
    /// Model-averaging: `model[i] = sum[i] / active_total`.
    Average {
        /// Element-wise sum of the surviving contributors' models.
        sum: Vec<f64>,
        /// The rescaling denominator (surviving record count).
        active_total: f64,
    },
    /// Gradient step: `model[i] -= scale * grad[i]`.
    Step {
        /// Element-wise sum of the surviving contributors' gradients.
        grad: Vec<f64>,
        /// The precomputed `learning_rate / active_total` factor.
        scale: f64,
    },
}

impl ReplayOp {
    /// Applies the update to `model` with the trainer's exact
    /// statements (same operations, same order ⇒ same bits).
    pub(crate) fn apply(&self, model: &mut [f64]) {
        match self {
            ReplayOp::Average { sum, active_total } => {
                for (m, s) in model.iter_mut().zip(sum) {
                    *m = s / active_total;
                }
            }
            ReplayOp::Step { grad, scale } => {
                for (m, g) in model.iter_mut().zip(grad) {
                    *m -= scale * g;
                }
            }
        }
    }

    /// Model words carried by the op (what a catch-up transfer ships).
    pub(crate) fn words(&self) -> usize {
        match self {
            ReplayOp::Average { sum, .. } => sum.len(),
            ReplayOp::Step { grad, .. } => grad.len(),
        }
    }
}

/// The result of a rejoin catch-up.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CatchUp {
    /// The reconstructed model (must equal the survivors' bit for bit).
    pub model: Vec<f64>,
    /// Iteration of the checkpoint the catch-up started from.
    pub base_iteration: usize,
    /// Replayed per-iteration updates on top of the checkpoint.
    pub replayed: usize,
    /// Bytes shipped to the joining node: the snapshot plus every
    /// replayed update vector (8 bytes per word).
    pub bytes: usize,
}

/// Checkpoint + replay-log store driving rejoin catch-up.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointStore {
    cfg: CheckpointConfig,
    latest: Checkpoint,
    log: Vec<ReplayOp>,
}

impl CheckpointStore {
    /// Starts the store with a genesis snapshot of the initial model,
    /// so a node that dies in the very first interval can still catch
    /// up.
    pub(crate) fn new(cfg: CheckpointConfig, initial_model: &[f64]) -> Self {
        CheckpointStore { cfg, latest: Checkpoint::take(0, initial_model), log: Vec::new() }
    }

    /// Records the aggregated update some completed iteration applied.
    pub(crate) fn record_update(&mut self, op: ReplayOp) {
        self.log.push(op);
    }

    /// After `completed` iterations have finished, snapshot `model` if
    /// the cadence divides `completed`; a snapshot clears the replay
    /// log (everything before it is recoverable from the snapshot).
    /// Returns whether a snapshot was taken.
    pub(crate) fn maybe_checkpoint(&mut self, completed: usize, model: &[f64]) -> bool {
        if completed == 0 || !completed.is_multiple_of(self.cfg.cadence) {
            return false;
        }
        self.latest = Checkpoint::take(completed, model);
        self.log.clear();
        true
    }

    /// Reconstructs the current model for a joining node: verify the
    /// latest snapshot, replay the retained updates, tally the bytes
    /// shipped.
    pub(crate) fn catch_up(&self) -> Result<CatchUp, CheckpointError> {
        self.latest.verify()?;
        let mut model = self.latest.model.clone();
        let mut bytes = crate::layout::vector_bytes(model.len());
        for op in &self.log {
            op.apply(&mut model);
            bytes += crate::layout::vector_bytes(op.words());
        }
        Ok(CatchUp {
            model,
            base_iteration: self.latest.iteration,
            replayed: self.log.len(),
            bytes,
        })
    }
}

/// A checkpoint integrity failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The snapshot's contents no longer match its checksum.
    Corrupt {
        /// The snapshot's iteration stamp.
        iteration: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Corrupt { iteration } => {
                write!(f, "checkpoint at iteration {iteration} failed checksum verification")
            }
        }
    }
}

impl Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_bit_sensitive() {
        let model = vec![1.0, -2.5, 0.0];
        assert_eq!(model_checksum(&model), model_checksum(&model));
        let mut flipped = model.clone();
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
        assert_ne!(model_checksum(&model), model_checksum(&flipped));
        // 0.0 and -0.0 are == but differ in bits: the checksum sees it.
        assert_ne!(model_checksum(&[0.0]), model_checksum(&[-0.0]));
    }

    #[test]
    fn verify_catches_corruption() {
        let mut cp = Checkpoint::take(4, &[1.0, 2.0]);
        cp.verify().expect("fresh snapshot verifies");
        cp.model[0] = 1.0000000001;
        assert_eq!(cp.verify(), Err(CheckpointError::Corrupt { iteration: 4 }));
        let msg = CheckpointError::Corrupt { iteration: 4 }.to_string();
        assert!(msg.contains("iteration 4"), "{msg}");
    }

    #[test]
    fn replay_reproduces_the_trainer_statements_bitwise() {
        let sum = vec![0.3, -1.7, 9.0];
        let mut direct = [0.0; 3];
        for (m, s) in direct.iter_mut().zip(&sum) {
            *m = s / 7.0;
        }
        let mut replayed = vec![0.0; 3];
        ReplayOp::Average { sum: sum.clone(), active_total: 7.0 }.apply(&mut replayed);
        assert_eq!(
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            replayed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );

        let grad = vec![0.1, 0.2, -0.3];
        let scale = 0.05 / 3.0;
        let mut direct = vec![1.0, -2.0, 3.0];
        let mut replayed = direct.clone();
        for (m, g) in direct.iter_mut().zip(&grad) {
            *m -= scale * g;
        }
        ReplayOp::Step { grad, scale }.apply(&mut replayed);
        assert_eq!(
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            replayed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn store_checkpoints_on_cadence_and_clears_the_log() {
        let mut store = CheckpointStore::new(CheckpointConfig { cadence: 2 }, &[0.0, 0.0]);
        assert_eq!(store.latest.iteration, 0);
        let mut model = vec![0.0, 0.0];
        for completed in 1..=5 {
            let op = ReplayOp::Average {
                sum: vec![completed as f64, 2.0 * completed as f64],
                active_total: 2.0,
            };
            op.apply(&mut model);
            store.record_update(op);
            let snapped = store.maybe_checkpoint(completed, &model);
            assert_eq!(snapped, completed % 2 == 0, "completed={completed}");
        }
        assert_eq!(store.latest.iteration, 4);
        assert_eq!(store.log.len(), 1, "only iteration 5's op is retained");
    }

    #[test]
    fn catch_up_equals_the_live_model_bit_for_bit() {
        let initial = vec![0.5, -0.5, 0.25];
        let mut store = CheckpointStore::new(CheckpointConfig { cadence: 3 }, &initial);
        let mut live = initial.clone();
        for completed in 1..=7 {
            let op = if completed % 2 == 0 {
                ReplayOp::Average {
                    sum: vec![0.3 * completed as f64; 3],
                    active_total: completed as f64,
                }
            } else {
                ReplayOp::Step { grad: vec![0.01 * completed as f64; 3], scale: 0.1 / 3.0 }
            };
            op.apply(&mut live);
            store.record_update(op);
            store.maybe_checkpoint(completed, &live);
        }
        let caught = store.catch_up().expect("intact snapshot");
        assert_eq!(caught.base_iteration, 6);
        assert_eq!(caught.replayed, 1);
        assert_eq!(
            caught.model.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            live.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        // Snapshot (3 words) + one replayed op (3 words), 8 bytes each.
        assert_eq!(caught.bytes, 8 * 3 + 8 * 3);
    }

    #[test]
    fn catch_up_refuses_a_corrupt_snapshot() {
        let mut store = CheckpointStore::new(CheckpointConfig::default(), &[1.0]);
        store.latest.model[0] = 2.0;
        assert_eq!(store.catch_up(), Err(CheckpointError::Corrupt { iteration: 0 }));
    }

    #[test]
    fn zero_cadence_is_rejected() {
        assert!(CheckpointConfig { cadence: 0 }.validate().is_err());
        assert!(CheckpointConfig::default().validate().is_ok());
    }
}
