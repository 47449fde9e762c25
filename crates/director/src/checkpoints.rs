//! Checksummed per-job progress checkpoints for crash recovery.
//!
//! The director checkpoints each running job's round progress on a
//! fixed cadence. Two failure paths replay these checkpoints:
//!
//! - **Job crashes** ([`cosmic_sim::DirectorFaultKind::JobCrash`]):
//!   the job rolls back to its checkpointed round count and restarts
//!   through admission, replaying the checkpoint onto the fresh
//!   grant. A *poison* job's replay fails every time; the retry
//!   budget caps how many grants it can burn before quarantine.
//! - **Director recovery** ([`crate::Director::recover`]): the store
//!   handed over from the dead director is integrity-verified before
//!   replay; a corrupt entry surfaces as the typed
//!   [`DirectorError::RecoveryFailed`](crate::DirectorError) instead
//!   of a panic propagating out of the runtime layer.
//!
//! Checksums are FNV-1a over the record's fields, the same family the
//! runtime uses for model snapshots, so a flipped bit anywhere in a
//! serialized store is caught before it can fork the control plane.

use std::collections::BTreeMap;

use crate::error::DirectorError;
use crate::journal::fnv1a;

/// One job's checkpointed progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobCheckpoint {
    /// The checkpointed job.
    pub job: usize,
    /// Rounds completed at checkpoint time.
    pub rounds: usize,
    /// FNV-1a over (job, rounds) — the replay validity proof.
    pub checksum: u64,
}

impl JobCheckpoint {
    /// The checksum a valid checkpoint of (job, rounds) must carry.
    pub(crate) fn expected_checksum(job: usize, rounds: usize) -> u64 {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&(job as u64).to_le_bytes());
        bytes[8..].copy_from_slice(&(rounds as u64).to_le_bytes());
        fnv1a(&bytes)
    }

    /// Whether the stored checksum matches the stored fields.
    pub(crate) fn verifies(&self) -> bool {
        self.checksum == Self::expected_checksum(self.job, self.rounds)
    }
}

/// The directory of live job checkpoints, keyed by job id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobCheckpointStore {
    entries: BTreeMap<usize, JobCheckpoint>,
}

impl JobCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        JobCheckpointStore::default()
    }

    /// Records (or refreshes) `job`'s checkpoint at `rounds`.
    pub fn record(&mut self, job: usize, rounds: usize) {
        self.entries.insert(
            job,
            JobCheckpoint { job, rounds, checksum: JobCheckpoint::expected_checksum(job, rounds) },
        );
    }

    /// Drops `job`'s checkpoint (completion or quarantine).
    pub(crate) fn remove(&mut self, job: usize) {
        self.entries.remove(&job);
    }

    /// The checkpointed round count for `job` (0 when never
    /// checkpointed — a crash before the first cadence restarts the
    /// job from scratch).
    pub(crate) fn rounds_for(&self, job: usize) -> usize {
        self.entries.get(&job).map_or(0, |c| c.rounds)
    }

    /// Number of checkpointed jobs.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Verifies every entry's checksum, returning the first corrupt
    /// job as the typed recovery error.
    pub(crate) fn verify(&self) -> Result<(), DirectorError> {
        for c in self.entries.values() {
            if !c.verifies() {
                return Err(DirectorError::RecoveryFailed {
                    job: c.job,
                    source: cosmic_runtime::RuntimeError::CheckpointCorrupt { iteration: c.rounds },
                });
            }
        }
        Ok(())
    }

    /// Serializes the store: `[u32 count]` then per entry
    /// `[u64 job][u64 rounds][u64 checksum]`, all little-endian, with
    /// a trailing FNV-1a over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.entries.len() * 24 + 8);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for c in self.entries.values() {
            out.extend_from_slice(&(c.job as u64).to_le_bytes());
            out.extend_from_slice(&(c.rounds as u64).to_le_bytes());
            out.extend_from_slice(&c.checksum.to_le_bytes());
        }
        let total = fnv1a(&out);
        out.extend_from_slice(&total.to_le_bytes());
        out
    }

    /// Deserializes and integrity-verifies a store. Any structural
    /// damage or checksum failure is the typed recovery error (job 0
    /// when the damage cannot be attributed to one entry).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DirectorError> {
        let whole = |detail: usize| DirectorError::RecoveryFailed {
            job: detail,
            source: cosmic_runtime::RuntimeError::CheckpointCorrupt { iteration: 0 },
        };
        if bytes.len() < 12 {
            return Err(whole(0));
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap_or([0; 8]));
        if fnv1a(body) != stored {
            return Err(whole(0));
        }
        let count = u32::from_le_bytes(body[..4].try_into().unwrap_or([0; 4])) as usize;
        if body.len() != 4 + count * 24 {
            return Err(whole(0));
        }
        let mut store = JobCheckpointStore::new();
        for i in 0..count {
            let at = 4 + i * 24;
            let word = |o: usize| {
                u64::from_le_bytes(body[at + o..at + o + 8].try_into().unwrap_or([0; 8]))
            };
            let entry = JobCheckpoint {
                job: word(0) as usize,
                rounds: word(8) as usize,
                checksum: word(16),
            };
            store.entries.insert(entry.job, entry);
        }
        store.verify()?;
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_verify_round_trip() {
        let mut store = JobCheckpointStore::new();
        store.record(3, 16);
        store.record(7, 8);
        store.record(3, 24); // refresh
        assert_eq!(store.len(), 2);
        assert_eq!(store.rounds_for(3), 24);
        assert_eq!(store.rounds_for(99), 0);
        store.verify().unwrap();
        let decoded = JobCheckpointStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(decoded, store);
        store.remove(3);
        assert_eq!(store.rounds_for(3), 0);
    }

    #[test]
    fn corruption_is_a_typed_recovery_error() {
        let mut store = JobCheckpointStore::new();
        store.record(5, 40);
        let mut bytes = store.to_bytes();
        // Damage the rounds field *and* recompute the trailing total,
        // so the per-entry checksum is what catches it.
        bytes[12] ^= 0x04;
        let body_len = bytes.len() - 8;
        let total = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&total.to_le_bytes());
        match JobCheckpointStore::from_bytes(&bytes) {
            Err(DirectorError::RecoveryFailed { job, source }) => {
                assert_eq!(job, 5);
                assert!(matches!(source, cosmic_runtime::RuntimeError::CheckpointCorrupt { .. }));
            }
            other => panic!("expected RecoveryFailed, got {other:?}"),
        }
        // Truncation is caught by the trailing total.
        assert!(JobCheckpointStore::from_bytes(&store.to_bytes()[..10]).is_err());
    }
}
