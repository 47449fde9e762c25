//! The socket-level fault-injecting shim.
//!
//! Real transports thread every outgoing frame through a [`WireShim`]
//! that consults the run's [`FaultPlan`] for **wire-level** fault kinds
//! — `SeverLink`, `CorruptFrame`, `DelayFrames` — and damages the
//! stream accordingly. The shim is pure plan lookup: the same plan
//! produces the same severs and flips on every run.
//!
//! Faults apply only to a round's **first** transmission attempt. A
//! deterministic plan that kept severing the retransmission too would
//! cut the link at the same chunk forever and the supervisor's retry
//! budget would always exhaust; one clean retry models a transient
//! wire fault recovered by reconnection, which is the behavior the
//! chunk-conservation invariants require.

use std::time::Duration;

use cosmic_sim::faults::FaultPlan;

use super::wire::{CHECKSUM_BYTES, HEADER_BYTES};

/// Plan-driven wire damage for one sender's round stream, read from
/// the plan once and owned, so it can travel with the stream. The
/// default shim injects nothing (healthy wire).
#[derive(Debug, Clone, Default)]
pub(crate) struct WireShim {
    /// The chunk index before which the first attempt is severed.
    sever: Option<usize>,
    /// Added latency before each of the first attempt's frames.
    delay: Duration,
    /// The chunk indices whose first-attempt frames are damaged.
    corrupted: Vec<usize>,
}

impl WireShim {
    /// The shim for `node`'s stream of `chunks` chunk indices at
    /// `iteration`, read from `plan`.
    pub(super) fn new(plan: &FaultPlan, node: usize, iteration: usize, chunks: usize) -> Self {
        WireShim {
            sever: plan.sever_at(node, iteration),
            delay: Duration::from_millis(plan.frame_delay_millis(node, iteration)),
            corrupted: (0..chunks)
                .filter(|&ci| plan.frame_corrupted(node, iteration, ci))
                .collect(),
        }
    }

    /// The chunk index before which the link is severed on this
    /// attempt, if any (first attempt only).
    pub(super) fn sever_at(&self, attempt: u32) -> Option<usize> {
        self.sever.filter(|_| attempt == 0)
    }

    /// Whether the frame carrying chunk `chunk` is damaged in flight on
    /// this attempt (first attempt only).
    pub(super) fn frame_corrupted(&self, attempt: u32, chunk: usize) -> bool {
        attempt == 0 && self.corrupted.contains(&chunk)
    }

    /// Added latency before each frame hits the socket on this attempt
    /// (first attempt only; zero otherwise).
    pub(crate) fn frame_delay(&self, attempt: u32) -> Duration {
        if attempt > 0 {
            return Duration::ZERO;
        }
        self.delay
    }
}

/// Damages an encoded frame the way a flaky link would: one payload bit
/// flips, the frame checksum goes stale, and the receiver's decode
/// rejects the frame. The header is left intact so the receiver still
/// frames the stream correctly and fails on the checksum, not on
/// desynchronization.
pub(super) fn damage(encoded: &mut [u8]) {
    if encoded.len() > HEADER_BYTES + CHECKSUM_BYTES {
        // First payload byte.
        encoded[HEADER_BYTES] ^= 0x01;
    } else if let Some(last) = encoded.last_mut() {
        // Control frame: damage the checksum itself.
        *last ^= 0x01;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Chunk;
    use crate::transport::wire::Frame;

    #[test]
    fn shim_reads_the_plan_on_attempt_zero_only() {
        let plan =
            FaultPlan::none().sever_link(1, 2, 3).corrupt_frame(1, 2, 0).delay_frames(1, 2, 4);
        let shim = WireShim::new(&plan, 1, 2, 4);
        assert_eq!(shim.sever_at(0), Some(3));
        assert_eq!(shim.sever_at(1), None);
        assert!(shim.frame_corrupted(0, 0));
        assert!(!shim.frame_corrupted(1, 0));
        assert!(!shim.frame_corrupted(0, 1));
        assert_eq!(shim.frame_delay(0), Duration::from_millis(4));
        assert_eq!(shim.frame_delay(1), Duration::ZERO);

        let other = WireShim::new(&plan, 0, 2, 4);
        assert_eq!(other.sever_at(0), None);
        assert!(!other.frame_corrupted(0, 0));
        assert_eq!(other.frame_delay(0), Duration::ZERO);
    }

    #[test]
    fn default_shim_injects_nothing() {
        let shim = WireShim::default();
        assert_eq!(shim.sever_at(0), None);
        assert!(!shim.frame_corrupted(0, 0));
        assert_eq!(shim.frame_delay(0), Duration::ZERO);
    }

    #[test]
    fn damage_keeps_framing_but_breaks_the_checksum() {
        let frame = Frame::chunk(0, 0, &Chunk::new(0, vec![1.0, 2.0]));
        let mut bytes = frame.encode();
        damage(&mut bytes);
        let err = Frame::decode(&bytes);
        assert!(
            matches!(err, Err(crate::transport::wire::WireError::ChecksumMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn damage_hits_control_frames_too() {
        let frame = Frame::control(crate::transport::wire::FrameKind::Done, 0, 0, 0, 0);
        let mut bytes = frame.encode();
        damage(&mut bytes);
        assert!(Frame::decode(&bytes).is_err());
    }
}
