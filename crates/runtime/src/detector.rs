//! φ-accrual heartbeat failure detection on virtual time.
//!
//! The paper's System Director (§6) assumes it *knows* which nodes
//! failed; PR 1 modeled that with an oracle — the fault plan called
//! [`Topology::fail_node`](cosmic_collectives::Topology::fail_node)
//! directly. Real scale-out DML systems have no oracle: they infer
//! failure from missing traffic. This module implements the accrual
//! approach of Hayashibara et al. (the φ failure detector, as deployed
//! in Cassandra/Akka), specialized to the runtime's virtual clock:
//!
//! - Every admitted chunk delivery doubles as a **heartbeat**: the
//!   trainer calls [`FailureDetector::observe`] with the virtual
//!   arrival time of each node's contribution.
//! - Suspicion is **continuous**, not boolean. Under an exponential
//!   inter-arrival model with mean `m`, the probability that a
//!   heartbeat is still outstanding after `t` is `exp(-t/m)`, so
//!
//!   ```text
//!   φ(t) = -log10 P(still alive) = t / (m · ln 10)
//!   ```
//!
//!   φ = 1 means a 90% chance the node is gone, φ = 2 means 99%, φ = 3
//!   means 99.9%. The mean adapts: it is the average of a sliding
//!   window of observed inter-arrival times, primed with the nominal
//!   iteration interval so the detector is calibrated from round one.
//! - Two thresholds split φ into three [`SuspicionLevel`]s: crossing
//!   φ = 1 marks a node *Suspected* (flagged and watched, but
//!   still scheduled — suspicion is bookkeeping, not expulsion), and
//!   crossing φ = 2 declares it *Failed* (membership expels it
//!   and repairs the topology). A suspected straggler that delivers
//!   again drops straight back to *Healthy* — that round trip is a
//!   **false suspicion**, counted but harmless, which is the property
//!   that makes accrual detection gentler than timeout detection for
//!   slow-but-alive nodes.
//!
//! Everything runs on virtual time supplied by the caller, so detector
//! verdicts are bit-reproducible for a given (plan, seed).

/// φ at which a node becomes [`SuspicionLevel::Suspected`]: ~2.3
/// silent rounds at the nominal mean.
const SUSPECT_PHI: f64 = 1.0;
/// φ at which a node is declared [`SuspicionLevel::Failed`]: ~4.6
/// silent rounds at the nominal mean.
const FAIL_PHI: f64 = 2.0;
/// Sliding-window length for the inter-arrival mean.
const WINDOW: usize = 16;
/// Expected inter-heartbeat interval (virtual seconds: one nominal
/// round) that primes the window before real arrivals accumulate.
const NOMINAL_INTERVAL: f64 = 1.0;

/// How much the detector currently distrusts a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SuspicionLevel {
    /// φ below the suspicion threshold: scheduled normally.
    Healthy,
    /// φ crossed [`SUSPECT_PHI`]: flagged and watched, but still
    /// scheduled — reinstated on its next delivery, escalated by
    /// further silence.
    Suspected,
    /// φ crossed [`FAIL_PHI`]: expelled from membership; only the rejoin
    /// protocol brings it back.
    Failed,
}

/// Per-node heartbeat history.
#[derive(Debug, Clone)]
struct NodeHistory {
    /// Virtual time of the most recent heartbeat.
    last: f64,
    /// Sliding window of inter-arrival intervals (ring buffer).
    intervals: Vec<f64>,
    /// Next ring slot to overwrite once the window is full.
    cursor: usize,
}

impl NodeHistory {
    fn primed(at: f64) -> Self {
        NodeHistory { last: at, intervals: vec![NOMINAL_INTERVAL], cursor: 0 }
    }

    fn mean(&self) -> f64 {
        let sum: f64 = self.intervals.iter().sum();
        let mean = sum / self.intervals.len() as f64;
        if mean > 0.0 {
            mean
        } else {
            NOMINAL_INTERVAL
        }
    }
}

/// The φ-accrual failure detector over a fixed node-id space.
#[derive(Debug, Clone)]
pub(crate) struct FailureDetector {
    nodes: Vec<NodeHistory>,
}

impl FailureDetector {
    /// A detector for node ids `0..nodes`, primed as if every node had
    /// heartbeated at virtual time zero with the nominal cadence.
    pub(crate) fn new(nodes: usize) -> Self {
        FailureDetector { nodes: vec![NodeHistory::primed(0.0); nodes] }
    }

    /// Records a heartbeat from `node` at virtual time `at`. Intervals
    /// never go negative: an out-of-order arrival counts as zero.
    pub(crate) fn observe(&mut self, node: usize, at: f64) {
        let h = &mut self.nodes[node];
        let interval = (at - h.last).max(0.0);
        if h.intervals.len() < WINDOW {
            h.intervals.push(interval);
        } else {
            h.intervals[h.cursor] = interval;
            h.cursor = (h.cursor + 1) % WINDOW;
        }
        h.last = at;
    }

    /// Forgets a node's history and re-primes it at `at` — used when a
    /// node rejoins after an expulsion, so stale pre-crash arrivals
    /// don't poison its fresh record.
    pub(crate) fn reset(&mut self, node: usize, at: f64) {
        self.nodes[node] = NodeHistory::primed(at);
    }

    /// The suspicion value for `node` at virtual time `now`:
    /// `elapsed / (mean · ln 10)` under the exponential model.
    pub(crate) fn phi(&self, node: usize, now: f64) -> f64 {
        let h = &self.nodes[node];
        let elapsed = (now - h.last).max(0.0);
        elapsed / (h.mean() * std::f64::consts::LN_10)
    }

    /// [`phi`](Self::phi) thresholded into a [`SuspicionLevel`].
    pub(crate) fn level(&self, node: usize, now: f64) -> SuspicionLevel {
        let phi = self.phi(node, now);
        if phi >= FAIL_PHI {
            SuspicionLevel::Failed
        } else if phi >= SUSPECT_PHI {
            SuspicionLevel::Suspected
        } else {
            SuspicionLevel::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LN10: f64 = std::f64::consts::LN_10;

    #[test]
    fn steady_heartbeats_stay_healthy() {
        let mut d = FailureDetector::new(2);
        for i in 1..=20 {
            d.observe(0, i as f64);
            d.observe(1, i as f64);
        }
        assert!(d.phi(0, 20.5) < 1.0);
        assert_eq!(d.level(0, 20.5), SuspicionLevel::Healthy);
        assert_eq!(d.level(1, 21.0), SuspicionLevel::Healthy);
    }

    #[test]
    fn silence_walks_through_the_levels() {
        let mut d = FailureDetector::new(1);
        for i in 1..=5 {
            d.observe(0, i as f64);
        }
        // Unit mean: φ = elapsed / ln 10, so the thresholds sit at
        // elapsed = ln 10 (~2.30) and 2·ln 10 (~4.61).
        assert_eq!(d.level(0, 5.0 + 0.9 * LN10), SuspicionLevel::Healthy);
        assert_eq!(d.level(0, 5.0 + 1.1 * LN10), SuspicionLevel::Suspected);
        assert_eq!(d.level(0, 5.0 + 1.9 * LN10), SuspicionLevel::Suspected);
        assert_eq!(d.level(0, 5.0 + 2.1 * LN10), SuspicionLevel::Failed);
    }

    #[test]
    fn a_late_delivery_reinstates_a_suspect() {
        let mut d = FailureDetector::new(1);
        for i in 1..=5 {
            d.observe(0, i as f64);
        }
        let late = 5.0 + 1.5 * LN10;
        assert_eq!(d.level(0, late), SuspicionLevel::Suspected);
        d.observe(0, late);
        assert_eq!(d.level(0, late), SuspicionLevel::Healthy);
        // The long gap widened the window mean, so the detector is now
        // *more* tolerant of this node's cadence, not less.
        assert!(d.phi(0, late + 1.0) < 1.0 / LN10);
    }

    #[test]
    fn the_mean_adapts_to_a_slower_cadence() {
        let mut fast = FailureDetector::new(1);
        let mut slow = FailureDetector::new(1);
        for i in 1..=8 {
            fast.observe(0, i as f64);
            slow.observe(0, 3.0 * i as f64);
        }
        // Same silence after the last beat: the slow-cadence node is
        // suspected much less.
        assert!(slow.phi(0, 24.0 + 4.0) < fast.phi(0, 8.0 + 4.0) / 2.0);
    }

    #[test]
    fn reset_reprimes_history() {
        let mut d = FailureDetector::new(1);
        d.observe(0, 1.0);
        assert_eq!(d.level(0, 50.0), SuspicionLevel::Failed);
        d.reset(0, 50.0);
        assert_eq!(d.level(0, 50.0), SuspicionLevel::Healthy);
        assert_eq!(d.level(0, 50.5), SuspicionLevel::Healthy);
    }

    #[test]
    fn out_of_order_and_early_queries_clamp_to_zero() {
        let mut d = FailureDetector::new(1);
        d.observe(0, 5.0);
        d.observe(0, 3.0); // out of order: interval clamps to 0
        assert_eq!(d.phi(0, 2.0), 0.0, "negative elapsed clamps to 0");
        // The window still has the primed nominal slot, so the mean
        // stays positive and φ stays finite.
        assert!(d.phi(0, 10.0).is_finite());
    }

    #[test]
    fn window_is_a_ring() {
        let mut d = FailureDetector::new(1);
        // A long first gap, then more than a window of unit gaps: the
        // ring has overwritten the primed slot and the long gap, so the
        // mean is one.
        d.observe(0, 100.0);
        let last = 100.0 + (WINDOW + 2) as f64;
        for i in 1..=WINDOW + 2 {
            d.observe(0, 100.0 + i as f64);
        }
        assert!((d.phi(0, last + 1.0) - 1.0 / LN10).abs() < 1e-12);
        // Until the ring wraps onto it, the long gap still counts.
        let mut short = FailureDetector::new(1);
        short.observe(0, 100.0);
        for i in 1..WINDOW {
            short.observe(0, 100.0 + i as f64);
        }
        let mean = (100.0 + (WINDOW - 1) as f64) / WINDOW as f64;
        let at = 100.0 + (WINDOW - 1) as f64;
        assert!((short.phi(0, at + 1.0) - 1.0 / (mean * LN10)).abs() < 1e-12);
    }
}
