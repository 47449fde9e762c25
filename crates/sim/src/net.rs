//! Commodity-Ethernet network model.
//!
//! Models the paper's testbed: nodes with gigabit NICs (TP-Link TG-3468)
//! behind a non-blocking store-and-forward switch (TP-LINK TL-SG1024,
//! full duplex on all ports, 48 Gbps aggregate). The switch fabric never
//! saturates at our scale, so contention happens at the *ports*: each
//! node's ingress and egress links serialize their transfers
//! independently (full duplex).

use cosmic_telemetry::counters;

use crate::SimTime;

/// Maps a collective link level to its wire-byte counter. One shared
/// table so fan-in, fan-out, and the collective executor book bytes
/// under the same names: 0 = peer links, 1 = group members → Sigma,
/// 2 = group Sigmas → master, 3 = model redistribution (anything else
/// lands in `net.bytes.other`).
pub fn level_counter(level: usize) -> &'static str {
    match level {
        0 => counters::NET_BYTES_PEER,
        1 => counters::NET_BYTES_LEVEL1,
        2 => counters::NET_BYTES_LEVEL2,
        3 => counters::NET_BYTES_BROADCAST,
        _ => "net.bytes.other",
    }
}

/// Parameters of the cluster network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-port line rate in Gbit/s.
    pub link_gbps: f64,
    /// One-way small-message latency in microseconds (NIC + switch +
    /// kernel TCP path).
    pub latency_us: f64,
    /// Per-message fixed CPU/protocol overhead in microseconds (socket
    /// syscalls, TCP segmentation) — paid per message, not per byte.
    pub per_message_us: f64,
    /// Protocol efficiency: fraction of the line rate usable as TCP
    /// goodput (Ethernet + IP + TCP framing).
    pub efficiency: f64,
}

impl NetworkModel {
    /// The evaluation cluster's gigabit Ethernet.
    pub fn gigabit() -> Self {
        NetworkModel { link_gbps: 1.0, latency_us: 80.0, per_message_us: 25.0, efficiency: 0.94 }
    }

    /// Goodput in bytes per second.
    pub fn goodput_bps(&self) -> f64 {
        self.link_gbps * 1e9 / 8.0 * self.efficiency
    }

    /// Wire time to move `bytes` point-to-point once a port is free, in
    /// nanoseconds (serialization + one-way latency + message overhead).
    pub fn transfer_ns(&self, bytes: usize) -> SimTime {
        let serialize = bytes as f64 / self.goodput_bps() * 1e9;
        (serialize + (self.latency_us + self.per_message_us) * 1e3).round() as SimTime
    }

    /// Time for one node to *receive* the same `bytes`-sized message from
    /// each of `senders` peers: the receiver's ingress port serializes
    /// them (this is the Sigma-node hot spot the hierarchical aggregation
    /// attacks).
    pub fn fan_in_ns(&self, bytes: usize, senders: usize) -> SimTime {
        if senders == 0 {
            return 0;
        }
        let serialize = senders as f64 * bytes as f64 / self.goodput_bps() * 1e9;
        (serialize + (self.latency_us + senders as f64 * self.per_message_us) * 1e3).round()
            as SimTime
    }

    /// Time for one node to *send* the same message to `receivers` peers
    /// (egress serialization — e.g. a Sigma node distributing the updated
    /// model).
    pub fn fan_out_ns(&self, bytes: usize, receivers: usize) -> SimTime {
        self.fan_in_ns(bytes, receivers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_goodput_is_under_line_rate() {
        let n = NetworkModel::gigabit();
        assert!(n.goodput_bps() < 125e6);
        assert!(n.goodput_bps() > 110e6);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let n = NetworkModel::gigabit();
        let small = n.transfer_ns(1_000);
        let big = n.transfer_ns(1_000_000);
        assert!(big > 8 * small);
        // 1 MB at ~117.5 MB/s ≈ 8.5 ms plus fixed costs.
        assert!((8_000_000..10_000_000).contains(&big), "{big}");
    }

    #[test]
    fn fan_in_serializes_at_ingress() {
        let n = NetworkModel::gigabit();
        let one = n.fan_in_ns(1_000_000, 1);
        let seven = n.fan_in_ns(1_000_000, 7);
        assert!(seven > 6 * one, "ingress must serialize: {seven} vs {one}");
        assert_eq!(n.fan_in_ns(1_000_000, 0), 0);
        assert_eq!(n.fan_out_ns(1_000_000, 7), seven);
    }

    #[test]
    fn latency_dominates_tiny_messages() {
        let n = NetworkModel::gigabit();
        let t = n.transfer_ns(64);
        assert!(t >= 100_000, "fixed costs are ~105us, got {t} ns");
    }

    #[test]
    fn fan_in_and_fan_out_share_one_level_table() {
        assert_eq!(level_counter(0), counters::NET_BYTES_PEER);
        assert_eq!(level_counter(1), counters::NET_BYTES_LEVEL1);
        assert_eq!(level_counter(2), counters::NET_BYTES_LEVEL2);
        assert_eq!(level_counter(3), counters::NET_BYTES_BROADCAST);
        assert_eq!(level_counter(9), "net.bytes.other");
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Transfer time is monotone in payload size.
        #[test]
        fn transfer_monotone_in_bytes(a in 0usize..10_000_000, b in 0usize..10_000_000) {
            let n = NetworkModel::gigabit();
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(n.transfer_ns(lo) <= n.transfer_ns(hi));
        }

        /// Fan-in is superadditive in senders: k senders take at least as
        /// long as any subset, and at least the serialized share.
        #[test]
        fn fan_in_superadditive(bytes in 1usize..2_000_000, senders in 1usize..16) {
            let n = NetworkModel::gigabit();
            let all = n.fan_in_ns(bytes, senders);
            prop_assert!(all >= n.fan_in_ns(bytes, senders - 1));
            let serialized = (senders as f64 * bytes as f64 / n.goodput_bps() * 1e9) as SimTime;
            prop_assert!(all >= serialized);
        }
    }
}
