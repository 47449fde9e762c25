//! The [`Collective`] trait and its four strategy implementations.
//!
//! A strategy turns (cluster [`Topology`], participant set, model size,
//! chunk size) into a deterministic [`CommSchedule`]. All strategies
//! implement the same logical operation — fold every participant's
//! gradient into one aggregate and deliver the result to every
//! participant — but walk very different wire patterns:
//!
//! | strategy | shape | rounds | per-port words (reduce) |
//! |---|---|---|---|
//! | [`FlatStar`] | everyone → one Sigma (TABLA) | 2 | (P−1)·W into one port |
//! | [`TwoLevelTree`] | members → group Sigmas → master (paper §5) | 3 | ≈ P/G·W per Sigma |
//! | [`RingAllReduce`] | neighbour ring, segmented | 2(P−1) | W/P per port per round |
//! | [`RecursiveHalvingDoubling`] | hypercube exchange | ≈ 2·log₂P | W/2^s per round |
//!
//! Every generated schedule passes [`CommSchedule::validate`]'s
//! exactly-once proof, and — because the numeric fold is canonical (see
//! [`crate::schedule`]) — every strategy produces a bit-identical
//! aggregate.

use std::fmt;

use crate::codec::WireRepr;
use crate::schedule::{CommSchedule, CommStep, LinkLevel, ScheduleError, StepKind};
use crate::topology::{Role, Topology};

/// Identifies a collective strategy; the closed set the
/// [`CollectiveSelector`](crate::selector::CollectiveSelector) searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Single-Sigma star (TABLA-style scale-out).
    FlatStar,
    /// The paper's two-level Sigma/Delta hierarchy.
    TwoLevelTree,
    /// Chunked, pipelined, bandwidth-optimal ring.
    RingAllReduce,
    /// Recursive halving (reduce-scatter) + doubling (allgather).
    RecursiveHalvingDoubling,
}

impl CollectiveKind {
    /// Every strategy, in presentation order.
    pub const ALL: [CollectiveKind; 4] = [
        CollectiveKind::FlatStar,
        CollectiveKind::TwoLevelTree,
        CollectiveKind::RingAllReduce,
        CollectiveKind::RecursiveHalvingDoubling,
    ];

    /// Stable snake_case label (used in telemetry span args and bench
    /// CSV columns).
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::FlatStar => "flat_star",
            CollectiveKind::TwoLevelTree => "two_level_tree",
            CollectiveKind::RingAllReduce => "ring_allreduce",
            CollectiveKind::RecursiveHalvingDoubling => "halving_doubling",
        }
    }

    /// The strategy object for this kind.
    pub fn strategy(self) -> &'static dyn Collective {
        match self {
            CollectiveKind::FlatStar => &FlatStar,
            CollectiveKind::TwoLevelTree => &TwoLevelTree,
            CollectiveKind::RingAllReduce => &RingAllReduce,
            CollectiveKind::RecursiveHalvingDoubling => &RecursiveHalvingDoubling,
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A collective-aggregation strategy: a pure function from cluster
/// shape to communication schedule.
///
/// `participants` are the nodes contributing a gradient this round —
/// strictly ascending, all live in `topology`. The returned schedule
/// folds every participant's contribution exactly once and delivers the
/// aggregate to all participants (validated by the symbolic executor).
pub trait Collective: fmt::Debug + Sync {
    /// Which strategy this is.
    fn kind(&self) -> CollectiveKind;

    /// Builds the deterministic schedule for one aggregation round.
    fn schedule(
        &self,
        topology: &Topology,
        participants: &[usize],
        model_words: usize,
        chunk_words: usize,
    ) -> Result<CommSchedule, ScheduleError>;
}

/// Rejects empty, unsorted, out-of-range, or failed participants.
fn check_participants(topology: &Topology, participants: &[usize]) -> Result<(), ScheduleError> {
    if participants.is_empty() {
        return Err(ScheduleError::NoParticipants);
    }
    for pair in participants.windows(2) {
        if pair[1] <= pair[0] {
            return Err(ScheduleError::UnknownParticipant { node: pair[1] });
        }
    }
    for &p in participants {
        if p >= topology.nodes() || topology.roles[p].is_failed() {
            return Err(ScheduleError::UnknownParticipant { node: p });
        }
    }
    Ok(())
}

/// The master Sigma if it participates, else the lowest participant.
fn pick_root(topology: &Topology, participants: &[usize]) -> usize {
    match topology.master() {
        Some(m) if participants.binary_search(&m).is_ok() => m,
        _ => participants[0],
    }
}

/// Everyone reduces straight into one Sigma, which broadcasts back —
/// the TABLA scale-out baseline the paper's hierarchy replaces. Ingress
/// serialization at the root's port makes this quadratic-feeling at
/// scale, but it has the fewest rounds and no intermediate hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlatStar;

impl Collective for FlatStar {
    fn kind(&self) -> CollectiveKind {
        CollectiveKind::FlatStar
    }

    fn schedule(
        &self,
        topology: &Topology,
        participants: &[usize],
        model_words: usize,
        chunk_words: usize,
    ) -> Result<CommSchedule, ScheduleError> {
        check_participants(topology, participants)?;
        let root = pick_root(topology, participants);
        let mut steps = Vec::new();
        if model_words > 0 {
            for &p in participants {
                if p != root {
                    steps.push(CommStep {
                        round: 0,
                        src: p,
                        dst: root,
                        lo: 0,
                        hi: model_words,
                        kind: StepKind::Reduce,
                        level: LinkLevel::GroupUp,
                    });
                }
            }
            for &p in participants {
                if p != root {
                    steps.push(CommStep {
                        round: 1,
                        src: root,
                        dst: p,
                        lo: 0,
                        hi: model_words,
                        kind: StepKind::Share,
                        level: LinkLevel::Down,
                    });
                }
            }
        }
        Ok(CommSchedule {
            kind: self.kind(),
            root,
            participants: participants.to_vec(),
            model_words,
            chunk_words: chunk_words.max(1),
            repr: WireRepr::default(),
            steps,
        })
    }
}

/// The paper's default: group members reduce into their group Sigma,
/// group Sigmas reduce into the master, the master broadcasts. Grouping
/// follows the [`Topology`]'s repaired role assignment, so a rebuilt
/// schedule after `fail_node` reflects re-elected Sigmas automatically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TwoLevelTree;

impl Collective for TwoLevelTree {
    fn kind(&self) -> CollectiveKind {
        CollectiveKind::TwoLevelTree
    }

    fn schedule(
        &self,
        topology: &Topology,
        participants: &[usize],
        model_words: usize,
        chunk_words: usize,
    ) -> Result<CommSchedule, ScheduleError> {
        check_participants(topology, participants)?;

        // Group identity is the (live) aggregation point recorded in the
        // role table: a Delta belongs to its Sigma's group, a Sigma to
        // its own. The leader of each group is its lowest participant —
        // the Sigma itself whenever it participates, because repair
        // always elects the lowest survivor.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for &p in participants {
            let key = match &topology.roles[p] {
                Role::Delta { sigma } => *sigma,
                Role::GroupSigma { .. } | Role::MasterSigma { .. } => p,
                Role::Failed => return Err(ScheduleError::UnknownParticipant { node: p }),
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(p),
                None => groups.push((key, vec![p])),
            }
        }
        let leaders: Vec<usize> = groups.iter().map(|(_, members)| members[0]).collect();
        let root = match topology.master() {
            Some(m) if participants.binary_search(&m).is_ok() => m,
            _ => leaders.iter().copied().min().unwrap_or(participants[0]),
        };

        let mut steps = Vec::new();
        if model_words > 0 {
            for ((_, members), &leader) in groups.iter().zip(&leaders) {
                for &m in members {
                    if m != leader {
                        steps.push(CommStep {
                            round: 0,
                            src: m,
                            dst: leader,
                            lo: 0,
                            hi: model_words,
                            kind: StepKind::Reduce,
                            level: LinkLevel::GroupUp,
                        });
                    }
                }
            }
            for &leader in &leaders {
                if leader != root {
                    steps.push(CommStep {
                        round: 1,
                        src: leader,
                        dst: root,
                        lo: 0,
                        hi: model_words,
                        kind: StepKind::Reduce,
                        level: LinkLevel::MasterUp,
                    });
                }
            }
            for &p in participants {
                if p != root {
                    steps.push(CommStep {
                        round: 2,
                        src: root,
                        dst: p,
                        lo: 0,
                        hi: model_words,
                        kind: StepKind::Share,
                        level: LinkLevel::Down,
                    });
                }
            }
        }
        Ok(CommSchedule {
            kind: self.kind(),
            root,
            participants: participants.to_vec(),
            model_words,
            chunk_words: chunk_words.max(1),
            repr: WireRepr::default(),
            steps,
        })
    }
}

/// Snaps segment boundaries down onto the chunk grid so transfers stay
/// whole-chunk (boundaries stay monotone; empty segments are skipped).
fn snap_down(word: usize, chunk: usize) -> usize {
    word - word % chunk
}

/// Bandwidth-optimal segmented ring: P−1 reduce-scatter rounds followed
/// by P−1 allgather rounds, every port moving ≈ W/P words per round.
/// Total reduce traffic is exactly (P−1)·W words — the lower bound —
/// at the price of 2(P−1) latency hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RingAllReduce;

impl Collective for RingAllReduce {
    fn kind(&self) -> CollectiveKind {
        CollectiveKind::RingAllReduce
    }

    fn schedule(
        &self,
        topology: &Topology,
        participants: &[usize],
        model_words: usize,
        chunk_words: usize,
    ) -> Result<CommSchedule, ScheduleError> {
        check_participants(topology, participants)?;
        let n = participants.len();
        let root = pick_root(topology, participants);
        let chunk = chunk_words.max(1);
        let mut steps = Vec::new();
        if n > 1 && model_words > 0 {
            // Segment bounds, chunk-aligned except the final tail.
            let mut bounds = Vec::with_capacity(n + 1);
            for i in 0..=n {
                let raw = i * model_words / n;
                bounds.push(if i == n { model_words } else { snap_down(raw, chunk) });
            }
            let seg = |j: usize| (bounds[j], bounds[j + 1]);

            // Reduce-scatter: in round s node i forwards the segment it
            // just finished accumulating, seg((i - s) mod n), to its
            // successor. After n-1 rounds node i owns seg((i+1) mod n)
            // completely.
            for s in 0..n - 1 {
                for i in 0..n {
                    let (lo, hi) = seg((i + n - s % n) % n);
                    if lo < hi {
                        steps.push(CommStep {
                            round: s,
                            src: participants[i],
                            dst: participants[(i + 1) % n],
                            lo,
                            hi,
                            kind: StepKind::Reduce,
                            level: LinkLevel::Peer,
                        });
                    }
                }
            }
            // Allgather: node i circulates finished segments, starting
            // from the one it owns, seg((i+1) mod n).
            for s in 0..n - 1 {
                for i in 0..n {
                    let (lo, hi) = seg((i + 1 + n - s % n) % n);
                    if lo < hi {
                        steps.push(CommStep {
                            round: n - 1 + s,
                            src: participants[i],
                            dst: participants[(i + 1) % n],
                            lo,
                            hi,
                            kind: StepKind::Share,
                            level: LinkLevel::Peer,
                        });
                    }
                }
            }
        }
        Ok(CommSchedule {
            kind: self.kind(),
            root,
            participants: participants.to_vec(),
            model_words,
            chunk_words: chunk,
            repr: WireRepr::default(),
            steps,
        })
    }
}

/// Recursive halving (reduce-scatter over a hypercube) followed by
/// recursive doubling (allgather): log₂P rounds each way for power-of-
/// two clusters, with surplus nodes folded in by one extra round on each
/// side. Moves the same (P−1)·W reduce words as the ring but in
/// logarithmic rounds — the latency-friendly point in the trade space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RecursiveHalvingDoubling;

impl Collective for RecursiveHalvingDoubling {
    fn kind(&self) -> CollectiveKind {
        CollectiveKind::RecursiveHalvingDoubling
    }

    fn schedule(
        &self,
        topology: &Topology,
        participants: &[usize],
        model_words: usize,
        chunk_words: usize,
    ) -> Result<CommSchedule, ScheduleError> {
        check_participants(topology, participants)?;
        let n = participants.len();
        let root = pick_root(topology, participants);
        let chunk = chunk_words.max(1);
        let mut steps = Vec::new();
        if n > 1 && model_words > 0 {
            // Largest power-of-two core; the r surplus nodes fold into
            // partners before the exchange and are re-covered after it.
            let k = if n.is_power_of_two() { n } else { n.next_power_of_two() / 2 };
            let r = n - k;
            let log = k.trailing_zeros() as usize;
            let mut round = 0;

            if r > 0 {
                for j in 0..r {
                    steps.push(CommStep {
                        round,
                        src: participants[k + j],
                        dst: participants[j],
                        lo: 0,
                        hi: model_words,
                        kind: StepKind::Reduce,
                        level: LinkLevel::Peer,
                    });
                }
                round += 1;
            }

            // Halving: each pair splits its common range, each side
            // reducing away the half it gives up. `cur[i]` tracks the
            // range core node i still accumulates.
            let mut cur = vec![(0usize, model_words); k];
            for s in 0..log {
                let dist = k >> (s + 1);
                for i in 0..k {
                    let partner = i ^ dist;
                    if partner < i {
                        continue;
                    }
                    let (lo, hi) = cur[i];
                    let mid = snap_down(lo + (hi - lo) / 2, chunk).clamp(lo, hi);
                    // i keeps the low half, partner the high half.
                    if mid < hi {
                        steps.push(CommStep {
                            round,
                            src: participants[i],
                            dst: participants[partner],
                            lo: mid,
                            hi,
                            kind: StepKind::Reduce,
                            level: LinkLevel::Peer,
                        });
                    }
                    if lo < mid {
                        steps.push(CommStep {
                            round,
                            src: participants[partner],
                            dst: participants[i],
                            lo,
                            hi: mid,
                            kind: StepKind::Reduce,
                            level: LinkLevel::Peer,
                        });
                    }
                    cur[i] = (lo, mid);
                    cur[partner] = (mid, hi);
                }
                round += 1;
            }

            // Doubling: pairs re-exchange in reverse order, sharing the
            // finished ranges they hold; adjacent ranges merge.
            for s in (0..log).rev() {
                let dist = k >> (s + 1);
                for i in 0..k {
                    let partner = i ^ dist;
                    if partner < i {
                        continue;
                    }
                    let (ilo, ihi) = cur[i];
                    let (plo, phi) = cur[partner];
                    if ilo < ihi {
                        steps.push(CommStep {
                            round,
                            src: participants[i],
                            dst: participants[partner],
                            lo: ilo,
                            hi: ihi,
                            kind: StepKind::Share,
                            level: LinkLevel::Peer,
                        });
                    }
                    if plo < phi {
                        steps.push(CommStep {
                            round,
                            src: participants[partner],
                            dst: participants[i],
                            lo: plo,
                            hi: phi,
                            kind: StepKind::Share,
                            level: LinkLevel::Peer,
                        });
                    }
                    let merged = (ilo.min(plo), ihi.max(phi));
                    cur[i] = merged;
                    cur[partner] = merged;
                }
                round += 1;
            }

            if r > 0 {
                for j in 0..r {
                    steps.push(CommStep {
                        round,
                        src: participants[j],
                        dst: participants[k + j],
                        lo: 0,
                        hi: model_words,
                        kind: StepKind::Share,
                        level: LinkLevel::Peer,
                    });
                }
            }
        }
        Ok(CommSchedule {
            kind: self.kind(),
            root,
            participants: participants.to_vec(),
            model_words,
            chunk_words: chunk,
            repr: WireRepr::default(),
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WORD_BYTES;
    use crate::topology::assign_roles;

    fn words_of(s: &CommSchedule, kind: StepKind) -> usize {
        s.steps.iter().filter(|st| st.kind == kind).map(|st| st.words()).sum()
    }

    /// Every strategy, over a grid of cluster shapes: validates, skips
    /// nothing, delivers to everyone, and moves *exactly* the words the
    /// model requires — (P−1)·W reduce words, the bandwidth lower bound.
    #[test]
    fn all_strategies_validate_and_move_exactly_the_required_words() {
        for (nodes, groups) in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (8, 2), (9, 3), (13, 3)] {
            let topo = assign_roles(nodes, groups).expect("valid");
            let participants: Vec<usize> = (0..nodes).collect();
            for kind in CollectiveKind::ALL {
                let s = kind
                    .strategy()
                    .schedule(&topo, &participants, 1000, 16)
                    .expect("schedule builds");
                assert_eq!(s.kind, kind);
                let report = s.validate().unwrap_or_else(|e| {
                    panic!("{kind} invalid for nodes={nodes} groups={groups}: {e}")
                });
                assert_eq!(report.skipped_steps, 0, "{kind} nodes={nodes}");
                assert_eq!(report.delivered, participants, "{kind} nodes={nodes}");
                let p = participants.len();
                let want_reduce = (p - 1) * 1000;
                assert_eq!(
                    words_of(&s, StepKind::Reduce),
                    want_reduce,
                    "{kind} nodes={nodes} reduce words"
                );
                assert_eq!(
                    words_of(&s, StepKind::Share),
                    want_reduce,
                    "{kind} nodes={nodes} share words"
                );
                // Executed bytes match the static step list when nothing
                // is skipped.
                assert_eq!(report.bytes_by_level, s.bytes_by_level(), "{kind}");
            }
        }
    }

    #[test]
    fn the_tree_books_bytes_on_the_hierarchy_levels() {
        let topo = assign_roles(8, 2).expect("valid");
        let participants: Vec<usize> = (0..8).collect();
        let s = TwoLevelTree.schedule(&topo, &participants, 500, 8).expect("builds");
        let by_level = s.bytes_by_level();
        // 6 members reduce up, 1 group sigma forwards, root shares to 7.
        assert_eq!(by_level[LinkLevel::GroupUp.index()], 6 * 500 * WORD_BYTES);
        assert_eq!(by_level[LinkLevel::MasterUp.index()], 500 * WORD_BYTES);
        assert_eq!(by_level[LinkLevel::Down.index()], 7 * 500 * WORD_BYTES);
        assert_eq!(by_level[LinkLevel::Peer.index()], 0);
        assert_eq!(s.rounds(), 3);
        assert_eq!(s.root, 0);
    }

    #[test]
    fn ring_rounds_and_per_port_load_are_bandwidth_optimal() {
        let topo = assign_roles(4, 1).expect("valid");
        let participants: Vec<usize> = (0..4).collect();
        let s = RingAllReduce.schedule(&topo, &participants, 4000, 1).expect("builds");
        assert_eq!(s.rounds(), 2 * 3);
        // Every step moves exactly one segment of W/P words.
        for step in &s.steps {
            assert_eq!(step.words(), 1000, "{step:?}");
            assert_eq!(step.level, LinkLevel::Peer);
        }
        // Per round, each node sends exactly once.
        for round in 0..s.rounds() {
            let mut senders: Vec<usize> =
                s.steps.iter().filter(|st| st.round == round).map(|st| st.src).collect();
            senders.sort_unstable();
            assert_eq!(senders, participants, "round {round}");
        }
    }

    #[test]
    fn halving_doubling_handles_non_power_of_two_clusters() {
        for nodes in [2usize, 3, 4, 5, 6, 7, 8, 12] {
            let topo = assign_roles(nodes, 1).expect("valid");
            let participants: Vec<usize> = (0..nodes).collect();
            let s =
                RecursiveHalvingDoubling.schedule(&topo, &participants, 1024, 4).expect("builds");
            let report = s.validate().unwrap_or_else(|e| panic!("nodes={nodes}: {e}"));
            assert_eq!(report.delivered, participants, "nodes={nodes}");
            let k = if nodes.is_power_of_two() { nodes } else { nodes.next_power_of_two() / 2 };
            let log = k.trailing_zeros() as usize;
            let extra = usize::from(nodes != k) * 2;
            assert_eq!(s.rounds(), 2 * log + extra, "nodes={nodes}");
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let topo = assign_roles(7, 2).expect("valid");
        let participants: Vec<usize> = (0..7).collect();
        for kind in CollectiveKind::ALL {
            let a = kind.strategy().schedule(&topo, &participants, 777, 8).expect("a");
            let b = kind.strategy().schedule(&topo, &participants, 777, 8).expect("b");
            assert_eq!(a, b, "{kind}");
        }
    }

    /// The fault path: kill nodes, rebuild the schedule over survivors,
    /// and the rebuilt schedule must validate with survivors only.
    #[test]
    fn schedules_rebuild_over_survivors_after_failures() {
        for kind in CollectiveKind::ALL {
            let mut topo = assign_roles(9, 3).expect("valid");
            // Kill a delta, a group sigma, and the master, in that order.
            topo.fail_node(5).expect("delta");
            topo.fail_node(3).expect("group sigma");
            topo.fail_node(0).expect("master");
            let survivors = topo.live_node_ids();
            assert_eq!(survivors, vec![1, 2, 4, 6, 7, 8]);
            let s = kind.strategy().schedule(&topo, &survivors, 640, 8).expect("rebuild");
            let report = s.validate().unwrap_or_else(|e| panic!("{kind} post-fault invalid: {e}"));
            assert_eq!(report.delivered, survivors, "{kind}");
            // The new master (1, lowest survivor of the old master's
            // group) is the root for rooted strategies.
            assert_eq!(s.root, 1, "{kind}");
            // No step touches a dead node.
            for step in &s.steps {
                for endpoint in [step.src, step.dst] {
                    assert!(
                        survivors.contains(&endpoint),
                        "{kind}: step touches dead node {endpoint}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_participant_subset_excluding_the_master_still_schedules() {
        let topo = assign_roles(6, 2).expect("valid");
        // Master (0) straggles and is excluded this round.
        let participants = vec![1, 2, 3, 4, 5];
        for kind in CollectiveKind::ALL {
            let s = kind.strategy().schedule(&topo, &participants, 100, 4).expect("builds");
            let report = s.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(report.delivered, participants, "{kind}");
            assert_ne!(s.root, 0, "{kind}: excluded master cannot be root");
        }
    }

    #[test]
    fn dead_or_unknown_participants_are_rejected() {
        let mut topo = assign_roles(4, 1).expect("valid");
        topo.fail_node(2).expect("in range");
        for kind in CollectiveKind::ALL {
            let dead = kind.strategy().schedule(&topo, &[0, 1, 2], 10, 1);
            assert_eq!(dead, Err(ScheduleError::UnknownParticipant { node: 2 }), "{kind}");
            let oob = kind.strategy().schedule(&topo, &[0, 9], 10, 1);
            assert_eq!(oob, Err(ScheduleError::UnknownParticipant { node: 9 }), "{kind}");
            let none = kind.strategy().schedule(&topo, &[], 10, 1);
            assert_eq!(none, Err(ScheduleError::NoParticipants), "{kind}");
        }
    }

    #[test]
    fn chunk_snapping_keeps_segments_whole_chunk() {
        let topo = assign_roles(3, 1).expect("valid");
        let participants: Vec<usize> = (0..3).collect();
        // 1000 words, chunk 64: 1000/3 = 333.33 → bounds snap to 320, 640.
        let s = RingAllReduce.schedule(&topo, &participants, 1000, 64).expect("builds");
        s.validate().expect("valid despite uneven snapping");
        for step in &s.steps {
            // Every boundary except the tail is chunk-aligned.
            assert_eq!(step.lo % 64, 0, "{step:?}");
            assert!(step.hi % 64 == 0 || step.hi == 1000, "{step:?}");
        }
    }

    /// The repr-generalized bit-identity contract: for every wire
    /// representation, all four strategies produce the same model state
    /// when each participant's contribution passes through that repr's
    /// own decode — the canonical fold makes the wire pattern
    /// irrelevant, and the codec is a pure per-input transform.
    #[test]
    fn all_strategies_agree_bitwise_under_each_reprs_own_decode() {
        let topo = assign_roles(5, 2).expect("valid");
        let participants: Vec<usize> = (0..5).collect();
        let words = 257;
        let inputs: Vec<(usize, Vec<f64>)> = participants
            .iter()
            .map(|&p| {
                let v = (0..words)
                    .map(|i| {
                        let x = (i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(p as u64 + 1);
                        ((x % 4001) as f64 - 2000.0) / 64.0
                    })
                    .collect();
                (p, v)
            })
            .collect();
        for repr in [
            WireRepr::DenseF64,
            WireRepr::FixedPoint { frac_bits: 20 },
            WireRepr::FixedPoint { frac_bits: 6 },
            WireRepr::TopK { k: 31 },
        ] {
            let mut agreed: Option<Vec<u64>> = None;
            for kind in CollectiveKind::ALL {
                let s = kind
                    .strategy()
                    .schedule(&topo, &participants, words, 16)
                    .expect("builds")
                    .with_repr(repr);
                let out = s.execute_with_codec(&inputs).expect("valid");
                let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                match &agreed {
                    None => agreed = Some(bits),
                    Some(first) => assert_eq!(first, &bits, "{kind} diverges under {repr:?}"),
                }
            }
        }
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let mut labels: Vec<&str> = CollectiveKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4, "labels must be distinct");
        assert_eq!(CollectiveKind::TwoLevelTree.to_string(), "two_level_tree");
        for kind in CollectiveKind::ALL {
            assert_eq!(kind.strategy().kind(), kind);
        }
    }
}
