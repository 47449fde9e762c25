//! Deterministic communication schedules and their symbolic executor.
//!
//! A [`CommSchedule`] is the *entire* observable behaviour of a
//! collective: an ordered list of [`CommStep`]s, each moving a
//! half-open word range `[lo, hi)` of the model between two nodes in a
//! given round over a given [`LinkLevel`]. Strategies differ only in the
//! step lists they emit; cost models price the steps, the runtime books
//! their bytes, and the executor here proves them correct.
//!
//! ## Exactly-once symbolic execution
//!
//! [`CommSchedule::validate`] runs the schedule over *sets of
//! contributor ids* instead of floats. The model range is cut into
//! elementary intervals at every step boundary; per node and interval
//! the executor tracks which contributions the node currently holds.
//! A [`StepKind::Reduce`] moves the source's contributor set into the
//! destination (disjoint union — overlap means a contribution would be
//! double-counted and is an error), while a [`StepKind::Share`]
//! requires the source to already hold the *finished* aggregate and
//! marks the destination as covered (re-covering is a duplicate
//! delivery, also an error). At the end every interval must have been
//! fully aggregated somewhere and the root must hold or have received
//! the finished model.
//!
//! Because validation is set algebra, the numeric
//! [`CommSchedule::execute`] never folds along the wire pattern at all:
//! once a schedule is proven exactly-once, the aggregate is computed by
//! the canonical fold over contributors in ascending node order — the
//! same order `cosmic-runtime`'s `SigmaAggregator` uses. Every valid
//! schedule is therefore bit-identical to every other valid schedule
//! over the same participants, floating-point non-associativity
//! notwithstanding.

use std::error::Error;
use std::fmt;

use crate::codec::WireRepr;
use crate::strategy::CollectiveKind;

/// The link a step travels over, in the cluster's physical hierarchy.
///
/// Levels map 1:1 onto telemetry byte counters (see
/// `cosmic_sim::net::level_counter`), so per-level wire bytes in a trace
/// decompose exactly by schedule structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkLevel {
    /// Worker-to-worker traffic (ring neighbours, halving partners).
    Peer,
    /// Group member up to its group Sigma.
    GroupUp,
    /// Group Sigma up to the master Sigma.
    MasterUp,
    /// Aggregate back down to the cluster (broadcast leg).
    Down,
}

impl LinkLevel {
    /// All levels, in counter-index order.
    #[cfg(test)]
    const ALL: [LinkLevel; 4] =
        [LinkLevel::Peer, LinkLevel::GroupUp, LinkLevel::MasterUp, LinkLevel::Down];

    /// Dense index (0..4) used for byte bookkeeping arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            LinkLevel::Peer => 0,
            LinkLevel::GroupUp => 1,
            LinkLevel::MasterUp => 2,
            LinkLevel::Down => 3,
        }
    }

    /// Human-readable label (matches telemetry counter suffixes).
    pub(crate) fn label(self) -> &'static str {
        match self {
            LinkLevel::Peer => "peer",
            LinkLevel::GroupUp => "level1",
            LinkLevel::MasterUp => "level2",
            LinkLevel::Down => "broadcast",
        }
    }
}

impl fmt::Display for LinkLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a step does with the payload at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// The destination folds the payload into its partial aggregate;
    /// the source gives its contribution up.
    Reduce,
    /// The source sends finished aggregate words; the destination
    /// stores them verbatim.
    Share,
}

/// One scheduled transfer: `src` sends words `[lo, hi)` to `dst` in
/// `round`, over `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommStep {
    /// Round index; steps in the same round proceed concurrently.
    pub round: usize,
    /// Sending node id.
    pub src: usize,
    /// Receiving node id.
    pub dst: usize,
    /// First model word moved (inclusive).
    pub lo: usize,
    /// One past the last model word moved (exclusive).
    pub hi: usize,
    /// Reduce into the destination, or share a finished range.
    pub kind: StepKind,
    /// Physical link the transfer serializes over.
    pub level: LinkLevel,
}

impl CommStep {
    /// Number of model words this step moves.
    pub fn words(&self) -> usize {
        self.hi.saturating_sub(self.lo)
    }

    /// Encoded wire bytes this step moves under `repr` (side-channel
    /// headers included): `8 × words` for [`WireRepr::DenseF64`].
    pub(crate) fn encoded_bytes(&self, repr: WireRepr) -> usize {
        repr.payload_bytes(self.words())
    }
}

/// A schedule validation failure: the step list does not implement an
/// exactly-once all-reduce over its participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule names no participants.
    NoParticipants,
    /// The root is not one of the participants.
    NoRoot,
    /// A step endpoint is not a participant, or the participant list is
    /// not strictly ascending.
    UnknownParticipant {
        /// The offending node id.
        node: usize,
    },
    /// A step range escapes the model or is inverted.
    OutOfBounds {
        /// Step range start.
        lo: usize,
        /// Step range end.
        hi: usize,
        /// Model size in words.
        model_words: usize,
    },
    /// A reduce would fold some contribution into `dst` twice.
    DuplicateContribution {
        /// The double-counting destination.
        dst: usize,
        /// Interval start where the overlap occurs.
        lo: usize,
        /// Interval end where the overlap occurs.
        hi: usize,
    },
    /// A share's source does not hold the finished aggregate for the
    /// range it is sharing.
    ShareWithoutData {
        /// The under-informed source.
        src: usize,
        /// Interval start.
        lo: usize,
        /// Interval end.
        hi: usize,
    },
    /// A share would deliver a range its destination already has.
    DuplicateDelivery {
        /// The doubly-served destination.
        dst: usize,
        /// Interval start.
        lo: usize,
        /// Interval end.
        hi: usize,
    },
    /// After all steps, no node holds the complete aggregate for this
    /// range — some contribution never met the others.
    MissingAggregate {
        /// Interval start.
        lo: usize,
        /// Interval end.
        hi: usize,
    },
    /// The root never obtained the finished model.
    RootNotCovered {
        /// The root node id.
        root: usize,
    },
    /// `execute` was handed no input vector for a participant.
    MissingInput {
        /// The participant without an input.
        node: usize,
    },
    /// An input vector's length does not match the model.
    InputLength {
        /// The participant with the bad input.
        node: usize,
        /// Supplied length.
        got: usize,
        /// Required length (`model_words`).
        want: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoParticipants => write!(f, "schedule has no participants"),
            ScheduleError::NoRoot => write!(f, "schedule root is not a participant"),
            ScheduleError::UnknownParticipant { node } => {
                write!(f, "step endpoint {node} is not a participant")
            }
            ScheduleError::OutOfBounds { lo, hi, model_words } => {
                write!(f, "step range [{lo}, {hi}) escapes model of {model_words} word(s)")
            }
            ScheduleError::DuplicateContribution { dst, lo, hi } => {
                write!(f, "node {dst} would double-count a contribution over [{lo}, {hi})")
            }
            ScheduleError::ShareWithoutData { src, lo, hi } => {
                write!(f, "node {src} shares [{lo}, {hi}) without holding its aggregate")
            }
            ScheduleError::DuplicateDelivery { dst, lo, hi } => {
                write!(f, "node {dst} would receive [{lo}, {hi}) twice")
            }
            ScheduleError::MissingAggregate { lo, hi } => {
                write!(f, "no node holds the complete aggregate for [{lo}, {hi})")
            }
            ScheduleError::RootNotCovered { root } => {
                write!(f, "root {root} never receives the finished model")
            }
            ScheduleError::MissingInput { node } => {
                write!(f, "no input vector supplied for participant {node}")
            }
            ScheduleError::InputLength { node, got, want } => {
                write!(f, "input for node {node} has {got} word(s), model needs {want}")
            }
        }
    }
}

impl Error for ScheduleError {}

/// What a validated schedule actually does on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// Wire bytes moved per [`LinkLevel::index`] (skipped segments
    /// excluded).
    pub bytes_by_level: [usize; 4],
    /// Number of rounds the schedule spans.
    pub rounds: usize,
    /// Reduce steps that moved nothing because their source held no
    /// contribution for the range (possible after a survivor rebuild).
    pub skipped_steps: usize,
    /// Participants that end holding the complete model (root included).
    pub delivered: Vec<usize>,
}

/// A deterministic communication schedule produced by a
/// [`Collective`](crate::strategy::Collective) strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct CommSchedule {
    /// The strategy that produced this schedule.
    pub kind: CollectiveKind,
    /// The node that must end up with the finished aggregate (the
    /// trainer applies the aggregation operator there).
    pub root: usize,
    /// Contributing node ids, strictly ascending.
    pub participants: Vec<usize>,
    /// Model size in words.
    pub model_words: usize,
    /// Transfer granularity in words (message count = ceil(words/chunk)).
    pub chunk_words: usize,
    /// The wire representation payloads travel in. Steps carry logical
    /// word ranges; this decides what those ranges cost in bytes.
    pub repr: WireRepr,
    /// The ordered step list.
    pub steps: Vec<CommStep>,
}

/// Per-node, per-elementary-interval symbolic state.
struct SymState {
    /// Elementary interval boundaries, ascending, from 0 to model_words.
    cuts: Vec<usize>,
    /// `own[slot][k]`: contributor ids (sorted) node `slot` currently
    /// holds folded together for interval `k`; `None` after the node
    /// reduced its partial away.
    own: Vec<Vec<Option<Vec<usize>>>>,
    /// `covered[slot][k]`: node `slot` received the finished aggregate
    /// for interval `k` via a share.
    covered: Vec<Vec<bool>>,
}

impl CommSchedule {
    /// Number of rounds (max step round + 1).
    pub fn rounds(&self) -> usize {
        self.steps.iter().map(|s| s.round + 1).max().unwrap_or(0)
    }

    /// Rebinds the schedule to a wire representation: the step list and
    /// its exactly-once proof are untouched (validation is over logical
    /// word ranges), only the byte accounting changes.
    pub fn with_repr(mut self, repr: WireRepr) -> Self {
        self.repr = repr;
        self
    }

    /// Static encoded wire bytes per level over all steps (assumes
    /// nothing is skipped; see `ExecReport::bytes_by_level` for the
    /// executed figure). Books `repr`-encoded sizes — identical to the
    /// dense figure for [`WireRepr::DenseF64`].
    pub fn bytes_by_level(&self) -> [usize; 4] {
        let mut by_level = [0usize; 4];
        for step in &self.steps {
            by_level[step.level.index()] += step.encoded_bytes(self.repr);
        }
        by_level
    }

    /// Total static wire bytes over all steps.
    pub fn total_bytes(&self) -> usize {
        self.bytes_by_level().iter().sum()
    }

    /// Slot of `node` in the symbolic state: its participant position.
    fn slot(&self, node: usize) -> Result<usize, ScheduleError> {
        self.participants
            .binary_search(&node)
            .map_err(|_| ScheduleError::UnknownParticipant { node })
    }

    /// Symbolically executes the schedule, proving it folds every
    /// participant's contribution into the aggregate exactly once and
    /// delivers the finished model to the root.
    pub fn validate(&self) -> Result<ExecReport, ScheduleError> {
        if self.participants.is_empty() {
            return Err(ScheduleError::NoParticipants);
        }
        for pair in self.participants.windows(2) {
            if pair[1] <= pair[0] {
                return Err(ScheduleError::UnknownParticipant { node: pair[1] });
            }
        }
        if self.participants.binary_search(&self.root).is_err() {
            return Err(ScheduleError::NoRoot);
        }
        for step in &self.steps {
            if step.lo > step.hi || step.hi > self.model_words {
                return Err(ScheduleError::OutOfBounds {
                    lo: step.lo,
                    hi: step.hi,
                    model_words: self.model_words,
                });
            }
        }

        let mut state = self.initial_state();
        let mut bytes_by_level = [0usize; 4];
        let mut skipped_steps = 0usize;

        for step in &self.steps {
            if step.lo == step.hi {
                continue;
            }
            let src = self.slot(step.src)?;
            let dst = self.slot(step.dst)?;
            let (k_lo, k_hi) = state.interval_range(step.lo, step.hi);
            match step.kind {
                StepKind::Reduce => {
                    let mut moved_words = 0usize;
                    for k in k_lo..k_hi {
                        let Some(payload) = state.own[src][k].take() else { continue };
                        moved_words += state.width(k);
                        state.own[dst][k] = match state.own[dst][k].take() {
                            None => Some(payload),
                            Some(existing) => {
                                Some(merge_disjoint(existing, payload).map_err(|()| {
                                    ScheduleError::DuplicateContribution {
                                        dst: step.dst,
                                        lo: step.lo,
                                        hi: step.hi,
                                    }
                                })?)
                            }
                        };
                    }
                    if moved_words == 0 {
                        skipped_steps += 1;
                    }
                    bytes_by_level[step.level.index()] += self.repr.payload_bytes(moved_words);
                }
                StepKind::Share => {
                    let full = self.participants.len();
                    for k in k_lo..k_hi {
                        let src_final = state.covered[src][k]
                            || state.own[src][k].as_ref().is_some_and(|set| set.len() == full);
                        if !src_final {
                            return Err(ScheduleError::ShareWithoutData {
                                src: step.src,
                                lo: step.lo,
                                hi: step.hi,
                            });
                        }
                        let dst_final = state.covered[dst][k]
                            || state.own[dst][k].as_ref().is_some_and(|set| set.len() == full);
                        if dst_final {
                            return Err(ScheduleError::DuplicateDelivery {
                                dst: step.dst,
                                lo: step.lo,
                                hi: step.hi,
                            });
                        }
                        state.covered[dst][k] = true;
                    }
                    bytes_by_level[step.level.index()] += step.encoded_bytes(self.repr);
                }
            }
        }

        self.check_final(&state)?;

        let full = self.participants.len();
        let delivered = self
            .participants
            .iter()
            .copied()
            .enumerate()
            .filter(|&(slot, _)| {
                (0..state.cuts.len() - 1).all(|k| {
                    state.width(k) == 0
                        || state.covered[slot][k]
                        || state.own[slot][k].as_ref().is_some_and(|set| set.len() == full)
                })
            })
            .map(|(_, node)| node)
            .collect();

        Ok(ExecReport { bytes_by_level, rounds: self.rounds(), skipped_steps, delivered })
    }

    /// Numerically executes the schedule over per-participant input
    /// vectors, returning the aggregate.
    ///
    /// The schedule is first [`validate`](Self::validate)d; the numbers
    /// are then folded in canonical ascending-node order, so any two
    /// valid schedules over the same participants agree bit-for-bit.
    pub fn execute(&self, inputs: &[(usize, Vec<f64>)]) -> Result<Vec<f64>, ScheduleError> {
        self.validate()?;
        let mut acc = vec![0.0f64; self.model_words];
        for &p in &self.participants {
            let input = inputs
                .iter()
                .find(|(node, _)| *node == p)
                .map(|(_, v)| v)
                .ok_or(ScheduleError::MissingInput { node: p })?;
            if input.len() != self.model_words {
                return Err(ScheduleError::InputLength {
                    node: p,
                    got: input.len(),
                    want: self.model_words,
                });
            }
            for (a, x) in acc.iter_mut().zip(input) {
                *a += x;
            }
        }
        Ok(acc)
    }

    /// Numerically executes the schedule with each participant's input
    /// passed through the schedule's own codec first — the lossy values
    /// that actually travel the wire under [`CommSchedule::repr`].
    ///
    /// Like [`execute`](Self::execute), the fold is canonical (ascending
    /// node order), so any two valid schedules over the same
    /// participants and repr agree bit for bit.
    pub fn execute_with_codec(
        &self,
        inputs: &[(usize, Vec<f64>)],
    ) -> Result<Vec<f64>, ScheduleError> {
        let transformed: Vec<(usize, Vec<f64>)> =
            inputs.iter().map(|(node, v)| (*node, self.repr.transform(v).0)).collect();
        self.execute(&transformed)
    }

    fn initial_state(&self) -> SymState {
        let mut cuts = Vec::with_capacity(self.steps.len() * 2 + 2);
        cuts.push(0);
        cuts.push(self.model_words);
        for step in &self.steps {
            cuts.push(step.lo);
            cuts.push(step.hi);
        }
        cuts.sort_unstable();
        cuts.dedup();
        let intervals = cuts.len() - 1;
        let slots = self.participants.len();
        let mut own = vec![vec![None; intervals]; slots];
        for (slot, &node) in self.participants.iter().enumerate() {
            for cell in &mut own[slot] {
                *cell = Some(vec![node]);
            }
        }
        let covered = vec![vec![false; intervals]; slots];
        SymState { cuts, own, covered }
    }

    fn check_final(&self, state: &SymState) -> Result<(), ScheduleError> {
        let full = self.participants.len();
        let root_slot = self.participants.binary_search(&self.root).map_err(|_| {
            // Unreachable: root membership was checked up front.
            ScheduleError::NoRoot
        })?;
        for k in 0..state.cuts.len() - 1 {
            if state.width(k) == 0 {
                continue;
            }
            let holder =
                state.own.iter().any(|node| node[k].as_ref().is_some_and(|set| set.len() == full));
            if !holder {
                return Err(ScheduleError::MissingAggregate {
                    lo: state.cuts[k],
                    hi: state.cuts[k + 1],
                });
            }
            let root_final = state.covered[root_slot][k]
                || state.own[root_slot][k].as_ref().is_some_and(|set| set.len() == full);
            if !root_final {
                return Err(ScheduleError::RootNotCovered { root: self.root });
            }
        }
        Ok(())
    }
}

impl SymState {
    /// Width in words of elementary interval `k`.
    fn width(&self, k: usize) -> usize {
        self.cuts[k + 1] - self.cuts[k]
    }

    /// Elementary interval indices spanned by `[lo, hi)`. Both bounds
    /// are cut points by construction.
    fn interval_range(&self, lo: usize, hi: usize) -> (usize, usize) {
        let k_lo = self.cuts.binary_search(&lo).unwrap_or(0);
        let k_hi = self.cuts.binary_search(&hi).unwrap_or(self.cuts.len() - 1);
        (k_lo, k_hi)
    }
}

/// Merges two sorted id sets, failing if they intersect.
fn merge_disjoint(a: Vec<usize>, b: Vec<usize>) -> Result<Vec<usize>, ()> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (0, 0);
    while ai < a.len() && bi < b.len() {
        match a[ai].cmp(&b[bi]) {
            std::cmp::Ordering::Less => {
                out.push(a[ai]);
                ai += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[bi]);
                bi += 1;
            }
            std::cmp::Ordering::Equal => return Err(()),
        }
    }
    out.extend_from_slice(&a[ai..]);
    out.extend_from_slice(&b[bi..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WORD_BYTES;

    /// Hand-built flat star over nodes {0, 1, 2}: everyone reduces into
    /// 0, 0 shares back out.
    fn star(model_words: usize) -> CommSchedule {
        let mut steps = Vec::new();
        for src in [1usize, 2] {
            steps.push(CommStep {
                round: 0,
                src,
                dst: 0,
                lo: 0,
                hi: model_words,
                kind: StepKind::Reduce,
                level: LinkLevel::GroupUp,
            });
        }
        for dst in [1usize, 2] {
            steps.push(CommStep {
                round: 1,
                src: 0,
                dst,
                lo: 0,
                hi: model_words,
                kind: StepKind::Share,
                level: LinkLevel::Down,
            });
        }
        CommSchedule {
            kind: CollectiveKind::FlatStar,
            root: 0,
            participants: vec![0, 1, 2],
            model_words,
            chunk_words: 4,
            repr: WireRepr::DenseF64,
            steps,
        }
    }

    #[test]
    fn a_flat_star_validates_and_reports_its_bytes() {
        let s = star(10);
        let report = s.validate().expect("hand-built star is valid");
        assert_eq!(report.rounds, 2);
        assert_eq!(report.skipped_steps, 0);
        assert_eq!(report.bytes_by_level[LinkLevel::GroupUp.index()], 2 * 10 * WORD_BYTES);
        assert_eq!(report.bytes_by_level[LinkLevel::Down.index()], 2 * 10 * WORD_BYTES);
        assert_eq!(report.delivered, vec![0, 1, 2]);
        assert_eq!(report.bytes_by_level.iter().sum::<usize>(), s.total_bytes());
    }

    #[test]
    fn lossy_reprs_book_encoded_bytes_without_touching_the_proof() {
        let fixed = star(10).with_repr(WireRepr::FixedPoint { frac_bits: 24 });
        let report = fixed.validate().expect("repr does not affect validity");
        // 4 bytes/word + 8-byte scale side channel, per step.
        assert_eq!(report.bytes_by_level[LinkLevel::GroupUp.index()], 2 * (4 * 10 + 8));
        assert_eq!(report.bytes_by_level[LinkLevel::Down.index()], 2 * (4 * 10 + 8));
        assert_eq!(report.bytes_by_level, fixed.bytes_by_level());

        let topk = star(10).with_repr(WireRepr::TopK { k: 3 });
        let report = topk.validate().expect("repr does not affect validity");
        // 12 bytes/coordinate + 8-byte header, per step.
        assert_eq!(report.bytes_by_level[LinkLevel::GroupUp.index()], 2 * (8 + 3 * 12));
        assert_eq!(report.bytes_by_level, topk.bytes_by_level());

        // Dense stays byte-identical to the historical accounting.
        let dense = star(10);
        assert_eq!(dense.bytes_by_level()[LinkLevel::GroupUp.index()], 2 * 10 * WORD_BYTES);
    }

    #[test]
    fn execute_with_codec_folds_each_reprs_own_decode() {
        let inputs = vec![
            (0usize, vec![0.125, 100.0, 3.0]),
            (1usize, vec![0.25, -100.0, 2.0]),
            (2usize, vec![0.5, 0.0078125, 1.0]),
        ];
        // Dense: same as execute.
        let dense = star(3);
        assert_eq!(
            dense.execute_with_codec(&inputs).expect("valid"),
            dense.execute(&inputs).expect("valid")
        );
        // Top-1 keeps only each node's largest-magnitude coordinate:
        // node 0 and node 1 both keep index 1 (±100, which cancel),
        // node 2 keeps index 2 (1.0).
        let topk = star(3).with_repr(WireRepr::TopK { k: 1 });
        assert_eq!(topk.execute_with_codec(&inputs).expect("valid"), vec![0.0, 0.0, 1.0]);
        // Fixed-point: exactly representable values round-trip exactly.
        let fixed = star(3).with_repr(WireRepr::FixedPoint { frac_bits: 10 });
        let got = fixed.execute_with_codec(&inputs).expect("valid");
        assert_eq!(got, vec![0.875, 0.0078125, 6.0]);
    }

    #[test]
    fn execute_folds_in_ascending_node_order() {
        let s = star(3);
        let inputs = vec![
            (2usize, vec![30.0, 300.0, 3000.0]),
            (0usize, vec![10.0, 100.0, 1000.0]),
            (1usize, vec![20.0, 200.0, 2000.0]),
        ];
        let got = s.execute(&inputs).expect("valid");
        // Canonical order: 0 + n0 + n1 + n2 regardless of input order.
        let want: Vec<f64> =
            (0..3).map(|j| 0.0 + inputs[1].1[j] + inputs[2].1[j] + inputs[0].1[j]).collect();
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reduce_moves_rather_than_copies_so_contributions_cannot_fork() {
        // Chain 2→1→0, then bounce the aggregate 0→1 again: every reduce
        // after the first pair finds an emptied source and is skipped —
        // reduce-as-move makes double counting structurally impossible.
        // The only failure left is that the root never gets the model.
        let err = CommSchedule {
            steps: vec![
                CommStep {
                    round: 0,
                    src: 2,
                    dst: 1,
                    lo: 0,
                    hi: 10,
                    kind: StepKind::Reduce,
                    level: LinkLevel::Peer,
                },
                CommStep {
                    round: 1,
                    src: 1,
                    dst: 0,
                    lo: 0,
                    hi: 10,
                    kind: StepKind::Reduce,
                    level: LinkLevel::GroupUp,
                },
                CommStep {
                    round: 2,
                    src: 0,
                    dst: 1,
                    lo: 0,
                    hi: 10,
                    kind: StepKind::Reduce,
                    level: LinkLevel::Peer,
                },
            ],
            ..star(10)
        }
        .validate();
        assert!(matches!(err, Err(ScheduleError::RootNotCovered { root: 0 })), "{err:?}");
    }

    #[test]
    fn sharing_an_unfinished_range_is_rejected() {
        let s = CommSchedule {
            steps: vec![CommStep {
                round: 0,
                src: 1,
                dst: 0,
                lo: 0,
                hi: 10,
                kind: StepKind::Share,
                level: LinkLevel::Down,
            }],
            ..star(10)
        };
        assert_eq!(s.validate(), Err(ScheduleError::ShareWithoutData { src: 1, lo: 0, hi: 10 }));
    }

    #[test]
    fn delivering_a_range_twice_is_rejected() {
        let mut s = star(10);
        s.steps.push(CommStep {
            round: 2,
            src: 0,
            dst: 1,
            lo: 0,
            hi: 10,
            kind: StepKind::Share,
            level: LinkLevel::Down,
        });
        assert_eq!(s.validate(), Err(ScheduleError::DuplicateDelivery { dst: 1, lo: 0, hi: 10 }));
    }

    #[test]
    fn a_contribution_left_behind_is_rejected() {
        let mut s = star(10);
        s.steps.truncate(2); // keep the reduces, drop the shares
        s.steps.remove(0); // node 1 never reduces in
        assert_eq!(s.validate(), Err(ScheduleError::MissingAggregate { lo: 0, hi: 10 }));
    }

    #[test]
    fn a_half_contributed_range_surfaces_as_share_without_data() {
        // Node 1 only contributes the first half; when the root then
        // shares the "finished" model, the second half is unfinished.
        let mut s = star(10);
        s.steps[0].hi = 5;
        assert_eq!(s.validate(), Err(ScheduleError::ShareWithoutData { src: 0, lo: 0, hi: 10 }));
    }

    #[test]
    fn partial_range_coverage_is_detected_per_interval() {
        let mut s = star(10);
        s.steps.truncate(2); // reduces only
        s.steps[0].hi = 5; // node 1 contributes only [0, 5)
        assert_eq!(s.validate(), Err(ScheduleError::MissingAggregate { lo: 5, hi: 10 }));
    }

    #[test]
    fn out_of_bounds_and_bad_roots_are_rejected() {
        let mut s = star(10);
        s.steps[0].hi = 11;
        assert_eq!(
            s.validate(),
            Err(ScheduleError::OutOfBounds { lo: 0, hi: 11, model_words: 10 })
        );

        let mut s = star(10);
        s.root = 9;
        assert_eq!(s.validate(), Err(ScheduleError::NoRoot));

        let mut s = star(10);
        s.participants = vec![];
        assert_eq!(s.validate(), Err(ScheduleError::NoParticipants));

        let mut s = star(10);
        s.steps[0].src = 7;
        assert_eq!(s.validate(), Err(ScheduleError::UnknownParticipant { node: 7 }));
    }

    #[test]
    fn reduces_from_emptied_sources_are_counted_as_skipped() {
        let mut s = star(10);
        // Node 1 reduces into 0 twice; the second finds nothing.
        let dup = s.steps[0];
        s.steps.insert(1, CommStep { round: 0, ..dup });
        let report = s.validate().expect("skip, not error");
        assert_eq!(report.skipped_steps, 1);
        // Skipped bytes are not booked.
        assert_eq!(report.bytes_by_level[LinkLevel::GroupUp.index()], 2 * 10 * WORD_BYTES);
    }

    #[test]
    fn execute_checks_inputs() {
        let s = star(4);
        let missing = s.execute(&[(0, vec![0.0; 4]), (1, vec![0.0; 4])]);
        assert_eq!(missing, Err(ScheduleError::MissingInput { node: 2 }));
        let short = s.execute(&[(0, vec![0.0; 4]), (1, vec![0.0; 3]), (2, vec![0.0; 4])]);
        assert_eq!(short, Err(ScheduleError::InputLength { node: 1, got: 3, want: 4 }));
    }

    #[test]
    fn empty_single_node_schedule_is_trivially_valid() {
        let s = CommSchedule {
            kind: CollectiveKind::FlatStar,
            root: 5,
            participants: vec![5],
            model_words: 100,
            chunk_words: 10,
            repr: WireRepr::DenseF64,
            steps: vec![],
        };
        let report = s.validate().expect("one node needs no wire");
        assert_eq!(report.rounds, 0);
        assert_eq!(report.bytes_by_level, [0; 4]);
        assert_eq!(report.delivered, vec![5]);
    }

    #[test]
    fn link_levels_are_dense_and_labelled() {
        for (i, level) in LinkLevel::ALL.iter().enumerate() {
            assert_eq!(level.index(), i);
            assert!(!level.label().is_empty());
            assert_eq!(level.to_string(), level.label());
        }
    }
}
