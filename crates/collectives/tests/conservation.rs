//! Schedule conservation properties (ISSUE 3 satellite).
//!
//! For every strategy over randomized cluster shapes, model sizes,
//! chunk sizes, and fault patterns:
//!
//! - the generated schedule passes the exactly-once symbolic executor
//!   with nothing skipped and everyone delivered;
//! - it moves *exactly* the words the model requires — (P−1)·W reduce
//!   words (the all-reduce bandwidth lower bound) — and the same again
//!   as shares;
//! - its numeric aggregate is bit-identical to the reference
//!   [`FlatStar`] fold over the same seeded inputs.

use cosmic_collectives::{assign_roles, Collective, CollectiveKind, FlatStar, StepKind};
use proptest::prelude::*;

/// SplitMix64: tiny deterministic generator for seeded gradient inputs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded pseudo-gradient for one node: values in [-1, 1).
fn seeded_input(seed: u64, node: usize, words: usize) -> Vec<f64> {
    let mut state = seed ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    (0..words)
        .map(|_| {
            let bits = splitmix64(&mut state);
            (bits >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
        })
        .collect()
}

proptest! {
    #[test]
    fn every_collective_conserves_words_and_matches_the_flat_star_fold(
        nodes in 1usize..13,
        group_pick in 0usize..64,
        words in 0usize..600,
        chunk in 1usize..128,
        seed in 0u64..(1u64 << 62),
        kills in prop::collection::vec(0usize..64, 0..3),
    ) {
        let groups = group_pick % nodes + 1;
        let mut topo = assign_roles(nodes, groups).expect("valid grid point");
        for k in kills {
            // NoMaster is reachable when the kill sequence exhausts the
            // cluster; the node is marked failed regardless.
            let _ = topo.fail_node(k % nodes);
        }
        let participants = topo.live_node_ids();
        if participants.is_empty() {
            return;
        }
        let p = participants.len();

        let inputs: Vec<(usize, Vec<f64>)> = participants
            .iter()
            .map(|&n| (n, seeded_input(seed, n, words)))
            .collect();
        let reference = FlatStar
            .schedule(&topo, &participants, words, chunk)
            .expect("reference builds")
            .execute(&inputs)
            .expect("reference executes");
        let reference_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();

        for kind in CollectiveKind::ALL {
            let schedule = kind
                .strategy()
                .schedule(&topo, &participants, words, chunk)
                .expect("schedule builds");
            let report = schedule.validate().expect("schedule is exactly-once");

            // Conservation: nothing skipped, everyone served, and the
            // executed bytes equal the static step list.
            prop_assert_eq!(report.skipped_steps, 0, "{} skipped", kind);
            prop_assert_eq!(&report.delivered, &participants, "{} delivery", kind);
            prop_assert_eq!(
                report.bytes_by_level, schedule.bytes_by_level(),
                "{} executed vs static bytes", kind
            );

            // Exactly the words the model requires, reduce and share.
            let reduce_words: usize = schedule
                .steps.iter().filter(|s| s.kind == StepKind::Reduce).map(|s| s.words()).sum();
            let share_words: usize = schedule
                .steps.iter().filter(|s| s.kind == StepKind::Share).map(|s| s.words()).sum();
            let want = (p - 1) * words;
            prop_assert_eq!(reduce_words, want, "{} reduce words", kind);
            prop_assert_eq!(share_words, want, "{} share words", kind);

            // Bit-identity with the reference fold.
            let aggregate = schedule.execute(&inputs).expect("executes");
            let bits: Vec<u64> = aggregate.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&bits, &reference_bits, "{} aggregate bits", kind);
        }
    }
}
