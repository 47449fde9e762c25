//! Known-answer vectors for the stack's two checksum routines and the
//! formats built on each. Byte-serial FNV-1a (64-bit) seals the small
//! persisted formats — the director journal, the schedule-cache key —
//! and names a model (`model_checksum`, the launcher's final checksum);
//! those literals here have never moved. The word-lane `payload_digest`
//! seals model checkpoints (the bare digest) and sits under every chunk
//! checksum (`Fnv1a(offset) ‖ digest`; a grid chunk's, over the words
//! as carried, `Fnv1a(offset) ‖ header ‖ digest`) and wire-frame
//! trailer (`Fnv1a(header) ‖ digest`). A drift in either routine would
//! move all of its formats together and no round-trip test would
//! notice. These literals would.

use cosmic::cosmic_director::journal::{self, Decision, Journal, Record};
use cosmic::cosmic_runtime::checkpoint::{model_checksum, Checkpoint};
use cosmic::cosmic_runtime::collectives::{payload_digest, topology_fingerprint};
use cosmic::cosmic_runtime::transport::wire::Frame;
use cosmic::cosmic_runtime::{assign_roles, Chunk, CHUNK_WORDS};

fn trailing_u64(bytes: &[u8]) -> u64 {
    let tail: [u8; 8] = bytes[bytes.len() - 8..].try_into().expect("at least 8 bytes");
    u64::from_le_bytes(tail)
}

/// SplitMix64 from state 2017, raw bit patterns: NaNs, subnormals and
/// both zero signs included.
fn seeded_pattern(len: usize) -> Vec<f64> {
    let mut state = 2017u64;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        })
        .collect()
}

#[test]
fn checksums_match_their_pinned_vectors() {
    // Byte-serial FNV-1a and the formats it seals.
    assert_eq!(journal::fnv1a(b""), 0xcbf2_9ce4_8422_2325, "the FNV-1a offset basis");
    assert_eq!(journal::fnv1a(b"cosmic"), 0xbcce_f5d0_012c_7f27);
    assert_eq!(model_checksum(&[0.5; 3]), 0x5182_e8e8_149f_bac8);
    let topology = assign_roles(8, 2).expect("valid topology");
    assert_eq!(topology_fingerprint(&topology), 0x4971_2005_7ef4_5ce3);
    let mut journal = Journal::new();
    journal.append(&Record {
        event: 5,
        at_s: 0.25,
        decision: Decision::Admit { job: 9, grant: vec![1, 2, 3] },
    });
    assert_eq!(trailing_u64(journal.bytes()), 0x5fba_b682_508a_01e0);

    // The payload digest: empty, one word, one round of lanes plus a
    // ragged word, and a full stripe.
    assert_eq!(payload_digest(&[]), 0xec45_a3fb_e05f_bbdb);
    assert_eq!(payload_digest(&[1.0]), 0x47f9_eb96_908f_7862);
    assert_eq!(payload_digest(&[1.0, -0.0, f64::NAN, 0.5, -2.25]), 0xaea7_140f_f863_550e);
    assert_eq!(payload_digest(&seeded_pattern(CHUNK_WORDS)), 0xf5f3_f96b_ef76_a921);

    // ... and the formats sealed with it.
    assert_eq!(Checkpoint::take(4, &[0.5; 3]).checksum, 0xae48_ad6c_673c_2980);
    assert_eq!(Chunk::checksum_of(512, &[1.0, -0.0, f64::NAN]), 0xd074_d1c2_8c94_19fd);
    let frame = Frame::chunk(3, 7, &Chunk::new(512, vec![1.0, -0.0, f64::NAN]));
    assert_eq!(trailing_u64(&frame.encode()), 0xf72e_6664_29c4_dc6b);

    // A grid chunk as carried: the codec header (scale exponent 20,
    // three words), then [7, -1] and [-2147483647, padding] packed low
    // half first. Its sum is its own, not a dense chunk's of those words.
    let grid =
        [0x0000_0003_0000_0014, 0xffff_ffff_0000_0007, 0x0000_0000_8000_0001].map(f64::from_bits);
    assert_eq!(Chunk::grid_checksum_of(512, &grid), 0xc102_3736_d3b9_07f7);
    assert_ne!(Chunk::checksum_of(512, &grid), 0xc102_3736_d3b9_07f7);
}
