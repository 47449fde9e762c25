//! Known-answer vectors for the stack's one checksum discipline
//! (FNV-1a, 64-bit). Every on-wire and on-disk format — chunks, frames,
//! checkpoints, the director journal, the schedule-cache key — hashes
//! through the same function, so a drift in it would move all of them
//! together and no round-trip test would notice. These literals would.

use cosmic::cosmic_director::journal::{self, Decision, Journal, Record};
use cosmic::cosmic_runtime::checkpoint::model_checksum;
use cosmic::cosmic_runtime::collectives::topology_fingerprint;
use cosmic::cosmic_runtime::transport::wire::{self, Frame};
use cosmic::cosmic_runtime::{assign_roles, Chunk};

fn trailing_u64(bytes: &[u8]) -> u64 {
    let tail: [u8; 8] = bytes[bytes.len() - 8..].try_into().expect("at least 8 bytes");
    u64::from_le_bytes(tail)
}

#[test]
fn checksums_match_their_pinned_vectors() {
    for fnv1a in [wire::fnv1a, journal::fnv1a] {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325, "the FNV-1a offset basis");
        assert_eq!(fnv1a(b"cosmic"), 0xbcce_f5d0_012c_7f27);
    }
    assert_eq!(Chunk::checksum_of(512, &[1.0, -0.0, f64::NAN]), 0xae2a_4e87_9fd0_08f7);
    assert_eq!(model_checksum(&[0.5; 3]), 0x5182_e8e8_149f_bac8);
    let topology = assign_roles(8, 2).expect("valid topology");
    assert_eq!(topology_fingerprint(&topology), 0x4971_2005_7ef4_5ce3);

    let frame = Frame::chunk(3, 7, &Chunk::new(512, vec![1.0, -0.0, f64::NAN]));
    assert_eq!(trailing_u64(&frame.encode()), 0x99a0_18d8_cbc6_1ca5);

    let mut journal = Journal::new();
    journal.append(&Record {
        event: 5,
        at_s: 0.25,
        decision: Decision::Admit { job: 9, grant: vec![1, 2, 3] },
    });
    assert_eq!(trailing_u64(journal.bytes()), 0x5fba_b682_508a_01e0);
}
