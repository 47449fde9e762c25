//! Property-based contracts of the wire codecs: dense identity,
//! fixed-point round-trip error inside the analytic grid bound, top-k
//! coordinate conservation, decoders that are total on arbitrary
//! bytes, and cross-strategy agreement of the schedule execution under
//! each repr's own decode.

use cosmic_collectives::codec::{
    declared_words, decode_tagged, derive_scale, CodecError, WireRepr, WORD_BYTES,
};
use cosmic_collectives::topology::{assign_roles, default_groups};
use cosmic_collectives::CollectiveKind;
use proptest::prelude::*;

/// Finite, moderately sized f64 words — the domain the lossy codecs
/// make analytic promises about.
fn finite_words(max: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, 0..max)
}

proptest! {
    /// Dense encode→decode is the bit-exact identity — on *every* bit
    /// pattern, NaNs and infinities included — and its wire size obeys
    /// the size law every layer prices with.
    #[test]
    fn dense_round_trip_is_bit_exact(bits in prop::collection::vec(0u64..u64::MAX, 0..200)) {
        let data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let repr = WireRepr::DenseF64;
        let (enc, stats) = repr.encode(&data);
        prop_assert_eq!(enc.bytes.len(), repr.payload_bytes(data.len()));
        prop_assert_eq!(enc.bytes.len() as u64, stats.wire_bytes);
        let back = repr.decode(&enc.bytes).expect("dense decodes");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back), bits(&data));
    }

    /// Fixed-point round-trip error is bounded by half a grid step,
    /// `2^-(e+1)` at the payload's derived scale `e` — the analytic
    /// bound DESIGN.md documents — for every non-clipping payload.
    #[test]
    fn fixed_point_error_stays_inside_the_grid_bound(
        data in finite_words(200),
        frac_bits in 1u8..40,
    ) {
        let repr = WireRepr::FixedPoint { frac_bits };
        let (out, stats) = repr.transform(&data);
        prop_assert_eq!(stats.clipped, 0, "finite 1e6-bounded payloads never clip");
        let e = i32::from(derive_scale(&data, frac_bits));
        let bound = f64::from_bits(((1023 - e - 1) as u64) << 52); // 2^-(e+1)
        for (i, (&x, &y)) in data.iter().zip(&out).enumerate() {
            prop_assert!(
                (x - y).abs() <= bound,
                "word {i}: |{x} - {y}| > 2^-({e}+1) = {bound}"
            );
        }
    }

    /// Top-k transmits exactly `min(k, words)` coordinates — the wire
    /// size says so — and decode reproduces the kept values bit-exactly
    /// while zeroing every dropped coordinate.
    #[test]
    fn top_k_conserves_exactly_k_coordinates(
        data in finite_words(200),
        k in 1usize..32,
    ) {
        let repr = WireRepr::TopK { k };
        let (enc, stats) = repr.encode(&data);
        let kept = k.min(data.len());
        prop_assert_eq!(enc.bytes.len(), repr.payload_bytes(data.len()));
        if !data.is_empty() {
            // The documented size law: 8-byte header + 12 bytes
            // (u32 index + f64 value) per transmitted coordinate.
            prop_assert_eq!(enc.bytes.len(), 8 + kept * 12);
        }
        prop_assert_eq!(stats.dropped as usize, data.len() - kept);

        let back = repr.decode(&enc.bytes).expect("top-k decodes");
        prop_assert_eq!(back.len(), data.len());
        let (transformed, _) = repr.transform(&data);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back), bits(&transformed));
        let nonzero = back.iter().filter(|v| **v != 0.0).count();
        prop_assert!(nonzero <= kept, "decode reconstructs at most k non-zeros");
    }

    /// `decode_tagged` is total: arbitrary bytes under every tag (and
    /// one past the last) are words or a typed error, never a panic —
    /// and whatever decodes is the length its header declared.
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        small in any::<u8>(),
    ) {
        // Arbitrary bytes rarely spell a plausible header: also try
        // them behind a small word count in the header's count field.
        let mut headed = bytes.clone();
        if let Some(count) = headed.get_mut(4..8) {
            count.copy_from_slice(&u32::from(small % 24).to_le_bytes());
        }
        for tag in 0..4 {
            for candidate in [&bytes, &headed] {
                if let Ok(words) = decode_tagged(tag, candidate) {
                    prop_assert_eq!(Ok(words.len()), declared_words(tag, candidate));
                }
            }
        }
    }

    /// The fixed-point header is read strictly: from a valid payload,
    /// any one byte of the header changed, or any bytes cut or added at
    /// the end, decodes to a typed error or — for the few header values
    /// that are themselves valid — to exactly the declared words.
    #[test]
    fn fixed_point_decode_is_strict_about_its_header_and_length(
        data in finite_words(40),
        frac_bits in 0u8..63,
        at in 0usize..8,
        to in any::<u8>(),
        grow in 0usize..6,
        cut in 0usize..6,
    ) {
        let repr = WireRepr::FixedPoint { frac_bits };
        let data = [&data[..], &[0.75]].concat(); // an empty payload has no header
        let (enc, _) = repr.encode(&data);
        prop_assert_eq!(repr.decode(&enc.bytes).map(|w| w.len()), Ok(data.len()));
        let mut bent = enc.bytes.clone();
        let was = std::mem::replace(&mut bent[at], to);
        match (at, decode_tagged(repr.tag(), &bent)) {
            (_, Ok(words)) => {
                prop_assert!(to == was || (at == 0 && to <= 62), "byte {at}: {was} -> {to}");
                prop_assert_eq!(words.len(), data.len());
            }
            (0..=3, Err(err)) => {
                let is_bad_header = matches!(err, CodecError::BadHeader { .. });
                prop_assert!(is_bad_header, "{err}");
            }
            (_, Err(err)) => {
                let is_length = matches!(err, CodecError::Truncated { .. } | CodecError::Trailing { .. });
                prop_assert!(is_length, "{err}");
            }
        }
        let mut long = enc.bytes.clone();
        long.extend(std::iter::repeat_n(0, grow));
        let expected = enc.bytes.len();
        prop_assert_eq!(
            decode_tagged(repr.tag(), &long).err(),
            (grow > 0).then_some(CodecError::Trailing { expected, got: expected + grow })
        );
        let short = &enc.bytes[..expected - cut.min(expected)];
        if cut > 0 && !short.is_empty() {
            let is_truncated =
                matches!(decode_tagged(repr.tag(), short), Err(CodecError::Truncated { .. }));
            prop_assert!(is_truncated);
        }
    }

    /// Every schedule books the exact encoded byte law — per-step
    /// `payload_bytes` — under every repr, and its exactly-once
    /// coverage proof survives the re-pricing (validation is over
    /// logical word ranges, not bytes).
    #[test]
    fn schedules_book_encoded_bytes_under_every_repr(
        nodes in 2usize..12,
        words in 1usize..50_000,
        frac_bits in 1u8..32,
        k in 1usize..5_000,
    ) {
        let topo = assign_roles(nodes, default_groups(nodes)).expect("valid topology");
        let participants = topo.live_node_ids();
        for repr in [
            WireRepr::DenseF64,
            WireRepr::FixedPoint { frac_bits },
            WireRepr::TopK { k },
        ] {
            for kind in CollectiveKind::ALL {
                let schedule = kind
                    .strategy()
                    .schedule(&topo, &participants, words, 4096)
                    .expect("schedule builds")
                    .with_repr(repr);
                prop_assert!(schedule.validate().is_ok(), "coverage survives re-pricing");
                let law: usize =
                    schedule.steps.iter().map(|s| repr.payload_bytes(s.words())).sum();
                prop_assert_eq!(schedule.total_bytes(), law, "{} under {}", kind, repr);
                if repr == WireRepr::DenseF64 {
                    let dense: usize =
                        schedule.steps.iter().map(|s| s.words() * WORD_BYTES).sum();
                    prop_assert_eq!(schedule.total_bytes(), dense);
                }
            }
        }
    }
}
