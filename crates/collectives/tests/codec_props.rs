//! Property-based contracts of the wire codecs: fixed-point round-trip
//! error inside the analytic grid bound, top-k coordinate conservation,
//! word-format readers that are total on arbitrary words and declared
//! lengths, and byte pricing of every schedule under each repr.

use cosmic_collectives::codec::{
    derive_scale, grid_bytes, read_grid, read_sparse, write_grid, write_sparse, CodecError,
    WireRepr, WORD_BYTES,
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

    /// Top-k transmits exactly `min(k, words)` coordinates — the
    /// writer's byte length says so — and the reader reproduces the
    /// kept values bit-exactly while zeroing every dropped coordinate.
    #[test]
    fn top_k_conserves_exactly_k_coordinates(
        data in finite_words(200),
        k in 1usize..32,
    ) {
        let repr = WireRepr::TopK { k };
        let data = [&data[..], &[0.75]].concat(); // an empty payload writes nothing
        let (transformed, stats) = repr.transform(&data);
        let kept = k.min(data.len());
        prop_assert_eq!(stats.dropped as usize, data.len() - kept);
        let coords = transformed.iter().enumerate().filter(|(_, v)| v.to_bits() != 0);
        let mut list = Vec::new();
        let len = write_sparse(data.len(), coords.map(|(i, &v)| (i as u32, v)), &mut list);
        // The documented size law: 8-byte header + 12 bytes (u32 index
        // + f64 value) per transmitted coordinate.
        let nonzero = transformed.iter().filter(|v| **v != 0.0).count();
        prop_assert_eq!(len, 8 + nonzero * 12);
        prop_assert!(nonzero <= kept, "at most k non-zeros travel");
        prop_assert_eq!(list.len(), len.div_ceil(WORD_BYTES));
        let back = read_sparse(&list, len, data.len()).expect("the writer's words read back");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back), bits(&transformed));
    }

    /// Both readers are total: arbitrary words under an arbitrary
    /// declared byte length are a typed error or a payload of exactly
    /// the declared length, never a panic, and a declaration over the
    /// cap is refused as such before anything is sized from it.
    #[test]
    fn readers_are_total_on_arbitrary_words(
        words in prop::collection::vec(any::<u64>(), 0..12),
        len in 0usize..100,
        small in any::<u8>(),
        cap in 0usize..40,
    ) {
        // Arbitrary words rarely spell a plausible header: also try
        // them behind a small word count in the header's count field.
        let mut headed = words.clone();
        if let Some(header) = headed.first_mut() {
            *header = (*header & 0xFFFF_FFFF) | u64::from(small % 24) << 32;
        }
        for candidate in [&words, &headed] {
            let data: Vec<f64> = candidate.iter().map(|&w| f64::from_bits(w)).collect();
            let declared = candidate.first().map_or(0, |h| (h >> 32) as usize);
            match read_sparse(&data, len, cap) {
                Ok(out) => prop_assert_eq!(out.len(), declared),
                Err(CodecError::Oversized { words, .. }) => prop_assert!(words > cap),
                Err(_) => {}
            }
            match read_grid(&data, cap) {
                Ok((_, n)) => {
                    prop_assert_eq!(n, declared);
                    prop_assert_eq!(data.len(), grid_bytes(n).div_ceil(WORD_BYTES));
                }
                Err(CodecError::Oversized { words, .. }) => prop_assert!(words > cap),
                Err(_) => {}
            }
            if declared > cap && !data.is_empty() {
                let oversized = Err(CodecError::Oversized { words: declared, cap });
                prop_assert_eq!(read_grid(&data, cap), oversized);
            }
        }
    }

    /// The grid header is read strictly: from a valid grid, any one
    /// byte of the header word changed, or any words cut or added at
    /// the end, reads as a typed error or — for the few header values
    /// that are themselves valid — exactly the declared word count.
    #[test]
    fn grid_reader_is_strict_about_its_header_and_length(
        data in finite_words(40),
        frac_bits in 0u8..63,
        at in 0usize..8,
        to in any::<u8>(),
        grow in 0usize..6,
        cut in 0usize..6,
    ) {
        let mut grid = Vec::new();
        write_grid(&data, derive_scale(&data, frac_bits), &mut grid);
        prop_assert_eq!(read_grid(&grid, usize::MAX).map(|(_, n)| n), Ok(data.len()));
        let mut bytes = grid[0].to_bits().to_le_bytes();
        let was = std::mem::replace(&mut bytes[at], to);
        let mut bent = grid.clone();
        bent[0] = f64::from_bits(u64::from_le_bytes(bytes));
        match (at, read_grid(&bent, usize::MAX)) {
            (_, Ok((_, n))) => {
                prop_assert!(to == was || (at == 0 && to <= 62), "byte {at}: {was} -> {to}");
                prop_assert_eq!(n, data.len());
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
        let mut long = grid.clone();
        long.extend(std::iter::repeat_n(0.0, grow));
        let expected = WORD_BYTES * grid.len();
        prop_assert_eq!(
            read_grid(&long, usize::MAX).err(),
            (grow > 0).then_some(CodecError::Trailing { expected, got: expected + WORD_BYTES * grow })
        );
        let short = &grid[..grid.len() - cut.min(grid.len() - 1)];
        if cut > 0 && short.len() < grid.len() {
            let is_truncated =
                matches!(read_grid(short, usize::MAX), Err(CodecError::Truncated { .. }));
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
