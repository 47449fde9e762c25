//! Satellite proptests for the raw-speed pass: the fused/unrolled fold
//! kernel is **bit-identical** to the scalar reference on every input —
//! random part counts, ragged lengths, awkward exponents — and the full
//! `aggregate_validated` pipeline (fused) matches
//! `aggregate_validated_reference` (scalar) bit-for-bit through the
//! quarantined-peer and survivor-rescaling paths. A fixed-point round
//! is held to two oracles the same way: the reference integer fold of
//! each partial's own quantization, and the float fold of
//! `WireRepr::transform`ed partials (what
//! `CommSchedule::execute_with_codec` computes). A round of dense and
//! grid streams is held, stripe by stripe, to both reference folds.
//!
//! Payload values are synthesized from raw `u64` entropy into finite
//! floats of wildly mixed magnitudes, so any change to the per-element
//! accumulation *order* would show up as a rounding difference; the
//! kernels only reorder the traversal across elements, never the adds
//! within one, which is exactly what these tests pin down.

use crossbeam::channel::{self, Receiver};
use proptest::prelude::*;

use cosmic_runtime::codec::{dequantize_sum, derive_scale, quantize_into, WireRepr};
use cosmic_runtime::fold::{fold_parts, fold_parts_i64_reference, fold_parts_reference};
use cosmic_runtime::node::{chunk_vector, Chunk, Layout, SigmaAggregator};
use cosmic_runtime::transport::{RoundCtx, SimTransport, Transport};
use cosmic_runtime::{FaultPlan, RetryPolicy, CHUNK_WORDS};

/// A finite f64 of erratic magnitude from raw entropy: mantissa in
/// ±1000, exponent in 2^-20..2^20, never NaN or infinite.
fn finite(bits: u64) -> f64 {
    let mant = (bits % 2003) as f64 - 1001.0;
    let exp = ((bits >> 17) % 41) as i32 - 20;
    mant * 2f64.powi(exp)
}

fn vector(len: usize, entropy: u64) -> Vec<f64> {
    (0..len)
        .map(|i| finite((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(entropy)))
        .collect()
}

/// One chunk stream per model, with `(peer, chunk)` corrupted if given.
fn streams(models: &[Vec<f64>], corrupt: Option<(usize, usize)>) -> Vec<Receiver<Chunk>> {
    models
        .iter()
        .enumerate()
        .map(|(p, m)| {
            let (tx, rx) = channel::unbounded();
            for (ci, chunk) in chunk_vector(m).into_iter().enumerate() {
                let chunk = if corrupt == Some((p, ci)) { chunk.corrupted() } else { chunk };
                tx.send(chunk).ok();
            }
            rx
        })
        .collect()
}

/// `grid` at `scale_exp` as a fixed-point sender's stream, packed here
/// by hand from the layout's description: per stripe the codec's header
/// word, then the `i32`s two to a word, low half first.
fn grid_stream(grid: &[i32], scale_exp: u8) -> Receiver<Chunk> {
    let (tx, rx) = channel::unbounded();
    for (k, stripe) in grid.chunks(CHUNK_WORDS).enumerate() {
        let header = u64::from(scale_exp) | (stripe.len() as u64) << 32;
        let packed = stripe.chunks(2).map(|pair| {
            u64::from(pair[0] as u32) | pair.get(1).map_or(0, |&q| u64::from(q as u32) << 32)
        });
        let data: Vec<f64> = std::iter::once(header).chain(packed).map(f64::from_bits).collect();
        let (offset, checksum) = (k * CHUNK_WORDS, Chunk::grid_checksum_of(k * CHUNK_WORDS, &data));
        tx.send(Chunk::with_checksum(offset, data, checksum, Layout::Grid)).ok();
    }
    rx
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One healthy fixed-point round of `models` over the in-process wire.
fn grid_round(models: &[Vec<f64>], frac_bits: u8) -> Vec<f64> {
    let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
    let senders: Vec<usize> = (0..models.len()).collect();
    let ctx = RoundCtx {
        iteration: 0,
        model_len: models[0].len(),
        plan: &plan,
        retry: &retry,
        senders: &senders,
        repr: WireRepr::FixedPoint { frac_bits },
    };
    let parts: Vec<Option<&[f64]>> = models.iter().map(|m| Some(m.as_slice())).collect();
    let delivery = SimTransport.round(&ctx, &SigmaAggregator::new(2, 2), &parts).expect("healthy");
    assert!(delivery.outcome.quarantined.is_empty());
    delivery.outcome.sum
}

proptest! {
    /// Kernel level: fused ≡ scalar bit-for-bit over random peer
    /// counts and lengths (including block-boundary and unroll-tail
    /// lengths via the random draw).
    #[test]
    fn fused_fold_is_bit_identical_to_reference(
        peers in 0usize..7,
        len in 0usize..5000,
        entropy in any::<u64>(),
    ) {
        let parts: Vec<Vec<f64>> =
            (0..peers).map(|p| vector(len, entropy ^ (p as u64) << 32)).collect();
        let slices: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
        let mut fast = vector(len, entropy ^ 0xABCD);
        let mut refr = fast.clone();
        fold_parts(&mut fast, &slices);
        fold_parts_reference(&mut refr, &slices);
        prop_assert_eq!(bits(&fast), bits(&refr));
    }

    /// Pipeline level: the full validated aggregation — chunking,
    /// rings, staging, final fold — sums to exactly what the scalar
    /// reference makes of the same parts, over random chunk counts and
    /// peer counts.
    #[test]
    fn aggregate_validated_matches_the_reference_fold(
        peers in 1usize..5,
        stripes in 1usize..3,
        tail in 0usize..7,
        entropy in any::<u64>(),
    ) {
        let len = (stripes - 1) * CHUNK_WORDS + tail.max(1);
        let models: Vec<Vec<f64>> =
            (0..peers).map(|p| vector(len, entropy ^ (p as u64) << 24)).collect();
        let out = SigmaAggregator::new(2, 2).aggregate_validated(len, streams(&models, None));
        let parts: Vec<&[f64]> = models.iter().map(Vec::as_slice).collect();
        let mut refr = vec![0.0; len];
        fold_parts_reference(&mut refr, &parts);
        prop_assert_eq!(bits(&out.sum), bits(&refr));
        prop_assert!(out.quarantined.is_empty());
        prop_assert_eq!(out.duplicates_dropped, 0);
    }

    /// Quarantine: corrupt one random peer's random chunk; the pipeline
    /// must quarantine exactly that peer and sum the survivors to the
    /// reference fold over them, bit-for-bit.
    #[test]
    fn quarantine_leaves_the_reference_fold_of_the_survivors(
        peers in 2usize..5,
        bad_peer in any::<u32>(),
        bad_chunk in any::<u32>(),
        tail in 1usize..9,
        entropy in any::<u64>(),
    ) {
        let len = CHUNK_WORDS + tail; // two stripes
        let bad_peer = bad_peer as usize % peers;
        let models: Vec<Vec<f64>> =
            (0..peers).map(|p| vector(len, entropy ^ (p as u64) << 24)).collect();
        let incoming = streams(&models, Some((bad_peer, bad_chunk as usize % 2)));
        let out = SigmaAggregator::new(2, 2).aggregate_validated(len, incoming);
        prop_assert_eq!(out.quarantined.len(), 1);
        prop_assert_eq!(out.quarantined[0].0, bad_peer);
        let parts: Vec<&[f64]> = models
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != bad_peer)
            .map(|(_, m)| m.as_slice())
            .collect();
        let mut refr = vec![0.0; len];
        fold_parts_reference(&mut refr, &parts);
        prop_assert_eq!(bits(&out.sum), bits(&refr));
    }

    /// The grid fold is the reference integer fold: every peer's
    /// partial quantized once at its own derived scale (here all the
    /// same: |x| < 2¹¹ never shrinks a scale of at most 20),
    /// `fold_parts_i64_reference`, one `dequantize_sum`. And it is the
    /// float fold of the `transform`ed partials, because the exactness
    /// condition holds: sums stay far below `2^(53 − frac_bits)`.
    #[test]
    fn grid_round_matches_the_integer_and_the_transform_oracles(
        peers in 1usize..5,
        stripes in 1usize..3,
        tail in 1usize..9,
        frac_bits in 0u8..21,
        entropy in any::<u64>(),
    ) {
        let len = (stripes - 1) * CHUNK_WORDS + tail;
        let models: Vec<Vec<f64>> = (0..peers)
            .map(|p| vector(len, entropy ^ (p as u64) << 24).iter().map(|x| x % 2048.0).collect())
            .collect();
        let sum = grid_round(&models, frac_bits);

        let mut grids = vec![vec![0i32; len]; peers];
        for (model, grid) in models.iter().zip(&mut grids) {
            prop_assert_eq!(derive_scale(model, frac_bits), frac_bits);
            prop_assert_eq!(quantize_into(model, frac_bits, grid), 0);
        }
        let parts: Vec<&[i32]> = grids.iter().map(Vec::as_slice).collect();
        let mut acc = vec![0i64; len];
        fold_parts_i64_reference(&mut acc, &parts);
        let mut integer = vec![0.0; len];
        dequantize_sum(frac_bits, &acc, &mut integer);
        prop_assert_eq!(bits(&sum), bits(&integer));

        let repr = WireRepr::FixedPoint { frac_bits };
        let decoded: Vec<Vec<f64>> = models.iter().map(|m| repr.transform(m).0).collect();
        let parts: Vec<&[f64]> = decoded.iter().map(Vec::as_slice).collect();
        let mut float = vec![0.0; len];
        fold_parts_reference(&mut float, &parts);
        prop_assert_eq!(bits(&sum), bits(&float));
    }

    /// The same against the transform oracle alone when peers derive
    /// different scales (peer *p* peaks near 2^(30 − 7p), so its
    /// exponent is near `min(frac_bits, 7p)`): stripes are aligned by
    /// shift, and the sums still fit 53 bits of the finest grid.
    #[test]
    fn grid_round_matches_the_transform_oracle_across_mixed_scales(
        peers in 2usize..5,
        tail in 1usize..9,
        frac_bits in 0u8..21,
        entropy in any::<u64>(),
    ) {
        let len = CHUNK_WORDS + tail;
        let models: Vec<Vec<f64>> = (0..peers)
            .map(|p| {
                let shrink = 2f64.powi(-7 * p as i32);
                vector(len, entropy ^ (p as u64) << 24).iter().map(|x| x * shrink).collect()
            })
            .collect();
        if frac_bits >= 7 {
            let scales: Vec<u8> = models.iter().map(|m| derive_scale(m, frac_bits)).collect();
            prop_assert!(scales[0] < scales[1], "{scales:?}");
        }
        let repr = WireRepr::FixedPoint { frac_bits };
        let decoded: Vec<Vec<f64>> = models.iter().map(|m| repr.transform(m).0).collect();
        let parts: Vec<&[f64]> = decoded.iter().map(Vec::as_slice).collect();
        let mut float = vec![0.0; len];
        fold_parts_reference(&mut float, &parts);
        prop_assert_eq!(bits(&grid_round(&models, frac_bits)), bits(&float));
    }

    /// A dense peer and two grid peers eight exponents apart, every
    /// stripe mixed, the last ragged: element *i* is `(0.0 + dense) +
    /// total`, `total` the reference integer sum on the finer grid
    /// de-quantized once. With the dense peer gone the stripes are
    /// their grid totals, and quanta that cancel read `+0.0` (an `i64`
    /// zero de-quantizes to nothing else).
    #[test]
    fn mixed_stripes_fold_dense_first_and_the_grid_total_last(
        stripes in 1usize..3,
        tail in 1usize..9,
        entropy in any::<u64>(),
    ) {
        const FINE: u8 = 20;
        const COARSE: u8 = FINE - 8;
        let len = (stripes - 1) * CHUNK_WORDS + tail;
        let dense = vector(len, entropy);
        let quantized = |salt: u64, scale_exp: u8| {
            // |x| < 2¹⁰: below 2²² quanta on the coarse grid, 2³⁰ on the fine.
            let model: Vec<f64> =
                vector(len, entropy ^ salt).iter().map(|x| x % 1024.0).collect();
            let mut grid = vec![0i32; len];
            assert_eq!(quantize_into(&model, scale_exp, &mut grid), 0);
            grid
        };
        let (mut fine, coarse) = (quantized(1 << 24, FINE), quantized(2 << 24, COARSE));
        fine[len - 1] = -(coarse[len - 1] << (FINE - COARSE)); // cancels to zero
        let aligned: Vec<i32> = coarse.iter().map(|q| q << (FINE - COARSE)).collect();
        let mut acc = vec![0i64; len];
        fold_parts_i64_reference(&mut acc, &[&fine, &aligned]);
        let mut total = vec![0.0; len];
        dequantize_sum(FINE, &acc, &mut total);
        prop_assert_eq!(total[len - 1].to_bits(), 0.0f64.to_bits());

        let sigma = SigmaAggregator::new(2, 2);
        for with_dense in [true, false] {
            let mut incoming = vec![grid_stream(&coarse, COARSE), grid_stream(&fine, FINE)];
            let mut parts: Vec<&[f64]> = vec![&total];
            if with_dense {
                incoming.insert(1, streams(std::slice::from_ref(&dense), None).remove(0));
                parts.insert(0, &dense);
            }
            let out = sigma.aggregate_validated(len, incoming);
            prop_assert!(out.quarantined.is_empty());
            let mut refr = vec![0.0; len];
            fold_parts_reference(&mut refr, &parts);
            prop_assert_eq!(bits(&out.sum), bits(&refr), "dense peer: {}", with_dense);
        }
    }
}
