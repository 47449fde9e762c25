//! Satellite proptests for the raw-speed pass: the fused/unrolled fold
//! kernel is **bit-identical** to the scalar reference on every input —
//! random part counts, ragged lengths, awkward exponents — and the full
//! `aggregate_validated` pipeline (fused) matches
//! `aggregate_validated_reference` (scalar) bit-for-bit through the
//! quarantined-peer and survivor-rescaling paths.
//!
//! Payload values are synthesized from raw `u64` entropy into finite
//! floats of wildly mixed magnitudes, so any change to the per-element
//! accumulation *order* would show up as a rounding difference; the
//! kernels only reorder the traversal across elements, never the adds
//! within one, which is exactly what these tests pin down.

use crossbeam::channel::{self, Receiver};
use proptest::prelude::*;

use cosmic_runtime::fold::{fold_parts, fold_parts_reference};
use cosmic_runtime::node::{chunk_vector, Chunk, SigmaAggregator};
use cosmic_runtime::CHUNK_WORDS;

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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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
}
