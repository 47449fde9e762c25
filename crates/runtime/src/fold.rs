//! The aggregation fold kernels: one scalar reference, one fused/
//! unrolled fast path, bit-identical by construction.
//!
//! The Sigma's final fold sums the chunk views each peer delivered into
//! the aggregation buffer, a stripe at a time, **in peer-index order** —
//! that ordering is the determinism contract (quarantining peer *k*
//! yields bit-for-bit the sum over the remaining peers). The reference
//! kernel walks the whole buffer once per peer; the fast kernel walks
//! it once *total*, sweeping cache-sized blocks and adding every peer's
//! block before moving on, with the inner loop unrolled into eight
//! accumulation lanes.
//!
//! Both kernels perform, for every element `i`, exactly the additions
//! `sum[i] += part0[i]; sum[i] += part1[i]; …` in the same peer order
//! — only the *traversal* differs — so their results are bit-identical
//! on every input, NaNs and signed zeros included. The proptests in
//! [`crate::node`] and `tests/` hold that line.

/// Words per sweep block of the fused kernel: 8 KiB of f64s, sized to
/// sit comfortably in L1 alongside one peer block.
const BLOCK_WORDS: usize = 1024;

/// Scalar element-wise accumulation: `dst[i] += src[i]`.
///
/// This is the reference inner loop, kept deliberately naive.
pub(crate) fn add_assign(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
}

/// Reference fold: one full pass over `sum` per part, in part order —
/// the pre-optimization code path, kept as the equivalence oracle and
/// the benchmark baseline.
pub fn fold_parts_reference(sum: &mut [f64], parts: &[&[f64]]) {
    for part in parts {
        add_assign(sum, part);
    }
}

/// Fused fold: a single sweep over `sum` in `BLOCK_WORDS` blocks,
/// adding every part's block in part order before advancing, with an
/// eight-lane unrolled inner loop.
///
/// Bit-identical to [`fold_parts_reference`]: each element still
/// receives its additions in exactly part order — only the traversal
/// order across *different* elements changes, and f64 addition at one
/// element never depends on another element.
pub fn fold_parts(sum: &mut [f64], parts: &[&[f64]]) {
    match parts {
        [] => {}
        [only] => add_lanes(sum, only),
        many => {
            let len = sum.len();
            let mut at = 0;
            while at < len {
                let end = (at + BLOCK_WORDS).min(len);
                for part in many {
                    let stop = end.min(part.len());
                    if at < stop {
                        add_lanes(&mut sum[at..stop], &part[at..stop]);
                    }
                }
                at = end;
            }
        }
    }
}

/// Unrolled element-wise accumulation: eight independent lanes per
/// step so the compiler can keep the adds in flight, falling back to
/// the scalar loop for the ragged tail. Per-element it is the same
/// `dst[i] += src[i]` as [`add_assign`].
fn add_lanes(dst: &mut [f64], src: &[f64]) {
    let n = dst.len().min(src.len());
    let (head_d, tail_d) = dst[..n].split_at_mut(n - n % 8);
    let (head_s, tail_s) = src[..n].split_at(n - n % 8);
    for (d, s) in head_d.chunks_exact_mut(8).zip(head_s.chunks_exact(8)) {
        d[0] += s[0];
        d[1] += s[1];
        d[2] += s[2];
        d[3] += s[3];
        d[4] += s[4];
        d[5] += s[5];
        d[6] += s[6];
        d[7] += s[7];
    }
    add_assign(tail_d, tail_s);
}

/// Reference integer fold for fixed-point payloads: one full pass over
/// `sum` per part, in part order. Accumulating i32 quantized values
/// into i64 is exact — `peers × i32::MAX` stays far below `i64::MAX` —
/// so unlike the f64 fold there is no rounding for traversal order to
/// perturb; the twin exists to pin the fused kernel's *indexing*.
pub fn fold_parts_i64_reference(sum: &mut [i64], parts: &[&[i32]]) {
    for part in parts {
        for (d, s) in sum.iter_mut().zip(*part) {
            *d += i64::from(*s);
        }
    }
}

/// Two `i32` values as one packed word of a grid chunk (`Layout::Grid`):
/// low half first.
pub(crate) fn pack_pair(low: i32, high: i32) -> f64 {
    f64::from_bits(u64::from(low as u32) | u64::from(high as u32) << 32)
}

/// The `i32` values of packed words, [`pack_pair`] undone.
fn quanta(packed: &[f64]) -> impl Iterator<Item = i32> + '_ {
    packed.iter().flat_map(|word| [word.to_bits() as i32, (word.to_bits() >> 32) as i32])
}

/// Fused integer fold: the same single-sweep blocked traversal as
/// [`fold_parts`], accumulating i32 quantized values — read where the
/// wire left them, packed two to a word — into i64: the fold under
/// every fixed-point round ([`fold_grid_stripe`]). Identical to
/// [`fold_parts_i64_reference`] of the unpacked values on every input.
fn fold_parts_i64(sum: &mut [i64], parts: &[(&[f64], u8)]) {
    let len = sum.len();
    let mut at = 0;
    while at < len {
        let end = (at + BLOCK_WORDS).min(len);
        for (packed, _) in parts {
            let stop = end.min(2 * packed.len());
            if at < stop {
                add_lanes_i64(&mut sum[at..stop], &packed[at / 2..]);
            }
        }
        at = end;
    }
}

/// Folds one stripe of fixed-point contributions — `(packed, scale_exp)`,
/// a grid chunk's packed words, each on its own grid `2^-scale_exp` —
/// into `acc` as exact integer sums on one grid, and returns that
/// grid's exponent.
///
/// All on one grid (the common case): [`fold_parts_i64`] as is. Else
/// the coarser contributions align to the finest grid by left shift,
/// exact while `31 + (finest − coarsest) + ⌈log₂ parts⌉ ≤ 63`. Past
/// that (magnitudes > 2³² apart between peers, so only with
/// `frac_bits > 30`) the sums' grid stops at
/// `coarsest + 32 − ⌈log₂ parts⌉` and each finer value is rounded onto
/// it on its own, half away from zero. Every term is a function of one
/// contribution and the set's two extremes, and integer addition is
/// associative: no order of `parts` changes a sum, no input wraps.
pub(crate) fn fold_grid_stripe(acc: &mut [i64], parts: &[(&[f64], u8)]) -> u8 {
    acc.fill(0);
    let exps = || parts.iter().map(|&(_, scale_exp)| scale_exp);
    let (Some(coarsest), Some(finest)) = (exps().min(), exps().max()) else {
        return 0;
    };
    let headroom = 32u32.saturating_sub(parts.len().next_power_of_two().trailing_zeros());
    let grid = finest.min(coarsest.saturating_add(headroom as u8));
    if coarsest == finest {
        fold_parts_i64(acc, parts);
        return grid;
    }
    for &(packed, scale_exp) in parts {
        if scale_exp <= grid {
            let up = grid - scale_exp;
            for (sum, q) in acc.iter_mut().zip(quanta(packed)) {
                *sum += i64::from(q) << up;
            }
        } else {
            let down = scale_exp - grid;
            let half = 1i64 << (down - 1);
            for (sum, q) in acc.iter_mut().zip(quanta(packed)) {
                let q = i64::from(q);
                *sum += ((q.abs() + half) >> down) * q.signum();
            }
        }
    }
    grid
}

/// Eight-lane unrolled integer accumulation of packed values, four words
/// a step; an odd `dst` takes the low half of one word more.
fn add_lanes_i64(dst: &mut [i64], packed: &[f64]) {
    let n = dst.len().min(2 * packed.len());
    let (head_d, tail_d) = dst[..n].split_at_mut(n - n % 8);
    let (head_s, tail_s) = packed.split_at(head_d.len() / 2);
    let (low, high) = (|w: f64| i64::from(w.to_bits() as i32), |w: f64| w.to_bits() as i64 >> 32);
    for (d, s) in head_d.chunks_exact_mut(8).zip(head_s.chunks_exact(4)) {
        d[0] += low(s[0]);
        d[1] += high(s[0]);
        d[2] += low(s[1]);
        d[3] += high(s[1]);
        d[4] += low(s[2]);
        d[5] += high(s[2]);
        d[6] += low(s[3]);
        d[7] += high(s[3]);
    }
    for (d, q) in tail_d.iter_mut().zip(quanta(tail_s)) {
        *d += i64::from(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u64) -> Vec<f64> {
        // Deterministic "awkward" floats: wide exponent range, both
        // signs, no NaNs (NaN equivalence is covered on bits in the
        // proptests).
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
                let mant = (x % 2003) as f64 - 1001.0;
                let exp = ((x >> 11) % 40) as i32 - 20;
                mant * 2f64.powi(exp)
            })
            .collect()
    }

    /// `values` as a grid chunk carries them: two to a word, low half
    /// first, a ragged last word zero-padded.
    fn pack(values: &[i32]) -> Vec<f64> {
        values.chunks(2).map(|pair| pack_pair(pair[0], pair.get(1).copied().unwrap_or(0))).collect()
    }

    #[test]
    fn fused_fold_matches_reference_bitwise() {
        for peers in [0usize, 1, 2, 3, 7] {
            for len in [0usize, 1, 7, 8, 9, 1023, 1024, 1025, 4096 + 13] {
                let parts: Vec<Vec<f64>> = (0..peers).map(|p| pattern(len, p as u64)).collect();
                let slices: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
                let mut fast = pattern(len, 99);
                let mut refr = fast.clone();
                fold_parts(&mut fast, &slices);
                fold_parts_reference(&mut refr, &slices);
                let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
                let ref_bits: Vec<u64> = refr.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fast_bits, ref_bits, "peers={peers} len={len}");
            }
        }
    }

    #[test]
    fn fused_integer_fold_matches_reference_exactly() {
        for peers in [0usize, 1, 2, 3, 7] {
            for len in [0usize, 1, 7, 8, 9, 1023, 1024, 1025, 4096 + 13] {
                let parts: Vec<Vec<i32>> = (0..peers)
                    .map(|p| {
                        (0..len)
                            .map(|i| {
                                let x = (i as u64)
                                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                    .wrapping_add(p as u64);
                                if x.is_multiple_of(13) {
                                    if x.is_multiple_of(2) {
                                        i32::MAX
                                    } else {
                                        i32::MIN + 1
                                    }
                                } else {
                                    (x % 200_003) as i32 - 100_001
                                }
                            })
                            .collect()
                    })
                    .collect();
                let slices: Vec<&[i32]> = parts.iter().map(Vec::as_slice).collect();
                let packed: Vec<Vec<f64>> = parts.iter().map(|p| pack(p)).collect();
                let views: Vec<(&[f64], u8)> = packed.iter().map(|p| (p.as_slice(), 0)).collect();
                let mut fast = vec![0i64; len];
                let mut refr = vec![0i64; len];
                fold_parts_i64(&mut fast, &views);
                fold_parts_i64_reference(&mut refr, &slices);
                assert_eq!(fast, refr, "peers={peers} len={len}");
            }
        }
    }

    #[test]
    fn short_integer_parts_only_touch_their_prefix() {
        let mut sum = vec![1i64; 11];
        fold_parts_i64(&mut sum, &[(&pack(&[2; 4]), 0), (&pack(&[3; 11]), 0)]);
        assert_eq!(sum[0], 6);
        assert_eq!(sum[5], 4);
        assert_eq!(sum[10], 4, "the odd last word's low half");
    }

    #[test]
    fn short_parts_only_touch_their_prefix() {
        let mut fast = vec![1.0; 10];
        let mut refr = vec![1.0; 10];
        let short = vec![2.0; 4];
        let full = vec![3.0; 10];
        fold_parts(&mut fast, &[&short, &full]);
        fold_parts_reference(&mut refr, &[&short, &full]);
        assert_eq!(fast, refr);
        assert_eq!(fast[0], 6.0);
        assert_eq!(fast[5], 4.0);
    }

    /// What `fold_grid_stripe` promises, computed the slow way: each
    /// contribution brought onto `grid` on its own in 128-bit
    /// arithmetic — exactly when coarser, rounded half away from zero
    /// when finer — then summed.
    fn aligned_sum(parts: &[(&[i32], u8)], grid: u8, i: usize) -> i128 {
        parts
            .iter()
            .map(|&(values, scale_exp)| {
                let q = i128::from(values[i]);
                if scale_exp <= grid {
                    q << (grid - scale_exp)
                } else {
                    let down = scale_exp - grid;
                    ((q.abs() + (1 << (down - 1))) >> down) * q.signum()
                }
            })
            .sum()
    }

    #[test]
    fn grid_stripes_align_by_shift_until_i64_runs_out() {
        let extremes = [i32::MAX, -i32::MAX, i32::MIN, 1, -1, 0, 3, -3, 1 << 30, -(1 << 30) - 1];
        let rotated = |by: usize| -> Vec<i32> {
            (0..extremes.len()).map(|i| extremes[(i + by) % extremes.len()]).collect()
        };
        let (a, b, c) = (rotated(0), rotated(3), rotated(7));
        let carried = [pack(&a), pack(&b), pack(&c)];
        // (exponents, the grid the sums must land on)
        let cases: [(&[u8], u8); 9] = [
            (&[20, 20, 20], 20), // one grid: the fused fold as is
            (&[20, 18, 9], 20),  // aligned to the finest
            (&[0, 31], 31),      // 2 parts: 31 + 31 + 1 = 63, the last exact spread
            (&[0, 32], 31),      // one past it: the finer part is rounded one bit
            (&[31, 62], 62),
            (&[0, 62], 31),     // as far apart as the codec allows
            (&[0, 30, 30], 30), // 3 parts cost two bits: 31 + 30 + 2
            (&[0, 31, 31], 30),
            (&[7], 7),
        ];
        for (exps, grid) in cases {
            let parts: Vec<(&[i32], u8)> =
                [&a, &b, &c].into_iter().map(Vec::as_slice).zip(exps.iter().copied()).collect();
            let packed: Vec<(&[f64], u8)> =
                carried.iter().map(Vec::as_slice).zip(exps.iter().copied()).collect();
            let mut acc = vec![i64::MIN; extremes.len()]; // stale sums must not leak
            assert_eq!(fold_grid_stripe(&mut acc, &packed), grid, "{exps:?}");
            for (i, &sum) in acc.iter().enumerate() {
                assert_eq!(i128::from(sum), aligned_sum(&parts, grid, i), "{exps:?} word {i}");
            }
            // Order-independent, rounding included.
            let mut reversed = packed.clone();
            reversed.reverse();
            let mut again = vec![0; extremes.len()];
            assert_eq!(fold_grid_stripe(&mut again, &reversed), grid);
            assert_eq!(again, acc, "{exps:?}");
        }
        // The worst case the headroom is sized for: a power-of-two
        // number of peers, every word `i32::MIN`, the widest exact shift.
        let floor = [i32::MIN; 3];
        let parts = [(&floor[..], 0u8), (&floor[..], 0), (&floor[..], 0), (&floor[..], 30)];
        let carried = pack(&floor);
        let mut acc = [0i64; 3];
        assert_eq!(fold_grid_stripe(&mut acc, &parts.map(|(_, exp)| (&carried[..], exp))), 30);
        assert_eq!(i128::from(acc[2]), aligned_sum(&parts, 30, 2), "the odd last word");
        // No contributions: zeros, on any grid.
        assert_eq!(fold_grid_stripe(&mut acc, &[]), 0);
        assert_eq!(acc, [0; 3]);
    }
}
