//! Schedule-quality statistics: percentiles and Jain's fairness index.

/// Nearest-rank percentile of an unsorted sample; `p` in `[0, 100]`.
/// Empty samples return 0.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over a non-negative sample:
/// 1.0 means perfectly equal shares, `1/n` means one job took
/// everything. Empty or all-zero samples return 1.0 (vacuously fair).
pub(crate) fn jain_index(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[3.0, 3.0, 3.0]), 1.0);
        let skew = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }
}
