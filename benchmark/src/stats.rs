//! Order statistics for timed units.
//!
//! No workload has the ≥ 100 units a p90 needs, so every timing metric
//! is gated on its median and printed with `n`, quartiles, min and
//! max. The direct layer rungs that do make 100+ calls (transport
//! rounds) also report a p95.

/// Linear-interpolation quantile of `sorted` (ascending), `q` in
/// `[0, 1]`. Empty input yields 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `n`, min, quartiles and max of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: quantile(&sorted, 0.0),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: quantile(&sorted, 1.0),
        }
    }

    /// A single measured value (peak RSS, an exact count).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Inter-quartile spread as a share of the median (0 when the
    /// median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// 95th percentile of `samples`; only meaningful with ≥ 100 of them.
pub fn p95(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn summary_orders_unsorted_samples() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
        assert!((s.iqr_share() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::single(9.0).iqr_share(), 0.0);
    }

    #[test]
    fn p95_sits_near_the_top() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(p95(&samples), 96.0);
        assert_eq!(median(&samples), 51.0);
    }
}
