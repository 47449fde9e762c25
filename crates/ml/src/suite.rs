//! The 10-benchmark evaluation suite of Table 1.
//!
//! Each benchmark records the *published* characteristics (model topology,
//! dataset size, programmer lines of code) and can instantiate a synthetic
//! workload with the same shape — at full size for the performance models,
//! or scaled down for functional training and unit tests.

use std::fmt;

use crate::algorithm::Algorithm;

/// Fixed-point word size of the accelerator datapath, in bytes.
pub const WORD_BYTES: usize = 4;

/// Default global mini-batch size used throughout the evaluation
/// (paper §7.2: "We use 10,000 as the default mini-batch size").
pub const DEFAULT_MINIBATCH: usize = 10_000;

/// Identifies one of the ten benchmarks of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum BenchmarkId {
    Mnist,
    Acoustic,
    Stock,
    Texture,
    Tumor,
    Cancer1,
    Movielens,
    Netflix,
    Face,
    Cancer2,
}

impl BenchmarkId {
    /// All ten benchmarks in Table 1 order.
    pub fn all() -> [BenchmarkId; 10] {
        use BenchmarkId::*;
        [Mnist, Acoustic, Stock, Texture, Tumor, Cancer1, Movielens, Netflix, Face, Cancer2]
    }

    /// The benchmark's published characteristics and synthetic generator.
    pub fn benchmark(self) -> Benchmark {
        Benchmark::get(self)
    }

    /// Lower-case name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Mnist => "mnist",
            BenchmarkId::Acoustic => "acoustic",
            BenchmarkId::Stock => "stock",
            BenchmarkId::Texture => "texture",
            BenchmarkId::Tumor => "tumor",
            BenchmarkId::Cancer1 => "cancer1",
            BenchmarkId::Movielens => "movielens",
            BenchmarkId::Netflix => "netflix",
            BenchmarkId::Face => "face",
            BenchmarkId::Cancer2 => "cancer2",
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of Table 1: published metadata plus synthetic instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Which benchmark.
    pub id: BenchmarkId,
    /// Application domain as listed in Table 1.
    pub domain: &'static str,
    /// One-line description from Table 1.
    pub description: &'static str,
    /// The full-size algorithm instance.
    pub algorithm: Algorithm,
    /// "# of Features" column.
    pub features: usize,
    /// "Model Topology" column (verbatim).
    pub topology: &'static str,
    /// "Model Size (KB)" column.
    pub model_kb: usize,
    /// "Lines of Code" column — what the programmer writes in the DSL.
    pub lines_of_code: usize,
    /// "# Input Vectors" column.
    pub input_vectors: usize,
    /// "Input Data Size (GB)" column.
    pub input_gb: f64,
}

impl Benchmark {
    /// The published row for a benchmark id.
    pub(crate) fn get(id: BenchmarkId) -> Benchmark {
        use BenchmarkId::*;
        match id {
            Mnist => Benchmark {
                id,
                domain: "Image Processing",
                description: "Handwritten digit pattern recognition",
                algorithm: Algorithm::Backprop { inputs: 784, hidden: 784, outputs: 10 },
                features: 784,
                topology: "784x784x10",
                model_kb: 2432,
                lines_of_code: 55,
                input_vectors: 60_000,
                input_gb: 0.4,
            },
            Acoustic => Benchmark {
                id,
                domain: "Audio Processing",
                description: "Hierarchical acoustic modeling for speech recognition",
                algorithm: Algorithm::Backprop { inputs: 351, hidden: 1000, outputs: 40 },
                features: 351,
                topology: "351x1,000x40",
                model_kb: 1527,
                lines_of_code: 55,
                input_vectors: 942_626,
                input_gb: 5.6,
            },
            Stock => Benchmark {
                id,
                domain: "Finance",
                description: "Stock price prediction",
                algorithm: Algorithm::LinearRegression { features: 8_000 },
                features: 8_000,
                topology: "8,000",
                model_kb: 31,
                lines_of_code: 23,
                input_vectors: 130_503,
                input_gb: 14.7,
            },
            Texture => Benchmark {
                id,
                domain: "Image Processing",
                description: "Image texture recognition",
                algorithm: Algorithm::LinearRegression { features: 16_384 },
                features: 16_384,
                topology: "16,384",
                model_kb: 64,
                lines_of_code: 23,
                input_vectors: 77_461,
                input_gb: 17.9,
            },
            Tumor => Benchmark {
                id,
                domain: "Medical Diagnosis",
                description: "Tumor classification using gene expression microarray",
                algorithm: Algorithm::LogisticRegression { features: 2_000 },
                features: 2_000,
                topology: "2,000",
                model_kb: 8,
                lines_of_code: 22,
                input_vectors: 387_944,
                input_gb: 10.4,
            },
            Cancer1 => Benchmark {
                id,
                domain: "Medical Diagnosis",
                description: "Prostate cancer diagnosis based on the gene expressions",
                algorithm: Algorithm::LogisticRegression { features: 6_033 },
                features: 6_033,
                topology: "6,033",
                model_kb: 24,
                lines_of_code: 22,
                input_vectors: 167_219,
                input_gb: 13.5,
            },
            Movielens => Benchmark {
                id,
                domain: "Recommender System",
                description: "Movielens recommender system",
                algorithm: Algorithm::CollabFilter { users: 10_034, items: 20_067, factors: 10 },
                features: 30_101,
                topology: "301,010",
                model_kb: 1176,
                lines_of_code: 42,
                input_vectors: 24_404_096,
                input_gb: 0.6,
            },
            Netflix => Benchmark {
                id,
                domain: "Recommender System",
                description: "Netflix recommender system",
                algorithm: Algorithm::CollabFilter { users: 24_355, items: 48_711, factors: 10 },
                features: 73_066,
                topology: "730,660",
                model_kb: 2854,
                lines_of_code: 42,
                input_vectors: 100_498_287,
                input_gb: 2.0,
            },
            Face => Benchmark {
                id,
                domain: "Computer Vision",
                description: "Human face detection",
                algorithm: Algorithm::Svm { features: 1_740 },
                features: 1_740,
                topology: "1,740",
                model_kb: 7,
                lines_of_code: 27,
                input_vectors: 678_392,
                input_gb: 15.9,
            },
            Cancer2 => Benchmark {
                id,
                domain: "Medical Diagnosis",
                description: "Cancer diagnosis based on the gene expressions",
                algorithm: Algorithm::Svm { features: 7_129 },
                features: 7_129,
                topology: "7,129",
                model_kb: 28,
                lines_of_code: 27,
                input_vectors: 208_444,
                input_gb: 20.0,
            },
        }
    }

    /// A shape-preserving scaled-down instance for functional runs and
    /// tests: every dimension is multiplied by `scale` with a floor of 2.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn algorithm_scaled(&self, scale: f64) -> Algorithm {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let s = |d: usize| ((d as f64 * scale).round() as usize).max(2);
        match self.algorithm {
            Algorithm::LinearRegression { features } => {
                Algorithm::LinearRegression { features: s(features) }
            }
            Algorithm::LogisticRegression { features } => {
                Algorithm::LogisticRegression { features: s(features) }
            }
            Algorithm::Svm { features } => Algorithm::Svm { features: s(features) },
            Algorithm::Backprop { inputs, hidden, outputs } => {
                Algorithm::Backprop { inputs: s(inputs), hidden: s(hidden), outputs: s(outputs) }
            }
            Algorithm::CollabFilter { users, items, factors } => Algorithm::CollabFilter {
                users: s(users),
                items: s(items),
                factors, // latent dimensionality is part of the algorithm
            },
        }
    }

    /// Bytes per training record at the accelerator word size.
    pub fn bytes_per_record(&self) -> usize {
        self.algorithm.record_len() * WORD_BYTES
    }

    /// Analytic floating-point operations per gradient computation plus
    /// model update, at full size. Matches the DFG operation count to
    /// within the reduction-tree rounding.
    pub fn flops_per_record(&self) -> u64 {
        flops_per_record(&self.algorithm)
    }

    /// Model parameters at full size.
    pub(crate) fn model_params(&self) -> usize {
        self.algorithm.model_len()
    }

    /// Model bytes at the accelerator word size (should approximate the
    /// published "Model Size (KB)" column).
    pub fn model_bytes(&self) -> usize {
        self.model_params() * WORD_BYTES
    }

    /// Parameters the aggregation step must exchange per worker. Dense
    /// models exchange everything; collaborative filtering exchanges the
    /// touched latent slices, bounded by the full factor matrices.
    pub fn exchanged_params(&self, minibatch_per_node: usize) -> usize {
        match self.algorithm {
            Algorithm::CollabFilter { factors, .. } => {
                // Each record touches 2 latent vectors; exchanges are
                // bounded by the full model.
                (2 * factors * minibatch_per_node).min(self.model_params())
            }
            _ => self.model_params(),
        }
    }
}

/// Analytic per-record gradient + update flop count for an algorithm
/// instance (1 flop per ALU op; non-linears counted once — the baseline
/// models apply their own non-linear weighting).
pub(crate) fn flops_per_record(alg: &Algorithm) -> u64 {
    let n;
    match *alg {
        Algorithm::LinearRegression { features } | Algorithm::Svm { features } => {
            // dot 2n, error/compare ~2, gradient n, update 2n.
            n = features as u64;
            5 * n + 2
        }
        Algorithm::LogisticRegression { features } => {
            n = features as u64;
            5 * n + 3
        }
        Algorithm::Backprop { inputs, hidden, outputs } => {
            let (ni, nh, no) = (inputs as u64, hidden as u64, outputs as u64);
            // forward: 2·(ni·nh + nh·no) + nonlinears
            // backward deltas: 3no + 2·nh·no + 3nh
            // weight gradients: ni·nh + nh·no
            // updates: 2·(ni·nh + nh·no)
            5 * (ni * nh + nh * no) + 3 * (nh + no) + 2 * nh * no
        }
        Algorithm::CollabFilter { factors, .. } => {
            let k = factors as u64;
            // dot 2k, error 1, two gradients 4k each (mul+mul+add per side),
            // updates 4k.
            14 * k + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_benchmarks_present() {
        assert_eq!(BenchmarkId::all().len(), 10);
        let names: Vec<&str> = BenchmarkId::all().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "mnist",
                "acoustic",
                "stock",
                "texture",
                "tumor",
                "cancer1",
                "movielens",
                "netflix",
                "face",
                "cancer2"
            ]
        );
    }

    #[test]
    fn model_sizes_approximate_table1() {
        // Our 4-byte-word model sizes should land within 15% of the
        // published "Model Size (KB)" column.
        for id in BenchmarkId::all() {
            let b = id.benchmark();
            let kb = b.model_bytes() as f64 / 1024.0;
            let published = b.model_kb as f64;
            let ratio = kb / published;
            assert!((0.85..=1.15).contains(&ratio), "{id}: {kb:.0} KB vs published {published} KB");
        }
    }

    #[test]
    fn features_column_matches_algorithm() {
        for id in BenchmarkId::all() {
            let b = id.benchmark();
            match b.algorithm {
                Algorithm::LinearRegression { features }
                | Algorithm::LogisticRegression { features }
                | Algorithm::Svm { features } => assert_eq!(features, b.features, "{id}"),
                Algorithm::Backprop { inputs, .. } => assert_eq!(inputs, b.features, "{id}"),
                Algorithm::CollabFilter { users, items, .. } => {
                    assert_eq!(users + items, b.features, "{id}")
                }
            }
        }
    }

    #[test]
    fn scaling_preserves_shape_and_floors_at_two() {
        let b = BenchmarkId::Mnist.benchmark();
        let tiny = b.algorithm_scaled(0.001);
        match tiny {
            Algorithm::Backprop { inputs, hidden, outputs } => {
                assert_eq!(inputs, 2);
                assert_eq!(hidden, 2);
                assert_eq!(outputs, 2);
            }
            _ => panic!("family must be preserved"),
        }
        let full = b.algorithm_scaled(1.0);
        assert_eq!(full, b.algorithm);
    }

    #[test]
    fn flops_are_dominated_by_compute_heavy_benchmarks() {
        let mnist = BenchmarkId::Mnist.benchmark();
        let stock = BenchmarkId::Stock.benchmark();
        // mnist does ~3M flops per 3KB record; stock ~40K per 32KB record.
        assert!(mnist.flops_per_record() > 50 * stock.flops_per_record());
        // flops-per-byte separates compute-bound from bandwidth-bound.
        let fpb = |b: &Benchmark| b.flops_per_record() as f64 / b.bytes_per_record() as f64;
        assert!(fpb(&mnist) > 100.0 * fpb(&stock));
    }

    #[test]
    fn cf_exchange_is_bounded_by_model() {
        let b = BenchmarkId::Movielens.benchmark();
        assert_eq!(b.exchanged_params(10), 200);
        assert_eq!(b.exchanged_params(10_000_000), b.model_params());
    }

    #[test]
    fn loc_matches_published_range() {
        for id in BenchmarkId::all() {
            let loc = id.benchmark().lines_of_code;
            assert!((22..=55).contains(&loc), "{id}");
        }
    }
}
