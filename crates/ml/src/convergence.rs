//! Convergence under lossy wire representations: what fixed-point
//! quantization and top-k sparsification at the aggregation boundary do
//! to the loss curves of parallelized SGD.
//!
//! Distributed training pays for every aggregation round in wire bytes;
//! [`WireRepr::FixedPoint`] and [`WireRepr::TopK`] shrink the payload
//! at the cost of perturbing each worker's contribution. This module
//! runs the same workload under every representation — the contribution
//! transform of `sgd::train_parallel_with` is exactly the codec's
//! encode→decode round trip — so the curves isolate the *statistical*
//! cost of compression from its (separately modelled) wire savings.
//!
//! [`WireRepr::DenseF64`] runs the verbatim [`sgd::train_parallel`]
//! path: its curve is bit-identical to uncompressed training, not
//! merely close.

use cosmic_collectives::codec::{CodecStats, WireRepr};

use crate::data::{self, Dataset};
use crate::sgd::{self, TrainConfig, TrainResult};
use crate::{Aggregation, Algorithm};

/// One workload of the representation-convergence study.
pub struct Workload {
    /// Short name used in report rows.
    pub name: &'static str,
    /// The algorithm family trained.
    pub alg: Algorithm,
    /// Seeded synthetic dataset.
    pub dataset: Dataset,
    /// Training configuration (workers, epochs, mini-batch).
    pub config: TrainConfig,
    /// Deterministic model-initialization seed.
    pub init_seed: u64,
}

/// The loss curve one representation produced on one workload.
pub struct ReprCurve {
    /// The wire representation the contributions travelled under.
    pub repr: WireRepr,
    /// Mean dataset loss before each epoch and after the last.
    pub loss_history: Vec<f64>,
    /// Codec totals over every aggregation step (all zeros for the
    /// dense representation, which never enters the codec).
    pub stats: CodecStats,
}

/// Trains `alg` with each worker contribution round-tripped through
/// `repr` at every aggregation step, returning the result and the
/// accumulated codec statistics. The dense representation takes the
/// untransformed [`sgd::train_parallel`] path.
pub(crate) fn train_with_repr(
    alg: &Algorithm,
    dataset: &Dataset,
    initial_model: Vec<f64>,
    config: &TrainConfig,
    repr: WireRepr,
) -> (TrainResult, CodecStats) {
    if repr == WireRepr::DenseF64 {
        return (sgd::train_parallel(alg, dataset, initial_model, config), CodecStats::default());
    }
    let mut stats = CodecStats::default();
    let result = sgd::train_parallel_with(alg, dataset, initial_model, config, &mut |part| {
        let (out, s) = repr.transform(&part);
        stats.merge(&s);
        out
    });
    (result, stats)
}

/// The default representation sweep: dense reference, a 20-bit
/// fixed-point grid, and top-k keeping a quarter of the coordinates of
/// the study workloads' models.
pub fn default_reprs() -> [WireRepr; 3] {
    [WireRepr::DenseF64, WireRepr::FixedPoint { frac_bits: 20 }, WireRepr::TopK { k: 16 }]
}

/// The two study workloads: a bandwidth-friendly linear regression and
/// a logistic regression, both trained by four-worker averaged SGD on
/// seeded synthetic data.
pub fn study_workloads() -> Vec<Workload> {
    let config = TrainConfig {
        learning_rate: 0.2,
        epochs: 6,
        minibatch: 120,
        workers: 4,
        aggregation: Aggregation::Average,
    };
    let linreg = Algorithm::LinearRegression { features: 64 };
    let logreg = Algorithm::LogisticRegression { features: 64 };
    vec![
        Workload {
            name: "linreg-64",
            dataset: data::generate(&linreg, 600, 21),
            alg: linreg,
            config: config.clone(),
            init_seed: 3,
        },
        Workload {
            name: "logreg-64",
            dataset: data::generate(&logreg, 600, 22),
            alg: logreg,
            config,
            init_seed: 3,
        },
    ]
}

/// Runs one workload under every representation in `reprs`, in order.
pub fn repr_curves(workload: &Workload, reprs: &[WireRepr]) -> Vec<ReprCurve> {
    let init = data::init_model(&workload.alg, workload.init_seed);
    reprs
        .iter()
        .map(|&repr| {
            let (result, stats) = train_with_repr(
                &workload.alg,
                &workload.dataset,
                init.clone(),
                &workload.config,
                repr,
            );
            ReprCurve { repr, loss_history: result.loss_history, stats }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_curve_is_bit_identical_to_uncompressed_training() {
        for w in study_workloads() {
            let init = data::init_model(&w.alg, w.init_seed);
            let reference = sgd::train_parallel(&w.alg, &w.dataset, init.clone(), &w.config);
            let (dense, stats) =
                train_with_repr(&w.alg, &w.dataset, init, &w.config, WireRepr::DenseF64);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dense.model), bits(&reference.model), "{}", w.name);
            assert_eq!(bits(&dense.loss_history), bits(&reference.loss_history), "{}", w.name);
            assert_eq!(stats, CodecStats::default(), "dense never enters the codec");
        }
    }

    #[test]
    fn lossy_reprs_still_converge_on_every_study_workload() {
        for w in study_workloads() {
            for curve in repr_curves(&w, &default_reprs()) {
                let first = curve.loss_history[0];
                let last = *curve.loss_history.last().expect("non-empty history");
                assert!(
                    last < first,
                    "{} under {}: loss {first} -> {last} must decrease",
                    w.name,
                    curve.repr.label(),
                );
                if curve.repr != WireRepr::DenseF64 {
                    assert!(curve.stats.dense_bytes > 0, "lossy curves book codec traffic");
                }
            }
        }
    }

    #[test]
    fn lossy_curves_are_deterministic() {
        let w = &study_workloads()[0];
        let repr = WireRepr::FixedPoint { frac_bits: 20 };
        let run = || {
            let curves = repr_curves(w, &[repr]);
            curves[0].loss_history.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn identity_transform_matches_parallel_step_bitwise_for_average() {
        let alg = Algorithm::Svm { features: 8 };
        let ds = data::generate(&alg, 64, 9);
        let shards = ds.partition(4);
        let batches: Vec<&[Vec<f64>]> = shards.iter().map(|s| s.records()).collect();

        let mut plain = data::init_model(&alg, 1);
        let mut with = plain.clone();
        sgd::parallel_step(&alg, &batches, &mut plain, 0.1, Aggregation::Average);
        sgd::parallel_step_with(&alg, &batches, &mut with, 0.1, Aggregation::Average, &mut |p| p);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&with));
    }
}
