//! The training kernels' fast forms against their plain statements, bit
//! for bit, on random records and models of all five families.
//!
//! - `Algorithm::sgd_update` updates the model in one pass. Its
//!   reference is the two-pass step kept here: the record's gradient
//!   accumulated into a zeroed buffer, then `w -= lr * g` (for
//!   collaborative filtering, its unchanged sparse step).
//! - `sgd::mean_loss` interleaves four records' dot products. Its
//!   reference is the serial `map(loss).sum()`, divided by the length.
//!
//! Models carry `-0.0` words, SVM records land on both sides of the
//! margin, and the learning rate is drawn positive, zero or negative.

use cosmic_ml::data::Dataset;
use cosmic_ml::{sgd, Algorithm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 300;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random member of every family, small enough to run many cases.
fn families(rng: &mut StdRng) -> [Algorithm; 5] {
    let features = rng.gen_range(1..40);
    [
        Algorithm::LinearRegression { features },
        Algorithm::LogisticRegression { features },
        Algorithm::Svm { features },
        Algorithm::Backprop {
            inputs: rng.gen_range(1..9),
            hidden: rng.gen_range(1..7),
            outputs: rng.gen_range(1..4),
        },
        Algorithm::CollabFilter {
            users: rng.gen_range(1..5),
            items: rng.gen_range(1..5),
            factors: rng.gen_range(1..6),
        },
    ]
}

/// A random weight: a fifth of them signed zeros.
fn weight(rng: &mut StdRng, scale: f64) -> f64 {
    match rng.gen_range(0..10) {
        0 => -0.0,
        1 => 0.0,
        _ => rng.gen_range(-1.0..1.0) * scale,
    }
}

fn model(alg: &Algorithm, rng: &mut StdRng) -> Vec<f64> {
    // A large scale puts most SVM records past the margin, a small one
    // inside it.
    let scale = if rng.gen_bool(0.5) { 4.0 } else { 0.05 };
    (0..alg.model_len()).map(|_| weight(rng, scale)).collect()
}

fn record(alg: &Algorithm, rng: &mut StdRng) -> Vec<f64> {
    match *alg {
        Algorithm::LinearRegression { features } => {
            let mut r: Vec<f64> = (0..=features).map(|_| weight(rng, 2.0)).collect();
            r[features] = rng.gen_range(-3.0..3.0);
            r
        }
        Algorithm::LogisticRegression { features } => {
            let mut r: Vec<f64> = (0..=features).map(|_| weight(rng, 2.0)).collect();
            r[features] = f64::from(u8::from(rng.gen_bool(0.5)));
            r
        }
        Algorithm::Svm { features } => {
            let mut r: Vec<f64> = (0..=features).map(|_| weight(rng, 2.0)).collect();
            r[features] = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            r
        }
        Algorithm::Backprop { inputs, outputs, .. } => {
            let mut r: Vec<f64> = (0..inputs).map(|_| weight(rng, 2.0)).collect();
            r.extend((0..outputs).map(|_| rng.gen_range(0.0..1.0)));
            r
        }
        Algorithm::CollabFilter { users, items, .. } => {
            let (u, v) = (rng.gen_range(0..users), users + rng.gen_range(0..items));
            vec![rng.gen_range(-1.0..1.0), u as f64, v as f64]
        }
    }
}

/// The step as it was written before it was fused: the two-pass form
/// (a zeroed gradient, the record accumulated into it, then `w -= lr *
/// g` over the whole model), except for collaborative filtering, whose
/// sparse step touches only its two latent rows and is kept as it was.
fn two_pass_step(alg: &Algorithm, record: &[f64], model: &mut [f64], lr: f64) {
    if let Algorithm::CollabFilter { factors, .. } = *alg {
        let (r, ub, vb) = (record[0], record[1] as usize * factors, record[2] as usize * factors);
        let e = {
            let (mu, mv) = (&model[ub..ub + factors], &model[vb..vb + factors]);
            mu.iter().zip(mv).map(|(a, b)| a * b).sum::<f64>() - r
        };
        for f in 0..factors {
            let (mu, mv) = (model[ub + f], model[vb + f]);
            model[ub + f] -= lr * (e * mv + 0.01 * mu);
            model[vb + f] -= lr * (e * mu + 0.01 * mv);
        }
        return;
    }
    let mut grad = alg.zero_model();
    alg.accumulate_gradient(record, model, &mut grad);
    for (w, g) in model.iter_mut().zip(&grad) {
        *w -= lr * g;
    }
}

#[test]
fn the_one_pass_step_is_the_two_pass_step_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0043);
    let (mut margin_met, mut margin_unmet) = (0, 0);
    for case in 0..CASES {
        for alg in families(&mut rng) {
            let lr = match case % 4 {
                0 => 0.0,
                1 => -rng.gen_range(0.0..0.5),
                _ => rng.gen_range(0.0..0.5),
            };
            let mut fused = model(&alg, &mut rng);
            let mut reference = fused.clone();
            // A few steps in a row, so later ones start from stepped weights.
            for step in 0..4 {
                let r = record(&alg, &mut rng);
                if let Algorithm::Svm { features } = alg {
                    let dot: f64 = reference.iter().zip(&r[..features]).map(|(w, x)| w * x).sum();
                    if r[features] * dot < 1.0 {
                        margin_unmet += 1;
                    } else {
                        margin_met += 1;
                    }
                }
                alg.sgd_update(&r, &mut fused, lr);
                two_pass_step(&alg, &r, &mut reference, lr);
                assert_eq!(
                    bits(&fused),
                    bits(&reference),
                    "{alg}, case {case}, step {step}, lr {lr}"
                );
            }
        }
    }
    assert!(margin_met > 100 && margin_unmet > 100, "SVM met {margin_met}, unmet {margin_unmet}");
}

#[test]
fn the_four_record_loss_pass_is_the_serial_sum_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x1055_0043);
    for case in 0..CASES / 10 {
        for alg in families(&mut rng) {
            let model = model(&alg, &mut rng);
            for len in (0..=9).chain([4 * 7 + 3]) {
                let records: Vec<Vec<f64>> = (0..len).map(|_| record(&alg, &mut rng)).collect();
                let serial = if records.is_empty() {
                    0.0
                } else {
                    records.iter().map(|r| alg.loss(r, &model)).sum::<f64>() / len as f64
                };
                let pass = sgd::mean_loss(&alg, &Dataset::from_records(records), &model);
                assert_eq!(pass.to_bits(), serial.to_bits(), "{alg}, case {case}, {len} records");
            }
        }
    }
}
