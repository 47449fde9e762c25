//! The five algorithm families of the paper's evaluation.

use std::fmt;

/// How partial gradients/models from parallel workers are combined
/// (paper Eq. 3); mirrors `cosmic_dsl::AggregatorOp` without depending on
/// the DSL crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggregation {
    /// Average worker models (parallelized SGD, Zinkevich et al.).
    #[default]
    Average,
    /// Sum worker gradients (batched gradient descent).
    Sum,
}

/// A supervised learning algorithm trained by (parallel) stochastic
/// gradient descent.
///
/// Records are flat `f64` vectors whose layout matches the DSL lowering:
/// input features followed by expected outputs. Collaborative filtering is
/// the exception — its record is `[rating, user_index, item_index]`, and
/// the latent slices involved are *gathered* from the model before the
/// per-sample dataflow graph runs (see [`Algorithm::gather_model_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Least-squares linear regression over `features` inputs.
    LinearRegression {
        /// Number of input features (= model parameters).
        features: usize,
    },
    /// Logistic regression over `features` inputs, labels in `{0, 1}`.
    LogisticRegression {
        /// Number of input features (= model parameters).
        features: usize,
    },
    /// Hinge-loss support vector machine, labels in `{-1, +1}`.
    Svm {
        /// Number of input features (= model parameters).
        features: usize,
    },
    /// Two-layer perceptron with sigmoid activations and squared error.
    Backprop {
        /// Input features.
        inputs: usize,
        /// Hidden units.
        hidden: usize,
        /// Output units.
        outputs: usize,
    },
    /// Matrix-factorization collaborative filtering with L2 regularization
    /// (`λ = 0.01`, matching the built-in DSL program).
    CollabFilter {
        /// Total entities: users + items. Users occupy entity indices
        /// `0..users`; items occupy the rest.
        users: usize,
        /// Item count.
        items: usize,
        /// Latent factors per entity.
        factors: usize,
    },
}

/// L2 coefficient used by the collaborative-filtering gradient; must match
/// the constant in `cosmic_dsl::programs::collaborative_filtering`.
pub(crate) const CF_LAMBDA: f64 = 0.01;

impl Algorithm {
    /// Length of one training record (inputs + expected outputs; for
    /// collaborative filtering: rating + two entity indices).
    pub fn record_len(&self) -> usize {
        match *self {
            Algorithm::LinearRegression { features }
            | Algorithm::LogisticRegression { features }
            | Algorithm::Svm { features } => features + 1,
            Algorithm::Backprop { inputs, outputs, .. } => inputs + outputs,
            Algorithm::CollabFilter { .. } => 3,
        }
    }

    /// Length of the full flattened model vector.
    pub fn model_len(&self) -> usize {
        match *self {
            Algorithm::LinearRegression { features }
            | Algorithm::LogisticRegression { features }
            | Algorithm::Svm { features } => features,
            Algorithm::Backprop { inputs, hidden, outputs } => hidden * inputs + outputs * hidden,
            Algorithm::CollabFilter { users, items, factors } => (users + items) * factors,
        }
    }

    /// A zero-initialized model of the right length.
    pub fn zero_model(&self) -> Vec<f64> {
        vec![0.0; self.model_len()]
    }

    /// Loss of one record under the current model. Training minimizes the
    /// dataset sum of this quantity.
    pub fn loss(&self, record: &[f64], model: &[f64]) -> f64 {
        debug_assert_eq!(record.len(), self.record_len());
        match *self {
            Algorithm::LinearRegression { features }
            | Algorithm::LogisticRegression { features }
            | Algorithm::Svm { features } => {
                self.loss_of_dot(dot(&model[..features], &record[..features]), record[features])
            }
            Algorithm::Backprop { inputs, hidden, outputs } => {
                let fw = forward(record, model, inputs, hidden, outputs);
                (0..outputs)
                    .map(|k| {
                        let e = fw.prediction[k] - record[inputs + k];
                        0.5 * e * e
                    })
                    .sum()
            }
            Algorithm::CollabFilter { factors, .. } => {
                let (r, u, v) = cf_record(record);
                let mu = &model[u * factors..(u + 1) * factors];
                let mv = &model[v * factors..(v + 1) * factors];
                let e = dot(mu, mv) - r;
                0.5 * e * e + 0.5 * CF_LAMBDA * (dot(mu, mu) + dot(mv, mv))
            }
        }
    }

    /// The feature count of a linear family (linreg, logreg, SVM): its
    /// record is `features` inputs and a label, and its loss and
    /// gradient see the model only through their dot product.
    pub(crate) fn linear_features(&self) -> Option<usize> {
        match *self {
            Algorithm::LinearRegression { features }
            | Algorithm::LogisticRegression { features }
            | Algorithm::Svm { features } => Some(features),
            _ => None,
        }
    }

    /// A linear family's loss of a record labelled `y` whose inputs dot
    /// the model to `dot`: the one statement of each family's loss,
    /// shared by [`Algorithm::loss`] and `sgd::mean_loss`'s four-record
    /// pass.
    pub(crate) fn loss_of_dot(&self, dot: f64, y: f64) -> f64 {
        match self {
            Algorithm::LinearRegression { .. } => {
                let e = dot - y;
                0.5 * e * e
            }
            Algorithm::LogisticRegression { .. } => {
                let p = sigmoid(dot).clamp(1e-12, 1.0 - 1e-12);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            }
            Algorithm::Svm { .. } => (1.0 - y * dot).max(0.0),
            _ => unreachable!("{self} is not a linear family"),
        }
    }

    /// A linear family's gradient of a record with inputs `x` and label
    /// `y` is `term · x`. This is the `term`, from `model` as it is, or
    /// `None` where the gradient is zero: an SVM record whose margin is
    /// met.
    fn linear_term(&self, x: &[f64], y: f64, model: &[f64]) -> Option<f64> {
        let dot = dot(&model[..x.len()], x);
        match self {
            Algorithm::LinearRegression { .. } => Some(dot - y),
            Algorithm::LogisticRegression { .. } => Some(sigmoid(dot) - y),
            Algorithm::Svm { .. } => (y * dot < 1.0).then_some(-y),
            _ => unreachable!("{self} is not a linear family"),
        }
    }

    /// Applies one in-place SGD step for a single record (paper Eq. 2):
    /// `θ ← θ − μ·∂f/∂θ`, in one pass over the weights, and without
    /// allocating for the linear families. Only the touched parameters
    /// are updated, which matters for the sparse collaborative-filtering
    /// update.
    ///
    /// The operations are those of the record's gradient accumulated
    /// into a zeroed buffer ([`Algorithm::accumulate_gradient`]) and
    /// then applied, so the bits are too. Every gradient term comes from
    /// the model as it was before the step (the linear families' error
    /// term; backprop's forward pass and both layers' deltas), and each
    /// weight then becomes `w − μ·(0.0 + g)`: the `0.0 +` is the zeroed
    /// accumulator's first add, which turns a `-0.0` term into `+0.0`.
    /// An SVM record whose margin is met has a zero gradient, and
    /// `w − μ·(+0.0)` is `w` for every `w`, `-0.0` included, whenever
    /// `μ·(+0.0)` is `+0.0` (any finite non-negative `μ`), so that step
    /// is skipped; any other `μ` still takes it. Collaborative filtering
    /// updates each factor pair of its two latent rows from their old
    /// values.
    pub fn sgd_update(&self, record: &[f64], model: &mut [f64], learning_rate: f64) {
        match *self {
            Algorithm::LinearRegression { features }
            | Algorithm::LogisticRegression { features }
            | Algorithm::Svm { features } => {
                let (x, y) = (&record[..features], record[features]);
                let w = &mut model[..features];
                match self.linear_term(x, y, w) {
                    Some(term) => {
                        for (w, &x) in w.iter_mut().zip(x) {
                            *w -= learning_rate * (0.0 + term * x);
                        }
                    }
                    None => {
                        let zero_step = learning_rate * 0.0;
                        if zero_step.to_bits() != 0 {
                            w.iter_mut().for_each(|w| *w -= zero_step);
                        }
                    }
                }
            }
            Algorithm::Backprop { inputs, hidden, outputs } => {
                let deltas = backprop_deltas(record, model, inputs, hidden, outputs);
                let (w1, w2) = model.split_at_mut(hidden * inputs);
                for (row, &d1) in w1.chunks_exact_mut(inputs).zip(&deltas.hidden) {
                    for (w, &x) in row.iter_mut().zip(&record[..inputs]) {
                        *w -= learning_rate * (0.0 + d1 * x);
                    }
                }
                for (row, &d2) in w2.chunks_exact_mut(hidden).zip(&deltas.output) {
                    for (w, &a) in row.iter_mut().zip(&deltas.activation) {
                        *w -= learning_rate * (0.0 + d2 * a);
                    }
                }
            }
            Algorithm::CollabFilter { factors, .. } => {
                let (r, u, v) = cf_record(record);
                let ub = u * factors;
                let vb = v * factors;
                let e = {
                    let mu = &model[ub..ub + factors];
                    let mv = &model[vb..vb + factors];
                    dot(mu, mv) - r
                };
                for f in 0..factors {
                    let mu = model[ub + f];
                    let mv = model[vb + f];
                    model[ub + f] -= learning_rate * (e * mv + CF_LAMBDA * mu);
                    model[vb + f] -= learning_rate * (e * mu + CF_LAMBDA * mv);
                }
            }
        }
    }

    /// Adds this record's gradient into `acc` (used by sum aggregation and
    /// by tests comparing against the DFG interpreter).
    ///
    /// # Panics
    ///
    /// Panics if `acc` is shorter than [`Algorithm::model_len`].
    pub fn accumulate_gradient(&self, record: &[f64], model: &[f64], acc: &mut [f64]) {
        assert!(acc.len() >= self.model_len(), "gradient accumulator too short");
        match *self {
            Algorithm::LinearRegression { features }
            | Algorithm::LogisticRegression { features }
            | Algorithm::Svm { features } => {
                let (x, y) = (&record[..features], record[features]);
                if let Some(term) = self.linear_term(x, y, model) {
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a += term * x;
                    }
                }
            }
            Algorithm::Backprop { inputs, hidden, outputs } => {
                let deltas = backprop_deltas(record, model, inputs, hidden, outputs);
                let (a1, a2) = acc.split_at_mut(hidden * inputs);
                for (row, &d1) in a1.chunks_exact_mut(inputs).zip(&deltas.hidden) {
                    for (a, &x) in row.iter_mut().zip(&record[..inputs]) {
                        *a += d1 * x;
                    }
                }
                for (row, &d2) in a2.chunks_exact_mut(hidden).zip(&deltas.output) {
                    for (a, &h) in row.iter_mut().zip(&deltas.activation) {
                        *a += d2 * h;
                    }
                }
            }
            Algorithm::CollabFilter { factors, .. } => {
                let (r, u, v) = cf_record(record);
                let ub = u * factors;
                let vb = v * factors;
                let mu = &model[ub..ub + factors];
                let mv = &model[vb..vb + factors];
                let e = dot(mu, mv) - r;
                for f in 0..factors {
                    acc[ub + f] += e * mv[f] + CF_LAMBDA * mu[f];
                    acc[vb + f] += e * mu[f] + CF_LAMBDA * mv[f];
                }
            }
        }
    }

    /// The DSL record the per-sample dataflow graph consumes. Identity for
    /// dense algorithms; for collaborative filtering it is just the rating.
    pub fn dfg_record<'r>(&self, record: &'r [f64]) -> std::borrow::Cow<'r, [f64]> {
        match self {
            Algorithm::CollabFilter { .. } => std::borrow::Cow::Owned(vec![record[0]]),
            _ => std::borrow::Cow::Borrowed(record),
        }
    }

    /// The model view the per-sample dataflow graph consumes: the full
    /// model for dense algorithms, or the gathered `[user latent; item
    /// latent]` slices for collaborative filtering (the gather performed
    /// by the system layer, paper §3).
    pub fn gather_model_view(&self, record: &[f64], model: &[f64]) -> Vec<f64> {
        match *self {
            Algorithm::CollabFilter { factors, .. } => {
                let (_, u, v) = cf_record(record);
                let mut view = Vec::with_capacity(2 * factors);
                view.extend_from_slice(&model[u * factors..(u + 1) * factors]);
                view.extend_from_slice(&model[v * factors..(v + 1) * factors]);
                view
            }
            _ => model.to_vec(),
        }
    }

    /// Scatters a gradient produced in DFG model-view space back into
    /// full-model space, adding into `acc`.
    pub fn scatter_gradient(&self, record: &[f64], view_grad: &[f64], acc: &mut [f64]) {
        match *self {
            Algorithm::CollabFilter { factors, .. } => {
                let (_, u, v) = cf_record(record);
                for f in 0..factors {
                    acc[u * factors + f] += view_grad[f];
                    acc[v * factors + f] += view_grad[factors + f];
                }
            }
            _ => {
                for (a, g) in acc.iter_mut().zip(view_grad) {
                    *a += g;
                }
            }
        }
    }

    /// The built-in DSL source for this algorithm family.
    pub fn dsl_source(&self, minibatch: usize) -> String {
        match self {
            Algorithm::LinearRegression { .. } => cosmic_dsl_programs::linear_regression(minibatch),
            Algorithm::LogisticRegression { .. } => {
                cosmic_dsl_programs::logistic_regression(minibatch)
            }
            Algorithm::Svm { .. } => cosmic_dsl_programs::svm(minibatch),
            Algorithm::Backprop { .. } => cosmic_dsl_programs::backpropagation(minibatch),
            Algorithm::CollabFilter { .. } => {
                cosmic_dsl_programs::collaborative_filtering(minibatch)
            }
        }
    }

    /// The dimension bindings that lower this algorithm's DSL program to a
    /// DFG whose record/model layout matches this `Algorithm` instance.
    pub fn dim_bindings(&self) -> Vec<(&'static str, usize)> {
        match *self {
            Algorithm::LinearRegression { features }
            | Algorithm::LogisticRegression { features }
            | Algorithm::Svm { features } => vec![("n", features)],
            Algorithm::Backprop { inputs, hidden, outputs } => {
                vec![("n", inputs), ("h", hidden), ("o", outputs)]
            }
            Algorithm::CollabFilter { factors, .. } => vec![("k", factors)],
        }
    }

    /// Canonical short name of the family (`linreg`, `logreg`, `svm`,
    /// `backprop`, `cf`).
    pub fn family(&self) -> &'static str {
        match self {
            Algorithm::LinearRegression { .. } => "linreg",
            Algorithm::LogisticRegression { .. } => "logreg",
            Algorithm::Svm { .. } => "svm",
            Algorithm::Backprop { .. } => "backprop",
            Algorithm::CollabFilter { .. } => "cf",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Algorithm::LinearRegression { features } => write!(f, "linreg({features})"),
            Algorithm::LogisticRegression { features } => write!(f, "logreg({features})"),
            Algorithm::Svm { features } => write!(f, "svm({features})"),
            Algorithm::Backprop { inputs, hidden, outputs } => {
                write!(f, "backprop({inputs}x{hidden}x{outputs})")
            }
            Algorithm::CollabFilter { users, items, factors } => {
                write!(f, "cf({users}+{items} x{factors})")
            }
        }
    }
}

use cosmic_dsl::programs as cosmic_dsl_programs;

struct Forward {
    activation: Vec<f64>,
    prediction: Vec<f64>,
}

fn forward(record: &[f64], model: &[f64], inputs: usize, hidden: usize, outputs: usize) -> Forward {
    let w1 = &model[..hidden * inputs];
    let w2 = &model[hidden * inputs..];
    let mut activation = vec![0.0; hidden];
    for j in 0..hidden {
        activation[j] = sigmoid(dot(&w1[j * inputs..(j + 1) * inputs], &record[..inputs]));
    }
    let mut prediction = vec![0.0; outputs];
    for k in 0..outputs {
        prediction[k] = sigmoid(dot(&w2[k * hidden..(k + 1) * hidden], &activation));
    }
    Forward { activation, prediction }
}

/// Backprop's per-record terms, all from one model: `w1[j][i]`'s
/// gradient is `hidden[j] · x[i]` and `w2[k][j]`'s is `output[k] ·
/// activation[j]`.
struct Deltas {
    activation: Vec<f64>,
    hidden: Vec<f64>,
    output: Vec<f64>,
}

fn backprop_deltas(
    record: &[f64],
    model: &[f64],
    inputs: usize,
    hidden: usize,
    outputs: usize,
) -> Deltas {
    let Forward { activation, prediction: mut output } =
        forward(record, model, inputs, hidden, outputs);
    let w2 = &model[hidden * inputs..];
    for (k, p) in output.iter_mut().enumerate() {
        *p = (*p - record[inputs + k]) * *p * (1.0 - *p);
    }
    let hidden = (0..hidden)
        .map(|j| {
            let back: f64 = (0..outputs).map(|k| w2[k * hidden + j] * output[k]).sum();
            back * activation[j] * (1.0 - activation[j])
        })
        .collect();
    Deltas { activation, hidden, output }
}

fn cf_record(record: &[f64]) -> (f64, usize, usize) {
    (record[0], record[1] as usize, record[2] as usize)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// [`dot`] of `w` with four vectors at once: each result is the chain
/// `dot` computes — from `Iterator::sum`'s neutral `-0.0`, one product
/// added per word, in order — and the four chains interleave.
pub(crate) fn dot4(w: &[f64], x: [&[f64]; 4]) -> [f64; 4] {
    let n = w.len();
    let [x0, x1, x2, x3] = x.map(|x| &x[..n]);
    let mut s = [-0.0f64; 4];
    for i in 0..n {
        s[0] += w[i] * x0[i];
        s[1] += w[i] * x1[i];
        s[2] += w[i] * x2[i];
        s[3] += w[i] * x3[i];
    }
    s
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_model_lengths() {
        let alg = Algorithm::Backprop { inputs: 3, hidden: 4, outputs: 2 };
        assert_eq!(alg.record_len(), 5);
        assert_eq!(alg.model_len(), 3 * 4 + 4 * 2);
        let cf = Algorithm::CollabFilter { users: 10, items: 20, factors: 5 };
        assert_eq!(cf.record_len(), 3);
        assert_eq!(cf.model_len(), 150);
    }

    #[test]
    fn sgd_update_matches_accumulated_gradient_for_dense() {
        let alg = Algorithm::LinearRegression { features: 3 };
        let record = [1.0, -2.0, 0.5, 1.5];
        let mut m1 = vec![0.1, 0.2, 0.3];
        let mut grad = alg.zero_model();
        alg.accumulate_gradient(&record, &m1, &mut grad);
        let m2: Vec<f64> = m1.iter().zip(&grad).map(|(w, g)| w - 0.1 * g).collect();
        alg.sgd_update(&record, &mut m1, 0.1);
        assert_eq!(m1, m2);
    }

    #[test]
    fn cf_update_touches_only_two_entities() {
        let alg = Algorithm::CollabFilter { users: 4, items: 4, factors: 2 };
        let mut model: Vec<f64> = (0..alg.model_len()).map(|i| i as f64 / 10.0).collect();
        let before = model.clone();
        // user 1, item 6 (entity index), rating 1.0.
        alg.sgd_update(&[1.0, 1.0, 6.0], &mut model, 0.1);
        for (i, (b, a)) in before.iter().zip(&model).enumerate() {
            let entity = i / 2;
            if entity == 1 || entity == 6 {
                assert_ne!(b, a, "entity {entity} must change");
            } else {
                assert_eq!(b, a, "entity {entity} must not change");
            }
        }
    }

    #[test]
    fn svm_gradient_zero_when_margin_met() {
        let alg = Algorithm::Svm { features: 2 };
        let mut acc = alg.zero_model();
        alg.accumulate_gradient(&[1.0, 1.0, 1.0], &[2.0, 2.0], &mut acc);
        assert_eq!(acc, vec![0.0, 0.0]);
    }

    #[test]
    fn losses_are_nonnegative() {
        let algs = [
            Algorithm::LinearRegression { features: 2 },
            Algorithm::LogisticRegression { features: 2 },
            Algorithm::Svm { features: 2 },
        ];
        for alg in algs {
            let l = alg.loss(&[0.3, -0.4, 1.0], &[0.1, 0.1]);
            assert!(l >= 0.0, "{alg}: {l}");
        }
    }

    #[test]
    fn gather_scatter_round_trip_cf() {
        let alg = Algorithm::CollabFilter { users: 3, items: 3, factors: 2 };
        let model: Vec<f64> = (0..12).map(f64::from).collect();
        let record = [0.5, 2.0, 4.0];
        let view = alg.gather_model_view(&record, &model);
        assert_eq!(view, vec![4.0, 5.0, 8.0, 9.0]);
        let mut acc = alg.zero_model();
        alg.scatter_gradient(&record, &[1.0, 2.0, 3.0, 4.0], &mut acc);
        assert_eq!(acc[4..6], [1.0, 2.0]);
        assert_eq!(acc[8..10], [3.0, 4.0]);
        assert_eq!(acc.iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn dfg_record_strips_indices_for_cf() {
        let alg = Algorithm::CollabFilter { users: 3, items: 3, factors: 2 };
        assert_eq!(alg.dfg_record(&[0.5, 2.0, 4.0]).as_ref(), &[0.5]);
        let dense = Algorithm::Svm { features: 2 };
        assert_eq!(dense.dfg_record(&[1.0, 2.0, 1.0]).as_ref(), &[1.0, 2.0, 1.0]);
    }

    #[test]
    fn display_and_family() {
        let alg = Algorithm::Backprop { inputs: 784, hidden: 784, outputs: 10 };
        assert_eq!(alg.to_string(), "backprop(784x784x10)");
        assert_eq!(alg.family(), "backprop");
    }
}
