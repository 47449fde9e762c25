//! Gradient-descent optimizers: the parallel variants of SGD the CoSMIC
//! stack distributes (paper §2.2, Eq. 3); one worker is sequential SGD.

use crate::algorithm::{dot4, Aggregation, Algorithm};
use crate::data::{self, Dataset};

/// One parallelized-SGD aggregation step over a single global mini-batch
/// (paper Eq. 3): every worker starts from `model`, runs sequential SGD
/// over its share of the mini-batch, and the results are aggregated.
///
/// - [`Aggregation::Average`]: workers return their *updated models*,
///   which are averaged (Zinkevich et al.).
/// - [`Aggregation::Sum`]: workers return *accumulated gradients*, applied
///   as one batched update (batched gradient descent).
///
/// `worker_batches` holds each worker's slice of the mini-batch.
pub(crate) fn parallel_step(
    alg: &Algorithm,
    worker_batches: &[&[Vec<f64>]],
    model: &mut [f64],
    learning_rate: f64,
    aggregation: Aggregation,
) {
    // Workers that received no records contribute nothing; with average
    // aggregation they must not drag the model toward its old value, so
    // only participating workers are counted.
    let active: Vec<&&[Vec<f64>]> = worker_batches.iter().filter(|b| !b.is_empty()).collect();
    if active.is_empty() {
        return;
    }
    match aggregation {
        Aggregation::Average => {
            let mut sum = vec![0.0; model.len()];
            for batch in &active {
                let mut local = model.to_vec();
                for record in batch.iter() {
                    alg.sgd_update(record, &mut local, learning_rate);
                }
                for (s, v) in sum.iter_mut().zip(&local) {
                    *s += v;
                }
            }
            let n = active.len() as f64;
            for (m, s) in model.iter_mut().zip(&sum) {
                *m = s / n;
            }
        }
        Aggregation::Sum => {
            let mut grad = vec![0.0; model.len()];
            for batch in &active {
                for record in batch.iter() {
                    alg.accumulate_gradient(record, model, &mut grad);
                }
            }
            let total: usize = active.iter().map(|b| b.len()).sum();
            let scale = learning_rate / total as f64;
            for (m, g) in model.iter_mut().zip(&grad) {
                *m -= scale * g;
            }
        }
    }
}

/// [`parallel_step`] with a per-contribution transform applied at the
/// aggregation boundary — the hook a lossy wire representation (fixed
/// point, top-k) uses to model what actually crosses the wire. Each
/// worker's contribution (its updated local model under
/// [`Aggregation::Average`], its accumulated gradient under
/// [`Aggregation::Sum`]) passes through `transform` before the fold.
///
/// With the identity transform the average path is bit-identical to
/// [`parallel_step`]; the sum path accumulates per worker before
/// folding, so its floating-point summation order differs (same
/// mathematical result).
pub(crate) fn parallel_step_with(
    alg: &Algorithm,
    worker_batches: &[&[Vec<f64>]],
    model: &mut [f64],
    learning_rate: f64,
    aggregation: Aggregation,
    transform: &mut dyn FnMut(Vec<f64>) -> Vec<f64>,
) {
    let active: Vec<&&[Vec<f64>]> = worker_batches.iter().filter(|b| !b.is_empty()).collect();
    if active.is_empty() {
        return;
    }
    match aggregation {
        Aggregation::Average => {
            let mut sum = vec![0.0; model.len()];
            for batch in &active {
                let mut local = model.to_vec();
                for record in batch.iter() {
                    alg.sgd_update(record, &mut local, learning_rate);
                }
                let local = transform(local);
                for (s, v) in sum.iter_mut().zip(&local) {
                    *s += v;
                }
            }
            let n = active.len() as f64;
            for (m, s) in model.iter_mut().zip(&sum) {
                *m = s / n;
            }
        }
        Aggregation::Sum => {
            let mut grad = vec![0.0; model.len()];
            for batch in &active {
                let mut local = vec![0.0; model.len()];
                for record in batch.iter() {
                    alg.accumulate_gradient(record, model, &mut local);
                }
                let local = transform(local);
                for (g, v) in grad.iter_mut().zip(&local) {
                    *g += v;
                }
            }
            let total: usize = active.iter().map(|b| b.len()).sum();
            let scale = learning_rate / total as f64;
            for (m, g) in model.iter_mut().zip(&grad) {
                *m -= scale * g;
            }
        }
    }
}

/// Configuration for distributed training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// SGD learning rate `μ`.
    pub learning_rate: f64,
    /// Passes over the dataset.
    pub epochs: usize,
    /// Global mini-batch size `b` — records consumed between aggregations.
    pub minibatch: usize,
    /// Number of parallel workers (nodes × accelerator threads).
    pub workers: usize,
    /// Aggregation operator.
    pub aggregation: Aggregation,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.05,
            epochs: 1,
            minibatch: 10_000,
            workers: 4,
            aggregation: Aggregation::Average,
        }
    }
}

/// Result of [`train_parallel`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResult {
    /// The trained model.
    pub model: Vec<f64>,
    /// Mean dataset loss before each epoch and after the last.
    pub loss_history: Vec<f64>,
    /// Number of aggregation steps performed.
    pub aggregations: usize,
}

/// Trains with parallelized SGD: the dataset is split into `workers`
/// shards; each mini-batch is processed in parallel worker shares and then
/// aggregated, exactly the execution flow CoSMIC distributes across
/// accelerator-augmented nodes.
///
/// # Panics
///
/// Panics if `workers` or `minibatch` is zero.
pub fn train_parallel(
    alg: &Algorithm,
    dataset: &Dataset,
    initial_model: Vec<f64>,
    config: &TrainConfig,
) -> TrainResult {
    train_parallel_impl(alg, dataset, initial_model, config, None)
}

/// [`train_parallel`] with a per-contribution transform applied at
/// every aggregation step (see [`parallel_step_with`]): the convergence
/// harness for lossy wire representations. The dense path stays
/// [`train_parallel`] itself — pass no transform there, not an
/// identity closure, so the verbatim code path keeps its bit-identity
/// guarantee.
///
/// # Panics
///
/// Panics if `workers` or `minibatch` is zero.
pub(crate) fn train_parallel_with(
    alg: &Algorithm,
    dataset: &Dataset,
    initial_model: Vec<f64>,
    config: &TrainConfig,
    transform: &mut dyn FnMut(Vec<f64>) -> Vec<f64>,
) -> TrainResult {
    train_parallel_impl(alg, dataset, initial_model, config, Some(transform))
}

fn train_parallel_impl(
    alg: &Algorithm,
    dataset: &Dataset,
    initial_model: Vec<f64>,
    config: &TrainConfig,
    mut transform: Option<&mut dyn FnMut(Vec<f64>) -> Vec<f64>>,
) -> TrainResult {
    assert!(config.workers > 0, "need at least one worker");
    assert!(config.minibatch > 0, "mini-batch must be positive");
    let mut model = initial_model;
    let mut history = Vec::with_capacity(config.epochs + 1);
    let mut aggregations = 0;

    // Borrowed shards, as the runtime's engine takes them: no copy of
    // the dataset per call.
    let shards = data::shards(dataset.records(), config.workers);
    let per_worker = config.minibatch.div_ceil(config.workers);

    for _ in 0..config.epochs {
        history.push(mean_loss(alg, dataset, &model));
        // Each worker walks its own shard; aggregation happens every time
        // the workers have jointly consumed one mini-batch.
        let steps = shards.iter().map(|s| s.len()).max().unwrap_or(0).div_ceil(per_worker);
        for step in 0..steps {
            let batches: Vec<&[Vec<f64>]> = shards
                .iter()
                .map(|shard| {
                    let lo = (step * per_worker).min(shard.len());
                    let hi = ((step + 1) * per_worker).min(shard.len());
                    &shard[lo..hi]
                })
                .collect();
            match transform.as_mut() {
                Some(t) => parallel_step_with(
                    alg,
                    &batches,
                    &mut model,
                    config.learning_rate,
                    config.aggregation,
                    *t,
                ),
                None => parallel_step(
                    alg,
                    &batches,
                    &mut model,
                    config.learning_rate,
                    config.aggregation,
                ),
            }
            aggregations += 1;
        }
    }
    history.push(mean_loss(alg, dataset, &model));
    TrainResult { model, loss_history: history, aggregations }
}

/// Mean per-record loss over a dataset, with the bits of
/// `records.map(|r| alg.loss(r, model)).sum::<f64>() / len`: the losses
/// add in record order from `Iterator::sum`'s neutral `-0.0`, and each
/// is [`Algorithm::loss`]'s. The linear families take their records
/// four at a time, the four dot products interleaved, each the same
/// sequential chain as the one-record dot; the last `len % 4` records,
/// and every record of the other families, go through
/// [`Algorithm::loss`] itself.
pub fn mean_loss(alg: &Algorithm, dataset: &Dataset, model: &[f64]) -> f64 {
    if dataset.is_empty() {
        return 0.0;
    }
    let mut records = dataset.records();
    let mut total = -0.0;
    if let Some(features) = alg.linear_features() {
        let mut quads = records.chunks_exact(4);
        for quad in &mut quads {
            let dots = dot4(&model[..features], [&quad[0], &quad[1], &quad[2], &quad[3]]);
            for (record, dot) in quad.iter().zip(dots) {
                total += alg.loss_of_dot(dot, record[features]);
            }
        }
        records = quads.remainder();
    }
    for record in records {
        total += alg.loss(record, model);
    }
    total / dataset.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn parallel_training_converges_for_all_families() {
        let algs = [
            Algorithm::LinearRegression { features: 8 },
            Algorithm::LogisticRegression { features: 8 },
            Algorithm::Svm { features: 8 },
            Algorithm::Backprop { inputs: 6, hidden: 5, outputs: 2 },
            Algorithm::CollabFilter { users: 12, items: 12, factors: 3 },
        ];
        for alg in algs {
            let ds = data::generate(&alg, 600, 21);
            let init = data::init_model(&alg, 3);
            let config = TrainConfig {
                learning_rate: 0.2,
                epochs: 6,
                minibatch: 120,
                workers: 4,
                aggregation: Aggregation::Average,
            };
            let result = train_parallel(&alg, &ds, init, &config);
            let first = result.loss_history[0];
            let last = *result.loss_history.last().unwrap();
            assert!(last < first, "{alg}: loss {first} -> {last} must decrease");
            assert!(result.aggregations > 0);
        }
    }

    #[test]
    fn one_worker_average_equals_sequential_minibatch() {
        let alg = Algorithm::Svm { features: 4 };
        let ds = data::generate(&alg, 64, 5);
        let init = data::init_model(&alg, 1);

        let config = TrainConfig {
            learning_rate: 0.1,
            epochs: 2,
            minibatch: 16,
            workers: 1,
            aggregation: Aggregation::Average,
        };
        let parallel = train_parallel(&alg, &ds, init.clone(), &config);

        // Sequential reference: same order, same updates.
        let mut seq = init;
        for _ in 0..2 {
            for r in ds.records() {
                alg.sgd_update(r, &mut seq, 0.1);
            }
        }
        for (a, b) in parallel.model.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_aggregation_is_one_batched_update() {
        let alg = Algorithm::LinearRegression { features: 2 };
        let records = [vec![1.0, 0.0, 1.0], vec![0.0, 1.0, -1.0]];
        let mut model = vec![0.0, 0.0];
        let batches: Vec<&[Vec<f64>]> = vec![&records[..1], &records[1..]];
        parallel_step(&alg, &batches, &mut model, 0.5, Aggregation::Sum);
        // grad over batch: r1: e=-1 => g=(-1,0); r2: e=1 => g=(0,1);
        // update = -0.5/2 * grad.
        assert!((model[0] - 0.25).abs() < 1e-12);
        assert!((model[1] + 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_batches_leave_model_unchanged() {
        let alg = Algorithm::LinearRegression { features: 2 };
        let mut model = vec![0.5, -0.5];
        let before = model.clone();
        let batches: Vec<&[Vec<f64>]> = vec![&[], &[]];
        parallel_step(&alg, &batches, &mut model, 0.5, Aggregation::Average);
        assert_eq!(model, before);
    }

    #[test]
    fn average_of_identical_workers_is_identity() {
        // Two workers fed the same batch produce the same local model, so
        // averaging reproduces it exactly.
        let alg = Algorithm::LinearRegression { features: 2 };
        let records = vec![vec![1.0, 1.0, 2.0]];
        let mut par = vec![0.0, 0.0];
        let batches: Vec<&[Vec<f64>]> = vec![&records, &records];
        parallel_step(&alg, &batches, &mut par, 0.1, Aggregation::Average);

        let mut seq = vec![0.0, 0.0];
        alg.sgd_update(&records[0], &mut seq, 0.1);
        assert_eq!(par, seq);
    }

    #[test]
    fn more_workers_do_not_break_convergence() {
        let alg = Algorithm::LogisticRegression { features: 6 };
        let ds = data::generate(&alg, 400, 8);
        for workers in [1, 2, 8] {
            let config = TrainConfig {
                workers,
                epochs: 4,
                minibatch: 80,
                learning_rate: 0.3,
                aggregation: Aggregation::Average,
            };
            let r = train_parallel(&alg, &ds, alg.zero_model(), &config);
            assert!(r.loss_history.last().unwrap() < &r.loss_history[0], "workers={workers}");
        }
    }
}
