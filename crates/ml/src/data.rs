//! Seeded synthetic dataset generation.
//!
//! Every benchmark of Table 1 trains on data the paper obtained from the
//! machine-learning literature (MNIST, Netflix Prize, gene microarrays,
//! tick-level market data, …). Those datasets are not redistributable and
//! several require registration, so this reproduction generates *synthetic
//! datasets with identical shapes* — feature counts, record counts, value
//! ranges, and a learnable ground truth — which preserves everything the
//! systems experiments measure (bytes moved, flops computed, convergence
//! behaviour of the optimizer).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::algorithm::Algorithm;

/// A dataset: a list of flat training records, plus the record length.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    records: Vec<Vec<f64>>,
    record_len: usize,
}

impl Dataset {
    /// Wraps pre-built records.
    ///
    /// # Panics
    ///
    /// Panics if records have inconsistent lengths.
    pub fn from_records(records: Vec<Vec<f64>>) -> Self {
        let record_len = records.first().map_or(0, Vec::len);
        assert!(
            records.iter().all(|r| r.len() == record_len),
            "all records must have the same length"
        );
        Dataset { records, record_len }
    }

    /// The records.
    pub fn records(&self) -> &[Vec<f64>] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Length of each record.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// Splits the dataset into `parts` contiguous, nearly equal partitions
    /// (the per-node partitions `D_i` of paper Figure 1): owned copies of
    /// [`shards`] over the records.
    pub fn partition(&self, parts: usize) -> Vec<Dataset> {
        shards(&self.records, parts)
            .into_iter()
            .map(|shard| Dataset { records: shard.to_vec(), record_len: self.record_len })
            .collect()
    }
}

/// Splits `items` into `parts` contiguous, nearly equal borrowed shards.
/// Every item appears in exactly one shard; earlier shards are at most
/// one item larger. Splitting a shard again gives the per-thread
/// sub-partitions `D_ij`.
///
/// # Panics
///
/// Panics if `parts` is zero.
pub fn shards<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    assert!(parts > 0, "cannot partition into zero parts");
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut rest = items;
    (0..parts)
        .map(|p| {
            let (shard, tail) = rest.split_at(base + usize::from(p < extra));
            rest = tail;
            shard
        })
        .collect()
}

/// Generates `count` records for the algorithm with a learnable ground
/// truth, deterministically from `seed`.
///
/// - Regression/classification: features `~ N(0, 1/√n)`, labels derived
///   from a hidden ground-truth model plus small noise.
/// - Backpropagation: labels produced by a hidden teacher network.
/// - Collaborative filtering: ratings from hidden latent factors.
pub fn generate(alg: &Algorithm, count: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC05_311C);
    let records = match *alg {
        Algorithm::LinearRegression { features } => {
            let truth = ground_truth(&mut rng, features);
            (0..count)
                .map(|_| {
                    let x = feature_vec(&mut rng, features, 1);
                    let y = dot(&truth, &x) + rng.gen_range(-0.05..0.05);
                    with_label(x, y)
                })
                .collect()
        }
        Algorithm::LogisticRegression { features } => {
            let truth = ground_truth(&mut rng, features);
            (0..count)
                .map(|_| {
                    let x = feature_vec(&mut rng, features, 1);
                    let y = f64::from(dot(&truth, &x) > 0.0);
                    with_label(x, y)
                })
                .collect()
        }
        Algorithm::Svm { features } => {
            let truth = ground_truth(&mut rng, features);
            (0..count)
                .map(|_| {
                    let x = feature_vec(&mut rng, features, 1);
                    let y = if dot(&truth, &x) > 0.0 { 1.0 } else { -1.0 };
                    with_label(x, y)
                })
                .collect()
        }
        Algorithm::Backprop { inputs, hidden, outputs } => {
            let teacher: Vec<f64> =
                (0..hidden * inputs + outputs * hidden).map(|_| rng.gen_range(-1.0..1.0)).collect();
            (0..count)
                .map(|_| {
                    let mut record = feature_vec(&mut rng, inputs, outputs);
                    let labels = teacher_forward(&teacher, &record, inputs, hidden, outputs);
                    record.extend(labels);
                    record
                })
                .collect()
        }
        Algorithm::CollabFilter { users, items, factors } => {
            let latent: Vec<f64> =
                (0..(users + items) * factors).map(|_| rng.gen_range(-0.5..0.5)).collect();
            (0..count)
                .map(|_| {
                    let u = rng.gen_range(0..users);
                    let v = users + rng.gen_range(0..items);
                    let lu = &latent[u * factors..(u + 1) * factors];
                    let lv = &latent[v * factors..(v + 1) * factors];
                    let r = dot(lu, lv) + rng.gen_range(-0.02..0.02);
                    vec![r, u as f64, v as f64]
                })
                .collect()
        }
    };
    Dataset::from_records(records)
}

/// A small random model initialization (symmetric-breaking for backprop).
pub fn init_model(alg: &Algorithm, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1217);
    (0..alg.model_len()).map(|_| rng.gen_range(-0.1..0.1)).collect()
}

fn ground_truth(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// `n` features with room for `labels` more words, so appending the
/// labels does not reallocate. A record grown by a push holds twice its
/// length, and each regrowth stays in the malloc arena of the block it
/// grew from, so where a dataset lived depended on which thread had
/// freed a block of that size last.
fn feature_vec(rng: &mut StdRng, n: usize, labels: usize) -> Vec<f64> {
    let scale = 1.0 / (n as f64).sqrt();
    let mut x = Vec::with_capacity(n + labels);
    x.extend((0..n).map(|_| rng.gen_range(-1.0..1.0) * scale * 3.0));
    x
}

fn with_label(mut x: Vec<f64>, y: f64) -> Vec<f64> {
    x.push(y);
    x
}

fn teacher_forward(
    model: &[f64],
    x: &[f64],
    inputs: usize,
    hidden: usize,
    outputs: usize,
) -> Vec<f64> {
    let sig = |v: f64| 1.0 / (1.0 + (-v).exp());
    let w1 = &model[..hidden * inputs];
    let w2 = &model[hidden * inputs..];
    let a: Vec<f64> = (0..hidden).map(|j| sig(dot(&w1[j * inputs..(j + 1) * inputs], x))).collect();
    (0..outputs).map(|k| sig(dot(&w2[k * hidden..(k + 1) * hidden], &a))).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let alg = Algorithm::Svm { features: 8 };
        let a = generate(&alg, 32, 42);
        let b = generate(&alg, 32, 42);
        assert_eq!(a, b);
        let c = generate(&alg, 32, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn record_lengths_match_algorithm() {
        for alg in [
            Algorithm::LinearRegression { features: 5 },
            Algorithm::LogisticRegression { features: 5 },
            Algorithm::Svm { features: 5 },
            Algorithm::Backprop { inputs: 4, hidden: 3, outputs: 2 },
            Algorithm::CollabFilter { users: 6, items: 6, factors: 2 },
        ] {
            let ds = generate(&alg, 10, 1);
            assert_eq!(ds.record_len(), alg.record_len(), "{alg}");
            assert_eq!(ds.len(), 10);
        }
    }

    #[test]
    fn svm_labels_are_plus_minus_one() {
        let alg = Algorithm::Svm { features: 4 };
        let ds = generate(&alg, 64, 3);
        assert!(ds.records().iter().all(|r| r[4] == 1.0 || r[4] == -1.0));
        // Both classes present.
        assert!(ds.records().iter().any(|r| r[4] == 1.0));
        assert!(ds.records().iter().any(|r| r[4] == -1.0));
    }

    #[test]
    fn cf_indices_are_disjoint_user_item_spaces() {
        let alg = Algorithm::CollabFilter { users: 5, items: 7, factors: 2 };
        let ds = generate(&alg, 100, 9);
        for r in ds.records() {
            let u = r[1] as usize;
            let v = r[2] as usize;
            assert!(u < 5);
            assert!((5..12).contains(&v));
        }
    }

    #[test]
    fn partition_covers_all_records_evenly() {
        let alg = Algorithm::LinearRegression { features: 2 };
        let ds = generate(&alg, 10, 5);
        let parts = ds.partition(3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(Dataset::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let total: Vec<&Vec<f64>> = parts.iter().flat_map(|p| p.records()).collect();
        assert_eq!(total.len(), 10);
        assert_eq!(*total[0], ds.records()[0]);
        assert_eq!(*total[9], ds.records()[9]);
    }

    /// `Dataset::partition` as it was before it was written over
    /// [`shards`]: a cursor walking owned copies.
    fn partition_reference(records: &[Vec<f64>], parts: usize) -> Vec<Vec<Vec<f64>>> {
        let (base, extra) = (records.len() / parts, records.len() % parts);
        let mut cursor = 0;
        (0..parts)
            .map(|p| {
                let take = base + usize::from(p < extra);
                cursor += take;
                records[cursor - take..cursor].to_vec()
            })
            .collect()
    }

    /// The engine's borrowed node → thread shards are the records the
    /// nested `partition` copies held, for empty, short, exact and
    /// ragged datasets.
    #[test]
    fn nested_shards_equal_nested_partitions() {
        let alg = Algorithm::LinearRegression { features: 2 };
        for (nodes, threads) in [(1, 1), (4, 1), (4, 2), (3, 3), (6, 2)] {
            let parts = nodes * threads;
            for count in [0, 1, parts - 1, parts, parts + 1, 97] {
                let ds = generate(&alg, count, 5);
                let (node_shards, node_parts) = (shards(ds.records(), nodes), ds.partition(nodes));
                let node_refs = partition_reference(ds.records(), nodes);
                assert_eq!(node_shards.len(), nodes);
                for n in 0..nodes {
                    let thread_shards = shards(node_shards[n], threads);
                    let thread_parts = node_parts[n].partition(threads);
                    let thread_refs = partition_reference(&node_refs[n], threads);
                    assert_eq!(thread_shards.len(), threads);
                    for t in 0..threads {
                        let what =
                            format!("{count} records, node {n}/{nodes}, thread {t}/{threads}");
                        assert_eq!(thread_shards[t], thread_parts[t].records(), "{what}");
                        assert_eq!(thread_shards[t], thread_refs[t].as_slice(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn partition_zero_panics() {
        generate(&Algorithm::Svm { features: 2 }, 4, 0).partition(0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn inconsistent_records_panic() {
        let _ = Dataset::from_records(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
