//! # cosmic-ml — learning algorithms, datasets, and gradient-descent
//! optimizers
//!
//! The machine-learning substrate of the CoSMIC reproduction. The paper
//! (MICRO 2017, §2) targets supervised algorithms trained by *parallel
//! variants of stochastic gradient descent*; this crate provides:
//!
//! - [`Algorithm`] — the five algorithm families of the evaluation
//!   (linear regression, logistic regression, SVM, backpropagation,
//!   collaborative filtering) with analytic gradients, losses, and the
//!   gather/scatter glue that connects them to DSL-lowered dataflow graphs;
//! - [`data`] — seeded synthetic dataset generators matching the shapes of
//!   Table 1 (real datasets such as MNIST or the Netflix Prize data are
//!   not redistributable; performance depends only on shapes);
//! - [`sgd`] — mini-batched, parallelized SGD (Eq. 3: average
//!   aggregation, Zinkevich et al.) and batched gradient descent (sum
//!   aggregation); with one worker it is sequential SGD;
//! - [`suite`] — the 10 benchmarks of Table 1 with their published
//!   metadata and scalable synthetic instantiations.
//!
//! # Examples
//!
//! ```
//! use cosmic_ml::{data, sgd, Algorithm};
//!
//! let alg = Algorithm::LinearRegression { features: 8 };
//! let dataset = data::generate(&alg, 256, 7);
//! let config = sgd::TrainConfig { epochs: 3, minibatch: 32, ..Default::default() };
//! let history = sgd::train_parallel(&alg, &dataset, alg.zero_model(), &config).loss_history;
//! assert!(history.last().unwrap() < &history[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod algorithm;
pub mod data;
pub mod sgd;
pub mod suite;

pub use algorithm::{Aggregation, Algorithm};
pub use suite::{Benchmark, BenchmarkId};
