//! Reference interpreter for dataflow graphs.
//!
//! The interpreter defines the *semantics* of a lowered program: every
//! other execution path (the cycle-level accelerator simulator, the
//! functional distributed trainer) is tested against it.

use crate::graph::{apply_unary, Dfg, Node};

/// Evaluates one gradient computation.
///
/// `record` is the flattened training record (inputs then expected
/// outputs); `model` is the flattened parameter vector. Returns the
/// flattened gradient vector.
///
/// # Panics
///
/// Panics if `record` or `model` do not match the graph's declared
/// lengths.
pub fn evaluate(dfg: &Dfg, record: &[f64], model: &[f64]) -> Vec<f64> {
    assert_eq!(record.len(), dfg.data_len(), "training record length mismatch");
    assert_eq!(model.len(), dfg.model_len(), "model length mismatch");

    let mut values = vec![0.0f64; dfg.len()];
    for (i, node) in dfg.nodes().iter().enumerate() {
        values[i] = match *node {
            Node::Data { slot } => record[slot as usize],
            Node::Model { slot } => model[slot as usize],
            Node::Const { value } => value,
            Node::Op { kind, a, b } => kind.apply(values[a.index()], values[b.index()]),
            Node::Unary { func, a } => apply_unary(func, values[a.index()]),
        };
    }
    dfg.gradient_outputs().iter().map(|id| values[id.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DfgBuilder, OpKind};
    use crate::lower::{lower, DimEnv};
    use cosmic_dsl::{parse, programs};

    fn linreg_dfg(n: usize) -> Dfg {
        let p = parse(&programs::linear_regression(64)).unwrap();
        lower(&p, &DimEnv::new().with("n", n)).unwrap()
    }

    #[test]
    fn linear_regression_gradient_matches_analytic_form() {
        let dfg = linreg_dfg(3);
        let x = [1.0, 2.0, -1.0];
        let w = [0.5, -0.5, 0.25];
        let y = 2.0;
        let record = [x[0], x[1], x[2], y];
        let g = evaluate(&dfg, &record, &w);
        let pred: f64 = w.iter().zip(&x).map(|(w, x)| w * x).sum();
        let err = pred - y;
        for i in 0..3 {
            assert!((g[i] - err * x[i]).abs() < 1e-12, "component {i}");
        }
    }

    #[test]
    fn svm_gradient_is_zero_when_margin_satisfied() {
        let p = parse(&programs::svm(64)).unwrap();
        let dfg = lower(&p, &DimEnv::new().with("n", 2)).unwrap();
        // w·x = 2, y = 1 ⇒ margin 2 > 1 ⇒ zero gradient.
        let g = evaluate(&dfg, &[1.0, 1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(g, vec![0.0, 0.0]);
        // y = -1 ⇒ margin -2 < 1 ⇒ gradient = -y·x = x.
        let g = evaluate(&dfg, &[1.0, 2.0, -1.0], &[1.0, 1.0]);
        assert_eq!(g, vec![1.0, 2.0]);
    }

    #[test]
    fn logistic_gradient_uses_sigmoid() {
        let p = parse(&programs::logistic_regression(64)).unwrap();
        let dfg = lower(&p, &DimEnv::new().with("n", 1)).unwrap();
        // w·x = 0 ⇒ sigmoid = 0.5; y = 1 ⇒ e = -0.5; g = e·x = -1.0.
        let g = evaluate(&dfg, &[2.0, 1.0], &[0.0]);
        assert!((g[0] + 1.0).abs() < 1e-12);
    }

    /// One stochastic-gradient-descent step in place: `θ[slot] ← θ[slot] −
    /// μ · g` for every gradient component (paper Eq. 2).
    fn sgd_step(dfg: &Dfg, record: &[f64], model: &mut [f64], learning_rate: f64) {
        let gradient = evaluate(dfg, record, model);
        for (slot, g) in dfg.gradient_model_slots().iter().zip(&gradient) {
            model[*slot as usize] -= learning_rate * g;
        }
    }

    #[test]
    fn sgd_step_reduces_squared_error() {
        let dfg = linreg_dfg(2);
        let record = [1.0, 2.0, 3.0]; // x = (1,2), y = 3
        let mut w = [0.0, 0.0];
        let loss = |w: &[f64]| {
            let p = w[0] * record[0] + w[1] * record[1];
            (p - record[2]).powi(2)
        };
        let before = loss(&w);
        sgd_step(&dfg, &record, &mut w, 0.05);
        assert!(loss(&w) < before);
    }

    #[test]
    fn backprop_gradient_descends_loss() {
        let p = parse(&programs::backpropagation(64)).unwrap();
        let env = DimEnv::new().with("n", 3).with("h", 4).with("o", 2);
        let dfg = lower(&p, &env).unwrap();
        let record = [0.5, -0.2, 0.8, 1.0, 0.0];
        let mut model: Vec<f64> =
            (0..dfg.model_len()).map(|i| ((i % 7) as f64 - 3.0) / 10.0).collect();
        let loss = |m: &[f64]| {
            // Forward pass replicated in plain Rust.
            let (n, h, o) = (3, 4, 2);
            let sig = |v: f64| 1.0 / (1.0 + (-v).exp());
            let mut a = vec![0.0; h];
            for j in 0..h {
                a[j] = sig((0..n).map(|i| m[j * n + i] * record[i]).sum());
            }
            let mut l = 0.0;
            for k in 0..o {
                let p: f64 = sig((0..h).map(|j| m[h * n + k * h + j] * a[j]).sum());
                l += (p - record[n + k]).powi(2);
            }
            l
        };
        let before = loss(&model);
        for _ in 0..10 {
            sgd_step(&dfg, &record, &mut model, 0.5);
        }
        assert!(loss(&model) < before, "10 SGD steps must reduce the loss");
    }

    #[test]
    fn collaborative_filtering_gradient_has_regularization() {
        let p = parse(&programs::collaborative_filtering(64)).unwrap();
        let dfg = lower(&p, &DimEnv::new().with("k", 2)).unwrap();
        let mu = [1.0, 0.0];
        let mv = [1.0, 1.0];
        let model = [mu[0], mu[1], mv[0], mv[1]];
        let r = 1.0;
        let g = evaluate(&dfg, &[r], &model);
        let e = mu[0] * mv[0] + mu[1] * mv[1] - r; // = 0
        assert!((g[0] - (e * mv[0] + 0.01 * mu[0])).abs() < 1e-12);
        assert!((g[2] - (e * mu[0] + 0.01 * mv[0])).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "model length mismatch")]
    fn wrong_model_length_panics() {
        let dfg = linreg_dfg(2);
        let _ = evaluate(&dfg, &[1.0, 1.0, 1.0], &[1.0]);
    }

    #[test]
    fn constants_flow_through() {
        let mut b = DfgBuilder::new();
        let c = b.constant(4.0);
        let x = b.data(0);
        let s = b.op(OpKind::Mul, c, x);
        b.set_gradient(0, s, 0);
        let dfg = b.finish(1, 1);
        assert_eq!(evaluate(&dfg, &[2.5], &[0.0]), vec![10.0]);
    }
}
