//! MLP universal-approximation study (Fig. 4 of the paper).
//!
//! A single-hidden-layer MLP with MaxK or ReLU nonlinearity is trained to
//! approximate `y = x²` on `[-1, 1]`. The paper uses this to illustrate
//! Theorem 3.2 (MaxK networks are universal approximators): as the hidden
//! width `r` grows, approximation error falls for both nonlinearities, and
//! MaxK (keeping the top `⌈r/4⌉` units) tracks ReLU closely.

use crate::conv::Activation;
use maxk_core::maxk::{maxk_backward, maxk_forward};
use maxk_tensor::{ops, Adam, Linear, Matrix, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of one approximation run.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden units `r`.
    pub hidden: usize,
    /// Nonlinearity (for MaxK the paper selects `k = ⌈r/4⌉`).
    pub activation: Activation,
    /// Training samples on `[-1, 1]`.
    pub samples: usize,
    /// Adam steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's Fig. 4 setting for a given hidden width: MaxK with
    /// `k = ⌈r/4⌉`.
    pub fn paper_maxk(hidden: usize) -> Self {
        MlpConfig {
            hidden,
            activation: Activation::MaxK(hidden.div_ceil(4)),
            samples: 256,
            steps: 3_000,
            lr: 0.01,
            seed: 42,
        }
    }

    /// The ReLU control for the same width.
    pub fn paper_relu(hidden: usize) -> Self {
        MlpConfig {
            activation: Activation::Relu,
            ..Self::paper_maxk(hidden)
        }
    }
}

/// Result of an approximation run.
#[derive(Debug, Clone, Copy)]
pub struct ApproxResult {
    /// Final mean-squared error on the training grid.
    pub train_mse: f64,
    /// MSE on a dense held-out grid.
    pub test_mse: f64,
}

/// Trains the 1-hidden-layer MLP on `y = x²` and reports approximation
/// error.
///
/// # Panics
///
/// Panics if a MaxK `k` exceeds the hidden width.
pub fn approximate_square(cfg: &MlpConfig) -> ApproxResult {
    if let Activation::MaxK(k) = cfg.activation {
        assert!(k > 0 && k <= cfg.hidden, "invalid MaxK k = {k}");
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut l1 = Linear::new(1, cfg.hidden, &mut rng);
    let mut l2 = Linear::new(cfg.hidden, 1, &mut rng);
    let mut opt = Adam::new(cfg.lr);

    // Training grid.
    let xs: Vec<f32> = (0..cfg.samples)
        .map(|i| -1.0 + 2.0 * i as f32 / (cfg.samples - 1) as f32)
        .collect();
    let x = Matrix::from_vec(cfg.samples, 1, xs.clone()).expect("grid is rectangular");
    let target: Vec<f32> = xs.iter().map(|v| v * v).collect();

    let mut final_train = f64::INFINITY;
    for _ in 0..cfg.steps {
        l1.zero_grad();
        l2.zero_grad();
        // Forward.
        let z = l1.forward(&x);
        let (h, pattern) = match cfg.activation {
            Activation::Relu => (ops::relu(&z), None),
            Activation::MaxK(k) => {
                let s = maxk_forward(&z, k).expect("k validated above");
                (s.to_dense(), Some(s))
            }
        };
        let y = l2.forward(&h);
        // MSE loss and gradient.
        let mut dy = Matrix::zeros(cfg.samples, 1);
        let mut mse = 0.0f64;
        for (i, &t) in target.iter().enumerate() {
            let err = y.get(i, 0) - t;
            mse += f64::from(err) * f64::from(err);
            dy.set(i, 0, 2.0 * err / cfg.samples as f32);
        }
        final_train = mse / cfg.samples as f64;
        // Backward.
        let dh = l2.backward(&h, &dy);
        let dz = match (&cfg.activation, &pattern) {
            (Activation::Relu, _) => ops::relu_backward(&z, &dh),
            (Activation::MaxK(_), Some(p)) => {
                let masked = maxk_core::maxk::gather_with_pattern(&dh, p);
                maxk_backward(&masked)
            }
            _ => unreachable!("MaxK always caches its pattern"),
        };
        l1.accumulate_grads(&x, &dz);
        // Step.
        opt.next_step();
        for (slot, (p, g)) in l1.params_and_grads().into_iter().enumerate() {
            opt.step(slot, p, g);
        }
        for (slot, (p, g)) in l2.params_and_grads().into_iter().enumerate() {
            opt.step(4 + slot, p, g);
        }
    }

    // Held-out evaluation on a shifted grid.
    let m = 512;
    let test_xs: Vec<f32> = (0..m)
        .map(|i| -0.995 + 1.99 * i as f32 / (m - 1) as f32)
        .collect();
    let tx = Matrix::from_vec(m, 1, test_xs.clone()).expect("grid is rectangular");
    let z = l1.forward(&tx);
    let h = match cfg.activation {
        Activation::Relu => ops::relu(&z),
        Activation::MaxK(k) => maxk_forward(&z, k).expect("validated").to_dense(),
    };
    let y = l2.forward(&h);
    let mut mse = 0.0f64;
    for (i, &tx_i) in test_xs.iter().enumerate() {
        let err = f64::from(y.get(i, 0)) - f64::from(tx_i * tx_i);
        mse += err * err;
    }
    ApproxResult {
        train_mse: final_train,
        test_mse: mse / m as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(hidden: usize, act: Activation) -> ApproxResult {
        approximate_square(&MlpConfig {
            hidden,
            activation: act,
            samples: 128,
            steps: 800,
            lr: 0.02,
            seed: 7,
        })
    }

    #[test]
    fn relu_mlp_approximates_square() {
        let r = quick(32, Activation::Relu);
        assert!(r.test_mse < 1e-3, "relu mse {}", r.test_mse);
    }

    #[test]
    fn maxk_mlp_approximates_square() {
        let r = quick(32, Activation::MaxK(8));
        assert!(r.test_mse < 5e-3, "maxk mse {}", r.test_mse);
    }

    #[test]
    fn error_decreases_with_width_maxk() {
        // Theorem 3.2's empirical face: wider MaxK nets approximate
        // better (Fig. 4(b)).
        let narrow = quick(4, Activation::MaxK(1));
        let wide = quick(64, Activation::MaxK(16));
        assert!(
            wide.test_mse < narrow.test_mse,
            "narrow {} vs wide {}",
            narrow.test_mse,
            wide.test_mse
        );
    }

    #[test]
    fn maxk_tracks_relu_at_same_width() {
        // Fig. 4(c): "ReLU and MaxK nonlinearity have a similar
        // approximation performance."
        let relu = quick(64, Activation::Relu);
        let maxk = quick(64, Activation::MaxK(16));
        assert!(
            maxk.test_mse < relu.test_mse * 50.0 + 1e-3,
            "maxk {} vs relu {}",
            maxk.test_mse,
            relu.test_mse
        );
    }

    #[test]
    #[should_panic(expected = "invalid MaxK k")]
    fn oversized_k_rejected() {
        let _ = approximate_square(&MlpConfig {
            hidden: 4,
            activation: Activation::MaxK(8),
            samples: 16,
            steps: 1,
            lr: 0.01,
            seed: 0,
        });
    }

    #[test]
    fn paper_presets() {
        let m = MlpConfig::paper_maxk(10);
        assert_eq!(m.hidden, 10);
        assert!(matches!(m.activation, Activation::MaxK(3)));
        let r = MlpConfig::paper_relu(10);
        assert!(matches!(r.activation, Activation::Relu));
    }
}
