//! First-order optimizers.
//!
//! The paper trains with standard full-batch gradient descent (Table 3
//! gives per-dataset learning rates). [`Adam`] is the default used by the
//! reproduction's trainer; [`Sgd`] exists for ablations and tests.

use std::collections::HashMap;

/// A stateful optimizer updating parameter slices in place.
///
/// Parameter tensors are identified by an opaque `param_id` the caller
/// keeps stable across steps (the trainer enumerates its layers).
pub trait Optimizer {
    /// Applies one update to `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `params.len() != grads.len()`.
    fn step(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]);

    /// Advances the shared timestep (call once per optimization step,
    /// before updating the first tensor).
    fn next_step(&mut self) {}

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<usize, Vec<f32>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// SGD with heavy-ball momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "sgd: param/grad length mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= self.lr * g;
            }
            return;
        }
        let v = self
            .velocity
            .entry(param_id)
            .or_insert_with(|| vec![0.0; params.len()]);
        assert_eq!(
            v.len(),
            params.len(),
            "sgd: param size changed across steps"
        );
        for ((p, &g), vel) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
            *vel = self.momentum * *vel + g;
            *p -= self.lr * *vel;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    moments: HashMap<usize, (Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Adam with the standard `(β1, β2, ε) = (0.9, 0.999, 1e-8)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn next_step(&mut self) {
        self.t += 1;
    }

    fn step(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "adam: param/grad length mismatch"
        );
        if self.t == 0 {
            self.t = 1; // tolerate callers that skip next_step()
        }
        let (m, v) = self
            .moments
            .entry(param_id)
            .or_insert_with(|| (vec![0.0; params.len()], vec![0.0; params.len()]));
        assert_eq!(
            m.len(),
            params.len(),
            "adam: param size changed across steps"
        );
        let b1t = 1.0 - self.beta1.powi(self.t);
        let b2t = 1.0 - self.beta2.powi(self.t);
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
            let mhat = m[i] / b1t;
            let vhat = v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = x² with each optimizer; both must converge.
    fn minimise<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut x = vec![5.0f32];
        for _ in 0..steps {
            opt.next_step();
            let g = vec![2.0 * x[0]];
            opt.step(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let x = minimise(&mut opt, 100);
        assert!(x.abs() < 1e-3, "sgd left x = {x}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::with_momentum(0.02, 0.9);
        let x = minimise(&mut opt, 200);
        assert!(x.abs() < 1e-2, "momentum sgd left x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let x = minimise(&mut opt, 200);
        assert!(x.abs() < 1e-2, "adam left x = {x}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam update ≈ lr·sign(g).
        let mut opt = Adam::new(0.01);
        let mut x = vec![1.0f32];
        opt.next_step();
        opt.step(0, &mut x, &[123.0]);
        assert!(
            (x[0] - (1.0 - 0.01)).abs() < 1e-4,
            "x after one step: {}",
            x[0]
        );
    }

    #[test]
    fn optimizers_track_separate_tensors() {
        let mut opt = Adam::new(0.1);
        let mut a = vec![1.0f32];
        let mut b = vec![-1.0f32];
        for _ in 0..50 {
            opt.next_step();
            let (ga, gb) = (vec![2.0 * a[0]], vec![2.0 * b[0]]);
            opt.step(0, &mut a, &ga);
            opt.step(1, &mut b, &gb);
        }
        assert!(a[0].abs() < 0.05 && b[0].abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sgd_checks_lengths() {
        let mut opt = Sgd::new(0.1);
        let mut x = vec![0.0f32; 2];
        opt.step(0, &mut x, &[1.0]);
    }

    #[test]
    fn learning_rate_accessors() {
        assert_eq!(Sgd::new(0.5).learning_rate(), 0.5);
        assert_eq!(Adam::new(0.25).learning_rate(), 0.25);
    }
}
