//! Fully-connected layer with explicit gradients.

use crate::matrix::Matrix;
use crate::ops;
use rand::Rng;

/// A dense layer `y = x · W + b` with stored gradients.
///
/// This is the `Linear1`/`Linear2` block of the paper's SAGEConv diagram
/// (Fig. 1(b)). Gradients accumulate until [`Linear::zero_grad`] and are
/// consumed by an [`Optimizer`](crate::Optimizer).
///
/// # Example
///
/// ```
/// use maxk_tensor::{Linear, Matrix};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let x = Matrix::zeros(3, 4);
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), (3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix, // in_dim × out_dim
    bias: Vec<f32>, // out_dim
    grad_weight: Matrix,
    grad_bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Linear {
            weight: Matrix::xavier(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: vec![0.0; out_dim],
        }
    }

    /// Rebuilds a layer from captured parameters (zeroed gradients) — the
    /// deserialization path of model snapshots.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Vec<f32>) -> Self {
        assert_eq!(
            bias.len(),
            weight.cols(),
            "bias length must match weight columns"
        );
        let (in_dim, out_dim) = weight.shape();
        Linear {
            weight,
            bias,
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Forward pass: `y = x · W + b`.
    ///
    /// # Panics
    ///
    /// Panics when `x.cols() != in_dim`.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = ops::matmul(x, &self.weight);
        ops::add_bias(&mut y, &self.bias);
        y
    }

    /// Backward pass: [`Linear::accumulate_grads`], then forms and returns
    /// `dx = dy · Wᵀ`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `x`, `dy` and the layer.
    #[must_use]
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        self.accumulate_grads(x, dy);
        ops::matmul_a_bt(dy, &self.weight)
    }

    /// The parameter half of [`Linear::backward`]: accumulates
    /// `dW = xᵀ·dy` and `db = Σ dy`, and forms no `dx` — for a layer whose
    /// input needs no gradient.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `x`, `dy` and the layer.
    pub fn accumulate_grads(&mut self, x: &Matrix, dy: &Matrix) {
        assert_eq!(x.rows(), dy.rows(), "linear backward: batch mismatch");
        assert_eq!(
            dy.cols(),
            self.out_dim(),
            "linear backward: out_dim mismatch"
        );
        let dw = ops::matmul_at_b(x, dy);
        ops::add_assign(&mut self.grad_weight, &dw);
        for (g, v) in self.grad_bias.iter_mut().zip(ops::column_sums(dy)) {
            *g += v;
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Parameter/gradient pairs for the optimizer, weights first.
    pub fn params_and_grads(&mut self) -> [(&mut [f32], &[f32]); 2] {
        let Linear {
            weight,
            bias,
            grad_weight,
            grad_bias,
        } = self;
        [
            (weight.data_mut(), grad_weight.data()),
            (bias.as_mut_slice(), grad_bias.as_slice()),
        ]
    }

    /// Total number of learnable scalars.
    pub fn num_params(&self) -> usize {
        self.weight.data().len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(3, 2, &mut rng);
        layer.bias[0] = 1.0;
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (4, 2));
        for r in 0..4 {
            assert_eq!(y.get(r, 0), 1.0);
            assert_eq!(y.get(r, 1), 0.0);
        }
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let dy = Matrix::from_vec(1, 2, vec![0.5, -1.0]).unwrap();
        let _ = layer.backward(&x, &dy);
        // dW = xᵀ dy
        assert!((layer.grad_weight.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((layer.grad_weight.get(1, 1) + 2.0).abs() < 1e-6);
        assert_eq!(layer.grad_bias, vec![0.5, -1.0]);
        // Accumulation on second call; the params-only path adds the same.
        layer.accumulate_grads(&x, &dy);
        assert!((layer.grad_weight.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(layer.grad_bias, vec![1.0, -2.0]);
        layer.zero_grad();
        assert_eq!(layer.grad_bias, vec![0.0, 0.0]);
        assert_eq!(layer.grad_weight.get(0, 0), 0.0);
    }

    #[test]
    fn backward_dx_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::xavier(2, 3, &mut rng);
        // Scalar objective: sum of outputs. Then dy = ones and dx should
        // match (f(x+h) - f(x-h)) / 2h elementwise.
        let dy = Matrix::filled(2, 2, 1.0);
        let dx = layer.backward(&x, &dy);
        let h = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + h);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - h);
                let fp: f32 = layer.forward(&xp).data().iter().sum();
                let fm: f32 = layer.forward(&xm).data().iter().sum();
                let fd = (fp - fm) / (2.0 * h);
                assert!(
                    (fd - dx.get(r, c)).abs() < 1e-2,
                    "finite diff {fd} vs analytic {}",
                    dx.get(r, c)
                );
            }
        }
    }

    #[test]
    fn from_parts_restores_forward_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let original = Linear::new(4, 3, &mut rng);
        let rebuilt = Linear::from_parts(original.weight().clone(), original.bias().to_vec());
        let x = Matrix::xavier(6, 4, &mut rng);
        assert_eq!(original.forward(&x), rebuilt.forward(&x));
        assert_eq!(rebuilt.num_params(), original.num_params());
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn from_parts_rejects_bias_mismatch() {
        let _ = Linear::from_parts(Matrix::zeros(2, 3), vec![0.0; 2]);
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Linear::new(5, 3, &mut rng);
        assert_eq!(layer.num_params(), 5 * 3 + 3);
    }
}
