//! Row-major `f32` matrix.

use crate::{Result, TensorError};
use rand::Rng;

/// A dense row-major `f32` matrix.
///
/// This is the feature-map container used throughout MaxK-GNN: node
/// embeddings are `N × dim` matrices whose rows are fetched/accumulated by
/// the sparse kernels.
///
/// # Example
///
/// ```
/// use maxk_tensor::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m.set(0, 1, 3.0);
/// assert_eq!(m.get(0, 1), 3.0);
/// assert_eq!(m.row(1), &[0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len() != rows *
    /// cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Xavier/Glorot-uniform initialisation: `U(-a, a)` with
    /// `a = sqrt(6 / (rows + cols))`.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let a = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The backing row-major slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Materialized transpose.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sets every element to zero (reuses the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Largest absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Returns `true` when all elements are finite (no NaN/inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.data().len(), 6);
        let f = Matrix::filled(1, 2, 7.0);
        assert_eq!(f.row(0), &[7.0, 7.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![0.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                rows: 2,
                cols: 2,
                len: 3
            }
        );
    }

    #[test]
    fn row_access_and_mutation() {
        let mut m = Matrix::zeros(3, 2);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_panics_out_of_bounds() {
        let m = Matrix::zeros(1, 1);
        let _ = m.get(0, 1);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = Matrix::xavier(64, 64, &mut rng);
        let a = (6.0f64 / 128.0).sqrt() as f32;
        assert!(m.data().iter().all(|&v| v.abs() <= a));
        assert!(m.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn max_abs_diff_and_finite() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = Matrix::filled(2, 2, 1.0);
        b.set(1, 1, 1.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-7);
        assert!(a.is_finite());
        let mut c = a.clone();
        c.set(0, 0, f32::NAN);
        assert!(!c.is_finite());
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = Matrix::filled(2, 2, 3.0);
        m.fill_zero();
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn frobenius_norm_matches_hand_calc() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
