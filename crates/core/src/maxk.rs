//! The MaxK nonlinearity: forward top-`k` selection and backward scatter.
//!
//! Forward (§3.1): for each node embedding keep the `k` largest elements
//! (by value, sign preserved — Fig. 5 shows negative survivors) and zero
//! the rest, emitting the [`Cbsr`] representation directly. Backward: the
//! feature gradient reuses the forward sparsity pattern, so the gradient
//! of the dense pre-activation is the dense expansion of the CBSR
//! gradient — [`Cbsr::to_dense`].
//!
//! Two selection kernels are provided:
//!
//! * [`maxk_forward`] — exact selection (sort-based), the reference;
//! * [`maxk_forward_pivot`] — the paper's pivot-bisection kernel (§5.3):
//!   bisect on the value range until exactly `k` elements exceed the
//!   pivot, falling back to exact selection if 10 iterations do not
//!   converge (ties). [`SelectionStats`] records the observed iteration
//!   counts, reproducing the paper's "usually converges in less than 10
//!   iterations" claim.

use crate::cbsr::{with_index, Cbsr};
use crate::{KernelError, Result};
use maxk_tensor::{parallel, Matrix};
use std::fmt::Debug;

/// Default iteration cap for the pivot kernel (the paper's bound).
pub const PIVOT_MAX_ITERS: usize = 10;

/// Aggregate behaviour of a pivot-selection launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Rows processed.
    pub rows: u64,
    /// Total bisection iterations across rows.
    pub total_iterations: u64,
    /// Rows that fell back to exact selection.
    pub fallbacks: u64,
}

impl SelectionStats {
    /// Mean bisection iterations per row.
    pub fn avg_iterations(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.rows as f64
        }
    }

    /// Fraction of rows that required the exact fallback.
    pub fn fallback_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.rows as f64
        }
    }
}

/// Applies the MaxK nonlinearity with exact (sort-based) selection.
///
/// Ties at the selection boundary are broken toward lower column indices,
/// deterministically.
///
/// # Errors
///
/// [`KernelError::KZero`] when `k == 0`; [`KernelError::KTooLarge`] when
/// `k > x.cols()`.
pub fn maxk_forward(x: &Matrix, k: usize) -> Result<Cbsr> {
    check_k(x, k)?;
    let (out, _) = select(x, k, Mode::Exact);
    Ok(out)
}

/// Applies the MaxK nonlinearity with the paper's pivot-bisection kernel.
///
/// Functionally identical to [`maxk_forward`] (the fallback guarantees
/// exactness); only the selection algorithm differs.
///
/// # Errors
///
/// Same conditions as [`maxk_forward`].
pub fn maxk_forward_pivot(x: &Matrix, k: usize) -> Result<(Cbsr, SelectionStats)> {
    check_k(x, k)?;
    let (out, stats) = select(
        x,
        k,
        Mode::Pivot {
            max_iters: PIVOT_MAX_ITERS,
        },
    );
    Ok((out, stats))
}

/// Backward of MaxK: scatters the CBSR gradient into the dense gradient of
/// the pre-activation (zero where the forward zeroed) —
/// [`Cbsr::to_dense`] under the name the gradient flow reads it by.
#[must_use]
pub fn maxk_backward(dy: &Cbsr) -> Matrix {
    dy.to_dense()
}

/// Gathers dense values at an existing CBSR sparsity pattern (testing and
/// ablation helper: `gather(dense(x), pattern) == x` when the pattern came
/// from `x`).
///
/// # Panics
///
/// Panics when `x` is not `pattern.num_rows() × pattern.dim_origin()`.
#[must_use]
pub fn gather_with_pattern(x: &Matrix, pattern: &Cbsr) -> Cbsr {
    let mut out = pattern.zeros_like_pattern();
    out.gather_axpy(1.0, x);
    out
}

fn check_k(x: &Matrix, k: usize) -> Result<()> {
    if k == 0 {
        return Err(KernelError::KZero);
    }
    if k > x.cols() {
        return Err(KernelError::KTooLarge { k, dim: x.cols() });
    }
    Ok(())
}

#[derive(Clone, Copy)]
enum Mode {
    Exact,
    Pivot { max_iters: usize },
}

fn select(x: &Matrix, k: usize, mode: Mode) -> (Cbsr, SelectionStats) {
    let mut out = Cbsr::zeros(x.rows(), x.cols(), k);
    let (sp_data, sp_index) = out.data_and_index_mut();
    let per_chunk = with_index!(sp_index, |index| fill_rows(x, k, sp_data, index, mode));
    let stats = SelectionStats {
        rows: x.rows() as u64,
        total_iterations: per_chunk.iter().map(|&(iters, _)| iters).sum(),
        fallbacks: per_chunk.iter().map(|&(_, fallbacks)| fallbacks).sum(),
    };
    (out, stats)
}

/// Fills matching row chunks of the two output arrays in parallel;
/// returns each chunk's `(bisection iterations, exact fallbacks)`.
fn fill_rows<I: Copy + Send + TryFrom<usize, Error: Debug>>(
    x: &Matrix,
    k: usize,
    sp_data: &mut [f32],
    sp_index: &mut [I],
    mode: Mode,
) -> Vec<(u64, u64)> {
    let dim = x.cols();
    parallel::run_chunks(
        x.rows(),
        8,
        (sp_data, sp_index),
        |(data, index), rows| {
            (
                parallel::split_front(data, rows * k),
                parallel::split_front(index, rows * k),
            )
        },
        |first, _, (data, index)| {
            let mut chosen = vec![false; dim];
            let mut order: Vec<u32> = (0..dim as u32).collect();
            let (mut iters, mut fallbacks) = (0u64, 0u64);
            let rows = data.chunks_mut(k).zip(index.chunks_mut(k));
            for (local, (vals, cols)) in rows.enumerate() {
                let row = x.row(first + local);
                let (used_fallback, n) = match mode {
                    Mode::Exact => {
                        exact_select(row, k, &mut chosen, &mut order);
                        (false, 0)
                    }
                    Mode::Pivot { max_iters } => {
                        pivot_select(row, k, max_iters, &mut chosen, &mut order)
                    }
                };
                iters += n as u64;
                fallbacks += u64::from(used_fallback);
                // Emit in ascending column order (format invariant).
                let mut t = 0;
                for (c, flag) in chosen.iter_mut().enumerate() {
                    if *flag {
                        vals[t] = row[c];
                        cols[t] = I::try_from(c).expect("column fits the index width");
                        t += 1;
                        *flag = false; // reset for next row
                    }
                }
                debug_assert_eq!(t, k);
            }
            (iters, fallbacks)
        },
    )
}

/// Exact top-k: sort candidate columns by (value desc, index asc).
fn exact_select(row: &[f32], k: usize, chosen: &mut [bool], order: &mut [u32]) {
    for (i, o) in order.iter_mut().enumerate() {
        *o = i as u32;
    }
    order.sort_unstable_by(|&a, &b| {
        let (va, vb) = (row[a as usize], row[b as usize]);
        vb.partial_cmp(&va)
            .expect("no NaN in features")
            .then(a.cmp(&b))
    });
    for &c in order.iter().take(k) {
        chosen[c as usize] = true;
    }
}

/// Pivot bisection (§5.3). Returns `(used_fallback, iterations)`.
fn pivot_select(
    row: &[f32],
    k: usize,
    max_iters: usize,
    chosen: &mut [bool],
    order: &mut [u32],
) -> (bool, usize) {
    let dim = row.len();
    if k == dim {
        chosen.iter_mut().for_each(|c| *c = true);
        return (false, 0);
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in row {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo == hi {
        // All elements equal: any k are "the top k"; ties break low-index.
        for c in chosen.iter_mut().take(k) {
            *c = true;
        }
        return (false, 0);
    }
    let mut iters = 0;
    while iters < max_iters {
        let pivot = 0.5 * (lo + hi);
        iters += 1;
        let count = row.iter().filter(|&&v| v > pivot).count();
        match count.cmp(&k) {
            std::cmp::Ordering::Equal => {
                for (c, &v) in chosen.iter_mut().zip(row) {
                    if v > pivot {
                        *c = true;
                    }
                }
                return (false, iters);
            }
            std::cmp::Ordering::Greater => lo = pivot,
            std::cmp::Ordering::Less => hi = pivot,
        }
    }
    // Ties (or slow convergence): exact fallback keeps the kernel correct.
    exact_select(row, k, chosen, order);
    (true, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(rows, cols, &mut rng)
    }

    fn chosen_columns(c: &Cbsr, r: usize) -> Vec<usize> {
        (0..c.k()).map(|t| c.index_at(r, t)).collect()
    }

    #[test]
    fn exact_keeps_largest_values() {
        let x = Matrix::from_vec(1, 6, vec![0.2, -0.2, 0.3, 0.4, 0.1, 0.1]).unwrap();
        let c = maxk_forward(&x, 3).unwrap();
        assert_eq!(chosen_columns(&c, 0), vec![0, 2, 3]); // paper Fig. 5 row 0
        assert_eq!(c.row_data(0), &[0.2, 0.3, 0.4]);
        c.validate().unwrap();
    }

    #[test]
    fn negative_survivors_keep_sign() {
        // Paper Fig. 5 row 2: [-0.4,-1.0,-0.9,0.7,0.9,-0.8] -> cols {0,3,4}
        let x = Matrix::from_vec(1, 6, vec![-0.4, -1.0, -0.9, 0.7, 0.9, -0.8]).unwrap();
        let c = maxk_forward(&x, 3).unwrap();
        assert_eq!(chosen_columns(&c, 0), vec![0, 3, 4]);
        assert_eq!(c.row_data(0), &[-0.4, 0.7, 0.9]);
    }

    /// `random`, with the last column of row 0 above Xavier's range so it
    /// is always selected: at `cols = 257` that is column 256, the one
    /// only the `u16` index width can name.
    fn random_wide(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut x = random(rows, cols, seed);
        x.set(0, cols - 1, 1.0);
        x
    }

    #[test]
    fn pivot_matches_exact_on_random_input() {
        // 256 is the last `u8` index width, 257 the first `u16` one.
        for dim in [64, 256, 257] {
            let x = random_wide(300, dim, 5);
            let exact = maxk_forward(&x, 16).unwrap();
            let (pivot, stats) = maxk_forward_pivot(&x, 16).unwrap();
            assert_eq!(exact, pivot);
            assert_eq!(exact.index_at(0, 15), dim - 1);
            exact.validate().unwrap();
            assert!(stats.avg_iterations() <= PIVOT_MAX_ITERS as f64);
            assert!(stats.rows == 300);
        }
    }

    #[test]
    fn pivot_converges_quickly_on_gaussian_features() {
        // The paper: "usually converges ... in less than 10 iterations"
        // for normally-distributed feature maps.
        let x = random(500, 256, 6);
        let (_, stats) = maxk_forward_pivot(&x, 32).unwrap();
        assert!(
            stats.fallback_rate() < 0.5,
            "fallback rate {}",
            stats.fallback_rate()
        );
        assert!(stats.avg_iterations() < 10.0);
    }

    #[test]
    fn ties_fall_back_and_stay_exact() {
        // A tie straddling the selection boundary can never bisect to
        // count == k: [1,1,1,1,0,0,0,0] with k = 2.
        let mut x = Matrix::zeros(10, 8);
        for r in 0..10 {
            for c in 0..4 {
                x.set(r, c, 1.0);
            }
        }
        let exact = maxk_forward(&x, 2).unwrap();
        let (pivot, stats) = maxk_forward_pivot(&x, 2).unwrap();
        assert_eq!(exact, pivot);
        assert_eq!(stats.fallbacks, 10);
        // Low-index tie-breaking.
        assert_eq!(chosen_columns(&exact, 0), vec![0, 1]);
    }

    #[test]
    fn all_equal_rows_use_shortcut_without_fallback() {
        let x = Matrix::filled(10, 8, 1.0);
        let exact = maxk_forward(&x, 3).unwrap();
        let (pivot, stats) = maxk_forward_pivot(&x, 3).unwrap();
        assert_eq!(exact, pivot);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.total_iterations, 0);
        assert_eq!(chosen_columns(&exact, 0), vec![0, 1, 2]);
    }

    #[test]
    fn k_equals_dim_is_identity_pattern() {
        let x = random(5, 8, 9);
        let c = maxk_forward(&x, 8).unwrap();
        assert_eq!(c.to_dense(), x);
        let (p, _) = maxk_forward_pivot(&x, 8).unwrap();
        assert_eq!(p.to_dense(), x);
    }

    #[test]
    fn k_validation() {
        let x = random(2, 4, 1);
        assert_eq!(maxk_forward(&x, 0).unwrap_err(), KernelError::KZero);
        assert_eq!(
            maxk_forward(&x, 5).unwrap_err(),
            KernelError::KTooLarge { k: 5, dim: 4 }
        );
    }

    #[test]
    fn pivot_kernel_validates_k_edges_identically() {
        // Both selection kernels reject the same edge cases with the same
        // errors — no panic, no silent clamping to the valid range.
        let x = random(2, 4, 2);
        assert_eq!(maxk_forward_pivot(&x, 0).unwrap_err(), KernelError::KZero);
        assert_eq!(
            maxk_forward_pivot(&x, 5).unwrap_err(),
            KernelError::KTooLarge { k: 5, dim: 4 }
        );
        // k == dim is the inclusive upper edge: accepted, identity pattern.
        assert!(maxk_forward_pivot(&x, 4).is_ok());
        assert!(maxk_forward(&x, 4).is_ok());
        // k == 1 is the inclusive lower edge: accepted.
        assert!(maxk_forward(&x, 1).is_ok());
    }

    #[test]
    fn k_validation_on_degenerate_shapes() {
        // Zero-column matrices reject every k; zero-row matrices accept
        // valid k and produce an empty CBSR rather than clamping.
        let empty_cols = Matrix::zeros(3, 0);
        assert_eq!(
            maxk_forward(&empty_cols, 0).unwrap_err(),
            KernelError::KZero
        );
        assert_eq!(
            maxk_forward(&empty_cols, 1).unwrap_err(),
            KernelError::KTooLarge { k: 1, dim: 0 }
        );
        let empty_rows = Matrix::zeros(0, 4);
        let c = maxk_forward(&empty_rows, 2).unwrap();
        assert_eq!(c.num_rows(), 0);
        assert_eq!(c.sp_data().len(), 0);
    }

    #[test]
    fn topk_sum_dominates_any_other_subset() {
        let x = random(50, 32, 11);
        let c = maxk_forward(&x, 8).unwrap();
        for r in 0..50 {
            let top_sum: f32 = c.row_data(r).iter().sum();
            // Compare against the sum of the first 8 columns (arbitrary
            // subset).
            let other: f32 = x.row(r)[..8].iter().sum();
            assert!(top_sum >= other - 1e-5);
        }
    }

    #[test]
    fn backward_scatters_through_pattern() {
        for dim in [16, 256, 257] {
            let x = random_wide(20, dim, 13);
            let c = maxk_forward(&x, 4).unwrap();
            assert_eq!(c.index_at(0, 3), dim - 1);
            let mut dy = c.zeros_like_pattern();
            for v in dy.sp_data_mut().iter_mut() {
                *v = 2.0;
            }
            let dense = maxk_backward(&dy);
            assert_eq!(dense, dy.to_dense());
            assert_eq!(dense.shape(), (20, dim));
            for r in 0..20 {
                let nz: Vec<usize> = (0..dim).filter(|&cidx| dense.get(r, cidx) != 0.0).collect();
                assert_eq!(nz, chosen_columns(&c, r));
                for &cidx in &nz {
                    assert_eq!(dense.get(r, cidx), 2.0);
                }
            }
        }
    }

    #[test]
    fn gather_roundtrip() {
        for dim in [24, 256, 257] {
            let x = random_wide(30, dim, 17);
            let c = maxk_forward(&x, 6).unwrap();
            assert_eq!(c.index_at(0, 5), dim - 1);
            let regathered = gather_with_pattern(&x, &c);
            assert_eq!(regathered, c);
        }
    }

    #[test]
    #[should_panic(expected = "no NaN in features")]
    fn nan_features_panic_loudly() {
        // NaN in the feature map is a training bug; the selection kernel
        // surfaces it instead of silently producing garbage order.
        let mut x = Matrix::zeros(2, 4);
        x.set(1, 2, f32::NAN);
        let _ = maxk_forward(&x, 2);
    }

    #[test]
    fn infinite_values_are_selected_first() {
        let mut x = Matrix::zeros(1, 4);
        x.set(0, 3, f32::INFINITY);
        x.set(0, 1, f32::NEG_INFINITY);
        let c = maxk_forward(&x, 1).unwrap();
        assert_eq!(c.index_at(0, 0), 3);
    }

    #[test]
    fn single_row_single_column() {
        let x = Matrix::filled(1, 1, 42.0);
        let c = maxk_forward(&x, 1).unwrap();
        assert_eq!(c.row_data(0), &[42.0]);
        let (p, stats) = maxk_forward_pivot(&x, 1).unwrap();
        assert_eq!(p, c);
        assert_eq!(stats.rows, 1);
    }

    #[test]
    fn forward_to_dense_equals_masked_input() {
        let x = random(40, 32, 19);
        let c = maxk_forward(&x, 8).unwrap();
        let dense = c.to_dense();
        for r in 0..40 {
            let mut nonzero = 0;
            for col in 0..32 {
                let v = dense.get(r, col);
                if v != 0.0 {
                    assert_eq!(v, x.get(r, col));
                    nonzero += 1;
                }
            }
            assert!(nonzero <= 8); // could be < if a kept value is exactly 0
        }
    }
}
