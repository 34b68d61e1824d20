//! The MaxK nonlinearity: forward top-`k` selection and backward scatter.
//!
//! Forward (§3.1): for each node embedding keep the `k` largest elements
//! (by value, sign preserved — Fig. 5 shows negative survivors) and zero
//! the rest, emitting the [`Cbsr`] representation directly. Backward: the
//! feature gradient reuses the forward sparsity pattern, so the gradient
//! of the dense pre-activation is the dense expansion of the CBSR
//! gradient — [`Cbsr::to_dense`].
//!
//! One selection kernel serves training, the planner and the layer-0
//! hoist: §5.3's pivot bisection, made exact by running it on integer
//! keys ([`maxk_forward`]; [`maxk_forward_pivot`] is the same call and
//! also returns its [`SelectionStats`]).
//!
//! * **Key.** Each value maps to a `u32` whose unsigned order is the
//!   float order: `v + 0.0` (so −0.0 and +0.0 share a key), then flip the
//!   sign bit of a non-negative pattern and every bit of a negative one.
//! * **Invariant.** The `k`-th largest key `t` stays inside `[lo, hi]`:
//!   `count(key ≥ lo) ≥ k ≥ count(key > hi)`, starting from the row's
//!   min and max. Each pass counts `key ≥ mid` for some `lo < mid ≤ hi`
//!   and moves one end, until `lo == hi` or exactly `k` keys lie above
//!   `hi`. The first [`PIVOT_MAX_ITERS`] midpoints are §5.3's — halfway
//!   between the two ends as *values* — the rest halve the key interval,
//!   so a row ends within `PIVOT_MAX_ITERS + 32` passes on any input.
//!   Any midpoint inside the interval is correct: float arithmetic
//!   decides how many passes run, never which columns win.
//! * **Ties.** One ascending pass then emits every `key > hi` and the
//!   first `k − count(key > hi)` columns with `key == hi`: equal values
//!   go to the lower column, and CBSR rows come out column-ascending.
//! * **NaN.** Every NaN, either sign, takes the top key — above +∞,
//!   lower column first — so it is selected and reaches the loss or the
//!   logits, where the `is_finite` guards see it. No input panics.

use crate::cbsr::{with_index, Cbsr};
use crate::{KernelError, Result};
use maxk_tensor::{parallel, Matrix};
use std::fmt::Debug;

/// Bisection passes that take §5.3's value-space midpoint (the paper's
/// iteration bound); later passes halve the key interval instead.
pub const PIVOT_MAX_ITERS: usize = 10;

/// Aggregate behaviour of a selection launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Rows processed.
    pub rows: u64,
    /// Total bisection passes across rows.
    pub total_iterations: u64,
    /// Rows that needed more than [`PIVOT_MAX_ITERS`] passes (ties or a
    /// wide value range); they finish on key-space midpoints.
    pub fallbacks: u64,
}

impl SelectionStats {
    /// Mean bisection passes per row.
    pub fn avg_iterations(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.rows as f64
        }
    }

    /// Fraction of rows that needed more than [`PIVOT_MAX_ITERS`] passes.
    pub fn fallback_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.rows as f64
        }
    }
}

/// Applies the MaxK nonlinearity: exact top-`k` per row, equal values
/// broken toward lower column indices, deterministically.
///
/// # Errors
///
/// [`KernelError::KZero`] when `k == 0`; [`KernelError::KTooLarge`] when
/// `k > x.cols()`.
pub fn maxk_forward(x: &Matrix, k: usize) -> Result<Cbsr> {
    maxk_forward_pivot(x, k).map(|(out, _)| out)
}

/// [`maxk_forward`], also returning how many bisection passes it ran.
///
/// # Errors
///
/// Same conditions as [`maxk_forward`].
pub fn maxk_forward_pivot(x: &Matrix, k: usize) -> Result<(Cbsr, SelectionStats)> {
    if k == 0 {
        return Err(KernelError::KZero);
    }
    if k > x.cols() {
        return Err(KernelError::KTooLarge { k, dim: x.cols() });
    }
    let mut out = Cbsr::zeros(x.rows(), x.cols(), k);
    let (sp_data, sp_index) = out.data_and_index_mut();
    let per_chunk = with_index!(sp_index, |index| fill_rows(x, k, sp_data, index));
    let stats = SelectionStats {
        rows: x.rows() as u64,
        total_iterations: per_chunk.iter().map(|&(iters, _)| iters).sum(),
        fallbacks: per_chunk.iter().map(|&(_, fallbacks)| fallbacks).sum(),
    };
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

/// Fills matching row blocks of the two output arrays in parallel;
/// returns each block's `(bisection passes, rows past PIVOT_MAX_ITERS)`.
fn fill_rows<I: Copy + Send + TryFrom<usize, Error: Debug>>(
    x: &Matrix,
    k: usize,
    sp_data: &mut [f32],
    sp_index: &mut [I],
) -> Vec<(u64, u64)> {
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
            // Up to 256 columns (every hidden width here) the keys live on
            // the stack, so a block allocates nothing.
            let mut on_stack = [0u32; 256];
            let mut on_heap = Vec::new();
            let keys = match on_stack.get_mut(..x.cols()) {
                Some(keys) => keys,
                None => {
                    on_heap.resize(x.cols(), 0);
                    &mut on_heap[..]
                }
            };
            let (mut iters, mut fallbacks) = (0u64, 0u64);
            let rows = data.chunks_mut(k).zip(index.chunks_mut(k));
            for (local, (vals, cols)) in rows.enumerate() {
                let n = select_row(x.row(first + local), keys, vals, cols);
                iters += n as u64;
                fallbacks += u64::from(n > PIVOT_MAX_ITERS);
            }
            (iters, fallbacks)
        },
    )
}

/// The key of a value: unsigned key order is float order, −0.0 and +0.0
/// share a key, every NaN takes the top one.
#[inline]
fn key_of(v: f32) -> u32 {
    let bits = (v + 0.0).to_bits();
    let key = bits ^ (((bits as i32) >> 31) as u32 | 0x8000_0000);
    if v.is_nan() {
        u32::MAX
    } else {
        key
    }
}

/// A value whose key is `key` (a NaN for keys above +∞'s).
#[inline]
fn value_of(key: u32) -> f32 {
    let flip = if key >> 31 == 1 {
        0x8000_0000
    } else {
        u32::MAX
    };
    f32::from_bits(key ^ flip)
}

/// Selects the top `vals.len()` of `row` into `(vals, cols)`, ascending
/// by column (format invariant); `keys` is `row.len()` scratch. Returns
/// the bisection passes taken. See the module docs for the invariant.
fn select_row<I: TryFrom<usize, Error: Debug>>(
    row: &[f32],
    keys: &mut [u32],
    vals: &mut [f32],
    cols: &mut [I],
) -> usize {
    let k = vals.len();
    let (mut lo, mut hi) = (u32::MAX, 0);
    for (key, &v) in keys.iter_mut().zip(row) {
        *key = key_of(v);
        lo = lo.min(*key);
        hi = hi.max(*key);
    }
    // `above == count(key > hi)`.
    let (mut above, mut iters) = (0, 0);
    while lo < hi && above < k {
        let mid = if iters < PIVOT_MAX_ITERS {
            key_of(0.5 * (value_of(lo) + value_of(hi))).clamp(lo + 1, hi)
        } else {
            lo + (hi - lo).div_ceil(2)
        };
        iters += 1;
        let count = keys.iter().map(|&key| u32::from(key >= mid)).sum::<u32>() as usize;
        if count > k {
            lo = mid;
        } else {
            (hi, above) = (mid - 1, count);
        }
    }
    let mut ties = k - above;
    let mut t = 0;
    for (c, (&key, &v)) in keys.iter().zip(row).enumerate() {
        if key > hi || (key == hi && ties > 0) {
            ties -= usize::from(key == hi);
            vals[t] = v;
            cols[t] = I::try_from(c).expect("column fits the index width");
            t += 1;
        }
    }
    debug_assert_eq!(t, k);
    iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_tensor::ops;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(rows, cols, &mut rng)
    }

    fn chosen_columns(c: &Cbsr, r: usize) -> Vec<usize> {
        (0..c.k()).map(|t| c.index_at(r, t)).collect()
    }

    /// The reference the kernel replaced: sort the columns by (value
    /// desc, column asc), keep the first `k`, emit them column-ascending
    /// as `(column, value bits)`. NaN-free rows only.
    fn sort_oracle(row: &[f32], k: usize) -> Vec<(usize, u32)> {
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            let by_value = row[b]
                .partial_cmp(&row[a])
                .expect("oracle rows hold no NaN");
            by_value.then(a.cmp(&b))
        });
        order.truncate(k);
        order.sort_unstable();
        order.into_iter().map(|c| (c, row[c].to_bits())).collect()
    }

    fn selected(c: &Cbsr, r: usize) -> Vec<(usize, u32)> {
        let bits = c.row_data(r).iter().map(|v| v.to_bits());
        chosen_columns(c, r).into_iter().zip(bits).collect()
    }

    /// Six rows, one per value mix the kernel must order exactly.
    fn mixed_rows(dim: usize, rng: &mut StdRng) -> Matrix {
        let mut x = Matrix::zeros(6, dim);
        for c in 0..dim {
            let uniform = rng.gen_range(-1.0f32..1.0);
            let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
            let subnormal = sign * f32::from_bits(rng.gen_range(0u32..0x0080_0000));
            let infinite = [f32::INFINITY, f32::NEG_INFINITY, uniform][rng.gen_range(0..3usize)];
            x.set(0, c, uniform);
            x.set(1, c, [-1.0, 0.5, 0.5, 1.0][rng.gen_range(0..4usize)]);
            x.set(2, c, [0.0, -0.0, 1e-3 * uniform][rng.gen_range(0..3usize)]);
            x.set(3, c, infinite);
            x.set(4, c, subnormal);
            x.set(5, c, [uniform, 0.5, -0.0, infinite, subnormal][c % 5]);
        }
        x
    }

    #[test]
    fn selection_matches_the_sort_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(24);
        for dim in [1, 2, 7, 64, 128, 256, 257] {
            for k in [1, 2, 5, 16, 64, dim] {
                if k > dim {
                    continue;
                }
                let x = mixed_rows(dim, &mut rng);
                let (c, stats) = maxk_forward_pivot(&x, k).unwrap();
                c.validate().unwrap();
                assert!(stats.total_iterations <= 6 * (PIVOT_MAX_ITERS as u64 + 32));
                for r in 0..x.rows() {
                    let expected = sort_oracle(x.row(r), k);
                    assert_eq!(selected(&c, r), expected, "dim {dim} k {k} row {r}");
                }
            }
        }
    }

    #[test]
    fn bisection_ends_within_the_pass_bound_on_adversarial_ranges() {
        let dim = 254;
        // 2⁻¹²⁶ … 2¹²⁷: every normal binade once.
        let geometric: Vec<f32> = (0..dim).map(|c| 2f32.powi(c as i32 - 126)).collect();
        let mut infinities = geometric.clone();
        infinities[3] = f32::NEG_INFINITY;
        infinities[200] = f32::INFINITY;
        let mut one_distinct = vec![-7.5; dim];
        one_distinct[100] = -7.25;
        let all_equal = vec![3.0; dim];
        for row in [geometric, infinities, one_distinct, all_equal] {
            let x = Matrix::from_vec(1, dim, row).unwrap();
            for k in [1, 2, 16, 127, 253, 254] {
                let (c, stats) = maxk_forward_pivot(&x, k).unwrap();
                c.validate().unwrap();
                assert!(
                    stats.total_iterations <= PIVOT_MAX_ITERS as u64 + 32,
                    "k {k}: {} passes",
                    stats.total_iterations
                );
                assert_eq!(selected(&c, 0), sort_oracle(x.row(0), k), "k {k}");
            }
        }
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
        // count == k: [1,1,1,1,0,0,0,0] with k = 2. `fallbacks` counts
        // the rows that needed more than `PIVOT_MAX_ITERS` passes; they
        // finish on key-space midpoints, no sort runs.
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
    fn input_gradient_over_the_scatter_is_bitwise_the_dot_product() {
        // `Linear`'s `dX = dZ · Wᵀ` over `maxk_backward`'s scatter
        // (`Cbsr::to_dense`): the zero-skipping row kernel against
        // `matmul_reference` on `Wᵀ`, whose every element is the
        // strict-order dot product of row `i` of `dZ` with row `j` of `W`.
        let w = random(96, 128, 29);
        for k in [1, 16, 128] {
            let dz = maxk_backward(&maxk_forward(&random(300, 128, 31), k).unwrap());
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&ops::matmul_a_bt(&dz, &w)),
                bits(&ops::matmul_reference(&dz, &w.transposed())),
                "k = {k}"
            );
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
    fn nan_is_selected_above_infinity_and_stays_in_its_row() {
        // NaN in the feature map is a training bug; the kernel carries it
        // to the loss / logits, where the `is_finite` guards report it,
        // instead of panicking inside a worker thread.
        let mut x = random(4, 8, 23);
        let clean = maxk_forward(&x, 3).unwrap();
        x.set(1, 6, -f32::NAN);
        x.set(1, 5, f32::INFINITY);
        x.set(1, 2, f32::NAN);
        x.set(1, 0, f32::NAN);
        let (c, stats) = maxk_forward_pivot(&x, 2).unwrap();
        c.validate().unwrap();
        assert!(stats.total_iterations <= 4 * (PIVOT_MAX_ITERS as u64 + 32));
        // Three NaNs outrank +∞; the two lower columns win.
        assert_eq!(chosen_columns(&c, 1), vec![0, 2]);
        assert!(c.row_data(1).iter().all(|v| v.is_nan()));
        let c = maxk_forward(&x, 4).unwrap();
        assert_eq!(chosen_columns(&c, 1), vec![0, 2, 5, 6]);
        // Every other row is what it was without the NaN.
        let c = maxk_forward(&x, 3).unwrap();
        for r in [0, 2, 3] {
            assert_eq!(selected(&c, r), selected(&clean, r));
        }
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
