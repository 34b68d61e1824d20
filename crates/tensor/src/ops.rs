//! Threaded dense matrix operations.
//!
//! These implement the dense parts of a GNN layer (the linear transforms of
//! Fig. 1(b) and their gradients). All entry points are shape-checked with
//! panics (the layer code controls all shapes statically); the `try_`
//! variants return [`TensorError`](crate::TensorError) for callers handling
//! untrusted shapes.

use crate::matrix::Matrix;
use crate::parallel;

/// `out[t] += e · x[t]` over the shorter slice — the dense row update
/// under every row-wise product here and in `maxk-core`.
#[inline]
pub fn axpy(out: &mut [f32], e: f32, x: &[f32]) {
    for (o, &xv) in out.iter_mut().zip(x) {
        *o += e * xv;
    }
}

/// `C = A · B` for `A: n×k`, `B: k×m`.
///
/// Row-parallel ikj loop: each output row accumulates scaled rows of `B`,
/// keeping all accesses sequential in memory.
///
/// # Panics
///
/// Panics when `A.cols() != B.rows()`.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions differ");
    let (n, k) = a.shape();
    let m = b.cols();
    let mut out = Matrix::zeros(n, m);
    let a_data = a.data();
    let b_data = b.data();
    parallel::par_rows_mut(out.data_mut(), m, 8, |first_row, chunk| {
        for (local, out_row) in chunk.chunks_mut(m).enumerate() {
            let i = first_row + local;
            let a_row = &a_data[i * k..(i + 1) * k];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik != 0.0 {
                    axpy(out_row, aik, &b_data[kk * m..(kk + 1) * m]);
                }
            }
        }
    });
    out
}

/// `C = Aᵀ · B` for `A: n×k`, `B: n×m`, producing `k×m`.
///
/// This is the weight-gradient contraction `dW = Xᵀ · dY`. Parallelized by
/// per-thread partial accumulators reduced at the end (the contraction axis
/// is the long `n` axis).
///
/// # Panics
///
/// Panics when `A.rows() != B.rows()`.
#[must_use]
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b: row counts differ");
    let (n, k) = a.shape();
    let m = b.cols();
    let a_data = a.data();
    let b_data = b.data();
    let partials = parallel::par_row_map(n, 64, |lo, hi| {
        let mut acc = vec![0f32; k * m];
        for i in lo..hi {
            let a_row = &a_data[i * k..(i + 1) * k];
            let b_row = &b_data[i * m..(i + 1) * m];
            for (kk, &av) in a_row.iter().enumerate() {
                if av != 0.0 {
                    axpy(&mut acc[kk * m..(kk + 1) * m], av, b_row);
                }
            }
        }
        acc
    });
    let mut out = vec![0f32; k * m];
    for p in partials {
        for (o, v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
    Matrix::from_vec(k, m, out).expect("shape computed above")
}

/// `C = A · Bᵀ` for `A: n×m`, `B: k×m`, producing `n×k`.
///
/// This is the input-gradient contraction `dX = dY · Wᵀ`: [`matmul`] against
/// `Bᵀ`, so each output row accumulates `axpy`s over rows of `Bᵀ` and
/// skips `A`'s zeros — a MaxK layer's `dY` has `k` of `dim` nonzero per
/// row, so its `dX` costs `k/dim` of a dense one.
///
/// Every output element sums the same products, in the same order, from
/// `0.0` as a dot product of row `i` of `A` with row `j` of `B` would; the
/// only terms dropped are exact-zero products, so the result is bitwise
/// that dot product's. The one divergence: a `0 · ∞` or `0 · NaN` term is
/// skipped, as in `matmul`, so a non-finite weight meeting a zero gradient
/// no longer yields NaN.
///
/// # Panics
///
/// Panics when `A.cols() != B.cols()`.
#[must_use]
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt: column counts differ");
    matmul(a, &b.transposed())
}

/// Adds bias vector `b` (length `m`) to every row of `x` in place.
///
/// # Panics
///
/// Panics when `b.len() != x.cols()`.
pub fn add_bias(x: &mut Matrix, b: &[f32]) {
    assert_eq!(b.len(), x.cols(), "bias length mismatch");
    let m = x.cols();
    parallel::par_rows_mut(x.data_mut(), m, 64, |_, chunk| {
        for row in chunk.chunks_mut(m) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
    });
}

/// Column-wise sum of `x` (the bias gradient `db = Σ_rows dY`).
#[must_use]
pub fn column_sums(x: &Matrix) -> Vec<f32> {
    let m = x.cols();
    let data = x.data();
    let partials = parallel::par_row_map(x.rows(), 128, |lo, hi| {
        let mut acc = vec![0f32; m];
        for i in lo..hi {
            for (a, &v) in acc.iter_mut().zip(&data[i * m..(i + 1) * m]) {
                *a += v;
            }
        }
        acc
    });
    let mut out = vec![0f32; m];
    for p in partials {
        for (o, v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
    out
}

/// Fewest elements one block of an elementwise pass gets: below this, a
/// helper thread's start costs more than the block's work.
const ELEMENTWISE_MIN_BLOCK: usize = 1 << 16;

/// Runs `f(at, block)` over `out`'s row blocks in parallel, where `block`
/// is `out.data()[at..at + block.len()]`. Every element is computed on
/// its own, so the result is the same at any block count.
fn par_elements(out: &mut Matrix, f: impl Fn(usize, &mut [f32]) + Sync) {
    let cols = out.cols();
    if out.data().is_empty() {
        return;
    }
    let min_rows = ELEMENTWISE_MIN_BLOCK.div_ceil(cols);
    parallel::par_rows_mut(out.data_mut(), cols, min_rows, |first_row, block| {
        f(first_row * cols, block);
    });
}

/// Element-wise `y = max(x, 0)` (a fresh matrix).
#[must_use]
pub fn relu(x: &Matrix) -> Matrix {
    let src = x.data();
    let mut y = Matrix::zeros(x.rows(), x.cols());
    par_elements(&mut y, |at, out| {
        for (o, &v) in out.iter_mut().zip(&src[at..]) {
            *o = if v < 0.0 { 0.0 } else { v };
        }
    });
    y
}

/// Backward of ReLU: `dx = dy ⊙ [x > 0]`.
///
/// # Panics
///
/// Panics if shapes differ.
#[must_use]
pub fn relu_backward(x: &Matrix, dy: &Matrix) -> Matrix {
    assert_eq!(x.shape(), dy.shape(), "relu_backward shape mismatch");
    let (x, d) = (x.data(), dy.data());
    let mut dx = Matrix::zeros(dy.rows(), dy.cols());
    par_elements(&mut dx, |at, out| {
        for ((o, &dv), &xv) in out.iter_mut().zip(&d[at..]).zip(&x[at..]) {
            *o = if xv <= 0.0 { 0.0 } else { dv };
        }
    });
    dx
}

/// In-place `a += b`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    let src = b.data();
    par_elements(a, |at, out| {
        for (o, &v) in out.iter_mut().zip(&src[at..]) {
            *o += v;
        }
    });
}

/// Inverted-dropout forward: zeroes each element with probability `p` and
/// scales survivors by `1/(1-p)`. Returns the kept-mask for backward.
///
/// The mask is drawn first, serially: one `rng.gen::<f32>() >= p` per
/// element in row-major order. Then it is applied in parallel as
/// `(v · scale)` under an all-ones or all-zeros bit mask, so a dropped
/// element — NaN and ±∞ included — is `+0.0`.
///
/// # Panics
///
/// Panics unless `0.0 <= p < 1.0`.
pub fn dropout_forward<R: rand::Rng>(x: &Matrix, p: f32, rng: &mut R) -> (Matrix, Vec<bool>) {
    assert!(
        (0.0..1.0).contains(&p),
        "dropout probability must be in [0, 1)"
    );
    if p == 0.0 {
        return (x.clone(), vec![true; x.data().len()]);
    }
    let keep_scale = 1.0 / (1.0 - p);
    let mask: Vec<bool> = (0..x.data().len()).map(|_| rng.gen::<f32>() >= p).collect();
    let src = x.data();
    let mut y = Matrix::zeros(x.rows(), x.cols());
    par_elements(&mut y, |at, out| {
        for ((o, &v), &keep) in out.iter_mut().zip(&src[at..]).zip(&mask[at..]) {
            let keep_bits = u32::from(keep).wrapping_neg();
            *o = f32::from_bits((v * keep_scale).to_bits() & keep_bits);
        }
    });
    (y, mask)
}

/// Inverted-dropout backward: `dx = dy ⊙ mask / (1-p)`.
///
/// # Panics
///
/// Panics if the mask length disagrees with `dy` or `p` is out of range.
#[must_use]
pub fn dropout_backward(dy: &Matrix, mask: &[bool], p: f32) -> Matrix {
    assert!(
        (0.0..1.0).contains(&p),
        "dropout probability must be in [0, 1)"
    );
    assert_eq!(dy.data().len(), mask.len(), "dropout mask length mismatch");
    let keep_scale = 1.0 / (1.0 - p);
    let d = dy.data();
    let mut dx = Matrix::zeros(dy.rows(), dy.cols());
    par_elements(&mut dx, |at, out| {
        for ((o, &dv), &keep) in out.iter_mut().zip(&d[at..]).zip(&mask[at..]) {
            *o = if keep { dv * keep_scale } else { 0.0 };
        }
    });
    dx
}

/// Reference (naive, single-threaded) matmul for testing.
#[must_use]
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0f32;
            for kk in 0..a.cols() {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::xavier(rows, cols, &mut rng)
    }

    #[test]
    fn matmul_matches_reference() {
        let a = random(17, 9, 1);
        let b = random(9, 13, 2);
        let fast = matmul(&a, &b);
        let slow = matmul_reference(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_at_b_matches_transpose_matmul() {
        let a = random(23, 7, 3);
        let b = random(23, 11, 4);
        let fast = matmul_at_b(&a, &b);
        let slow = matmul_reference(&a.transposed(), &b);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_a_bt_matches_transpose_matmul() {
        let a = random(19, 8, 5);
        let b = random(12, 8, 6);
        let fast = matmul_a_bt(&a, &b);
        let slow = matmul_reference(&a, &b.transposed());
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    /// The oracle for `matmul_a_bt`: each output element the strict-order
    /// dot product of row `i` of `a` with row `j` of `b`, every term kept.
    fn matmul_a_bt_dot(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut dot = 0f32;
                for (&av, &bv) in a.row(i).iter().zip(b.row(j)) {
                    dot += av * bv;
                }
                out.set(i, j, dot);
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `m` with `k` evenly spaced entries of each row kept (offset by the
    /// row index) and `+0.0` written over the rest — the shape of a MaxK
    /// layer's scattered gradient. `maxk-core`'s tests run the real
    /// `Cbsr::to_dense` scatter through the same comparison.
    fn keep_k(m: &Matrix, k: usize) -> Matrix {
        let stride = m.cols() / k;
        let mut out = m.clone();
        for r in 0..m.rows() {
            for (c, v) in out.row_mut(r).iter_mut().enumerate() {
                if (c + r) % stride != 0 {
                    *v = 0.0;
                }
            }
        }
        out
    }

    #[test]
    fn matmul_a_bt_is_bitwise_the_dot_product() {
        // dY · Wᵀ at a hidden layer's shape: 300 rows (enough for the
        // parallel path) × 128 wide, W 96 × 128.
        let w = random(96, 128, 40);
        let dense = random(300, 128, 41);
        // MaxK rows whose zeros alternate sign, a few kept entries ±0.0.
        let mut signed_zeros = keep_k(&dense, 16);
        for (t, v) in signed_zeros.data_mut().iter_mut().enumerate() {
            if *v == 0.0 || t % 7 == 0 {
                *v = if t % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let cases = [
            ("dense xavier", dense.clone()),
            ("16 of 128", keep_k(&dense, 16)),
            ("1 of 128", keep_k(&dense, 1)),
            ("all zero", Matrix::zeros(300, 128)),
            ("±0.0", signed_zeros),
        ];
        for (name, a) in &cases {
            assert_eq!(
                bits(&matmul_a_bt(a, &w)),
                bits(&matmul_a_bt_dot(a, &w)),
                "{name}"
            );
        }
    }

    #[test]
    fn matmul_a_bt_skips_zero_times_infinity() {
        // The one documented divergence from the dot product: a zero
        // gradient entry never meets the weight it would multiply.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![f32::INFINITY, 2.0]).unwrap();
        assert_eq!(matmul_a_bt(&a, &b).get(0, 0), 2.0);
        assert!(matmul_a_bt_dot(&a, &b).get(0, 0).is_nan());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_checks_shapes() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn bias_and_column_sums_roundtrip() {
        let mut x = Matrix::zeros(4, 3);
        add_bias(&mut x, &[1.0, 2.0, 3.0]);
        assert_eq!(x.row(3), &[1.0, 2.0, 3.0]);
        let sums = column_sums(&x);
        assert_eq!(sums, vec![4.0, 8.0, 12.0]);
    }

    #[test]
    fn relu_and_backward() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = relu(&x);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Matrix::filled(1, 4, 1.0);
        let dx = relu_backward(&x, &dy);
        assert_eq!(dx.row(0), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let x = random(5, 5, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let (y, mask) = dropout_forward(&x, 0.0, &mut rng);
        assert_eq!(y, x);
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn dropout_preserves_expectation() {
        let x = Matrix::filled(100, 100, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let (y, mask) = dropout_forward(&x, 0.5, &mut rng);
        let mean: f32 = y.data().iter().sum::<f32>() / y.data().len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
        let kept = mask.iter().filter(|&&m| m).count() as f32 / mask.len() as f32;
        assert!((kept - 0.5).abs() < 0.05);
    }

    #[test]
    fn dropout_backward_masks_gradient() {
        let x = Matrix::filled(10, 10, 1.0);
        let mut rng = StdRng::seed_from_u64(13);
        let (y, mask) = dropout_forward(&x, 0.3, &mut rng);
        let dy = Matrix::filled(10, 10, 1.0);
        let dx = dropout_backward(&dy, &mask, 0.3);
        // Gradient sparsity pattern must match the forward output.
        for (yv, dv) in y.data().iter().zip(dx.data()) {
            assert_eq!(*yv == 0.0, *dv == 0.0);
        }
    }

    /// The oracle for `dropout_forward`: the fused loop it replaced, one
    /// draw per element that both decides and applies the mask.
    fn dropout_forward_fused<R: rand::Rng>(x: &Matrix, p: f32, rng: &mut R) -> (Matrix, Vec<bool>) {
        let keep_scale = 1.0 / (1.0 - p);
        let mut y = x.clone();
        let mut mask = vec![true; x.data().len()];
        for (v, m) in y.data_mut().iter_mut().zip(mask.iter_mut()) {
            if rng.gen::<f32>() < p {
                *v = 0.0;
                *m = false;
            } else {
                *v *= keep_scale;
            }
        }
        (y, mask)
    }

    #[test]
    fn two_pass_dropout_is_bitwise_the_fused_loop() {
        // Large enough for several blocks; every row holds the specials.
        let mut x = random(600, 300, 17);
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE / 4.0,
            -f32::from_bits(1),
            f32::MAX,
        ];
        for r in 0..x.rows() {
            for (c, &v) in specials.iter().enumerate() {
                x.set(r, (r + 31 * c) % x.cols(), v);
            }
        }
        for p in [0.1, 0.5, 0.9] {
            for workers in [1, 2, 3, 8] {
                let mut rng = StdRng::seed_from_u64(23);
                let mut oracle_rng = StdRng::seed_from_u64(23);
                let (y, mask) =
                    parallel::with_workers(workers, || dropout_forward(&x, p, &mut rng));
                let (want, want_mask) = dropout_forward_fused(&x, p, &mut oracle_rng);
                assert_eq!(bits(&y), bits(&want), "p {p}, {workers} workers");
                assert_eq!(mask, want_mask, "p {p}, {workers} workers");
                // Both consumed the stream alike.
                assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
                let dropped_nan = x.data().iter().zip(&mask).zip(y.data());
                let mut seen = 0;
                for ((v, &keep), out) in dropped_nan {
                    if v.is_nan() && !keep {
                        assert_eq!(out.to_bits(), 0, "a dropped NaN is +0.0");
                        seen += 1;
                    }
                }
                assert!(seen > 0, "p {p}: no NaN was dropped");
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = random(6, 6, 20);
        let mut eye = Matrix::zeros(6, 6);
        for i in 0..6 {
            eye.set(i, i, 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-7);
    }

    #[test]
    fn big_matmul_parallel_path() {
        // Large enough that the parallel path definitely engages.
        let a = random(700, 40, 30);
        let b = random(40, 50, 31);
        let fast = matmul(&a, &b);
        let slow = matmul_reference(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }
}
