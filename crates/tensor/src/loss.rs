//! Loss functions with analytic gradients.
//!
//! Single-label datasets (Flickr, Reddit, ogbn-products) use masked softmax
//! cross-entropy; multi-label datasets (Yelp, ogbn-proteins) use masked
//! sigmoid binary cross-entropy, matching the original tasks' losses.

use crate::matrix::Matrix;
use crate::parallel;

/// Fewest rows one block of a loss gets.
const MIN_ROWS: usize = 32;

/// Runs `row_fn(i, grad_row, terms_row)` on every masked row `i` in
/// parallel row blocks, with `grad_row` the row of an `n × c` gradient and
/// `terms_row` the row of an `n × width` buffer for the row's loss terms.
/// Unmasked rows stay zero in both. Each row is one worker's, so the
/// output is the same at any block count.
fn masked_rows(
    (n, c): (usize, usize),
    width: usize,
    mask: &[bool],
    row_fn: impl Fn(usize, &mut [f32], &mut [f32]) + Sync,
) -> (Matrix, Vec<f32>) {
    let mut grad = Matrix::zeros(n, c);
    let mut terms = vec![0f32; n * width];
    parallel::run_chunks(
        n,
        MIN_ROWS,
        (grad.data_mut(), terms.as_mut_slice()),
        |(grad, terms), rows| {
            (
                parallel::split_front(grad, rows * c),
                parallel::split_front(terms, rows * width),
            )
        },
        |first, end, (grad, terms)| {
            for (local, _) in mask[first..end].iter().enumerate().filter(|(_, &m)| m) {
                let grow = &mut grad[local * c..(local + 1) * c];
                row_fn(
                    first + local,
                    grow,
                    &mut terms[local * width..(local + 1) * width],
                );
            }
        },
    );
    (grad, terms)
}

/// The masked rows' loss terms summed in `f64`, one at a time in
/// row-major order — the order the loss was always summed in.
fn masked_sum(terms: &[f32], width: usize, mask: &[bool]) -> f64 {
    let mut total = 0.0f64;
    for (row, _) in terms.chunks(width.max(1)).zip(mask).filter(|(_, &m)| m) {
        for &t in row {
            total += f64::from(t);
        }
    }
    total
}

/// Masked softmax cross-entropy.
///
/// Only rows with `mask[i] == true` contribute; the loss is averaged over
/// masked rows and the returned gradient is zero elsewhere. Rows are
/// formed in parallel; the loss is summed serially in row order.
///
/// Returns `(mean_loss, dlogits)`.
///
/// # Panics
///
/// Panics when shapes disagree or a masked label is out of range; returns
/// `(0.0, zeros)` when the mask is empty.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32], mask: &[bool]) -> (f64, Matrix) {
    let (n, c) = logits.shape();
    assert_eq!(labels.len(), n, "label count mismatch");
    assert_eq!(mask.len(), n, "mask length mismatch");
    let m = mask.iter().filter(|&&b| b).count();
    if m == 0 {
        return (0.0, Matrix::zeros(n, c));
    }
    let inv_m = 1.0 / m as f32;
    let (grad, terms) = masked_rows((n, c), 1, mask, |i, grow, term| {
        let row = logits.row(i);
        let label = labels[i] as usize;
        assert!(label < c, "label {label} out of range for {c} classes");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - max).exp();
        }
        term[0] = denom.ln() - (row[label] - max);
        for (j, g) in grow.iter_mut().enumerate() {
            let p = (row[j] - max).exp() / denom;
            *g = (p - f32::from(j == label)) * inv_m;
        }
    });
    (masked_sum(&terms, 1, mask) / m as f64, grad)
}

/// Masked sigmoid binary cross-entropy over multi-hot targets.
///
/// `targets` is a row-major `n × c` multi-hot matrix of `{0, 1}` bytes.
/// Loss is averaged over `masked rows × classes`; gradient is zero on
/// unmasked rows. Rows are formed in parallel; the loss is summed
/// serially in row-major order.
///
/// Returns `(mean_loss, dlogits)`.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn sigmoid_bce(logits: &Matrix, targets: &[u8], mask: &[bool]) -> (f64, Matrix) {
    let (n, c) = logits.shape();
    assert_eq!(targets.len(), n * c, "target matrix shape mismatch");
    assert_eq!(mask.len(), n, "mask length mismatch");
    let m = mask.iter().filter(|&&b| b).count();
    if m == 0 {
        return (0.0, Matrix::zeros(n, c));
    }
    let scale = 1.0 / (m * c) as f32;
    let (grad, terms) = masked_rows((n, c), c, mask, |i, grow, terms| {
        let row = logits.row(i);
        for j in 0..c {
            let x = row[j];
            let t = f32::from(targets[i * c + j]);
            // Numerically-stable log(1 + e^-|x|) formulation.
            terms[j] = x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
            let p = 1.0 / (1.0 + (-x).exp());
            grow[j] = (p - t) * scale;
        }
    });
    (masked_sum(&terms, c, mask) / (m * c) as f64, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::parallel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle for `softmax_cross_entropy`: the serial loop it replaced.
    fn softmax_cross_entropy_serial(
        logits: &Matrix,
        labels: &[u32],
        mask: &[bool],
    ) -> (f64, Matrix) {
        let (n, c) = logits.shape();
        let mut grad = Matrix::zeros(n, c);
        let m = mask.iter().filter(|&&b| b).count();
        let inv_m = 1.0 / m as f32;
        let mut total = 0.0f64;
        for i in 0..n {
            if !mask[i] {
                continue;
            }
            let row = logits.row(i);
            let label = labels[i] as usize;
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &v in row {
                denom += (v - max).exp();
            }
            let log_denom = denom.ln();
            total += f64::from(log_denom - (row[label] - max));
            let grow = grad.row_mut(i);
            for (j, g) in grow.iter_mut().enumerate() {
                let p = (row[j] - max).exp() / denom;
                *g = (p - f32::from(j == label)) * inv_m;
            }
        }
        (total / m as f64, grad)
    }

    /// The oracle for `sigmoid_bce`: the serial loop it replaced.
    fn sigmoid_bce_serial(logits: &Matrix, targets: &[u8], mask: &[bool]) -> (f64, Matrix) {
        let (n, c) = logits.shape();
        let mut grad = Matrix::zeros(n, c);
        let m = mask.iter().filter(|&&b| b).count();
        let scale = 1.0 / (m * c) as f32;
        let mut total = 0.0f64;
        for i in 0..n {
            if !mask[i] {
                continue;
            }
            let row = logits.row(i);
            let grow = grad.row_mut(i);
            for j in 0..c {
                let x = row[j];
                let t = f32::from(targets[i * c + j]);
                let loss = x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
                total += f64::from(loss);
                let p = 1.0 / (1.0 + (-x).exp());
                grow[j] = (p - t) * scale;
            }
        }
        (total / (m * c) as f64, grad)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_losses_are_bitwise_the_serial_loops() {
        let (n, c) = (700, 24);
        let mut rng = StdRng::seed_from_u64(5);
        let mut logits = Matrix::xavier(n, c, &mut rng);
        logits.data_mut().iter_mut().for_each(|v| *v *= 40.0);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..c as u32)).collect();
        let targets: Vec<u8> = (0..n * c).map(|_| u8::from(rng.gen::<bool>())).collect();
        let every = vec![true; n];
        let some: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
        for mask in [&every, &some] {
            let want_ce = softmax_cross_entropy_serial(&logits, &labels, mask);
            let want_bce = sigmoid_bce_serial(&logits, &targets, mask);
            for workers in [1, 2, 3, 8] {
                let (ce, ce_grad) = parallel::with_workers(workers, || {
                    softmax_cross_entropy(&logits, &labels, mask)
                });
                assert_eq!(ce.to_bits(), want_ce.0.to_bits(), "{workers} workers");
                assert_eq!(bits(&ce_grad), bits(&want_ce.1), "{workers} workers");
                let (bce, bce_grad) =
                    parallel::with_workers(workers, || sigmoid_bce(&logits, &targets, mask));
                assert_eq!(bce.to_bits(), want_bce.0.to_bits(), "{workers} workers");
                assert_eq!(bits(&bce_grad), bits(&want_bce.1), "{workers} workers");
            }
        }
    }

    #[test]
    fn ce_perfect_prediction_has_small_loss() {
        // Huge logit on the true class.
        let logits = Matrix::from_vec(2, 3, vec![10.0, -10.0, -10.0, -10.0, 10.0, -10.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1], &[true, true]);
        assert!(loss < 1e-6, "loss {loss}");
        assert!(grad.data().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn ce_uniform_logits_loss_is_log_c() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _) = softmax_cross_entropy(&logits, &[2], &[true]);
        assert!((loss - (4f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(1, 3, vec![0.3, -0.4, 0.1]).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &[1], &[true]);
        let h = 1e-3f32;
        for j in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, j, logits.get(0, j) + h);
            let mut lm = logits.clone();
            lm.set(0, j, logits.get(0, j) - h);
            let (fp, _) = softmax_cross_entropy(&lp, &[1], &[true]);
            let (fm, _) = softmax_cross_entropy(&lm, &[1], &[true]);
            let fd = ((fp - fm) / (2.0 * h as f64)) as f32;
            assert!(
                (fd - grad.get(0, j)).abs() < 1e-3,
                "class {j}: {fd} vs {}",
                grad.get(0, j)
            );
        }
    }

    #[test]
    fn ce_masked_rows_do_not_contribute() {
        let logits = Matrix::from_vec(2, 2, vec![5.0, -5.0, -100.0, 100.0]).unwrap();
        // Row 1 would be a terrible prediction for label 0 but is unmasked.
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 0], &[true, false]);
        assert!(loss < 1e-3);
        assert!(grad.row(1).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn ce_empty_mask_returns_zero() {
        let logits = Matrix::zeros(2, 2);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1], &[false, false]);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]).unwrap();
        let targets = [1u8, 0, 1];
        let (_, grad) = sigmoid_bce(&logits, &targets, &[true]);
        let h = 1e-3f32;
        for j in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, j, logits.get(0, j) + h);
            let mut lm = logits.clone();
            lm.set(0, j, logits.get(0, j) - h);
            let (fp, _) = sigmoid_bce(&lp, &targets, &[true]);
            let (fm, _) = sigmoid_bce(&lm, &targets, &[true]);
            let fd = ((fp - fm) / (2.0 * h as f64)) as f32;
            assert!((fd - grad.get(0, j)).abs() < 1e-3);
        }
    }

    #[test]
    fn bce_confident_correct_is_small() {
        let logits = Matrix::from_vec(1, 2, vec![20.0, -20.0]).unwrap();
        let (loss, _) = sigmoid_bce(&logits, &[1, 0], &[true]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn bce_mask_zeroes_gradient() {
        let logits = Matrix::filled(2, 2, 3.0);
        let targets = [0u8, 0, 0, 0];
        let (_, grad) = sigmoid_bce(&logits, &targets, &[false, true]);
        assert!(grad.row(0).iter().all(|&g| g == 0.0));
        assert!(grad.row(1).iter().any(|&g| g != 0.0));
    }

    #[test]
    #[should_panic(expected = "label")]
    fn ce_rejects_out_of_range_label() {
        let logits = Matrix::zeros(1, 2);
        let _ = softmax_cross_entropy(&logits, &[5], &[true]);
    }
}
