//! Backward outer-product SSpMM kernel (Algorithm 2 of the paper).
//!
//! Computes the sparse feature gradient
//! `dXs = mask(Aᵀ · dX_l, sp_index)` — a *(sparse × dense = sparse)*
//! product whose output sparsity pattern is known in advance (inherited
//! from the forward MaxK pass), so only the `sp_data` values need
//! computing (§4.2).
//!
//! The GPU dataflow is outer-product with dense-row prefetch: for each
//! source row `j`, the dense gradient row `dX_l[j,:]` is staged in shared
//! memory once, and every neighbor `i` gathers its `k` entries from the
//! staged row via `sp_index[i]`, atomically accumulating into
//! `sp_data[i]`. Both the stage-in and the accumulation are coalesced; the
//! irregular `sp_index` gather happens entirely in shared memory.
//!
//! Two CPU implementations are provided:
//!
//! * [`sspmm_backward`] — row-parallel gather form (each worker owns
//!   output rows; no synchronization), the functional engine used in
//!   training — `spmm::aggregate_rows` with `cbsr`'s gather-axpy;
//! * [`sspmm_backward_outer`] — the literal outer-product loop order of
//!   Algorithm 2 (single pass over source rows with a staged buffer),
//!   used to verify the dataflow rewrite is exact.

use crate::cbsr::{gather_axpy, row, with_index, Cbsr};
use crate::spmm::aggregate_rows;
use maxk_graph::Csr;
use maxk_tensor::Matrix;

/// Backward SSpMM, row-parallel form.
///
/// `adj_t` is `Aᵀ` in CSR (for a structurally symmetric graph this is the
/// same storage as `A` — the paper's "no extra storage" observation;
/// value-asymmetric normalizations pass the materialized transpose).
/// `pattern` supplies `sp_index` from the forward pass; the returned CBSR
/// shares it.
///
/// # Examples
///
/// ```
/// use maxk_core::maxk::maxk_forward;
/// use maxk_core::sspmm::sspmm_backward;
/// use maxk_graph::generate;
/// use maxk_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let adj = generate::chung_lu_power_law(30, 4.0, 2.3, 1).to_csr().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let pattern = maxk_forward(&Matrix::xavier(30, 8, &mut rng), 2).unwrap();
/// let dxl = Matrix::xavier(30, 8, &mut rng);
/// let grad = sspmm_backward(&adj.transpose(), &dxl, &pattern);
/// assert_eq!(grad.sp_index(), pattern.sp_index()); // pattern inherited
/// ```
///
/// # Panics
///
/// Panics when shapes disagree.
#[must_use]
pub fn sspmm_backward(adj_t: &Csr, dxl: &Matrix, pattern: &Cbsr) -> Cbsr {
    assert_eq!(
        dxl.rows(),
        adj_t.num_nodes(),
        "gradient rows must match graph nodes"
    );
    assert_eq!(
        pattern.num_rows(),
        adj_t.num_nodes(),
        "pattern rows must match graph"
    );
    assert_eq!(
        pattern.dim_origin(),
        dxl.cols(),
        "pattern dim must match gradient"
    );
    let k = pattern.k();
    let mut out = pattern.zeros_like_pattern();
    // Row i of dXs = Σ_j Aᵀ[i,j] · dXl[j, sp_index[i,:]].
    with_index!(pattern.sp_index(), |index| {
        aggregate_rows(
            adj_t,
            out.sp_data_mut(),
            k,
            |i| i,
            |j| j as usize,
            |i| {
                let cols = row(pattern, index, i).1;
                move |out_row, e, j| gather_axpy(out_row, e, dxl.row(j), cols)
            },
        );
    });
    out
}

/// Backward SSpMM in the literal Algorithm 2 loop order.
///
/// Iterates source rows `j` of `dX_l`; stages the row in a local buffer
/// (the GPU's shared-memory prefetch); scatters into each neighbor's
/// `sp_data` row (the GPU's coalesced atomic accumulation). Sequential —
/// testing/ablation use only.
///
/// # Panics
///
/// Panics when shapes disagree.
#[must_use]
pub fn sspmm_backward_outer(adj_t: &Csr, dxl: &Matrix, pattern: &Cbsr) -> Cbsr {
    assert_eq!(
        dxl.rows(),
        adj_t.num_nodes(),
        "gradient rows must match graph nodes"
    );
    assert_eq!(
        pattern.dim_origin(),
        dxl.cols(),
        "pattern dim must match gradient"
    );
    let k = pattern.k();
    let mut out = pattern.zeros_like_pattern();
    // Column j of Aᵀ is row j of A = row j of adj_tᵀ.
    let a = adj_t.transpose();
    let mut staged = vec![0f32; dxl.cols()];
    with_index!(pattern.sp_index(), |index| {
        for j in 0..adj_t.num_nodes() {
            // Stage 1: on-chip buffering of dXl[j,:] (coalesced read).
            staged.copy_from_slice(dxl.row(j));
            // Stage 2: compute and (atomic) accumulation.
            let (cols, vals) = a.row(j);
            for (&i, &e) in cols.iter().zip(vals) {
                let i = i as usize;
                // sp_data[i,t] += e_ij * Buf[sp_index[i,t]]
                let dst = &mut out.sp_data_mut()[i * k..(i + 1) * k];
                gather_axpy(dst, e, &staged, row(pattern, index, i).1);
            }
        }
    });
    out
}

/// Dense reference: computes `Aᵀ · dX_l` densely, then gathers the
/// pattern.
#[must_use]
pub fn sspmm_backward_reference(adj_t: &Csr, dxl: &Matrix, pattern: &Cbsr) -> Cbsr {
    let dense = crate::spmm::spmm_rowwise(adj_t, dxl);
    crate::maxk::gather_with_pattern(&dense, pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxk::maxk_forward;
    use maxk_graph::{generate, normalize, Aggregator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        n: usize,
        deg: f64,
        dim: usize,
        k: usize,
        seed: u64,
        agg: Aggregator,
    ) -> (Csr, Csr, Matrix, Cbsr) {
        let csr = generate::chung_lu_power_law(n, deg, 2.3, seed)
            .to_csr()
            .unwrap();
        let adj = normalize::normalized(&csr, agg);
        let adj_t = adj.transpose();
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let mut x = Matrix::xavier(n, dim, &mut rng);
        // Above Xavier's range, so row 0 always selects the last column —
        // at dim 257 the one only the `u16` index width can name.
        x.set(0, dim - 1, 1.0);
        let pattern = maxk_forward(&x, k).unwrap();
        let dxl = Matrix::xavier(n, dim, &mut rng);
        (adj, adj_t, dxl, pattern)
    }

    #[test]
    fn parallel_gather_matches_reference() {
        // 256 is the last `u8` index width, 257 the first `u16` one.
        for dim in [24, 256, 257] {
            let (_, adj_t, dxl, pattern) = setup(150, 8.0, dim, 6, 1, Aggregator::GcnSym);
            assert_eq!(pattern.index_at(0, 5), dim - 1);
            let fast = sspmm_backward(&adj_t, &dxl, &pattern);
            let slow = sspmm_backward_reference(&adj_t, &dxl, &pattern);
            let diff = fast
                .sp_data()
                .iter()
                .zip(slow.sp_data())
                .map(|(a, b)| (a - b).abs())
                .fold(0f32, f32::max);
            assert!(diff < 1e-5, "max diff {diff}");
        }
    }

    #[test]
    fn outer_product_order_is_exact_rewrite() {
        for dim in [16, 256, 257] {
            let (_, adj_t, dxl, pattern) = setup(100, 6.0, dim, 4, 2, Aggregator::SageMean);
            assert_eq!(pattern.index_at(0, 3), dim - 1);
            let gather = sspmm_backward(&adj_t, &dxl, &pattern);
            let outer = sspmm_backward_outer(&adj_t, &dxl, &pattern);
            let diff = gather
                .sp_data()
                .iter()
                .zip(outer.sp_data())
                .map(|(a, b)| (a - b).abs())
                .fold(0f32, f32::max);
            assert!(diff < 1e-5, "max diff {diff}");
        }
    }

    #[test]
    fn output_shares_forward_pattern() {
        let (_, adj_t, dxl, pattern) = setup(60, 5.0, 12, 3, 3, Aggregator::GcnSym);
        let out = sspmm_backward(&adj_t, &dxl, &pattern);
        assert_eq!(out.sp_index(), pattern.sp_index());
        assert_eq!(out.k(), pattern.k());
        out.validate().unwrap();
    }

    #[test]
    fn symmetric_gcn_can_reuse_forward_storage() {
        // For GCN-normalized symmetric graphs, A == Aᵀ including values,
        // so passing `adj` directly must give the same gradient.
        let (adj, adj_t, dxl, pattern) = setup(80, 6.0, 8, 2, 4, Aggregator::GcnSym);
        let via_t = sspmm_backward(&adj_t, &dxl, &pattern);
        let via_a = sspmm_backward(&adj, &dxl, &pattern);
        let diff = via_t
            .sp_data()
            .iter()
            .zip(via_a.sp_data())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max);
        assert!(diff < 1e-6, "GCN symmetric reuse failed: {diff}");
    }

    #[test]
    fn sage_mean_requires_true_transpose() {
        // SAGE 1/d_i weights are row-dependent: A != Aᵀ in values; using A
        // in place of Aᵀ must generally change the answer.
        let (adj, adj_t, dxl, pattern) = setup(80, 6.0, 8, 2, 5, Aggregator::SageMean);
        let via_t = sspmm_backward(&adj_t, &dxl, &pattern);
        let via_a = sspmm_backward(&adj, &dxl, &pattern);
        let diff = via_t
            .sp_data()
            .iter()
            .zip(via_a.sp_data())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max);
        assert!(diff > 1e-4, "expected asymmetric values to matter");
    }

    #[test]
    fn gradient_chain_matches_dense_path() {
        // Full chain: dX_dense = scatter(SSpMM(Aᵀ, dY)) must equal the
        // dense computation mask(Aᵀ·dY) expanded.
        let (_, adj_t, dxl, pattern) = setup(70, 5.0, 16, 4, 6, Aggregator::GcnSym);
        let sparse_grad = sspmm_backward(&adj_t, &dxl, &pattern);
        let dense_grad = crate::maxk::maxk_backward(&sparse_grad);
        // Dense path: full Aᵀ·dY then zero the non-selected positions.
        let full = crate::spmm::spmm_rowwise(&adj_t, &dxl);
        let masked = crate::maxk::maxk_backward(&crate::maxk::gather_with_pattern(&full, &pattern));
        assert!(dense_grad.max_abs_diff(&masked) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "match graph nodes")]
    fn shape_mismatch_panics() {
        let (_, adj_t, _, pattern) = setup(50, 4.0, 8, 2, 7, Aggregator::GcnSym);
        let bad = Matrix::zeros(49, 8);
        let _ = sspmm_backward(&adj_t, &bad, &pattern);
    }
}
