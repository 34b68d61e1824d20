//! Dense-feature SpMM baselines the paper compares against.
//!
//! * [`spmm_rowwise`] — row-wise-product CSR SpMM, the algorithm behind
//!   cuSPARSE `csrmm` for row-major dense operands; one logical worker
//!   owns each output row, so no atomics are needed.
//! * [`spmm_gnnadvisor`] — GNNAdvisor-style neighbor-grouped SpMM: the
//!   adjacency row is processed in Edge Groups, each accumulating into a
//!   staging buffer ("shared memory") that is then merged into the output
//!   row. Functionally identical; the per-group staging overhead is what
//!   makes GNNAdvisor slightly slower than cuSPARSE at dim = 256, the
//!   cuSP./GNNA. ratio visible in the paper's Figs. 8/9.
//! * [`spmm_outer_naive`] — naive outer-product SpMM, the strawman the
//!   backward SSpMM design is measured against (§4.2: "a naive row-wise
//!   product-based kernel could lead to significant uncoalesced global
//!   memory transactions"; the outer-product strawman shows the
//!   accumulation races instead).

use maxk_graph::{Csr, WarpPartition};
use maxk_tensor::ops::axpy;
use maxk_tensor::{parallel, Matrix};

/// The one row-aggregation loop: for each `width`-wide row `r` of `out`,
/// walk the nonzeros `(j, e)` of `adj`'s row `out_id(r)` in CSR order and
/// call `for_row(r)(out_row, e, col(j))` — `for_row` is where a kernel
/// hoists what is fixed per output row. One worker owns each output row,
/// so the per-row order is CSR order whatever the chunking. Full kernels
/// pass identity maps, [`crate::subset`] a `NodeSet`'s — which is why a
/// subset row equals the full kernel's row bit for bit.
pub(crate) fn aggregate_rows<A: Fn(&mut [f32], f32, usize)>(
    adj: &Csr,
    out: &mut [f32],
    width: usize,
    out_id: impl Fn(usize) -> usize + Sync,
    col: impl Fn(u32) -> usize + Sync,
    for_row: impl Fn(usize) -> A + Sync,
) {
    parallel::par_rows_mut(out, width, 16, |first_row, chunk| {
        for (local, out_row) in chunk.chunks_mut(width).enumerate() {
            let r = first_row + local;
            let accumulate = for_row(r);
            let (cols, vals) = adj.row(out_id(r));
            for (&j, &e) in cols.iter().zip(vals) {
                accumulate(out_row, e, col(j));
            }
        }
    });
}

/// Row-wise-product SpMM: `Y[i,:] = Σ_j A[i,j] · X[j,:]`.
///
/// # Examples
///
/// ```
/// use maxk_core::spmm::spmm_rowwise;
/// use maxk_graph::Csr;
/// use maxk_tensor::Matrix;
///
/// // Identity adjacency: Y == X.
/// let adj = Csr::from_parts(2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
/// let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(spmm_rowwise(&adj, &x), x);
/// ```
///
/// # Panics
///
/// Panics when `x.rows() != adj.num_nodes()`.
#[must_use]
pub fn spmm_rowwise(adj: &Csr, x: &Matrix) -> Matrix {
    assert_eq!(
        x.rows(),
        adj.num_nodes(),
        "feature rows must match graph nodes"
    );
    let mut out = Matrix::zeros(adj.num_nodes(), x.cols());
    aggregate_rows(
        adj,
        out.data_mut(),
        x.cols(),
        |i| i,
        |j| j as usize,
        |_| |out_row, e, j| axpy(out_row, e, x.row(j)),
    );
    out
}

/// GNNAdvisor-style neighbor-grouped SpMM.
///
/// Processes the Edge Groups of `part`, accumulating each group into a
/// per-worker staging buffer before merging into the output row —
/// mirroring GNNAdvisor's shared-memory workload mapping. Produces exactly
/// the same values as [`spmm_rowwise`].
///
/// # Panics
///
/// Panics when shapes disagree or `part` was not built from `adj`.
#[must_use]
pub fn spmm_gnnadvisor(adj: &Csr, x: &Matrix, part: &WarpPartition) -> Matrix {
    assert_eq!(
        x.rows(),
        adj.num_nodes(),
        "feature rows must match graph nodes"
    );
    let n = adj.num_nodes();
    let dim = x.cols();
    let mut out = Matrix::zeros(n, dim);
    let cols = adj.col_idx();
    let vals = adj.values();
    let groups = part.groups();
    // Edge groups of the same row are contiguous, and so are the rows they
    // touch; parallelize over output-row chunks, scanning the group list
    // once (two-pointer) to find each chunk's groups.
    let row_ptr = adj.row_ptr();
    parallel::par_rows_mut(out.data_mut(), dim, 16, |first_row, chunk| {
        let mut staging = vec![0f32; dim];
        let rows = chunk.len() / dim;
        // Binary-search the first group belonging to `first_row`.
        let mut g = groups.partition_point(|eg| (eg.row as usize) < first_row);
        for local in 0..rows {
            let i = first_row + local;
            let out_row = &mut chunk[local * dim..(local + 1) * dim];
            debug_assert!(
                g >= groups.len() || groups[g].row as usize >= i || row_ptr[i] == row_ptr[i + 1]
            );
            while g < groups.len() && groups[g].row as usize == i {
                let eg = groups[g];
                staging.iter_mut().for_each(|v| *v = 0.0);
                let span = eg.start..eg.start + eg.len as usize;
                for (&j, &e) in cols[span.clone()].iter().zip(&vals[span]) {
                    axpy(&mut staging, e, x.row(j as usize));
                }
                for (o, &s) in out_row.iter_mut().zip(&staging) {
                    *o += s;
                }
                g += 1;
            }
        }
    });
    out
}

/// Naive outer-product SpMM over the transpose orientation:
/// `Y = Aᵀ · X` computed as `Y[i,:] += Aᵀ[i,j] · X[j,:]` scanning source
/// rows `j` — per-thread dense partial outputs merged at the end (a CPU
/// stand-in for the GPU version's global atomics).
///
/// # Panics
///
/// Panics when `x.rows() != adj_t.num_nodes()`.
#[must_use]
pub fn spmm_outer_naive(adj_t: &Csr, x: &Matrix) -> Matrix {
    assert_eq!(
        x.rows(),
        adj_t.num_nodes(),
        "feature rows must match graph nodes"
    );
    let n = adj_t.num_nodes();
    let dim = x.cols();
    // Outer product: column j of Aᵀ is row j of A ≡ row j of adj_tᵀ. We
    // iterate source rows of the *transposed* operand: for each j, the
    // nonzeros (i, e) of adj_tᵀ row j scatter e·X[j,:] into Y[i,:].
    // Materialize adj_tᵀ once (the GPU kernel reads the original CSR).
    let a = adj_t.transpose();
    let partials = parallel::par_row_map(n, 32, |lo, hi| {
        let mut acc = vec![0f32; n * dim];
        for j in lo..hi {
            let (cols, vals) = a.row(j);
            for (&i, &e) in cols.iter().zip(vals) {
                let dst = &mut acc[i as usize * dim..(i as usize + 1) * dim];
                axpy(dst, e, x.row(j));
            }
        }
        acc
    });
    let mut out = vec![0f32; n * dim];
    for p in partials {
        for (o, v) in out.iter_mut().zip(p) {
            *o += v;
        }
    }
    Matrix::from_vec(n, dim, out).expect("shape computed above")
}

/// Dense reference `Y = A · X` via the dense expansion of `A` (O(N²·dim);
/// testing only).
#[must_use]
pub fn spmm_dense_reference(adj: &Csr, x: &Matrix) -> Matrix {
    let n = adj.num_nodes();
    let dim = x.cols();
    let a = adj.to_dense();
    let mut out = Matrix::zeros(n, dim);
    for i in 0..n {
        for j in 0..n {
            let e = a[i * n + j];
            if e == 0.0 {
                continue;
            }
            for d in 0..dim {
                let v = out.get(i, d) + e * x.get(j, d);
                out.set(i, d, v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_graph::{generate, normalize, Aggregator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, deg: f64, dim: usize, seed: u64) -> (Csr, Matrix) {
        let csr = generate::chung_lu_power_law(n, deg, 2.3, seed)
            .to_csr()
            .unwrap();
        let adj = normalize::normalized(&csr, Aggregator::GcnSym);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let x = Matrix::xavier(n, dim, &mut rng);
        (adj, x)
    }

    #[test]
    fn rowwise_matches_dense_reference() {
        let (adj, x) = setup(120, 6.0, 9, 1);
        let fast = spmm_rowwise(&adj, &x);
        let slow = spmm_dense_reference(&adj, &x);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn gnnadvisor_matches_rowwise() {
        let (adj, x) = setup(200, 8.0, 17, 2);
        let part = WarpPartition::build(&adj, 8);
        let a = spmm_rowwise(&adj, &x);
        let b = spmm_gnnadvisor(&adj, &x, &part);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn gnnadvisor_handles_various_eg_widths() {
        let (adj, x) = setup(150, 10.0, 8, 3);
        let reference = spmm_rowwise(&adj, &x);
        for w in [1, 2, 7, 32, 1024] {
            let part = WarpPartition::build(&adj, w);
            let y = spmm_gnnadvisor(&adj, &x, &part);
            assert!(y.max_abs_diff(&reference) < 1e-5, "w = {w}");
        }
    }

    #[test]
    fn outer_naive_computes_transpose_product() {
        let (adj, x) = setup(100, 5.0, 6, 4);
        let adj_t = adj.transpose();
        // spmm_outer_naive(adj_t, x) computes Aᵀᵀ… careful: it computes
        // Y = adj_tᵀ · x? No: it computes Y[i] += adj_t[i,j]·X[j] — i.e.
        // plain adj_t · x, via outer-product order.
        let outer = spmm_outer_naive(&adj_t, &x);
        let reference = spmm_rowwise(&adj_t, &x);
        assert!(outer.max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn empty_rows_produce_zero_output() {
        let coo = maxk_graph::Coo::from_edges(5, vec![(0, 1), (1, 0)]).unwrap();
        let adj = coo.to_csr().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Matrix::xavier(5, 4, &mut rng);
        let y = spmm_rowwise(&adj, &x);
        for r in 2..5 {
            assert!(y.row(r).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "match graph nodes")]
    fn shape_mismatch_panics() {
        let (adj, _) = setup(50, 4.0, 4, 5);
        let x = Matrix::zeros(49, 4);
        let _ = spmm_rowwise(&adj, &x);
    }

    #[test]
    fn identity_adjacency_is_identity_map() {
        // Self-loops only, weight 1 -> Y == X.
        let coo = maxk_graph::Coo::new(8).with_self_loops();
        let adj = coo.to_csr().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let x = Matrix::xavier(8, 5, &mut rng);
        let y = spmm_rowwise(&adj, &x);
        assert!(y.max_abs_diff(&x) < 1e-7);
    }
}
