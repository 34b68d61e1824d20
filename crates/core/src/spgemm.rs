//! Forward row-wise-product SpGEMM kernel (Algorithm 1 of the paper).
//!
//! Computes `X_l = A · h(X_{l-1})` where `h(·)` is the MaxK-sparsified
//! feature map in CBSR format. The row-wise product form
//! `X_l[i,:] = Σ_j A[i,j] · Xs[j,:]` lets each Edge Group accumulate into a
//! `dim_origin`-wide buffer (shared memory on the GPU), after which the
//! buffer is merged into the output row with coalesced (atomic, on GPU)
//! accesses — "assuming a dense output obviates the costly ESC overhead
//! usually encountered with SpGEMM design" (§3.2).
//!
//! The CPU implementation below is the functional engine used by training;
//! the memory-behaviour twin lives in [`crate::sim_kernels`]. It alone
//! walks Edge Groups on the product path (`ablation_eg_width` measures
//! that walk); per nonzero it runs `cbsr`'s scatter-axpy, like
//! [`sspmm_rows`](crate::subset::sspmm_rows) in plain CSR order.

use crate::cbsr::{row, scatter_axpy, with_index, Cbsr};
use maxk_graph::{Csr, WarpPartition};
use maxk_tensor::{parallel, Matrix};

/// Forward SpGEMM: `Y = A · Xs` with `Xs` in CBSR.
///
/// `part` supplies the Edge-Group decomposition; groups of the same output
/// row accumulate into the same buffer, exactly as the GPU kernel's
/// shared-memory `Buf_w` instances do before their atomic merge.
///
/// # Panics
///
/// Panics when `xs.num_rows() != adj.num_nodes()`.
#[must_use]
pub fn spgemm_forward(adj: &Csr, xs: &Cbsr, part: &WarpPartition) -> Matrix {
    assert_eq!(
        xs.num_rows(),
        adj.num_nodes(),
        "CBSR rows must match graph nodes"
    );
    let dim = xs.dim_origin();
    let mut out = Matrix::zeros(adj.num_nodes(), dim);
    let cols = adj.col_idx();
    let vals = adj.values();
    let groups = part.groups();
    with_index!(xs.sp_index(), |index| {
        parallel::par_rows_mut(out.data_mut(), dim, 16, |first_row, chunk| {
            let mut g = groups.partition_point(|eg| (eg.row as usize) < first_row);
            for (local, buf) in chunk.chunks_mut(dim).enumerate() {
                let i = first_row + local;
                // The output row doubles as the accumulation buffer: on
                // the GPU each EG owns a shared-memory Buf_w and the
                // buffers are merged atomically; on the CPU one worker
                // owns the row, so accumulating in place is the same
                // arithmetic in the same (group, nonzero, slot) order.
                while g < groups.len() && groups[g].row as usize == i {
                    let eg = groups[g];
                    let span = eg.start..eg.start + eg.len as usize;
                    for (&j, &e) in cols[span.clone()].iter().zip(&vals[span]) {
                        // Buf_w[sp_index[j,t]] += e_ij * sp_data[j,t]
                        scatter_axpy(buf, e, row(xs, index, j as usize));
                    }
                    g += 1;
                }
            }
        });
    });
    out
}

/// Reference implementation: densify the CBSR operand and run dense SpMM.
#[must_use]
pub fn spgemm_forward_reference(adj: &Csr, xs: &Cbsr) -> Matrix {
    crate::spmm::spmm_rowwise(adj, &xs.to_dense())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxk::maxk_forward;
    use maxk_graph::{generate, normalize, Aggregator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, deg: f64, dim: usize, k: usize, seed: u64) -> (Csr, Cbsr, Matrix) {
        let csr = generate::chung_lu_power_law(n, deg, 2.3, seed)
            .to_csr()
            .unwrap();
        let adj = normalize::normalized(&csr, Aggregator::GcnSym);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let mut x = Matrix::xavier(n, dim, &mut rng);
        // Above Xavier's range, so row 0 always selects the last column —
        // at dim 257 the one only the `u16` index width can name.
        x.set(0, dim - 1, 1.0);
        let xs = maxk_forward(&x, k).unwrap();
        (adj, xs, x)
    }

    #[test]
    fn spgemm_equals_spmm_on_densified_operand() {
        // 256 is the last `u8` index width, 257 the first `u16` one.
        for dim in [32, 256, 257] {
            let (adj, xs, _) = setup(150, 8.0, dim, 8, 1);
            assert_eq!(xs.index_at(0, 7), dim - 1);
            let part = WarpPartition::build(&adj, 16);
            let sparse = spgemm_forward(&adj, &xs, &part);
            let dense = spgemm_forward_reference(&adj, &xs);
            assert!(sparse.max_abs_diff(&dense) < 1e-5);
        }
    }

    #[test]
    fn result_independent_of_eg_width() {
        let (adj, xs, _) = setup(120, 10.0, 16, 4, 2);
        let reference = spgemm_forward_reference(&adj, &xs);
        for w in [1, 3, 8, 32, 256] {
            let part = WarpPartition::build(&adj, w);
            let y = spgemm_forward(&adj, &xs, &part);
            assert!(y.max_abs_diff(&reference) < 1e-5, "w = {w}");
        }
    }

    #[test]
    fn k_equals_dim_reduces_to_spmm() {
        let (adj, xs, x) = setup(80, 6.0, 12, 12, 3);
        let part = WarpPartition::build(&adj, 8);
        let via_spgemm = spgemm_forward(&adj, &xs, &part);
        let via_spmm = crate::spmm::spmm_rowwise(&adj, &x);
        assert!(via_spgemm.max_abs_diff(&via_spmm) < 1e-5);
    }

    #[test]
    fn zero_k_rows_leave_output_rows_reachable() {
        // Nodes with no in-edges produce zero rows even with nonzero
        // features elsewhere.
        let coo = maxk_graph::Coo::from_edges(4, vec![(0, 1), (2, 1)]).unwrap();
        let adj = coo.to_csr().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let x = Matrix::xavier(4, 8, &mut rng);
        let xs = maxk_forward(&x, 2).unwrap();
        let part = WarpPartition::build(&adj, 4);
        let y = spgemm_forward(&adj, &xs, &part);
        assert!(y.row(1).iter().all(|&v| v == 0.0)); // row 1 has no out-edges... row 1 is empty in adj
        assert!(y.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn output_sparsity_union_of_neighbors() {
        // Each output row's support is the union of its neighbors' CBSR
        // patterns.
        let (adj, xs, _) = setup(60, 5.0, 16, 3, 5);
        let part = WarpPartition::build(&adj, 8);
        let y = spgemm_forward(&adj, &xs, &part);
        for i in 0..adj.num_nodes() {
            let mut support = [false; 16];
            for &j in adj.row(i).0 {
                for t in 0..xs.k() {
                    support[xs.index_at(j as usize, t)] = true;
                }
            }
            for (c, &in_support) in support.iter().enumerate() {
                if !in_support {
                    assert_eq!(y.get(i, c), 0.0, "row {i} col {c} outside support");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "match graph nodes")]
    fn shape_mismatch_panics() {
        let (adj, _, _) = setup(50, 4.0, 8, 2, 6);
        let xs = Cbsr::zeros(49, 8, 2);
        let part = WarpPartition::build(&adj, 8);
        let _ = spgemm_forward(&adj, &xs, &part);
    }
}
