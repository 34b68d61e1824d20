//! Row-subset aggregation kernels for seed-restricted partial forward.
//!
//! The serving engine only needs logits at a micro-batch's seed union, so
//! running the full-graph SpMM/SpGEMM per layer wastes work on rows nobody
//! asked for. [`spmm_rows`] and [`sspmm_rows`] are the row-subset twins of
//! [`crate::spmm::spmm_rowwise`] and [`crate::spgemm::spgemm_forward`]:
//! they produce **only the requested output rows**, reading their operand
//! from a compact matrix indexed by a [`NodeSet`] remapping (the reverse
//! frontier levels of `maxk_graph::frontier`).
//!
//! Neither kernel owns a loop: `subset_rows` below hands the full
//! kernels' row walk (`spmm::aggregate_rows`) the node sets' maps, with
//! the dense axpy or `cbsr`'s scatter-axpy per nonzero; Edge Groups of
//! one row are contiguous and in order, so `spgemm_forward` feeds that
//! scatter-axpy the same per-row `(nonzero, slot)` sequence. Hence subset
//! outputs are **bitwise equal** to the full-graph kernels' rows — the
//! property the serving path relies on and `tests/properties.rs` checks.

use crate::cbsr::{row, scatter_axpy, with_index, Cbsr};
use crate::spmm::aggregate_rows;
use maxk_graph::{Csr, NodeSet};
use maxk_tensor::ops::axpy;
use maxk_tensor::Matrix;

/// Row-subset dense SpMM: `Y[r,:] = Σ_j A[out_rows[r], j] · X[map(j),:]`.
///
/// `x` is compact over `in_rows` (`x.rows() == in_rows.len()`); pass
/// [`NodeSet::full`] to address a full-graph operand. Output row `r` of
/// the result is bitwise equal to row `out_rows[r]` of
/// [`crate::spmm::spmm_rowwise`] on the densified full operand.
///
/// # Example
///
/// ```
/// use maxk_core::subset::spmm_rows;
/// use maxk_core::spmm::spmm_rowwise;
/// use maxk_graph::{generate, NodeSet};
/// use maxk_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let adj = generate::chung_lu_power_law(50, 5.0, 2.3, 1).to_csr().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let x = Matrix::xavier(50, 8, &mut rng);
/// let out = NodeSet::from_unsorted(&[3, 41], 50).unwrap();
/// let sub = spmm_rows(&adj, &x, &out, &NodeSet::full(50));
/// let full = spmm_rowwise(&adj, &x);
/// assert_eq!(sub.row(0), full.row(3));
/// assert_eq!(sub.row(1), full.row(41));
/// ```
///
/// # Panics
///
/// Panics when shapes disagree, when the node sets were built for a
/// different graph, or when a nonzero column of a requested row is not a
/// member of `in_rows` (the frontier invariant `out ∪ N(out) ⊆ in`).
#[must_use]
pub fn spmm_rows(adj: &Csr, x: &Matrix, out_rows: &NodeSet, in_rows: &NodeSet) -> Matrix {
    assert_eq!(
        x.rows(),
        in_rows.len(),
        "operand rows must match the input node set"
    );
    subset_rows(adj, x.cols(), out_rows, in_rows, |out_row, e, cj| {
        axpy(out_row, e, x.row(cj));
    })
}

/// Row-subset SpGEMM over a CBSR operand (the MaxK serving path):
/// `Y[r,:] = Σ_j A[out_rows[r], j] · scatter(Xs[map(j),:])`.
///
/// `xs` is compact over `in_rows`; the output is dense
/// `out_rows.len() × dim_origin`, and row `r` is bitwise equal to row
/// `out_rows[r]` of [`crate::spgemm::spgemm_forward`] on the full operand
/// (same per-row `(nonzero, slot)` accumulation order, see the module
/// docs).
///
/// Named after the paper's SSpMM because the operand crosses the kernel
/// boundary in sparse CBSR form; unlike the *backward* SSpMM the output
/// here is dense rows, exactly like the forward SpGEMM.
///
/// # Example
///
/// ```
/// use maxk_core::maxk::maxk_forward;
/// use maxk_core::spgemm::spgemm_forward;
/// use maxk_core::subset::sspmm_rows;
/// use maxk_graph::{generate, NodeSet, WarpPartition};
/// use maxk_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let adj = generate::chung_lu_power_law(50, 5.0, 2.3, 2).to_csr().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let xs = maxk_forward(&Matrix::xavier(50, 16, &mut rng), 4).unwrap();
/// let out = NodeSet::from_unsorted(&[7], 50).unwrap();
/// let sub = sspmm_rows(&adj, &xs, &out, &NodeSet::full(50));
/// let full = spgemm_forward(&adj, &xs, &WarpPartition::build(&adj, 16));
/// assert_eq!(sub.row(0), full.row(7));
/// ```
///
/// # Panics
///
/// Same conditions as [`spmm_rows`].
#[must_use]
pub fn sspmm_rows(adj: &Csr, xs: &Cbsr, out_rows: &NodeSet, in_rows: &NodeSet) -> Matrix {
    assert_eq!(
        xs.num_rows(),
        in_rows.len(),
        "CBSR rows must match the input node set"
    );
    with_index!(xs.sp_index(), |index| {
        subset_rows(adj, xs.dim_origin(), out_rows, in_rows, |buf, e, cj| {
            scatter_axpy(buf, e, row(xs, index, cj));
        })
    })
}

/// What makes a kernel row-subset: `width`-wide output rows at `out_rows`
/// only, each nonzero's column looked up in `in_rows`, and otherwise the
/// full kernels' row walk ([`aggregate_rows`]) with `accumulate(out_row,
/// e, compact_column)` per nonzero.
fn subset_rows(
    adj: &Csr,
    width: usize,
    out_rows: &NodeSet,
    in_rows: &NodeSet,
    accumulate: impl Fn(&mut [f32], f32, usize) + Sync,
) -> Matrix {
    assert_eq!(
        in_rows.universe(),
        adj.num_nodes(),
        "input node set universe must match the graph"
    );
    assert_eq!(
        out_rows.universe(),
        adj.num_nodes(),
        "output node set universe must match the graph"
    );
    let ids = out_rows.ids();
    let mut out = Matrix::zeros(ids.len(), width);
    aggregate_rows(
        adj,
        out.data_mut(),
        width,
        |r| ids[r] as usize,
        |j| {
            in_rows
                .compact(j)
                .expect("input node set must cover the requested rows' neighbors")
        },
        |_| &accumulate,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxk::maxk_forward;
    use crate::spgemm::spgemm_forward;
    use crate::spmm::spmm_rowwise;
    use maxk_graph::{generate, normalize, Aggregator, Frontier, WarpPartition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, dim: usize, seed: u64) -> (Csr, Matrix) {
        let csr = generate::chung_lu_power_law(n, 7.0, 2.3, seed)
            .to_csr()
            .unwrap();
        let adj = normalize::normalized(&csr, Aggregator::GcnSym);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let x = Matrix::xavier(n, dim, &mut rng);
        (adj, x)
    }

    #[test]
    fn spmm_rows_bitwise_matches_full_kernel() {
        let (adj, x) = setup(120, 9, 1);
        let full = spmm_rowwise(&adj, &x);
        let out = NodeSet::from_unsorted(&[0, 5, 17, 99, 119], 120).unwrap();
        let sub = spmm_rows(&adj, &x, &out, &NodeSet::full(120));
        for (r, &id) in out.ids().iter().enumerate() {
            assert_eq!(sub.row(r), full.row(id as usize), "row {id}");
        }
    }

    #[test]
    fn sspmm_rows_bitwise_matches_spgemm() {
        // 256 is the last `u8` index width, 257 the first `u16` one.
        for dim in [16, 256, 257] {
            let (adj, mut x) = setup(100, dim, 2);
            // Above Xavier's range: row 0 selects the last column.
            x.set(0, dim - 1, 1.0);
            let xs = maxk_forward(&x, 4).unwrap();
            assert_eq!(xs.index_at(0, 3), dim - 1);
            let part = WarpPartition::build(&adj, 8);
            let full = spgemm_forward(&adj, &xs, &part);
            let out = NodeSet::from_unsorted(&[3, 42, 77], 100).unwrap();
            let sub = sspmm_rows(&adj, &xs, &out, &NodeSet::full(100));
            for (r, &id) in out.ids().iter().enumerate() {
                assert_eq!(sub.row(r), full.row(id as usize), "row {id}");
            }
        }
    }

    #[test]
    fn compact_operand_matches_full_operand() {
        // Feeding the kernel a frontier-compacted operand must give the
        // same bits as the full-width operand.
        let (adj, x) = setup(90, 8, 3);
        let frontier = Frontier::reverse_hops(&adj, &[11, 60], 1).unwrap();
        let (out, ins) = (frontier.seeds(), frontier.inputs());
        let mut compact = Matrix::zeros(ins.len(), x.cols());
        for (c, &id) in ins.ids().iter().enumerate() {
            compact.row_mut(c).copy_from_slice(x.row(id as usize));
        }
        let via_full = spmm_rows(&adj, &x, out, &NodeSet::full(90));
        let via_compact = spmm_rows(&adj, &compact, out, ins);
        assert_eq!(via_full, via_compact);
    }

    #[test]
    #[should_panic(expected = "cover the requested rows' neighbors")]
    fn missing_neighbor_panics() {
        let (adj, x) = setup(50, 4, 4);
        // Find a node with at least one in-edge dependency besides itself.
        let i = (0..50)
            .find(|&i| adj.row(i).0.iter().any(|&j| j as usize != i))
            .expect("power-law graph has edges");
        let out = NodeSet::from_unsorted(&[i as u32], 50).unwrap();
        // Input set deliberately too small: just the output node itself.
        let mut compact = Matrix::zeros(1, 4);
        compact.row_mut(0).copy_from_slice(x.row(i));
        let _ = spmm_rows(&adj, &compact, &out, &out);
    }

    #[test]
    #[should_panic(expected = "operand rows must match")]
    fn shape_mismatch_panics() {
        let (adj, x) = setup(40, 4, 5);
        let out = NodeSet::from_unsorted(&[0], 40).unwrap();
        let _ = spmm_rows(&adj, &x, &out, &out);
    }
}
