//! ESC-style general SpGEMM (expand–sort–compress) with a *sparse* output.
//!
//! §3.2 of the paper argues that MaxK-GNN's forward product can assume a
//! **dense** output row, which "obviates the costly ESC overhead usually
//! encountered with SpGEMM design" (citing Dalton et al.'s GPU SpGEMM).
//! This module implements that conventional ESC pipeline — expand all
//! partial products, sort by column, compress duplicates — so the claim
//! is testable: `spgemm_esc` produces the same values as
//! [`spgemm_forward`](crate::spgemm::spgemm_forward) but pays the
//! sort/compress cost per output row (see the `ablation_esc` bench group).

use crate::cbsr::{row, with_index, Cbsr};
use maxk_graph::Csr;
use maxk_tensor::{parallel, Matrix};

/// A rectangular sparse matrix in CSR layout (`rows × cols`), the output
/// type of the general SpGEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseRows {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Borrowed `(columns, values)` view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let dst = out.row_mut(r);
            for (c, v) in cols.iter().zip(vals) {
                dst[*c as usize] = *v;
            }
        }
        out
    }

    /// Mean nonzeros per row (the output-density statistic that makes ESC
    /// expensive for high-degree graphs).
    pub fn avg_row_nnz(&self) -> f64 {
        self.nnz() as f64 / self.rows.max(1) as f64
    }
}

/// General SpGEMM `Y = A · Xs` via expand–sort–compress, keeping the
/// output sparse.
///
/// Per output row: *expand* every `(column, value)` partial product from
/// each neighbor's CBSR row, *sort* by column, *compress* duplicates by
/// summation. Parallel over output rows.
///
/// # Panics
///
/// Panics when `xs.num_rows() != adj.num_nodes()`.
#[must_use]
pub fn spgemm_esc(adj: &Csr, xs: &Cbsr) -> SparseRows {
    assert_eq!(
        xs.num_rows(),
        adj.num_nodes(),
        "CBSR rows must match graph nodes"
    );
    let n = adj.num_nodes();
    // Per-chunk row assembly, stitched afterwards.
    let chunks = with_index!(xs.sp_index(), |index| {
        parallel::par_row_map(n, 16, |lo, hi| {
            let mut row_ptr_local = Vec::with_capacity(hi - lo + 1);
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            let mut scratch: Vec<(u32, f32)> = Vec::new();
            row_ptr_local.push(0usize);
            for i in lo..hi {
                // Expand.
                scratch.clear();
                let (cols, vals) = adj.row(i);
                for (&j, &e) in cols.iter().zip(vals) {
                    let (row_vals, row_cols) = row(xs, index, j as usize);
                    let pairs = row_cols.iter().zip(row_vals);
                    scratch.extend(pairs.map(|(&c, &v)| (u32::from(c), e * v)));
                }
                // Sort.
                scratch.sort_unstable_by_key(|&(c, _)| c);
                // Compress.
                let mut iter = scratch.iter().copied();
                if let Some((mut cur_c, mut cur_v)) = iter.next() {
                    for (c, v) in iter {
                        if c == cur_c {
                            cur_v += v;
                        } else {
                            col_idx.push(cur_c);
                            values.push(cur_v);
                            cur_c = c;
                            cur_v = v;
                        }
                    }
                    col_idx.push(cur_c);
                    values.push(cur_v);
                }
                row_ptr_local.push(col_idx.len());
            }
            (row_ptr_local, col_idx, values)
        })
    });

    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0usize);
    for (rp_local, ci, vs) in chunks {
        let base = col_idx.len();
        for &end in &rp_local[1..] {
            row_ptr.push(base + end);
        }
        col_idx.extend(ci);
        values.extend(vs);
    }
    SparseRows {
        rows: n,
        cols: xs.dim_origin(),
        row_ptr,
        col_idx,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxk::maxk_forward;
    use crate::spgemm::spgemm_forward_reference;
    use maxk_graph::{generate, normalize, Aggregator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, deg: f64, dim: usize, k: usize, seed: u64) -> (Csr, Cbsr) {
        let csr = generate::chung_lu_power_law(n, deg, 2.3, seed)
            .to_csr()
            .unwrap();
        let adj = normalize::normalized(&csr, Aggregator::GcnSym);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let x = maxk_tensor::Matrix::xavier(n, dim, &mut rng);
        let xs = maxk_forward(&x, k).unwrap();
        (adj, xs)
    }

    #[test]
    fn esc_matches_dense_output_kernel() {
        let (adj, xs) = setup(150, 8.0, 24, 6, 1);
        let esc = spgemm_esc(&adj, &xs);
        let dense = spgemm_forward_reference(&adj, &xs);
        assert!(esc.to_dense().max_abs_diff(&dense) < 1e-4);
    }

    #[test]
    fn esc_output_is_sorted_and_deduped() {
        let (adj, xs) = setup(100, 6.0, 16, 4, 2);
        let out = spgemm_esc(&adj, &xs);
        for r in 0..out.rows() {
            let (cols, _) = out.row(r);
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "row {r} unsorted/duplicated");
            }
        }
    }

    #[test]
    fn output_density_grows_with_degree() {
        // The union-of-patterns effect: higher degree -> denser output ->
        // more ESC work, exactly why the paper prefers a dense output.
        let (lo_adj, lo_xs) = setup(300, 3.0, 32, 4, 3);
        let (hi_adj, hi_xs) = setup(300, 30.0, 32, 4, 4);
        let lo = spgemm_esc(&lo_adj, &lo_xs).avg_row_nnz();
        let hi = spgemm_esc(&hi_adj, &hi_xs).avg_row_nnz();
        assert!(hi > lo, "hi-degree density {hi} <= lo-degree {lo}");
    }

    #[test]
    fn empty_rows_produce_no_entries() {
        let coo = maxk_graph::Coo::from_edges(4, vec![(0, 1)]).unwrap();
        let adj = coo.to_csr().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let x = maxk_tensor::Matrix::xavier(4, 8, &mut rng);
        let xs = maxk_forward(&x, 2).unwrap();
        let out = spgemm_esc(&adj, &xs);
        assert_eq!(out.row(1).0.len(), 0);
        assert_eq!(out.row(0).0.len(), 2);
        assert_eq!(out.nnz(), 2);
    }

    #[test]
    fn parallel_stitching_is_consistent() {
        // Row pointers must be strictly consistent across chunk seams.
        let (adj, xs) = setup(500, 10.0, 16, 4, 6);
        let out = spgemm_esc(&adj, &xs);
        assert_eq!(*out.row_ptr.last().unwrap(), out.nnz());
        for r in 0..out.rows() {
            assert!(out.row_ptr[r] <= out.row_ptr[r + 1]);
        }
    }
}
