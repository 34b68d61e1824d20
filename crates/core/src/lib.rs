//! MaxK-GNN core: the paper's contribution.
//!
//! This crate implements, from scratch:
//!
//! * the **CBSR** (Compressed Balanced Sparse Row) feature format
//!   ([`cbsr`]) — `sp_data` + `sp_index` stored per node, §3.2 — with the
//!   `u8`/`u16` index decision and the per-row scatter/gather loops every
//!   kernel below runs;
//! * the **MaxK nonlinearity** ([`maxk`]) — top-`k` selection per node
//!   embedding with the paper's pivot-bisection kernel and its gradient
//!   ([`Cbsr::to_dense`] through the forward sparsity pattern);
//! * the **forward row-wise-product SpGEMM kernel** ([`spgemm`]) —
//!   Algorithm 1: Edge-Group partitioning, shared-memory sparse
//!   accumulation buffer, coalesced atomic write-back;
//! * the **backward outer-product SSpMM kernel** ([`sspmm`]) —
//!   Algorithm 2: dense-row prefetch, `sp_index`-directed gather, atomic
//!   accumulation into `sp_data`;
//! * the **SpMM baselines** it is compared against ([`spmm`]) — a
//!   cuSPARSE-style row-wise kernel and a GNNAdvisor-style
//!   neighbor-grouped kernel — beside the one CSR row walk
//!   (`spmm::aggregate_rows`) every row-wise kernel but SpGEMM calls;
//! * the **row-subset serving kernels** ([`subset`]) — that walk at a
//!   requested output-row set over a frontier-compacted operand, so
//!   bitwise equal to the full kernels' rows (the seed-restricted
//!   partial-forward hot path);
//! * the §4.3 closed-form **traffic model** ([`traffic`]);
//! * **simulated GPU versions** of all kernels ([`sim_kernels`]) that
//!   replay each kernel's memory-access trace through
//!   [`maxk_gpu_sim`]'s cache hierarchy, producing the
//!   Table 2 counters.
//!
//! CPU kernels are the functional engine (used for real training in
//! `maxk-nn`) and are verified against dense references; simulated kernels
//! reproduce the memory-system behaviour and are cross-checked against the
//! closed-form traffic model.
//!
//! # Example
//!
//! ```
//! use maxk_core::maxk::maxk_forward;
//! use maxk_core::spgemm::spgemm_forward;
//! use maxk_graph::{generate, normalize, Aggregator, WarpPartition};
//! use maxk_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let csr = generate::chung_lu_power_law(200, 8.0, 2.3, 1).to_csr()?;
//! let adj = normalize::normalized(&csr, Aggregator::GcnSym);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let x = Matrix::xavier(200, 32, &mut rng);
//!
//! let sparse = maxk_forward(&x, 8)?;       // MaxK nonlinearity -> CBSR
//! let part = WarpPartition::build(&adj, 32);
//! let y = spgemm_forward(&adj, &sparse, &part); // feature aggregation
//! assert_eq!(y.shape(), (200, 32));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cbsr;
pub mod esc;
pub mod maxk;
pub mod sim_kernels;
pub mod spgemm;
pub mod spmm;
pub mod sspmm;
pub mod subset;
pub mod traffic;

pub use cbsr::{Cbsr, SpIndex};
pub use maxk::{maxk_backward, maxk_forward, maxk_forward_pivot};

use std::error::Error;
use std::fmt;

/// Errors produced by the MaxK kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// Requested `k` exceeds the feature dimension.
    KTooLarge {
        /// Requested sparsity level.
        k: usize,
        /// Hidden dimension of the feature map.
        dim: usize,
    },
    /// `k` must be positive.
    KZero,
    /// Operand dimensions disagree.
    DimMismatch {
        /// Description of the operation.
        op: &'static str,
        /// Expected value.
        expected: usize,
        /// Actual value.
        actual: usize,
    },
    /// A CBSR index was out of range or unsorted.
    InvalidIndex {
        /// Row where the problem was detected.
        row: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::KTooLarge { k, dim } => {
                write!(f, "k = {k} exceeds feature dimension {dim}")
            }
            KernelError::KZero => write!(f, "k must be positive"),
            KernelError::DimMismatch {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "dimension mismatch in {op}: expected {expected}, got {actual}"
                )
            }
            KernelError::InvalidIndex { row } => {
                write!(f, "invalid CBSR index in row {row}")
            }
        }
    }
}

impl Error for KernelError {}

/// Convenience alias for results in this crate.
pub type Result<T, E = KernelError> = std::result::Result<T, E>;

#[cfg(test)]
/// The accumulation-order contract: every aggregation kernel equals, bit
/// for bit, a straight-line serial loop in CSR order then slot order.
/// Kernel refactors (shared primitives, index-width monomorphisation,
/// nonzero-balanced chunking) have to keep these equalities.
mod accumulation_order {
    use crate::maxk::{maxk_backward, maxk_forward};
    use crate::spgemm::spgemm_forward;
    use crate::spmm::spmm_rowwise;
    use crate::sspmm::sspmm_backward;
    use crate::subset::{spmm_rows, sspmm_rows};
    use crate::Cbsr;
    use maxk_graph::{generate, normalize, Aggregator, Csr, Frontier, NodeSet, WarpPartition};
    use maxk_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `Y[r,:] = Σ_j A[out[r], j] · X[col(j),:]`, one scalar at a time.
    fn serial_spmm(adj: &Csr, x: &Matrix, out: &[u32], col: impl Fn(u32) -> usize) -> Matrix {
        let mut y = Matrix::zeros(out.len(), x.cols());
        for (r, &i) in out.iter().enumerate() {
            let (cols, vals) = adj.row(i as usize);
            for (&j, &e) in cols.iter().zip(vals) {
                for d in 0..x.cols() {
                    let acc = y.get(r, d) + e * x.get(col(j), d);
                    y.set(r, d, acc);
                }
            }
        }
        y
    }

    /// `Y[r, idx(c,t)] += A[out[r], j] · Xs[c,t]` with `c = col(j)`.
    fn serial_spgemm(adj: &Csr, xs: &Cbsr, out: &[u32], col: impl Fn(u32) -> usize) -> Matrix {
        let mut y = Matrix::zeros(out.len(), xs.dim_origin());
        for (r, &i) in out.iter().enumerate() {
            let (cols, vals) = adj.row(i as usize);
            for (&j, &e) in cols.iter().zip(vals) {
                let c = col(j);
                for t in 0..xs.k() {
                    let acc = y.get(r, xs.index_at(c, t)) + e * xs.row_data(c)[t];
                    y.set(r, xs.index_at(c, t), acc);
                }
            }
        }
        y
    }

    /// `dXs[i,t] = Σ_j Aᵀ[i,j] · dXl[j, idx(i,t)]`.
    fn serial_sspmm_backward(adj_t: &Csr, dxl: &Matrix, pattern: &Cbsr) -> Cbsr {
        let k = pattern.k();
        let mut out = pattern.zeros_like_pattern();
        for i in 0..adj_t.num_nodes() {
            let (cols, vals) = adj_t.row(i);
            for (&j, &e) in cols.iter().zip(vals) {
                for t in 0..k {
                    out.sp_data_mut()[i * k + t] += e * dxl.get(j as usize, pattern.index_at(i, t));
                }
            }
        }
        out
    }

    fn serial_scatter(dy: &Cbsr) -> Matrix {
        let mut out = Matrix::zeros(dy.num_rows(), dy.dim_origin());
        for r in 0..dy.num_rows() {
            for t in 0..dy.k() {
                out.set(r, dy.index_at(r, t), dy.row_data(r)[t]);
            }
        }
        out
    }

    #[test]
    fn kernels_equal_serial_csr_order_slot_order_loops() {
        let n = 400;
        let csr = generate::chung_lu_power_law(n, 6.0, 2.1, 3)
            .to_csr()
            .unwrap();
        let adj = normalize::normalized(&csr, Aggregator::SageMean);
        let adj_t = adj.transpose();
        let empty = (0..n).find(|&i| adj.degree(i) == 0).expect("an empty row") as u32;
        let hub = (0..n).find(|&i| adj.degree(i) > 32).expect("a hub row") as u32;
        let all: Vec<u32> = (0..n as u32).collect();
        let frontier = Frontier::reverse_hops(&adj, &[empty, hub, 7, 311], 1).unwrap();
        let (out, ins) = (frontier.seeds(), frontier.inputs());
        let compact = |j: u32| ins.compact(j).unwrap();

        // The last u8 index width and the first u16 one.
        for dim in [256, 257] {
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let x = Matrix::xavier(n, dim, &mut rng);
            let xs = maxk_forward(&x, 12).unwrap();
            let dxl = Matrix::xavier(n, dim, &mut rng);

            assert_eq!(
                spmm_rowwise(&adj, &x),
                serial_spmm(&adj, &x, &all, |j| j as usize)
            );
            let full = serial_spgemm(&adj, &xs, &all, |j| j as usize);
            for w in [4, 32] {
                let part = WarpPartition::build(&adj, w);
                assert_eq!(spgemm_forward(&adj, &xs, &part), full, "EG width {w}");
            }
            assert_eq!(
                sspmm_backward(&adj_t, &dxl, &xs),
                serial_sspmm_backward(&adj_t, &dxl, &xs)
            );
            assert_eq!(maxk_backward(&xs), serial_scatter(&xs));

            let rows: Vec<usize> = ins.ids().iter().map(|&id| id as usize).collect();
            let x_in = Matrix::from_vec(
                rows.len(),
                dim,
                rows.iter().flat_map(|&r| x.row(r).to_vec()).collect(),
            )
            .unwrap();
            assert_eq!(
                spmm_rows(&adj, &x_in, out, ins),
                serial_spmm(&adj, &x_in, out.ids(), compact)
            );
            let xs_in = xs.gather_rows(&rows);
            assert_eq!(
                sspmm_rows(&adj, &xs_in, out, ins),
                serial_spgemm(&adj, &xs_in, out.ids(), compact)
            );
            assert_eq!(
                sspmm_rows(&adj, &xs, out, &NodeSet::full(n)),
                serial_spgemm(&adj, &xs, out.ids(), |j| j as usize)
            );
        }
    }

    /// A matrix's bits, row-major.
    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A CBSR's value bits followed by its column indices.
    fn cbsr_bits(c: &Cbsr) -> Vec<u32> {
        let mut out: Vec<u32> = c.sp_data().iter().map(|v| v.to_bits()).collect();
        for r in 0..c.num_rows() {
            out.extend((0..c.k()).map(|t| c.index_at(r, t) as u32));
        }
        out
    }

    /// The scheduler's worker count decides which thread runs a row, never
    /// what the row holds: every per-row kernel and elementwise pass, and
    /// both losses' gradients, give the 1-worker bits at 2, 3 and 8
    /// workers. The row counts give fewer blocks than workers, as many,
    /// and more, at each kernel's smallest block.
    #[test]
    fn kernels_are_bitwise_at_any_worker_count() {
        use maxk_tensor::{loss, ops, parallel};
        use rand::Rng;

        for n in [40, 400, 2000] {
            let csr = generate::chung_lu_power_law(n, 6.0, 2.1, 3)
                .to_csr()
                .unwrap();
            let adj = normalize::normalized(&csr, Aggregator::SageMean);
            let adj_t = adj.transpose();
            let part = WarpPartition::build(&adj, 4);
            let dim = 257;
            let mut rng = StdRng::seed_from_u64(n as u64);
            let x = Matrix::xavier(n, dim, &mut rng);
            let w = Matrix::xavier(dim, 64, &mut rng);
            let dy = Matrix::xavier(n, dim, &mut rng);
            let keep: Vec<bool> = (0..n * dim).map(|_| rng.gen()).collect();
            let classes = 10;
            let logits = Matrix::xavier(n, classes, &mut rng);
            let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..classes as u32)).collect();
            let targets: Vec<u8> = (0..n * classes)
                .map(|_| u8::from(rng.gen::<bool>()))
                .collect();
            let train: Vec<bool> = (0..n).map(|i| i % 4 != 0).collect();

            let run = || {
                let xs = maxk_forward(&x, 12).unwrap();
                let mut scattered = dy.clone();
                xs.scatter_axpy(0.5, &mut scattered);
                let mut gathered = xs.clone();
                gathered.gather_axpy(0.5, &dy);
                let mut sum = x.clone();
                ops::add_assign(&mut sum, &dy);
                vec![
                    bits(&ops::matmul(&x, &w)),
                    bits(&spmm_rowwise(&adj, &x)),
                    bits(&spgemm_forward(&adj, &xs, &part)),
                    cbsr_bits(&sspmm_backward(&adj_t, &dy, &xs)),
                    cbsr_bits(&xs),
                    bits(&scattered),
                    cbsr_bits(&gathered),
                    bits(&ops::relu(&x)),
                    bits(&ops::relu_backward(&x, &dy)),
                    bits(&sum),
                    bits(&ops::dropout_backward(&dy, &keep, 0.5)),
                    bits(&loss::softmax_cross_entropy(&logits, &labels, &train).1),
                    bits(&loss::sigmoid_bce(&logits, &targets, &train).1),
                ]
            };
            let want = parallel::with_workers(1, run);
            for workers in [2, 3, 8] {
                let got = parallel::with_workers(workers, run);
                for (kernel, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert!(got == want, "kernel {kernel}: {n} rows, {workers} workers");
                }
            }
        }
    }
}
