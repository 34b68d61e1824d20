//! One-call kernel measurements for a graph at a given `(dim, k)`.

use crate::timing::time_secs;
use maxk_core::maxk::maxk_forward;
use maxk_core::spgemm::spgemm_forward;
use maxk_core::spmm::{spmm_gnnadvisor, spmm_rowwise};
use maxk_core::sspmm::sspmm_backward;
use maxk_graph::{Csr, WarpPartition};
use maxk_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measured CPU wall-clock for the kernel suite at one `(dim, k)` point.
#[derive(Debug, Clone, Copy)]
pub struct CpuKernelTimings {
    /// Row-wise SpMM with dense `dim`-wide features (cuSPARSE-style).
    pub spmm_s: f64,
    /// GNNAdvisor-style neighbor-grouped SpMM, dense features.
    pub gnnadvisor_s: f64,
    /// Forward SpGEMM with `k`-sparse CBSR features.
    pub spgemm_s: f64,
    /// Backward SSpMM producing the CBSR gradient.
    pub sspmm_s: f64,
    /// The MaxK selection kernel.
    pub maxk_s: f64,
}

impl CpuKernelTimings {
    /// Forward-kernel speedup over the cuSPARSE-style baseline.
    pub fn spgemm_speedup_vs_spmm(&self) -> f64 {
        self.spmm_s / self.spgemm_s
    }

    /// Backward-kernel speedup over the cuSPARSE-style baseline.
    pub fn sspmm_speedup_vs_spmm(&self) -> f64 {
        self.spmm_s / self.sspmm_s
    }

    /// Backward-kernel speedup over the GNNAdvisor-style baseline.
    pub fn sspmm_speedup_vs_gnna(&self) -> f64 {
        self.gnnadvisor_s / self.sspmm_s
    }
}

/// Timings of the dense baselines (independent of `k`).
#[derive(Debug, Clone, Copy)]
pub struct BaselineTimings {
    /// Row-wise SpMM (cuSPARSE-style).
    pub spmm_s: f64,
    /// Neighbor-grouped SpMM (GNNAdvisor-style).
    pub gnnadvisor_s: f64,
}

/// Timings of the MaxK-dependent kernels at one `k`.
#[derive(Debug, Clone, Copy)]
pub struct SparseTimings {
    /// Forward SpGEMM.
    pub spgemm_s: f64,
    /// Backward SSpMM.
    pub sspmm_s: f64,
    /// MaxK selection.
    pub maxk_s: f64,
}

/// Times the dense SpMM baselines once for a graph/dimension.
pub fn measure_baselines(
    adj: &Csr,
    dim: usize,
    w: usize,
    reps: usize,
    seed: u64,
) -> BaselineTimings {
    let n = adj.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Matrix::xavier(n, dim, &mut rng);
    let part = WarpPartition::build(adj, w);
    let spmm_s = time_secs(reps, || {
        std::hint::black_box(spmm_rowwise(adj, &x));
    });
    let gnnadvisor_s = time_secs(reps, || {
        std::hint::black_box(spmm_gnnadvisor(adj, &x, &part));
    });
    BaselineTimings {
        spmm_s,
        gnnadvisor_s,
    }
}

/// Times the sparse (MaxK) kernels at one `k`.
///
/// # Panics
///
/// Panics when `k > dim`.
pub fn measure_sparse(
    adj: &Csr,
    dim: usize,
    k: usize,
    w: usize,
    reps: usize,
    seed: u64,
) -> SparseTimings {
    assert!(k <= dim, "k must not exceed dim");
    let n = adj.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Matrix::xavier(n, dim, &mut rng);
    let dxl = Matrix::xavier(n, dim, &mut rng);
    let part = WarpPartition::build(adj, w);
    let adj_t = adj.transpose();
    let xs = maxk_forward(&x, k).expect("k validated");
    let spgemm_s = time_secs(reps, || {
        std::hint::black_box(spgemm_forward(adj, &xs, &part));
    });
    let sspmm_s = time_secs(reps, || {
        std::hint::black_box(sspmm_backward(&adj_t, &dxl, &xs));
    });
    // The selection training and serving run: §5.3's pivot bisection.
    let maxk_s = time_secs(reps, || {
        std::hint::black_box(maxk_forward(&x, k).expect("k validated"));
    });
    SparseTimings {
        spgemm_s,
        sspmm_s,
        maxk_s,
    }
}

/// Times the full kernel suite on `adj` with hidden dimension `dim` and
/// MaxK sparsity `k`.
///
/// Mirrors the paper's Fig. 8 protocol: dense baselines run at the full
/// `dim`; the MaxK kernels run on the CBSR operand produced by the real
/// selection kernel. Deterministic in `seed`.
///
/// # Panics
///
/// Panics when `k > dim`.
pub fn measure_cpu_kernels(
    adj: &Csr,
    dim: usize,
    k: usize,
    w: usize,
    reps: usize,
    seed: u64,
) -> CpuKernelTimings {
    let base = measure_baselines(adj, dim, w, reps, seed);
    let sparse = measure_sparse(adj, dim, k, w, reps, seed);
    CpuKernelTimings {
        spmm_s: base.spmm_s,
        gnnadvisor_s: base.gnnadvisor_s,
        spgemm_s: sparse.spgemm_s,
        sspmm_s: sparse.sspmm_s,
        maxk_s: sparse.maxk_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_graph::generate;

    #[test]
    fn suite_runs_and_speedups_positive() {
        let adj = generate::chung_lu_power_law(400, 16.0, 2.2, 1)
            .to_csr()
            .unwrap();
        let t = measure_cpu_kernels(&adj, 64, 8, 16, 2, 3);
        assert!(t.spmm_s > 0.0 && t.spgemm_s > 0.0 && t.sspmm_s > 0.0);
        assert!(t.spgemm_speedup_vs_spmm() > 0.0);
        assert!(t.sspmm_speedup_vs_gnna() > 0.0);
    }

    #[test]
    fn sparse_kernels_beat_dense_at_low_k() {
        // dim 128 vs k 4 on a high-degree graph: the sparse kernels do
        // ~32x less multiply work; even with overheads they must win.
        // Thresholds are conservative, and the measurement retries a few
        // times, because test runners share the CPU with other suites.
        let adj = generate::chung_lu_power_law(1200, 48.0, 2.2, 5)
            .to_csr()
            .unwrap();
        let mut last = measure_cpu_kernels(&adj, 128, 4, 16, 3, 7);
        for _ in 0..3 {
            if last.spgemm_speedup_vs_spmm() > 1.2 && last.sspmm_speedup_vs_spmm() > 1.2 {
                break;
            }
            last = measure_cpu_kernels(&adj, 128, 4, 16, 3, 7);
        }
        assert!(
            last.spgemm_speedup_vs_spmm() > 1.2,
            "spgemm speedup {}",
            last.spgemm_speedup_vs_spmm()
        );
        assert!(
            last.sspmm_speedup_vs_spmm() > 1.2,
            "sspmm speedup {}",
            last.sspmm_speedup_vs_spmm()
        );
    }

    #[test]
    #[should_panic(expected = "k must not exceed")]
    fn oversized_k_rejected() {
        let adj = generate::erdos_renyi(50, 4.0, 0).to_csr().unwrap();
        let _ = measure_cpu_kernels(&adj, 8, 9, 8, 1, 0);
    }
}
