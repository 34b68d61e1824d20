//! Aggregator-specific edge-weight normalization.
//!
//! Fig. 5 of the paper annotates the adjacency values per model:
//!
//! * GraphSAGE (mean aggregator): `1/d_i` — each *target* row averages its
//!   neighbors;
//! * GCN: `1/√(d_i · d_j)` — symmetric normalization;
//! * GIN: `1` — plain sum aggregation.

use crate::Csr;

/// Which GNN aggregator the edge values should implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregator {
    /// GCN symmetric normalization `1/√(d_i d_j)`.
    GcnSym,
    /// GraphSAGE mean aggregation `1/d_i` (row mean).
    SageMean,
    /// GIN sum aggregation (all weights `1`).
    GinSum,
}

impl Aggregator {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Aggregator::GcnSym => "gcn-sym",
            Aggregator::SageMean => "sage-mean",
            Aggregator::GinSum => "gin-sum",
        }
    }
}

/// Returns a copy of `csr` with values set per the aggregator rule.
///
/// Degrees are structural out-degrees of the (assumed symmetric) adjacency.
/// Isolated nodes keep zero rows; a degree of zero never divides.
#[must_use]
pub fn normalized(csr: &Csr, aggregator: Aggregator) -> Csr {
    let mut out = csr.clone();
    apply_in_place(&mut out, aggregator);
    out
}

/// In-place version of [`normalized`].
pub fn apply_in_place(csr: &mut Csr, aggregator: Aggregator) {
    let n = csr.num_nodes();
    let degrees: Vec<usize> = (0..n).map(|i| csr.degree(i)).collect();
    let row_ptr = csr.row_ptr().to_vec();
    let col_idx = csr.col_idx().to_vec();
    let values = csr.values_mut();
    for i in 0..n {
        for e in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[e] as usize;
            values[e] = match aggregator {
                Aggregator::GinSum => 1.0,
                Aggregator::SageMean => {
                    if degrees[i] == 0 {
                        0.0
                    } else {
                        1.0 / degrees[i] as f32
                    }
                }
                Aggregator::GcnSym => {
                    let dd = (degrees[i] as f64 * degrees[j] as f64).sqrt();
                    if dd == 0.0 {
                        0.0
                    } else {
                        (1.0 / dd) as f32
                    }
                }
            };
        }
    }
}

/// Inserts a unit-valued diagonal into every row (skipping rows that
/// already carry one) — the GCN self-loop convention. All values of the
/// result are `1.0`; normalize afterwards. The frozen
/// (`GraphContext::build`) and incremental ([`crate::dynamic`]) operand
/// paths both call this one routine, which is what their bit-for-bit
/// agreement rests on.
#[must_use]
pub fn add_self_loops(graph: &Csr) -> Csr {
    let n = graph.num_nodes();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(graph.num_edges() + n);
    row_ptr.push(0usize);
    for i in 0..n {
        let (cols, _) = graph.row(i);
        let mut inserted = false;
        for &c in cols {
            if !inserted && c as usize >= i {
                if c as usize != i {
                    col_idx.push(i as u32);
                }
                inserted = true;
            }
            col_idx.push(c);
        }
        if !inserted {
            col_idx.push(i as u32);
        }
        row_ptr.push(col_idx.len());
    }
    let values = vec![1.0; col_idx.len()];
    Csr::from_parts(n, row_ptr, col_idx, values).expect("self-loop insertion keeps rows sorted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn path_graph() -> Csr {
        // 0 - 1 - 2 (undirected path)
        Coo::from_edges(3, vec![(0, 1), (1, 2)])
            .unwrap()
            .symmetrize()
            .to_csr()
            .unwrap()
    }

    #[test]
    fn gin_weights_are_one() {
        let adj = normalized(&path_graph(), Aggregator::GinSum);
        assert!(adj.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn sage_mean_rows_sum_to_one() {
        let adj = normalized(&path_graph(), Aggregator::SageMean);
        for i in 0..adj.num_nodes() {
            let (_, vals) = adj.row(i);
            if !vals.is_empty() {
                let s: f32 = vals.iter().sum();
                assert!((s - 1.0).abs() < 1e-6, "row {i} sums to {s}");
            }
        }
    }

    #[test]
    fn gcn_sym_is_symmetric() {
        let adj = normalized(&path_graph(), Aggregator::GcnSym);
        // deg(0)=1, deg(1)=2 -> weight(0,1) = 1/sqrt(2)
        let w01 = adj.get(0, 1).unwrap();
        let w10 = adj.get(1, 0).unwrap();
        assert!((w01 - w10).abs() < 1e-7);
        assert!((w01 - 1.0 / 2f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn isolated_nodes_get_zero_rows() {
        let csr = Coo::from_edges(3, vec![(0, 1)])
            .unwrap()
            .symmetrize()
            .to_csr()
            .unwrap();
        for agg in [Aggregator::GcnSym, Aggregator::SageMean, Aggregator::GinSum] {
            let adj = normalized(&csr, agg);
            assert!(adj.row(2).0.is_empty());
            assert!(adj.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn aggregator_names() {
        assert_eq!(Aggregator::GcnSym.name(), "gcn-sym");
        assert_eq!(Aggregator::SageMean.name(), "sage-mean");
        assert_eq!(Aggregator::GinSum.name(), "gin-sum");
    }
}
