//! Property-based tests (proptest) on the core invariants, spanning
//! crates: CBSR format laws, MaxK selection semantics, kernel equivalence
//! over random graphs, partition coverage, transpose involution.

use maxk_gnn::core::maxk::{maxk_backward, maxk_forward, maxk_forward_pivot};
use maxk_gnn::core::spgemm::{spgemm_forward, spgemm_forward_reference};
use maxk_gnn::core::spmm::spmm_rowwise;
use maxk_gnn::core::sspmm::{sspmm_backward, sspmm_backward_outer, sspmm_backward_reference};
use maxk_gnn::core::subset::{spmm_rows, sspmm_rows};
use maxk_gnn::graph::{Coo, Csr, Frontier, NodeSet, WarpPartition};
use maxk_gnn::tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

/// Strategy: a random small graph as (n, edge list).
fn graph_strategy() -> impl Strategy<Value = Csr> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..200).prop_map(move |edges| {
            Coo::from_edges(n, edges)
                .expect("endpoints in range")
                .to_csr()
                .expect("valid CSR")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_transpose_involution(csr in graph_strategy()) {
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn transpose_preserves_nnz_and_values_multiset(csr in graph_strategy()) {
        let t = csr.transpose();
        prop_assert_eq!(t.num_edges(), csr.num_edges());
        t.validate().expect("transpose stays valid");
        // Every entry (i,j,v) appears as (j,i,v).
        for i in 0..csr.num_nodes() {
            let (cols, vals) = csr.row(i);
            for (c, v) in cols.iter().zip(vals) {
                prop_assert_eq!(t.get(*c as usize, i as u32), Some(*v));
            }
        }
    }

    #[test]
    fn partition_is_exact_cover((csr, w) in (graph_strategy(), 1usize..40)) {
        let part = WarpPartition::build(&csr, w);
        let mut covered = vec![0u8; csr.num_edges()];
        for g in part.groups() {
            prop_assert!(g.len as usize <= w);
            for c in &mut covered[g.start..g.start + g.len as usize] {
                *c += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn maxk_keeps_exactly_k_with_max_sum(
        (rows, dim) in (1usize..12, 2usize..24)
    ) {
        let x = Matrix::xavier(rows, dim, &mut rand::rngs::StdRng::seed_from_u64(7));
        let k = 1 + dim / 3;
        let c = maxk_forward(&x, k).expect("k <= dim");
        c.validate().expect("CBSR invariants");
        for r in 0..rows {
            // Selected sum dominates every other k-subset: compare against
            // the sorted-descending tail.
            let mut sorted: Vec<f32> = x.row(r).to_vec();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
            let best: f32 = sorted[..k].iter().sum();
            let got: f32 = c.row_data(r).iter().sum();
            prop_assert!((best - got).abs() < 1e-4);
        }
    }

    #[test]
    fn pivot_equals_exact(
        seed in 0u64..5000
    ) {
        let x = Matrix::xavier(20, 32, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let (pivot, _) = maxk_forward_pivot(&x, 8).expect("k <= dim");
        prop_assert_eq!(&pivot, &maxk_forward(&x, 8).expect("k <= dim"));
        // Exact is what a full sort by (value desc, column asc) keeps.
        for r in 0..20 {
            let row = x.row(r);
            let mut order: Vec<usize> = (0..32).collect();
            order.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("no NaN").then(a.cmp(&b)));
            order.truncate(8);
            order.sort_unstable();
            let got: Vec<usize> = (0..8).map(|t| pivot.index_at(r, t)).collect();
            prop_assert_eq!(got, order);
        }
    }

    #[test]
    fn maxk_backward_is_partial_inverse(
        seed in 0u64..2000
    ) {
        let x = Matrix::xavier(10, 16, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let c = maxk_forward(&x, 4).expect("k <= dim");
        let dense = maxk_backward(&c); // scatter of the selected values
        prop_assert_eq!(&dense, &c.to_dense());
        // Scatter then re-select with the same k returns the same values
        // (top-k of the scattered matrix is the selected set itself,
        // provided the selected values dominate zero-filled slots, which
        // holds when all selected values are positive).
    }

    #[test]
    fn spgemm_equals_densified_spmm(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        let n = csr.num_nodes();
        let x = Matrix::xavier(n, 12, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let xs = maxk_forward(&x, 4).expect("k <= dim");
        let part = WarpPartition::build(&csr, 4);
        let sparse = spgemm_forward(&csr, &xs, &part);
        let dense = spgemm_forward_reference(&csr, &xs);
        prop_assert!(sparse.max_abs_diff(&dense) < 1e-4);
    }

    #[test]
    fn sspmm_equals_masked_dense_product(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::xavier(n, 10, &mut rng);
        let dy = Matrix::xavier(n, 10, &mut rng);
        let pattern = maxk_forward(&x, 3).expect("k <= dim");
        let adj_t = csr.transpose();
        let fast = sspmm_backward(&adj_t, &dy, &pattern);
        let slow = sspmm_backward_reference(&adj_t, &dy, &pattern);
        let diff = fast.sp_data().iter().zip(slow.sp_data())
            .map(|(a, b)| (a - b).abs()).fold(0f32, f32::max);
        prop_assert!(diff < 1e-4);
    }

    #[test]
    fn sspmm_row_parallel_and_outer_product_match_reference(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        // Both production loop orders — the row-parallel gather form and
        // the literal Algorithm 2 outer-product form — must agree with
        // the dense-then-gather reference on random small graphs.
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::xavier(n, 12, &mut rng);
        let dy = Matrix::xavier(n, 12, &mut rng);
        let pattern = maxk_forward(&x, 4).expect("k <= dim");
        let adj_t = csr.transpose();
        let reference = sspmm_backward_reference(&adj_t, &dy, &pattern);
        for (name, fast) in [
            ("row-parallel", sspmm_backward(&adj_t, &dy, &pattern)),
            ("outer-product", sspmm_backward_outer(&adj_t, &dy, &pattern)),
        ] {
            prop_assert_eq!(fast.sp_index(), reference.sp_index());
            let diff = fast.sp_data().iter().zip(reference.sp_data())
                .map(|(a, b)| (a - b).abs()).fold(0f32, f32::max);
            prop_assert!(diff < 1e-4, "{} diff {}", name, diff);
        }
    }

    #[test]
    fn spmm_is_linear_in_features(
        (csr, seed) in (graph_strategy(), 0u64..500)
    ) {
        // SpMM(A, x + y) == SpMM(A, x) + SpMM(A, y)
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::xavier(n, 6, &mut rng);
        let y = Matrix::xavier(n, 6, &mut rng);
        let mut sum = x.clone();
        maxk_gnn::tensor::ops::add_assign(&mut sum, &y);
        let lhs = spmm_rowwise(&csr, &sum);
        let mut rhs = spmm_rowwise(&csr, &x);
        maxk_gnn::tensor::ops::add_assign(&mut rhs, &spmm_rowwise(&csr, &y));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn coo_to_csr_respects_structure(csr in graph_strategy()) {
        csr.validate().expect("generator output valid");
        // Row degrees sum to nnz.
        let total: usize = (0..csr.num_nodes()).map(|i| csr.degree(i)).sum();
        prop_assert_eq!(total, csr.num_edges());
    }

    #[test]
    fn spmm_rows_bitwise_matches_full_kernel_rows(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        // The row-subset serving kernel must reproduce the full kernel's
        // rows bit for bit on any random row subset.
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::xavier(n, 7, &mut rng);
        let full = spmm_rowwise(&csr, &x);
        let picked: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0.0..1.0) < 0.4).collect();
        let picked = if picked.is_empty() { vec![(seed % n as u64) as u32] } else { picked };
        let out = NodeSet::from_unsorted(&picked, n).expect("ids in range");
        let sub = spmm_rows(&csr, &x, &out, &NodeSet::full(n));
        for (r, &id) in out.ids().iter().enumerate() {
            prop_assert_eq!(sub.row(r), full.row(id as usize));
        }
    }

    #[test]
    fn sspmm_rows_bitwise_matches_spgemm_rows(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        // CBSR-operand row subset vs. the full SpGEMM, bitwise, including
        // the frontier-compacted operand path.
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Matrix::xavier(n, 12, &mut rng);
        let xs = maxk_forward(&x, 4).expect("k <= dim");
        let part = WarpPartition::build(&csr, 8);
        let full = spgemm_forward(&csr, &xs, &part);
        let picked: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0.0..1.0) < 0.4).collect();
        let picked = if picked.is_empty() { vec![(seed % n as u64) as u32] } else { picked };
        let out = NodeSet::from_unsorted(&picked, n).expect("ids in range");
        let sub = sspmm_rows(&csr, &xs, &out, &NodeSet::full(n));
        for (r, &id) in out.ids().iter().enumerate() {
            prop_assert_eq!(sub.row(r), full.row(id as usize));
        }
        // Compact operand: gather the 1-hop frontier's input rows and
        // re-run; must stay bitwise identical.
        let frontier = Frontier::reverse_hops(&csr, out.ids(), 1).expect("ids in range");
        let ins = frontier.inputs();
        let mut compact = maxk_gnn::core::Cbsr::zeros(ins.len(), xs.dim_origin(), xs.k());
        for (c, &id) in ins.ids().iter().enumerate() {
            for t in 0..xs.k() {
                compact.set_entry(c, t, xs.index_at(id as usize, t), xs.row_data(id as usize)[t]);
            }
        }
        let sub2 = sspmm_rows(&csr, &compact, &out, ins);
        prop_assert_eq!(&sub2, &sub);
    }

    #[test]
    fn frontier_levels_equal_brute_force_reachability(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        // Each frontier level must equal <=t-step reachability (self
        // included) following adjacency rows from the seed set.
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s0 = rng.gen_range(0..n) as u32;
        let hops = 3;
        let frontier = Frontier::reverse_hops(&csr, &[s0], hops).expect("seed in range");
        let mut reach: std::collections::BTreeSet<u32> = [s0].into_iter().collect();
        for t in 0..=hops {
            let expected: Vec<u32> = reach.iter().copied().collect();
            prop_assert_eq!(frontier.level(t).ids(), expected.as_slice());
            for i in expected {
                for &j in csr.row(i as usize).0 {
                    reach.insert(j);
                }
            }
        }
    }
}

use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shard_halo_covers_local_forwards(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        // Halo-extraction invariants on random graphs: populated local
        // rows reproduce the global rows bitwise (values and remapped
        // column order), ghost rows stay empty, and the local frontier of
        // any owned seed equals the global frontier under the remap.
        use maxk_gnn::graph::shard::Shard;
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lo = rng.gen_range(0..n as u32);
        let hi = rng.gen_range(lo + 1..=n as u32);
        let owned: Vec<u32> = (lo..hi).collect();
        let hops = 2usize;
        let shard = Shard::extract(&csr, &owned, hops).expect("owned in range");
        let frontier = Frontier::reverse_hops(&csr, &owned, hops).expect("owned in range");
        prop_assert_eq!(shard.local().ids(), frontier.inputs().ids());
        let compute = frontier.level(hops - 1);
        for (l, &g) in shard.local().ids().iter().enumerate() {
            let (lcols, lvals) = shard.adj().row(l);
            if compute.contains(g) {
                let (gcols, gvals) = csr.row(g as usize);
                prop_assert_eq!(lvals, gvals);
                let mapped: Vec<u32> = gcols
                    .iter()
                    .map(|&j| shard.to_local(j).expect("halo covers neighbors"))
                    .collect();
                prop_assert_eq!(lcols, mapped.as_slice());
            } else {
                prop_assert!(lcols.is_empty());
            }
        }
        // Local frontier of one owned seed == global frontier, remapped.
        let s0 = owned[rng.gen_range(0..owned.len())];
        let local_seed = shard.to_local(s0).expect("owned is local");
        let local_f = Frontier::reverse_hops(shard.adj(), &[local_seed], hops)
            .expect("local seed in range");
        let global_f = Frontier::reverse_hops(&csr, &[s0], hops).expect("seed in range");
        for t in 0..=hops {
            let back: Vec<u32> = local_f
                .level(t)
                .ids()
                .iter()
                .map(|&l| shard.local().ids()[l as usize])
                .collect();
            prop_assert_eq!(back.as_slice(), global_f.level(t).ids());
        }
    }

    #[test]
    fn sharded_engine_bitwise_equals_single_engine(
        (csr, seed) in (graph_strategy(), 0u64..1000)
    ) {
        // The end-to-end sharded-serving guarantee on random graphs and
        // random seed sets, at 2 and (when possible) 4 shards.
        use maxk_gnn::graph::shard::ShardStrategy;
        use maxk_gnn::nn::snapshot::ModelSnapshot;
        use maxk_gnn::nn::{Activation, Arch, GnnModel, ModelConfig};
        use maxk_gnn::serve::{InferenceEngine, ShardConfig, ShardedEngine};
        let n = csr.num_nodes();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cfg = ModelConfig::new(Arch::Sage, Activation::MaxK(3), 5, 3);
        cfg.hidden_dim = 8;
        cfg.dropout = 0.0;
        let model = GnnModel::new(cfg, &csr, &mut rng);
        let snap = ModelSnapshot::capture(&model);
        let x = Matrix::xavier(n, 5, &mut rng);
        let single = InferenceEngine::from_snapshot(&snap, &csr, x.clone())
            .expect("consistent snapshot");
        let seeds: Vec<u32> = (0..6).map(|_| rng.gen_range(0..n) as u32).collect();
        let expected = single.logits_full(&seeds).expect("seeds in range");
        for num_shards in [2usize, 4] {
            if num_shards > n {
                continue;
            }
            for strategy in [ShardStrategy::Contiguous, ShardStrategy::DegreeBalanced] {
                let sharded = ShardedEngine::from_snapshot(
                    &snap,
                    &csr,
                    &x,
                    ShardConfig { num_shards, strategy },
                )
                .expect("shardable graph");
                prop_assert_eq!(
                    &sharded.logits_for(&seeds).expect("seeds in range"),
                    &expected
                );
            }
        }
    }
}
