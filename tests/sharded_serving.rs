//! Sharded-serving acceptance tests (ISSUE 4): for any seed set, the
//! [`ShardedEngine`] must produce logits bitwise equal to the single
//! [`InferenceEngine`], row for row, at several shard counts and under
//! both partitioning strategies — standalone and through the
//! micro-batching server — and queries with duplicate/unsorted seeds must
//! come back identical across the full, partial and sharded paths.

use maxk_gnn::graph::datasets::{Scale, TrainingDataset};
use maxk_gnn::graph::shard::ShardStrategy;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, GnnModel, ModelConfig};
use maxk_gnn::serve::{InferenceEngine, Server, ShardConfig, ShardedEngine};
use maxk_gnn::tensor::Matrix;
use rand::SeedableRng;
use std::sync::Arc;

fn setup(arch: Arch, act: Activation) -> (maxk_gnn::graph::Csr, Matrix, ModelSnapshot) {
    setup_at(arch, act, 10, 16)
}

fn setup_at(
    arch: Arch,
    act: Activation,
    in_dim: usize,
    hidden: usize,
) -> (maxk_gnn::graph::Csr, Matrix, ModelSnapshot) {
    let graph = maxk_gnn::graph::generate::chung_lu_power_law(140, 6.0, 2.3, 13)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(arch, act, in_dim, 4);
    cfg.hidden_dim = hidden;
    cfg.dropout = 0.0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let x = Matrix::xavier(140, in_dim, &mut rng);
    (graph, x, ModelSnapshot::capture(&model))
}

fn sharded(
    snap: &ModelSnapshot,
    graph: &maxk_gnn::graph::Csr,
    x: &Matrix,
    num_shards: usize,
    strategy: ShardStrategy,
) -> ShardedEngine {
    ShardedEngine::from_snapshot(
        snap,
        graph,
        x,
        ShardConfig {
            num_shards,
            strategy,
        },
    )
    .unwrap()
}

#[test]
fn sharded_logits_bitwise_equal_single_engine_at_2_and_4_shards() {
    for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
        for act in [Activation::Relu, Activation::MaxK(5)] {
            // 10 → 16 computes layer 0's combination phase per batch;
            // 96 → 8 keeps it (computed once on the global matrix, each
            // shard holding its owned and ghost rows of it).
            for (in_dim, hidden, hoisted) in [(10usize, 16usize, false), (96, 8, true)] {
                let (graph, x, snap) = setup_at(arch, act, in_dim, hidden);
                let single = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
                assert_eq!(single.layer_costs()[0].linear_hoisted, hoisted);
                for num_shards in [2usize, 4] {
                    for strategy in [ShardStrategy::Contiguous, ShardStrategy::DegreeBalanced] {
                        let engine = sharded(&snap, &graph, &x, num_shards, strategy);
                        let seeds = [0u32, 139, 70, 35, 105];
                        assert_eq!(
                            engine.logits_for(&seeds).unwrap(),
                            single.logits_full(&seeds).unwrap(),
                            "{arch:?} {act:?} {in_dim}→{hidden} S={num_shards} {strategy:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn duplicate_and_unsorted_seeds_identical_across_all_three_paths() {
    // Regression suite for the gather/remap chain: request-order logits
    // for a messy seed list (duplicates, descending, interleaved) must be
    // identical across the full, partial and sharded paths, and each row
    // must equal the corresponding full-forward row.
    let (graph, x, snap) = setup(Arch::Sage, Activation::MaxK(5));
    let single = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
    let all = single.forward_all();
    let engine2 = sharded(&snap, &graph, &x, 2, ShardStrategy::DegreeBalanced);
    let engine4 = sharded(&snap, &graph, &x, 4, ShardStrategy::Contiguous);
    let messy: Vec<u32> = vec![120, 3, 120, 77, 3, 0, 139, 77, 77, 1];
    let full = single.logits_full(&messy).unwrap();
    let partial = single.logits_partial(&messy).unwrap();
    let s2 = engine2.logits_for(&messy).unwrap();
    let s4 = engine4.logits_for(&messy).unwrap();
    assert_eq!(full, partial, "partial path diverged");
    assert_eq!(full, s2, "2-shard path diverged");
    assert_eq!(full, s4, "4-shard path diverged");
    for (r, &seed) in messy.iter().enumerate() {
        assert_eq!(full.row(r), all.row(seed as usize), "request row {r}");
    }
}

#[test]
fn sharded_server_round_trip_matches_single_engine() {
    let (graph, x, snap) = setup(Arch::Gcn, Activation::MaxK(5));
    let single = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
    let expected = single.forward_all();
    let engine = Arc::new(sharded(&snap, &graph, &x, 2, ShardStrategy::DegreeBalanced));
    let server = Server::builder().start(Arc::clone(&engine));
    let handle = server.handle();
    // Concurrent clients with overlapping, cross-shard seed sets.
    std::thread::scope(|s| {
        for c in 0..6u32 {
            let h = handle.clone();
            let expected = &expected;
            s.spawn(move || {
                let seeds = [c, 139 - c, c, 70];
                let resp = h
                    .query(&seeds)
                    .unwrap()
                    .into_answer()
                    .expect("default admission answers every valid query");
                for (r, &seed) in seeds.iter().enumerate() {
                    assert_eq!(
                        resp.logits.row(r),
                        expected.row(seed as usize),
                        "client {c} row {r}"
                    );
                }
            });
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.queries, 6);
    assert_eq!(stats.shard_batches.len(), 2);
    // Every batch is counted at most once per shard.
    for &b in &stats.shard_batches {
        assert!(b <= stats.batches);
    }
}

#[test]
fn sharded_serving_on_dataset_standin() {
    // End-to-end on the Flickr stand-in: shard the trained snapshot
    // 2 ways and verify a spread seed sample bitwise.
    let data = TrainingDataset::Flickr.generate(Scale::Test, 42).unwrap();
    let mut cfg = ModelConfig::new(
        Arch::Sage,
        Activation::MaxK(8),
        data.in_dim,
        data.num_classes,
    );
    cfg.hidden_dim = 32;
    cfg.num_layers = 2;
    cfg.dropout = 0.0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = GnnModel::new(cfg, &data.csr, &mut rng);
    let snap = ModelSnapshot::capture(&model);
    let features =
        Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone()).unwrap();
    let single = InferenceEngine::from_snapshot(&snap, &data.csr, features.clone()).unwrap();
    let engine = sharded(
        &snap,
        &data.csr,
        &features,
        2,
        ShardStrategy::DegreeBalanced,
    );
    let n = data.csr.num_nodes() as u32;
    let seeds: Vec<u32> = (0..64).map(|i| (i * 23) % n).collect();
    assert_eq!(
        engine.logits_for(&seeds).unwrap(),
        single.logits_full(&seeds).unwrap()
    );
    // The per-shard footprint must not exceed the full graph's, and owned
    // sets must cover it exactly.
    let owned: usize = (0..2).map(|s| engine.shard_info(s).owned_nodes).sum();
    assert_eq!(owned, data.csr.num_nodes());
    for s in 0..2 {
        let info = engine.shard_info(s);
        assert!(info.feature_rows <= data.csr.num_nodes());
        assert!(info.resident_edges <= single.context().adj.num_edges());
    }
}
