//! Logit cache & in-flight coalescing acceptance suite (ISSUE 6).
//!
//! Covers the cache-layer invariants end to end through the server:
//! cached answers bitwise-identical to the uncached forward for
//! *arbitrary seed multisets* (property-tested), coalesced followers
//! observing the leader's `SnapshotGeneration`, the exact
//! hit/miss/coalesced accounting of every answered seed instance, the
//! capacity bound under churn, and the versioned-identity plumbing
//! (fresh generation per snapshot load, fresh graph version per context
//! build, cache partitioned by both).

use maxk_gnn::graph::generate;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, GnnModel, ModelConfig};
use maxk_gnn::serve::{
    BatchEngine, CacheConfig, InferenceEngine, LogitCache, QueryOptions, Server, ServerHandle,
    ShardConfig, ShardedEngine,
};
use maxk_gnn::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 70;

fn setup() -> (maxk_gnn::graph::Csr, Matrix, ModelSnapshot) {
    setup_at(6, 12)
}

fn setup_at(in_dim: usize, hidden: usize) -> (maxk_gnn::graph::Csr, Matrix, ModelSnapshot) {
    let graph = generate::chung_lu_power_law(NODES, 5.0, 2.3, 13)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(Arch::Sage, Activation::MaxK(4), in_dim, 3);
    cfg.hidden_dim = hidden;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(29);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let x = Matrix::xavier(NODES, in_dim, &mut rng);
    (graph, x, ModelSnapshot::capture(&model))
}

fn engine() -> Arc<InferenceEngine> {
    let (graph, x, snap) = setup();
    Arc::new(InferenceEngine::from_snapshot(&snap, &graph, x).unwrap())
}

fn query(handle: &ServerHandle, seeds: &[u32]) -> maxk_gnn::serve::QueryAnswer {
    handle
        .query(seeds)
        .expect("live server")
        .into_answer()
        .expect("default admission answers every valid query")
}

/// Identity plumbing: every snapshot load mints a fresh generation,
/// every context build a fresh graph version, and the cache keyspace is
/// partitioned by both — serving after a reload can never alias stale
/// rows.
#[test]
fn reload_mints_fresh_identities_and_partitions_the_cache() {
    let (graph, x, snap) = setup();
    let bytes = snap.to_bytes();
    let reloaded = ModelSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap, reloaded, "identity is excluded from equality");
    assert_ne!(
        snap.generation, reloaded.generation,
        "each load is a distinct generation"
    );
    let e1 = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
    let e2 = InferenceEngine::from_snapshot(&reloaded, &graph, x).unwrap();
    assert_eq!(e1.generation(), snap.generation);
    assert_ne!(e1.generation(), e2.generation());
    assert_ne!(e1.graph_version(), e2.graph_version());

    let cache = LogitCache::new(CacheConfig { capacity: 16 });
    let row = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
    cache.fill_rows(e1.generation(), e1.graph_version(), &[3], &row);
    assert!(cache
        .probe(e1.generation(), e1.graph_version(), 3)
        .is_some());
    assert!(
        cache
            .probe(e2.generation(), e2.graph_version(), 3)
            .is_none(),
        "a reloaded engine's identity must miss the old entries"
    );
}

/// The capacity bound holds under churn through the full serving path:
/// resident rows never exceed the configured capacity no matter how many
/// distinct seeds pass through.
#[test]
fn cache_capacity_bounds_residency_through_the_server() {
    let engine = engine();
    let server = Server::builder()
        .cache_capacity(8)
        .batch_window(Duration::ZERO)
        .max_batch(4)
        .workers(1)
        .start(engine);
    let handle = server.handle();
    for i in 0..(NODES as u32) {
        let _ = query(&handle, &[i]);
    }
    let stats = server.shutdown();
    let cache = stats.cache.expect("cache enabled");
    assert!(cache.resident_rows <= 8, "resident {}", cache.resident_rows);
    assert!(cache.evictions >= (NODES as u64) - 8);
    // Every answered instance still accounted exactly once.
    assert_eq!(cache.hits + cache.misses + cache.coalesced, stats.queries);
}

/// Coalesced followers observe the same `SnapshotGeneration` (and graph
/// version) as the leader that computed the row — the follower's answer
/// is the leader's published computation, not a recompute under some
/// other identity.
#[test]
fn coalesced_followers_observe_the_leader_generation() {
    let engine = engine();
    let expected = engine.forward_all();
    // Single-seed queries from many threads with a tiny batch window:
    // overlapping batches repeatedly want the same hot seed, so claims
    // coalesce across batches (and within a batch, duplicate seeds share
    // the one union row).
    let server = Server::builder()
        .cache_capacity(64)
        .batch_window(Duration::from_micros(200))
        .max_batch(2)
        .workers(3)
        .start(Arc::clone(&engine));
    let handle = server.handle();
    let answers: Vec<_> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..12u64)
            .map(|c| {
                let h = handle.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..20u32 {
                        let seed = i % 3; // three hot seeds, heavy overlap
                        let a = h
                            .request(&[seed], QueryOptions::new().for_client(c))
                            .and_then(|p| p.wait())
                            .expect("live server")
                            .into_answer()
                            .expect("answered");
                        got.push((seed, a));
                    }
                    got
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("client thread"))
            .collect()
    });
    let stats = server.shutdown();
    for (seed, a) in &answers {
        assert_eq!(
            a.generation,
            engine.generation(),
            "every answer (leader, follower or hit) carries the engine's generation"
        );
        assert_eq!(a.graph_version, engine.graph_version());
        assert_eq!(
            a.logits.row(0),
            expected.row(*seed as usize),
            "seed {seed} diverged"
        );
    }
    let cache = stats.cache.expect("cache enabled");
    assert_eq!(stats.queries, 240);
    assert_eq!(
        cache.hits + cache.misses + cache.coalesced,
        stats.queries,
        "per-instance accounting must be exact"
    );
    assert_eq!(
        cache.misses, 3,
        "three hot seeds computed exactly once each"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: for an *arbitrary multiset of seed
    /// queries* (duplicates within a query, repeats across queries, any
    /// order), every cached answer is bitwise identical to the uncached
    /// engine forward — the cache changes cost, never bits. The same
    /// stream also runs through a sharded router behind a cached server
    /// (the server's cache is the only one; the router sees what is left
    /// of each union after resident and in-flight seeds are stripped).
    #[test]
    fn cached_answers_bitwise_identical_for_arbitrary_seed_multisets(
        (queries, wide) in (
            proptest::collection::vec(
                proptest::collection::vec(0u32..NODES as u32, 1..5),
                1..24
            ),
            0..2u8,
        )
    ) {
        // 6 → 12 runs layer 0's combination phase per batch; 96 → 8 keeps
        // it in the engines' feature state.
        let (graph, x, snap) = if wide == 1 { setup_at(96, 8) } else { setup() };
        let sharded = ShardedEngine::from_snapshot(&snap, &graph, &x, ShardConfig::default());
        let sharded = Arc::new(sharded.unwrap());
        let engine = Arc::new(InferenceEngine::from_snapshot(&snap, &graph, x).unwrap());
        prop_assert_eq!(engine.layer_costs()[0].linear_hoisted, wide == 1);
        let expected = engine.forward_all();
        let cached = Server::builder()
            .cache_capacity(32)
            .batch_window(Duration::from_micros(100))
            .max_batch(8)
            .workers(2);
        let servers = [
            (cached.clone().start(Arc::clone(&engine)), engine.generation()),
            (cached.start(Arc::clone(&sharded)), sharded.generation()),
        ];
        for (server, generation) in servers {
            let handle = server.handle();
            let mut answered_instances = 0u64;
            for seeds in &queries {
                let a = query(&handle, seeds);
                answered_instances += seeds.len() as u64;
                for (r, &seed) in seeds.iter().enumerate() {
                    prop_assert_eq!(a.logits.row(r), expected.row(seed as usize));
                }
                prop_assert_eq!(a.generation, generation);
            }
            let stats = server.shutdown();
            let cache = stats.cache.expect("cache enabled");
            // Per-instance accounting must be exact.
            prop_assert_eq!(cache.hits + cache.misses + cache.coalesced, answered_instances);
            // Nothing evicted: each seed was computed exactly once.
            if cache.evictions == 0 {
                let distinct: BTreeSet<u32> = queries.iter().flatten().copied().collect();
                prop_assert_eq!(cache.misses, distinct.len() as u64);
            }
        }
    }
}
