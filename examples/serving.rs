//! Serving round-trip: train a MaxK-GNN model, persist it as a snapshot,
//! reload it into the inference engine, demonstrate the seed-restricted
//! partial forward, serve Zipf query traffic through the micro-batching
//! server (which plans full vs. partial per batch), and finish with the
//! sharded router answering the same queries bitwise-identically from
//! halo-augmented partitions.
//!
//! Run with `cargo run --release --example serving`.

use maxk_gnn::graph::datasets::{Scale, TrainingDataset};
use maxk_gnn::graph::shard::ShardStrategy;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{train_full_batch, Activation, Arch, GnnModel, ModelConfig, TrainConfig};
use maxk_gnn::serve::{
    replay, InferenceEngine, LoadConfig, OverloadPolicy, QueryOptions, QueryResponse, Server,
    ShardConfig, ShardedEngine,
};
use maxk_gnn::tensor::Matrix;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a small model on the Flickr stand-in.
    let data = TrainingDataset::Flickr.generate(Scale::Test, 42)?;
    let mut cfg = ModelConfig::new(
        Arch::Sage,
        Activation::MaxK(8),
        data.in_dim,
        data.num_classes,
    );
    cfg.hidden_dim = 32;
    cfg.dropout = 0.2;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = GnnModel::new(cfg, &data.csr, &mut rng);
    let result = train_full_batch(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 30,
            lr: 0.01,
            seed: 1,
            eval_every: 10,
        },
    );
    println!(
        "trained on {} nodes: test {} {:.4}",
        data.csr.num_nodes(),
        result.metric_name,
        result.best_test_metric
    );

    // 2. Persist the model and reload it — the serving side never sees
    //    the training stack, only the snapshot file.
    std::fs::create_dir_all("target")?;
    let path = "target/serving_example.snap";
    ModelSnapshot::capture(&model).save(path)?;
    let snapshot = ModelSnapshot::load(path)?;
    println!(
        "snapshot saved + reloaded: {} params",
        snapshot.num_params()
    );

    // 3. Build the inference engine (normalization cached once).
    let features = Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone())?;
    let engine = Arc::new(InferenceEngine::from_snapshot(
        &snapshot, &data.csr, features,
    )?);

    // 3b. Seed-restricted partial forward: for a small seed set the
    //     engine expands the reverse L-hop frontier and computes only
    //     those rows — bitwise-identical logits, a fraction of the work.
    //     `logits_for` picks full vs. partial per call via the cost
    //     heuristic; the forced paths below show the equivalence.
    let seeds = [0u32, 1, 2];
    let full = engine.logits_full(&seeds)?;
    let partial = engine.logits_partial(&seeds)?;
    assert_eq!(full, partial, "partial forward must be bitwise exact");
    let plan = engine.plan_for(&seeds)?;
    println!(
        "partial forward for {} seeds: bitwise equal to full; planner picks {}",
        seeds.len(),
        if plan.is_partial() { "partial" } else { "full" }
    );

    // 3c. Start the micro-batching server; each batch plans full vs.
    //     partial over its seed union automatically. The seed-level
    //     logit cache makes repeats of hot Zipf seeds free: a fully-hot
    //     query is answered inline without reaching the engine.
    let server = Server::builder()
        .batch_window(Duration::from_millis(2))
        .max_batch(32)
        .workers(2)
        .cache_capacity(4096)
        .start(Arc::clone(&engine));

    // 4. A single seed-set query... (`query` resolves to a QueryResponse:
    //    Answered under the default Block admission policy; Rejected/Shed
    //    become possible once an overload policy is configured.)
    let handle = server.handle();
    let response = handle
        .query(&[0, 1, 2])?
        .into_answer()
        .expect("default admission answers every valid query");
    println!(
        "query for 3 seeds -> {}x{} logits (batch of {}, {:.2} ms, {} forward)",
        response.logits.rows(),
        response.logits.cols(),
        response.batch_size,
        response.latency.as_secs_f64() * 1e3,
        if response.partial { "partial" } else { "full" }
    );

    // 5. ...then closed-loop Zipf traffic from 8 concurrent clients.
    let report = replay(
        &handle,
        &LoadConfig {
            clients: 8,
            queries_per_client: 50,
            seeds_per_query: 1,
            zipf_exponent: 1.1,
            seed: 3,
        },
    )?;
    let stats = server.shutdown();
    println!(
        "served {} queries at {:.1} q/s (mean batch {:.1}, {}/{} partial batches); \
         latency p50 {:.0}us p99 {:.0}us",
        report.queries,
        report.throughput_qps,
        stats.mean_batch,
        stats.partial_batches,
        stats.batches,
        report.latency.p50_us,
        report.latency.p99_us
    );
    if let Some(cache) = stats.cache {
        println!(
            "logit cache on Zipf(1.1): {} hits / {} misses / {} coalesced \
             ({:.0}% hit rate), {} of {} queries answered without forward work",
            cache.hits,
            cache.misses,
            cache.coalesced,
            cache.hit_rate() * 100.0,
            stats.cached_queries,
            stats.queries
        );
    }

    // 6. Sharded serving: split the graph into 2 halo-augmented shards,
    //    one engine per shard behind a scatter/gather router — same
    //    Server API, bitwise-identical logits, and each shard resident
    //    only for its slice of the graph.
    let features = Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone())?;
    let sharded = ShardedEngine::from_snapshot(
        &snapshot,
        &data.csr,
        &features,
        ShardConfig {
            num_shards: 2,
            strategy: ShardStrategy::DegreeBalanced,
        },
    )?;
    for s in 0..sharded.num_shards() {
        let info = sharded.shard_info(s);
        println!(
            "shard {s}: owns {} nodes, {} ghosts, {} resident edges, {} feature rows",
            info.owned_nodes, info.ghost_nodes, info.resident_edges, info.feature_rows
        );
    }
    let sharded_logits = sharded.logits_for(&seeds)?;
    assert_eq!(
        sharded_logits, full,
        "sharded serving must be bitwise exact"
    );
    let server = Server::builder().start(Arc::new(sharded));
    let resp = server
        .handle()
        .query(&seeds)?
        .into_answer()
        .expect("default admission answers every valid query");
    assert_eq!(resp.logits, full);
    let stats = server.shutdown();
    println!(
        "sharded server answered bitwise-identically (shard batches {:?})",
        stats.shard_batches
    );

    // 7. Admission control: the same server API under an overload
    //    policy. A one-slot RejectNewest queue fed an instant burst of
    //    non-blocking submissions turns the excess away *at the door* —
    //    callers see QueryResponse::Rejected instead of waiting on an
    //    unbounded queue (tests/admission.rs pins the books of every
    //    policy).
    let server = Server::builder()
        .batch_window(Duration::ZERO)
        .max_batch(1)
        .workers(1)
        .admission_capacity(1)
        .overload_policy(OverloadPolicy::RejectNewest)
        .start(Arc::clone(&engine));
    let handle = server.handle();
    let pendings: Vec<_> = (0..64u32)
        .map(|i| handle.request(&[i % 3], QueryOptions::new()))
        .collect::<Result<_, _>>()?;
    let (mut answered, mut rejected, mut shed) = (0u64, 0u64, 0u64);
    for pending in pendings {
        match pending.wait()? {
            QueryResponse::Answered(_) => answered += 1,
            QueryResponse::Rejected(_) => rejected += 1,
            QueryResponse::Shed(_) => shed += 1,
        }
    }
    let stats = server.shutdown();
    println!(
        "admission burst of 64 into a 1-slot queue: {answered} answered, \
         {rejected} rejected, {shed} shed"
    );
    assert_eq!(answered + rejected + shed, 64, "books must balance");
    assert_eq!(stats.submitted, 64);
    assert!(
        rejected > 0,
        "a 64-query burst must overflow a 1-slot queue"
    );
    println!(
        "admission books: submitted {} = answered {} + rejected {} + shed {} (queue peak {})",
        stats.submitted, stats.queries, stats.rejected, stats.shed, stats.queue_depth_peak
    );
    Ok(())
}
