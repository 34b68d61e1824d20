//! Serving acceptance smoke test (ISSUE 2): train Flickr at
//! `Scale::Test`, snapshot, reload, serve ≥ 1000 queries through the
//! micro-batcher, and check that it coalesces (fewer forwards than
//! queries) where the one-query-per-forward baseline cannot.

use maxk_gnn::graph::datasets::{Scale, TrainingDataset};
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{train_full_batch, Activation, Arch, GnnModel, ModelConfig, TrainConfig};
use maxk_gnn::serve::{replay, InferenceEngine, LoadConfig, Server};
use maxk_gnn::tensor::Matrix;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn train_snapshot_serve_round_trip_beats_unbatched_baseline() {
    // --- Train ---
    let data = TrainingDataset::Flickr
        .generate(Scale::Test, 42)
        .expect("Flickr stand-in generates");
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
    let _ = train_full_batch(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 5,
            lr: 0.01,
            seed: 1,
            eval_every: 5,
        },
    );

    // --- Snapshot to disk and reload ---
    let dir = std::env::temp_dir().join(format!("maxk-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.snap");
    ModelSnapshot::capture(&model).save(&path).expect("save");
    let snapshot = ModelSnapshot::load(&path).expect("load");

    // --- Engine must reproduce the trained model's eval logits bitwise ---
    let features = Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone())
        .expect("rectangular features");
    let engine = Arc::new(
        InferenceEngine::from_snapshot(&snapshot, &data.csr, features.clone()).expect("engine"),
    );
    let expected = model.forward(&features, false, &mut rng);
    assert_eq!(
        engine.forward_all(),
        expected,
        "snapshot reload must preserve logits bitwise"
    );

    // --- Serve >= 1000 queries through the micro-batcher ---
    let clients = 16;
    let load = LoadConfig {
        clients,
        queries_per_client: 64, // 16 * 64 = 1024 >= 1000
        seeds_per_query: 1,
        zipf_exponent: 1.1,
        seed: 7,
    };
    let batched_server = Server::builder()
        .batch_window(Duration::from_millis(2))
        .max_batch(32)
        .workers(1)
        .start(Arc::clone(&engine));
    let batched = replay(&batched_server.handle(), &load).expect("batched replay");
    let batched_stats = batched_server.shutdown();
    assert!(batched.queries >= 1000, "served {}", batched.queries);
    assert_eq!(batched_stats.queries, batched.queries);
    assert!(
        batched_stats.mean_batch > 1.0,
        "micro-batcher never coalesced (mean batch {})",
        batched_stats.mean_batch
    );
    assert!(
        batched_stats.batches < batched.queries,
        "{} forwards for {} queries",
        batched_stats.batches,
        batched.queries
    );

    // --- One-query-per-forward baseline ---
    let unbatched_server = Server::builder()
        .batch_window(Duration::ZERO)
        .max_batch(1)
        .workers(1)
        .start(Arc::clone(&engine));
    let unbatched = replay(
        &unbatched_server.handle(),
        &LoadConfig {
            queries_per_client: 8, // 16 * 8 = 128 forwards
            ..load
        },
    )
    .expect("unbatched replay");
    let unbatched_stats = unbatched_server.shutdown();
    assert_eq!(unbatched_stats.batches, unbatched.queries);

    assert!(
        batched.latency.p99_us.is_finite() && batched.latency.p99_us > 0.0,
        "p99 {} must be finite and positive",
        batched.latency.p99_us
    );

    std::fs::remove_dir_all(&dir).ok();
}
