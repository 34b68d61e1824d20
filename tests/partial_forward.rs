//! Seed-restricted partial forward acceptance tests (ISSUE 3): the
//! partial path must produce logits bitwise equal to the full-graph
//! forward for every architecture/activation combination, end to end —
//! trained model, snapshot round-trip, inference engine and the
//! micro-batching server.

use maxk_gnn::graph::datasets::{Scale, TrainingDataset};
use maxk_gnn::graph::Frontier;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, ForwardPlan, GnnModel, ModelConfig, PlanConfig};
use maxk_gnn::serve::{InferenceEngine, Server};
use maxk_gnn::tensor::Matrix;
use rand::SeedableRng;
use std::sync::Arc;

fn setup(arch: Arch, act: Activation) -> (maxk_gnn::graph::Csr, Matrix, GnnModel) {
    setup_at(arch, act, 10, 16)
}

fn setup_at(
    arch: Arch,
    act: Activation,
    in_dim: usize,
    hidden: usize,
) -> (maxk_gnn::graph::Csr, Matrix, GnnModel) {
    let graph = maxk_gnn::graph::generate::chung_lu_power_law(120, 6.0, 2.3, 3)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(arch, act, in_dim, 4);
    cfg.hidden_dim = hidden;
    cfg.dropout = 0.0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let x = Matrix::xavier(120, in_dim, &mut rng);
    (graph, x, model)
}

#[test]
fn engine_partial_forward_bitwise_equals_full() {
    for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
        for act in [Activation::Relu, Activation::MaxK(5)] {
            // 10 → 16: layer 0's combination phase runs per batch over
            // gathered feature rows. 96 → 8: the engine keeps it, and a
            // partial plan gathers rows of the kept product instead.
            for (in_dim, hidden, hoisted) in [(10usize, 16usize, false), (96, 8, true)] {
                let (graph, x, mut model) = setup_at(arch, act, in_dim, hidden);
                let snap = ModelSnapshot::capture(&model);
                let engine = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
                assert_eq!(engine.layer_costs()[0].linear_hoisted, hoisted);
                let seeds = [0u32, 42, 119, 42];
                let full = engine.logits_full(&seeds).unwrap();
                let partial = engine.logits_partial(&seeds).unwrap();
                assert_eq!(partial, full, "{arch:?} {act:?} {in_dim}→{hidden}");
                let by_model = model.forward_planned(&x, &seeds, &ForwardPlan::Full);
                assert_eq!(full, by_model, "{arch:?} {act:?} {in_dim}→{hidden}");
            }
        }
    }
}

#[test]
fn model_forward_planned_matches_engine() {
    let (graph, x, mut model) = setup(Arch::Sage, Activation::MaxK(5));
    let snap = ModelSnapshot::capture(&model);
    let engine = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
    let seeds = [3u32, 77];
    let frontier = Frontier::reverse_hops(&model.context().adj, &seeds, 3).unwrap();
    let via_model = model.forward_planned(&x, &seeds, &ForwardPlan::Partial(frontier));
    let via_engine = engine.logits_partial(&seeds).unwrap();
    assert_eq!(via_model, via_engine);
    assert_eq!(via_model, engine.logits_full(&seeds).unwrap());
}

#[test]
fn server_partial_batches_serve_exact_logits() {
    // Force the partial path through the server and check the responses
    // against the full-graph forward.
    let (graph, x, model) = setup(Arch::Gcn, Activation::MaxK(5));
    let snap = ModelSnapshot::capture(&model);
    let engine = InferenceEngine::from_snapshot(&snap, &graph, x)
        .unwrap()
        .with_plan_config(PlanConfig {
            seed_frac_cutoff: 1.0,
            work_ratio: f64::INFINITY,
        });
    let expected = engine.forward_all();
    let server = Server::builder().start(Arc::new(engine));
    let handle = server.handle();
    let resp = handle
        .query(&[11, 0, 95])
        .unwrap()
        .into_answer()
        .expect("default admission answers every valid query");
    assert!(resp.partial, "forced heuristic must pick partial");
    assert_eq!(resp.logits.row(0), expected.row(11));
    assert_eq!(resp.logits.row(1), expected.row(0));
    assert_eq!(resp.logits.row(2), expected.row(95));
    let stats = server.shutdown();
    assert_eq!(stats.partial_batches, stats.batches);
}

#[test]
fn planner_prefers_partial_for_small_batches_and_full_for_saturating_ones() {
    let (graph, x, model) = setup(Arch::Gcn, Activation::Relu);
    let snap = ModelSnapshot::capture(&model);
    let engine = InferenceEngine::from_snapshot(&snap, &graph, x).unwrap();
    // A saturating union (every node) must never go partial.
    let all: Vec<u32> = (0..120).collect();
    assert!(!engine.plan_for(&all).unwrap().is_partial());
    // Whatever the decision for one seed, executing the plan stays exact.
    let plan = engine.plan_for(&[5]).unwrap();
    let out = engine.forward_planned(&plan, None);
    assert_eq!(out.gather(&[5]), engine.logits_full(&[5]).unwrap());
}

#[test]
fn partial_forward_on_dataset_standin() {
    // End-to-end on the Flickr stand-in: a small trained model must
    // serve bitwise-equal partial logits.
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
    let engine = InferenceEngine::from_snapshot(&snap, &data.csr, features).unwrap();
    let seeds = [1u32, 500, 1400];
    assert_eq!(
        engine.logits_partial(&seeds).unwrap(),
        engine.logits_full(&seeds).unwrap()
    );
    // A 2-layer frontier from 3 seeds must not saturate the 1500-node
    // stand-in, so the planner should pick the partial path.
    assert!(engine.plan_for(&seeds).unwrap().is_partial());
}
