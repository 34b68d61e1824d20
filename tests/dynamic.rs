//! Dynamic graph serving acceptance suite (ISSUE 8).
//!
//! Differential proof of the streaming-mutation path: arbitrary mutation
//! sequences applied incrementally (CSR splice + dirty-row
//! renormalization + epoch swap) are compared against from-scratch
//! rebuilds at **every epoch** — structure, normalization and
//! full-forward logits must be bitwise equal. On top of that, the
//! dirty-cone cache precision claim (a mutation invalidates exactly its
//! reverse L-hop cone's rows, every other hot row keeps hitting with the
//! counter books exact) and the mixed read/write server path (concurrent
//! mutation stream + Zipf replay with admission, cache and telemetry on;
//! staleness bound on every answer; `submitted == answered + rejected +
//! shed` still exact).

use maxk_gnn::graph::dynamic::{DynamicGraph, EdgeMutation};
use maxk_gnn::graph::{Coo, Csr, Frontier};
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, GnnModel, GraphContext, ModelConfig};
use maxk_gnn::serve::{
    BatchEngine, DynamicEngine, InferenceEngine, InvalidationStrategy, Mutation, MutationIngress,
    OverloadPolicy, QueryOptions, QueryResponse, ServeError, Server, ServerHandle, TelemetryConfig,
    ZipfSampler,
};
use maxk_gnn::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const ARCHS: [Arch; 3] = [Arch::Gcn, Arch::Sage, Arch::Gin];

/// Canonical undirected edge set → symmetric CSR, the naive from-scratch
/// model the incremental path is diffed against.
fn csr_from_pairs(n: usize, pairs: &BTreeSet<(u32, u32)>) -> Csr {
    let mut edges = Vec::with_capacity(pairs.len() * 2);
    for &(a, b) in pairs {
        edges.push((a, b));
        edges.push((b, a));
    }
    Coo::from_edges(n, edges)
        .expect("endpoints in range")
        .to_csr()
        .expect("valid CSR")
}

/// Replays one raw mutation step against the naive edge-set model and
/// returns the corresponding [`EdgeMutation`].
fn step_to_mutation(
    n: u32,
    (u, v, insert): (u32, u32, bool),
    model: &mut BTreeSet<(u32, u32)>,
) -> EdgeMutation {
    let v = if u == v { (v + 1) % n } else { v };
    let pair = (u.min(v), u.max(v));
    if insert {
        model.insert(pair);
        EdgeMutation::Insert { u, v }
    } else {
        model.remove(&pair);
        EdgeMutation::Delete { u, v }
    }
}

/// Strategy: graph size, initial edges, and a sequence of mutation
/// batches as raw `(u, v, insert)` triples.
type RawPlan = (usize, Vec<(u32, u32)>, Vec<Vec<(u32, u32, u8)>>);

fn plan_strategy() -> impl Strategy<Value = RawPlan> {
    (6usize..22).prop_flat_map(|n| {
        let nn = n as u32;
        (
            proptest::strategy::Just(n),
            proptest::collection::vec((0..nn, 0..nn), 0..50),
            proptest::collection::vec(
                proptest::collection::vec((0..nn, 0..nn, 0..2u8), 1..8),
                1..7,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole differential, graph layer: after every batch the spliced
    /// CSR equals a naive rebuild from the edge-set model, and the
    /// incrementally renormalized operand is bitwise equal to the
    /// operand of a from-scratch [`DynamicGraph`] on that rebuilt base —
    /// for all three aggregation conventions. The GCN operand is
    /// additionally pinned to `GraphContext::normalized_adjacency`, tying
    /// the graph layer's self-loop convention to the one serving uses.
    #[test]
    fn incremental_csr_and_normalization_match_rebuild((n, init, batches) in plan_strategy()) {
        let nn = n as u32;
        let mut model: BTreeSet<(u32, u32)> = init
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        let base = csr_from_pairs(n, &model);
        let mut graphs: Vec<DynamicGraph> = ARCHS
            .iter()
            .map(|a| {
                let (agg, loops) = a.aggregation();
                DynamicGraph::from_csr(&base, agg, loops).expect("valid base")
            })
            .collect();
        for batch in batches {
            let mut scratch = model.clone();
            let muts: Vec<EdgeMutation> = batch
                .into_iter()
                .map(|(u, v, k)| step_to_mutation(nn, (u, v, k == 1), &mut scratch))
                .collect();
            model = scratch;
            let reference_base = csr_from_pairs(n, &model);
            for (arch, g) in ARCHS.iter().zip(graphs.iter_mut()) {
                g.apply_batch(&muts).expect("validated mutations");
                prop_assert_eq!(g.base(), &reference_base);
                let (agg, loops) = arch.aggregation();
                let from_scratch = DynamicGraph::from_csr(&reference_base, agg, loops)
                    .expect("valid rebuilt base");
                prop_assert_eq!(g.operand(), from_scratch.operand());
                if *arch == Arch::Gcn {
                    prop_assert_eq!(
                        g.operand(),
                        &GraphContext::normalized_adjacency(&reference_base, Arch::Gcn)
                    );
                }
            }
        }
    }

    /// Tentpole differential, engine layer: after every applied batch
    /// (edges **and** feature writes) the dynamic engine's full-forward
    /// logits are bitwise equal to a from-scratch [`InferenceEngine`]
    /// built on the mutated graph and features.
    #[test]
    fn incremental_logits_match_from_scratch_engine(
        (arch_idx, wide, (n, init, batches), write_nodes) in (
            0usize..3,
            0..2u8,
            plan_strategy(),
            proptest::collection::vec(0..22u32, 0..4),
        )
    ) {
        let arch = ARCHS[arch_idx];
        // 5-wide inputs recompute layer 0's combination phase per batch;
        // 96-wide ones keep it in the feature state, where a
        // `WriteFeature` must redo exactly the written rows.
        let in_dim = if wide == 1 { 96 } else { 5 };
        let nn = n as u32;
        let mut model: BTreeSet<(u32, u32)> = init
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        let base = csr_from_pairs(n, &model);
        let mut cfg = ModelConfig::new(arch, Activation::MaxK(2), in_dim, 3);
        cfg.hidden_dim = 8;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(41);
        let gnn = GnnModel::new(cfg, &base, &mut rng);
        let snapshot = ModelSnapshot::capture(&gnn);
        let features = Matrix::xavier(n, in_dim, &mut rng);
        let dynamic =
            DynamicEngine::new(&snapshot, &base, features, InvalidationStrategy::DirtyCone)
                .expect("valid model");
        for (b, batch) in batches.into_iter().enumerate() {
            let mut muts: Vec<Mutation> = batch
                .into_iter()
                .map(|(u, v, k)| match step_to_mutation(nn, (u, v, k == 1), &mut model) {
                    EdgeMutation::Insert { u, v } => Mutation::InsertEdge { u, v },
                    EdgeMutation::Delete { u, v } => Mutation::DeleteEdge { u, v },
                })
                .collect();
            // Interleave a feature write into every other batch.
            if let Some(&w) = write_nodes.get(b % write_nodes.len().max(1)) {
                let node = w % nn;
                muts.push(Mutation::WriteFeature {
                    node,
                    values: (0..in_dim).map(|j| 0.01 * (b + j) as f32 - 0.3).collect(),
                });
            }
            dynamic.apply(&muts).expect("validated mutations");
            let reference = InferenceEngine::from_snapshot(
                &snapshot,
                &dynamic.current_graph(),
                dynamic.current_features(),
            )
            .expect("rebuilt engine");
            prop_assert_eq!(reference.layer_costs()[0].linear_hoisted, wide == 1);
            prop_assert_eq!(&dynamic.current_graph(), &csr_from_pairs(n, &model));
            prop_assert_eq!(dynamic.forward_all(), reference.forward_all());
        }
    }
}

const NODES: usize = 60;
const LAYERS: usize = 3;

fn serving_setup(arch: Arch) -> (ModelSnapshot, Csr, Matrix) {
    let graph = maxk_gnn::graph::generate::chung_lu_power_law(NODES, 5.0, 2.3, 3)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(arch, Activation::MaxK(4), 6, LAYERS);
    cfg.hidden_dim = 12;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(5);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let features = Matrix::xavier(NODES, 6, &mut rng);
    (ModelSnapshot::capture(&model), graph, features)
}

fn answer(handle: &ServerHandle, seeds: &[u32]) -> maxk_gnn::serve::QueryAnswer {
    match handle.query(seeds).expect("live server") {
        QueryResponse::Answered(a) => a,
        other => panic!("expected answer, got {other:?}"),
    }
}

/// Satellite: cache-invalidation precision. A feature write invalidates
/// exactly its reverse L-hop cone — cone rows miss afterwards, every
/// other hot row still hits bitwise-identically, and the
/// hits/misses/coalesced books stay exact through the mutation.
#[test]
fn feature_write_invalidates_exactly_its_cone() {
    let (snapshot, graph, features) = serving_setup(Arch::Sage);
    let engine = Arc::new(
        DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone).unwrap(),
    );
    let server = Server::builder()
        .cache_capacity(4 * NODES)
        .batch_window(Duration::from_millis(1))
        .workers(1)
        .start(Arc::clone(&engine));
    let handle = server.handle();
    let all: Vec<u32> = (0..NODES as u32).collect();

    // Round 1 warms every seed; round 2 proves the whole graph is hot.
    for &s in &all {
        answer(&handle, &[s]);
    }
    let mut hot = Vec::new();
    for &s in &all {
        let a = answer(&handle, &[s]);
        assert!(a.cached, "seed {s} hot after warm-up");
        assert_eq!(a.epoch, 0);
        hot.push(a.logits);
    }

    // The expected cone, computed independently of the engine: reverse
    // L hops from the written node over the operand transpose.
    let written = 7u32;
    let (agg, loops) = Arch::Sage.aggregation();
    let operand = DynamicGraph::from_csr(&graph, agg, loops)
        .unwrap()
        .operand()
        .clone();
    let cone: Vec<u32> = Frontier::reverse_hops(&operand.transpose(), &[written], LAYERS)
        .unwrap()
        .inputs()
        .ids()
        .to_vec();
    assert!(cone.len() > 1, "test graph must propagate the write");
    assert!(
        cone.len() < NODES,
        "cone must not swallow the whole graph or precision is vacuous"
    );

    let report = engine
        .apply(&[Mutation::WriteFeature {
            node: written,
            values: vec![0.75; 6],
        }])
        .unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.cone_nodes, cone.len());
    assert_eq!(
        report.rows_invalidated,
        cone.len() as u64,
        "every cone row was resident, so all of them drop"
    );

    // Round 3: cone rows recompute, everything else still hits with the
    // exact same bits; all rows match a from-scratch rebuild.
    let reference = InferenceEngine::from_snapshot(
        &snapshot,
        &engine.current_graph(),
        engine.current_features(),
    )
    .unwrap()
    .forward_all();
    for &s in &all {
        let a = answer(&handle, &[s]);
        let in_cone = cone.binary_search(&s).is_ok();
        assert_eq!(a.cached, !in_cone, "seed {s}: cone rows miss, others hit");
        assert_eq!(a.epoch, 1);
        assert_eq!(a.logits.row(0), reference.row(s as usize), "seed {s}");
        if !in_cone {
            assert_eq!(a.logits.row(0), hot[s as usize].row(0), "seed {s} bits");
        }
    }

    let stats = server.shutdown();
    let cache = stats.cache.expect("cache attached");
    assert_eq!(cache.invalidated, cone.len() as u64);
    // Books: every answered seed instance is exactly one of
    // hit/miss/coalesced — 3 sequential single-seed rounds over NODES.
    assert_eq!(
        cache.hits + cache.misses + cache.coalesced,
        3 * NODES as u64
    );
    assert_eq!(stats.submitted, 3 * NODES as u64);
    assert_eq!(engine.stats().rows_invalidated, cone.len() as u64);
}

/// Satellite: mixed read/write through the full server — a concurrent
/// mutation stream (via [`MutationIngress`]) against Zipf query replay
/// with admission, cache and telemetry all on. Every answer satisfies
/// the staleness bound (its epoch lies between the engine epochs
/// sampled before submit and after reply), the admission books stay
/// exact, and at quiescence every row is bitwise identical to a
/// from-scratch engine on the mutated graph.
#[test]
fn mixed_read_write_holds_staleness_and_books() {
    let (snapshot, graph, features) = serving_setup(Arch::Gcn);
    let engine = Arc::new(
        DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone).unwrap(),
    );
    let server = Server::builder()
        .cache_capacity(4 * NODES)
        .batch_window(Duration::from_millis(1))
        .max_batch(8)
        .workers(2)
        .admission_capacity(64)
        .overload_policy(OverloadPolicy::RejectNewest)
        .telemetry(TelemetryConfig::default())
        .start(Arc::clone(&engine));
    let handle = server.handle();

    // Warm the cache so the first mutation has resident rows to drop.
    let all: Vec<u32> = (0..NODES as u32).collect();
    answer(&handle, &all);

    let ingress = MutationIngress::spawn(Arc::clone(&engine));
    let writer = {
        let ingress_batches: Vec<Vec<Mutation>> = {
            let mut rng = StdRng::seed_from_u64(77);
            (0..16)
                .map(|i| {
                    let u = rng.gen_range(0..NODES as u32);
                    let mut v = rng.gen_range(0..NODES as u32);
                    if v == u {
                        v = (v + 1) % NODES as u32;
                    }
                    vec![
                        if rng.gen_bool(0.5) {
                            Mutation::InsertEdge { u, v }
                        } else {
                            Mutation::DeleteEdge { u, v }
                        },
                        // Every batch carries a feature write, so every
                        // batch is effective and advances the epoch.
                        Mutation::WriteFeature {
                            node: (i * 3 % NODES) as u32,
                            values: (0..6).map(|j| 0.02 * (i + j) as f32).collect(),
                        },
                    ]
                })
                .collect()
        };
        std::thread::spawn(move || {
            for batch in ingress_batches {
                ingress.submit(batch).expect("ingress alive");
                std::thread::sleep(Duration::from_millis(2));
            }
            ingress.shutdown()
        })
    };

    let clients = 4usize;
    let per_client = 60usize;
    let (answered, rejected, shed) = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for c in 0..clients {
            let h = handle.clone();
            let eng = Arc::clone(&engine);
            joins.push(s.spawn(move || {
                let zipf = ZipfSampler::new(NODES, 1.1);
                let mut rng = StdRng::seed_from_u64(100 + c as u64);
                let opts = QueryOptions::new().for_client(c as u64);
                let (mut a, mut r, mut sh) = (0u64, 0u64, 0u64);
                for _ in 0..per_client {
                    let seed = zipf.sample(&mut rng) as u32;
                    let e_before = BatchEngine::epoch(&*eng);
                    let resp = h.request(&[seed], opts).and_then(|p| p.wait());
                    let e_after = BatchEngine::epoch(&*eng);
                    match resp {
                        Ok(QueryResponse::Answered(ans)) => {
                            a += 1;
                            assert!(
                                e_before <= ans.epoch && ans.epoch <= e_after,
                                "staleness bound: {} <= {} <= {}",
                                e_before,
                                ans.epoch,
                                e_after
                            );
                        }
                        Ok(QueryResponse::Rejected(_)) => r += 1,
                        Ok(QueryResponse::Shed(_)) => sh += 1,
                        Err(e) => panic!("server died mid-run: {e}"),
                    }
                }
                (a, r, sh)
            }));
        }
        joins.into_iter().fold((0, 0, 0), |acc, j| {
            let (a, r, s2) = j.join().expect("client thread");
            (acc.0 + a, acc.1 + r, acc.2 + s2)
        })
    });

    let (applied, failed) = writer.join().expect("writer thread");
    assert_eq!(failed, 0);
    assert_eq!(applied, 16);
    assert_eq!(BatchEngine::epoch(&*engine), 16, "every batch effective");
    assert!(
        engine.stats().rows_invalidated > 0,
        "warm rows were dropped"
    );

    // Quiescent: the stream is drained, so every answer (cached rows
    // included — surviving rows were outside every cone) must be bitwise
    // identical to a from-scratch engine on the mutated graph.
    let reference = InferenceEngine::from_snapshot(
        &snapshot,
        &engine.current_graph(),
        engine.current_features(),
    )
    .unwrap()
    .forward_all();
    let quiescent = answer(&handle, &all);
    assert_eq!(quiescent.epoch, 16);
    for (i, &s) in all.iter().enumerate() {
        assert_eq!(
            quiescent.logits.row(i),
            reference.row(s as usize),
            "seed {s} at quiescence"
        );
    }

    let stats = server.shutdown();
    let submitted = (clients * per_client) as u64 + 2; // + warm-up + quiescent
    assert_eq!(stats.submitted, submitted);
    assert_eq!(answered + rejected + shed + 2, submitted);
    assert_eq!(stats.queries, answered + 2);
    let cache = stats.cache.expect("cache attached");
    assert!(cache.invalidated > 0);
    // Every answered query here is single-seed except the two all-node
    // sweeps (warm-up and quiescent), each NODES instances.
    assert_eq!(
        cache.hits + cache.misses + cache.coalesced,
        answered + 2 * NODES as u64
    );
}

/// A non-finite feature write is refused where it enters — top-k
/// selection ranks a NaN above +∞, so it would otherwise reach the logits
/// of every node in its cone. The whole batch is dropped: epoch, graph and
/// features stay put, and the server keeps answering bitwise-correctly.
#[test]
fn non_finite_feature_write_is_rejected_and_serving_continues() {
    let (snapshot, graph, features) = serving_setup(Arch::Gcn);
    let engine = Arc::new(
        DynamicEngine::new(
            &snapshot,
            &graph,
            features.clone(),
            InvalidationStrategy::DirtyCone,
        )
        .unwrap(),
    );
    let server = Server::builder()
        .cache_capacity(4 * NODES)
        .workers(1)
        .start(Arc::clone(&engine));
    let handle = server.handle();
    let reference = engine.forward_all();

    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut values = vec![0.5; 6];
        values[3] = bad;
        let batch = [
            Mutation::InsertEdge { u: 0, v: 41 },
            Mutation::WriteFeature { node: 9, values },
        ];
        assert_eq!(
            engine.apply(&batch),
            Err(ServeError::NonFiniteFeature { node: 9 }),
            "{bad} must be refused"
        );
    }
    assert_eq!(engine.stats().epoch, 0);
    assert_eq!(engine.stats().feature_writes, 0);
    assert_eq!(engine.current_graph(), graph);
    assert_eq!(engine.current_features(), features);

    let all: Vec<u32> = (0..NODES as u32).collect();
    let a = answer(&handle, &all);
    assert_eq!(a.epoch, 0);
    assert_eq!(a.logits, reference);
    // A finite write after the refused ones still lands.
    let report = engine
        .apply(&[Mutation::WriteFeature {
            node: 9,
            values: vec![0.5; 6],
        }])
        .unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(answer(&handle, &all).logits, engine.forward_all());
    server.shutdown();
}

/// The no-op trait defaults: a frozen engine is forever at epoch 0 and
/// its answers say so.
#[test]
fn frozen_engine_answers_epoch_zero() {
    let (snapshot, graph, features) = serving_setup(Arch::Gin);
    let engine = Arc::new(InferenceEngine::from_snapshot(&snapshot, &graph, features).unwrap());
    assert_eq!(BatchEngine::epoch(&*engine), 0);
    let server = Server::builder().start(engine);
    let a = answer(&server.handle(), &[0, 5]);
    assert_eq!(a.epoch, 0);
    server.shutdown();
}
