//! Streaming graph mutations on a live server.
//!
//! Every engine built so far serves a frozen graph; [`DynamicEngine`]
//! accepts a **mutation stream** — edge inserts/deletes and feature row
//! writes — alongside queries, without ever stopping the serving path:
//!
//! 1. **Ingress** — [`DynamicEngine::apply`] takes a batch of
//!    [`Mutation`]s (or [`MutationIngress`] feeds batches from a
//!    background thread);
//! 2. **Incremental recompute** — the batch is applied through
//!    [`maxk_graph::dynamic::DynamicGraph`]: the CSR is spliced and only
//!    the dirty normalization rows recomputed, never a from-scratch
//!    rebuild. The resulting operand (and hence every post-mutation
//!    answer) is **bitwise identical** to an engine built fresh on the
//!    mutated graph;
//! 3. **Epoch swap** — operands are owned once, and an epoch shares
//!    what the batch did not change. The next epoch's [`InferenceEngine`]
//!    points at the same weight allocation as every epoch before it and
//!    at the same feature state — the matrix and, at wide inputs, layer
//!    0's combination phase derived from it (see [`crate::engine`]) —
//!    unless the batch wrote a feature row. Then the state is copied
//!    once, on write, the written rows of the kept product (and only
//!    they) are recomputed inside that same copy-on-write, and readers
//!    still holding the previous epoch keep the old rows and the old
//!    product. Only the graph context is assembled anew, around the
//!    spliced operand. The epoch is built once and moved behind the
//!    `RwLock`; queries in flight finish against the old epoch, new
//!    batches pick up the new one. Applies are serialized, so epochs are
//!    strictly monotone;
//! 4. **Dirty-cone invalidation** — the mutation's reverse L-hop
//!    dependency cone (via [`maxk_graph::Frontier`]) is computed and
//!    exactly those [`LogitCache`] rows are dropped; every other hot row
//!    keeps hitting across the mutation, under an unchanged
//!    [`GraphVersion`].
//!
//! # Staleness bound
//!
//! Every [`crate::QueryAnswer`] carries the epoch its logits were
//! computed against ([`crate::QueryAnswer::epoch`]). Because applies are
//! serialized and the swap is atomic, a query submitted after
//! [`MutationReport::epoch`] was returned observes `answer.epoch >=
//! report.epoch` **or** an answer computed concurrently with the swap —
//! the lag never exceeds the batches in flight at swap time (bounded by
//! the queue depth). At quiescence (stream drained, in-flight batches
//! finished) every answer is bitwise identical to a from-scratch engine
//! on the mutated graph, which `tests/dynamic.rs` proves differentially.
//!
//! # Cache soundness
//!
//! The cone is invalidated **twice**, straddling the swap: once before
//! (dropping resident rows and poisoning in-flight leaders computing
//! against the old epoch) and once after (catching rows filled by
//! batches that raced the swap). A poisoned leader still answers its
//! followers — their answers carry the old epoch — but its fill never
//! becomes resident, so no stale cone row survives past the second pass.
//! The one recovery path that computes rows outside
//! [`LogitCache::claim`] (the server's aborted-leader fallback)
//! registers with [`LogitCache::lead_uncounted`] *before* computing, so
//! an invalidation racing it poisons those slots too
//! ([`LogitCache::fill_rows`] is a warm-up hook that skips any
//! in-flight seed).
//!
//! Sharded engines do not accept mutations yet: a mutation's cone can
//! cross shard halos, which needs ghost-row reconciliation — future
//! work, noted in ARCHITECTURE.md.

use crate::cache::LogitCache;
use crate::engine::{validated, BatchEngine, BatchOutcome, FeatureState, InferenceEngine};
use crate::exec::{self, Executor, StdThreadExecutor, Worker};
use crate::telemetry::Telemetry;
use crate::ServeError;
use maxk_graph::dynamic::{DynamicGraph, EdgeMutation};
use maxk_graph::{Csr, Frontier, GraphError};
use maxk_nn::snapshot::ModelSnapshot;
use maxk_nn::{GraphContext, GraphVersion, SnapshotGeneration};
use maxk_tensor::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One streaming mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert the undirected edge `{u, v}` (no-op when present).
    InsertEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Delete the undirected edge `{u, v}` (no-op when absent).
    DeleteEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Overwrite one node's feature row.
    WriteFeature {
        /// The node whose features change.
        node: u32,
        /// The new feature row; must match the model's input dimension.
        values: Vec<f32>,
    },
}

/// How an applied mutation batch reaches the logit cache. There is one
/// way; the enum remains because [`DynamicEngine::new`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvalidationStrategy {
    /// Keep the [`GraphVersion`] and drop exactly the reverse L-hop
    /// dirty cone's rows — hot rows outside the cone keep hitting.
    #[default]
    DirtyCone,
}

/// What one [`DynamicEngine::apply`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationReport {
    /// The serving epoch after the batch (unchanged when the batch had
    /// no effect).
    pub epoch: u64,
    /// Edge mutations that inserted an absent edge.
    pub inserted: usize,
    /// Edge mutations that deleted a present edge.
    pub deleted: usize,
    /// Edge mutations that found the edge already in the requested state.
    pub noops: usize,
    /// Feature rows overwritten.
    pub feature_writes: usize,
    /// Operand rows whose structure or normalization values changed.
    pub dirty_rows: usize,
    /// Nodes in the reverse L-hop dirty cone (0 when the batch had no
    /// effect).
    pub cone_nodes: usize,
    /// Resident cache rows dropped by dirty-cone invalidation (0 with
    /// no cache attached).
    pub rows_invalidated: u64,
}

/// Point-in-time counters of a [`DynamicEngine`]'s mutation side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DynamicStats {
    /// Current serving epoch.
    pub epoch: u64,
    /// Effective (non-no-op) batches applied.
    pub batches_applied: u64,
    /// Edges inserted across all batches.
    pub edges_inserted: u64,
    /// Edges deleted across all batches.
    pub edges_deleted: u64,
    /// Edge mutations that were no-ops.
    pub edge_noops: u64,
    /// Feature rows overwritten.
    pub feature_writes: u64,
    /// Cache rows dropped by dirty-cone invalidation.
    pub rows_invalidated: u64,
    /// Total dirty-cone sizes (sum over batches).
    pub cone_nodes: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    batches_applied: AtomicU64,
    edges_inserted: AtomicU64,
    edges_deleted: AtomicU64,
    edge_noops: AtomicU64,
    feature_writes: AtomicU64,
    rows_invalidated: AtomicU64,
    cone_nodes: AtomicU64,
}

/// The published serving state of one epoch.
#[derive(Debug)]
struct EpochState {
    epoch: u64,
    engine: InferenceEngine,
}

/// The mutable interior: the incrementally maintained graph and the live
/// feature state, shared with every epoch published since the last
/// feature write. One mutex serializes applies, making epochs strictly
/// monotone.
#[derive(Debug)]
struct Core {
    graph: DynamicGraph,
    features: Arc<FeatureState>,
    epoch: u64,
}

/// A [`BatchEngine`] over a mutable graph: queries are answered by the
/// current epoch's [`InferenceEngine`], and [`DynamicEngine::apply`]
/// swaps in new epochs as mutation batches land. See the
/// [module docs](self) for the protocol.
#[derive(Debug)]
pub struct DynamicEngine {
    state: RwLock<Arc<EpochState>>,
    core: Mutex<Core>,
    /// The weights every epoch's engine points at, validated in `new`.
    model: Arc<ModelSnapshot>,
    cache: OnceLock<Arc<LogitCache>>,
    recorder: OnceLock<Arc<crate::FlightRecorder>>,
    stats: StatsInner,
    num_nodes: usize,
}

impl DynamicEngine {
    /// Builds a mutable engine over `base` (the structural adjacency,
    /// assumed symmetric) with the given snapshot and features.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadModel`] on shape or consistency mismatches,
    /// [`ServeError::NonFiniteFeature`] on a NaN or infinite feature —
    /// the same gates as [`InferenceEngine::from_snapshot`].
    pub fn new(
        snapshot: &ModelSnapshot,
        base: &Csr,
        features: Matrix,
        _strategy: InvalidationStrategy,
    ) -> Result<Self, ServeError> {
        let model = validated(snapshot)?;
        let (aggregator, self_loops) = model.config.arch.aggregation();
        let graph = DynamicGraph::from_csr(base, aggregator, self_loops)
            .map_err(|e| ServeError::BadModel(e.to_string()))?;
        let features = Arc::new(FeatureState::new(&model, features)?);
        let engine = Self::epoch_engine(&model, &graph, &features, GraphVersion::mint())?;
        Ok(DynamicEngine {
            state: RwLock::new(Arc::new(EpochState { epoch: 0, engine })),
            core: Mutex::new(Core {
                graph,
                features,
                epoch: 0,
            }),
            model,
            cache: OnceLock::new(),
            recorder: OnceLock::new(),
            stats: StatsInner::default(),
            num_nodes: base.num_nodes(),
        })
    }

    /// The engine of one epoch: the shared weights and features, and a
    /// context assembled around the dynamic graph's incrementally
    /// maintained operand (transpose and Edge-Group partition are cheap
    /// relative to normalization, which is never redone).
    fn epoch_engine(
        model: &Arc<ModelSnapshot>,
        graph: &DynamicGraph,
        features: &Arc<FeatureState>,
        version: GraphVersion,
    ) -> Result<InferenceEngine, ServeError> {
        let adj = graph.operand().clone();
        let ctx = GraphContext::from_normalized(adj, model.config.eg_width, version);
        InferenceEngine::with_context(Arc::clone(model), Arc::new(ctx), Arc::clone(features))
    }

    /// Point-in-time mutation counters.
    pub fn stats(&self) -> DynamicStats {
        DynamicStats {
            epoch: self.read_state().epoch,
            batches_applied: self.stats.batches_applied.load(Ordering::Relaxed),
            edges_inserted: self.stats.edges_inserted.load(Ordering::Relaxed),
            edges_deleted: self.stats.edges_deleted.load(Ordering::Relaxed),
            edge_noops: self.stats.edge_noops.load(Ordering::Relaxed),
            feature_writes: self.stats.feature_writes.load(Ordering::Relaxed),
            rows_invalidated: self.stats.rows_invalidated.load(Ordering::Relaxed),
            cone_nodes: self.stats.cone_nodes.load(Ordering::Relaxed),
        }
    }

    /// Full forward of the current epoch — the differential harness
    /// compares this against a from-scratch engine on the mutated graph.
    pub fn forward_all(&self) -> Matrix {
        self.read_state().engine.forward_all()
    }

    /// A clone of the current structural adjacency (for from-scratch
    /// rebuild references in tests and assertions).
    pub fn current_graph(&self) -> Csr {
        self.lock_core().graph.base().clone()
    }

    /// A clone of the current feature matrix.
    pub fn current_features(&self) -> Matrix {
        self.lock_core().features.x().clone()
    }

    /// Applies one mutation batch: incremental graph/feature update, new
    /// epoch swap, and dirty-cone cache invalidation.
    /// The whole batch is validated before anything is touched; an error
    /// leaves graph, features and serving state unchanged. A batch with
    /// no net effect (all no-ops) swaps nothing and keeps the epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::SeedOutOfRange`] when a mutation names a node
    /// outside the graph, [`ServeError::BadModel`] on a self-loop edge
    /// mutation or a feature row of the wrong width,
    /// [`ServeError::NonFiniteFeature`] on a NaN or infinite feature
    /// value (it would panic top-k selection in a forward worker).
    pub fn apply(&self, batch: &[Mutation]) -> Result<MutationReport, ServeError> {
        let mut edges = Vec::new();
        let mut writes: Vec<(u32, &[f32])> = Vec::new();
        for m in batch {
            match m {
                Mutation::InsertEdge { u, v } => edges.push(EdgeMutation::Insert { u: *u, v: *v }),
                Mutation::DeleteEdge { u, v } => edges.push(EdgeMutation::Delete { u: *u, v: *v }),
                Mutation::WriteFeature { node, values } => {
                    if *node as usize >= self.num_nodes {
                        return Err(ServeError::SeedOutOfRange {
                            seed: *node,
                            num_nodes: self.num_nodes,
                        });
                    }
                    let in_dim = self.model.config.in_dim;
                    if values.len() != in_dim {
                        return Err(ServeError::BadModel(format!(
                            "feature write for node {node} has {} values, model in_dim is {in_dim}",
                            values.len(),
                        )));
                    }
                    if !values.iter().all(|v| v.is_finite()) {
                        return Err(ServeError::NonFiniteFeature { node: *node });
                    }
                    writes.push((*node, values));
                }
            }
        }

        let mut core = self.lock_core();
        // Edge batch first: it validates fully before mutating, so a bad
        // edge cannot strand applied feature writes.
        let effect = core.graph.apply_batch(&edges).map_err(|e| match e {
            GraphError::NodeOutOfBounds { node, num_nodes } => ServeError::SeedOutOfRange {
                seed: node,
                num_nodes,
            },
            other => ServeError::BadModel(other.to_string()),
        })?;
        if !writes.is_empty() {
            // Copy on write: the published epochs keep the state they
            // were built over; an edge-only batch copies no feature row.
            // Only the written rows of a kept layer-0 product are redone.
            Arc::make_mut(&mut core.features).write_rows(&self.model, &writes);
        }

        self.stats
            .edges_inserted
            .fetch_add(effect.inserted as u64, Ordering::Relaxed);
        self.stats
            .edges_deleted
            .fetch_add(effect.deleted as u64, Ordering::Relaxed);
        self.stats
            .edge_noops
            .fetch_add(effect.noops as u64, Ordering::Relaxed);
        self.stats
            .feature_writes
            .fetch_add(writes.len() as u64, Ordering::Relaxed);

        if effect.is_empty() && writes.is_empty() {
            return Ok(MutationReport {
                epoch: core.epoch,
                inserted: effect.inserted,
                deleted: effect.deleted,
                noops: effect.noops,
                feature_writes: 0,
                dirty_rows: 0,
                cone_nodes: 0,
                rows_invalidated: 0,
            });
        }

        // The version is kept across epochs: rows outside the cone stay
        // reachable, rows inside it are dropped below.
        let version = self.read_state().engine.graph_version();
        let engine = Self::epoch_engine(&self.model, &core.graph, &core.features, version)?;

        // Reverse L-hop dirty cone, computed on the NEW transpose. Edge
        // dirt propagates through L aggregations but the first one is the
        // dirty row itself, hence L−1 expansion hops; a feature write
        // enters at the input, hence the full L. Deletions are covered on
        // the new graph because the last deleted edge on any vanished
        // path leaves its target row dirty, and the path's suffix still
        // exists.
        let adj_t = &engine.context().adj_t;
        let hops = self.model.config.num_layers;
        let mut cone: Vec<u32> = Vec::new();
        if !effect.dirty_rows.is_empty() {
            let f = Frontier::reverse_hops(adj_t, &effect.dirty_rows, hops - 1)
                .map_err(|e| ServeError::BadModel(e.to_string()))?;
            cone.extend_from_slice(f.inputs().ids());
        }
        if !writes.is_empty() {
            let written: Vec<u32> = writes.iter().map(|&(n, _)| n).collect();
            let f = Frontier::reverse_hops(adj_t, &written, hops)
                .map_err(|e| ServeError::BadModel(e.to_string()))?;
            cone.extend_from_slice(f.inputs().ids());
        }
        cone.sort_unstable();
        cone.dedup();

        core.epoch += 1;
        let next = Arc::new(EpochState {
            epoch: core.epoch,
            engine,
        });

        // Invalidate, swap, invalidate again — the first pass stops the
        // cone being served and poisons in-flight leaders, the second
        // catches fills that raced the swap.
        let invalidate = || {
            self.cache.get().map_or(0, |c| {
                c.invalidate_seeds(self.model.generation, version, &cone)
            })
        };
        let mut rows_invalidated = invalidate();
        *self.state.write().expect("state lock poisoned") = next;
        rows_invalidated += invalidate();

        self.stats.batches_applied.fetch_add(1, Ordering::Relaxed);
        self.stats
            .cone_nodes
            .fetch_add(cone.len() as u64, Ordering::Relaxed);
        self.stats
            .rows_invalidated
            .fetch_add(rows_invalidated, Ordering::Relaxed);

        // Black-box the swap at its exact time (the monitor only sees
        // counter deltas a tick later).
        if let Some(rec) = self.recorder.get() {
            rec.record(crate::EventKind::EpochSwap, core.epoch, rows_invalidated);
        }

        Ok(MutationReport {
            epoch: core.epoch,
            inserted: effect.inserted,
            deleted: effect.deleted,
            noops: effect.noops,
            feature_writes: writes.len(),
            dirty_rows: effect.dirty_rows.len(),
            cone_nodes: cone.len(),
            rows_invalidated,
        })
    }

    fn read_state(&self) -> Arc<EpochState> {
        Arc::clone(&self.state.read().expect("state lock poisoned"))
    }

    fn lock_core(&self) -> std::sync::MutexGuard<'_, Core> {
        self.core.lock().expect("core lock poisoned")
    }
}

impl BatchEngine for DynamicEngine {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn out_dim(&self) -> usize {
        self.model.config.out_dim
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn generation(&self) -> SnapshotGeneration {
        self.model.generation
    }

    fn graph_version(&self) -> GraphVersion {
        self.read_state().engine.graph_version()
    }

    fn epoch(&self) -> u64 {
        self.read_state().epoch
    }

    /// # Panics
    ///
    /// Panics when a different cache is already bound: invalidation
    /// reaches one cache, and a second server's would serve stale rows.
    fn bind_cache(&self, cache: &Arc<LogitCache>) {
        let bound = self.cache.get_or_init(|| Arc::clone(cache));
        assert!(
            Arc::ptr_eq(bound, cache),
            "a DynamicEngine invalidates the one cache it was first bound to"
        );
    }

    fn bind_recorder(&self, recorder: &Arc<crate::FlightRecorder>) {
        self.recorder.get_or_init(|| Arc::clone(recorder));
    }

    fn forward_union(&self, union: &[u32], obs: Option<(&Telemetry, u64)>) -> BatchOutcome {
        self.read_state().engine.forward_union(union, obs)
    }
}

/// A background mutation submitter: batches queued here are applied to
/// the engine by a dedicated thread, so the query path never blocks on
/// mutation ingestion.
#[derive(Debug)]
pub struct MutationIngress {
    tx: Option<exec::Sender<Vec<Mutation>>>,
    join: Option<Worker<(u64, u64)>>,
}

impl MutationIngress {
    /// Spawns the applier worker over `engine` (named
    /// `maxk-mutations`, through [`crate::exec`]).
    pub fn spawn(engine: Arc<DynamicEngine>) -> Self {
        let executor = StdThreadExecutor;
        let (tx, rx) = executor.unbounded::<Vec<Mutation>>();
        let join = executor.spawn_worker("maxk-mutations", move || {
            let (mut ok, mut failed) = (0u64, 0u64);
            while let Ok(batch) = rx.recv() {
                match engine.apply(&batch) {
                    Ok(_) => ok += 1,
                    Err(_) => failed += 1,
                }
            }
            (ok, failed)
        });
        MutationIngress {
            tx: Some(tx),
            join: Some(join),
        }
    }

    /// Queues one batch for application.
    ///
    /// # Errors
    ///
    /// [`ServeError::ChannelClosed`] after shutdown.
    pub fn submit(&self, batch: Vec<Mutation>) -> Result<(), ServeError> {
        self.tx
            .as_ref()
            .ok_or(ServeError::ChannelClosed)?
            .send(batch)
            .map_err(|_| ServeError::ChannelClosed)
    }

    /// Drains the queue and stops the applier, returning `(applied,
    /// failed)` batch counts.
    pub fn shutdown(mut self) -> (u64, u64) {
        drop(self.tx.take());
        self.join
            .take()
            .map(|j| j.join().expect("mutation applier panicked"))
            .unwrap_or((0, 0))
    }
}

impl Drop for MutationIngress {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_graph::generate;
    use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `(in_dim, hidden_dim, k)` on either side of the engine's quarter
    /// rule: 6 → 12 recomputes layer 0's combination phase per batch,
    /// 96 → 8 keeps it in the feature state for all three archs.
    const NARROW: (usize, usize, usize) = (6, 12, 4);
    const WIDE: (usize, usize, usize) = (96, 8, 2);

    fn setup(arch: Arch) -> (ModelSnapshot, Csr, Matrix) {
        setup_at(arch, NARROW)
    }

    fn setup_at(
        arch: Arch,
        (in_dim, hidden, k): (usize, usize, usize),
    ) -> (ModelSnapshot, Csr, Matrix) {
        let graph = generate::chung_lu_power_law(50, 4.0, 2.3, 9)
            .to_csr()
            .unwrap();
        let mut cfg = ModelConfig::new(arch, Activation::MaxK(k), in_dim, 3);
        cfg.hidden_dim = hidden;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(11);
        let model = GnnModel::new(cfg, &graph, &mut rng);
        let snapshot = ModelSnapshot::capture(&model);
        let features = Matrix::xavier(50, in_dim, &mut rng);
        (snapshot, graph, features)
    }

    fn rebuilt(snapshot: &ModelSnapshot, graph: &Csr, features: Matrix) -> InferenceEngine {
        InferenceEngine::from_snapshot(snapshot, graph, features).unwrap()
    }

    #[test]
    fn fresh_engine_matches_frozen_construction() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            let (snapshot, graph, features) = setup(arch);
            let dynamic = DynamicEngine::new(
                &snapshot,
                &graph,
                features.clone(),
                InvalidationStrategy::DirtyCone,
            )
            .unwrap();
            let frozen = rebuilt(&snapshot, &graph, features);
            assert_eq!(
                dynamic.forward_all(),
                frozen.forward_all(),
                "{arch:?} epoch-0 logits differ from frozen engine"
            );
        }
    }

    #[test]
    fn mutations_match_from_scratch_rebuild() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for shape in [NARROW, WIDE] {
                let (snapshot, graph, features) = setup_at(arch, shape);
                let dynamic = DynamicEngine::new(
                    &snapshot,
                    &graph,
                    features,
                    InvalidationStrategy::DirtyCone,
                )
                .unwrap();
                let costs = dynamic.read_state().engine.layer_costs().to_vec();
                assert_eq!(costs[0].linear_hoisted, shape == WIDE);
                let report = dynamic
                    .apply(&[
                        Mutation::InsertEdge { u: 0, v: 49 },
                        Mutation::DeleteEdge { u: 0, v: 49 },
                        Mutation::InsertEdge { u: 3, v: 17 },
                        Mutation::WriteFeature {
                            node: 5,
                            values: vec![0.25; shape.0],
                        },
                    ])
                    .unwrap();
                assert_eq!(report.epoch, 1);
                assert_eq!(report.feature_writes, 1);
                assert!(report.cone_nodes > 0);
                let reference = rebuilt(
                    &snapshot,
                    &dynamic.current_graph(),
                    dynamic.current_features(),
                );
                assert_eq!(
                    dynamic.forward_all(),
                    reference.forward_all(),
                    "{arch:?} {shape:?} post-mutation logits differ from rebuild"
                );
                // The rewritten rows of a kept product are the rows of one
                // derived from scratch.
                assert_eq!(
                    dynamic.read_state().engine.operands().1,
                    reference.operands().1
                );
            }
        }
    }

    #[test]
    fn edge_only_batches_share_weights_and_features_with_epoch_zero() {
        for shape in [NARROW, WIDE] {
            let (snapshot, graph, features) = setup_at(Arch::Sage, shape);
            let dynamic =
                DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone)
                    .unwrap();
            let epoch0 = dynamic.read_state();
            for u in 0..4u32 {
                // Toggle {u, 49 - u}: every batch has a net effect.
                let v = 49 - u;
                let toggle = if graph.get(u as usize, v).is_some() {
                    Mutation::DeleteEdge { u, v }
                } else {
                    Mutation::InsertEdge { u, v }
                };
                dynamic.apply(&[toggle]).unwrap();
            }
            let served = dynamic.read_state();
            assert_eq!(served.epoch, 4);
            let (w0, x0) = epoch0.engine.operands();
            let (w, x) = served.engine.operands();
            assert!(Arc::ptr_eq(w0, w), "weights re-materialised");
            assert!(
                Arc::ptr_eq(x0, x),
                "edge-only batches copied the feature state"
            );
            assert!(Arc::ptr_eq(x, &dynamic.lock_core().features));
        }
    }

    #[test]
    fn feature_write_copies_features_once_and_old_epoch_keeps_its_rows() {
        for shape in [NARROW, WIDE] {
            let (snapshot, graph, features) = setup_at(Arch::Gcn, shape);
            let dynamic =
                DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone)
                    .unwrap();
            let before = dynamic.read_state();
            let logits_before = before.engine.forward_all();
            let written = vec![0.75; shape.0];
            dynamic
                .apply(&[
                    Mutation::WriteFeature {
                        node: 5,
                        values: vec![0.5; shape.0],
                    },
                    Mutation::WriteFeature {
                        node: 5,
                        values: written.clone(),
                    },
                ])
                .unwrap();
            let after = dynamic.read_state();
            assert!(Arc::ptr_eq(
                before.engine.operands().0,
                after.engine.operands().0
            ));
            assert!(!Arc::ptr_eq(
                before.engine.operands().1,
                after.engine.operands().1
            ));
            assert!(Arc::ptr_eq(
                after.engine.operands().1,
                &dynamic.lock_core().features
            ));
            // The handle taken before the write still answers pre-write.
            assert_eq!(before.engine.forward_all(), logits_before);
            assert_ne!(after.engine.forward_all(), logits_before);
            assert_eq!(after.engine.operands().1.x().row(5), written);
            assert_ne!(before.engine.operands().1.x().row(5), written);
            // Two writes to one row in a batch: the last one is served.
            let reference = rebuilt(&snapshot, &graph, dynamic.current_features());
            assert_eq!(after.engine.forward_all(), reference.forward_all());
        }
    }

    #[test]
    fn non_finite_features_rejected_at_construction() {
        let (snapshot, graph, mut features) = setup(Arch::Sage);
        features.set(12, 3, f32::NEG_INFINITY);
        assert!(matches!(
            DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone),
            Err(ServeError::NonFiniteFeature { node: 12 })
        ));
    }

    #[test]
    fn noop_batch_keeps_epoch_and_version() {
        let (snapshot, graph, features) = setup(Arch::Sage);
        let dynamic =
            DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone)
                .unwrap();
        let v0 = BatchEngine::graph_version(&dynamic);
        // Toggle the edge there and back (whatever its initial state):
        // net effect zero.
        let batch = if graph.get(1, 2).is_some() {
            [
                Mutation::DeleteEdge { u: 1, v: 2 },
                Mutation::InsertEdge { u: 1, v: 2 },
            ]
        } else {
            [
                Mutation::InsertEdge { u: 1, v: 2 },
                Mutation::DeleteEdge { u: 1, v: 2 },
            ]
        };
        let report = dynamic.apply(&batch).unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(BatchEngine::epoch(&dynamic), 0);
        assert_eq!(BatchEngine::graph_version(&dynamic), v0);
    }

    #[test]
    fn invalid_batches_leave_state_untouched() {
        let (snapshot, graph, features) = setup(Arch::Gcn);
        let dynamic =
            DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone)
                .unwrap();
        let before = dynamic.forward_all();
        assert!(matches!(
            dynamic.apply(&[Mutation::WriteFeature {
                node: 99,
                values: vec![0.0; 6]
            }]),
            Err(ServeError::SeedOutOfRange { seed: 99, .. })
        ));
        assert!(matches!(
            dynamic.apply(&[Mutation::WriteFeature {
                node: 1,
                values: vec![0.0; 3]
            }]),
            Err(ServeError::BadModel(_))
        ));
        assert!(matches!(
            dynamic.apply(&[Mutation::InsertEdge { u: 4, v: 4 }]),
            Err(ServeError::BadModel(_))
        ));
        assert_eq!(BatchEngine::epoch(&dynamic), 0);
        assert_eq!(dynamic.forward_all(), before);
    }

    #[test]
    fn dirty_cone_invalidates_bound_cache() {
        let (snapshot, graph, features) = setup(Arch::Sage);
        let dynamic = Arc::new(
            DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone)
                .unwrap(),
        );
        let cache = Arc::new(LogitCache::new(crate::CacheConfig { capacity: 128 }));
        dynamic.bind_cache(&cache);
        // Warm every seed at the current identity.
        let all: Vec<u32> = (0..50).collect();
        let logits = dynamic.forward_all();
        cache.fill_rows(
            BatchEngine::generation(&*dynamic),
            BatchEngine::graph_version(&*dynamic),
            &all,
            &logits,
        );
        let version = BatchEngine::graph_version(&*dynamic);
        let report = dynamic
            .apply(&[Mutation::WriteFeature {
                node: 7,
                values: vec![1.0; 6],
            }])
            .unwrap();
        assert_eq!(
            BatchEngine::graph_version(&*dynamic),
            version,
            "an effective apply keeps the version"
        );
        assert_eq!(BatchEngine::epoch(&*dynamic), 1);
        assert!(report.rows_invalidated > 0);
        assert_eq!(report.rows_invalidated, report.cone_nodes as u64);
        let snap = cache.snapshot();
        assert_eq!(snap.invalidated, report.rows_invalidated);
        assert_eq!(
            snap.resident_rows,
            50 - report.rows_invalidated,
            "rows outside the cone stay resident"
        );
        assert_eq!(dynamic.stats().rows_invalidated, report.rows_invalidated);
    }

    #[test]
    fn ingress_applies_in_background() {
        let (snapshot, graph, features) = setup(Arch::Gin);
        let dynamic = Arc::new(
            DynamicEngine::new(&snapshot, &graph, features, InvalidationStrategy::DirtyCone)
                .unwrap(),
        );
        let ingress = MutationIngress::spawn(Arc::clone(&dynamic));
        ingress
            .submit(vec![Mutation::InsertEdge { u: 0, v: 30 }])
            .unwrap();
        ingress
            .submit(vec![Mutation::WriteFeature {
                node: 2,
                values: vec![0.5; 6],
            }])
            .unwrap();
        ingress
            .submit(vec![Mutation::InsertEdge { u: 9, v: 9 }])
            .unwrap();
        let (ok, failed) = ingress.shutdown();
        assert_eq!(ok, 2);
        assert_eq!(failed, 1, "self-loop batch rejected");
        assert_eq!(BatchEngine::epoch(&*dynamic), 2);
        let reference = rebuilt(
            &snapshot,
            &dynamic.current_graph(),
            dynamic.current_features(),
        );
        assert_eq!(dynamic.forward_all(), reference.forward_all());
    }
}
