//! Inference-only forward engine.
//!
//! [`InferenceEngine`] is the serving-side counterpart of
//! [`maxk_nn::GnnModel`]: it runs the eval-mode forward path with none of
//! the training baggage — no dropout, no phase timers, no gradient
//! caches, no `&mut` — so one engine is shareable across server worker
//! threads.
//!
//! **Operands are owned once.** The engine's three operands — the model
//! weights (the [`ModelSnapshot`] itself, read through
//! [`ModelSnapshot::plan_layer`] views), the node features with what is
//! derived from them (one crate-private `FeatureState`) and the
//! pre-normalized [`GraphContext`] — each sit behind an `Arc`. The shards of a
//! [`crate::ShardedEngine`] and the epochs of a
//! [`crate::mutation::DynamicEngine`] point at one weight allocation,
//! epochs share the feature state until a write touches it, and cloning
//! an engine is three refcount bumps. Snapshot and features are validated
//! where they enter ([`InferenceEngine::from_snapshot`] and the
//! sharded/dynamic constructors), not per engine built from them.
//!
//! **An engine is immutable.** Its weights, features and graph never
//! change for its lifetime — a mutation is a new epoch, which is a new
//! engine — so anything that depends on weights and features alone is
//! computed once, not per batch. Layer 0's combination phase
//! (`X·W + b`, its MaxK → CBSR, the SAGE self product: two thirds of a
//! forward at 512-wide inputs) is exactly that, and the feature state
//! keeps it whenever it is small beside the features (`HOIST_MIN_SHRINK`:
//! at most a quarter of their bytes); every forward then starts at layer
//! 0's aggregation. Rows are independent, so answers are bitwise what a
//! forward from the raw features gives.

use crate::telemetry::Telemetry;
use crate::ServeError;
use maxk_graph::{Csr, Frontier, NodeSet};
use maxk_nn::plan::{
    self, combine, Combined, ForwardPlan, ForwardTimer, Input, LayerCost, PlanConfig, PlanLayer,
};
use maxk_nn::snapshot::ModelSnapshot;
use maxk_nn::{GraphContext, GraphVersion, SnapshotGeneration};
use maxk_tensor::Matrix;
use std::sync::Arc;
use std::time::Instant;

/// Layer 0's [`Combined`] is kept beside the features only when the
/// features are at least this many times its size. The product trades
/// resident memory for per-batch work, and the trade is only lopsided at
/// wide inputs: over 512 floats a SAGE MaxK(16) × 64 row derives 336 B
/// from 2 048 B (kept: +16 % of the features for −2/3 of every forward),
/// over 64 floats the same 336 B from 256 B would more than double the
/// feature footprint to skip a matmul that is no longer the biggest bar.
const HOIST_MIN_SHRINK: usize = 4;

/// The node features and what is derived from them and the weights alone:
/// the one owner of "what a feature write changes". Built where features
/// enter an engine, shared by every engine, shard slice or epoch that
/// serves the same rows, copied (once) by the first write after a share.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FeatureState {
    x: Matrix,
    /// Layer 0's combination phase over every row of `x`, when
    /// [`HOIST_MIN_SHRINK`] keeps it.
    combined: Option<Combined>,
}

impl FeatureState {
    /// Validates `x` against `model` and derives what the engine keeps.
    ///
    /// # Errors
    ///
    /// See [`FeatureState::derive`].
    pub(crate) fn new(model: &ModelSnapshot, x: Matrix) -> Result<Self, ServeError> {
        let combined = Self::derive(model, &x)?;
        Ok(FeatureState { x, combined })
    }

    /// The gate features pass on their way into serving, and layer 0's
    /// [`Combined`] over all of them when it is worth keeping.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadModel`] when the width is not the model's input
    /// dimension; [`ServeError::NonFiniteFeature`] naming the first row
    /// with a NaN or infinite value (top-k selection panics on NaN, and
    /// would now do so in a constructor).
    pub(crate) fn derive(
        model: &ModelSnapshot,
        x: &Matrix,
    ) -> Result<Option<Combined>, ServeError> {
        if x.cols() != model.config.in_dim {
            return Err(ServeError::BadModel(format!(
                "feature dim {} != model in_dim {}",
                x.cols(),
                model.config.in_dim
            )));
        }
        if let Some(node) = (0..x.rows()).find(|&r| !x.row(r).iter().all(|v| v.is_finite())) {
            return Err(ServeError::NonFiniteFeature { node: node as u32 });
        }
        let layer = model.plan_layer(0);
        let keep = layer.combined_row_bytes() * HOIST_MIN_SHRINK <= x.cols() * 4;
        Ok(keep.then(|| combine(&layer, x, None, &mut None)))
    }

    /// Rows `ids` of a global matrix and of what was derived from it, in
    /// that order — a shard's slice. Nothing is recomputed.
    pub(crate) fn slice(x: &Matrix, combined: Option<&Combined>, ids: &[u32]) -> Self {
        FeatureState {
            x: gather_rows(x, ids),
            combined: combined.map(|c| c.gather(ids, ids)),
        }
    }

    /// Overwrites feature rows (validated by the caller) and recomputes
    /// exactly those rows of the kept product.
    pub(crate) fn write_rows(&mut self, model: &ModelSnapshot, writes: &[(u32, &[f32])]) {
        for &(node, values) in writes {
            self.x.row_mut(node as usize).copy_from_slice(values);
        }
        if let Some(kept) = &mut self.combined {
            let nodes: Vec<u32> = writes.iter().map(|&(node, _)| node).collect();
            let patch = gather_rows(&self.x, &nodes);
            kept.write_rows(
                &nodes,
                &combine(&model.plan_layer(0), &patch, None, &mut None),
            );
        }
    }

    /// The feature matrix.
    pub(crate) fn x(&self) -> &Matrix {
        &self.x
    }

    /// Where a forward over these features starts.
    fn input(&self) -> Input<'_> {
        match &self.combined {
            Some(kept) => Input::Combined(kept),
            None => Input::Features(&self.x),
        }
    }
}

/// Rows `ids` of `m`, compact in that order.
fn gather_rows(m: &Matrix, ids: &[u32]) -> Matrix {
    let mut out = Matrix::zeros(ids.len(), m.cols());
    for (r, &id) in ids.iter().enumerate() {
        out.row_mut(r).copy_from_slice(m.row(id as usize));
    }
    out
}

/// Logits produced for one batch, either full-graph or seed-restricted.
///
/// Abstracts over where a seed's row lives: at index `seed` in a
/// full-graph matrix, or at the seed's compact frontier position in a
/// partial one. Produced by [`InferenceEngine::forward_planned`].
#[derive(Debug, Clone)]
pub struct BatchLogits {
    logits: Matrix,
    /// `None` = full-graph logits (row index == node id).
    seeds: Option<NodeSet>,
}

impl BatchLogits {
    /// Wraps compact logits covering exactly `seeds` (row `r` belongs to
    /// `seeds.ids()[r]`) — the sharded router's gather result.
    pub(crate) fn compact(logits: Matrix, seeds: NodeSet) -> Self {
        debug_assert_eq!(logits.rows(), seeds.len());
        BatchLogits {
            logits,
            seeds: Some(seeds),
        }
    }

    /// True when the logit rows are **compact** over a covered seed set
    /// (row index = the seed's rank in the set) rather than full-graph
    /// (row index = node id). A single engine produces compact logits
    /// exactly when it ran the seed-restricted partial path; the sharded
    /// router's gathered logits are always compact, whichever path each
    /// shard took — consult [`BatchOutcome::any_partial`] for that.
    pub fn is_compact(&self) -> bool {
        self.seeds.is_some()
    }

    /// The logit row of `seed`, or `None` when the seed was not part of
    /// the plan this batch ran under (partial plans only cover their
    /// seed union; full-graph logits cover every node).
    pub fn row(&self, seed: u32) -> Option<&[f32]> {
        let r = match &self.seeds {
            None => seed as usize,
            Some(set) => set.compact(seed)?,
        };
        Some(self.logits.row(r))
    }

    /// Copies the logit rows for `seeds` in request order.
    ///
    /// # Panics
    ///
    /// Panics when a seed is not covered (see [`BatchLogits::row`]).
    pub fn gather(&self, seeds: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(seeds.len(), self.logits.cols());
        for (i, &s) in seeds.iter().enumerate() {
            let row = self.row(s).expect("seed covered by the batch plan");
            out.row_mut(i).copy_from_slice(row);
        }
        out
    }
}

/// A read-only, thread-shareable inference model over one graph.
///
/// # Examples
///
/// ```
/// use maxk_serve::InferenceEngine;
/// use maxk_nn::snapshot::ModelSnapshot;
/// use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
/// use maxk_graph::generate;
/// use maxk_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let graph = generate::chung_lu_power_law(50, 5.0, 2.3, 1).to_csr().unwrap();
/// let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(4), 8, 3);
/// cfg.hidden_dim = 16;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = GnnModel::new(cfg, &graph, &mut rng);
/// let features = Matrix::xavier(50, 8, &mut rng);
///
/// let snapshot = ModelSnapshot::capture(&model);
/// let engine = InferenceEngine::from_snapshot(&snapshot, &graph, features).unwrap();
/// // Heuristic full/partial choice; always exact for the requested seeds.
/// let logits = engine.logits_for(&[0, 7, 13]).unwrap();
/// assert_eq!(logits.shape(), (3, 3));
/// ```
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    /// The weights, shared by every engine built from one snapshot.
    model: Arc<ModelSnapshot>,
    /// Per-layer cost shapes, precomputed once — `plan_for` runs per
    /// batch on the serving hot path.
    layer_costs: Vec<LayerCost>,
    ctx: Arc<GraphContext>,
    features: Arc<FeatureState>,
    plan_cfg: PlanConfig,
}

impl InferenceEngine {
    /// Builds an engine from a snapshot, normalizing `graph` per the
    /// snapshot's architecture (the expensive per-graph step, done once).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadModel`] when the snapshot is internally
    /// inconsistent or `features` does not match the graph/model shape;
    /// [`ServeError::NonFiniteFeature`] when a feature is NaN or infinite.
    pub fn from_snapshot(
        snapshot: &ModelSnapshot,
        graph: &Csr,
        features: Matrix,
    ) -> Result<Self, ServeError> {
        if features.rows() != graph.num_nodes() {
            return Err(ServeError::BadModel(format!(
                "feature rows {} != graph nodes {}",
                features.rows(),
                graph.num_nodes()
            )));
        }
        let model = validated(snapshot)?;
        let features = FeatureState::new(&model, features)?;
        let ctx = GraphContext::build(graph, model.config.arch, model.config.eg_width);
        Self::with_context(model, Arc::new(ctx), Arc::new(features))
    }

    /// Builds an engine over operands that already exist — the shared
    /// weights, a context assembled elsewhere (a shard's slice, a dynamic
    /// graph's next epoch) and a possibly shared feature state. Nothing
    /// is copied or computed.
    ///
    /// `model` must come from [`validated`] and `features` from
    /// [`FeatureState`]'s constructors over that model: those gates run
    /// once where snapshot and features enter, not per shard or per epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadModel`] when `features` does not match the
    /// context's node count.
    pub(crate) fn with_context(
        model: Arc<ModelSnapshot>,
        ctx: Arc<GraphContext>,
        features: Arc<FeatureState>,
    ) -> Result<Self, ServeError> {
        if features.x.rows() != ctx.adj.num_nodes() {
            return Err(ServeError::BadModel(format!(
                "feature rows {} != context nodes {}",
                features.x.rows(),
                ctx.adj.num_nodes()
            )));
        }
        let layer_costs = (0..model.layers.len())
            .map(|l| {
                let cost = model.plan_layer(l).cost();
                // No plan computes a dense row of a layer whose product
                // the feature state holds.
                if l == 0 && features.combined.is_some() {
                    cost.hoisted()
                } else {
                    cost
                }
            })
            .collect();
        Ok(InferenceEngine {
            model,
            layer_costs,
            ctx,
            features,
            plan_cfg: PlanConfig::default(),
        })
    }

    /// Replaces the full-vs-partial cost heuristic (builder style).
    #[must_use]
    pub fn with_plan_config(mut self, cfg: PlanConfig) -> Self {
        self.plan_cfg = cfg;
        self
    }

    /// The cost heuristic used by [`InferenceEngine::plan_for`].
    pub fn plan_config(&self) -> &PlanConfig {
        &self.plan_cfg
    }

    /// Number of nodes served by this engine.
    pub fn num_nodes(&self) -> usize {
        self.features.x.rows()
    }

    /// Output (logit) dimension.
    pub fn out_dim(&self) -> usize {
        self.model.config.out_dim
    }

    /// The per-graph normalization bundle this engine aggregates over.
    pub fn context(&self) -> &GraphContext {
        &self.ctx
    }

    /// The weight set this engine serves, inherited from the snapshot it
    /// was built from.
    pub fn generation(&self) -> SnapshotGeneration {
        self.model.generation
    }

    /// The graph operand this engine serves, inherited from its
    /// [`GraphContext`].
    pub fn graph_version(&self) -> GraphVersion {
        self.ctx.version
    }

    /// Full-graph eval forward: logits for every node.
    ///
    /// One call serves an entire micro-batch — every query in the batch
    /// gathers its seed rows from this one result, which is what makes
    /// request coalescing pay off.
    ///
    /// Each call recomputes everything that depends on the graph — the
    /// aggregations and every layer above the first — and nothing that
    /// does not: layer 0's combination phase comes from the engine's
    /// feature state when that keeps it (see the module docs). The
    /// result itself is not memoized; reuse of logit rows across batches
    /// is the job of the opt-in seed-level [`crate::LogitCache`], whose
    /// `(SnapshotGeneration, GraphVersion, seed)` keys make stale rows
    /// unreachable the moment either identity changes.
    #[must_use]
    pub fn forward_all(&self) -> Matrix {
        self.forward(None, None)
    }

    /// The eval forward both plans run ([`plan::forward`]): over all rows
    /// (`frontier = None`; the result is full-graph) or over the
    /// frontier's row subsets (the result is compact over
    /// `frontier.seeds()`), from the kept layer-0 product or the raw
    /// features. When `timer` is set every kernel call lands in it as a
    /// `(layer, kernel, duration)` lap.
    fn forward(&self, frontier: Option<&Frontier>, timer: Option<&mut ForwardTimer>) -> Matrix {
        let model = &*self.model;
        let layers: Vec<PlanLayer<'_>> = (0..model.layers.len())
            .map(|l| model.plan_layer(l))
            .collect();
        let input = self.features.input();
        plan::forward(
            &self.ctx,
            model.config.arch,
            &layers,
            input,
            frontier,
            timer,
        )
    }

    /// Per-layer cost shapes feeding the full-vs-partial heuristic (see
    /// [`maxk_nn::plan::LayerCost`]); precomputed at construction.
    pub fn layer_costs(&self) -> &[LayerCost] {
        &self.layer_costs
    }

    /// Plans full vs. seed-restricted forward for a batch's seed union
    /// using the engine's [`PlanConfig`] cost heuristic (modelled
    /// dense-linear plus aggregation work of the frontier vs. the full
    /// forward).
    ///
    /// # Errors
    ///
    /// [`ServeError::SeedOutOfRange`] / [`ServeError::EmptyQuery`] on bad
    /// seed sets.
    pub fn plan_for(&self, seeds: &[u32]) -> Result<ForwardPlan, ServeError> {
        check_seeds(seeds, self.num_nodes())?;
        ForwardPlan::choose(&self.ctx.adj, seeds, &self.layer_costs, &self.plan_cfg)
            .map_err(|e| ServeError::BadModel(e.to_string()))
    }

    /// Executes a plan: one full forward, or a partial forward over the
    /// plan's frontier (every layer on the frontier's row subsets via the
    /// `maxk_core::subset` kernels; a kept layer-0 product is gathered at
    /// the frontier's rows instead of the features). Either way the returned
    /// [`BatchLogits`] gathers bitwise-identical rows for every seed the
    /// plan covers. When `timer` is set, every kernel call lands in it as
    /// a per-layer lap, whichever path the plan takes.
    ///
    /// # Panics
    ///
    /// Panics when a partial plan's frontier depth does not match the
    /// model.
    #[must_use]
    pub fn forward_planned(
        &self,
        plan: &ForwardPlan,
        timer: Option<&mut ForwardTimer>,
    ) -> BatchLogits {
        BatchLogits {
            logits: self.forward(plan.frontier(), timer),
            seeds: plan.frontier().map(|f| f.seeds().clone()),
        }
    }

    /// Convenience single-query path: plans the forward with the cost
    /// heuristic (partial when the seed frontier is small, full-graph
    /// otherwise) and gathers the seed rows in request order.
    ///
    /// # Errors
    ///
    /// [`ServeError::SeedOutOfRange`] / [`ServeError::EmptyQuery`] on bad
    /// seed sets.
    pub fn logits_for(&self, seeds: &[u32]) -> Result<Matrix, ServeError> {
        let plan = self.plan_for(seeds)?;
        Ok(self.forward_planned(&plan, None).gather(seeds))
    }

    /// The "one query per full forward" baseline path: always runs the
    /// full-graph forward and gathers the seed rows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceEngine::logits_for`].
    pub fn logits_full(&self, seeds: &[u32]) -> Result<Matrix, ServeError> {
        check_seeds(seeds, self.num_nodes())?;
        Ok(self.forward_planned(&ForwardPlan::Full, None).gather(seeds))
    }

    /// Forces the seed-restricted path regardless of the cost heuristic
    /// (the differential tests compare it bitwise against
    /// [`InferenceEngine::logits_full`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceEngine::logits_for`].
    pub fn logits_partial(&self, seeds: &[u32]) -> Result<Matrix, ServeError> {
        check_seeds(seeds, self.num_nodes())?;
        let frontier = Frontier::reverse_hops(&self.ctx.adj, seeds, self.model.layers.len())
            .map_err(|e| ServeError::BadModel(e.to_string()))?;
        let plan = ForwardPlan::Partial(frontier);
        Ok(self.forward_planned(&plan, None).gather(seeds))
    }
}

/// What one batched forward produced, plus routing metadata.
///
/// Returned by [`BatchEngine::forward_union`]; the server gathers each
/// query's rows from `logits` and feeds `shards` into its per-shard
/// counters.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Logits covering the batch's entire seed union.
    pub logits: BatchLogits,
    /// Per shard that served part of the batch: `(shard index, ran the
    /// seed-restricted partial path)`. A single unsharded engine reports
    /// one entry for shard 0.
    pub shards: Vec<(usize, bool)>,
}

impl BatchOutcome {
    /// True when any participating shard ran the partial path.
    pub fn any_partial(&self) -> bool {
        self.shards.iter().any(|&(_, p)| p)
    }
}

/// A forward backend the micro-batching [`crate::Server`] can drive: the
/// single-graph [`InferenceEngine`], or the sharded
/// [`crate::ShardedEngine`] router.
///
/// Implementations answer a whole batch's **seed union** in one call; the
/// server coalesces queries, deduplicates their seeds and gathers each
/// query's rows from the returned [`BatchOutcome`].
pub trait BatchEngine: Send + Sync {
    /// Number of nodes served (valid seeds are `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Logit (output) dimension.
    fn out_dim(&self) -> usize;

    /// Number of shards behind this engine (1 when unsharded); sizes the
    /// server's per-shard counters.
    fn num_shards(&self) -> usize;

    /// The weight set every answer is computed from; cache keys and
    /// [`crate::QueryAnswer`] carry it.
    fn generation(&self) -> SnapshotGeneration;

    /// The graph operand every answer is computed over. A sharded engine
    /// reports the one version shared by all its shard contexts.
    fn graph_version(&self) -> GraphVersion;

    /// The mutation epoch the engine currently serves. Frozen-graph
    /// engines are forever at epoch 0; a mutable engine
    /// ([`crate::mutation::DynamicEngine`]) advances it per applied
    /// batch, and every [`crate::QueryAnswer`] carries the epoch its
    /// logits were computed against (the staleness bound).
    fn epoch(&self) -> u64 {
        0
    }

    /// Hands the engine the server's attached [`crate::LogitCache`] so
    /// mutation-driven invalidation can target it. Frozen-graph engines
    /// ignore the hook.
    fn bind_cache(&self, cache: &std::sync::Arc<crate::LogitCache>) {
        let _ = cache;
    }

    /// Hands the engine the server's [`crate::FlightRecorder`] so
    /// engine-side incidents (epoch swaps, invalidation churn) land in
    /// the black box at their exact time. Frozen-graph engines ignore
    /// the hook.
    fn bind_recorder(&self, recorder: &std::sync::Arc<crate::FlightRecorder>) {
        let _ = recorder;
    }

    /// Runs one forward covering every seed in `union`.
    ///
    /// `union` is validated, sorted and deduplicated by the caller; the
    /// returned logits must gather bitwise-identical rows to a full-graph
    /// forward for every seed in it.
    ///
    /// When `obs` carries the server's [`Telemetry`] hub and the batch
    /// id, the engine also records plan time, forward wall time and
    /// per-layer kernel laps into the hub's registry, plus batch-level
    /// spans when span recording is enabled — results are identical
    /// either way.
    fn forward_union(&self, union: &[u32], obs: Option<(&Telemetry, u64)>) -> BatchOutcome;
}

impl BatchEngine for InferenceEngine {
    fn num_nodes(&self) -> usize {
        InferenceEngine::num_nodes(self)
    }

    fn out_dim(&self) -> usize {
        InferenceEngine::out_dim(self)
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn generation(&self) -> SnapshotGeneration {
        InferenceEngine::generation(self)
    }

    fn graph_version(&self) -> GraphVersion {
        InferenceEngine::graph_version(self)
    }

    fn forward_union(&self, union: &[u32], obs: Option<(&Telemetry, u64)>) -> BatchOutcome {
        let plan_start = Instant::now();
        // Seeds were validated upstream, so planning only fails on
        // internal inconsistency — fall back to the full forward.
        let plan = self.plan_for(union).unwrap_or(ForwardPlan::Full);
        let plan_dur = plan_start.elapsed();
        let partial = plan.is_partial();
        let path = if partial { "partial" } else { "full" };
        let fwd_start = Instant::now();
        // Kernel laps are timed whenever a telemetry hub observes the batch.
        let mut timer = obs.map(|_| ForwardTimer::new());
        let logits = self.forward_planned(&plan, timer.as_mut());
        if let Some(((tel, batch_id), timer)) = obs.zip(timer) {
            let fwd_dur = fwd_start.elapsed();
            tel.record_kernel_laps(path, timer.laps());
            tel.record_plan(plan_dur);
            tel.record_forward(path, fwd_dur);
            if tel.spans_enabled() {
                let seeds = union.len() as u64;
                tel.push_span("plan", batch_id, plan_start, plan_dur, seeds);
                tel.push_span("forward", batch_id, fwd_start, fwd_dur, seeds);
            }
        }
        BatchOutcome {
            logits,
            shards: vec![(0, partial)],
        }
    }
}

/// A [`BatchEngine`] decorator that injects a configurable delay into
/// every forward pass — the controlled slow-batch fault used by the SLO
/// incident tests (breach a latency objective on demand, with
/// bitwise-identical results).
///
/// The delay is a live atomic: `set_forward_delay(Duration::ZERO)`
/// clears the fault mid-run, which is how tests drive the
/// degraded → recovered health transition.
#[derive(Debug)]
pub struct FaultInjector<E> {
    inner: E,
    delay_us: std::sync::atomic::AtomicU64,
}

impl<E: BatchEngine> FaultInjector<E> {
    /// Wraps `inner` with no fault active.
    pub fn new(inner: E) -> Self {
        FaultInjector {
            inner,
            delay_us: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Sets the per-forward injected delay (zero clears the fault).
    pub fn set_forward_delay(&self, delay: std::time::Duration) {
        self.delay_us.store(
            delay.as_micros().min(u128::from(u64::MAX)) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn stall(&self) {
        let us = self.delay_us.load(std::sync::atomic::Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
}

impl<E: BatchEngine> BatchEngine for FaultInjector<E> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn out_dim(&self) -> usize {
        self.inner.out_dim()
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn generation(&self) -> SnapshotGeneration {
        self.inner.generation()
    }

    fn graph_version(&self) -> GraphVersion {
        self.inner.graph_version()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn bind_cache(&self, cache: &std::sync::Arc<crate::LogitCache>) {
        self.inner.bind_cache(cache);
    }

    fn bind_recorder(&self, recorder: &std::sync::Arc<crate::FlightRecorder>) {
        self.inner.bind_recorder(recorder);
    }

    fn forward_union(&self, union: &[u32], obs: Option<(&Telemetry, u64)>) -> BatchOutcome {
        self.stall();
        self.inner.forward_union(union, obs)
    }
}

/// The one gate a snapshot passes on its way into serving, returning the
/// shared allocation every engine built from it points at: layer count
/// (>= 2), MaxK k bounds, self-path presence and every per-layer weight
/// shape — the same checks as the snapshot restore path. A hand-built
/// snapshot that never went through `from_bytes` must fail here rather
/// than panic in a worker thread (or silently serve wrong-shaped logits).
pub(crate) fn validated(snapshot: &ModelSnapshot) -> Result<Arc<ModelSnapshot>, ServeError> {
    snapshot
        .check_consistency()
        .map_err(|e| ServeError::BadModel(e.to_string()))?;
    Ok(Arc::new(snapshot.clone()))
}

/// Validates a query's seed set against the node count.
pub(crate) fn check_seeds(seeds: &[u32], num_nodes: usize) -> Result<(), ServeError> {
    if seeds.is_empty() {
        return Err(ServeError::EmptyQuery);
    }
    for &s in seeds {
        if s as usize >= num_nodes {
            return Err(ServeError::SeedOutOfRange { seed: s, num_nodes });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_graph::generate;
    use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl InferenceEngine {
        /// The weight and feature-state allocations, for the sharing
        /// tests here and in `router`/`mutation`.
        pub(crate) fn operands(&self) -> (&Arc<ModelSnapshot>, &Arc<FeatureState>) {
            (&self.model, &self.features)
        }
    }

    /// The two sides of [`HOIST_MIN_SHRINK`]: `(in_dim, hidden_dim, k)`
    /// with a layer-0 product bigger than the features (8 → 12, computed
    /// per batch) and one at most a quarter of them for every
    /// arch × activation (96 → 8: SAGE + ReLU derives 64 B from 384 B).
    const SHAPES: [(usize, usize, usize); 2] = [(8, 12, 4), (96, 8, 2)];

    fn setup(arch: Arch, act: Activation) -> (Csr, Matrix, GnnModel) {
        setup_at(arch, act, SHAPES[0])
    }

    fn setup_at(
        arch: Arch,
        act: Activation,
        (in_dim, hidden, k): (usize, usize, usize),
    ) -> (Csr, Matrix, GnnModel) {
        let graph = generate::chung_lu_power_law(50, 5.0, 2.3, 2)
            .to_csr()
            .unwrap();
        let act = match act {
            Activation::MaxK(_) => Activation::MaxK(k),
            other => other,
        };
        let mut cfg = ModelConfig::new(arch, act, in_dim, 3);
        cfg.hidden_dim = hidden;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(4);
        let model = GnnModel::new(cfg, &graph, &mut rng);
        let x = Matrix::xavier(50, in_dim, &mut rng);
        (graph, x, model)
    }

    #[test]
    fn engine_matches_model_eval_forward_bitwise() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [Activation::Relu, Activation::MaxK(4)] {
                for (shape, hoisted) in SHAPES.into_iter().zip([false, true]) {
                    let (graph, x, mut model) = setup_at(arch, act, shape);
                    let snap = ModelSnapshot::capture(&model);
                    let engine = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
                    let planned = engine.layer_costs()[0].linear_hoisted;
                    assert_eq!(planned, hoisted, "{arch:?} {act:?} {shape:?}");
                    let mut rng = StdRng::seed_from_u64(0);
                    let expected = model.forward(&x, false, &mut rng);
                    assert_eq!(engine.forward_all(), expected, "{arch:?} {act:?} {shape:?}");
                }
            }
        }
    }

    #[test]
    fn quarter_rule_keeps_the_product_only_at_wide_inputs() {
        // SAGE MaxK(4) × 12: 4·5 B of CBSR + 48 B of self product = 68 B a
        // row, so features from 272 B (68 floats) a row up keep it.
        for (in_dim, kept) in [(67usize, false), (68, true)] {
            let (graph, x, model) = setup_at(Arch::Sage, Activation::MaxK(4), (in_dim, 12, 4));
            let snap = ModelSnapshot::capture(&model);
            let engine = InferenceEngine::from_snapshot(&snap, &graph, x).unwrap();
            assert_eq!(
                engine.layer_costs()[0].linear_hoisted,
                kept,
                "in_dim {in_dim}"
            );
        }
    }

    #[test]
    fn non_finite_features_rejected_at_construction() {
        let (graph, mut x, model) = setup_at(Arch::Gcn, Activation::MaxK(4), SHAPES[1]);
        let snap = ModelSnapshot::capture(&model);
        x.set(31, 2, f32::NAN);
        x.set(44, 0, f32::INFINITY);
        assert!(matches!(
            InferenceEngine::from_snapshot(&snap, &graph, x),
            Err(ServeError::NonFiniteFeature { node: 31 })
        ));
    }

    #[test]
    fn logits_for_gathers_seed_rows() {
        let (graph, x, model) = setup(Arch::Gcn, Activation::MaxK(4));
        let snap = ModelSnapshot::capture(&model);
        let engine = InferenceEngine::from_snapshot(&snap, &graph, x).unwrap();
        let all = engine.forward_all();
        let got = engine.logits_for(&[7, 0, 42]).unwrap();
        assert_eq!(got.shape(), (3, 3));
        assert_eq!(got.row(0), all.row(7));
        assert_eq!(got.row(1), all.row(0));
        assert_eq!(got.row(2), all.row(42));
    }

    #[test]
    fn seed_validation() {
        let (graph, x, model) = setup(Arch::Gcn, Activation::Relu);
        let snap = ModelSnapshot::capture(&model);
        let engine = InferenceEngine::from_snapshot(&snap, &graph, x).unwrap();
        assert!(matches!(
            engine.logits_for(&[]),
            Err(ServeError::EmptyQuery)
        ));
        assert!(matches!(
            engine.logits_for(&[50]),
            Err(ServeError::SeedOutOfRange { seed: 50, .. })
        ));
    }

    #[test]
    fn hand_built_inconsistent_snapshot_rejected_not_panicking() {
        // A snapshot that never went through the byte-format checks must
        // still be validated layer-by-layer at engine construction.
        let (graph, x, model) = setup(Arch::Gcn, Activation::MaxK(4));
        let mut snap = ModelSnapshot::capture(&model);
        snap.layers[0].neigh_weight = Matrix::zeros(8, 6); // wrong out_dim
        assert!(matches!(
            InferenceEngine::from_snapshot(&snap, &graph, x.clone()),
            Err(ServeError::BadModel(_))
        ));

        // Zero layers must be rejected too, not served as an identity
        // model with the wrong output dimension.
        let mut empty = ModelSnapshot::capture(&model);
        empty.layers.clear();
        empty.config.num_layers = 0;
        assert!(matches!(
            InferenceEngine::from_snapshot(&empty, &graph, x),
            Err(ServeError::BadModel(_))
        ));
    }

    #[test]
    fn hand_built_snapshot_with_non_finite_weights_rejected() {
        let (graph, x, model) = setup(Arch::Gin, Activation::Relu);
        let mut snap = ModelSnapshot::capture(&model);
        snap.layers[0].neigh_bias[1] = f32::NEG_INFINITY;
        match InferenceEngine::from_snapshot(&snap, &graph, x) {
            Err(ServeError::BadModel(msg)) => {
                assert!(
                    msg.ends_with("layer 0 neigh_bias holds a non-finite value"),
                    "{msg}"
                );
            }
            other => panic!("non-finite bias accepted: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn shape_mismatches_rejected() {
        let (graph, x, model) = setup(Arch::Gcn, Activation::Relu);
        let snap = ModelSnapshot::capture(&model);
        let bad_rows = Matrix::zeros(49, 8);
        assert!(matches!(
            InferenceEngine::from_snapshot(&snap, &graph, bad_rows),
            Err(ServeError::BadModel(_))
        ));
        let bad_cols = Matrix::zeros(50, 9);
        assert!(matches!(
            InferenceEngine::from_snapshot(&snap, &graph, bad_cols),
            Err(ServeError::BadModel(_))
        ));
        drop(x);
    }

    #[test]
    fn partial_forward_bitwise_matches_full_all_combos() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [Activation::Relu, Activation::MaxK(4)] {
                for shape in SHAPES {
                    let (graph, x, model) = setup_at(arch, act, shape);
                    let snap = ModelSnapshot::capture(&model);
                    let engine = InferenceEngine::from_snapshot(&snap, &graph, x).unwrap();
                    let seeds = [9u32, 0, 49, 9];
                    let full = engine.logits_full(&seeds).unwrap();
                    let partial = engine.logits_partial(&seeds).unwrap();
                    assert_eq!(partial, full, "{arch:?} {act:?} {shape:?}");
                }
            }
        }
    }

    #[test]
    fn heuristic_plan_stays_exact_both_ways() {
        let (graph, x, model) = setup(Arch::Sage, Activation::MaxK(4));
        let snap = ModelSnapshot::capture(&model);
        // Force each decision via the heuristic knobs.
        for cfg in [
            maxk_nn::PlanConfig {
                seed_frac_cutoff: 1.0,
                work_ratio: 1.1, // always partial
            },
            maxk_nn::PlanConfig {
                seed_frac_cutoff: 0.0,
                work_ratio: 0.0, // always full
            },
        ] {
            let engine = InferenceEngine::from_snapshot(&snap, &graph, x.clone())
                .unwrap()
                .with_plan_config(cfg);
            let plan = engine.plan_for(&[2, 31]).unwrap();
            assert_eq!(plan.is_partial(), cfg.work_ratio > 1.0);
            let out = engine.forward_planned(&plan, None);
            assert_eq!(out.is_compact(), plan.is_partial());
            assert_eq!(out.gather(&[2, 31]), engine.logits_full(&[2, 31]).unwrap());
        }
    }

    #[test]
    fn clone_and_plan_config_share_every_operand() {
        let (graph, x, model) = setup(Arch::Sage, Activation::MaxK(4));
        let snap = ModelSnapshot::capture(&model);
        let first = InferenceEngine::from_snapshot(&snap, &graph, x).unwrap();
        let second = first.clone().with_plan_config(PlanConfig {
            seed_frac_cutoff: 0.0,
            work_ratio: 0.0,
        });
        assert!(Arc::ptr_eq(first.operands().0, second.operands().0));
        assert!(Arc::ptr_eq(first.operands().1, second.operands().1));
        assert!(Arc::ptr_eq(&first.ctx, &second.ctx));
        assert_eq!(first.forward_all(), second.forward_all());
    }

    #[test]
    fn context_reuse_skips_renormalization() {
        let (graph, x, model) = setup(Arch::Sage, Activation::MaxK(4));
        let snap = ModelSnapshot::capture(&model);
        let first = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
        let second = InferenceEngine::with_context(
            Arc::clone(&first.model),
            Arc::clone(&first.ctx),
            Arc::new(FeatureState::new(&first.model, x).unwrap()),
        )
        .unwrap();
        assert_eq!(first.forward_all(), second.forward_all());
    }
}
