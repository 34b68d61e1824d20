//! Sharded serving: one inference engine per graph shard behind a
//! scatter/gather router.
//!
//! A single [`InferenceEngine`] holds the whole normalized adjacency and
//! the full feature matrix, so serving capacity is bounded by one
//! machine's memory. [`ShardedEngine`] splits the graph into `S`
//! halo-augmented shards (`maxk_graph::shard`): each shard's engine holds
//! only its owned nodes plus their reverse L-hop ghost rows — features
//! and populated adjacency rows shrink per shard as `S` grows — yet every
//! seed a shard owns is answerable locally and **bitwise-identically** to
//! the unsharded engine, because ghost rows carry the exact global
//! adjacency rows (values included, columns compact-remapped in order)
//! and features, and extraction runs on the already-normalized operand.
//!
//! Per batch, the router scatters the seed union to owner shards, runs
//! the per-shard forwards concurrently (one thread per participating
//! shard; each shard plans full-vs-partial over *its* seeds with the
//! shared cost model), and gathers the logit rows back into seed-union
//! order. It implements [`BatchEngine`], so the micro-batching
//! [`crate::Server`] drives it through the same `Server`/`ServerHandle`
//! API as the single engine.

use crate::engine::{
    check_seeds, validated, BatchEngine, BatchLogits, BatchOutcome, FeatureState, InferenceEngine,
};
use crate::exec::{Executor, StdThreadExecutor};
use crate::telemetry::Telemetry;
use crate::ServeError;
use maxk_graph::shard::{ShardStrategy, Sharding};
use maxk_graph::{Csr, NodeSet};
use maxk_nn::plan::PlanConfig;
use maxk_nn::snapshot::ModelSnapshot;
use maxk_nn::{GraphContext, GraphVersion, SnapshotGeneration};
use maxk_tensor::Matrix;
use std::sync::Arc;
use std::time::Instant;

/// How [`ShardedEngine::from_snapshot`] partitions the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (each gets one engine).
    pub num_shards: usize,
    /// Owned-node assignment strategy.
    pub strategy: ShardStrategy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            num_shards: 2,
            strategy: ShardStrategy::DegreeBalanced,
        }
    }
}

/// Memory-footprint read-out of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Nodes this shard owns (answers queries for).
    pub owned_nodes: usize,
    /// Local universe: owned plus reverse-halo ghosts.
    pub local_nodes: usize,
    /// Ghost nodes carried beyond the owned set.
    pub ghost_nodes: usize,
    /// Nonzeros resident in the shard's sub-adjacency.
    pub resident_edges: usize,
    /// Feature rows resident in the shard (== `local_nodes`).
    pub feature_rows: usize,
}

/// One shard's serving state: the mapping plus its private engine.
#[derive(Debug, Clone)]
struct ShardSlot {
    /// Global ids the shard owns.
    owned: NodeSet,
    /// Local universe (owned ∪ halo); a node's local id is its compact
    /// index here.
    local: NodeSet,
    engine: InferenceEngine,
}

/// A sharded serving router: one [`InferenceEngine`] per halo-augmented
/// shard, scatter/gather over the batch seed union.
///
/// # Examples
///
/// ```
/// use maxk_serve::{ShardConfig, ShardedEngine};
/// use maxk_graph::shard::ShardStrategy;
/// use maxk_nn::snapshot::ModelSnapshot;
/// use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
/// use maxk_graph::generate;
/// use maxk_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let graph = generate::chung_lu_power_law(60, 5.0, 2.3, 1).to_csr().unwrap();
/// let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(4), 8, 3);
/// cfg.hidden_dim = 16;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = GnnModel::new(cfg, &graph, &mut rng);
/// let features = Matrix::xavier(60, 8, &mut rng);
///
/// let sharded = ShardedEngine::from_snapshot(
///     &ModelSnapshot::capture(&model),
///     &graph,
///     &features,
///     ShardConfig { num_shards: 2, strategy: ShardStrategy::Contiguous },
/// )
/// .unwrap();
/// let logits = sharded.logits_for(&[0, 31, 59]).unwrap();
/// assert_eq!(logits.shape(), (3, 3));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    slots: Vec<ShardSlot>,
    /// Global node id → owning shard index.
    owner: Vec<u32>,
    num_nodes: usize,
    out_dim: usize,
    /// The weight set all shard engines were built from.
    generation: SnapshotGeneration,
    /// One version shared by every shard context: the shards are slices
    /// of a single normalized operand, so they form one cacheable graph
    /// identity.
    graph_version: GraphVersion,
}

impl ShardedEngine {
    /// Builds one engine per shard from a snapshot.
    ///
    /// The global graph is normalized **once** (exactly as the unsharded
    /// engine would), then each shard extracts its halo-augmented slice
    /// of the normalized operand and of `features`. What an engine
    /// derives from its features (layer 0's combination phase, see
    /// [`crate::engine`]) is likewise computed **once**, on the global
    /// matrix, and each shard takes its rows of it — owned and ghost
    /// alike, none recomputed. The global context and derived operand are
    /// dropped before this returns, so the resident state is per-shard
    /// only.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadModel`] on snapshot/feature/graph inconsistencies
    /// or a shard count the graph cannot satisfy;
    /// [`ServeError::NonFiniteFeature`] when a feature is NaN or infinite.
    pub fn from_snapshot(
        snapshot: &ModelSnapshot,
        graph: &Csr,
        features: &Matrix,
        cfg: ShardConfig,
    ) -> Result<Self, ServeError> {
        if features.rows() != graph.num_nodes() {
            return Err(ServeError::BadModel(format!(
                "feature rows {} != graph nodes {}",
                features.rows(),
                graph.num_nodes()
            )));
        }
        if cfg.num_shards == 0 || cfg.num_shards > graph.num_nodes() {
            return Err(ServeError::BadModel(format!(
                "cannot split {} nodes into {} shards",
                graph.num_nodes(),
                cfg.num_shards
            )));
        }
        // Validated and copied once; every shard engine shares the weights.
        let model = validated(snapshot)?;
        let combined = FeatureState::derive(&model, features)?;
        let mcfg = &model.config;
        // Only the normalized operand is needed globally — the transpose
        // and Edge-Group partition are built per shard on the (smaller)
        // sub-adjacencies, so the global graph is never duplicated.
        let adj = GraphContext::normalized_adjacency(graph, mcfg.arch);
        let sharding = Sharding::build(&adj, cfg.num_shards, mcfg.num_layers, cfg.strategy)
            .map_err(|e| ServeError::BadModel(e.to_string()))?;
        let (shards, owner) = sharding.into_parts();
        // All shards slice one normalized operand, so they share one
        // graph identity — a cache row computed by any shard is valid
        // for the whole router.
        let graph_version = GraphVersion::mint();
        let mut slots = Vec::with_capacity(shards.len());
        for shard in shards {
            let (owned, local, sub_adj) = shard.into_parts();
            let local_features = FeatureState::slice(features, combined.as_ref(), local.ids());
            // The sub-adjacency is a row slice of the global normalized
            // operand, so the context is assembled around it as is.
            let ctx = GraphContext::from_normalized(sub_adj, mcfg.eg_width, graph_version);
            let engine = InferenceEngine::with_context(
                Arc::clone(&model),
                Arc::new(ctx),
                Arc::new(local_features),
            )?;
            slots.push(ShardSlot {
                owned,
                local,
                engine,
            });
        }
        Ok(ShardedEngine {
            slots,
            owner,
            num_nodes: graph.num_nodes(),
            out_dim: mcfg.out_dim,
            generation: model.generation,
            graph_version,
        })
    }

    /// Replaces the full-vs-partial cost heuristic on every shard engine
    /// (builder style).
    #[must_use]
    pub fn with_plan_config(mut self, cfg: PlanConfig) -> Self {
        for slot in &mut self.slots {
            // The clone shares every operand (refcount bumps, no copies).
            slot.engine = slot.engine.clone().with_plan_config(cfg);
        }
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Nodes served across all shards.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Output (logit) dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn owner_of(&self, node: u32) -> usize {
        self.owner[node as usize] as usize
    }

    /// Memory-footprint read-out of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s >= num_shards()`.
    pub fn shard_info(&self, s: usize) -> ShardInfo {
        let slot = &self.slots[s];
        ShardInfo {
            owned_nodes: slot.owned.len(),
            local_nodes: slot.local.len(),
            ghost_nodes: slot.local.len() - slot.owned.len(),
            resident_edges: slot.engine.context().adj.num_edges(),
            feature_rows: slot.local.len(),
        }
    }

    /// Logit rows for `seeds` in request order (duplicates allowed),
    /// scattered to owner shards and gathered back — bitwise equal to the
    /// unsharded engine's rows.
    ///
    /// # Errors
    ///
    /// [`ServeError::SeedOutOfRange`] / [`ServeError::EmptyQuery`] on bad
    /// seed sets.
    pub fn logits_for(&self, seeds: &[u32]) -> Result<Matrix, ServeError> {
        check_seeds(seeds, self.num_nodes)?;
        let mut union = seeds.to_vec();
        union.sort_unstable();
        union.dedup();
        Ok(self.forward_union(&union, None).logits.gather(seeds))
    }
}

impl BatchEngine for ShardedEngine {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn num_shards(&self) -> usize {
        self.slots.len()
    }

    fn generation(&self) -> SnapshotGeneration {
        self.generation
    }

    fn graph_version(&self) -> GraphVersion {
        self.graph_version
    }

    /// Scatter/gather over owner shards. When `obs` carries the
    /// telemetry hub and batch id, each participating shard records its
    /// plan/forward/kernel times (and a `shard_forward` span) from its
    /// own thread — [`Telemetry`] is `Sync`, so the fan-out needs no
    /// extra coordination.
    fn forward_union(&self, union: &[u32], obs: Option<(&Telemetry, u64)>) -> BatchOutcome {
        let set = NodeSet::from_unsorted(union, self.num_nodes)
            .expect("server validates seeds before batching");
        // Scatter: per shard, the local seed ids plus each seed's row
        // position in the union-compact output.
        let mut local_seeds: Vec<Vec<u32>> = vec![Vec::new(); self.slots.len()];
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (pos, &g) in set.ids().iter().enumerate() {
            let s = self.owner[g as usize] as usize;
            let l = self.slots[s]
                .local
                .compact(g)
                .expect("owner shard holds its owned nodes");
            local_seeds[s].push(l as u32);
            positions[s].push(pos);
        }
        // Fan out: one thread per participating shard — except for the
        // common single-shard batch (skewed traffic concentrates on hub
        // owners), which runs inline to skip the spawn. Each shard runs
        // its own full-vs-partial plan over its slice of the union and
        // gathers its seed rows compactly.
        let run_shard = |s: usize| {
            let seeds = &local_seeds[s];
            let fwd_start = Instant::now();
            let out = self.slots[s].engine.forward_union(seeds, obs);
            let partial = out.any_partial();
            if let Some((tel, batch_id)) = obs {
                let fwd_dur = fwd_start.elapsed();
                tel.record_shard_forward(s, fwd_dur, partial);
                if tel.spans_enabled() {
                    tel.push_span("shard_forward", batch_id, fwd_start, fwd_dur, s as u64);
                }
            }
            (out.logits.gather(seeds), partial)
        };
        let participating = local_seeds.iter().filter(|s| !s.is_empty()).count();
        let mut results: Vec<Option<(Matrix, bool)>> = vec![None; self.slots.len()];
        if participating == 1 {
            let s = local_seeds
                .iter()
                .position(|s| !s.is_empty())
                .expect("non-empty union owns a shard");
            results[s] = Some(run_shard(s));
        } else {
            StdThreadExecutor.scope(|scope| {
                for (s, out) in results.iter_mut().enumerate() {
                    if local_seeds[s].is_empty() {
                        continue;
                    }
                    let run_shard = &run_shard;
                    scope.spawn(move || *out = Some(run_shard(s)));
                }
            });
        }
        // Gather: copy each shard's rows into union-compact order.
        let mut logits = Matrix::zeros(set.len(), self.out_dim);
        let mut shards = Vec::new();
        for (s, result) in results.into_iter().enumerate() {
            let Some((rows, partial)) = result else {
                continue;
            };
            for (r, &pos) in positions[s].iter().enumerate() {
                logits.row_mut(pos).copy_from_slice(rows.row(r));
            }
            shards.push((s, partial));
        }
        BatchOutcome {
            logits: BatchLogits::compact(logits, set),
            shards,
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

    fn setup(arch: Arch, act: Activation) -> (Csr, Matrix, ModelSnapshot) {
        setup_at(arch, act, 6, 12)
    }

    fn setup_at(
        arch: Arch,
        act: Activation,
        in_dim: usize,
        hidden: usize,
    ) -> (Csr, Matrix, ModelSnapshot) {
        let graph = generate::chung_lu_power_law(80, 5.0, 2.3, 11)
            .to_csr()
            .unwrap();
        let mut cfg = ModelConfig::new(arch, act, in_dim, 3);
        cfg.hidden_dim = hidden;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(21);
        let model = GnnModel::new(cfg, &graph, &mut rng);
        let x = Matrix::xavier(80, in_dim, &mut rng);
        (graph, x, ModelSnapshot::capture(&model))
    }

    #[test]
    fn sharded_logits_bitwise_match_single_engine_all_combos() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [Activation::Relu, Activation::MaxK(4)] {
                // 6 → 12 computes layer 0's combination phase per batch;
                // 96 → 8 keeps it, sliced per shard.
                for (in_dim, hidden, hoisted) in [(6usize, 12usize, false), (96, 8, true)] {
                    let (graph, x, snap) = setup_at(arch, act, in_dim, hidden);
                    let single = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
                    for shards in [2usize, 4] {
                        for strategy in [ShardStrategy::Contiguous, ShardStrategy::DegreeBalanced] {
                            let sharded = ShardedEngine::from_snapshot(
                                &snap,
                                &graph,
                                &x,
                                ShardConfig {
                                    num_shards: shards,
                                    strategy,
                                },
                            )
                            .unwrap();
                            assert!(sharded
                                .slots
                                .iter()
                                .all(|s| s.engine.layer_costs()[0].linear_hoisted == hoisted));
                            let seeds = [79u32, 0, 40, 13, 0];
                            assert_eq!(
                                sharded.logits_for(&seeds).unwrap(),
                                single.logits_full(&seeds).unwrap(),
                                "{arch:?} {act:?} {in_dim}→{hidden} S={shards} {strategy:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_slices_of_a_kept_product_are_its_rows_not_recomputed() {
        let (graph, x, snap) = setup_at(Arch::Sage, Activation::MaxK(4), 96, 8);
        let model = validated(&snap).unwrap();
        let sharded =
            ShardedEngine::from_snapshot(&snap, &graph, &x, ShardConfig::default()).unwrap();
        for slot in &sharded.slots {
            assert!(slot.local.len() > slot.owned.len(), "shard has ghost rows");
            // A slice and a from-scratch state over the shard's rows agree
            // bit for bit, ghost rows included.
            let local = FeatureState::slice(&x, None, slot.local.ids());
            let rebuilt = FeatureState::new(&model, local.x().clone()).unwrap();
            assert_eq!(**slot.engine.operands().1, rebuilt);
        }
    }

    #[test]
    fn non_finite_features_rejected_at_construction() {
        let (graph, mut x, snap) = setup(Arch::Gin, Activation::Relu);
        x.set(63, 5, f32::NAN);
        assert!(matches!(
            ShardedEngine::from_snapshot(&snap, &graph, &x, ShardConfig::default()),
            Err(ServeError::NonFiniteFeature { node: 63 })
        ));
    }

    #[test]
    fn forward_union_reports_participating_shards_only() {
        let (graph, x, snap) = setup(Arch::Sage, Activation::MaxK(4));
        let sharded = ShardedEngine::from_snapshot(
            &snap,
            &graph,
            &x,
            ShardConfig {
                num_shards: 4,
                strategy: ShardStrategy::Contiguous,
            },
        )
        .unwrap();
        // All seeds owned by shard 0 (contiguous: low ids).
        let out = sharded.forward_union(&[0, 1, 2], None);
        assert_eq!(out.shards.len(), 1);
        assert_eq!(out.shards[0].0, 0);
        assert_eq!(sharded.owner_of(0), 0);
        // A spread-out union touches several shards.
        let out = sharded.forward_union(&[0, 30, 79], None);
        assert!(out.shards.len() > 1);
    }

    #[test]
    fn shard_engines_share_one_weight_allocation() {
        let (graph, x, snap) = setup(Arch::Sage, Activation::MaxK(4));
        let cfg = ShardConfig {
            num_shards: 4,
            strategy: ShardStrategy::DegreeBalanced,
        };
        let sharded = ShardedEngine::from_snapshot(&snap, &graph, &x, cfg)
            .unwrap()
            .with_plan_config(PlanConfig::default());
        let weights = sharded.slots[0].engine.operands().0;
        for slot in &sharded.slots[1..] {
            assert!(Arc::ptr_eq(weights, slot.engine.operands().0));
        }
        // A clone of the router shares it too (and every shard's features).
        let cloned = sharded.clone();
        for (a, b) in sharded.slots.iter().zip(&cloned.slots) {
            assert!(Arc::ptr_eq(a.engine.operands().0, b.engine.operands().0));
            assert!(Arc::ptr_eq(a.engine.operands().1, b.engine.operands().1));
        }
    }

    #[test]
    fn shard_info_accounts_memory() {
        let (graph, x, snap) = setup(Arch::Gcn, Activation::Relu);
        let sharded = ShardedEngine::from_snapshot(
            &snap,
            &graph,
            &x,
            ShardConfig {
                num_shards: 2,
                strategy: ShardStrategy::DegreeBalanced,
            },
        )
        .unwrap();
        let total_owned: usize = (0..2).map(|s| sharded.shard_info(s).owned_nodes).sum();
        assert_eq!(total_owned, 80);
        for s in 0..2 {
            let info = sharded.shard_info(s);
            assert_eq!(info.local_nodes, info.owned_nodes + info.ghost_nodes);
            assert_eq!(info.feature_rows, info.local_nodes);
            assert!(info.resident_edges <= graph.num_edges() + 80); // + GCN self-loops
        }
    }

    #[test]
    fn bad_shard_counts_rejected() {
        let (graph, x, snap) = setup(Arch::Gcn, Activation::Relu);
        for bad in [0usize, 81] {
            assert!(matches!(
                ShardedEngine::from_snapshot(
                    &snap,
                    &graph,
                    &x,
                    ShardConfig {
                        num_shards: bad,
                        strategy: ShardStrategy::Contiguous,
                    },
                ),
                Err(ServeError::BadModel(_))
            ));
        }
    }

    #[test]
    fn seed_validation() {
        let (graph, x, snap) = setup(Arch::Gcn, Activation::Relu);
        let sharded =
            ShardedEngine::from_snapshot(&snap, &graph, &x, ShardConfig::default()).unwrap();
        assert!(matches!(
            sharded.logits_for(&[]),
            Err(ServeError::EmptyQuery)
        ));
        assert!(matches!(
            sharded.logits_for(&[80]),
            Err(ServeError::SeedOutOfRange { seed: 80, .. })
        ));
    }

    #[test]
    fn plan_config_propagates_to_every_shard() {
        let (graph, x, snap) = setup(Arch::Sage, Activation::MaxK(4));
        let single = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
        // Force-partial and force-full shard planners must both stay
        // bitwise exact.
        for cfg in [
            PlanConfig {
                seed_frac_cutoff: 1.0,
                work_ratio: f64::INFINITY,
            },
            PlanConfig {
                seed_frac_cutoff: 0.0,
                work_ratio: 0.0,
            },
        ] {
            let sharded = ShardedEngine::from_snapshot(&snap, &graph, &x, ShardConfig::default())
                .unwrap()
                .with_plan_config(cfg);
            let seeds = [5u32, 60, 5, 33];
            assert_eq!(
                sharded.logits_for(&seeds).unwrap(),
                single.logits_full(&seeds).unwrap()
            );
            let mut union: Vec<u32> = seeds.to_vec();
            union.sort_unstable();
            union.dedup();
            let out = sharded.forward_union(&union, None);
            assert_eq!(out.any_partial(), cfg.work_ratio.is_infinite());
        }
    }
}
