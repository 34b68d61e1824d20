//! Batched inference serving for the MaxK-GNN reproduction.
//!
//! Training (the `maxk-nn` crate) ends with a trained `GnnModel`; this
//! crate is everything after that:
//!
//! * **Snapshots** — models persist through
//!   [`maxk_nn::snapshot::ModelSnapshot`]'s versioned binary format and
//!   reload bit-exactly;
//! * [`InferenceEngine`] — an immutable, `Arc`-shareable eval-mode
//!   forward path over the `maxk-core` SpGEMM/SpMM kernels, with the
//!   per-graph normalization computed once and cached. Per batch it
//!   plans **full-graph vs. seed-restricted partial forward**
//!   ([`ForwardPlan`]): when the batch's seed-union reverse frontier is
//!   small, only the frontier rows are computed (`maxk_core::subset`
//!   kernels), bitwise-equal to the full forward for the requested seeds;
//! * [`ShardedEngine`] — sharded serving: the graph splits into `S`
//!   halo-augmented shards (`maxk_graph::shard`), one [`InferenceEngine`]
//!   per shard holding only its owned nodes plus their reverse L-hop
//!   ghost rows; a scatter/gather router answers any seed set
//!   bitwise-identically to the single engine, so serving capacity
//!   scales with shard count instead of one machine's memory;
//! * [`exec`] — the concurrency substrate: every serving layer spawns
//!   workers, scopes fan-out, and builds channels through the
//!   [`Executor`] trait ([`StdThreadExecutor`] is the thread-per-worker
//!   default, and the single seam where an async backend can slot in);
//! * [`Server`] — a micro-batching request queue (on [`exec`]):
//!   queries arriving within a configurable window coalesce
//!   into one batched forward, so a batch of `B` queries costs one
//!   forward instead of `B`; it drives any [`BatchEngine`] (single or
//!   sharded);
//! * [`LogitCache`] — an opt-in bounded seed-level logit cache keyed by
//!   `(SnapshotGeneration, GraphVersion, seed)` with CLOCK eviction and
//!   in-flight coalescing: under Zipf traffic a hot seed is computed
//!   once per weight/graph identity, repeats are answered without
//!   touching the engine, and identical seeds wanted by overlapping
//!   batches share one computation ([`ServerBuilder::cache_capacity`]
//!   enables it; [`StatsSnapshot::cache`] reports
//!   hits/misses/coalesced/evictions);
//! * [`DynamicEngine`] — streaming graph mutations on a live server:
//!   edge inserts/deletes and feature writes are applied incrementally
//!   (CSR splice + dirty-row renormalization, never a from-scratch
//!   rebuild), a new engine epoch is swapped in atomically, and the
//!   mutation's reverse L-hop dirty cone is invalidated from the cache
//!   ([`InvalidationStrategy::DirtyCone`]) instead of cold-starting every
//!   row; answers carry the epoch they were computed against
//!   ([`QueryAnswer::epoch`]) and post-mutation logits are bitwise
//!   identical to an engine built fresh on the mutated graph;
//! * [`admission`] — the control plane between clients and the batcher:
//!   a **bounded ingress queue** with a pluggable overload policy
//!   ([`OverloadPolicy`]: block, reject-newest, drop-oldest, or
//!   deadline-aware shedding) and per-client token-bucket fairness
//!   ([`FairnessConfig`]), so offered load past forward throughput
//!   yields bounded p99 and explicit [`QueryResponse::Rejected`] /
//!   [`QueryResponse::Shed`] outcomes instead of unbounded queueing;
//! * [`LatencyHistogram`] / [`StatsSnapshot`] — p50/p95/p99 latency,
//!   throughput, admission accounting (submitted/rejected/shed, queue
//!   depth and its peak) and per-client stats on the serving path;
//! * [`replay`] — a closed-loop Zipf-traffic load generator with
//!   deterministic per-client query streams ([`QueryStream`]).
//!
//! # Quickstart
//!
//! ```
//! use maxk_serve::{InferenceEngine, Server};
//! use maxk_nn::snapshot::ModelSnapshot;
//! use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
//! use maxk_graph::generate;
//! use maxk_tensor::Matrix;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! // Train (elsewhere), snapshot, then serve:
//! let graph = generate::chung_lu_power_law(50, 5.0, 2.3, 1).to_csr().unwrap();
//! let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(4), 8, 3);
//! cfg.hidden_dim = 16;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = GnnModel::new(cfg, &graph, &mut rng);
//! let snapshot = ModelSnapshot::capture(&model);
//!
//! let features = Matrix::xavier(50, 8, &mut rng);
//! let engine = Arc::new(InferenceEngine::from_snapshot(&snapshot, &graph, features).unwrap());
//! let server = Server::builder()
//!     .cache_capacity(1024) // seed-level logit cache (optional)
//!     .start(engine);
//! // Under the default `Block` admission policy every valid query is
//! // answered; overload policies surface Rejected/Shed outcomes here.
//! let answer = server.handle().query(&[0, 7, 13]).unwrap().into_answer().unwrap();
//! assert_eq!(answer.logits.shape(), (3, 3));
//! // A repeat of hot seeds is served from the cache, bitwise-identical:
//! let again = server.handle().query(&[0, 7, 13]).unwrap().into_answer().unwrap();
//! assert!(again.cached);
//! assert_eq!(again.logits, answer.logits);
//! let stats = server.shutdown();
//! assert_eq!(stats.queries, 2);
//! assert_eq!(stats.cached_queries, 1);
//! assert_eq!(stats.submitted, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod exec;
pub mod loadgen;
pub mod metrics;
pub mod mutation;
pub mod router;
pub mod server;
pub mod telemetry;

pub use admission::{
    AdaptiveConfig, AdaptiveController, AdaptiveSnapshot, AdmissionConfig, AdmissionTotals,
    ClassStats, ClassWeights, FairnessConfig, OverloadPolicy, RejectReason, ShedReason,
};
pub use cache::{CacheConfig, CacheKey, CacheSnapshot, LogitCache};
pub use engine::{BatchEngine, BatchLogits, BatchOutcome, FaultInjector, InferenceEngine};
pub use exec::{Executor, ShutdownBarrier, StdThreadExecutor, TaskScope, Worker};
pub use loadgen::{replay, LoadConfig, LoadReport, QueryStream, ZipfSampler};
pub use maxk_graph::shard::ShardStrategy;
pub use maxk_nn::plan::{ForwardPlan, PlanConfig};
pub use maxk_nn::{GraphVersion, SnapshotGeneration};
pub use metrics::{ClientStats, EvictedClientStats, LatencyHistogram, LatencySummary};
pub use mutation::{
    DynamicEngine, DynamicStats, InvalidationStrategy, Mutation, MutationIngress, MutationReport,
};
pub use router::{ShardConfig, ShardInfo, ShardedEngine};
pub use server::{
    BuildInfo, PendingQuery, QueryAnswer, QueryOptions, QueryResponse, ServeConfig, Server,
    ServerBuilder, ServerHandle, StatsSnapshot, StatsSource,
};
pub use telemetry::{
    AnswerObs, EventKind, FlightEvent, FlightRecorder, HealthCheck, HealthReport, IncidentReport,
    MetricsExporter, RecorderConfig, Registry, ScrapeSource, SloConfig, SloEvent, SloHub, SloKind,
    SloSpec, SloSpecSet, SloState, SloStatus, SloTracker, SpanRecord, Stage, StageBreakdown,
    Telemetry, TelemetryConfig, TraceContext, TraceRing,
};

use std::error::Error;
use std::fmt;

/// Errors on the serving path.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A query referenced a node outside the served graph.
    SeedOutOfRange {
        /// The offending seed id.
        seed: u32,
        /// Number of nodes actually served.
        num_nodes: usize,
    },
    /// A query carried no seeds.
    EmptyQuery,
    /// The server has shut down (or a channel endpoint was dropped).
    ChannelClosed,
    /// Snapshot/feature/graph shapes disagree.
    BadModel(String),
    /// A feature write carried a NaN or infinite value (top-k selection
    /// has no order for it); the batch it came in was not applied.
    NonFiniteFeature {
        /// The node whose written row held the value.
        node: u32,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::SeedOutOfRange { seed, num_nodes } => {
                write!(f, "seed {seed} out of range (serving {num_nodes} nodes)")
            }
            ServeError::EmptyQuery => write!(f, "query carried no seeds"),
            ServeError::ChannelClosed => write!(f, "serving channel closed"),
            ServeError::BadModel(msg) => write!(f, "bad model for serving: {msg}"),
            ServeError::NonFiniteFeature { node } => {
                write!(f, "feature write for node {node} holds a non-finite value")
            }
        }
    }
}

impl Error for ServeError {}
