//! The micro-batching server: three stage types over one shared state.
//!
//! Every thread and channel below is spawned and built through
//! [`crate::exec`] — the one seam a different executor backend would slot
//! into. [`Server::builder`]`.start(engine)` builds one `Arc<Shared>`
//! (the engine, admission queue, counters, latency histogram, optional
//! cache / telemetry / SLO hub / flight recorder) and hands it to the
//! stages:
//!
//! ```text
//! clients ──ServerHandle::request/query──▶ admission queue
//!              (bounded; overload policy + per-client token buckets;
//!               Rejected/Shed outcomes surface here, see
//!               crate::admission)
//!                    │
//!                 Batcher            one thread
//!              (pop; cache probe per popped query — a fully-hot one is
//!               answered inline and never joins a batch; the rest
//!               coalesce within `batch_window`, up to `max_batch`;
//!               deadline-blown entries are shed before costing a forward)
//!                    │  bounded batch channel
//!              ForwardWorker × `workers`
//!              (`run_batch`: with a cache, claim the still-missing seeds
//!               — lead seeds shrink the union handed to the engine,
//!               follower seeds park on another batch's in-flight
//!               computation; one `BatchEngine::forward_union` for what
//!               is left; publish; copy each query's rows)
//!                    │
//!                 deliver            the one reply path
//!              (late-answer count, stage split, trace finish, books,
//!               then the reply — for inline and batched answers alike)
//!
//!              SloMonitor            one thread, only with objectives
//!              (diffs the books each tick, evaluates burn rates, runs
//!               the incident lifecycle and the admission feedback)
//! ```
//!
//! Each batch costs **one** engine forward regardless of how many queries
//! it carries, so coalescing multiplies throughput by the mean batch
//! occupancy — the serving-side analogue of the paper's full-batch
//! aggregation amortization (`max_batch = 1`, window 0 is one query per
//! forward). The opt-in logit cache ([`ServerBuilder::cache`]) reuses
//! rows *across* batches, keyed by `(SnapshotGeneration, GraphVersion,
//! seed)`; its counters exactly account for every answered seed instance
//! ([`StatsSnapshot::cache`]).
//!
//! The engine behind [`BatchEngine::forward_union`] decides how the union
//! is computed: the single [`crate::InferenceEngine`] plans full vs.
//! seed-restricted (partial when the union's reverse L-hop frontier is
//! small), the sharded [`crate::ShardedEngine`] scatters it to owner
//! shards, each planning independently. [`StatsSnapshot`] reconciles
//! every submitted query into answered/rejected/shed exactly (plus, while
//! loaded, the queued and mid-flight ones), and reports how often each
//! path won ([`StatsSnapshot::partial_batches`], the per-shard
//! [`StatsSnapshot::shard_batches`] /
//! [`StatsSnapshot::shard_partial_batches`]). The read side
//! ([`StatsSource`]: stats, scrape bodies, `/healthz`, `/debug/state`)
//! holds the same `Arc<Shared>` as the stages.

use crate::admission::{
    AdaptiveConfig, AdaptiveController, AdaptiveSnapshot, AdmissionConfig, AdmissionQueue,
    ClassStats, ClassWeights, Entry, FairnessConfig, OverloadPolicy, RejectReason, ShedReason,
    Submission,
};
use crate::cache::{CacheConfig, CacheSnapshot, LogitCache};
use crate::engine::{check_seeds, BatchEngine, BatchOutcome};
use crate::exec::{self, Executor, ShutdownBarrier, StdThreadExecutor};
use crate::metrics::{ClientStats, EvictedClientStats, LatencyHistogram, LatencySummary};
use crate::telemetry::export::{self, MetricsExporter, ScrapeSource};
use crate::telemetry::health::{json_array, HealthCheck, HealthReport, JsonObj};
use crate::telemetry::{
    serve_scrape, AnswerObs, EventKind, FlightRecorder, IncidentReport, RegistrySnapshot,
    SloConfig, SloHub, SloState, SloStatus, Stage, StageBreakdown, Telemetry, TelemetryConfig,
};
use crate::ServeError;
use maxk_nn::{GraphVersion, SnapshotGeneration};
use maxk_tensor::Matrix;
use std::collections::HashMap;
use std::io;
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Micro-batching configuration.
///
/// Prefer assembling one via [`Server::builder`], which covers every
/// knob (including admission and cache sub-configs) without literal
/// struct soup.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// How long the batcher keeps a batch open after its first query,
    /// waiting for more to coalesce. Zero disables coalescing waits.
    pub batch_window: Duration,
    /// Hard cap on queries per batch (1 = unbatched baseline).
    pub max_batch: usize,
    /// Forward-executor threads. Batches are handed out one at a time, so
    /// extra workers overlap independent batch forwards.
    pub workers: usize,
    /// Ingress admission control: queue bound, overload policy,
    /// per-client fairness, default latency budget.
    pub admission: AdmissionConfig,
    /// Self-tuning admission: when set, an [`AdaptiveController`]
    /// derives the queue capacity and default deadline budget live from
    /// an EWMA of observed batch service time, replacing the static
    /// [`AdmissionConfig::capacity`] / `default_deadline` once it has
    /// observations (and re-planning on snapshot/epoch swap). `None`
    /// (the default) keeps admission fully static.
    pub adaptive: Option<AdaptiveConfig>,
    /// Seed-level logit cache; `None` (the default) disables caching and
    /// serves every batch through the engine.
    pub cache: Option<CacheConfig>,
    /// Observability: stage histograms, kernel counters, trace sampling.
    /// Enabled by default with tracing off (the always-on metrics cost a
    /// few atomics per batch); [`TelemetryConfig::off`] removes even
    /// that.
    pub telemetry: TelemetryConfig,
    /// Incident-aware observability: declarative serving objectives
    /// evaluated by a monitor thread with multi-window burn-rate
    /// alerting, wired to the flight recorder (a breach triggers an
    /// incident bundle) and back into the adaptive admission
    /// controller. `None` (the default)
    /// spawns no monitor thread; setting it forces telemetry on (the
    /// SLO gauges and incident evidence live in its registry and clock).
    pub slo: Option<SloConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: Duration::from_millis(2),
            max_batch: 64,
            workers: 2,
            admission: AdmissionConfig::default(),
            adaptive: None,
            cache: None,
            telemetry: TelemetryConfig::default(),
            slo: None,
        }
    }
}

/// Per-query submission options: who is asking and how long the answer
/// is worth waiting for.
///
/// Non-exhaustive so future fields (priority class, cache bypass) stay
/// non-breaking: construct via [`QueryOptions::new`] /
/// [`QueryOptions::default`] and the builder methods.
///
/// # Examples
///
/// ```
/// use maxk_serve::QueryOptions;
/// use std::time::Duration;
///
/// let opts = QueryOptions::new()
///     .for_client(7)
///     .with_deadline(Duration::from_millis(50));
/// assert_eq!(opts.client, 7);
/// assert_eq!(opts.deadline, Some(Duration::from_millis(50)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct QueryOptions {
    /// Client identity for fairness and per-client accounting
    /// ([`StatsSnapshot::clients`]). Defaults to 0.
    pub client: u64,
    /// Latency budget for this query; overrides
    /// [`AdmissionConfig::default_deadline`]. Only *enforced* (blown
    /// queries shed pre-forward) under
    /// [`crate::admission::OverloadPolicy::DeadlineShed`], but always
    /// counted toward [`StatsSnapshot::deadline_misses`].
    pub deadline: Option<Duration>,
    /// Traffic class for weighted shaping, an index into the server's
    /// [`ClassWeights`] (see [`ServerBuilder::classes`]). Defaults to 0
    /// — the first configured class, or plain untagged traffic when no
    /// classes are configured.
    pub class: u32,
}

impl QueryOptions {
    /// Default options: client 0, class 0, no per-query deadline.
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Sets the client identity.
    #[must_use]
    pub fn for_client(mut self, client: u64) -> Self {
        self.client = client;
        self
    }

    /// Sets the per-query latency budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the traffic class (an index into the server's configured
    /// [`ClassWeights`]).
    #[must_use]
    pub fn in_class(mut self, class: u32) -> Self {
        self.class = class;
        self
    }
}

/// The logits-bearing payload of an answered query.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Logit rows for the requested seeds, in request order
    /// (`seeds.len() × out_dim`).
    pub logits: Matrix,
    /// How many queries shared this forward pass (1 for a cache-answered
    /// query that never joined a batch).
    pub batch_size: usize,
    /// Queue + compute latency observed by the server.
    pub latency: Duration,
    /// Whether at least one shard serving this batch ran the
    /// seed-restricted partial forward (for an unsharded engine: whether
    /// the batch's one forward was partial; always `false` for a
    /// cache-answered query, which ran no forward).
    pub partial: bool,
    /// The weight set that computed these logits — the identity callers
    /// key caches and staleness decisions on across hot reloads.
    pub generation: SnapshotGeneration,
    /// The graph operand these logits were computed over.
    pub graph_version: GraphVersion,
    /// The mutation epoch these logits were computed against — always 0
    /// for frozen-graph engines; for a [`crate::DynamicEngine`] it is
    /// the staleness bound: an answer at epoch `e` reflects every
    /// mutation batch up to `e` and none after.
    pub epoch: u64,
    /// True when every requested row came from the logit cache (resident
    /// or another batch's in-flight computation) — this query triggered
    /// no forward work of its own.
    pub cached: bool,
}

/// What happened to one submitted query: answered with logits, or turned
/// away by the admission layer. Overload is an *outcome*, not an error —
/// callers always learn which, instead of hanging on an unbounded queue.
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// The query was admitted, batched and answered.
    Answered(QueryAnswer),
    /// The admission layer turned the query away at the door (it never
    /// occupied queue space).
    Rejected(RejectReason),
    /// The query was admitted but dropped before a forward pass —
    /// evicted under overload or its deadline blew in queue.
    Shed(ShedReason),
}

impl QueryResponse {
    /// The answer, if the query was served.
    pub fn answer(&self) -> Option<&QueryAnswer> {
        match self {
            QueryResponse::Answered(a) => Some(a),
            _ => None,
        }
    }

    /// Consumes the response, yielding the answer if served.
    pub fn into_answer(self) -> Option<QueryAnswer> {
        match self {
            QueryResponse::Answered(a) => Some(a),
            _ => None,
        }
    }

    /// True when the query was answered with logits.
    pub fn is_answered(&self) -> bool {
        matches!(self, QueryResponse::Answered(_))
    }
}

struct Request {
    seeds: Vec<u32>,
    reply: exec::Sender<Result<QueryResponse, ServeError>>,
    /// Sampled-query trace, carried through the pipeline and folded into
    /// spans at reply time (`None` for unsampled queries — the common
    /// case, which never touches the trace ring).
    trace: Option<Box<crate::telemetry::TraceContext>>,
}

/// One batched query plus its per-seed cache probe results (aligned with
/// `entry.payload.seeds`; empty when caching is disabled). Probing
/// happens in the batcher so hit rows are pinned before batch assembly
/// and a fully-hot query never occupies a batch slot.
struct BatchItem {
    entry: Entry<Request>,
    /// When the batcher popped this query — the instant splitting
    /// queue-wait from batch-wait in the stage histograms.
    dequeued: Instant,
    hits: Vec<Option<Arc<[f32]>>>,
}

impl BatchItem {
    /// The resident row the batcher's probe pinned for seed position
    /// `i`, if any (never, without a cache).
    fn hit(&self, i: usize) -> Option<&Arc<[f32]>> {
        self.hits.get(i).and_then(Option::as_ref)
    }
}

/// Sends the shed notification for entries the admission layer dropped.
fn notify_shed(entries: impl IntoIterator<Item = (Entry<Request>, ShedReason)>) {
    for (entry, reason) in entries {
        // A client that gave up is not an error.
        let _ = entry.payload.reply.send(Ok(QueryResponse::Shed(reason)));
    }
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Aggregate serving counters, shared between workers and observers.
#[derive(Debug)]
struct Counters {
    queries: AtomicU64,
    batches: AtomicU64,
    partial_batches: AtomicU64,
    /// Queries answered entirely from the cache (no forward of their
    /// own): the batcher's inline answers plus worker-side queries whose
    /// every row came from residency or another batch's computation.
    cached_queries: AtomicU64,
    /// Of `cached_queries`, those answered inline by the batcher (they
    /// never joined a batch — excluded from mean batch occupancy).
    inline_queries: AtomicU64,
    /// Queries answered *after* their deadline had already passed (the
    /// shed-side misses are counted by the admission queue).
    late_answers: AtomicU64,
    /// Batches each shard participated in (length = engine shard count).
    shard_batches: Vec<AtomicU64>,
    /// Of those, how many the shard served via the partial path.
    shard_partial_batches: Vec<AtomicU64>,
}

impl Counters {
    fn new(num_shards: usize) -> Self {
        Counters {
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            partial_batches: AtomicU64::new(0),
            cached_queries: AtomicU64::new(0),
            inline_queries: AtomicU64::new(0),
            late_answers: AtomicU64::new(0),
            shard_batches: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            shard_partial_batches: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn count_forward(&self, outcome: &crate::engine::BatchOutcome) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if outcome.any_partial() {
            self.partial_batches.fetch_add(1, Ordering::Relaxed);
        }
        for &(s, shard_partial) in &outcome.shards {
            self.shard_batches[s].fetch_add(1, Ordering::Relaxed);
            if shard_partial {
                self.shard_partial_batches[s].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Point-in-time statistics read-out of a running [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Queries answered so far.
    pub queries: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Batches where at least one participating shard ran the
    /// seed-restricted partial forward (for an unsharded engine this is
    /// exactly the partial-batch count).
    pub partial_batches: u64,
    /// Of `queries`, those answered entirely from the logit cache —
    /// no forward work of their own (see [`QueryAnswer::cached`]).
    pub cached_queries: u64,
    /// Queries offered to admission (excluding invalid ones rejected
    /// client-side before submission).
    pub submitted: u64,
    /// Queries that entered (and stayed in) the admitted pipeline:
    /// `submitted - rejected - shed` — answered, still queued, or
    /// mid-flight (popped into the batcher's open batch, the bounded
    /// batch channel, or a worker's in-progress forward; up to
    /// `max_batch x (workers + 2)` queries sit there on a loaded
    /// server). The identity `admitted == queries + queue_depth` only
    /// holds once that pipeline has drained.
    pub admitted: u64,
    /// Queries turned away at the door (queue full / rate limited).
    pub rejected: u64,
    /// Admitted queries dropped before a forward (evicted or
    /// deadline-blown).
    pub shed: u64,
    /// Queries that missed their latency budget: shed with a blown
    /// deadline, plus answered after the deadline had passed.
    pub deadline_misses: u64,
    /// Current ingress queue depth.
    pub queue_depth: u64,
    /// Peak ingress queue depth since the server started.
    pub queue_depth_peak: u64,
    /// Per-client accounting (admission + serving), sorted by client id.
    pub clients: Vec<ClientStats>,
    /// Aggregate of per-client states evicted past the tracking bound
    /// (merged exactly once per accounting epoch, so
    /// `Σ clients + evicted_clients` reconciles with the global books).
    pub evicted_clients: EvictedClientStats,
    /// Per shard: batches the shard participated in (one entry per shard;
    /// a single unsharded engine reports one entry equal to `batches`).
    pub shard_batches: Vec<u64>,
    /// Per shard: batches the shard served via the partial path.
    pub shard_partial_batches: Vec<u64>,
    /// Logit-cache counters, when caching is enabled. Per answered seed
    /// instance exactly one of hits/misses/coalesced is counted, so
    /// `hits + misses + coalesced` equals the answered seed instances.
    pub cache: Option<CacheSnapshot>,
    /// Mean queries per executed batch (1.0 means batching bought
    /// nothing). Cache-answered queries that never joined a batch are
    /// excluded, so this stays a read-out of coalescing, not of caching.
    pub mean_batch: f64,
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Served queries per second since start.
    pub throughput_qps: f64,
    /// Server-side latency distribution (enqueue → reply).
    pub latency: LatencySummary,
    /// Per-stage wait/service split of the same answered queries
    /// (queue-wait vs batch-wait vs service), when telemetry is enabled.
    /// Each stage histogram's count equals `queries`, and per query the
    /// three stage durations sum to its end-to-end latency up to
    /// microsecond truncation.
    pub stages: Option<StageBreakdown>,
    /// The adaptive controller's live state (service-time EWMA, derived
    /// capacity/deadline, re-plans) when [`ServeConfig::adaptive`] is
    /// set.
    pub adaptive: Option<AdaptiveSnapshot>,
    /// Per-class admission accounting when weighted classes are
    /// configured (empty otherwise). Per class
    /// `submitted == popped + rejected + shed + queued` exactly.
    pub classes: Vec<ClassStats>,
    /// Per-objective SLO status as of the last monitor evaluation
    /// (empty when no objectives are configured).
    pub slo: Vec<SloStatus>,
    /// Flight-recorder incident bundles finalized so far.
    pub incidents: u64,
}

/// Static identity of a running server, exported once per scrape as the
/// `maxk_serve_build_info` gauge (value 1; the labels carry the
/// information) — the standard shape dashboards join against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildInfo {
    /// Serving crate version (`CARGO_PKG_VERSION`).
    pub version: &'static str,
    /// Engine shard count.
    pub shards: usize,
    /// Configured overload policy label.
    pub policy: &'static str,
    /// Forward-executor threads.
    pub workers: usize,
}

/// The serving configuration as a JSON object, rendered once at spawn
/// and embedded in every incident bundle — a dump stays interpretable
/// without the process that wrote it.
fn render_config_json(cfg: &ServeConfig) -> String {
    let mut o = JsonObj::new();
    o.num("batch_window_us", cfg.batch_window.as_micros())
        .num("max_batch", cfg.max_batch)
        .num("workers", cfg.workers)
        .num("admission_capacity", cfg.admission.capacity)
        .str("overload_policy", cfg.admission.policy.label())
        .bool("adaptive", cfg.adaptive.is_some())
        .num("cache_rows", cfg.cache.map_or(0, |c| c.capacity))
        .bool("telemetry", cfg.telemetry.enabled)
        .num("slos", cfg.slo.map_or(0, |s| s.specs.len()));
    o.render()
}

/// The breach context embedded in an incident bundle: every objective's
/// state and burn rates at trigger time.
fn breach_context(hub: &SloHub) -> String {
    let mut o = JsonObj::new();
    o.raw(
        "slos",
        json_array(hub.statuses().iter().map(|s| {
            let mut s_obj = JsonObj::new();
            s_obj
                .str("slo", s.name)
                .str("kind", s.kind)
                .str("state", s.state.label())
                .float("fast_burn", s.fast_burn)
                .float("slow_burn", s.slow_burn)
                .num("breaches", s.breaches);
            s_obj.render()
        })),
    );
    o.render()
}

/// Builder for a [`Server`]: one place for every serving knob — batching,
/// admission control, fairness and the logit cache — instead of nested
/// config-struct literals.
///
/// # Examples
///
/// ```
/// use maxk_serve::{InferenceEngine, OverloadPolicy, Server};
/// use maxk_nn::snapshot::ModelSnapshot;
/// use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
/// use maxk_graph::generate;
/// use maxk_tensor::Matrix;
/// use rand::SeedableRng;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let graph = generate::chung_lu_power_law(40, 5.0, 2.3, 1).to_csr().unwrap();
/// let mut cfg = ModelConfig::new(Arch::Gcn, Activation::Relu, 6, 2);
/// cfg.hidden_dim = 8;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = GnnModel::new(cfg, &graph, &mut rng);
/// let engine = Arc::new(
///     InferenceEngine::from_snapshot(
///         &ModelSnapshot::capture(&model),
///         &graph,
///         Matrix::xavier(40, 6, &mut rng),
///     )
///     .unwrap(),
/// );
///
/// let server = Server::builder()
///     .batch_window(Duration::from_millis(5))
///     .max_batch(32)
///     .workers(2)
///     .admission_capacity(256)
///     .overload_policy(OverloadPolicy::Block)
///     .cache_capacity(1024) // enable the seed-level logit cache
///     .start(engine);
///
/// let answer = server.handle().query(&[0, 5]).unwrap().into_answer().unwrap();
/// assert_eq!(answer.logits.shape(), (2, 2));
/// // Repeats of a hot seed are served from the cache:
/// let again = server.handle().query(&[0, 5]).unwrap().into_answer().unwrap();
/// assert!(again.cached);
/// assert_eq!(again.logits, answer.logits);
/// assert_eq!(again.generation, answer.generation);
/// let stats = server.shutdown();
/// assert_eq!(stats.queries, 2);
/// assert_eq!(stats.cached_queries, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    cfg: ServeConfig,
    /// Incident-bundle output directory (non-`Copy`, so it lives here
    /// rather than in [`ServeConfig`]).
    sink: Option<PathBuf>,
}

impl ServerBuilder {
    /// How long the batcher keeps a batch open after its first query.
    #[must_use]
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.cfg.batch_window = window;
        self
    }

    /// Hard cap on queries per batch (1 = unbatched baseline).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.cfg.max_batch = max_batch;
        self
    }

    /// Forward-executor threads.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Replaces the whole admission configuration.
    #[must_use]
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Bound on queued (admitted but unbatched) queries.
    #[must_use]
    pub fn admission_capacity(mut self, capacity: usize) -> Self {
        self.cfg.admission.capacity = capacity;
        self
    }

    /// What happens when a query arrives and the queue is full.
    #[must_use]
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.cfg.admission.policy = policy;
        self
    }

    /// Per-client token-bucket fairness.
    #[must_use]
    pub fn fairness(mut self, fairness: FairnessConfig) -> Self {
        self.cfg.admission.fairness = Some(fairness);
        self
    }

    /// Latency budget applied to queries without their own deadline.
    #[must_use]
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.cfg.admission.default_deadline = Some(deadline);
        self
    }

    /// Enables self-tuning admission: queue capacity and deadline
    /// budgets derive live from the observed batch service time instead
    /// of the static `admission_capacity` / `default_deadline` knobs
    /// (which still govern until the first batch is observed).
    #[must_use]
    pub fn adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.cfg.adaptive = Some(adaptive);
        self
    }

    /// Enables self-tuning admission with default controller settings
    /// (shorthand for [`ServerBuilder::adaptive`]).
    #[must_use]
    pub fn adaptive_admission(self) -> Self {
        self.adaptive(AdaptiveConfig::default())
    }

    /// Enables weighted per-class traffic shaping (e.g. paid/internal/
    /// batch), layered over per-client fairness: under overload each
    /// class's admitted share tracks its weight, and no configured
    /// class starves. Queries pick their class via
    /// [`QueryOptions::in_class`].
    #[must_use]
    pub fn classes(mut self, classes: ClassWeights) -> Self {
        self.cfg.admission.classes = Some(classes);
        self
    }

    /// Enables the seed-level logit cache with the given configuration.
    #[must_use]
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cfg.cache = Some(cache);
        self
    }

    /// Enables the seed-level logit cache bounded to `rows` resident
    /// rows (shorthand for [`ServerBuilder::cache`]).
    #[must_use]
    pub fn cache_capacity(self, rows: usize) -> Self {
        self.cache(CacheConfig { capacity: rows })
    }

    /// Replaces the whole telemetry configuration (use
    /// [`TelemetryConfig::off`] for the zero-overhead baseline).
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Sets the fraction of queries that carry a full stage trace
    /// (spans in the trace ring; see [`TelemetryConfig::sampling`]).
    #[must_use]
    pub fn trace_sampling(mut self, rate: f64) -> Self {
        self.cfg.telemetry.sampling = rate;
        self
    }

    /// Declares the serving objectives: a monitor thread evaluates them
    /// every [`SloConfig::tick`] with multi-window burn-rate alerting,
    /// and a breach triggers a flight-recorder incident bundle. Forces
    /// telemetry on (the SLO gauges live in its registry).
    #[must_use]
    pub fn slo(mut self, slo: SloConfig) -> Self {
        self.cfg.slo = Some(slo);
        self
    }

    /// Shorthand for the serving default objectives: latency under
    /// `budget` plus availability, both with a 5% error budget (see
    /// [`SloConfig::with_latency_budget`]).
    #[must_use]
    pub fn slo_latency(self, budget: Duration) -> Self {
        self.slo(SloConfig::with_latency_budget(budget))
    }

    /// Directory triggered incident bundles are written to (created on
    /// first write). Without one, bundles are kept in memory only
    /// ([`Server::incidents`]).
    #[must_use]
    pub fn incident_sink(mut self, dir: impl Into<PathBuf>) -> Self {
        self.sink = Some(dir.into());
        self
    }

    /// Starts the server over `engine` — the single
    /// [`crate::InferenceEngine`] or the sharded
    /// [`crate::ShardedEngine`] router, anything implementing
    /// [`BatchEngine`].
    pub fn start<E: BatchEngine + 'static>(self, engine: Arc<E>) -> Server {
        Server::spawn(engine, self.cfg, self.sink)
    }
}

/// A running micro-batched inference server.
///
/// Dropping (or [`Server::shutdown`]) closes the ingress, flushes
/// in-flight batches and joins every thread.
///
/// # Examples
///
/// ```
/// use maxk_serve::{InferenceEngine, Server};
/// use maxk_nn::snapshot::ModelSnapshot;
/// use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
/// use maxk_graph::generate;
/// use maxk_tensor::Matrix;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let graph = generate::chung_lu_power_law(40, 5.0, 2.3, 1).to_csr().unwrap();
/// let mut cfg = ModelConfig::new(Arch::Gcn, Activation::Relu, 6, 2);
/// cfg.hidden_dim = 8;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = GnnModel::new(cfg, &graph, &mut rng);
/// let engine = Arc::new(
///     InferenceEngine::from_snapshot(
///         &ModelSnapshot::capture(&model),
///         &graph,
///         Matrix::xavier(40, 6, &mut rng),
///     )
///     .unwrap(),
/// );
///
/// let server = Server::builder().start(engine);
/// let answer = server.handle().query(&[0, 5]).unwrap().into_answer().unwrap();
/// assert_eq!(answer.logits.shape(), (2, 2));
/// let stats = server.shutdown();
/// assert_eq!(stats.queries, 1);
/// ```
pub struct Server {
    shared: Arc<Shared>,
    /// Joins the batcher stage, then the worker stage, then the SLO
    /// monitor, in that order — the executor-level encoding of the
    /// shutdown protocol (see [`Server::join_threads`]'s body).
    barrier: ShutdownBarrier,
}

/// Everything the pipeline stages, the client handles and the read side
/// ([`StatsSource`]) share, behind one `Arc`.
struct Shared {
    engine: Arc<dyn BatchEngine>,
    queue: AdmissionQueue<Request>,
    counters: Counters,
    hist: Mutex<LatencyHistogram>,
    cache: Option<Arc<LogitCache>>,
    telemetry: Option<Arc<Telemetry>>,
    slo: Option<Arc<SloHub>>,
    recorder: Option<Arc<FlightRecorder>>,
    /// Stops the SLO monitor stage at shutdown (unused when no monitor
    /// was spawned).
    monitor_stop: AtomicBool,
    build: BuildInfo,
    started: Instant,
}

impl Server {
    /// The entry point for configuring and starting a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            cfg: ServeConfig::default(),
            sink: None,
        }
    }

    fn spawn<E: BatchEngine + 'static>(
        engine: Arc<E>,
        cfg: ServeConfig,
        sink: Option<PathBuf>,
    ) -> Server {
        let adaptive = cfg.adaptive.map(|a| {
            Arc::new(AdaptiveController::new(
                a,
                cfg.max_batch.max(1),
                cfg.workers.max(1),
            ))
        });
        let cache = cfg.cache.map(|c| Arc::new(LogitCache::new(c)));
        // A mutable engine invalidates its dirty cones straight into the
        // server's cache; frozen engines ignore the hook.
        if let Some(c) = &cache {
            engine.bind_cache(c);
        }
        // SLO monitoring needs the registry, trace ring and clock even
        // when the caller left telemetry off, so objectives force it on.
        let telemetry = (cfg.telemetry.enabled || cfg.slo.is_some())
            .then(|| Arc::new(Telemetry::new(cfg.telemetry)));
        // The flight recorder rides along whenever telemetry exists: the
        // always-on ring costs one atomic + one short slot write per
        // coarse event, and an engine-side epoch swap records into it
        // through `bind_recorder` even without configured SLOs.
        let recorder = telemetry.as_ref().map(|tel| {
            Arc::new(FlightRecorder::new(
                cfg.slo.map(|s| s.recorder).unwrap_or_default(),
                Arc::clone(tel),
                render_config_json(&cfg),
                sink,
            ))
        });
        if let Some(rec) = &recorder {
            engine.bind_recorder(rec);
        }
        let slo = match (&cfg.slo, &telemetry) {
            (Some(s), Some(tel)) => Some(Arc::new(SloHub::new(*s, Arc::clone(tel)))),
            _ => None,
        };
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::with_controller(cfg.admission, adaptive),
            counters: Counters::new(engine.num_shards()),
            hist: Mutex::new(LatencyHistogram::new()),
            cache,
            telemetry,
            slo,
            recorder,
            monitor_stop: AtomicBool::new(false),
            build: BuildInfo {
                version: env!("CARGO_PKG_VERSION"),
                shards: engine.num_shards(),
                policy: cfg.admission.policy.label(),
                workers: cfg.workers.max(1),
            },
            started: Instant::now(),
            engine,
        });
        // The batch channel is bounded (one ready batch beyond what the
        // workers hold): otherwise the batcher would eagerly drain the
        // bounded admission queue into an unbounded backlog here, and
        // overload would hide downstream where no policy can act on it.
        // With the bound, busy workers stall the batcher, the admission
        // queue fills, and rejection/shedding happen where they belong.
        let executor = StdThreadExecutor;
        let (batch_tx, batch_rx) = executor.bounded::<Vec<BatchItem>>(1);
        let batch_rx = Arc::new(Mutex::new(batch_rx));

        // Stage order is the shutdown protocol: the batcher exits first
        // (dropping `batch_tx`), which disconnects the workers' recv;
        // the monitor joins last so every answer is observed before the
        // final evaluate/finalize.
        let mut barrier = ShutdownBarrier::new();
        let batcher = Batcher {
            shared: Arc::clone(&shared),
            batch_tx,
            max_batch: cfg.max_batch.max(1),
            window: cfg.batch_window,
        };
        let batcher = executor.spawn_worker("maxk-batcher", move || batcher.run());
        barrier.add_stage("batcher", vec![batcher]);
        let workers = (0..cfg.workers.max(1))
            .map(|w| {
                let worker = ForwardWorker {
                    shared: Arc::clone(&shared),
                    batch_rx: Arc::clone(&batch_rx),
                };
                executor.spawn_worker(&format!("maxk-worker-{w}"), move || worker.run())
            })
            .collect();
        barrier.add_stage("workers", workers);
        if shared.slo.is_some() {
            let monitor = SloMonitor {
                shared: Arc::clone(&shared),
            };
            let monitor = executor.spawn_worker("maxk-slo", move || monitor.run());
            barrier.add_stage("slo-monitor", vec![monitor]);
        }
        Server { shared, barrier }
    }

    /// A cloneable client handle for submitting queries.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current counters and latency distribution.
    pub fn stats(&self) -> StatsSnapshot {
        self.metrics_source().snapshot()
    }

    /// The server's telemetry hub, when enabled: the metrics registry,
    /// the span ring ([`Telemetry::spans`] / [`Telemetry::chrome_trace`])
    /// and the stage histograms.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.shared.telemetry.as_ref()
    }

    /// The SLO engine, when objectives are configured
    /// ([`ServerBuilder::slo`]).
    pub fn slo(&self) -> Option<&Arc<SloHub>> {
        self.shared.slo.as_ref()
    }

    /// The always-on flight recorder (present whenever telemetry is —
    /// which includes any server with configured SLOs).
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.recorder.as_ref()
    }

    /// Every incident bundle finalized so far (also written to the
    /// [`ServerBuilder::incident_sink`] directory, when one is set).
    pub fn incidents(&self) -> Vec<IncidentReport> {
        self.shared
            .recorder
            .as_ref()
            .map_or_else(Vec::new, |r| r.incidents())
    }

    /// A cloneable read-side of this server: stats snapshots plus the
    /// Prometheus and JSON exports, detached from the server's lifetime
    /// (safe to hand to a scrape thread).
    pub fn metrics_source(&self) -> StatsSource {
        StatsSource {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Starts the Prometheus/JSON scrape endpoint on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port): `GET /metrics` answers
    /// Prometheus text format, `GET /metrics.json` the JSON dump. The
    /// endpoint reads through [`Server::metrics_source`], so its series
    /// agree exactly with [`Server::stats`] taken at the same quiescent
    /// moment. Returns the exporter handle; dropping it stops the
    /// endpoint.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the listener cannot bind `addr`.
    pub fn serve_metrics(&self, addr: impl ToSocketAddrs) -> io::Result<MetricsExporter> {
        serve_scrape(self.metrics_source(), addr)
    }

    /// Stops accepting queries, drains in-flight batches, joins every
    /// thread and returns the final statistics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.join_threads();
        self.stats()
    }

    fn join_threads(&mut self) {
        // Closing the admission queue stops new submissions and wakes
        // blocked submitters; the batcher drains what was already
        // admitted, then exits, dropping its batch sender, which
        // unblocks the workers — the barrier joins the stages in
        // exactly that order (idempotent, so Drop after shutdown is a
        // no-op). The monitor stop flag lands first so its stage (the
        // last one) exits within a tick and force-finalizes any open
        // incident on the way out.
        self.shared.monitor_stop.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        self.barrier.join_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// What one pop of the admission queue came to, once its shed entries
/// were notified and a fully-hot entry was answered inline.
enum Popped {
    /// A query that needs a batch slot.
    Item(BatchItem),
    /// A query was popped and answered inline from the cache.
    Inline,
    /// Nothing arrived before the wait deadline (or the pop only found
    /// deadline-blown entries to shed).
    Empty,
    /// The queue is closed and drained.
    Closed,
}

/// The batcher stage: pops admitted queries, answers fully-hot ones
/// inline from the cache, and coalesces the rest into batches for the
/// workers — within `window` of a batch's first query, up to `max_batch`.
struct Batcher {
    shared: Arc<Shared>,
    batch_tx: exec::Sender<Vec<BatchItem>>,
    max_batch: usize,
    window: Duration,
}

impl Batcher {
    fn run(self) {
        loop {
            // Block for the batch's first query; fully-hot entries are
            // answered on the way without opening a batch window.
            let first = loop {
                match self.pop(None) {
                    Popped::Item(item) => break item,
                    Popped::Closed => return,
                    Popped::Inline | Popped::Empty => {}
                }
            };
            let mut batch = vec![first];
            let mut stop = false;
            let deadline = Instant::now() + self.window;
            while batch.len() < self.max_batch {
                match self.pop(Some(deadline)) {
                    Popped::Item(item) => batch.push(item),
                    Popped::Closed => {
                        stop = true;
                        break;
                    }
                    // `pop` also returns item-less early when it only
                    // found deadline-blown entries to shed — that is
                    // not window expiry, so keep collecting (exactly
                    // under shedding overload is when batches must
                    // not collapse to singletons).
                    Popped::Empty if Instant::now() >= deadline => break,
                    Popped::Inline | Popped::Empty => {}
                }
            }
            if let Some(rec) = &self.shared.recorder {
                let seeds: usize = batch
                    .iter()
                    .map(|item| item.entry.payload.seeds.len())
                    .sum();
                rec.record(EventKind::BatchFormed, batch.len() as u64, seeds as u64);
            }
            // Flush the in-flight batch even when shutting down.
            if self.batch_tx.send(batch).is_err() || stop {
                return;
            }
        }
    }

    /// One pop of the admission queue. Deadline-blown entries
    /// encountered on the way are shed (they never cost a forward).
    fn pop(&self, wait_until: Option<Instant>) -> Popped {
        let popped = self.shared.queue.pop(wait_until);
        notify_shed(
            popped
                .shed
                .into_iter()
                .map(|e| (e, ShedReason::DeadlineBlown)),
        );
        match popped.item {
            Some(entry) => self.prepare(entry).map_or(Popped::Inline, Popped::Item),
            None if popped.closed => Popped::Closed,
            None => Popped::Empty,
        }
    }

    /// Probes a popped entry against the cache. A fully-hot entry is
    /// answered inline — batch size 1, no forward, never occupies a
    /// batch slot — and `None` is returned; otherwise the entry is
    /// wrapped with its pinned hit rows. Every probe hit is counted by
    /// the cache, which is sound because popped entries are always
    /// answered (shedding happens inside `pop`, before the probe).
    fn prepare(&self, mut entry: Entry<Request>) -> Option<BatchItem> {
        // Sampled per entry, not once at spawn: a mutable engine
        // advances its identity (epoch, and under version-bumping its
        // GraphVersion) while the server runs, and probes must key
        // against the identity being served *now*.
        let engine = &self.shared.engine;
        let (generation, graph_version, epoch) =
            (engine.generation(), engine.graph_version(), engine.epoch());
        let dequeued = Instant::now();
        if let Some(trace) = entry.payload.trace.as_mut() {
            trace.mark_at(Stage::Dequeue, dequeued);
        }
        let mut hits = Vec::new();
        if let Some(cache) = &self.shared.cache {
            let seeds = entry.payload.seeds.iter();
            hits.extend(seeds.map(|&s| cache.probe(generation, graph_version, s)));
            if let Some(trace) = entry.payload.trace.as_mut() {
                trace.mark(Stage::CacheProbe);
            }
        }
        let mut item = BatchItem {
            entry,
            dequeued,
            hits,
        };
        // Seed sets are never empty, so no hits means no cache.
        if item.hits.is_empty() || item.hits.iter().any(Option::is_none) {
            if let Some(trace) = item.entry.payload.trace.as_mut() {
                trace.mark(Stage::BatchAssembled);
            }
            return Some(item);
        }
        let seeds = item.entry.payload.seeds.len();
        let mut logits = Matrix::zeros(seeds, engine.out_dim());
        for (i, hit) in item.hits.iter().enumerate() {
            logits
                .row_mut(i)
                .copy_from_slice(hit.as_ref().expect("fully-hot entry"));
        }
        if let Some(rec) = &self.shared.recorder {
            rec.record(EventKind::InlineAnswer, seeds as u64, 0);
        }
        // An inline answer reflects the identity sampled at the top of
        // this probe; the engine may already be ahead.
        let labels = Delivery {
            batch_size: 1,
            partial: false,
            generation,
            graph_version,
            epoch,
            fwd_start: None,
        };
        deliver(&self.shared, labels, [(item, (logits, true))]);
        None
    }
}

/// A forward-worker stage: takes one batch at a time off the batch
/// channel, resolves it ([`run_batch`]) and replies ([`deliver`]).
struct ForwardWorker {
    shared: Arc<Shared>,
    batch_rx: Arc<Mutex<exec::Receiver<Vec<BatchItem>>>>,
}

impl ForwardWorker {
    fn run(self) {
        let (engine, shared) = (self.shared.engine.as_ref(), self.shared.as_ref());
        loop {
            // The guard is held across the blocking recv: waiting
            // workers queue on the mutex, so batches are handed out one
            // at a time while compute overlaps.
            let batch = match self.batch_rx.lock().expect("batch queue poisoned").recv() {
                Ok(b) => b,
                Err(_) => break,
            };
            let telemetry = shared.telemetry.as_deref();
            let obs = telemetry.map(|t| (t, t.next_batch_id()));
            // Sampled per batch (see the batcher's per-entry note): the
            // whole batch is answered by one engine state, so one
            // sample before the forward labels and cache-keys it
            // consistently.
            let generation = engine.generation();
            let graph_version = engine.graph_version();
            let epoch = engine.epoch();
            // The forward-start instant splits batch-wait from service
            // in the stage histograms.
            let fwd_start = Instant::now();
            let (answers, partial, forwarded) =
                run_batch(shared, (generation, graph_version), &batch, obs);
            // Feed the adaptive controller only batches that ran a
            // forward: an all-cache-resolved batch says nothing about
            // engine service time and would drag the EWMA toward zero,
            // collapsing the derived budgets.
            if let (true, Some(ctrl)) = (forwarded, shared.queue.adaptive()) {
                ctrl.observe_batch(fwd_start.elapsed(), epoch);
            }
            let labels = Delivery {
                batch_size: batch.len(),
                partial,
                generation,
                graph_version,
                epoch,
                fwd_start: Some(fwd_start),
            };
            deliver(shared, labels, batch.into_iter().zip(answers));
        }
    }
}

/// What every answer of one [`deliver`] call has in common.
struct Delivery {
    /// Queries that shared the forward (1 for an inline answer).
    batch_size: usize,
    partial: bool,
    generation: SnapshotGeneration,
    graph_version: GraphVersion,
    epoch: u64,
    /// When the batch's forward started; `None` for an inline answer,
    /// which joined no batch and ran no forward.
    fwd_start: Option<Instant>,
}

/// The one reply path, shared by the batcher's inline cache answers and
/// the workers' batched ones: per answered query it counts a late
/// answer, splits the latency into stages, finishes a sampled trace and
/// builds the [`QueryAnswer`]; then it records the books (counters,
/// stage and latency histograms, SLO feed, per-client accounting)
/// *before* sending — once a client holds its answer, every book already
/// includes it.
fn deliver(
    shared: &Shared,
    labels: Delivery,
    answers: impl IntoIterator<Item = (BatchItem, (Matrix, bool))>,
) {
    let now = Instant::now();
    let telemetry = shared.telemetry.as_deref();
    let mut replies = Vec::with_capacity(labels.batch_size);
    let mut stage_rows: Vec<[u64; 4]> = Vec::new();
    let (mut late, mut cached_queries) = (0u64, 0u64);
    for (item, (logits, cached)) in answers {
        let (mut entry, dequeued) = (item.entry, item.dequeued);
        let latency = now.saturating_duration_since(entry.enqueued);
        late += u64::from(entry.deadline.is_some_and(|d| now >= d));
        cached_queries += u64::from(cached);
        if let Some(tel) = telemetry {
            // queue-wait, batch-wait, service and e2e all derive from
            // the same four instants, so per query the three stages sum
            // to the e2e latency up to µs truncation. An inline answer
            // waited for no batch: its batch-wait is zero and its
            // service is the cache-row assembly since the pop.
            let fwd_start = labels.fwd_start.unwrap_or(dequeued);
            stage_rows.push([
                duration_us(dequeued.saturating_duration_since(entry.enqueued)),
                duration_us(fwd_start.saturating_duration_since(dequeued)),
                duration_us(now.saturating_duration_since(fwd_start)),
                duration_us(latency),
            ]);
            if let Some(mut trace) = entry.payload.trace.take() {
                if let Some(fwd_start) = labels.fwd_start {
                    trace.mark_at(Stage::Forward, fwd_start);
                    trace.mark_at(Stage::Gather, now);
                }
                trace.mark(Stage::Reply);
                tel.finish_trace(&trace);
            }
        }
        let answer = QueryAnswer {
            logits,
            batch_size: labels.batch_size,
            latency,
            partial: labels.partial,
            generation: labels.generation,
            graph_version: labels.graph_version,
            epoch: labels.epoch,
            cached,
        };
        replies.push((entry.client, entry.payload.reply, answer));
    }
    let outcomes = || {
        replies
            .iter()
            .map(|(client, _, answer)| (*client, duration_us(answer.latency)))
    };
    let answered = replies.len() as u64;
    let counters = &shared.counters;
    counters.queries.fetch_add(answered, Ordering::Relaxed);
    counters
        .cached_queries
        .fetch_add(cached_queries, Ordering::Relaxed);
    counters.late_answers.fetch_add(late, Ordering::Relaxed);
    if labels.fwd_start.is_none() {
        counters
            .inline_queries
            .fetch_add(answered, Ordering::Relaxed);
    }
    if let Some(tel) = telemetry {
        tel.record_stage_rows(&stage_rows);
        if let Some(hub) = &shared.slo {
            // Every answer here carries the same staleness: the gap
            // between the epoch it was computed against and the
            // engine's current one.
            let epoch_lag = shared.engine.epoch().saturating_sub(labels.epoch);
            let rows: Vec<AnswerObs> = outcomes()
                .map(|(_, latency_us)| AnswerObs {
                    latency_us,
                    epoch_lag,
                })
                .collect();
            hub.observe_answers(tel.now_us(), &rows);
        }
    }
    {
        let mut hist = shared.hist.lock().expect("histogram poisoned");
        for (_, us) in outcomes() {
            hist.record(us);
        }
    }
    // Per-client answered counts + histograms live in the admission
    // queue's one client map (one eviction policy, so the books cannot
    // diverge); one lock per delivery.
    shared.queue.record_answered(outcomes());
    for (_, reply, answer) in replies {
        // A client that gave up is not an error.
        let _ = reply.send(Ok(QueryResponse::Answered(answer)));
    }
}

/// The SLO monitor stage: owns the counter-diffing (availability and
/// cache-mass feeds), evaluates every tracker on its tick, and runs the
/// incident lifecycle — breach transition → recorder trigger →
/// (post-trigger window) → bundle finalize — plus the breach→admission
/// feedback loop.
struct SloMonitor {
    shared: Arc<Shared>,
}

impl SloMonitor {
    fn run(self) {
        let shared = self.shared.as_ref();
        let (Some(hub), Some(rec), Some(tel)) = (&shared.slo, &shared.recorder, &shared.telemetry)
        else {
            return;
        };
        let slo_cfg = *hub.config();
        let tick = slo_cfg.tick.max(Duration::from_millis(1));
        let adaptive = shared.queue.adaptive();
        let mut prev = shared.queue.totals();
        let mut prev_cache = (0u64, 0u64, 0u64);
        let mut prev_replans = 0u64;
        while !shared.monitor_stop.load(Ordering::Relaxed) {
            std::thread::sleep(tick);
            let now_us = tel.now_us();
            // Availability bad-mass: rejections and sheds since the
            // last tick (answers arrive event-driven from `deliver`).
            let totals = shared.queue.totals();
            let rejected = totals.rejected.saturating_sub(prev.rejected);
            let shed = totals.shed.saturating_sub(prev.shed);
            prev = totals;
            if rejected > 0 {
                rec.record_at(now_us, EventKind::Rejected, rejected, 0);
            }
            if shed > 0 {
                rec.record_at(now_us, EventKind::ShedBurst, shed, 0);
            }
            if rejected + shed > 0 {
                hub.observe_unserved(now_us, rejected + shed);
            }
            if let Some(c) = &shared.cache {
                let snap = c.snapshot();
                let hits = snap.hits.saturating_sub(prev_cache.0);
                let misses = snap.misses.saturating_sub(prev_cache.1);
                let evictions = snap.evictions.saturating_sub(prev_cache.2);
                prev_cache = (snap.hits, snap.misses, snap.evictions);
                if hits + misses > 0 {
                    hub.observe_cache(now_us, hits, misses);
                }
                if evictions > 0 {
                    rec.record_at(now_us, EventKind::EvictionChurn, evictions, 0);
                }
            }
            if let Some(ctrl) = adaptive {
                let replans = ctrl.snapshot().replans;
                if replans > prev_replans {
                    rec.record_at(now_us, EventKind::Replan, replans - prev_replans, 0);
                }
                prev_replans = replans;
            }
            for e in hub.evaluate(now_us) {
                rec.record_at(
                    now_us,
                    EventKind::SloTransition,
                    e.to.rank(),
                    (e.fast_burn * 1000.0) as u64,
                );
                if e.to == SloState::Breach {
                    rec.trigger(&format!("slo:{}", e.name), breach_context(hub));
                }
            }
            if let Some(ctrl) = adaptive {
                // Breach ⇒ tighten the derived deadline so DeadlineShed
                // drops load harder; recovery restores the full budget.
                ctrl.set_deadline_tighten(if hub.any_breached() {
                    slo_cfg.tighten
                } else {
                    1.0
                });
            }
            rec.finalize_due(false);
        }
        // A breach close to shutdown still emits its bundle.
        rec.finalize_due(true);
    }
}

/// Cloneable read-side of a [`Server`]: the same shared books the server
/// itself reads, so stats snapshots and metric exports outlive any one
/// `&Server` borrow. Obtained via [`Server::metrics_source`]; the TCP
/// scrape endpoint ([`Server::serve_metrics`]) is this source behind a
/// listener, through its [`ScrapeSource`] implementation.
///
/// Every export derives from one [`StatsSource::snapshot`] call over the
/// same underlying counters, so at quiescence (no in-flight queries) the
/// Prometheus series, the JSON dump and [`Server::stats`] agree exactly.
#[derive(Clone)]
pub struct StatsSource {
    shared: Arc<Shared>,
}

/// Mean queries per executed batch. Every batched query belongs to
/// exactly one batch, so the occupancy is the ratio of the two counters;
/// inline cache answers never joined a batch and are excluded. The three
/// counters are read one by one while the pipeline runs, so `inline` can
/// be ahead of `queries` — that must read as "no batched queries", not
/// wrap.
fn mean_batch(queries: u64, inline_queries: u64, batches: u64) -> f64 {
    if batches == 0 {
        0.0
    } else {
        queries.saturating_sub(inline_queries) as f64 / batches as f64
    }
}

impl StatsSource {
    /// Current counters and latency distribution (the body behind
    /// [`Server::stats`]).
    pub fn snapshot(&self) -> StatsSnapshot {
        let Shared {
            queue, counters, ..
        } = self.shared.as_ref();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // `deliver` bumps `queries` before `inline_queries`; reading them
        // in the opposite order keeps inline ≤ queries in this read-out.
        let inline_queries = load(&counters.inline_queries);
        let queries = load(&counters.queries);
        let batches = load(&counters.batches);
        let uptime_s = self.shared.started.elapsed().as_secs_f64();
        let admission = queue.snapshot();
        StatsSnapshot {
            queries,
            batches,
            partial_batches: load(&counters.partial_batches),
            cached_queries: load(&counters.cached_queries),
            submitted: admission.submitted,
            admitted: admission.submitted - admission.rejected - admission.shed,
            rejected: admission.rejected,
            shed: admission.shed,
            deadline_misses: admission.deadline_shed + load(&counters.late_answers),
            queue_depth: admission.queue_depth,
            queue_depth_peak: admission.queue_depth_peak,
            clients: admission.clients,
            evicted_clients: admission.evicted,
            shard_batches: counters.shard_batches.iter().map(load).collect(),
            shard_partial_batches: counters.shard_partial_batches.iter().map(load).collect(),
            cache: self.shared.cache.as_ref().map(|c| c.snapshot()),
            mean_batch: mean_batch(queries, inline_queries, batches),
            uptime_s,
            throughput_qps: if uptime_s > 0.0 {
                queries as f64 / uptime_s
            } else {
                0.0
            },
            latency: LatencySummary::of(&self.shared.hist.lock().expect("histogram poisoned")),
            stages: self.shared.telemetry.as_ref().map(|t| t.stage_breakdown()),
            adaptive: admission.adaptive,
            classes: admission.classes,
            slo: self
                .shared
                .slo
                .as_ref()
                .map_or_else(Vec::new, |h| h.statuses()),
            incidents: self
                .shared
                .recorder
                .as_ref()
                .map_or(0, |r| r.incidents().len() as u64),
        }
    }

    /// Notes a scrape of `route` in the flight recorder.
    fn record_scrape(&self, route: u64) {
        if let Some(rec) = &self.shared.recorder {
            rec.record(EventKind::Scrape, route, 0);
        }
    }

    /// Every exported series as one snapshot: the stats-derived ones
    /// ([`export::stat_samples`]) followed by every live registry family (stage
    /// histograms, kernel/forward/shard counters, SLO gauges) when
    /// telemetry is enabled.
    fn scrape(&self) -> RegistrySnapshot {
        self.record_scrape(0);
        let hist = self.shared.hist.lock().expect("histogram poisoned").clone();
        let mut snap = export::stat_samples(&self.snapshot(), hist, self.shared.build);
        if let Some(tel) = &self.shared.telemetry {
            snap.merge(tel.registry().snapshot());
        }
        snap
    }
}

impl ScrapeSource for StatsSource {
    /// One Prometheus text-format scrape body.
    fn prometheus(&self) -> String {
        export::render_prometheus(&self.scrape())
    }

    /// The same series as [`ScrapeSource::prometheus`], rendered as one
    /// JSON document (`{"metrics": [...], "histograms": [...]}`).
    fn metrics_json(&self) -> String {
        export::render_metrics_json(&self.scrape())
    }

    /// The readiness checks behind `GET /healthz`: ingress open, queue
    /// depth below the effective capacity, and no breached objective.
    /// Degraded (any failed check) answers HTTP 503 on the endpoint.
    fn healthz(&self) -> HealthReport {
        self.record_scrape(1);
        let Shared { queue, build, .. } = self.shared.as_ref();
        let totals = queue.totals();
        let capacity = queue.effective_capacity() as u64;
        let closed = queue.is_closed();
        let mut checks = vec![
            HealthCheck::new("engine", true, format!("{} shard(s) bound", build.shards)),
            HealthCheck::new(
                "ingress",
                !closed,
                if closed {
                    "admission queue closed".to_string()
                } else {
                    "accepting queries".to_string()
                },
            ),
            HealthCheck::new(
                "queue",
                totals.depth < capacity,
                format!("depth {} of {}", totals.depth, capacity),
            ),
        ];
        if let Some(hub) = &self.shared.slo {
            let breached: Vec<&str> = hub
                .statuses()
                .iter()
                .filter(|s| s.state == SloState::Breach)
                .map(|s| s.name)
                .collect();
            checks.push(HealthCheck::new(
                "slo",
                breached.is_empty(),
                if breached.is_empty() {
                    "all objectives ok".to_string()
                } else {
                    format!("breached: {}", breached.join(", "))
                },
            ));
        }
        HealthReport::new(checks)
    }

    /// The live-introspection dump behind `GET /debug/state`: build
    /// identity, the top-line serving books, cache and adaptive state,
    /// per-objective SLO status and the incident ledger, as one JSON
    /// object.
    fn debug_state(&self) -> String {
        self.record_scrape(2);
        let Shared {
            queue,
            build,
            recorder,
            ..
        } = self.shared.as_ref();
        let stats = self.snapshot();
        let mut o = JsonObj::new();
        o.str("version", build.version)
            .num("shards", build.shards)
            .str("overload_policy", build.policy)
            .num("workers", build.workers)
            .float("uptime_s", stats.uptime_s)
            .num("queries", stats.queries)
            .num("batches", stats.batches)
            .num("submitted", stats.submitted)
            .num("rejected", stats.rejected)
            .num("shed", stats.shed)
            .num("deadline_misses", stats.deadline_misses)
            .num("queue_depth", stats.queue_depth)
            .num("queue_capacity", queue.effective_capacity())
            .bool("ingress_closed", queue.is_closed())
            .num("incidents", stats.incidents)
            .bool(
                "incident_open",
                recorder.as_ref().is_some_and(|r| r.incident_open()),
            );
        if let Some(c) = &stats.cache {
            let mut cache = JsonObj::new();
            cache
                .num("hits", c.hits)
                .num("misses", c.misses)
                .num("coalesced", c.coalesced)
                .num("evictions", c.evictions)
                .num("invalidated", c.invalidated)
                .num("resident_rows", c.resident_rows);
            o.raw("cache", cache.render());
        }
        if let Some(a) = &stats.adaptive {
            let mut adaptive = JsonObj::new();
            adaptive
                .num("ewma_us", a.ewma_us)
                .num("derived_capacity", a.derived_capacity)
                .num("derived_deadline_us", a.derived_deadline_us)
                .num("replans", a.replans)
                .num("tighten_permille", a.tighten_permille);
            o.raw("adaptive", adaptive.render());
        }
        o.raw(
            "slo",
            json_array(stats.slo.iter().map(|s| {
                let mut s_obj = JsonObj::new();
                s_obj
                    .str("name", s.name)
                    .str("kind", s.kind)
                    .str("state", s.state.label())
                    .float("fast_burn", s.fast_burn)
                    .float("slow_burn", s.slow_burn)
                    .num("transitions", s.transitions)
                    .num("breaches", s.breaches);
                s_obj.render()
            })),
        );
        o.render()
    }
}

/// Resolves one batch into per-query logits: one planned forward over
/// the seeds nobody else has computed, everything else from the cache.
///
/// With a cache, the batch's probe misses are claimed: seeds that became
/// resident since the probe are late hits, seeds another batch is
/// already computing are parked on, and only the seeds this batch
/// **leads** reach the engine — their rows are published for everyone
/// else. Without one, every seed is this batch's own and the union is
/// forwarded whole. Either way each query's rows are then copied from
/// wherever they ended up: its pinned probe hits, another batch's
/// published row, or this batch's own forward.
///
/// Returns each query's `(logits, cached)` in batch order (`cached`:
/// no row came from this batch's own forwards), the batch-level partial
/// flag, and whether any forward actually ran (false for a batch fully
/// resolved by residency and other batches' in-flight work).
fn run_batch(
    shared: &Shared,
    (generation, graph_version): (SnapshotGeneration, GraphVersion),
    batch: &[BatchItem],
    obs: Option<(&Telemetry, u64)>,
) -> (Vec<(Matrix, bool)>, bool, bool) {
    let forward = |union: &[u32]| {
        let outcome = shared.engine.forward_union(union, obs);
        shared.counters.count_forward(&outcome);
        outcome
    };
    // Every seed instance the batcher's probe left unanswered (all of
    // them without a cache), in the sorted order `forward_union` needs.
    let mut missing: Vec<u32> = batch
        .iter()
        .flat_map(|item| {
            let seeds = item.entry.payload.seeds.iter().enumerate();
            seeds.filter_map(|(i, &s)| item.hit(i).is_none().then_some(s))
        })
        .collect();
    missing.sort_unstable();
    // Rows other batches computed, and this batch's own forwards: the
    // lead union, then (rarely) the seeds of a leader that aborted.
    let mut borrowed: HashMap<u32, Arc<[f32]>> = HashMap::new();
    let (mut lead_forward, mut fallback_forward) = (None, None);
    if let Some(cache) = &shared.cache {
        // Per unique seed, how many answered instances in this batch
        // want it (the occurrence counts keep the cache's per-instance
        // books exact).
        let mut wanted: Vec<(u32, u32)> = Vec::new();
        for &s in &missing {
            match wanted.last_mut() {
                Some((last, n)) if *last == s => *n += 1,
                _ => wanted.push((s, 1)),
            }
        }
        let claim = cache.claim(generation, graph_version, &wanted);
        borrowed.extend(claim.hits);
        // The leader fills *before* waiting on any follows, so two
        // batches leading/following each other's seeds can never
        // deadlock.
        if !claim.lead.is_empty() {
            let lead_seeds = claim.lead.seeds();
            let outcome = forward(&lead_seeds);
            claim.lead.fill(&outcome.logits.gather(&lead_seeds));
            lead_forward = Some(outcome);
        }
        // Follower seeds: park on the owning batch's computation. An
        // aborted leader (its worker died before filling) yields `None`;
        // those seeds fall back to a forward of our own rather than
        // hanging. `claim` keeps `wanted`'s order, so they stay sorted.
        let mut fallback: Vec<u32> = Vec::new();
        for (s, handle) in claim.follows {
            match handle.wait() {
                Some(row) => {
                    borrowed.insert(s, row);
                }
                None => fallback.push(s),
            }
        }
        if !fallback.is_empty() {
            // Register uncounted leadership *before* the recompute so a
            // mutation's invalidation racing it poisons the slots and
            // the fill skips the stale rows. Seeds re-led by another
            // claim in the meantime stay with that leader.
            let lead = cache.lead_uncounted(generation, graph_version, &fallback);
            let outcome = forward(&fallback);
            lead.fill_from(&fallback, &outcome.logits.gather(&fallback));
            fallback_forward = Some(outcome);
        }
    } else {
        missing.dedup();
        lead_forward = Some(forward(&missing));
    }
    let computed = [lead_forward, fallback_forward];
    let out_dim = shared.engine.out_dim();
    let answers = batch
        .iter()
        .map(|item| {
            let seeds = &item.entry.payload.seeds;
            let mut logits = Matrix::zeros(seeds.len(), out_dim);
            let mut cached = true;
            for (i, &s) in seeds.iter().enumerate() {
                let row: &[f32] = match item.hit(i).or_else(|| borrowed.get(&s)) {
                    Some(row) => row,
                    None => {
                        cached = false;
                        let mut own = computed.iter().flatten();
                        own.find_map(|outcome| outcome.logits.row(s))
                            .expect("every missing seed resolved")
                    }
                };
                logits.row_mut(i).copy_from_slice(row);
            }
            (logits, cached)
        })
        .collect();
    let mut own = computed.iter().flatten();
    let partial = own.clone().any(BatchOutcome::any_partial);
    (answers, partial, own.next().is_some())
}

/// A query submitted but not yet resolved: the receipt half of
/// [`ServerHandle::request`]. Lets open-loop clients fire queries on a
/// schedule without blocking on each reply.
#[derive(Debug)]
pub struct PendingQuery {
    inner: Pending,
}

#[derive(Debug)]
enum Pending {
    /// Resolved synchronously at admission (a rejection).
    Immediate(QueryResponse),
    /// Waiting on the serving pipeline.
    Waiting(exec::Receiver<Result<QueryResponse, ServeError>>),
}

impl PendingQuery {
    /// Blocks until the query resolves.
    ///
    /// # Errors
    ///
    /// [`ServeError::ChannelClosed`] when the server shut down before
    /// resolving the query.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        match self.inner {
            Pending::Immediate(r) => Ok(r),
            Pending::Waiting(rx) => rx.recv().map_err(|_| ServeError::ChannelClosed)?,
        }
    }
}

/// Cheap cloneable client endpoint of a [`Server`].
///
/// Two entry points: [`ServerHandle::query`] for the common blocking
/// default-options case, and [`ServerHandle::request`] for everything
/// else — it takes [`QueryOptions`] and returns a [`PendingQuery`]
/// receipt, so callers choose per call whether to block
/// ([`PendingQuery::wait`]) or fire-and-collect.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Submits a seed-set query, returning a [`PendingQuery`] receipt
    /// without waiting for the outcome.
    ///
    /// Admission happens synchronously: a rejected query resolves
    /// immediately (its [`PendingQuery::wait`] returns
    /// [`QueryResponse::Rejected`] without a channel round-trip), an
    /// admitted one resolves when its batch completes or the admission
    /// layer sheds it. Under
    /// [`crate::admission::OverloadPolicy::Block`] this call blocks
    /// while the ingress queue is full — that is the policy's
    /// backpressure.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # fn demo(handle: &maxk_serve::ServerHandle) -> Result<(), maxk_serve::ServeError> {
    /// use maxk_serve::QueryOptions;
    /// use std::time::Duration;
    ///
    /// let pending = handle.request(
    ///     &[3, 14, 15],
    ///     QueryOptions::new()
    ///         .for_client(42)
    ///         .with_deadline(Duration::from_millis(100)),
    /// )?;
    /// let response = pending.wait()?; // Answered, Rejected or Shed
    /// # let _ = response;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyQuery`] / [`ServeError::SeedOutOfRange`] on bad
    /// input (validated before admission, so invalid queries never count
    /// against a client's budget); [`ServeError::ChannelClosed`] when the
    /// server has shut down.
    pub fn request(&self, seeds: &[u32], opts: QueryOptions) -> Result<PendingQuery, ServeError> {
        check_seeds(seeds, self.num_nodes())?;
        let (reply_tx, reply_rx) = StdThreadExecutor.unbounded();
        // Sampled queries carry a trace; the unsampled path costs one
        // relaxed atomic increment (and nothing at all with tracing off).
        let mut trace = self
            .shared
            .telemetry
            .as_ref()
            .and_then(|t| t.begin_trace(opts.client, seeds.len()));
        if let Some(t) = trace.as_mut() {
            t.mark(Stage::Enqueue);
        }
        let request = Request {
            seeds: seeds.to_vec(),
            reply: reply_tx,
            trace,
        };
        match self
            .shared
            .queue
            .submit_classed(opts.client, opts.class, opts.deadline, request)?
        {
            Submission::Admitted { shed } => {
                notify_shed(shed);
                Ok(PendingQuery {
                    inner: Pending::Waiting(reply_rx),
                })
            }
            Submission::Rejected(reason) => Ok(PendingQuery {
                inner: Pending::Immediate(QueryResponse::Rejected(reason)),
            }),
        }
    }

    /// Submits a seed-set query with default options (client 0, no
    /// per-query deadline) and blocks until it resolves.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServerHandle::request`].
    pub fn query(&self, seeds: &[u32]) -> Result<QueryResponse, ServeError> {
        self.request(seeds, QueryOptions::new())?.wait()
    }

    /// Nodes served (valid seeds are `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.shared.engine.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::OverloadPolicy;
    use crate::InferenceEngine;
    use maxk_graph::generate;
    use maxk_nn::snapshot::ModelSnapshot;
    use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> Arc<InferenceEngine> {
        let graph = generate::chung_lu_power_law(60, 5.0, 2.3, 3)
            .to_csr()
            .unwrap();
        let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(4), 6, 3);
        cfg.hidden_dim = 12;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(5);
        let model = GnnModel::new(cfg, &graph, &mut rng);
        let x = Matrix::xavier(60, 6, &mut rng);
        let snap = ModelSnapshot::capture(&model);
        Arc::new(InferenceEngine::from_snapshot(&snap, &graph, x).unwrap())
    }

    fn answer(resp: Result<QueryResponse, ServeError>) -> QueryAnswer {
        resp.expect("server running")
            .into_answer()
            .expect("query answered")
    }

    /// A fault injector over [`engine`] plus a latency objective and a
    /// stall derived from what this host does when healthy: the
    /// objective is `max(1 ms, 4 × p99)` of 80 single-seed queries (64 of
    /// them warm), the stall `10 ×` the objective — so the fault breaches
    /// on any machine and a cleared fault recovers on any machine. (The
    /// tests stretch their windows to hold at least 8 stalled forwards.)
    fn probed_fault() -> (
        Arc<crate::FaultInjector<InferenceEngine>>,
        Duration,
        Duration,
    ) {
        let inner = Arc::try_unwrap(engine()).unwrap_or_else(|_| panic!("sole owner"));
        let faulty = Arc::new(crate::FaultInjector::new(inner));
        let probe = Server::builder()
            .batch_window(Duration::ZERO)
            .workers(1)
            .start(Arc::clone(&faulty));
        for i in 0..80u32 {
            let _ = answer(probe.handle().query(&[i % 16]));
        }
        let p99_us = probe.shutdown().latency.p99_us;
        let objective = Duration::from_micros(4 * p99_us as u64).max(Duration::from_millis(1));
        (faulty, objective, 10 * objective)
    }

    #[test]
    fn serves_correct_logits() {
        let engine = engine();
        let expected = engine.forward_all();
        let server = Server::builder().start(Arc::clone(&engine));
        let handle = server.handle();
        let resp = answer(handle.query(&[3, 59]));
        assert_eq!(resp.logits.shape(), (2, 3));
        assert_eq!(resp.logits.row(0), expected.row(3));
        assert_eq!(resp.logits.row(1), expected.row(59));
        assert!(resp.batch_size >= 1);
        assert!(!resp.cached, "no cache configured");
        assert_eq!(resp.generation, engine.generation());
        assert_eq!(resp.graph_version, engine.graph_version());
        let stats = server.shutdown();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.rejected + stats.shed, 0);
        assert_eq!(stats.cached_queries, 0);
        assert!(stats.cache.is_none());
    }

    #[test]
    fn concurrent_queries_coalesce() {
        let engine = engine();
        let server = Server::builder()
            .batch_window(Duration::from_millis(20))
            .max_batch(64)
            .workers(1)
            .start(engine);
        let handle = server.handle();
        let clients = 8;
        StdThreadExecutor.scope(|s| {
            for c in 0..clients {
                let h = handle.clone();
                s.spawn(move || {
                    let resp = answer(
                        h.request(&[c as u32], QueryOptions::new().for_client(c as u64))
                            .and_then(PendingQuery::wait),
                    );
                    assert_eq!(resp.logits.shape(), (1, 3));
                });
            }
        });
        let stats = server.shutdown();
        assert_eq!(stats.queries, clients as u64);
        // With a 20ms window and instant concurrent arrivals, at least one
        // batch must carry more than one query.
        assert!(
            stats.batches < clients as u64,
            "expected coalescing, got {} batches",
            stats.batches
        );
        assert!(stats.mean_batch > 1.0);
        assert!(stats.latency.p99_us.is_finite());
        // Per-client books: every client answered exactly once.
        assert_eq!(stats.clients.len(), clients);
        for c in &stats.clients {
            assert_eq!(c.submitted, 1);
            assert_eq!(c.answered, 1);
            assert_eq!(c.rejected + c.shed, 0);
            assert_eq!(c.latency.count, 1);
        }
    }

    #[test]
    fn unbatched_config_serves_one_query_per_forward() {
        let engine = engine();
        let server = Server::builder()
            .batch_window(Duration::ZERO)
            .max_batch(1)
            .workers(1)
            .start(engine);
        let handle = server.handle();
        for i in 0..5u32 {
            let resp = answer(handle.query(&[i]));
            assert_eq!(resp.batch_size, 1);
        }
        let stats = server.shutdown();
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.batches, 5);
        assert!((stats.mean_batch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_batches_counted_and_flagged() {
        use maxk_nn::PlanConfig;
        let force = |seed_frac_cutoff: f64, work_ratio: f64| {
            let e = Arc::try_unwrap(engine())
                .expect("sole owner")
                .with_plan_config(PlanConfig {
                    seed_frac_cutoff,
                    work_ratio,
                });
            Arc::new(e)
        };
        // Always-partial heuristic: the response and counters must say so.
        let server = Server::builder().start(force(1.0, f64::INFINITY));
        let expected = {
            let h = server.handle();
            let resp = answer(h.query(&[7]));
            assert!(resp.partial);
            resp.logits
        };
        let stats = server.shutdown();
        assert_eq!(stats.partial_batches, 1);
        // Always-full heuristic: same logits bitwise, no partial batches.
        let server = Server::builder().start(force(0.0, 0.0));
        let resp = answer(server.handle().query(&[7]));
        assert!(!resp.partial);
        assert_eq!(resp.logits, expected);
        let stats = server.shutdown();
        assert_eq!(stats.partial_batches, 0);
    }

    #[test]
    fn sharded_engine_serves_through_the_same_api() {
        use crate::{ShardConfig, ShardedEngine};
        let graph = generate::chung_lu_power_law(60, 5.0, 2.3, 3)
            .to_csr()
            .unwrap();
        let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(4), 6, 3);
        cfg.hidden_dim = 12;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(5);
        let model = GnnModel::new(cfg, &graph, &mut rng);
        let x = Matrix::xavier(60, 6, &mut rng);
        let snap = ModelSnapshot::capture(&model);
        let single = InferenceEngine::from_snapshot(&snap, &graph, x.clone()).unwrap();
        let expected = single.forward_all();
        let sharded = ShardedEngine::from_snapshot(
            &snap,
            &graph,
            &x,
            ShardConfig {
                num_shards: 2,
                strategy: maxk_graph::shard::ShardStrategy::Contiguous,
            },
        )
        .unwrap();
        // Sharded and single engines share the snapshot's generation but
        // have distinct graph operands (distinct versions).
        assert_eq!(sharded.generation(), single.generation());
        assert_ne!(BatchEngine::graph_version(&sharded), single.graph_version());
        let server = Server::builder().start(Arc::new(sharded));
        let handle = server.handle();
        // A query spanning both shards (contiguous: low ids shard 0,
        // high ids shard 1) must return the unsharded rows.
        let resp = answer(handle.query(&[0, 59, 30]));
        assert_eq!(resp.logits.row(0), expected.row(0));
        assert_eq!(resp.logits.row(1), expected.row(59));
        assert_eq!(resp.logits.row(2), expected.row(30));
        let stats = server.shutdown();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.shard_batches.len(), 2);
        assert_eq!(stats.shard_partial_batches.len(), 2);
        // Both shards saw the one batch.
        assert_eq!(stats.shard_batches, vec![1, 1]);
    }

    #[test]
    fn single_engine_reports_one_shard_counter() {
        let engine = engine();
        let server = Server::builder().start(engine);
        let _ = answer(server.handle().query(&[1]));
        let stats = server.shutdown();
        assert_eq!(stats.shard_batches, vec![stats.batches]);
        assert_eq!(stats.shard_partial_batches, vec![stats.partial_batches]);
    }

    #[test]
    fn bad_queries_rejected_without_reaching_admission() {
        let engine = engine();
        let server = Server::builder().start(engine);
        let handle = server.handle();
        assert!(matches!(handle.query(&[]), Err(ServeError::EmptyQuery)));
        assert!(matches!(
            handle.query(&[1000]),
            Err(ServeError::SeedOutOfRange { .. })
        ));
        let stats = server.shutdown();
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.batches, 0);
        // Invalid queries never reach admission accounting.
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn query_after_shutdown_fails_cleanly() {
        let engine = engine();
        let server = Server::builder().start(engine);
        let handle = server.handle();
        let _ = server.shutdown();
        assert!(matches!(handle.query(&[0]), Err(ServeError::ChannelClosed)));
    }

    #[test]
    fn deadline_zero_sheds_instead_of_answering() {
        let engine = engine();
        let server = Server::builder()
            .overload_policy(OverloadPolicy::DeadlineShed)
            .start(engine);
        let resp = server
            .handle()
            .request(
                &[1],
                QueryOptions::new()
                    .for_client(9)
                    .with_deadline(Duration::ZERO),
            )
            .and_then(PendingQuery::wait)
            .unwrap();
        assert!(
            matches!(resp, QueryResponse::Shed(ShedReason::DeadlineBlown)),
            "expected a deadline shed, got {resp:?}"
        );
        let stats = server.shutdown();
        assert_eq!(stats.queries, 0, "a blown query must not cost a forward");
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn mean_batch_survives_inline_counter_running_ahead() {
        // Mid-flight the batcher can bump `inline_queries` between the
        // snapshot's two loads; that must read as no batched queries.
        assert_eq!(mean_batch(7, 8, 3), 0.0);
        assert_eq!(mean_batch(0, 0, 0), 0.0);
        assert_eq!(mean_batch(10, 4, 3), 2.0);
    }

    #[test]
    fn stats_books_balance_mid_flight() {
        let engine = engine();
        let server = Server::builder().start(engine);
        let handle = server.handle();
        for i in 0..7u32 {
            let _ = answer(handle.query(&[i]));
        }
        let stats = server.stats();
        assert_eq!(
            stats.submitted,
            stats.queries + stats.rejected + stats.shed + stats.queue_depth
        );
        let _ = server.shutdown();
    }

    #[test]
    fn repeated_seed_served_from_cache_bitwise() {
        let engine = engine();
        let expected = engine.forward_all();
        let server = Server::builder()
            .cache_capacity(128)
            .start(Arc::clone(&engine));
        let handle = server.handle();
        let first = answer(handle.query(&[9, 3]));
        assert!(!first.cached, "first touch computes");
        // Every repeat is fully hot: answered inline, no new batch.
        for _ in 0..3 {
            let again = answer(handle.query(&[9, 3]));
            assert!(again.cached);
            assert!(!again.partial);
            assert_eq!(again.batch_size, 1);
            assert_eq!(again.logits, first.logits);
            assert_eq!(again.generation, first.generation);
            assert_eq!(again.graph_version, first.graph_version);
        }
        assert_eq!(first.logits.row(0), expected.row(9));
        assert_eq!(first.logits.row(1), expected.row(3));
        let stats = server.shutdown();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.cached_queries, 3);
        assert_eq!(
            stats.batches, 1,
            "a fully-hot query never reaches the engine"
        );
        let cache = stats.cache.expect("cache enabled");
        // 2 seeds missed on first touch; 3 x 2 instances hit after.
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.hits, 6);
        assert_eq!(cache.coalesced, 0);
        assert_eq!(cache.resident_rows, 2);
    }

    #[test]
    fn partial_hit_shrinks_the_union_and_mixes_rows() {
        let engine = engine();
        let expected = engine.forward_all();
        let server = Server::builder()
            .cache_capacity(128)
            .start(Arc::clone(&engine));
        let handle = server.handle();
        let _ = answer(handle.query(&[5]));
        // Seed 5 is resident; 11 is not. The answer mixes a cached row
        // with a fresh one, so `cached` is false but both rows are exact.
        let mixed = answer(handle.query(&[5, 11]));
        assert!(!mixed.cached);
        assert_eq!(mixed.logits.row(0), expected.row(5));
        assert_eq!(mixed.logits.row(1), expected.row(11));
        let stats = server.shutdown();
        let cache = stats.cache.expect("cache enabled");
        assert_eq!(cache.misses, 2, "seed 5 once, seed 11 once");
        assert_eq!(cache.hits, 1, "seed 5's repeat");
        // Identity: every answered seed instance is counted once.
        assert_eq!(cache.hits + cache.misses + cache.coalesced, 3);
    }

    #[test]
    fn cache_counters_account_every_admitted_query() {
        let engine = engine();
        let server = Server::builder()
            .cache_capacity(64)
            .batch_window(Duration::from_millis(5))
            .workers(2)
            .start(engine);
        let handle = server.handle();
        // Concurrent Zipf-ish repetition: lots of duplicate seeds across
        // overlapping batches.
        StdThreadExecutor.scope(|s| {
            for c in 0..6u64 {
                let h = handle.clone();
                s.spawn(move || {
                    for i in 0..30u32 {
                        let seed = (i * (c as u32 + 1)) % 7;
                        let _ = answer(
                            h.request(&[seed], QueryOptions::new().for_client(c))
                                .and_then(PendingQuery::wait),
                        );
                    }
                });
            }
        });
        let stats = server.shutdown();
        assert_eq!(stats.queries, 180);
        let cache = stats.cache.expect("cache enabled");
        // Exact per-instance account: one seed per query here, so
        // hits + misses + coalesced == answered queries.
        assert_eq!(
            cache.hits + cache.misses + cache.coalesced,
            stats.queries,
            "cache books must account every answered seed instance"
        );
        assert_eq!(cache.misses, 7, "seven distinct seeds computed once each");
        assert!(stats.cached_queries > 0);
    }

    #[test]
    fn stage_histograms_cover_every_answered_query() {
        let engine = engine();
        let server = Server::builder().start(engine);
        let handle = server.handle();
        for i in 0..5u32 {
            let _ = answer(handle.query(&[i]));
        }
        let stats = server.shutdown();
        let stages = stats.stages.expect("telemetry on by default");
        assert_eq!(stages.queue_wait.count, stats.queries);
        assert_eq!(stages.batch_wait.count, stats.queries);
        assert_eq!(stages.service.count, stats.queries);
        assert_eq!(stages.e2e.count, stats.queries);
    }

    #[test]
    fn telemetry_off_serves_without_stage_books() {
        let engine = engine();
        let server = Server::builder()
            .telemetry(TelemetryConfig::off())
            .start(engine);
        let resp = answer(server.handle().query(&[3]));
        assert_eq!(resp.logits.shape(), (1, 3));
        let stats = server.shutdown();
        assert_eq!(stats.queries, 1);
        assert!(stats.stages.is_none());
    }

    #[test]
    fn sampled_traces_reach_the_span_ring() {
        let engine = engine();
        let server = Server::builder().trace_sampling(1.0).start(engine);
        let handle = server.handle();
        for i in 0..3u32 {
            let _ = answer(handle.query(&[i]));
        }
        let tel = server.telemetry().expect("telemetry on").clone();
        let spans = tel.spans();
        let queries = spans.iter().filter(|s| s.name == "query").count();
        assert_eq!(queries, 3, "sampling 1.0 traces every query");
        assert!(spans.iter().any(|s| s.name == "queue_wait"));
        assert!(spans
            .iter()
            .any(|s| s.name == "forward" && s.cat == "batch"));
        let json = tel.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        let _ = server.shutdown();
    }

    #[test]
    fn adaptive_server_derives_budgets_and_answers_exactly() {
        let engine = engine();
        let expected = engine.forward_all();
        let server = Server::builder()
            .adaptive_admission()
            .start(Arc::clone(&engine));
        let handle = server.handle();
        for i in 0..6u32 {
            let resp = answer(handle.query(&[i]));
            assert_eq!(resp.logits.row(0), expected.row(i as usize));
        }
        let stats = server.shutdown();
        assert_eq!(stats.queries, 6);
        let a = stats.adaptive.expect("adaptive enabled");
        assert!(a.samples > 0, "every batch feeds the EWMA");
        assert!(a.ewma_us > 0);
        assert!(a.derived_capacity > 0);
        assert!(
            a.derived_deadline_us > 0,
            "deadline multiplier derives a budget from the EWMA"
        );
        // Exact accounting survives the adaptive controller.
        assert_eq!(stats.submitted, stats.queries + stats.rejected + stats.shed);
    }

    #[test]
    fn classed_queries_account_per_class_exactly() {
        let engine = engine();
        let server = Server::builder()
            .classes(
                ClassWeights::new()
                    .with_class("paid", 3.0)
                    .with_class("batch", 1.0),
            )
            .start(engine);
        let handle = server.handle();
        for i in 0..4u32 {
            let _ = answer(
                handle
                    .request(&[i], QueryOptions::new().in_class(0))
                    .and_then(PendingQuery::wait),
            );
        }
        for i in 0..2u32 {
            let _ = answer(
                handle
                    .request(&[i], QueryOptions::new().for_client(1).in_class(1))
                    .and_then(PendingQuery::wait),
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.classes.len(), 2);
        let paid = &stats.classes[0];
        let batch = &stats.classes[1];
        assert_eq!((paid.name, paid.submitted, paid.popped), ("paid", 4, 4));
        assert_eq!((batch.name, batch.submitted, batch.popped), ("batch", 2, 2));
        for c in &stats.classes {
            assert_eq!(
                c.submitted,
                c.popped + c.rejected + c.shed + c.queued,
                "per-class identity for {}",
                c.name
            );
        }
    }

    #[test]
    fn slo_statuses_surface_in_stats_and_stay_ok_under_light_load() {
        use crate::telemetry::SloState;
        let server = Server::builder()
            .slo_latency(Duration::from_secs(5))
            .start(engine());
        let handle = server.handle();
        for i in 0..4u32 {
            let _ = answer(handle.query(&[i]));
        }
        assert!(server.slo().is_some());
        assert!(server.flight_recorder().is_some());
        let stats = server.stats();
        assert_eq!(stats.slo.len(), 2);
        let names: Vec<&str> = stats.slo.iter().map(|s| s.name).collect();
        assert!(names.contains(&"latency") && names.contains(&"availability"));
        for s in &stats.slo {
            assert_eq!(s.state, SloState::Ok, "objective {} breached", s.name);
        }
        assert_eq!(stats.incidents, 0);
        assert!(server.incidents().is_empty());
        let _ = server.shutdown();
    }

    #[test]
    fn healthz_flips_degraded_when_ingress_closes() {
        let server = Server::builder()
            .slo_latency(Duration::from_secs(5))
            .start(engine());
        let source = server.metrics_source();
        let report = source.healthz();
        assert!(report.ready(), "fresh server must be ready: {report:?}");
        let _ = server.shutdown();
        let report = source.healthz();
        assert!(!report.ready(), "closed ingress must degrade /healthz");
        assert!(report.checks.iter().any(|c| c.name == "ingress" && !c.ok));
    }

    #[test]
    fn build_info_and_debug_state_exported() {
        let server = Server::builder()
            .workers(3)
            .overload_policy(OverloadPolicy::DeadlineShed)
            .slo_latency(Duration::from_secs(5))
            .start(engine());
        let _ = answer(server.handle().query(&[2]));
        let source = server.metrics_source();
        // The state gauges land on the monitor's first evaluate; poll
        // past that tick instead of racing it.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut prom = source.prometheus();
        while !prom.contains("maxk_serve_slo_state{") && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            prom = source.prometheus();
        }
        assert!(prom.contains("maxk_serve_build_info{"));
        assert!(prom.contains(concat!("version=\"", env!("CARGO_PKG_VERSION"), "\"")));
        assert!(prom.contains("policy=\"deadline\""));
        assert!(prom.contains("workers=\"3\""));
        assert!(prom.contains("maxk_serve_slo_state{"));
        let dump = source.debug_state();
        assert!(dump.contains("\"overload_policy\":\"deadline\""));
        assert!(dump.contains("\"slo\":["));
        assert!(dump.contains("\"name\":\"latency\""));
        assert!(dump.contains("\"incident_open\":false"));
        let _ = server.shutdown();
    }

    #[test]
    fn injected_fault_breaches_slo_and_emits_exactly_one_incident() {
        use crate::telemetry::{SloSpec, SloSpecSet};
        let (faulty, objective, stall) = probed_fault();
        // Aggressive windows so a sub-second test observes the full
        // trigger → finalize lifecycle; an hour of cooldown proves the
        // sustained breach cannot re-trigger.
        let slo = SloConfig {
            specs: SloSpecSet::new().with_spec(SloSpec::latency("latency", objective, 0.05)),
            fast_window: Duration::from_millis(400).max(8 * stall),
            slow_window: Duration::from_millis(800).max(16 * stall),
            tick: Duration::from_millis(5),
            min_events: 4,
            recorder: crate::RecorderConfig {
                post_trigger: Duration::from_millis(50).max(3 * stall),
                cooldown: Duration::from_secs(3600),
                ..crate::RecorderConfig::default()
            },
            ..SloConfig::default()
        };
        faulty.set_forward_delay(stall);
        let server = Server::builder()
            .batch_window(Duration::ZERO)
            .workers(1)
            .slo(slo)
            .start(Arc::clone(&faulty));
        let handle = server.handle();
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.incidents().is_empty() && Instant::now() < deadline {
            for i in 0..8u32 {
                let _ = answer(handle.query(&[i % 16]));
            }
        }
        let incidents = server.incidents();
        assert_eq!(
            incidents.len(),
            1,
            "sustained breach must emit exactly one bundle"
        );
        let report = &incidents[0];
        assert_eq!(report.reason, "slo:latency");
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == crate::EventKind::BatchFormed),
            "ring evidence must include the offending batches"
        );
        assert!(
            !report.spans.is_empty(),
            "boosted post-trigger window must contribute spans"
        );
        // The breach shows up in /healthz while hot.
        let stats = server.stats();
        assert_eq!(stats.incidents, 1);
        assert!(stats.slo.iter().any(|s| s.breaches >= 1));
        let _ = server.shutdown();
    }

    #[test]
    fn slo_breach_tightens_adaptive_deadline_and_recovery_restores_it() {
        use crate::telemetry::{SloSpec, SloSpecSet};
        let (faulty, objective, stall) = probed_fault();
        let slo = SloConfig {
            specs: SloSpecSet::new().with_spec(SloSpec::latency("latency", objective, 0.05)),
            fast_window: Duration::from_millis(300).max(8 * stall),
            slow_window: Duration::from_millis(600).max(16 * stall),
            tick: Duration::from_millis(5),
            min_events: 4,
            tighten: 0.5,
            ..SloConfig::default()
        };
        faulty.set_forward_delay(stall);
        let server = Server::builder()
            .batch_window(Duration::ZERO)
            .workers(1)
            .adaptive_admission()
            .slo(slo)
            .start(Arc::clone(&faulty));
        let handle = server.handle();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut tightened = false;
        while !tightened && Instant::now() < deadline {
            for i in 0..8u32 {
                let _ = answer(handle.query(&[i]));
            }
            tightened = server
                .stats()
                .adaptive
                .is_some_and(|a| a.tighten_permille < 1000);
        }
        assert!(tightened, "breach must feed back into the derived deadline");
        // Clear the fault; burn decays within the fast window and the
        // monitor restores the full budget.
        faulty.set_forward_delay(Duration::ZERO);
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut restored = false;
        while !restored && Instant::now() < deadline {
            for i in 0..8u32 {
                let _ = answer(handle.query(&[i]));
            }
            std::thread::sleep(Duration::from_millis(20));
            restored = server
                .stats()
                .adaptive
                .is_some_and(|a| a.tighten_permille == 1000);
        }
        assert!(restored, "recovery must restore the full deadline budget");
        let _ = server.shutdown();
    }
}
