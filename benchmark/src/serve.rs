//! The two serving workloads: a closed-loop client over `serve::Server`
//! (`ServerHandle::request`), with `DynamicEngine::apply` writes beside
//! the reads on `serve_zipf_rw`.
//!
//! Load shape: one generator thread holding a window of outstanding
//! queries (wait for the oldest, submit the next); latency is timed from
//! `request()` to `wait()` returning. The server runs one batcher and one
//! worker, and kernels fan out to `available_parallelism()` threads, so
//! there are never more runnable threads than processors.

use crate::report::Outcome;
use crate::span::Recorder;
use crate::{alloc, host, replay, stats};
use maxk_graph::{generate, Csr};
use maxk_nn::snapshot::ModelSnapshot;
use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
use maxk_serve::{
    DynamicEngine, InferenceEngine, InvalidationStrategy, Mutation, PendingQuery, PlanConfig,
    QueryOptions, QueryResponse, Server, ServerHandle, StatsSnapshot,
};
use maxk_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ARCH: Arch = Arch::Sage;
const HIDDEN: usize = 64;
const K: usize = 16;
const CLASSES: usize = 16;
/// Cold starts per run; `setup_s` is their lower quartile.
const SETUP_REPS: usize = 25;
/// Seeds whose answers are compared bitwise with a full forward.
const SPOT_CHECKS: usize = 32;
/// Reads in one cycle; on `serve_zipf_rw` each cycle starts with one
/// write batch.
const READS_PER_CYCLE: usize = 20;
const ZIPF_EXPONENT: f64 = 1.1;
const CACHE_ROWS: usize = 4096;

/// What distinguishes `serve_read` from `serve_zipf_rw`.
pub struct ServeSpec {
    /// Graph size.
    pub nodes: usize,
    /// Average degree of the planted-partition graph.
    pub avg_degree: f64,
    /// Input feature width.
    pub in_dim: usize,
    /// Model depth.
    pub layers: usize,
    /// Outstanding queries the client keeps in flight.
    pub window: usize,
    /// Untimed queries before the timed region.
    pub warmup_queries: usize,
    /// `false`: frozen engine planning a full forward for every batch, no
    /// cache, uniform read-only seeds.
    /// `true`: `DynamicEngine` with dirty-cone invalidation, logit cache,
    /// Zipf seeds, and a write batch every [`READS_PER_CYCLE`] reads.
    pub zipf_rw: bool,
}

/// Everything generated from the workload seed.
struct Inputs {
    graph: Csr,
    features: Matrix,
    snapshot_bytes: Vec<u8>,
    /// Edge-Group width of the snapshot's model.
    eg_width: usize,
}

fn generate_inputs(spec: &ServeSpec, seed: u64) -> Inputs {
    let graph = generate::planted_partition(spec.nodes, spec.avg_degree, CLASSES, 0.7, 2.2, seed)
        .to_csr()
        .expect("generator output is a valid graph");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEA7);
    let values = (0..spec.nodes * spec.in_dim)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let features =
        Matrix::from_vec(spec.nodes, spec.in_dim, values).expect("features are rectangular");
    let mut cfg = ModelConfig::new(ARCH, Activation::MaxK(K), spec.in_dim, CLASSES);
    cfg.hidden_dim = HIDDEN;
    cfg.num_layers = spec.layers;
    let eg_width = cfg.eg_width;
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let snapshot_bytes = ModelSnapshot::capture(&model).to_bytes();
    Inputs {
        graph,
        features,
        snapshot_bytes,
        eg_width,
    }
}

/// Zipf over ranks `0..n` by inverse CDF (the benchmark's own, so a
/// change to the product's load generator cannot change the inputs).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The read stream: which seed the client asks for next.
///
/// Popularity rank is node id: the generator gives low ids the highest
/// expected degree, so the hot seeds are the hubs, which are also the
/// rows most write cones reach. (Under a shuffled ranking the few hottest
/// seeds were a small sample of a heavy-tailed degree distribution, and
/// the rate differed by 15% from one workload seed to the next.)
struct Reads {
    rng: StdRng,
    zipf: Option<Zipf>,
    nodes: u32,
}

impl Reads {
    fn new(spec: &ServeSpec, seed: u64) -> Self {
        Reads {
            rng: StdRng::seed_from_u64(seed ^ 0x2EAD),
            zipf: spec.zipf_rw.then(|| Zipf::new(spec.nodes, ZIPF_EXPONENT)),
            nodes: spec.nodes as u32,
        }
    }

    fn next_seed(&mut self) -> u32 {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng) as u32,
            None => self.rng.gen_range(0..self.nodes),
        }
    }
}

/// The write stream: batches that toggle one edge, tracked against the
/// live edge set so that no batch is a no-op; every fourth batch also
/// overwrites one feature row.
struct Writes {
    rng: StdRng,
    nodes: u32,
    in_dim: usize,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    batches: u64,
}

impl Writes {
    fn new(inputs: &Inputs, seed: u64) -> Self {
        let n = inputs.graph.num_nodes();
        let mut edges = Vec::with_capacity(inputs.graph.num_edges() / 2);
        for u in 0..n {
            for &v in inputs.graph.row(u).0 {
                if (u as u32) < v {
                    edges.push((u as u32, v));
                }
            }
        }
        Writes {
            rng: StdRng::seed_from_u64(seed ^ 0x3217E),
            nodes: n as u32,
            in_dim: inputs.features.cols(),
            present: edges.iter().copied().collect(),
            edges,
            batches: 0,
        }
    }

    /// Odd batches delete a live edge, even batches insert an absent one.
    fn next_batch(&mut self) -> Vec<Mutation> {
        self.batches += 1;
        let mut batch = Vec::with_capacity(2);
        if self.batches % 2 == 1 {
            let at = self.rng.gen_range(0..self.edges.len());
            let (u, v) = self.edges.swap_remove(at);
            self.present.remove(&(u, v));
            batch.push(Mutation::DeleteEdge { u, v });
        } else {
            let (u, v) = loop {
                let a = self.rng.gen_range(0..self.nodes);
                let b = self.rng.gen_range(0..self.nodes);
                let pair = (a.min(b), a.max(b));
                if a != b && !self.present.contains(&pair) {
                    break pair;
                }
            };
            self.edges.push((u, v));
            self.present.insert((u, v));
            batch.push(Mutation::InsertEdge { u, v });
        }
        if self.batches % 4 == 0 {
            let node = self.rng.gen_range(0..self.nodes);
            let values = (0..self.in_dim)
                .map(|_| self.rng.gen_range(-1.0f32..1.0))
                .collect();
            batch.push(Mutation::WriteFeature { node, values });
        }
        batch
    }
}

enum Engine {
    Frozen(Arc<InferenceEngine>),
    Dynamic(Arc<DynamicEngine>),
}

/// A started server and the engine behind it.
struct Stack {
    server: Server,
    engine: Engine,
}

/// One run of a serving workload: its shape, its generated inputs and
/// the seed its traffic streams derive from.
struct Bench<'a> {
    spec: &'a ServeSpec,
    inputs: &'a Inputs,
    seed: u64,
}

/// The product's cold-start path: snapshot decode, engine build,
/// `Server::start`. `features` is handed over by value, as the API takes it.
fn start(spec: &ServeSpec, inputs: &Inputs, features: Matrix, trace_sampling: f64) -> Stack {
    let snapshot = ModelSnapshot::from_bytes(&inputs.snapshot_bytes).expect("snapshot decodes");
    let builder = Server::builder()
        .batch_window(Duration::from_millis(2))
        .max_batch(64)
        .workers(1)
        .trace_sampling(trace_sampling);
    if spec.zipf_rw {
        let engine = Arc::new(
            DynamicEngine::new(
                &snapshot,
                &inputs.graph,
                features,
                InvalidationStrategy::DirtyCone,
            )
            .expect("engine builds"),
        );
        let server = builder
            .cache_capacity(CACHE_ROWS)
            .start(Arc::clone(&engine));
        Stack {
            server,
            engine: Engine::Dynamic(engine),
        }
    } else {
        // No seed set is small enough for the partial planner: every batch
        // is one full forward, so planner and frontier do nothing here.
        let full_only = PlanConfig {
            seed_frac_cutoff: 0.0,
            ..PlanConfig::default()
        };
        let engine = Arc::new(
            InferenceEngine::from_snapshot(&snapshot, &inputs.graph, features)
                .expect("engine builds")
                .with_plan_config(full_only),
        );
        let server = builder.start(Arc::clone(&engine));
        Stack {
            server,
            engine: Engine::Frozen(engine),
        }
    }
}

/// When the closed loop stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    AfterQueries(usize),
    AfterTime(Duration),
}

/// What one closed-loop drive observed.
#[derive(Default)]
struct Drive {
    latency_ms: Vec<f64>,
    /// Completion time of each query, seconds from the drive's start.
    done_s: Vec<f64>,
    write_ms: Vec<f64>,
    /// Heap high-water mark of each cycle, MB.
    cycle_peak_mb: Vec<f64>,
    /// Queries not answered (rejected, shed, error) plus failed writes.
    failed: u64,
    cone_nodes: u64,
    dirty_rows: u64,
    invalidated: u64,
    /// `(seed, logit row)` of the first answers, for spot checks.
    kept: Vec<(u32, Vec<f32>)>,
}

impl Drive {
    /// Answered queries per second of the whole drive, drain included.
    fn overall_qps(&self) -> f64 {
        self.done_s.len() as f64 / self.done_s[self.done_s.len() - 1]
    }
}

struct InFlight {
    seed: u32,
    index: usize,
    started: Instant,
    pending: Result<PendingQuery, maxk_serve::ServeError>,
}

fn complete(
    q: InFlight,
    start: Instant,
    window: usize,
    drive: &mut Drive,
    keep: usize,
    rec: &mut Recorder,
) {
    let response = q.pending.and_then(PendingQuery::wait);
    let done = Instant::now();
    drive.done_s.push(done.duration_since(start).as_secs_f64());
    drive
        .latency_ms
        .push(stats::ms(done.duration_since(q.started)));
    rec.record(
        "query",
        "serve",
        q.started,
        done,
        1 + (q.index % window) as u32,
    );
    match response {
        Ok(QueryResponse::Answered(a)) => {
            if drive.kept.len() < keep {
                drive.kept.push((q.seed, a.logits.row(0).to_vec()));
            }
        }
        _ => drive.failed += 1,
    }
}

/// Drives the closed loop against `handle` until `stop`, applying a write
/// batch on this thread every [`READS_PER_CYCLE`] reads when `writes` is
/// given, then drains the window.
fn drive(
    handle: &ServerHandle,
    reads: &mut Reads,
    mut writes: Option<(&DynamicEngine, &mut Writes)>,
    window: usize,
    stop: Stop,
    keep: usize,
    rec: &mut Recorder,
) -> Drive {
    let mut d = Drive::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut submitted = 0usize;
    let start = Instant::now();
    loop {
        let more = match stop {
            Stop::AfterQueries(n) => submitted < n,
            Stop::AfterTime(t) => start.elapsed() < t,
        };
        if !more {
            match inflight.pop_front() {
                Some(q) => complete(q, start, window, &mut d, keep, rec),
                None => break,
            }
            continue;
        }
        if inflight.len() == window {
            let q = inflight.pop_front().expect("window is full");
            complete(q, start, window, &mut d, keep, rec);
        }
        if submitted > 0 && submitted % READS_PER_CYCLE == 0 {
            d.cycle_peak_mb.push(alloc::take_cycle_peak_mb());
            if let Some((engine, stream)) = writes.as_mut() {
                let batch = stream.next_batch();
                let span = rec.begin("write_apply", "serve");
                let t0 = Instant::now();
                let report = engine.apply(&batch);
                d.write_ms.push(stats::ms(t0.elapsed()));
                rec.end(span);
                match report {
                    Ok(r) => {
                        d.cone_nodes += r.cone_nodes as u64;
                        d.dirty_rows += r.dirty_rows as u64;
                        d.invalidated += r.rows_invalidated;
                    }
                    Err(_) => d.failed += 1,
                }
            }
        }
        let seed = reads.next_seed();
        let started = Instant::now();
        let pending = handle.request(&[seed], QueryOptions::new());
        inflight.push_back(InFlight {
            seed,
            index: submitted,
            started,
            pending,
        });
        submitted += 1;
    }
    // The last, partial cycle and the drain.
    d.cycle_peak_mb.push(alloc::take_cycle_peak_mb());
    d
}

fn dynamic(engine: &Engine) -> Option<&DynamicEngine> {
    match engine {
        Engine::Dynamic(e) => Some(e),
        Engine::Frozen(_) => None,
    }
}

/// Warm-up plus one timed drive on a fresh server; returns the timed
/// drive, the final stats, and whatever `inspect` read off the live stack
/// after the timed region.
fn session<T>(
    bench: &Bench<'_>,
    budget: Duration,
    trace_sampling: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
    inspect: impl FnOnce(&Stack, &Drive, &Writes, &mut Outcome) -> T,
) -> (Drive, StatsSnapshot, T) {
    let Bench { spec, inputs, seed } = *bench;
    let stack = start(spec, inputs, inputs.features.clone(), trace_sampling);
    let handle = stack.server.handle();
    let mut reads = Reads::new(spec, seed);
    let mut stream = Writes::new(inputs, seed);
    let mut off = Recorder::new(false);
    let warm = drive(
        &handle,
        &mut reads,
        dynamic(&stack.engine).map(|e| (e, &mut stream)),
        spec.window,
        Stop::AfterQueries(spec.warmup_queries),
        0,
        &mut off,
    );
    // Cold start and warm-up transients were in the warm-up's last cycle;
    // what they leave live counts in the timed ones.
    let timed = drive(
        &handle,
        &mut reads,
        dynamic(&stack.engine).map(|e| (e, &mut stream)),
        spec.window,
        Stop::AfterTime(budget),
        SPOT_CHECKS,
        rec,
    );
    out.attempted += (warm.latency_ms.len() + warm.write_ms.len()) as u64;
    out.attempted += (timed.latency_ms.len() + timed.write_ms.len()) as u64;
    out.failed += warm.failed + timed.failed;
    let extra = inspect(&stack, &timed, &stream, out);
    drop(handle);
    let stats = stack.server.shutdown();
    (timed, stats, extra)
}

/// Generates the workload's inputs from `seed` and runs it.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: Option<&str>) -> Outcome {
    let inputs = generate_inputs(spec, seed);
    let mut out = Outcome::default();
    out.note(format!(
        "inputs: planted_partition nodes={} nnz={} in_dim={} arch={} layers={} hidden={HIDDEN} \
         k={K} zipf_rw={} window={}",
        inputs.graph.num_nodes(),
        inputs.graph.num_edges(),
        spec.in_dim,
        ARCH.name(),
        spec.layers,
        spec.zipf_rw,
        spec.window
    ));
    let bench = Bench {
        spec,
        inputs: &inputs,
        seed,
    };
    match trace {
        None => untraced(&bench, seconds, &mut out),
        Some(name) => traced(&bench, seconds, name, &mut out),
    }
    out
}

fn untraced(bench: &Bench<'_>, seconds: f64, out: &mut Outcome) {
    let Bench { spec, inputs, .. } = *bench;
    // Cold start to first result: snapshot decode, engine build,
    // `Server::start` and the first answered query, so work moved between
    // constructor and first call nets out.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let features = inputs.features.clone();
        let t0 = Instant::now();
        let stack = start(spec, inputs, features, 0.0);
        let first = stack.server.handle().query(&[0]);
        setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        out.failed += u64::from(!matches!(first, Ok(QueryResponse::Answered(_))));
        stack.server.shutdown();
    }
    out.set("setup_s", stats::lower_quartile(&setup_s));

    let mut off = Recorder::new(false);
    let (timed, stats, ()) = session(
        bench,
        Duration::from_secs_f64(seconds),
        0.0,
        &mut off,
        out,
        |stack, timed, stream, out| check_outputs(stack, timed, stream, inputs, out),
    );
    let fast = stats::fast_quartiles(&timed.done_s, &timed.latency_ms, spec.window);
    out.set("op_time_ms", fast.op_time_ms);
    out.set("ops_per_s", fast.ops_per_s);
    out.set("peak_heap_mb", stats::median(&timed.cycle_peak_mb));
    check_accounting(&stats, out);
    let sorted = stats::sorted(&timed.latency_ms);
    out.note(format!(
        "samples: timed_queries={} timed_writes={} cycles={} warmup_queries={} \
         cold_starts={SETUP_REPS} chunk={} cycle_peak_mb max={:.3} latency_ms p50={:.3} p99={:.3} max={:.3} qps_overall={:.2} write_apply_ms p50={:.3}",
        timed.latency_ms.len(),
        timed.write_ms.len(),
        timed.cycle_peak_mb.len(),
        spec.warmup_queries,
        fast.chunk,
        timed.cycle_peak_mb.iter().copied().fold(0.0, f64::max),
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, 99.0),
        sorted[sorted.len() - 1],
        timed.overall_qps(),
        if timed.write_ms.is_empty() {
            0.0
        } else {
            stats::median(&timed.write_ms)
        }
    ));
}

/// Output checks on the live stack, after the timed region has drained.
fn check_outputs(
    stack: &Stack,
    timed: &Drive,
    stream: &Writes,
    inputs: &Inputs,
    out: &mut Outcome,
) {
    match &stack.engine {
        Engine::Frozen(engine) => {
            // The first timed answers against the engine's own full forward.
            let all = engine.forward_all();
            let equal = timed
                .kept
                .iter()
                .filter(|(seed, row)| all.row(*seed as usize) == row.as_slice())
                .count();
            out.check(
                &format!("{equal}/{SPOT_CHECKS} spot answers bitwise equal to forward_all rows"),
                equal == SPOT_CHECKS && timed.kept.len() == SPOT_CHECKS,
            );
        }
        Engine::Dynamic(engine) => {
            // Quiescent: every write has been applied, nothing is in flight.
            let snapshot =
                ModelSnapshot::from_bytes(&inputs.snapshot_bytes).expect("snapshot decodes");
            let fresh = InferenceEngine::from_snapshot(
                &snapshot,
                &engine.current_graph(),
                engine.current_features(),
            )
            .expect("reference engine builds");
            let all = fresh.forward_all();
            let handle = stack.server.handle();
            let equal = (0..SPOT_CHECKS as u32)
                .filter(|&seed| match handle.query(&[seed]) {
                    Ok(QueryResponse::Answered(a)) => a.logits.row(0) == all.row(seed as usize),
                    _ => false,
                })
                .count();
            out.check(
                &format!(
                    "{equal}/{SPOT_CHECKS} quiescent answers bitwise equal to a from-scratch engine"
                ),
                equal == SPOT_CHECKS,
            );
            let epoch = engine.stats().epoch;
            out.check(
                &format!(
                    "final epoch {epoch} equals the {} write batches, all effective",
                    stream.batches
                ),
                epoch == stream.batches,
            );
        }
    }
}

/// Nothing refused, and the cache's books balance: every answered seed is
/// exactly one of hit, miss or coalesced.
fn check_accounting(stats: &StatsSnapshot, out: &mut Outcome) {
    out.check(
        &format!("rejected={} shed={}", stats.rejected, stats.shed),
        stats.rejected == 0 && stats.shed == 0,
    );
    if let Some(c) = &stats.cache {
        out.check(
            &format!(
                "hits {} + misses {} + coalesced {} == answered seeds {}",
                c.hits, c.misses, c.coalesced, stats.queries
            ),
            c.hits + c.misses + c.coalesced == stats.queries,
        );
    }
}

/// The traced pass: a shortened untraced session for the base rate, an
/// equally long session with the runner's spans and the server's own
/// tracing at full sampling, and the kernel replay.
fn traced(bench: &Bench<'_>, seconds: f64, name: &str, out: &mut Outcome) {
    let Bench { spec, inputs, seed } = *bench;
    let budget = Duration::from_secs_f64(seconds * 0.35);
    let mut off = Recorder::new(false);
    let (base, _, ()) = session(bench, budget, 0.0, &mut off, out, |_, _, _, _| ());
    let base_qps = base.overall_qps();

    let mut rec = Recorder::new(true);
    let (allocs0, _) = alloc::totals();
    let (timed, stats, (kernels, server_trace, allocs1)) =
        session(bench, budget, 1.0, &mut rec, out, |stack, _, _, _| {
            let (allocs1, _) = alloc::totals();
            let tel = stack.server.telemetry();
            (
                tel.map(|t| kernel_shares(&t.registry().snapshot())),
                tel.map(|t| t.chrome_trace()),
                allocs1,
            )
        });
    let queries = timed.latency_ms.len() as f64;
    let qps = timed.overall_qps();
    out.set("serve.trace_overhead_pct", 100.0 * (1.0 - qps / base_qps));
    // Warm-up queries allocate too; they are in the denominator as well.
    out.set(
        "serve.allocs_per_query",
        (allocs1 - allocs0) as f64 / (queries + spec.warmup_queries as f64),
    );

    let sorted = stats::sorted(&timed.latency_ms);
    out.set("serve.latency_p99_ms", stats::percentile(&sorted, 99.0));
    out.set("serve.latency_max_ms", sorted[sorted.len() - 1]);
    out.set("serve.rejected", stats.rejected as f64);
    out.set("serve.shed", stats.shed as f64);
    out.set("serve.mean_batch", stats.mean_batch);
    let answered = stats.queries.max(1) as f64;
    out.set(
        "serve.forwards_per_100q",
        100.0 * stats.batches as f64 / answered,
    );
    out.set(
        "serve.partial_batch_share",
        stats.partial_batches as f64 / stats.batches.max(1) as f64,
    );
    if let Some(stages) = &stats.stages {
        out.set("serve.stage_queue_wait_p50_us", stages.queue_wait.p50_us);
        out.set("serve.stage_batch_wait_p50_us", stages.batch_wait.p50_us);
        out.set("serve.stage_service_p50_us", stages.service.p50_us);
        out.set("serve.stage_e2e_p50_us", stages.e2e.p50_us);
        // What the client waited beyond the server's three stages (means,
        // which add up; medians do not).
        let staged = stages.queue_wait.mean_us + stages.batch_wait.mean_us + stages.service.mean_us;
        let client_us = stats::mean(&timed.latency_ms) * 1e3;
        out.set(
            "serve.stage_residual_pct",
            100.0 * (client_us - staged) / client_us,
        );
    }
    if let Some([l0, rest, maxk, sparse]) = kernels {
        out.set("serve.kernel_l0_linear_share", l0);
        out.set("serve.kernel_linear_rest_share", rest);
        out.set("serve.kernel_maxk_share", maxk);
        out.set("serve.kernel_sparse_share", sparse);
    }
    if let Some(c) = &stats.cache {
        out.set("serve.cache_hit_rate", c.hit_rate());
        out.set(
            "serve.cache_coalesced_per_1kq",
            1e3 * c.coalesced as f64 / answered,
        );
        out.set(
            "serve.cache_evictions_per_1kq",
            1e3 * c.evictions as f64 / answered,
        );
    }
    if !timed.write_ms.is_empty() {
        let writes = timed.write_ms.len() as f64;
        out.set("serve.write_apply_p50_ms", stats::median(&timed.write_ms));
        out.set(
            "serve.mutation_cone_nodes_mean",
            timed.cone_nodes as f64 / writes,
        );
        out.set(
            "serve.cache_invalidated_per_write",
            timed.invalidated as f64 / writes,
        );
        out.set("graph.dirty_rows_mean", timed.dirty_rows as f64 / writes);
    }
    check_accounting(&stats, out);

    let shapes = replay::Shapes {
        graph: &inputs.graph,
        arch: ARCH,
        features: &inputs.features,
        hidden: HIDDEN,
        k: K,
        eg_width: inputs.eg_width,
        seed,
    };
    let operands = replay::common(&shapes, out);
    let engine = replay::serve_engine(&shapes, &inputs.snapshot_bytes, out);
    if spec.zipf_rw {
        replay::serve_partial(&shapes, &operands, &engine, out);
    }

    out.note(format!(
        "samples: traced_queries={} traced_writes={} base_qps={base_qps:.1} traced_qps={qps:.1}",
        timed.latency_ms.len(),
        timed.write_ms.len()
    ));
    host::write_trace(name, &crate::span::chrome_trace(rec.spans()), out);
    if let Some(json) = server_trace {
        host::write_trace(&format!("{name}.server"), &json, out);
    }
}

/// Shares of the engine's kernel time, from the server's registry:
/// `[layer-0 dense_linear, other dense_linear, maxk, sparse aggregation
/// and gathers]`.
fn kernel_shares(reg: &maxk_serve::telemetry::RegistrySnapshot) -> [f64; 4] {
    let mut us = [0u64; 4];
    for s in &reg.counters {
        if s.name != "maxk_serve_kernel_time_us_total" {
            continue;
        }
        let label = |key: &str| {
            s.labels
                .iter()
                .find(|(k, _)| *k == key)
                .map_or("", |(_, v)| v.as_str())
        };
        let slot = match (label("kernel"), label("layer")) {
            ("dense_linear", "0") => 0,
            ("dense_linear", _) => 1,
            ("maxk", _) => 2,
            _ => 3,
        };
        us[slot] += s.value;
    }
    let total = us.iter().sum::<u64>().max(1) as f64;
    us.map(|v| v as f64 / total)
}
