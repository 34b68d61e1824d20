//! `serve_bench`: the full train → snapshot → serve round-trip under
//! Zipf load, comparing micro-batched serving against the
//! one-query-per-forward baseline, plus a full-vs-partial forward sweep.
//!
//! Trains a MaxK GNN on the Flickr stand-in, persists it through the
//! versioned snapshot format, reloads it into the inference engine, then
//! replays closed-loop Zipf-distributed query traffic twice — once
//! through the micro-batcher and once with batching disabled — and
//! reports throughput plus p50/p95/p99 latency for both. Results go to
//! stdout (markdown) and to a machine-readable JSON file
//! (`BENCH_serve.json` by default).
//!
//! After the batched/unbatched comparison it sweeps the **seed-level
//! logit cache** over Zipf exponents (`--cache-zipf` ×
//! `--cache-capacity`): each exponent replays the same closed-loop load
//! uncached and cached, spot-checks cached answers bitwise against the
//! engine's full forward, asserts the hit/miss/coalesced counters
//! account for every answered seed instance exactly, and writes
//! `BENCH_cache.json` (hit rate and throughput vs. exponent vs. the
//! uncached baseline). `--cache-assert` turns the Zipf ≥ 1.1 smoke
//! bounds (hit rate > 50%, cached ≥ 2x uncached) into hard failures for
//! CI; `--skip-cache` skips the sweep.
//!
//! Afterwards it sweeps seed-set sizes, timing the full-graph forward
//! against the seed-restricted partial forward per batch (verifying
//! bitwise equality at every size, and recording the corrected cost
//! model's predicted speedup next to the measured one) and writes
//! `BENCH_partial.json`; then it sweeps shard counts through the sharded
//! router (`--shards`), verifying sharded logits bitwise against the
//! single engine and recording replay throughput plus the peak per-shard
//! resident edge/feature footprint, into `BENCH_shard.json`.
//!
//! After the cache sweep it measures **telemetry overhead**
//! (`BENCH_telemetry.json`): the same closed-loop Zipf replay at trace
//! sampling 0% (metrics only), 1% and 100%, against a
//! telemetry-disabled baseline (best-of-`--telemetry-reps` throughput
//! per mode to damp scheduler noise), plus the per-stage
//! queue-wait/batch-wait/service breakdown and the per-layer kernel
//! timing totals from the instrumented runs. `--trace-out FILE` writes
//! the 100%-sampled run's Chrome `trace_event` JSON; `--telemetry-assert`
//! turns the overhead bounds (≤5% at full sampling, ≤2% at 1%) into
//! hard failures for CI; `--skip-telemetry` skips the sweep and
//! `--telemetry-off` disables telemetry everywhere else too.
//!
//! The **dynamic mutation sweep** (`BENCH_dynamic.json`) replays the
//! Zipf read stream with edge toggles and feature writes interleaved at
//! each `--dynamic-writes` rate, once under dirty-cone cache
//! invalidation and once under whole-version bumping over the identical
//! schedule; each run ends with a quiescent bitwise spot-check against
//! a from-scratch engine on the mutated graph. `--dynamic-assert`
//! requires nonzero cone invalidations and a dirty-cone hit rate
//! strictly above the bump-version baseline at every write rate;
//! `--skip-dynamic` skips the sweep.
//!
//! The **SLO/recorder sweep** (`BENCH_slo.json`) measures the incident
//! pipeline's overhead and proves its trigger lifecycle end to end: the
//! closed-loop replay runs with the SLO engine + flight recorder on and
//! off (best-of-`--slo-reps`, bound ≤2% with `--slo-assert`), the
//! open-loop generator repeats the comparison at each `--slo-offered`
//! multiple of saturation capacity, and an **incident smoke** wraps the
//! engine in a latency fault injector under an aggressive latency
//! objective: the breach must flip `/healthz` to 503, emit exactly one
//! self-contained incident bundle into `target/serve_bench_incidents/`,
//! and `/healthz` must recover once the fault clears. `--skip-slo`
//! skips the sweep.
//!
//! Finally it sweeps **offered load vs. admission policy**
//! (`--offered` multipliers of the measured full-batch saturation
//! capacity × `--admission-policies`) with the open-loop Poisson
//! generator — the closed-loop replay cannot overload the server by
//! construction — and
//! writes `BENCH_admission.json`: p50/p99, goodput, rejected/shed
//! counts and peak queue depth per point, showing that with shedding
//! p99 stays bounded and goodput plateaus past saturation while the
//! `Block` baseline's queue (and thus latency) grows with offered load.
//!
//! ```text
//! cargo run --release -p maxk-bench --bin serve_bench -- \
//!     --scale test --epochs 20 --queries 2000 --clients 8 \
//!     --partial-sizes 1,8,64 --partial-reps 5 --shards 1,2,4 \
//!     --offered 0.5,1,2,4 --admission-policies block,drop,deadline
//! ```

use maxk_bench::report::{save_json, JsonObject, JsonValue};
use maxk_bench::{Args, Table};
use maxk_graph::datasets::{Scale, TrainingDataset};
use maxk_graph::shard::ShardStrategy;
use maxk_graph::{Csr, Frontier};
use maxk_nn::plan::{full_cost, partial_cost};
use maxk_nn::snapshot::ModelSnapshot;
use maxk_nn::{train_full_batch, Activation, Arch, GnnModel, ModelConfig, TrainConfig};
use maxk_serve::{
    open_loop, replay, AdaptiveConfig, AdaptiveController, AdmissionConfig, BatchEngine,
    DynamicEngine, FairnessConfig, FaultInjector, InferenceEngine, InvalidationStrategy,
    LatencySummary, LoadConfig, LoadReport, Mutation, OpenLoopConfig, OpenLoopReport,
    OverloadPolicy, RecorderConfig, ServeConfig, Server, ShardConfig, ShardedEngine, SloConfig,
    SloSpec, SloSpecSet, StatsSnapshot, TelemetryConfig, ZipfSampler,
};
use maxk_tensor::Matrix;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scale_from(name: &str) -> Scale {
    match name {
        "test" => Scale::Test,
        "train" => Scale::Train,
        "bench" => Scale::Bench,
        other => panic!("unknown --scale {other} (test|train|bench)"),
    }
}

fn run_mode<E: BatchEngine + 'static>(
    engine: &Arc<E>,
    serve_cfg: ServeConfig,
    load_cfg: &LoadConfig,
) -> (LoadReport, StatsSnapshot) {
    let server = Server::builder()
        .config(serve_cfg)
        .start(Arc::clone(engine));
    let report = replay(&server.handle(), load_cfg).expect("replay against a live server");
    let stats = server.shutdown();
    (report, stats)
}

fn mode_json(report: &LoadReport, stats: &StatsSnapshot) -> JsonObject {
    JsonObject::new()
        .field("queries", report.queries)
        .field("throughput_qps", report.throughput_qps)
        .field("wall_s", report.wall_s)
        .field("p50_us", report.latency.p50_us)
        .field("p95_us", report.latency.p95_us)
        .field("p99_us", report.latency.p99_us)
        .field("mean_us", report.latency.mean_us)
        .field("max_us", report.latency.max_us)
        .field("batches", stats.batches)
        .field("mean_batch", stats.mean_batch)
        .field("queue_depth_peak", stats.queue_depth_peak)
}

/// Maps a CLI policy label to the admission config the sweep runs it
/// under. `block` gets an effectively unbounded queue — the point of the
/// baseline is to show queue depth (and thus latency) growing with
/// offered load, which a bounded blocking queue would instead convert
/// into submit-side stalls.
fn admission_for(label: &str, capacity: usize, deadline: Duration) -> AdmissionConfig {
    match label {
        "block" => AdmissionConfig {
            capacity: 1 << 20,
            policy: OverloadPolicy::Block,
            fairness: None,
            default_deadline: None,
            classes: None,
        },
        "reject" => AdmissionConfig {
            capacity,
            policy: OverloadPolicy::RejectNewest,
            fairness: None,
            default_deadline: None,
            classes: None,
        },
        "drop" | "drop-oldest" => AdmissionConfig {
            capacity,
            policy: OverloadPolicy::DropOldest,
            fairness: None,
            default_deadline: None,
            classes: None,
        },
        "deadline" => AdmissionConfig {
            capacity,
            policy: OverloadPolicy::DeadlineShed,
            fairness: None,
            default_deadline: Some(deadline),
            classes: None,
        },
        other => panic!("unknown admission policy {other} (block|reject|drop|deadline)"),
    }
}

/// Open-loop offered-load × admission-policy sweep.
///
/// `capacity_qps` is the measured saturation estimate
/// (`max_batch / full-batch service time`); each offered multiplier runs
/// an open-loop Poisson arrival process at `mult × capacity_qps` against
/// a fresh server under each policy. All
/// policies get the same client-side latency budget (`deadline`) so
/// goodput — answers within budget per second — is comparable; only the
/// `deadline` policy also *enforces* it server-side by shedding blown
/// queries before they cost a forward.
#[allow(clippy::too_many_arguments)]
fn admission_sweep(
    engine: &Arc<InferenceEngine>,
    serve_cfg: ServeConfig,
    capacity_qps: f64,
    policies: &[String],
    offered_mults: &[f64],
    clients: usize,
    seeds_per_query: usize,
    zipf: f64,
    open_secs: f64,
    deadline: Duration,
    admission_capacity: usize,
    fairness: Option<FairnessConfig>,
) -> (Table, Vec<JsonObject>, Vec<SweepPoint>) {
    let mut table = Table::new(vec![
        "policy",
        "offered",
        "submitted",
        "goodput q/s",
        "answered",
        "rejected",
        "shed",
        "p50",
        "p99",
        "queue peak",
    ]);
    let mut policy_rows = Vec::new();
    let mut raw_points = Vec::new();
    for policy in policies {
        let mut admission = admission_for(policy, admission_capacity, deadline);
        admission.fairness = fairness;
        // Canonical name from the policy itself, so table/JSON labels
        // stay stable however the CLI spelled it (e.g. "drop-oldest").
        let policy = admission.policy.label();
        let mut points = Vec::new();
        for &mult in offered_mults {
            let offered_qps = mult * capacity_qps;
            let server = Server::builder()
                .config(ServeConfig {
                    admission,
                    ..serve_cfg
                })
                .start(Arc::clone(engine));
            let report = open_loop(
                &server.handle(),
                &OpenLoopConfig {
                    clients,
                    offered_qps,
                    duration: Duration::from_secs_f64(open_secs),
                    seeds_per_query,
                    zipf_exponent: zipf,
                    seed: 17,
                    deadline: Some(deadline),
                },
            )
            .expect("open loop against a live server");
            let stats = server.shutdown();
            assert_eq!(
                report.submitted,
                report.answered + report.rejected + report.shed,
                "open-loop books must balance exactly"
            );
            table.row(vec![
                policy.to_string(),
                format!("{mult:.2}x"),
                report.submitted.to_string(),
                format!("{:.1}", report.goodput_qps),
                report.answered.to_string(),
                report.rejected.to_string(),
                report.shed.to_string(),
                format!("{:.0}us", report.latency.p50_us),
                format!("{:.0}us", report.latency.p99_us),
                stats.queue_depth_peak.to_string(),
            ]);
            points.push(
                JsonObject::new()
                    .field("offered_mult", mult)
                    .field("offered_qps", offered_qps)
                    .field("submitted", report.submitted)
                    .field("answered", report.answered)
                    .field("rejected", report.rejected)
                    .field("shed", report.shed)
                    .field("late_answers", report.late)
                    .field("deadline_misses", stats.deadline_misses)
                    .field("goodput_qps", report.goodput_qps)
                    .field("wall_s", report.wall_s)
                    .field("p50_us", report.latency.p50_us)
                    .field("p95_us", report.latency.p95_us)
                    .field("p99_us", report.latency.p99_us)
                    .field("max_us", report.latency.max_us)
                    .field("mean_batch", stats.mean_batch)
                    .field("queue_depth_peak", stats.queue_depth_peak),
            );
            raw_points.push(SweepPoint {
                policy: policy.to_string(),
                mult,
                p99_us: report.latency.p99_us,
                rejected: report.rejected,
                shed: report.shed,
            });
        }
        policy_rows.push(
            JsonObject::new()
                .field("policy", policy)
                .field("queue_capacity", admission.capacity)
                .field(
                    "points",
                    JsonValue::Array(points.into_iter().map(JsonValue::Object).collect()),
                ),
        );
    }
    (table, policy_rows, raw_points)
}

/// One admission sweep measurement kept in raw form for the
/// `--admission-assert` smoke checks (the JSON mirror goes to
/// `BENCH_admission.json`).
struct SweepPoint {
    policy: String,
    mult: f64,
    p99_us: f64,
    rejected: u64,
    shed: u64,
}

/// CI smoke assertions over the sweep: past saturation a shedding
/// policy must actually shed (or reject) work, and the deadline policy
/// must keep p99 within a small multiple of the latency budget — the
/// "bounded overload" property the admission layer exists for.
fn assert_admission_bounds(points: &[SweepPoint], deadline_ms: u64, offered_mults: &[f64]) {
    let top = offered_mults.iter().copied().fold(f64::MIN, f64::max);
    assert!(
        top >= 1.5,
        "--admission-assert needs an overload point (max --offered {top} < 1.5)"
    );
    for p in points {
        if p.policy == "deadline" {
            let budget_us = (deadline_ms * 1000) as f64;
            assert!(
                p.p99_us <= 5.0 * budget_us,
                "deadline policy p99 {}us at {:.1}x exceeds 5x the {}ms budget",
                p.p99_us,
                p.mult,
                deadline_ms
            );
        }
        if p.policy != "block" && p.mult >= top {
            assert!(
                p.rejected + p.shed > 0,
                "policy {} at {:.1}x offered load shed/rejected nothing — not overloaded?",
                p.policy,
                p.mult
            );
        }
    }
}

/// One adaptive-sweep measurement kept raw for the `--adaptive-assert`
/// smoke bounds (the JSON mirror goes to `BENCH_adaptive.json`).
struct AdaptivePoint {
    mult: f64,
    static_p99_us: f64,
    adaptive_p99_us: f64,
    adaptive_samples: u64,
    adaptive_ewma_us: u64,
}

/// CI smoke assertions over the adaptive sweep: the controller must
/// actually have adapted (live EWMA fed by real batches, budgets
/// derived from it), and the adaptive arm's p99 must match or beat the
/// hand-tuned static baseline at every offered load — "match" allows
/// measurement noise at underload, where neither arm sheds and the two
/// servers are behaviorally identical.
fn assert_adaptive_bounds(points: &[AdaptivePoint]) {
    for p in points {
        assert!(
            p.adaptive_samples > 0 && p.adaptive_ewma_us > 0,
            "adaptive arm at {:.1}x never observed a batch — controller not wired?",
            p.mult
        );
        let bound = p.static_p99_us * 1.25 + 2_000.0;
        assert!(
            p.adaptive_p99_us <= bound,
            "adaptive p99 {}us at {:.1}x exceeds the static baseline's {}us (bound {bound}us)",
            p.adaptive_p99_us,
            p.mult,
            p.static_p99_us
        );
    }
}

/// One SLO-sweep overhead measurement kept raw for the `--slo-assert`
/// smoke bounds (the JSON mirror goes to `BENCH_slo.json`).
struct SloOverheadPoint {
    mode: String,
    off_qps: f64,
    on_qps: f64,
    overhead_pct: f64,
}

/// What the incident smoke observed, kept raw for `--slo-assert`.
struct IncidentSmoke {
    healthz_ok_before: bool,
    healthz_degraded: bool,
    healthz_recovered: bool,
    bundles: usize,
    bundle_bytes: u64,
    breaches: u64,
}

/// CI smoke assertions over the SLO sweep: the always-on recorder + SLO
/// engine must cost ≤2% closed-loop throughput at 1x load, and the
/// injected latency fault must walk the full incident lifecycle —
/// degrade `/healthz`, emit exactly one bundle, recover.
fn assert_slo_bounds(points: &[SloOverheadPoint], smoke: &IncidentSmoke) {
    let closed = points
        .iter()
        .find(|p| p.mode == "closed_1x")
        .expect("closed-loop overhead point");
    assert!(
        closed.overhead_pct <= 2.0,
        "SLO engine + recorder cost {:.2}% closed-loop throughput (bound 2%, \
         {:.1} q/s off vs {:.1} q/s on)",
        closed.overhead_pct,
        closed.off_qps,
        closed.on_qps
    );
    assert!(smoke.healthz_ok_before, "/healthz not ok before the fault");
    assert!(
        smoke.healthz_degraded,
        "injected latency fault never degraded /healthz"
    );
    assert_eq!(
        smoke.bundles, 1,
        "sustained breach must emit exactly one incident bundle"
    );
    assert!(smoke.bundle_bytes > 0, "incident bundle is empty");
    assert!(smoke.breaches >= 1, "latency objective never breached");
    assert!(
        smoke.healthz_recovered,
        "/healthz never recovered after the fault cleared"
    );
}

/// One blocking HTTP/1.1 GET against a scrape endpoint; returns the
/// status code and body (the smoke polls `/healthz` through real TCP,
/// the same path a production probe takes).
fn http_status(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to scrape endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let code = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = buf
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

/// Static-vs-adaptive admission comparison at each offered-load
/// multiplier.
///
/// The static arm is the admission sweep's best bounded policy —
/// deadline shedding with the hand-computed queue capacity and latency
/// budget — with the same budget stamped on every query client-side.
/// The adaptive arm hand-sets *nothing*: deadline shedding over
/// [`AdmissionConfig::default`] with an [`AdaptiveConfig::default`]
/// controller attached, so queue capacity and the shedding deadline are
/// derived live from the batch-service-time EWMA. Each arm runs
/// `reps` times per point and keeps the lowest-p99 run to damp
/// scheduler noise.
#[allow(clippy::too_many_arguments)]
fn adaptive_sweep(
    engine: &Arc<InferenceEngine>,
    serve_cfg: ServeConfig,
    capacity_qps: f64,
    offered_mults: &[f64],
    clients: usize,
    seeds_per_query: usize,
    zipf: f64,
    open_secs: f64,
    deadline: Duration,
    admission_capacity: usize,
    reps: usize,
) -> (Table, Vec<JsonObject>, Vec<AdaptivePoint>) {
    let mut table = Table::new(vec![
        "mode",
        "offered",
        "submitted",
        "goodput q/s",
        "shed+rej",
        "p50",
        "p99",
        "ewma",
        "derived cap",
        "derived ddl",
    ]);
    let mut rows = Vec::new();
    let mut raw_points = Vec::new();
    let arms: [(&str, ServeConfig, Option<Duration>); 2] = [
        (
            "static",
            ServeConfig {
                admission: AdmissionConfig {
                    capacity: admission_capacity,
                    policy: OverloadPolicy::DeadlineShed,
                    default_deadline: Some(deadline),
                    ..AdmissionConfig::default()
                },
                ..serve_cfg
            },
            Some(deadline),
        ),
        (
            "adaptive",
            ServeConfig {
                admission: AdmissionConfig {
                    policy: OverloadPolicy::DeadlineShed,
                    ..AdmissionConfig::default()
                },
                adaptive: Some(AdaptiveConfig::default()),
                ..serve_cfg
            },
            None,
        ),
    ];
    for &mult in offered_mults {
        let offered_qps = mult * capacity_qps;
        let mut point = JsonObject::new()
            .field("offered_mult", mult)
            .field("offered_qps", offered_qps);
        let mut p99_by_arm = [0.0f64; 2];
        let mut adaptive_stats: Option<maxk_serve::AdaptiveSnapshot> = None;
        for (i, (label, cfg, client_deadline)) in arms.iter().enumerate() {
            let mut best: Option<(OpenLoopReport, StatsSnapshot)> = None;
            for _ in 0..reps {
                let server = Server::builder().config(*cfg).start(Arc::clone(engine));
                let report = open_loop(
                    &server.handle(),
                    &OpenLoopConfig {
                        clients,
                        offered_qps,
                        duration: Duration::from_secs_f64(open_secs),
                        seeds_per_query,
                        zipf_exponent: zipf,
                        seed: 17,
                        deadline: *client_deadline,
                    },
                )
                .expect("open loop against a live server");
                let stats = server.shutdown();
                assert_eq!(
                    report.submitted,
                    report.answered + report.rejected + report.shed,
                    "open-loop books must balance exactly"
                );
                let better = best
                    .as_ref()
                    .is_none_or(|(b, _)| report.latency.p99_us < b.latency.p99_us);
                if better {
                    best = Some((report, stats));
                }
            }
            let (report, stats) = best.expect("at least one rep per arm");
            p99_by_arm[i] = report.latency.p99_us;
            let snap = stats.adaptive;
            table.row(vec![
                label.to_string(),
                format!("{mult:.2}x"),
                report.submitted.to_string(),
                format!("{:.1}", report.goodput_qps),
                format!("{}", report.shed + report.rejected),
                format!("{:.0}us", report.latency.p50_us),
                format!("{:.0}us", report.latency.p99_us),
                snap.map_or("-".into(), |a| format!("{}us", a.ewma_us)),
                snap.map_or("-".into(), |a| a.derived_capacity.to_string()),
                snap.map_or("-".into(), |a| {
                    format!("{:.1}ms", a.derived_deadline_us as f64 / 1e3)
                }),
            ]);
            let mut arm_json = JsonObject::new()
                .field("submitted", report.submitted)
                .field("answered", report.answered)
                .field("rejected", report.rejected)
                .field("shed", report.shed)
                .field("late_answers", report.late)
                .field("goodput_qps", report.goodput_qps)
                .field("wall_s", report.wall_s)
                .field("p50_us", report.latency.p50_us)
                .field("p95_us", report.latency.p95_us)
                .field("p99_us", report.latency.p99_us)
                .field("mean_batch", stats.mean_batch)
                .field("queue_depth_peak", stats.queue_depth_peak);
            if let Some(a) = snap {
                arm_json = arm_json
                    .field("service_ewma_us", a.ewma_us)
                    .field("ewma_samples", a.samples)
                    .field("derived_capacity", a.derived_capacity)
                    .field("derived_deadline_us", a.derived_deadline_us)
                    .field("replans", a.replans);
                adaptive_stats = Some(a);
            }
            point = point.field(label, arm_json);
        }
        point = point.field("p99_ratio", p99_by_arm[1] / p99_by_arm[0].max(1.0));
        rows.push(point);
        let a = adaptive_stats.expect("adaptive arm reports controller gauges");
        raw_points.push(AdaptivePoint {
            mult,
            static_p99_us: p99_by_arm[0],
            adaptive_p99_us: p99_by_arm[1],
            adaptive_samples: a.samples,
            adaptive_ewma_us: a.ewma_us,
        });
    }
    (table, rows, raw_points)
}

/// One cache-sweep measurement kept raw for the `--cache-assert` smoke
/// bounds (the JSON mirror goes to `BENCH_cache.json`).
struct CachePoint {
    zipf: f64,
    hit_rate: f64,
    speedup: f64,
}

/// Seed-level logit-cache sweep over Zipf exponents.
///
/// For each exponent, replays the same closed-loop Zipf load twice —
/// once uncached and once with the cache at `cache_capacity` rows —
/// then spot-checks a seed sample *through the cached server* bitwise
/// against the engine's reference full forward, and asserts the cache
/// counter identity: every answered seed instance is exactly one of
/// hit / miss / coalesced.
#[allow(clippy::too_many_arguments)]
fn cache_sweep(
    engine: &Arc<InferenceEngine>,
    reference: &Matrix,
    serve_cfg: ServeConfig,
    cache_capacity: usize,
    zipf_exponents: &[f64],
    clients: usize,
    queries_per_client: usize,
    seeds_per_query: usize,
) -> (Table, Vec<JsonObject>, Vec<CachePoint>) {
    let n = engine.num_nodes();
    let mut table = Table::new(vec![
        "zipf",
        "uncached q/s",
        "cached q/s",
        "speedup",
        "hit rate",
        "hits",
        "misses",
        "coalesced",
        "evictions",
        "cached queries",
    ]);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &zipf in zipf_exponents {
        let load = LoadConfig {
            clients,
            queries_per_client,
            seeds_per_query,
            zipf_exponent: zipf,
            seed: 11,
        };
        let (uncached, uncached_stats) = run_mode(engine, serve_cfg, &load);
        let server = Server::builder()
            .config(serve_cfg)
            .cache_capacity(cache_capacity)
            .start(Arc::clone(engine));
        let cached = replay(&server.handle(), &load).expect("replay against a live server");
        // Bitwise spot check through the cache path: after the replay the
        // hot seeds are resident, so this exercises cached rows, not just
        // fresh forwards.
        let handle = server.handle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sample = sample_seeds(n, 32.min(n), &mut rng);
        let mut verified = 0u64;
        for &s in &sample {
            let answer = handle
                .query(&[s])
                .expect("live server")
                .into_answer()
                .expect("Block admission answers every valid query");
            assert_eq!(
                answer.logits.row(0),
                reference.row(s as usize),
                "cached serving diverged from the reference at seed {s} (zipf {zipf})"
            );
            verified += 1;
        }
        let stats = server.shutdown();
        let cache = stats.cache.expect("cache enabled");
        // Counter identity (acceptance criterion): replay answered
        // `cached.queries` queries of `seeds_per_query` seeds each, plus
        // `verified` one-seed checks — every instance accounted exactly
        // once.
        let answered_instances = cached.queries * seeds_per_query as u64 + verified;
        assert_eq!(
            cache.hits + cache.misses + cache.coalesced,
            answered_instances,
            "cache counters must account every answered seed instance (zipf {zipf})"
        );
        let speedup = cached.throughput_qps / uncached.throughput_qps;
        table.row(vec![
            format!("{zipf:.2}"),
            format!("{:.1}", uncached.throughput_qps),
            format!("{:.1}", cached.throughput_qps),
            maxk_bench::report::fmt_speedup(speedup),
            format!("{:.1}%", cache.hit_rate() * 100.0),
            cache.hits.to_string(),
            cache.misses.to_string(),
            cache.coalesced.to_string(),
            cache.evictions.to_string(),
            stats.cached_queries.to_string(),
        ]);
        rows.push(
            JsonObject::new()
                .field("zipf_exponent", zipf)
                .field("uncached", mode_json(&uncached, &uncached_stats))
                .field(
                    "cached",
                    mode_json(&cached, &stats)
                        .field("cached_queries", stats.cached_queries)
                        .field("hits", cache.hits)
                        .field("misses", cache.misses)
                        .field("coalesced", cache.coalesced)
                        .field("evictions", cache.evictions)
                        .field("resident_rows", cache.resident_rows)
                        .field("resident_bytes", cache.resident_bytes)
                        .field("hit_rate", cache.hit_rate()),
                )
                .field("throughput_speedup", speedup)
                .field("bitwise_equal", true)
                .field("counters_exact", true),
        );
        points.push(CachePoint {
            zipf,
            hit_rate: cache.hit_rate(),
            speedup,
        });
    }
    (table, rows, points)
}

/// CI smoke bounds over the cache sweep, applied at Zipf ≥ 1.1 (below
/// that, traffic is too flat for a bounded cache to pay): the hit rate
/// must clear 50% and cached throughput must be at least 2x uncached.
fn assert_cache_bounds(points: &[CachePoint]) {
    assert!(
        points.iter().any(|p| p.zipf >= 1.1),
        "--cache-assert needs a --cache-zipf point >= 1.1"
    );
    for p in points.iter().filter(|p| p.zipf >= 1.1) {
        assert!(
            p.hit_rate > 0.5,
            "cache hit rate {:.1}% at zipf {} below the 50% smoke bound",
            p.hit_rate * 100.0,
            p.zipf
        );
        assert!(
            p.speedup >= 2.0,
            "cached throughput {:.2}x uncached at zipf {} below the 2x smoke bound",
            p.speedup,
            p.zipf
        );
    }
}

/// One mixed read/write run of the dynamic sweep under a single
/// invalidation strategy.
struct DynamicRun {
    hit_rate: f64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    invalidated: u64,
    evictions: u64,
    epoch: u64,
    throughput_qps: f64,
    answered: u64,
}

/// Both strategies at one write rate, kept raw for `--dynamic-assert`.
struct DynamicPoint {
    write_rate: f64,
    dirty: DynamicRun,
    bump: DynamicRun,
}

/// A deterministic mutation schedule over `base`: every batch toggles
/// one random edge (tracked against the evolving edge set, so every
/// toggle is effective — never a no-op), and every fourth batch also
/// overwrites one random feature row. Both strategies replay the exact
/// same schedule so their cache behavior is directly comparable.
fn dynamic_mutation_plan(
    base: &Csr,
    batches: usize,
    in_dim: usize,
    seed: u64,
) -> Vec<Vec<Mutation>> {
    let n = base.num_nodes() as u32;
    let mut present = std::collections::BTreeSet::new();
    for i in 0..base.num_nodes() {
        let (cols, _) = base.row(i);
        for &j in cols {
            present.insert(((i as u32).min(j), (i as u32).max(j)));
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut plan = Vec::with_capacity(batches);
    for b in 0..batches {
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n);
        while v == u {
            v = rng.gen_range(0..n);
        }
        let key = (u.min(v), u.max(v));
        let edge = if present.remove(&key) {
            Mutation::DeleteEdge { u: key.0, v: key.1 }
        } else {
            present.insert(key);
            Mutation::InsertEdge { u: key.0, v: key.1 }
        };
        let mut batch = vec![edge];
        if b % 4 == 3 {
            let node = rng.gen_range(0..n);
            let values = (0..in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            batch.push(Mutation::WriteFeature { node, values });
        }
        plan.push(batch);
    }
    plan
}

/// One strategy's mixed read/write loop: a cached server over a
/// [`DynamicEngine`], single-seed Zipf queries issued sequentially with
/// one mutation batch applied every `interval` queries, then a
/// quiescent bitwise spot-check against a from-scratch engine rebuilt
/// on the mutated graph and features.
#[allow(clippy::too_many_arguments)]
fn dynamic_run(
    snapshot: &ModelSnapshot,
    base: &Csr,
    features: Matrix,
    serve_cfg: ServeConfig,
    cache_capacity: usize,
    strategy: InvalidationStrategy,
    plan: &[Vec<Mutation>],
    queries: usize,
    interval: usize,
    zipf: f64,
) -> DynamicRun {
    let engine = Arc::new(
        DynamicEngine::new(snapshot, base, features, strategy)
            .expect("dynamic engine over the bench graph"),
    );
    let server = Server::builder()
        .config(serve_cfg)
        .cache_capacity(cache_capacity)
        .start(Arc::clone(&engine));
    let handle = server.handle();
    let n = engine.num_nodes();
    let sampler = ZipfSampler::new(n, zipf);
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let mut next_batch = 0usize;
    let t0 = Instant::now();
    for q in 0..queries {
        if q % interval == 0 && next_batch < plan.len() {
            engine
                .apply(&plan[next_batch])
                .expect("mutation batch applies cleanly");
            next_batch += 1;
        }
        let seed = sampler.sample(&mut rng) as u32;
        handle
            .query(&[seed])
            .expect("live server")
            .into_answer()
            .expect("Block admission answers every valid query");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Quiescent exactness: the incrementally maintained engine must
    // answer bitwise-identically to one built from scratch on the
    // mutated graph — through the cache path, at the final epoch.
    let rebuilt = InferenceEngine::from_snapshot(
        snapshot,
        &engine.current_graph(),
        engine.current_features(),
    )
    .expect("from-scratch rebuild of the mutated graph");
    let reference = rebuilt.forward_all();
    let final_epoch = engine.stats().epoch;
    let mut check_rng = rand::rngs::StdRng::seed_from_u64(31);
    let sample = sample_seeds(n, 16.min(n), &mut check_rng);
    for &s in &sample {
        let answer = handle
            .query(&[s])
            .expect("live server")
            .into_answer()
            .expect("Block admission answers every valid query");
        assert_eq!(
            answer.logits.row(0),
            reference.row(s as usize),
            "dynamic serving diverged from a from-scratch rebuild at seed {s} ({strategy:?})"
        );
        assert_eq!(
            answer.epoch, final_epoch,
            "quiescent answer must carry the final epoch ({strategy:?})"
        );
    }
    let stats = server.shutdown();
    let cache = stats.cache.expect("cache enabled");
    // Counter identity: every answered seed instance (all queries are
    // single-seed) is exactly one of hit / miss / coalesced.
    assert_eq!(
        cache.hits + cache.misses + cache.coalesced,
        stats.queries,
        "cache counters must account every answered seed instance ({strategy:?})"
    );
    DynamicRun {
        hit_rate: cache.hit_rate(),
        hits: cache.hits,
        misses: cache.misses,
        coalesced: cache.coalesced,
        invalidated: cache.invalidated,
        evictions: cache.evictions,
        epoch: final_epoch,
        throughput_qps: queries as f64 / elapsed,
        answered: stats.queries,
    }
}

fn dynamic_run_json(r: &DynamicRun) -> JsonObject {
    JsonObject::new()
        .field("throughput_qps", r.throughput_qps)
        .field("hit_rate", r.hit_rate)
        .field("hits", r.hits)
        .field("misses", r.misses)
        .field("coalesced", r.coalesced)
        .field("invalidated", r.invalidated)
        .field("evictions", r.evictions)
        .field("final_epoch", r.epoch)
        .field("answered", r.answered)
}

/// Mixed read/write sweep over write rates (mutation batches per
/// query): for each rate, runs the identical query + mutation schedule
/// under [`InvalidationStrategy::DirtyCone`] and
/// [`InvalidationStrategy::BumpVersion`] and records cache behavior —
/// the dirty cone keeps rows outside the mutation's reverse L-hop cone
/// warm, where the version bump cold-starts the entire cache every
/// batch.
#[allow(clippy::too_many_arguments)]
fn dynamic_sweep(
    snapshot: &ModelSnapshot,
    base: &Csr,
    raw_features: &[f32],
    in_dim: usize,
    serve_cfg: ServeConfig,
    cache_capacity: usize,
    write_rates: &[f64],
    queries: usize,
    zipf: f64,
) -> (Table, Vec<JsonObject>, Vec<DynamicPoint>) {
    let mut table = Table::new(vec![
        "writes/query",
        "strategy",
        "q/s",
        "hit rate",
        "hits",
        "misses",
        "invalidated",
        "evictions",
        "epoch",
    ]);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &write_rate in write_rates {
        assert!(
            write_rate > 0.0 && write_rate <= 1.0,
            "--dynamic-writes entries must be in (0, 1]"
        );
        let interval = (1.0 / write_rate).round().max(1.0) as usize;
        let batches = queries.div_ceil(interval);
        let plan = dynamic_mutation_plan(base, batches, in_dim, 97);
        let mut runs = Vec::new();
        for strategy in [
            InvalidationStrategy::DirtyCone,
            InvalidationStrategy::BumpVersion,
        ] {
            let features = Matrix::from_vec(base.num_nodes(), in_dim, raw_features.to_vec())
                .expect("bench features");
            let run = dynamic_run(
                snapshot,
                base,
                features,
                serve_cfg,
                cache_capacity,
                strategy,
                &plan,
                queries,
                interval,
                zipf,
            );
            table.row(vec![
                format!("{write_rate:.3}"),
                match strategy {
                    InvalidationStrategy::DirtyCone => "dirty_cone".into(),
                    InvalidationStrategy::BumpVersion => "bump_version".into(),
                },
                format!("{:.1}", run.throughput_qps),
                format!("{:.1}%", run.hit_rate * 100.0),
                run.hits.to_string(),
                run.misses.to_string(),
                run.invalidated.to_string(),
                run.evictions.to_string(),
                run.epoch.to_string(),
            ]);
            runs.push(run);
        }
        let bump = runs.pop().expect("bump run recorded");
        let dirty = runs.pop().expect("dirty run recorded");
        rows.push(
            JsonObject::new()
                .field("write_rate", write_rate)
                .field("mutation_interval_queries", interval)
                .field("mutation_batches", batches)
                .field("dirty_cone", dynamic_run_json(&dirty))
                .field("bump_version", dynamic_run_json(&bump))
                .field("hit_rate_advantage", dirty.hit_rate - bump.hit_rate)
                .field("bitwise_equal", true),
        );
        points.push(DynamicPoint {
            write_rate,
            dirty,
            bump,
        });
    }
    (table, rows, points)
}

/// CI smoke bounds over the dynamic sweep: dirty-cone invalidation must
/// actually drop resident rows (the cone reaches cached seeds), and at
/// every write rate it must retain a strictly higher hit rate than
/// whole-version bumping over the identical schedule.
fn assert_dynamic_bounds(points: &[DynamicPoint]) {
    for p in points {
        assert!(
            p.dirty.invalidated > 0,
            "dirty-cone run at write rate {} invalidated no cache rows",
            p.write_rate
        );
        assert!(
            p.dirty.hit_rate > p.bump.hit_rate,
            "dirty-cone hit rate {:.1}% did not beat bump-version {:.1}% at write rate {}",
            p.dirty.hit_rate * 100.0,
            p.bump.hit_rate * 100.0,
            p.write_rate
        );
    }
}

/// One instrumented replay for the telemetry sweep: the load report,
/// final stats, per-layer kernel counter rows, the summed
/// kernel-vs-forward wall time, and (optionally) the Chrome trace.
struct TelemetrySample {
    report: LoadReport,
    stats: StatsSnapshot,
    kernels: Vec<JsonObject>,
    kernel_us: u64,
    forward_us: u64,
    trace: Option<String>,
}

/// Replays `load_cfg` once under `serve_cfg` and drains the telemetry
/// hub (registry counters, optional Chrome trace) before shutdown.
fn telemetry_mode_run(
    engine: &Arc<InferenceEngine>,
    serve_cfg: ServeConfig,
    load_cfg: &LoadConfig,
    capture_trace: bool,
) -> TelemetrySample {
    let server = Server::builder()
        .config(serve_cfg)
        .start(Arc::clone(engine));
    let report = replay(&server.handle(), load_cfg).expect("replay against a live server");
    let mut kernels = Vec::new();
    let mut kernel_us = 0u64;
    let mut forward_us = 0u64;
    let mut trace = None;
    if let Some(tel) = server.telemetry() {
        let reg = tel.registry().snapshot();
        for s in &reg.counters {
            let label = |k: &str| {
                s.labels
                    .iter()
                    .find(|(n, _)| *n == k)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            };
            match s.name {
                "maxk_serve_kernel_time_us_total" => {
                    kernel_us += s.value;
                    kernels.push(
                        JsonObject::new()
                            .field("path", label("path"))
                            .field("layer", label("layer"))
                            .field("kernel", label("kernel"))
                            .field("time_us", s.value),
                    );
                }
                "maxk_serve_forward_time_us_total" => forward_us += s.value,
                _ => {}
            }
        }
        if capture_trace {
            trace = Some(tel.chrome_trace());
        }
    }
    let stats = server.shutdown();
    TelemetrySample {
        report,
        stats,
        kernels,
        kernel_us,
        forward_us,
        trace,
    }
}

/// One stage summary as JSON (count plus the latency quantiles).
fn summary_json(s: &LatencySummary) -> JsonObject {
    JsonObject::new()
        .field("count", s.count)
        .field("mean_us", s.mean_us)
        .field("p50_us", s.p50_us)
        .field("p95_us", s.p95_us)
        .field("p99_us", s.p99_us)
        .field("max_us", s.max_us)
}

/// Distinct uniform-random seed ids.
fn sample_seeds(n: usize, count: usize, rng: &mut rand::rngs::StdRng) -> Vec<u32> {
    let mut seeds = Vec::with_capacity(count);
    while seeds.len() < count {
        let s = rng.gen_range(0..n) as u32;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
}

/// Full-vs-partial per-batch latency sweep across seed-set sizes.
///
/// For each size: verifies the partial logits are bitwise equal to the
/// full ones, then times `reps` repetitions of both paths and records the
/// frontier geometry plus which path the engine's planner would pick.
fn partial_sweep(
    engine: &InferenceEngine,
    num_layers: usize,
    num_edges: usize,
    sizes: &[usize],
    reps: usize,
) -> (Table, Vec<JsonObject>) {
    let n = engine.num_nodes();
    let costs = engine.layer_costs();
    let modelled_full = full_cost(n, engine.context().adj.num_edges(), costs);
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut table = Table::new(vec![
        "seeds",
        "frontier nodes",
        "edge work",
        "full/batch",
        "partial/batch",
        "speedup",
        "predicted",
        "planner",
    ]);
    let mut rows = Vec::new();
    for &size in sizes {
        let size = size.min(n);
        let seeds = sample_seeds(n, size, &mut rng);
        let frontier = Frontier::reverse_hops(&engine.context().adj, &seeds, num_layers)
            .expect("seeds in range");
        let predicted = modelled_full / partial_cost(&frontier, costs);
        let full = engine.logits_full(&seeds).expect("full forward");
        let partial = engine.logits_partial(&seeds).expect("partial forward");
        let bitwise_equal = full == partial;
        assert!(bitwise_equal, "partial logits diverged at {size} seeds");
        let time = |f: &dyn Fn() -> Matrix| {
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            t0.elapsed().as_secs_f64() / reps as f64
        };
        let full_s = time(&|| engine.logits_full(&seeds).expect("full forward"));
        let partial_s = time(&|| engine.logits_partial(&seeds).expect("partial forward"));
        let speedup = full_s / partial_s;
        let picks_partial = engine
            .plan_for(&seeds)
            .expect("seeds in range")
            .is_partial();
        table.row(vec![
            size.to_string(),
            frontier.inputs().len().to_string(),
            frontier.edge_work().to_string(),
            maxk_bench::report::fmt_time(full_s),
            maxk_bench::report::fmt_time(partial_s),
            maxk_bench::report::fmt_speedup(speedup),
            maxk_bench::report::fmt_speedup(predicted),
            if picks_partial { "partial" } else { "full" }.to_string(),
        ]);
        rows.push(
            JsonObject::new()
                .field("seeds", size)
                .field("seed_frac", size as f64 / n as f64)
                .field("frontier_nodes", frontier.inputs().len())
                .field("frontier_edge_work", frontier.edge_work())
                .field("full_edge_work", num_layers * num_edges)
                .field("full_ms", full_s * 1e3)
                .field("partial_ms", partial_s * 1e3)
                .field("speedup", speedup)
                // Modelled full/partial cost ratio from the corrected
                // plan heuristic (dense-linear rows + aggregation edge
                // work): should track the measured speedup, unlike the
                // old edge-only ratio (full_edge_work /
                // frontier_edge_work) that overstated wins ~2x near
                // frontier saturation.
                .field("predicted_speedup", predicted)
                .field("bitwise_equal", bitwise_equal)
                .field("planner_picks_partial", picks_partial),
        );
    }
    (table, rows)
}

/// Sharded-serving sweep: for each shard count, build a [`ShardedEngine`]
/// over the snapshot, verify a seed sample bitwise against the unsharded
/// engine, replay the same Zipf load through the micro-batching server,
/// and record throughput plus the peak per-shard resident edge/feature
/// footprint (the memory-scaling win sharding buys).
#[allow(clippy::too_many_arguments)]
fn shard_sweep(
    engine: &Arc<InferenceEngine>,
    snapshot: &ModelSnapshot,
    graph: &maxk_graph::Csr,
    features: &Matrix,
    shard_counts: &[usize],
    strategy: ShardStrategy,
    serve_cfg: ServeConfig,
    load_cfg: &LoadConfig,
) -> (Table, Vec<JsonObject>, f64) {
    let n = graph.num_nodes();
    let mut rng = rand::rngs::StdRng::seed_from_u64(123);
    let check_seeds = sample_seeds(n, 64.min(n), &mut rng);
    let reference = engine
        .logits_full(&check_seeds)
        .expect("reference logits for the bitwise check");

    // The unsharded reference replay, same serve/load config.
    let (unsharded, _) = run_mode(engine, serve_cfg, load_cfg);
    let mut table = Table::new(vec![
        "shards",
        "q/s",
        "vs unsharded",
        "p50",
        "p99",
        "peak edges",
        "peak feat rows",
        "peak ghosts",
    ]);
    let mut rows = Vec::new();
    for &s in shard_counts {
        let t0 = Instant::now();
        let sharded = Arc::new(
            ShardedEngine::from_snapshot(
                snapshot,
                graph,
                features,
                ShardConfig {
                    num_shards: s,
                    strategy,
                },
            )
            .expect("sharding a served graph"),
        );
        let build_s = t0.elapsed().as_secs_f64();
        let got = sharded.logits_for(&check_seeds).expect("sharded logits");
        assert_eq!(
            got, reference,
            "sharded logits diverged from the single engine at S={s}"
        );
        let (report, stats) = run_mode(&sharded, serve_cfg, load_cfg);
        let ratio = report.throughput_qps / unsharded.throughput_qps;
        let infos: Vec<_> = (0..s).map(|i| sharded.shard_info(i)).collect();
        let peak_edges = infos.iter().map(|i| i.resident_edges).max().unwrap_or(0);
        let peak_rows = infos.iter().map(|i| i.feature_rows).max().unwrap_or(0);
        let peak_ghosts = infos.iter().map(|i| i.ghost_nodes).max().unwrap_or(0);
        table.row(vec![
            s.to_string(),
            format!("{:.1}", report.throughput_qps),
            maxk_bench::report::fmt_speedup(ratio),
            format!("{:.0}us", report.latency.p50_us),
            format!("{:.0}us", report.latency.p99_us),
            peak_edges.to_string(),
            peak_rows.to_string(),
            peak_ghosts.to_string(),
        ]);
        let per_shard: Vec<JsonValue> = infos
            .iter()
            .enumerate()
            .map(|(i, info)| {
                JsonValue::Object(
                    JsonObject::new()
                        .field("shard", i)
                        .field("owned_nodes", info.owned_nodes)
                        .field("ghost_nodes", info.ghost_nodes)
                        .field("feature_rows", info.feature_rows)
                        .field("resident_edges", info.resident_edges)
                        .field("batches", stats.shard_batches.get(i).copied().unwrap_or(0))
                        .field(
                            "partial_batches",
                            stats.shard_partial_batches.get(i).copied().unwrap_or(0),
                        ),
                )
            })
            .collect();
        rows.push(
            JsonObject::new()
                .field("num_shards", s)
                .field("build_s", build_s)
                .field("bitwise_equal", got == reference)
                .field("throughput_qps", report.throughput_qps)
                .field("throughput_vs_unsharded", ratio)
                .field("p50_us", report.latency.p50_us)
                .field("p95_us", report.latency.p95_us)
                .field("p99_us", report.latency.p99_us)
                .field("mean_batch", stats.mean_batch)
                .field("peak_resident_edges", peak_edges)
                .field("peak_feature_rows", peak_rows)
                .field("peak_ghost_nodes", peak_ghosts)
                .field(
                    "total_resident_edges",
                    infos.iter().map(|i| i.resident_edges).sum::<usize>(),
                )
                .field(
                    "total_feature_rows",
                    infos.iter().map(|i| i.feature_rows).sum::<usize>(),
                )
                .field("per_shard", JsonValue::Array(per_shard)),
        );
    }
    (table, rows, unsharded.throughput_qps)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env();
    let scale_name = args.get_str("scale", "test");
    let scale = scale_from(&scale_name);
    let epochs = args.get("epochs", 20usize);
    let hidden = args.get("hidden", 64usize);
    let k = args.get("k", 16usize);
    let layers = args.get("layers", 3usize);
    let clients = args.get("clients", 8usize);
    let queries = args.get("queries", 2000usize);
    let window_us = args.get("window-us", 2000u64);
    let max_batch = args.get("max-batch", 64usize);
    let workers = args.get("workers", 2usize);
    let seeds_per_query = args.get("seeds-per-query", 1usize);
    let zipf = args.get("zipf", 1.1f64);
    let out_path = args.get_str("out", "BENCH_serve.json");
    let skip_cache = args.flag("skip-cache");
    let cache_assert = args.flag("cache-assert");
    let cache_capacity = args.get("cache-capacity", 4096usize);
    let cache_zipfs: Vec<f64> = args
        .get_list("cache-zipf", &["0.8", "1.1", "1.4"])
        .iter()
        .map(|s| s.parse().expect("numeric --cache-zipf entry"))
        .collect();
    let cache_out = args.get_str("cache-out", "BENCH_cache.json");
    let skip_telemetry = args.flag("skip-telemetry");
    let telemetry_off = args.flag("telemetry-off");
    let telemetry_assert = args.flag("telemetry-assert");
    let telemetry_reps = args.get("telemetry-reps", 3usize).max(1);
    let telemetry_out = args.get_str("telemetry-out", "BENCH_telemetry.json");
    let trace_out = args.get_str("trace-out", "");
    let partial_reps = args.get("partial-reps", 5usize);
    let partial_out = args.get_str("partial-out", "BENCH_partial.json");
    let partial_sizes: Vec<usize> = args
        .get_list("partial-sizes", &[])
        .iter()
        .map(|s| s.parse().expect("numeric --partial-sizes entry"))
        .collect();
    let shard_counts: Vec<usize> = args
        .get_list("shards", &["1", "2", "4"])
        .iter()
        .map(|s| s.parse().expect("numeric --shards entry"))
        .collect();
    let shard_strategy = match args.get_str("shard-strategy", "degree").as_str() {
        "degree" => ShardStrategy::DegreeBalanced,
        "contiguous" => ShardStrategy::Contiguous,
        other => panic!("unknown --shard-strategy {other} (degree|contiguous)"),
    };
    let shard_out = args.get_str("shard-out", "BENCH_shard.json");
    let shard_graph = args.get_str("shard-graph", "community");
    let shard_communities = args.get("shard-communities", 8usize);
    let shard_homophily = args.get("shard-homophily", 0.9f64);
    let skip_admission = args.flag("skip-admission");
    let admission_assert = args.flag("admission-assert");
    let offered_mults: Vec<f64> = args
        .get_list("offered", &["0.5", "1", "2", "4"])
        .iter()
        .map(|s| s.parse().expect("numeric --offered entry"))
        .collect();
    let admission_policies: Vec<String> =
        args.get_list("admission-policies", &["block", "drop", "deadline"]);
    let open_secs = args.get("open-secs", 2.0f64);
    // 0 = auto: derived from the measured full-batch service time.
    let deadline_ms = args.get("deadline-ms", 0u64);
    let admission_capacity = args.get("admission-capacity", 256usize);
    let fair_rate = args.get("fair-rate", 0.0f64);
    let fair_burst = args.get("fair-burst", 8.0f64);
    let admission_out = args.get_str("admission-out", "BENCH_admission.json");
    let skip_adaptive = args.flag("skip-adaptive");
    let adaptive_assert = args.flag("adaptive-assert");
    let adaptive_reps = args.get("adaptive-reps", 2usize).max(1);
    let adaptive_out = args.get_str("adaptive-out", "BENCH_adaptive.json");
    let skip_dynamic = args.flag("skip-dynamic");
    let dynamic_assert = args.flag("dynamic-assert");
    let dynamic_writes: Vec<f64> = args
        .get_list("dynamic-writes", &["0.05", "0.2"])
        .iter()
        .map(|s| s.parse().expect("numeric --dynamic-writes entry"))
        .collect();
    // 0 = reuse --queries for each strategy's mixed read/write loop.
    let dynamic_queries = args.get("dynamic-queries", 0usize);
    let dynamic_out = args.get_str("dynamic-out", "BENCH_dynamic.json");
    let skip_slo = args.flag("skip-slo");
    let slo_assert = args.flag("slo-assert");
    let slo_reps = args.get("slo-reps", 3usize).max(1);
    let slo_offered: Vec<f64> = args
        .get_list("slo-offered", &["1", "4"])
        .iter()
        .map(|s| s.parse().expect("numeric --slo-offered entry"))
        .collect();
    let slo_out = args.get_str("slo-out", "BENCH_slo.json");

    // Telemetry default for every server this binary starts:
    // `--telemetry-off` strips even the always-on metrics (the sweep in
    // section 5c still builds its own per-mode configs explicitly).
    let serve_base = ServeConfig {
        telemetry: if telemetry_off {
            TelemetryConfig::off()
        } else {
            TelemetryConfig::default()
        },
        ..ServeConfig::default()
    };

    // 1. Train.
    let data = TrainingDataset::Flickr.generate(scale, 42)?;
    let mut cfg = ModelConfig::new(
        Arch::Sage,
        Activation::MaxK(k),
        data.in_dim,
        data.num_classes,
    );
    cfg.hidden_dim = hidden;
    cfg.dropout = 0.2;
    cfg.num_layers = layers;
    println!(
        "training SAGE+MaxK({k}) on Flickr/{scale_name}: {} nodes, {} edges, {epochs} epochs",
        data.csr.num_nodes(),
        data.csr.num_edges()
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = GnnModel::new(cfg, &data.csr, &mut rng);
    let result = train_full_batch(
        &mut model,
        &data,
        &TrainConfig {
            epochs,
            lr: 0.01,
            seed: 1,
            eval_every: epochs.max(1),
        },
    );
    println!(
        "trained: test {} {:.4}, {:.1} ms/epoch",
        result.metric_name,
        result.best_test_metric,
        result.epoch_time_s * 1e3
    );

    // 2. Snapshot round-trip through disk.
    std::fs::create_dir_all("target")?;
    let snap_path = "target/serve_bench_model.snap";
    ModelSnapshot::capture(&model).save(snap_path)?;
    let snapshot = ModelSnapshot::load(snap_path)?;
    println!(
        "snapshot round-trip via {snap_path}: {} params",
        snapshot.num_params()
    );

    // 3. Inference engine (per-graph normalization cached here).
    let features = Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone())?;
    let engine = Arc::new(InferenceEngine::from_snapshot(
        &snapshot, &data.csr, features,
    )?);
    let reloaded_eval = engine.forward_all();
    let direct_eval = model.forward(
        &Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone())?,
        false,
        &mut rng,
    );
    assert_eq!(
        reloaded_eval, direct_eval,
        "snapshot reload must preserve logits bitwise"
    );

    // 4. Load replay: batched, then the one-query-per-forward baseline.
    let batched_load = LoadConfig {
        clients,
        queries_per_client: queries.div_ceil(clients),
        seeds_per_query,
        zipf_exponent: zipf,
        seed: 7,
    };
    let (batched, batched_stats) = run_mode(
        &engine,
        ServeConfig {
            batch_window: Duration::from_micros(window_us),
            max_batch,
            workers,
            ..serve_base
        },
        &batched_load,
    );
    println!(
        "batched: {} queries, {:.1} q/s, mean batch {:.1}",
        batched.queries, batched.throughput_qps, batched_stats.mean_batch
    );

    let unbatched_load = LoadConfig {
        queries_per_client: (queries / 8).max(8).div_ceil(clients),
        ..batched_load
    };
    let (unbatched, unbatched_stats) = run_mode(
        &engine,
        ServeConfig {
            batch_window: Duration::ZERO,
            max_batch: 1,
            workers,
            ..serve_base
        },
        &unbatched_load,
    );
    println!(
        "unbatched: {} queries, {:.1} q/s",
        unbatched.queries, unbatched.throughput_qps
    );

    // 5. Report.
    let speedup = batched.throughput_qps / unbatched.throughput_qps;
    let mut table = Table::new(vec![
        "mode",
        "queries",
        "q/s",
        "p50",
        "p95",
        "p99",
        "mean batch",
    ]);
    for (name, report, stats) in [
        ("batched", &batched, &batched_stats),
        ("unbatched", &unbatched, &unbatched_stats),
    ] {
        table.row(vec![
            name.into(),
            report.queries.to_string(),
            format!("{:.1}", report.throughput_qps),
            format!("{:.0}us", report.latency.p50_us),
            format!("{:.0}us", report.latency.p95_us),
            format!("{:.0}us", report.latency.p99_us),
            format!("{:.1}", stats.mean_batch),
        ]);
    }
    table.print();
    println!("batched vs unbatched throughput: {speedup:.2}x");

    let json = JsonObject::new()
        .field("bench", "serve")
        .field("dataset", "Flickr")
        .field("scale", scale_name.as_str())
        .field("nodes", data.csr.num_nodes())
        .field("edges", data.csr.num_edges())
        .field("arch", "SAGE")
        .field("k", k)
        .field("hidden_dim", hidden)
        .field("clients", clients)
        .field("window_us", window_us)
        .field("max_batch", max_batch)
        .field("workers", workers)
        .field("zipf_exponent", zipf)
        .field("batched", mode_json(&batched, &batched_stats))
        .field("unbatched", mode_json(&unbatched, &unbatched_stats))
        .field("throughput_speedup", speedup);
    save_json(&out_path, &json)?;
    println!("wrote {out_path}");

    // 5b. Logit-cache sweep: cached vs. uncached replay per Zipf
    //     exponent, bitwise-verified against the reference forward, with
    //     the exact hit/miss/coalesced accounting asserted per point.
    if skip_cache {
        println!("cache sweep skipped (--skip-cache)");
    } else {
        println!("logit-cache sweep: {cache_capacity}-row cache, zipf exponents {cache_zipfs:?}");
        let (ctable, crows, cpoints) = cache_sweep(
            &engine,
            &reloaded_eval,
            ServeConfig {
                batch_window: Duration::from_micros(window_us),
                max_batch,
                workers,
                ..serve_base
            },
            cache_capacity,
            &cache_zipfs,
            clients,
            queries.div_ceil(clients),
            seeds_per_query,
        );
        ctable.print();
        if cache_assert {
            assert_cache_bounds(&cpoints);
            println!(
                "cache assertions passed: >50% hit rate and >=2x cached throughput at zipf >= 1.1"
            );
        }
        let cjson = JsonObject::new()
            .field("bench", "logit_cache")
            .field("dataset", "Flickr")
            .field("scale", scale_name.as_str())
            .field("nodes", data.csr.num_nodes())
            .field("edges", data.csr.num_edges())
            .field("arch", "SAGE")
            .field("k", k)
            .field("hidden_dim", hidden)
            .field("cache_capacity", cache_capacity)
            .field("clients", clients)
            .field("queries_per_client", queries.div_ceil(clients))
            .field("seeds_per_query", seeds_per_query)
            .field("window_us", window_us)
            .field("max_batch", max_batch)
            .field("workers", workers)
            .field(
                "points",
                JsonValue::Array(crows.into_iter().map(JsonValue::Object).collect()),
            );
        save_json(&cache_out, &cjson)?;
        println!("wrote {cache_out}");
    }

    // 5c. Telemetry overhead sweep: the same closed-loop replay with the
    //     observability stack disabled, metrics-only, and trace-sampled
    //     at 1% and 100%. Best-of-reps throughput per mode damps
    //     scheduler noise; the instrumented runs also contribute the
    //     per-stage breakdown and per-layer kernel timing totals.
    if skip_telemetry {
        println!("telemetry sweep skipped (--skip-telemetry)");
    } else {
        let modes: [(&str, TelemetryConfig); 4] = [
            ("off", TelemetryConfig::off()),
            (
                "metrics_only",
                TelemetryConfig {
                    sampling: 0.0,
                    ..TelemetryConfig::default()
                },
            ),
            (
                "sampled_1pct",
                TelemetryConfig {
                    sampling: 0.01,
                    ..TelemetryConfig::default()
                },
            ),
            (
                "sampled_100pct",
                TelemetryConfig {
                    sampling: 1.0,
                    ..TelemetryConfig::default()
                },
            ),
        ];
        println!(
            "telemetry sweep: {} modes x {telemetry_reps} reps of the batched replay",
            modes.len()
        );
        let mut ttable = Table::new(vec![
            "mode",
            "sampling",
            "q/s (best)",
            "overhead",
            "p50",
            "p99",
        ]);
        let mut best_runs: Vec<(&str, f64, Vec<f64>, TelemetrySample)> = Vec::new();
        let mut trace_json: Option<String> = None;
        for (label, tcfg) in modes {
            let mut runs = Vec::new();
            let mut best: Option<TelemetrySample> = None;
            for rep in 0..telemetry_reps {
                let capture =
                    tcfg.enabled && tcfg.sampling >= 1.0 && rep == 0 && !trace_out.is_empty();
                let sample = telemetry_mode_run(
                    &engine,
                    ServeConfig {
                        batch_window: Duration::from_micros(window_us),
                        max_batch,
                        workers,
                        telemetry: tcfg,
                        ..serve_base
                    },
                    &batched_load,
                    capture,
                );
                runs.push(sample.report.throughput_qps);
                if let Some(t) = &sample.trace {
                    trace_json = Some(t.clone());
                }
                let better = best
                    .as_ref()
                    .is_none_or(|b| sample.report.throughput_qps > b.report.throughput_qps);
                if better {
                    best = Some(sample);
                }
            }
            let best = best.expect("at least one rep per mode");
            best_runs.push((label, tcfg.sampling, runs, best));
        }
        let baseline_qps = best_runs[0].3.report.throughput_qps;
        let mut tpoints = Vec::new();
        for (label, sampling, runs, sample) in &best_runs {
            let qps = sample.report.throughput_qps;
            let overhead_pct = (1.0 - qps / baseline_qps) * 100.0;
            ttable.row(vec![
                label.to_string(),
                format!("{:.0}%", sampling * 100.0),
                format!("{qps:.1}"),
                if *label == "off" {
                    "baseline".to_string()
                } else {
                    format!("{overhead_pct:+.1}%")
                },
                format!("{:.0}us", sample.report.latency.p50_us),
                format!("{:.0}us", sample.report.latency.p99_us),
            ]);
            let mut point = JsonObject::new()
                .field("mode", *label)
                .field("sampling", *sampling)
                .field("throughput_qps", qps)
                .field(
                    "throughput_runs",
                    JsonValue::Array(runs.iter().map(|&q| JsonValue::from(q)).collect()),
                )
                .field("overhead_pct", overhead_pct)
                .field("p50_us", sample.report.latency.p50_us)
                .field("p99_us", sample.report.latency.p99_us)
                .field("mean_batch", sample.stats.mean_batch)
                .field("kernel_time_us", sample.kernel_us)
                .field("forward_time_us", sample.forward_us);
            if let Some(stages) = &sample.stats.stages {
                point = point.field(
                    "stages",
                    JsonObject::new()
                        .field("queue_wait", summary_json(&stages.queue_wait))
                        .field("batch_wait", summary_json(&stages.batch_wait))
                        .field("service", summary_json(&stages.service))
                        .field("e2e", summary_json(&stages.e2e)),
                );
            }
            if !sample.kernels.is_empty() {
                point = point.field(
                    "kernels",
                    JsonValue::Array(
                        sample
                            .kernels
                            .iter()
                            .cloned()
                            .map(JsonValue::Object)
                            .collect(),
                    ),
                );
            }
            tpoints.push(point);
        }
        ttable.print();
        if telemetry_assert {
            for (label, _, _, sample) in &best_runs {
                let overhead = (1.0 - sample.report.throughput_qps / baseline_qps) * 100.0;
                let bound = match *label {
                    "sampled_100pct" => 5.0,
                    "metrics_only" | "sampled_1pct" => 2.0,
                    _ => continue,
                };
                assert!(
                    overhead <= bound,
                    "telemetry mode {label} costs {overhead:.1}% throughput \
                     (bound {bound}%, baseline {baseline_qps:.1} q/s)"
                );
            }
            println!("telemetry assertions passed: <=2% overhead metrics-only/1%, <=5% at 100%");
        }
        if !trace_out.is_empty() {
            let trace = trace_json
                .as_ref()
                .expect("the 100%-sampled mode captures a trace");
            std::fs::write(&trace_out, trace)?;
            println!("wrote {trace_out} ({} bytes)", trace.len());
        }
        let instrumented = &best_runs[1].3;
        let tjson = JsonObject::new()
            .field("bench", "telemetry")
            .field("dataset", "Flickr")
            .field("scale", scale_name.as_str())
            .field("nodes", data.csr.num_nodes())
            .field("edges", data.csr.num_edges())
            .field("arch", "SAGE")
            .field("k", k)
            .field("hidden_dim", hidden)
            .field("clients", clients)
            .field("queries_per_client", queries.div_ceil(clients))
            .field("seeds_per_query", seeds_per_query)
            .field("window_us", window_us)
            .field("max_batch", max_batch)
            .field("workers", workers)
            .field("zipf_exponent", zipf)
            .field("reps", telemetry_reps)
            .field("baseline_qps", baseline_qps)
            .field(
                "kernel_lap_coverage",
                if instrumented.forward_us > 0 {
                    instrumented.kernel_us as f64 / instrumented.forward_us as f64
                } else {
                    0.0
                },
            )
            .field(
                "points",
                JsonValue::Array(tpoints.into_iter().map(JsonValue::Object).collect()),
            );
        save_json(&telemetry_out, &tjson)?;
        println!("wrote {telemetry_out}");
    }

    // 6. Full-vs-partial forward sweep across seed-set sizes.
    let n = data.csr.num_nodes();
    let sizes = if partial_sizes.is_empty() {
        // Default: 1 up to ~1% of |V|, log-spaced.
        let mut s = vec![1usize, 8, 64, (n / 100).max(1)];
        s.sort_unstable();
        s.dedup();
        s
    } else {
        partial_sizes
    };
    let num_layers = model.config().num_layers;
    println!("partial-forward sweep at seed sizes {sizes:?} ({partial_reps} reps)");
    let (ptable, prows) = partial_sweep(
        &engine,
        num_layers,
        data.csr.num_edges(),
        &sizes,
        partial_reps,
    );
    ptable.print();
    let pjson = JsonObject::new()
        .field("bench", "partial_forward")
        .field("dataset", "Flickr")
        .field("scale", scale_name.as_str())
        .field("nodes", n)
        .field("edges", data.csr.num_edges())
        .field("arch", "SAGE")
        .field("layers", num_layers)
        .field("k", k)
        .field("hidden_dim", hidden)
        .field("reps", partial_reps)
        .field(
            "sizes",
            JsonValue::Array(prows.into_iter().map(JsonValue::Object).collect()),
        );
    save_json(&partial_out, &pjson)?;
    println!("wrote {partial_out}");

    // 7. Sharded-serving sweep: throughput and per-shard memory footprint
    //    as the shard count grows, bitwise-checked against the single
    //    engine. Sharding pays where the graph has locality: the default
    //    sweeps a same-scale planted-partition stand-in whose communities
    //    are relabeled contiguous (shard boundaries align with them), so
    //    reverse halos stay small; `--shard-graph flickr` reuses the
    //    Chung-Lu training graph instead, whose degree-random edges make
    //    any partition's halo saturate (the replication-control follow-up
    //    in the ROADMAP).
    let (shard_csr, shard_graph_label) = match shard_graph.as_str() {
        "flickr" => (data.csr.clone(), "flickr-chung-lu".to_string()),
        "community" => {
            let coo = maxk_graph::generate::planted_partition(
                n,
                data.csr.avg_degree(),
                shard_communities,
                shard_homophily,
                2.3,
                77,
            );
            // planted_partition assigns community `i % C`; relabel so
            // communities become contiguous id blocks.
            let mut perm = Vec::with_capacity(n);
            for c in 0..shard_communities {
                perm.extend(
                    (0..n)
                        .filter(|i| i % shard_communities == c)
                        .map(|i| i as u32),
                );
            }
            let csr = maxk_graph::Permutation::new(perm)?.apply(&coo.to_csr()?)?;
            (
                csr,
                format!("planted-partition(C={shard_communities},h={shard_homophily})"),
            )
        }
        other => panic!("unknown --shard-graph {other} (community|flickr)"),
    };
    let shard_features = if shard_graph == "flickr" {
        Matrix::from_vec(n, data.in_dim, data.features.clone())?
    } else {
        Matrix::xavier(n, data.in_dim, &mut rand::rngs::StdRng::seed_from_u64(31))
    };
    let shard_single = Arc::new(InferenceEngine::from_snapshot(
        &snapshot,
        &shard_csr,
        shard_features.clone(),
    )?);
    println!(
        "shard sweep at S = {shard_counts:?} ({} strategy, {} graph, {} edges)",
        shard_strategy.label(),
        shard_graph_label,
        shard_csr.num_edges()
    );
    let (stable, srows, unsharded_qps) = shard_sweep(
        &shard_single,
        &snapshot,
        &shard_csr,
        &shard_features,
        &shard_counts,
        shard_strategy,
        ServeConfig {
            batch_window: Duration::from_micros(window_us),
            max_batch,
            workers,
            ..serve_base
        },
        &batched_load,
    );
    stable.print();
    let sjson = JsonObject::new()
        .field("bench", "sharded_serve")
        .field("dataset", "Flickr")
        .field("scale", scale_name.as_str())
        .field("graph", shard_graph_label.as_str())
        .field("nodes", n)
        .field("edges", shard_csr.num_edges())
        .field("arch", "SAGE")
        .field("layers", num_layers)
        .field("k", k)
        .field("hidden_dim", hidden)
        .field("strategy", shard_strategy.label())
        .field("clients", clients)
        .field("window_us", window_us)
        .field("max_batch", max_batch)
        .field("workers", workers)
        .field("zipf_exponent", zipf)
        .field("unsharded_throughput_qps", unsharded_qps)
        .field(
            "shards",
            JsonValue::Array(srows.into_iter().map(JsonValue::Object).collect()),
        );
    save_json(&shard_out, &sjson)?;
    println!("wrote {shard_out}");

    // 7b. Dynamic mutation sweep: the same Zipf read stream with edge
    //     toggles and feature writes interleaved at each --dynamic-writes
    //     rate, once per invalidation strategy. Dirty-cone invalidation
    //     drops only the mutation's reverse L-hop cone from the logit
    //     cache; the bump-version baseline cold-starts the whole cache
    //     per batch. Every run ends with a quiescent bitwise spot-check
    //     against a from-scratch engine on the mutated graph.
    if skip_dynamic {
        println!("dynamic sweep skipped (--skip-dynamic)");
    } else {
        let dq = if dynamic_queries > 0 {
            dynamic_queries
        } else {
            queries
        };
        println!(
            "dynamic mutation sweep: write rates {dynamic_writes:?}, {dq} queries each, \
             {cache_capacity}-row cache, zipf {zipf}"
        );
        let (dtable, drows, dpoints) = dynamic_sweep(
            &snapshot,
            &data.csr,
            &data.features,
            data.in_dim,
            ServeConfig {
                batch_window: Duration::from_micros(window_us),
                max_batch,
                workers,
                ..serve_base
            },
            cache_capacity,
            &dynamic_writes,
            dq,
            zipf,
        );
        dtable.print();
        if dynamic_assert {
            assert_dynamic_bounds(&dpoints);
            println!(
                "dynamic assertions passed: nonzero cone invalidations and dirty-cone hit rate \
                 above bump-version at every write rate"
            );
        }
        let djson = JsonObject::new()
            .field("bench", "dynamic")
            .field("dataset", "Flickr")
            .field("scale", scale_name.as_str())
            .field("nodes", n)
            .field("edges", data.csr.num_edges())
            .field("arch", "SAGE")
            .field("layers", num_layers)
            .field("k", k)
            .field("hidden_dim", hidden)
            .field("cache_capacity", cache_capacity)
            .field("queries", dq)
            .field("zipf_exponent", zipf)
            .field("window_us", window_us)
            .field("max_batch", max_batch)
            .field("workers", workers)
            .field(
                "points",
                JsonValue::Array(drows.into_iter().map(JsonValue::Object).collect()),
            );
        save_json(&dynamic_out, &djson)?;
        println!("wrote {dynamic_out}");
    }

    // 8. Admission-control sweep: open-loop Poisson arrivals at
    //    multiples of the measured closed-loop capacity, per overload
    //    policy. The closed-loop replays above cannot overload the
    //    server by construction (arrival rate collapses to service
    //    rate); this is where bounded ingress + shedding earn their
    //    keep: past saturation, p99 stays bounded and goodput plateaus
    //    instead of collapsing, while the `block` baseline's queue depth
    //    grows with offered load.
    // Saturation estimate: one forward serves a whole batch, so the
    // pipeline saturates near `max_batch / full-batch service time`.
    // Measure that service time directly on a max_batch-seed union (what
    // a saturated batcher hands the workers) — neither closed-loop
    // replay measures it: the batched one is limited by its client
    // concurrency, and the unbatched one times 1-seed forwards that the
    // planner serves via the ~100x-cheaper partial path.
    // The probe feeds the same [`AdaptiveController`] EWMA the servers
    // run live (no ad-hoc mean): the saturation estimate IS the
    // controller's batch-service-time average after the warm-up reps.
    let probe = AdaptiveController::new(AdaptiveConfig::default(), max_batch, workers);
    {
        let mut union = sample_seeds(
            n,
            max_batch.min(n),
            &mut rand::rngs::StdRng::seed_from_u64(7),
        );
        union.sort_unstable();
        union.dedup();
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(engine.forward_union(&union, None));
            probe.observe_batch(t0.elapsed(), 0);
        }
    }
    let batch_service_s = probe
        .service_ewma()
        .expect("probe observed warm-up batches")
        .as_secs_f64();
    let capacity_qps = max_batch as f64 / batch_service_s;
    // Auto latency budget (--deadline-ms 0): generous enough that
    // at-capacity answers fit. An answered query's latency is bounded by
    // the in-queue wait (up to capacity/max_batch batches) plus the
    // post-pop pipeline residual (bounded batch channel + in-flight
    // worker batches, a few batch times); double the in-queue term and
    // add ~8 batch times of residual + contention headroom (the
    // generator threads share cores with the workers).
    let deadline_ms = if deadline_ms > 0 {
        deadline_ms
    } else {
        let batches_in_queue = (admission_capacity as f64 / max_batch as f64).ceil();
        let budget_s = batch_service_s * (8.0 + 2.0 * batches_in_queue);
        ((budget_s * 1e3).ceil() as u64).max(20)
    };
    let deadline = Duration::from_millis(deadline_ms);
    let fairness = (fair_rate > 0.0).then_some(FairnessConfig {
        rate_per_s: fair_rate,
        burst: fair_burst,
    });
    if skip_admission {
        println!("admission sweep skipped (--skip-admission)");
    } else {
        println!(
            "admission sweep: offered {offered_mults:?} x {capacity_qps:.1} q/s capacity \
         ({:.1}ms/batch), policies {admission_policies:?}, {open_secs}s open loop, \
         {deadline_ms}ms budget",
            batch_service_s * 1e3
        );
        let (atable, arows, apoints) = admission_sweep(
            &engine,
            ServeConfig {
                batch_window: Duration::from_micros(window_us),
                max_batch,
                workers,
                ..serve_base
            },
            capacity_qps,
            &admission_policies,
            &offered_mults,
            clients,
            seeds_per_query,
            zipf,
            open_secs,
            deadline,
            admission_capacity,
            fairness,
        );
        atable.print();

        if admission_assert {
            assert_admission_bounds(&apoints, deadline_ms, &offered_mults);
            println!(
                "admission assertions passed: nonzero shedding and bounded p99 under overload"
            );
        }

        let ajson = JsonObject::new()
            .field("bench", "admission")
            .field("dataset", "Flickr")
            .field("scale", scale_name.as_str())
            .field("nodes", n)
            .field("edges", data.csr.num_edges())
            .field("arch", "SAGE")
            .field("layers", num_layers)
            .field("k", k)
            .field("hidden_dim", hidden)
            .field("clients", clients)
            .field("window_us", window_us)
            .field("max_batch", max_batch)
            .field("workers", workers)
            .field("zipf_exponent", zipf)
            .field("capacity_qps", capacity_qps)
            .field("batch_service_s", batch_service_s)
            .field("closed_loop_qps", batched.throughput_qps)
            .field("open_loop_secs", open_secs)
            .field("deadline_ms", deadline_ms)
            .field("queue_capacity", admission_capacity)
            .field("fair_rate_per_s", fair_rate)
            .field(
                "policies",
                JsonValue::Array(arows.into_iter().map(JsonValue::Object).collect()),
            );
        save_json(&admission_out, &ajson)?;
        println!("wrote {admission_out}");
    }

    // 9. Adaptive-admission sweep: the best static policy from the
    //    admission sweep (deadline shedding with the hand-computed
    //    queue capacity and latency budget above) against a server
    //    whose capacity and deadline are *derived live* from the
    //    admission layer's batch-service-time EWMA — no hand-set
    //    budgets anywhere in the adaptive arm.
    if skip_adaptive {
        println!("adaptive sweep skipped (--skip-adaptive)");
    } else {
        println!(
            "adaptive sweep: offered {offered_mults:?} x {capacity_qps:.1} q/s capacity, \
             static baseline = deadline policy ({deadline_ms}ms budget, {admission_capacity} \
             queue) vs derived budgets, best of {adaptive_reps} reps"
        );
        let (adtable, adrows, adpoints) = adaptive_sweep(
            &engine,
            ServeConfig {
                batch_window: Duration::from_micros(window_us),
                max_batch,
                workers,
                ..serve_base
            },
            capacity_qps,
            &offered_mults,
            clients,
            seeds_per_query,
            zipf,
            open_secs,
            deadline,
            admission_capacity,
            adaptive_reps,
        );
        adtable.print();
        if adaptive_assert {
            assert_adaptive_bounds(&adpoints);
            println!(
                "adaptive assertions passed: derived budgets converged and p99 matches or beats \
                 the static baseline at every offered load"
            );
        }
        let adjson = JsonObject::new()
            .field("bench", "adaptive_admission")
            .field("dataset", "Flickr")
            .field("scale", scale_name.as_str())
            .field("nodes", n)
            .field("edges", data.csr.num_edges())
            .field("arch", "SAGE")
            .field("layers", num_layers)
            .field("k", k)
            .field("hidden_dim", hidden)
            .field("clients", clients)
            .field("window_us", window_us)
            .field("max_batch", max_batch)
            .field("workers", workers)
            .field("zipf_exponent", zipf)
            .field("capacity_qps", capacity_qps)
            .field("batch_service_s", batch_service_s)
            .field("open_loop_secs", open_secs)
            .field("reps", adaptive_reps)
            .field("static_deadline_ms", deadline_ms)
            .field("static_queue_capacity", admission_capacity)
            .field(
                "points",
                JsonValue::Array(adrows.into_iter().map(JsonValue::Object).collect()),
            );
        save_json(&adaptive_out, &adjson)?;
        println!("wrote {adaptive_out}");
    }

    // 10. SLO/recorder sweep: the incident pipeline's overhead (the
    //     always-on flight recorder + SLO engine against the same server
    //     without them, closed-loop at 1x and open-loop at each
    //     --slo-offered multiple of capacity), then an incident smoke
    //     that injects a latency fault and walks the full breach →
    //     trigger → bundle → recovery lifecycle over real TCP.
    if skip_slo {
        println!("slo sweep skipped (--skip-slo)");
    } else {
        // Objectives generous enough that the overhead runs never
        // breach: the cost measured is the steady-state tax — per-answer
        // SLO observation, ring events, the 20ms monitor tick.
        let quiet_slo = SloConfig::with_latency_budget(Duration::from_secs(1));
        let mut stable = Table::new(vec!["mode", "off q/s", "on q/s", "overhead"]);
        let mut spoints: Vec<SloOverheadPoint> = Vec::new();
        let mut srows: Vec<JsonObject> = Vec::new();

        // 10a. Closed-loop overhead at 1x (sustainable) load.
        println!(
            "slo sweep: recorder+engine on/off, closed loop + offered {slo_offered:?} x \
             {capacity_qps:.1} q/s, best of {slo_reps} reps"
        );
        let closed_cfg = ServeConfig {
            batch_window: Duration::from_micros(window_us),
            max_batch,
            workers,
            ..serve_base
        };
        let mut closed = [0.0f64; 2];
        let mut closed_runs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        // Arms interleave within each rep (off, on, off, on, ...): a
        // back-to-back pair sees the same machine state, so best-of
        // compares like against like instead of measuring load drift.
        for _ in 0..slo_reps {
            for (i, slo) in [None, Some(quiet_slo)].into_iter().enumerate() {
                let (report, _) =
                    run_mode(&engine, ServeConfig { slo, ..closed_cfg }, &batched_load);
                closed_runs[i].push(report.throughput_qps);
                closed[i] = closed[i].max(report.throughput_qps);
            }
        }
        let closed_overhead = (1.0 - closed[1] / closed[0]) * 100.0;
        stable.row(vec![
            "closed 1x".into(),
            format!("{:.1}", closed[0]),
            format!("{:.1}", closed[1]),
            format!("{closed_overhead:+.1}%"),
        ]);
        spoints.push(SloOverheadPoint {
            mode: "closed_1x".into(),
            off_qps: closed[0],
            on_qps: closed[1],
            overhead_pct: closed_overhead,
        });
        srows.push(
            JsonObject::new()
                .field("mode", "closed_1x")
                .field("off_qps", closed[0])
                .field("on_qps", closed[1])
                .field(
                    "off_runs",
                    JsonValue::Array(closed_runs[0].iter().map(|&q| JsonValue::from(q)).collect()),
                )
                .field(
                    "on_runs",
                    JsonValue::Array(closed_runs[1].iter().map(|&q| JsonValue::from(q)).collect()),
                )
                .field("overhead_pct", closed_overhead),
        );

        // 10b. Open-loop overhead at each offered multiple, under the
        //      deadline-shedding policy so the 4x point stays bounded.
        let open_cfg = ServeConfig {
            admission: AdmissionConfig {
                capacity: admission_capacity,
                policy: OverloadPolicy::DeadlineShed,
                default_deadline: Some(deadline),
                ..AdmissionConfig::default()
            },
            ..closed_cfg
        };
        for &mult in &slo_offered {
            let offered_qps = mult * capacity_qps;
            let mut goodput = [0.0f64; 2];
            for _ in 0..slo_reps {
                for (i, slo) in [None, Some(quiet_slo)].into_iter().enumerate() {
                    let server = Server::builder()
                        .config(ServeConfig { slo, ..open_cfg })
                        .start(Arc::clone(&engine));
                    let report = open_loop(
                        &server.handle(),
                        &OpenLoopConfig {
                            clients,
                            offered_qps,
                            duration: Duration::from_secs_f64(open_secs),
                            seeds_per_query,
                            zipf_exponent: zipf,
                            seed: 29,
                            deadline: Some(deadline),
                        },
                    )
                    .expect("open loop against a live server");
                    server.shutdown();
                    goodput[i] = goodput[i].max(report.goodput_qps);
                }
            }
            let overhead = (1.0 - goodput[1] / goodput[0]) * 100.0;
            let mode = format!("open_{mult:.0}x");
            stable.row(vec![
                format!("open {mult:.1}x"),
                format!("{:.1}", goodput[0]),
                format!("{:.1}", goodput[1]),
                format!("{overhead:+.1}%"),
            ]);
            srows.push(
                JsonObject::new()
                    .field("mode", mode.as_str())
                    .field("offered_mult", mult)
                    .field("offered_qps", offered_qps)
                    .field("off_qps", goodput[0])
                    .field("on_qps", goodput[1])
                    .field("overhead_pct", overhead),
            );
            spoints.push(SloOverheadPoint {
                mode,
                off_qps: goodput[0],
                on_qps: goodput[1],
                overhead_pct: overhead,
            });
        }
        stable.print();

        // 10c. Incident smoke: a dedicated fault-injected engine under
        //      an aggressive latency objective; the breach must degrade
        //      /healthz, emit exactly one bundle, and recover.
        let sink = std::path::PathBuf::from("target/serve_bench_incidents");
        let _ = std::fs::remove_dir_all(&sink);
        let smoke_features =
            Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone())?;
        let smoke_inner = InferenceEngine::from_snapshot(&snapshot, &data.csr, smoke_features)?;
        let faulty = Arc::new(FaultInjector::new(smoke_inner));
        // Budget: derived from a direct probe of the healthy single-seed
        // forward. The closed-loop p99 measured above includes queue
        // wait under 8 concurrent clients — seconds-scale at small
        // graphs — and deriving from it produces a stall so long the
        // smoke cannot breach-and-recover inside its deadline. The probe
        // warms the fresh engine's plan/normalization caches, then takes
        // the worst steady-state service time over the seeds the smoke
        // queries; 4x headroom keeps healthy traffic green, and the
        // 2x-budget stall makes every faulted query unambiguously bad.
        let probe_us = {
            std::hint::black_box(faulty.forward_union(&[0], None));
            let mut worst = 1u64;
            for s in 0..8u32 {
                let t0 = Instant::now();
                std::hint::black_box(faulty.forward_union(&[s], None));
                worst = worst.max(t0.elapsed().as_micros() as u64);
            }
            worst
        };
        let budget_us = (probe_us * 4).max(2_000);
        let fault_delay = Duration::from_micros(budget_us * 2).max(Duration::from_millis(50));
        // Bad completions arrive one stall apart (blocking query loop),
        // so the fast window must hold min_events of them with margin;
        // the slow window doubles it, and recovery needs one fast window
        // of clean traffic — all well inside the smoke deadline.
        let spacing = fault_delay + Duration::from_micros(probe_us);
        let fast_window = (spacing * 6).max(Duration::from_secs(2));
        let smoke_slo = SloConfig {
            specs: SloSpecSet::new().with_spec(SloSpec::latency(
                "latency",
                Duration::from_micros(budget_us),
                0.05,
            )),
            fast_window,
            slow_window: fast_window * 2,
            tick: Duration::from_millis(5),
            min_events: 4,
            recorder: RecorderConfig {
                post_trigger: Duration::from_millis(100),
                cooldown: Duration::from_secs(3600),
                ..RecorderConfig::default()
            },
            ..SloConfig::default()
        };
        println!(
            "incident smoke: {probe_us}us healthy forward, {budget_us}us latency budget, \
             {:.1}ms injected stall",
            fault_delay.as_secs_f64() * 1e3
        );
        let server = Server::builder()
            .batch_window(Duration::ZERO)
            .workers(1)
            .slo(smoke_slo)
            .incident_sink(&sink)
            .start(Arc::clone(&faulty));
        let exporter = server.serve_metrics("127.0.0.1:0")?;
        let probe_addr = exporter.local_addr();
        let handle = server.handle();
        let healthz_ok_before = http_status(probe_addr, "/healthz").0 == 200;

        faulty.set_forward_delay(fault_delay);
        let smoke_deadline = Instant::now() + Duration::from_secs(30);
        let mut healthz_degraded = false;
        while Instant::now() < smoke_deadline {
            for s in 0..8u32 {
                let _ = handle.query(&[s % 16]);
            }
            if http_status(probe_addr, "/healthz").0 == 503 {
                healthz_degraded = true;
                break;
            }
        }
        // Keep serving through the post-trigger window so the boosted
        // traces have spans to collect, until the bundle finalizes.
        while server.incidents().is_empty() && Instant::now() < smoke_deadline {
            for s in 0..4u32 {
                let _ = handle.query(&[s]);
            }
        }
        faulty.set_forward_delay(Duration::ZERO);
        let mut healthz_recovered = false;
        while Instant::now() < smoke_deadline {
            for s in 0..8u32 {
                let _ = handle.query(&[s]);
            }
            std::thread::sleep(Duration::from_millis(25));
            if http_status(probe_addr, "/healthz").0 == 200 {
                healthz_recovered = true;
                break;
            }
        }
        exporter.shutdown();
        let smoke_stats = server.shutdown();
        let breaches = smoke_stats
            .slo
            .iter()
            .find(|s| s.name == "latency")
            .map_or(0, |s| s.breaches);
        let bundle_paths: Vec<std::path::PathBuf> = std::fs::read_dir(&sink)
            .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.path()).collect())
            .unwrap_or_default();
        let bundle_bytes = bundle_paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        let smoke = IncidentSmoke {
            healthz_ok_before,
            healthz_degraded,
            healthz_recovered,
            bundles: bundle_paths.len(),
            bundle_bytes,
            breaches,
        };
        println!(
            "incident smoke: healthz ok={} degraded={} recovered={}, {} bundle(s), \
             {} bytes, {} breach(es)",
            smoke.healthz_ok_before,
            smoke.healthz_degraded,
            smoke.healthz_recovered,
            smoke.bundles,
            smoke.bundle_bytes,
            smoke.breaches
        );

        if slo_assert {
            assert_slo_bounds(&spoints, &smoke);
            println!(
                "slo assertions passed: <=2% recorder overhead at 1x and one-bundle incident \
                 lifecycle over /healthz"
            );
        }

        let sjson = JsonObject::new()
            .field("bench", "slo")
            .field("dataset", "Flickr")
            .field("scale", scale_name.as_str())
            .field("nodes", n)
            .field("edges", data.csr.num_edges())
            .field("arch", "SAGE")
            .field("k", k)
            .field("hidden_dim", hidden)
            .field("clients", clients)
            .field("window_us", window_us)
            .field("max_batch", max_batch)
            .field("workers", workers)
            .field("zipf_exponent", zipf)
            .field("capacity_qps", capacity_qps)
            .field("open_loop_secs", open_secs)
            .field("reps", slo_reps)
            .field(
                "overhead",
                JsonValue::Array(srows.into_iter().map(JsonValue::Object).collect()),
            )
            .field(
                "incident_smoke",
                JsonObject::new()
                    .field("probe_us", probe_us)
                    .field("budget_us", budget_us)
                    .field("fault_delay_ms", fault_delay.as_secs_f64() * 1e3)
                    .field("healthz_ok_before", smoke.healthz_ok_before)
                    .field("healthz_degraded", smoke.healthz_degraded)
                    .field("healthz_recovered", smoke.healthz_recovered)
                    .field("bundles", smoke.bundles)
                    .field("bundle_bytes", smoke.bundle_bytes)
                    .field("breaches", smoke.breaches),
            );
        save_json(&slo_out, &sjson)?;
        println!("wrote {slo_out}");
    }
    Ok(())
}
