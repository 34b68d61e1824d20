//! End-to-end telemetry acceptance suite (ISSUE 7).
//!
//! Exercises the observability stack through the public serving API:
//! the Prometheus scrape endpoint must agree *exactly* with
//! [`StatsSnapshot`] at quiescence, the Chrome-trace export must be
//! well-formed `trace_event` JSON, the per-stage histograms must cover
//! every answered query under every overload policy (including inline
//! cache answers) with the stage sums conserving end-to-end latency up
//! to microsecond truncation, and the per-layer kernel timings must sum
//! to within 10% of the measured forward wall time.

use maxk_gnn::graph::generate;
use maxk_gnn::graph::shard::ShardStrategy;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, GnnModel, ModelConfig, PlanConfig};
use maxk_gnn::serve::{
    InferenceEngine, LatencyHistogram, LatencySummary, OverloadPolicy, QueryOptions, ScrapeSource,
    Server, ShardConfig, ShardedEngine,
};
use maxk_gnn::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A small served model: power-law graph, SAGE + MaxK, eval-mode engine.
fn engine(nodes: usize, in_dim: usize, hidden: usize, classes: usize) -> Arc<InferenceEngine> {
    let graph = generate::chung_lu_power_law(nodes, 8.0, 2.3, 13)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(Arch::Sage, Activation::MaxK(8), in_dim, classes);
    cfg.hidden_dim = hidden;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(29);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let x = Matrix::xavier(nodes, in_dim, &mut rng);
    Arc::new(InferenceEngine::from_snapshot(&ModelSnapshot::capture(&model), &graph, x).unwrap())
}

/// One blocking HTTP/1.1 GET against the scrape endpoint; returns the
/// body and asserts a 200 status.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    stream.flush().expect("flush request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "scrape returned non-200:\n{head}"
    );
    body.to_string()
}

/// Finds the value of one exact series (name plus rendered label block)
/// in a Prometheus text-format body.
fn prom_value(body: &str, series: &str) -> f64 {
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((name, val)) = line.rsplit_once(' ') {
            if name == series {
                return val.parse().expect("numeric sample");
            }
        }
    }
    panic!("series `{series}` not found in scrape:\n{body}");
}

/// Minimal recursive-descent JSON well-formedness check (no external
/// crates): objects, arrays, strings with escapes, numbers, literals.
fn assert_valid_json(s: &str) {
    let b = s.as_bytes();
    let mut i = 0usize;
    json_value(b, &mut i).unwrap_or_else(|e| panic!("invalid JSON at byte {i}: {e}\n{s}"));
    json_ws(b, &mut i);
    assert!(
        i == b.len(),
        "trailing garbage after JSON value at byte {i}"
    );
}

fn json_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn json_value(b: &[u8], i: &mut usize) -> Result<(), &'static str> {
    json_ws(b, i);
    match b.get(*i).copied().ok_or("unexpected end")? {
        b'{' => {
            *i += 1;
            json_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                json_ws(b, i);
                json_string(b, i)?;
                json_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err("expected ':'");
                }
                *i += 1;
                json_value(b, i)?;
                json_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err("expected ',' or '}'"),
                }
            }
        }
        b'[' => {
            *i += 1;
            json_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                json_value(b, i)?;
                json_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err("expected ',' or ']'"),
                }
            }
        }
        b'"' => json_string(b, i),
        b't' => json_lit(b, i, b"true"),
        b'f' => json_lit(b, i, b"false"),
        b'n' => json_lit(b, i, b"null"),
        b'-' | b'0'..=b'9' => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(|_| ())
                .ok_or("bad number")
        }
        _ => Err("unexpected byte"),
    }
}

fn json_string(b: &[u8], i: &mut usize) -> Result<(), &'static str> {
    if b.get(*i) != Some(&b'"') {
        return Err("expected string");
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 2;
            }
            _ => *i += 1,
        }
    }
    Err("unterminated string")
}

fn json_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), &'static str> {
    if b.len() - *i >= lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err("bad literal")
    }
}

/// Exact sum of a stage histogram, recovered from its summary
/// (`mean * count`; exact in f64 for any realistic total).
fn sum_us(s: &LatencySummary) -> i64 {
    (s.mean_us * s.count as f64).round() as i64
}

/// The live TCP scrape must agree exactly with [`StatsSnapshot`] at
/// quiescence: every stats-derived counter, the cache books, the
/// latency-histogram count and all four per-stage counts.
#[test]
fn prometheus_scrape_agrees_exactly_with_stats_snapshot() {
    let server = Server::builder()
        .batch_window(Duration::from_millis(2))
        .max_batch(8)
        .workers(2)
        .cache_capacity(64)
        .trace_sampling(1.0)
        .start(engine(70, 6, 16, 3));
    let handle = server.handle();
    for i in 0..24u32 {
        // A hot pair (cache hits after the first round) plus cold seeds.
        let seeds = [i % 3, 40 + i % 25];
        handle
            .query(&seeds)
            .unwrap()
            .into_answer()
            .expect("Block admission answers every valid query");
    }

    let exporter = server
        .serve_metrics("127.0.0.1:0")
        .expect("bind scrape endpoint");
    let body = http_get(exporter.local_addr(), "/metrics");
    let stats = server.stats();

    let count = |series: &str| prom_value(&body, series) as u64;
    assert_eq!(count("maxk_serve_queries_total"), stats.queries);
    assert_eq!(count("maxk_serve_batches_total"), stats.batches);
    assert_eq!(
        count("maxk_serve_partial_batches_total"),
        stats.partial_batches
    );
    assert_eq!(
        count("maxk_serve_cached_queries_total"),
        stats.cached_queries
    );
    assert_eq!(count("maxk_serve_submitted_total"), stats.submitted);
    assert_eq!(count("maxk_serve_rejected_total"), stats.rejected);
    assert_eq!(count("maxk_serve_shed_total"), stats.shed);
    assert_eq!(
        count("maxk_serve_deadline_misses_total"),
        stats.deadline_misses
    );
    assert_eq!(count("maxk_serve_queue_depth"), stats.queue_depth);
    assert_eq!(count("maxk_serve_queue_depth_peak"), stats.queue_depth_peak);
    let cache = stats.cache.as_ref().expect("cache enabled");
    assert_eq!(count("maxk_serve_cache_hits_total"), cache.hits);
    assert_eq!(count("maxk_serve_cache_misses_total"), cache.misses);
    assert_eq!(count("maxk_serve_cache_coalesced_total"), cache.coalesced);
    assert_eq!(count("maxk_serve_cache_evictions_total"), cache.evictions);
    assert_eq!(count("maxk_serve_latency_us_count"), stats.latency.count);
    assert_eq!(stats.latency.count, stats.queries);

    // Per-stage histogram families from the telemetry registry: one
    // observation per answered query in each stage.
    for stage in ["queue_wait", "batch_wait", "service", "e2e"] {
        assert_eq!(
            count(&format!(
                "maxk_serve_stage_latency_us_count{{stage=\"{stage}\"}}"
            )),
            stats.queries,
            "stage `{stage}` must cover every answered query"
        );
    }

    // The JSON dump serves the same series and parses as JSON.
    let json = http_get(exporter.local_addr(), "/metrics.json");
    assert_valid_json(&json);
    assert!(json.contains("maxk_serve_queries_total"));
    assert!(json.contains("maxk_serve_stage_latency_us"));

    // Unknown paths 404 without killing the endpoint.
    let mut stream = TcpStream::connect(exporter.local_addr()).unwrap();
    write!(stream, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 404"), "got: {buf}");

    exporter.shutdown();
    server.shutdown();
}

/// The Chrome-trace export must be valid `trace_event` JSON carrying
/// complete-phase (`ph:"X"`) spans for whole queries, stage intervals
/// and batch forwards.
#[test]
fn chrome_trace_export_is_valid_trace_event_json() {
    let server = Server::builder()
        .batch_window(Duration::from_millis(1))
        .workers(1)
        .trace_sampling(1.0)
        .start(engine(70, 6, 16, 3));
    let handle = server.handle();
    for i in 0..8u32 {
        handle.query(&[i, i + 30]).unwrap().into_answer().unwrap();
    }
    let tel = server.telemetry().expect("telemetry on by default");
    let trace = tel.chrome_trace();
    assert_valid_json(&trace);
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"name\":\"query\""));
    assert!(trace.contains("\"name\":\"queue_wait\""));
    assert!(trace.contains("\"name\":\"forward\""));
    assert!(trace.contains("\"displayTimeUnit\":\"ms\""));
    server.shutdown();
}

/// Drives one server under `policy` with a burst of detached requests,
/// returns the shutdown snapshot and the count of answered responses.
fn drive_policy(policy: OverloadPolicy, requests: usize) -> (maxk_gnn::serve::StatsSnapshot, u64) {
    let server = Server::builder()
        .batch_window(Duration::from_millis(1))
        .max_batch(4)
        .workers(1)
        .admission_capacity(4)
        .overload_policy(policy)
        .default_deadline(Duration::from_millis(500))
        .start(engine(70, 6, 16, 3));
    let handle = server.handle();
    let mut pending = Vec::new();
    for i in 0..requests {
        let seeds = [(i % 70) as u32, ((i * 7) % 70) as u32];
        let opts = QueryOptions::new().for_client((i % 3) as u64);
        match handle.request(&seeds, opts) {
            Ok(p) => pending.push(p),
            Err(e) => panic!("submit failed: {e}"),
        }
    }
    let mut answered = 0u64;
    for p in pending {
        if p.wait().expect("server alive").is_answered() {
            answered += 1;
        }
    }
    (server.shutdown(), answered)
}

/// Per-stage accounting closes under every overload policy: each stage
/// histogram counts exactly the answered queries, and summed stage time
/// conserves summed end-to-end time up to per-query microsecond
/// truncation (each of the three stage durations truncates down, so the
/// parts may undershoot e2e by at most 3 µs per query, never overshoot).
#[test]
fn stage_accounting_closes_under_every_overload_policy() {
    for policy in [
        OverloadPolicy::Block,
        OverloadPolicy::RejectNewest,
        OverloadPolicy::DropOldest,
        OverloadPolicy::DeadlineShed,
    ] {
        let (stats, answered) = drive_policy(policy, 24);
        assert_eq!(
            stats.queries, answered,
            "{policy:?}: answered responses must equal served queries"
        );
        let stages = stats.stages.as_ref().expect("telemetry on by default");
        for (name, s) in [
            ("queue_wait", &stages.queue_wait),
            ("batch_wait", &stages.batch_wait),
            ("service", &stages.service),
            ("e2e", &stages.e2e),
        ] {
            assert_eq!(
                s.count, stats.queries,
                "{policy:?}: stage `{name}` must cover every answered query"
            );
        }
        let parts =
            sum_us(&stages.queue_wait) + sum_us(&stages.batch_wait) + sum_us(&stages.service);
        let e2e = sum_us(&stages.e2e);
        let n = stats.queries as i64;
        assert!(
            parts <= e2e + 1 && parts >= e2e - 3 * n - 1,
            "{policy:?}: stage sums must conserve e2e: parts={parts} e2e={e2e} n={n}"
        );
    }
}

/// Inline cache answers (no forward of their own) are still first-class
/// in the stage books: counted in all four stages, with their batch-wait
/// recorded as zero.
#[test]
fn cached_inline_answers_are_counted_in_the_stage_books() {
    let server = Server::builder()
        .batch_window(Duration::from_millis(1))
        .workers(1)
        .cache_capacity(64)
        .start(engine(70, 6, 16, 3));
    let handle = server.handle();
    for _ in 0..5 {
        let a = handle.query(&[3, 9]).unwrap().into_answer().unwrap();
        assert_eq!(a.logits.shape(), (2, 3));
    }
    let stats = server.shutdown();
    assert_eq!(stats.queries, 5);
    assert_eq!(stats.cached_queries, 4);
    let stages = stats.stages.as_ref().expect("telemetry on by default");
    for s in [
        &stages.queue_wait,
        &stages.batch_wait,
        &stages.service,
        &stages.e2e,
    ] {
        assert_eq!(
            s.count, 5,
            "cache-served queries must appear in every stage"
        );
    }
    let parts = sum_us(&stages.queue_wait) + sum_us(&stages.batch_wait) + sum_us(&stages.service);
    let e2e = sum_us(&stages.e2e);
    assert!(parts <= e2e + 1 && parts >= e2e - 3 * 5 - 1);
}

/// Per-layer kernel lap times must sum to within 10% of the measured
/// forward wall time: the timed laps (dense linear, SpMM, SSpMM, MaxK,
/// row gathers) are the forward — only inter-layer glue is untimed. The
/// workload is sized so each forward runs long enough that per-lap
/// microsecond truncation is negligible.
///
/// Holds for full and partial plans, and on both sides of the engine's
/// quarter rule: at 32-wide inputs layer 0's combination phase runs (and
/// is timed) per batch; at 320-wide ones the engine keeps its product, a
/// forward records no `dense_linear`/`maxk` lap for layer 0 because it
/// computes none, and a partial plan's row gathers from the kept product
/// are layer-0 `gather` laps.
#[test]
fn kernel_lap_times_sum_to_the_forward_wall_time() {
    for (in_dim, hoisted) in [(32usize, false), (320, true)] {
        for partial in [false, true] {
            let plan = PlanConfig {
                seed_frac_cutoff: if partial { 1.0 } else { 0.0 },
                work_ratio: if partial { f64::INFINITY } else { 0.0 },
            };
            let engine = InferenceEngine::clone(&engine(600, in_dim, 64, 8)).with_plan_config(plan);
            assert_eq!(engine.layer_costs()[0].linear_hoisted, hoisted);
            let server = Server::builder()
                .batch_window(Duration::from_millis(1))
                .max_batch(1)
                .workers(1)
                .start(Arc::new(engine));
            let handle = server.handle();
            let seeds: Vec<u32> = (0..150u32).map(|i| (i * 4) % 600).collect();
            for _ in 0..6 {
                let answer = handle.query(&seeds).unwrap().into_answer().unwrap();
                assert_eq!(answer.partial, partial);
            }
            let reg = server
                .telemetry()
                .expect("telemetry on by default")
                .registry()
                .snapshot();
            let total = |name: &str| -> u64 {
                reg.counters
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.value)
                    .sum()
            };
            let case = format!("in_dim={in_dim} partial={partial}");
            let kernel = total("maxk_serve_kernel_time_us_total");
            let forward = total("maxk_serve_forward_time_us_total");
            let forwards = total("maxk_serve_forwards_total");
            assert!(forwards >= 6, "each query runs at least one forward");
            assert!(forward > 0, "forward wall time must be recorded");
            // Laps nest inside the forward: per forward the lap floors can
            // exceed the forward floor by at most 1 µs.
            assert!(
                kernel <= forward + forwards,
                "kernel laps cannot exceed the forward that contains them: \
                 kernel={kernel} forward={forward} ({case})"
            );
            assert!(
                kernel as f64 >= 0.9 * forward as f64,
                "kernel laps must account for >=90% of forward time: \
                 kernel={kernel} forward={forward} ({case})"
            );
            let l0_series = |kernel: &str| {
                reg.counters.iter().any(|s| {
                    s.name == "maxk_serve_kernel_time_us_total"
                        && s.labels.iter().any(|(k, v)| *k == "layer" && v == "0")
                        && s.labels.iter().any(|(k, v)| *k == "kernel" && v == kernel)
                })
            };
            assert_eq!(l0_series("dense_linear"), !hoisted, "{case}");
            assert_eq!(l0_series("maxk"), !hoisted, "{case}");
            assert_eq!(l0_series("gather"), partial, "{case}");
            assert!(l0_series("sspmm"), "{case}");
            server.shutdown();
        }
    }
}

/// A sharded engine exports per-shard series through the same scrape:
/// stats-derived shard batch counters and registry-side per-shard
/// forward timings, for every shard.
#[test]
fn sharded_serving_exports_per_shard_series() {
    let graph = generate::chung_lu_power_law(140, 6.0, 2.3, 13)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(Arch::Sage, Activation::MaxK(4), 10, 4);
    cfg.hidden_dim = 16;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(17);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let x = Matrix::xavier(140, 10, &mut rng);
    let sharded = ShardedEngine::from_snapshot(
        &ModelSnapshot::capture(&model),
        &graph,
        &x,
        ShardConfig {
            num_shards: 2,
            strategy: ShardStrategy::DegreeBalanced,
        },
    )
    .unwrap();
    let server = Server::builder()
        .batch_window(Duration::from_millis(1))
        .workers(1)
        .start(Arc::new(sharded));
    let handle = server.handle();
    for _ in 0..6 {
        // Seeds spanning the whole id range touch both shards.
        handle
            .query(&[0, 139, 70, 35, 105])
            .unwrap()
            .into_answer()
            .unwrap();
    }
    let body = server.metrics_source().prometheus();
    for shard in 0..2 {
        let batches = prom_value(
            &body,
            &format!("maxk_serve_shard_batches_total{{shard=\"{shard}\"}}"),
        );
        assert!(batches >= 6.0, "shard {shard} participated in every batch");
        assert!(
            body.contains(&format!(
                "maxk_serve_shard_forward_time_us_total{{shard=\"{shard}\"}}"
            )),
            "per-shard forward timing missing for shard {shard}:\n{body}"
        );
    }
    assert!(body.contains("maxk_serve_shard_forwards_total{"));
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging latency histograms preserves all mass exactly — count,
    /// sum, zero-bucket, max and every bucket — and the merged quantiles
    /// stay within [0, max] and monotone.
    #[test]
    fn histogram_merge_preserves_mass_and_quantile_bounds(
        (a, b) in (
            proptest::collection::vec(0u64..50_000_000, 0..200),
            proptest::collection::vec(0u64..50_000_000, 0..200),
        )
    ) {
        let mut ha = LatencyHistogram::new();
        for &v in &a {
            ha.record(v);
        }
        let mut hb = LatencyHistogram::new();
        for &v in &b {
            hb.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), ha.count() + hb.count());
        prop_assert_eq!(merged.sum_us(), ha.sum_us() + hb.sum_us());
        prop_assert_eq!(merged.zero_count(), ha.zero_count() + hb.zero_count());
        prop_assert_eq!(merged.max_us(), ha.max_us().max(hb.max_us()));
        for i in 0..64 {
            prop_assert_eq!(
                merged.bucket_counts()[i],
                ha.bucket_counts()[i] + hb.bucket_counts()[i]
            );
        }
        if merged.count() > 0 {
            let mut prev = 0.0f64;
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                let v = merged.quantile(q);
                prop_assert!(v >= 0.0);
                prop_assert!(v <= merged.max_us() as f64);
                prop_assert!(v + 1e-9 >= prev, "quantiles must be monotone");
                prev = v;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Stage conservation as a property: under a random overload policy
    /// and burst size, every answered query lands in all four stage
    /// histograms and the stage sums conserve end-to-end time.
    #[test]
    fn stage_conservation_holds_for_random_policies_and_bursts(
        (policy_ix, requests) in (0usize..4, 1usize..16)
    ) {
        let policy = [
            OverloadPolicy::Block,
            OverloadPolicy::RejectNewest,
            OverloadPolicy::DropOldest,
            OverloadPolicy::DeadlineShed,
        ][policy_ix];
        let (stats, answered) = drive_policy(policy, requests);
        prop_assert_eq!(stats.queries, answered);
        let stages = stats.stages.as_ref().expect("telemetry on by default");
        prop_assert_eq!(stages.queue_wait.count, stats.queries);
        prop_assert_eq!(stages.batch_wait.count, stats.queries);
        prop_assert_eq!(stages.service.count, stats.queries);
        prop_assert_eq!(stages.e2e.count, stats.queries);
        let parts = sum_us(&stages.queue_wait)
            + sum_us(&stages.batch_wait)
            + sum_us(&stages.service);
        let e2e = sum_us(&stages.e2e);
        prop_assert!(parts <= e2e + 1);
        prop_assert!(parts >= e2e - 3 * stats.queries as i64 - 1);
    }
}

/// One raw HTTP/1.1 exchange; returns the full response (status line,
/// headers and body) without asserting a status.
fn http_exchange(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    stream.write_all(request.as_bytes()).expect("write request");
    stream.flush().expect("flush request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    buf
}

/// Endpoint hardening over real TCP: non-GET methods answer 405 with an
/// `Allow: GET` header, every route declares its Content-Type (and a
/// Content-Length matching the body), and unknown paths answer 404 —
/// a misconfigured Prometheus client can't wedge or misread the
/// exporter.
#[test]
fn scrape_endpoint_rejects_non_get_and_declares_content_types() {
    let server = Server::builder().start(engine(40, 6, 12, 3));
    let _ = server.handle().query(&[0, 1]).unwrap();
    let exporter = server.serve_metrics("127.0.0.1:0").expect("bind scrape");
    let addr = exporter.local_addr();

    let post = http_exchange(
        addr,
        "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(post.starts_with("HTTP/1.1 405"), "got: {post}");
    assert!(post.contains("Allow: GET\r\n"));

    for (path, ctype) in [
        ("/metrics", "text/plain; version=0.0.4; charset=utf-8"),
        ("/metrics.json", "application/json"),
        ("/healthz", "application/json"),
        ("/debug/state", "application/json"),
    ] {
        let resp = http_exchange(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{path} got: {resp}");
        assert!(
            resp.contains(&format!("Content-Type: {ctype}\r\n")),
            "{path} missing Content-Type {ctype}: {resp}"
        );
        let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length declared")
            .parse()
            .expect("numeric Content-Length");
        assert_eq!(len, body.len(), "{path} Content-Length mismatch");
        if ctype == "application/json" {
            assert_valid_json(body);
        }
    }

    let missing = http_exchange(
        addr,
        "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");

    exporter.shutdown();
    server.shutdown();
}

/// Live introspection routes through the public API: `/healthz` reports
/// ok with per-subsystem checks on a healthy server, and `/debug/state`
/// carries the build/version identity, the admission books and queue
/// capacity as one JSON object.
#[test]
fn healthz_and_debug_state_reflect_a_healthy_server() {
    let server = Server::builder()
        .cache_capacity(64)
        .start(engine(40, 6, 12, 3));
    for i in 0..4u32 {
        let _ = server.handle().query(&[i]).unwrap();
    }
    let exporter = server.serve_metrics("127.0.0.1:0").expect("bind scrape");
    let addr = exporter.local_addr();

    let health = http_get(addr, "/healthz");
    assert_valid_json(&health);
    assert!(health.contains("\"status\":\"ok\""));
    for check in ["engine", "ingress", "queue"] {
        assert!(
            health.contains(&format!("\"name\":\"{check}\"")),
            "{health}"
        );
    }

    let dump = http_get(addr, "/debug/state");
    assert_valid_json(&dump);
    assert!(dump.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))));
    assert!(dump.contains("\"queries\":4"));
    assert!(dump.contains("\"queue_capacity\""));
    assert!(dump.contains("\"ingress_closed\":false"));

    // The build-info gauge rides the Prometheus scrape with the same
    // version label.
    let prom = http_get(addr, "/metrics");
    assert!(prom.contains("maxk_serve_build_info{"));
    assert!(prom.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))));

    exporter.shutdown();
    server.shutdown();
}

/// Concurrent-scrape stress over real TCP: a burst of parallel clients
/// across every route all answer coherently while the server keeps
/// serving queries.
#[test]
fn concurrent_scrapes_across_routes_all_answer() {
    let server = Server::builder().start(engine(40, 6, 12, 3));
    let _ = server.handle().query(&[0]).unwrap();
    let exporter = server.serve_metrics("127.0.0.1:0").expect("bind scrape");
    let addr = exporter.local_addr();

    let paths = ["/metrics", "/metrics.json", "/healthz", "/debug/state"];
    let mut clients = Vec::new();
    for round in 0..24usize {
        let path = paths[round % paths.len()];
        clients.push(std::thread::spawn(move || {
            let resp = http_exchange(
                addr,
                &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
            );
            assert!(resp.starts_with("HTTP/1.1 200"), "{path} got: {resp}");
        }));
    }
    for _ in 0..8u32 {
        let _ = server.handle().query(&[1, 2]).unwrap();
    }
    for c in clients {
        c.join().expect("scrape client panicked");
    }

    exporter.shutdown();
    server.shutdown();
}
