//! Exporters: Prometheus text exposition, a JSON metrics dump, the
//! Chrome-trace (`trace_event`) span dump, and the TCP scrape endpoint —
//! plus `stat_samples`, the one mapping from the server's
//! [`crate::StatsSnapshot`] books to the `maxk_serve_*` series both
//! renderers emit.
//!
//! Everything here is hand-rolled over `std` (the build vendors no HTTP
//! or serialization crates): the scrape endpoint is a minimal HTTP/1.1
//! responder on a [`std::net::TcpListener`], the Prometheus text follows
//! the [exposition format] (`# HELP`/`# TYPE`, cumulative `le` buckets,
//! `_sum`/`_count`), and the trace dump is the `traceEvents` JSON that
//! `chrome://tracing` / Perfetto load directly.
//!
//! [exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use super::health::HealthReport;
use super::registry::{MetricSample, RegistrySnapshot};
use super::trace::SpanRecord;
use crate::admission::{AdaptiveSnapshot, ClassStats};
use crate::cache::CacheSnapshot;
use crate::metrics::LatencyHistogram;
use crate::server::{BuildInfo, StatsSnapshot};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a JSON string value (the recorder and health modules
/// hand-roll JSON too).
pub(crate) fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn label_block(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Renders the Prometheus text exposition of one snapshot — the live
/// registry, merged by the caller with whatever stats-derived series it
/// serves ([`RegistrySnapshot::merge`]). `# HELP`/`# TYPE` headers are
/// emitted once per family, in first-appearance order.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut seen: Vec<&'static str> = Vec::new();
    let mut header = |out: &mut String, name: &'static str, kind: &str| {
        if !seen.contains(&name) {
            seen.push(name);
            let help = snap.help.get(name).copied().unwrap_or("");
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        }
    };
    for s in &snap.counters {
        header(&mut out, s.name, "counter");
        let _ = writeln!(out, "{}{} {}", s.name, label_block(&s.labels), s.value);
    }
    for s in &snap.gauges {
        header(&mut out, s.name, "gauge");
        let _ = writeln!(out, "{}{} {}", s.name, label_block(&s.labels), num(s.value));
    }
    for h in &snap.histograms {
        header(&mut out, h.name, "histogram");
        render_histogram(&mut out, h);
    }
    out
}

fn num(v: f64) -> String {
    let v = finite(v);
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders one histogram family entry: cumulative `le` buckets at the
/// log₂ bucket upper bounds (`1, 3, 7, …, 2^(b+1)-1`), up to the last
/// occupied bucket, then `+Inf`, `_sum` and `_count`.
fn render_histogram(out: &mut String, h: &MetricSample<LatencyHistogram>) {
    let counts = h.value.bucket_counts();
    let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0).min(62);
    let labels = &h.labels;
    let mut cumulative = 0u64;
    for (b, &c) in counts.iter().enumerate().take(last + 1) {
        cumulative += c;
        let le: u64 = if b == 0 { 1 } else { (1u64 << (b + 1)) - 1 };
        let mut with_le = labels.clone();
        with_le.push(("le", le.to_string()));
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            h.name,
            label_block(&with_le),
            cumulative
        );
    }
    let mut with_inf = labels.clone();
    with_inf.push(("le", "+Inf".to_string()));
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        h.name,
        label_block(&with_inf),
        h.value.count()
    );
    let _ = writeln!(
        out,
        "{}_sum{} {}",
        h.name,
        label_block(labels),
        h.value.sum_us()
    );
    let _ = writeln!(
        out,
        "{}_count{} {}",
        h.name,
        label_block(labels),
        h.value.count()
    );
}

fn json_labels(labels: &[(&'static str, String)]) -> String {
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn json_hist(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"sum_us\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        h.count(),
        h.sum_us(),
        finite(h.mean_us()),
        finite(h.p50()),
        finite(h.p95()),
        finite(h.p99()),
        h.max_us()
    )
}

/// Renders the same metric set as [`render_prometheus`] as one JSON
/// object: `{"metrics": [...], "histograms": [...]}` with each sample's
/// name, labels and value.
pub fn render_metrics_json(snap: &RegistrySnapshot) -> String {
    let metric = |name: &str, labels: &[(&'static str, String)], value: String| {
        format!(
            "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
            escape_json(name),
            json_labels(labels),
            value
        )
    };
    let counters = snap
        .counters
        .iter()
        .map(|s| metric(s.name, &s.labels, s.value.to_string()));
    let gauges = snap
        .gauges
        .iter()
        .map(|s| metric(s.name, &s.labels, num(s.value)));
    let metrics: Vec<String> = counters.chain(gauges).collect();
    let hist_objs: Vec<String> = snap
        .histograms
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"labels\":{},\"summary\":{}}}",
                escape_json(s.name),
                json_labels(&s.labels),
                json_hist(&s.value)
            )
        })
        .collect();
    format!(
        "{{\"metrics\":[{}],\"histograms\":[{}]}}",
        metrics.join(","),
        hist_objs.join(",")
    )
}

/// Renders a [`StatsSnapshot`] (plus the full latency histogram backing
/// its summary) as registry-shaped samples — the one mapping between the
/// stats read-out and the `maxk_serve_*` metric names, used by both the
/// Prometheus and JSON exports so they cannot drift apart.
pub(crate) fn stat_samples(
    stats: &StatsSnapshot,
    hist: LatencyHistogram,
    build: BuildInfo,
) -> RegistrySnapshot {
    let mut snap = RegistrySnapshot::default();
    let s = &mut snap;
    s.counter(
        "maxk_serve_queries_total",
        &[],
        stats.queries,
        "Queries answered",
    );
    s.counter(
        "maxk_serve_batches_total",
        &[],
        stats.batches,
        "Batched forward passes executed",
    );
    s.counter(
        "maxk_serve_partial_batches_total",
        &[],
        stats.partial_batches,
        "Batches where a shard ran the seed-restricted partial forward",
    );
    s.counter(
        "maxk_serve_cached_queries_total",
        &[],
        stats.cached_queries,
        "Queries answered entirely from the logit cache",
    );
    s.counter(
        "maxk_serve_submitted_total",
        &[],
        stats.submitted,
        "Queries offered to admission",
    );
    s.counter(
        "maxk_serve_rejected_total",
        &[],
        stats.rejected,
        "Queries turned away at the door",
    );
    s.counter(
        "maxk_serve_shed_total",
        &[],
        stats.shed,
        "Admitted queries dropped before a forward",
    );
    s.counter(
        "maxk_serve_deadline_misses_total",
        &[],
        stats.deadline_misses,
        "Queries that missed their latency budget",
    );
    s.gauge(
        "maxk_serve_queue_depth",
        &[],
        stats.queue_depth as f64,
        "Current ingress queue depth",
    );
    s.gauge(
        "maxk_serve_queue_depth_peak",
        &[],
        stats.queue_depth_peak as f64,
        "Peak ingress queue depth since start",
    );
    s.gauge(
        "maxk_serve_uptime_seconds",
        &[],
        stats.uptime_s,
        "Seconds since the server started",
    );
    s.gauge(
        "maxk_serve_build_info",
        &[
            ("version", build.version),
            ("shards", &build.shards.to_string()),
            ("policy", build.policy),
            ("workers", &build.workers.to_string()),
        ],
        1.0,
        "Build/config identity (value is always 1; the labels carry the information)",
    );
    for (shard, &n) in stats.shard_batches.iter().enumerate() {
        let labels = [("shard", &*shard.to_string())];
        s.counter(
            "maxk_serve_shard_batches_total",
            &labels,
            n,
            "Batches each shard participated in",
        );
    }
    for (shard, &n) in stats.shard_partial_batches.iter().enumerate() {
        s.counter(
            "maxk_serve_shard_partial_batches_total",
            &[("shard", &shard.to_string())],
            n,
            "Batches each shard served via the partial path",
        );
    }
    if let Some(cache) = &stats.cache {
        cache_samples(s, cache);
    }
    admission_samples(s, stats.adaptive.as_ref(), &stats.classes);
    s.histogram(
        "maxk_serve_latency_us",
        &[],
        hist,
        "Server-side end-to-end latency (enqueue to reply)",
    );
    snap
}

/// The logit-cache series of [`stat_samples`].
fn cache_samples(s: &mut RegistrySnapshot, cache: &CacheSnapshot) {
    s.counter(
        "maxk_serve_cache_hits_total",
        &[],
        cache.hits,
        "Seed instances answered from resident cache rows",
    );
    s.counter(
        "maxk_serve_cache_misses_total",
        &[],
        cache.misses,
        "Seed instances that required a forward",
    );
    s.counter(
        "maxk_serve_cache_coalesced_total",
        &[],
        cache.coalesced,
        "Seed instances that parked on another batch's in-flight computation",
    );
    s.counter(
        "maxk_serve_cache_evictions_total",
        &[],
        cache.evictions,
        "Cache rows evicted under capacity pressure",
    );
    s.counter(
        "maxk_serve_cache_invalidated_total",
        &[],
        cache.invalidated,
        "Cache rows dropped by mutation dirty-cone invalidation",
    );
    s.gauge(
        "maxk_serve_cache_resident_rows",
        &[],
        cache.resident_rows as f64,
        "Logit rows currently resident",
    );
    s.gauge(
        "maxk_serve_cache_resident_bytes",
        &[],
        cache.resident_bytes as f64,
        "Bytes held by resident logit rows",
    );
    s.gauge(
        "maxk_serve_cache_capacity_rows",
        &[],
        cache.capacity as f64,
        "Configured cache capacity in rows",
    );
}

/// The admission series of [`stat_samples`]: the adaptive controller's
/// live state and the per-class books.
fn admission_samples(
    s: &mut RegistrySnapshot,
    adaptive: Option<&AdaptiveSnapshot>,
    classes: &[ClassStats],
) {
    if let Some(a) = adaptive {
        s.gauge(
            "maxk_serve_admission_batch_service_ewma_us",
            &[],
            a.ewma_us as f64,
            "EWMA of observed batch service time (µs)",
        );
        s.gauge(
            "maxk_serve_admission_derived_capacity",
            &[],
            a.derived_capacity as f64,
            "Queue capacity derived by the adaptive controller",
        );
        s.gauge(
            "maxk_serve_admission_derived_deadline_us",
            &[],
            a.derived_deadline_us as f64,
            "Default deadline budget derived by the adaptive controller (µs)",
        );
        s.counter(
            "maxk_serve_admission_replans_total",
            &[],
            a.replans,
            "Adaptive re-plans triggered by snapshot/epoch swaps",
        );
    }
    for c in classes {
        let class = [("class", c.name)];
        s.counter(
            "maxk_serve_admission_class_submitted_total",
            &class,
            c.submitted,
            "Queries submitted per traffic class",
        );
        s.counter(
            "maxk_serve_admission_class_admitted_total",
            &class,
            c.popped,
            "Queries handed to the batcher per traffic class",
        );
        s.counter(
            "maxk_serve_admission_class_rejected_total",
            &class,
            c.rejected,
            "Queries turned away per traffic class",
        );
        s.counter(
            "maxk_serve_admission_class_shed_total",
            &class,
            c.shed,
            "Admitted queries dropped per traffic class",
        );
        s.gauge(
            "maxk_serve_admission_class_weight",
            &class,
            c.weight,
            "Configured weight per traffic class",
        );
    }
}

/// Serializes spans as Chrome `trace_event` JSON (the object form with a
/// `traceEvents` array of complete `"ph":"X"` events) — loadable in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len());
    for s in spans {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"v\":{}}}}}",
            escape_json(s.name),
            escape_json(s.cat),
            s.start_us,
            s.dur_us,
            s.tid,
            s.arg
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

/// What the scrape endpoint serves: implemented by the server's stats
/// source (a cloneable bundle of the live counter/histogram handles).
/// `Sync` because one source answers concurrent scrapes from multiple
/// connection threads.
pub trait ScrapeSource: Send + Sync + 'static {
    /// The Prometheus text exposition body (`GET /metrics`).
    fn prometheus(&self) -> String;
    /// The JSON metrics dump body (`GET /metrics.json`).
    fn metrics_json(&self) -> String;
    /// The readiness report behind `GET /healthz` (`200` when ready,
    /// `503` when degraded). Defaults to an empty — always ready —
    /// report for sources without health wiring.
    fn healthz(&self) -> HealthReport {
        HealthReport::default()
    }
    /// The live-state dump behind `GET /debug/state` (admission, cache,
    /// shards, epoch, SLO). Defaults to an empty object.
    fn debug_state(&self) -> String {
        "{}".to_string()
    }
}

/// A running scrape endpoint: one listener thread answering
/// `GET /metrics` (Prometheus text) and `GET /metrics.json` (JSON dump).
/// Dropping it (or [`MetricsExporter::shutdown`]) stops the listener.
#[derive(Debug)]
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// The bound address (pass port 0 to let the OS pick one).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Concurrent scrape connections answered on their own threads; excess
/// connections are answered serially on the listener thread (bounded by
/// the head-read deadline), so a scrape storm degrades to serial
/// service instead of unbounded thread growth.
const MAX_SCRAPE_THREADS: usize = 32;

/// Overall deadline for reading one request head: a client that
/// trickles bytes (or sends nothing) is cut off here, so it can never
/// pin a scrape thread past this bound.
const SCRAPE_HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Binds `addr` and serves scrapes from `source` on a background
/// listener thread, with a bounded number of concurrent
/// per-connection threads.
///
/// # Errors
///
/// Propagates the bind/configure I/O errors.
pub fn serve_scrape<S: ScrapeSource>(
    source: S,
    addr: impl ToSocketAddrs,
) -> io::Result<MetricsExporter> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let source: Arc<S> = Arc::new(source);
    let handle = std::thread::spawn(move || {
        let active = Arc::new(AtomicUsize::new(0));
        while !stop_flag.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // A malformed or hung client only loses its own
                    // scrape; the endpoint keeps serving.
                    if active.load(Ordering::Relaxed) < MAX_SCRAPE_THREADS {
                        active.fetch_add(1, Ordering::Relaxed);
                        let src = Arc::clone(&source);
                        let worker_active = Arc::clone(&active);
                        let spawned = std::thread::Builder::new()
                            .name("maxk-scrape".to_string())
                            .spawn(move || {
                                let _ = answer_scrape(stream, &*src);
                                worker_active.fetch_sub(1, Ordering::Relaxed);
                            });
                        if let Err(_e) = spawned {
                            active.fetch_sub(1, Ordering::Relaxed);
                            // Thread spawn failed (resource pressure):
                            // the stream was moved into the closure and
                            // dropped with it; the client sees a reset
                            // and retries.
                        }
                    } else {
                        let _ = answer_scrape(stream, &*source);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
    Ok(MetricsExporter {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// Reads one HTTP request head (under [`SCRAPE_HEAD_DEADLINE`]) and
/// writes the matching response.
fn answer_scrape<S: ScrapeSource + ?Sized>(mut stream: TcpStream, source: &S) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_millis(1000)))?;
    let started = Instant::now();
    let mut head = Vec::with_capacity(1024);
    let mut buf = [0u8; 1024];
    // Read until the end of the request head (or a sane cap), giving up
    // entirely at the overall deadline.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 16 * 1024 {
        if started.elapsed() >= SCRAPE_HEAD_DEADLINE {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request head deadline exceeded",
            ));
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            // Per-read timeout: loop to re-check the overall deadline.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => continue,
            Err(e) => return Err(e),
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut first = request.lines().next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("GET");
    let path = first.next().unwrap_or("/");
    let mut allow = "";
    let (status, ctype, body) = if method != "GET" {
        allow = "Allow: GET\r\n";
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else if path.starts_with("/healthz") {
        let report = source.healthz();
        (
            if report.ready() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            },
            "application/json",
            report.render_json(),
        )
    } else if path.starts_with("/debug/state") {
        ("200 OK", "application/json", source.debug_state())
    } else if path.starts_with("/metrics.json") {
        ("200 OK", "application/json", source.metrics_json())
    } else if path == "/" || path.starts_with("/metrics") {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            source.prometheus(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        )
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n{allow}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_renders_families_once() {
        let mut snap = RegistrySnapshot::default();
        snap.counter("maxk_serve_queries_total", &[], 5, "answered");
        for (shard, n) in [("0", 2), ("1", 3)] {
            let labels = [("shard", shard)];
            snap.counter("maxk_serve_shard_batches_total", &labels, n, "per shard");
        }
        snap.gauge("maxk_serve_queue_depth", &[], 1.0, "depth");
        let mut hist = LatencyHistogram::new();
        hist.record(10);
        hist.record(100);
        snap.histogram("maxk_serve_latency_us", &[], hist, "e2e latency");
        let text = render_prometheus(&snap);
        assert_eq!(
            text.matches("# TYPE maxk_serve_shard_batches_total counter")
                .count(),
            1
        );
        assert!(text.contains("maxk_serve_queries_total 5"));
        assert!(text.contains("maxk_serve_shard_batches_total{shard=\"0\"} 2"));
        assert!(text.contains("maxk_serve_queue_depth 1"));
        assert!(text.contains("# TYPE maxk_serve_latency_us histogram"));
        assert!(text.contains("maxk_serve_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("maxk_serve_latency_us_sum 110"));
        assert!(text.contains("maxk_serve_latency_us_count 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded() {
        let mut hist = LatencyHistogram::new();
        hist.record(1); // bucket 0
        hist.record(2); // bucket 1
        hist.record(2);
        let mut snap = RegistrySnapshot::default();
        snap.histogram("h", &[], hist, "");
        let mut out = String::new();
        render_histogram(&mut out, &snap.histograms[0]);
        assert!(out.contains("h_bucket{le=\"1\"} 1"));
        assert!(out.contains("h_bucket{le=\"3\"} 3"));
        assert!(out.contains("h_bucket{le=\"+Inf\"} 3"));
        // No empty tail buckets beyond the last occupied one.
        assert!(!out.contains("le=\"7\""));
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = [SpanRecord {
            name: "queue_wait",
            cat: "query",
            tid: 3,
            start_us: 100,
            dur_us: 40,
            arg: 2,
        }];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"dur\":40"));
        assert!(json.contains("\"tid\":3"));
    }

    #[test]
    fn scrape_endpoint_answers_over_tcp() {
        struct Fixed;
        impl ScrapeSource for Fixed {
            fn prometheus(&self) -> String {
                "# HELP x x\n# TYPE x counter\nx 1\n".to_string()
            }
            fn metrics_json(&self) -> String {
                "{\"metrics\":[],\"histograms\":[]}".to_string()
            }
        }
        let exporter = serve_scrape(Fixed, ("127.0.0.1", 0)).expect("bind");
        let addr = exporter.local_addr();
        let fetch = |path: &str| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).expect("read");
            body
        };
        let text = fetch("/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("x 1"));
        let json = fetch("/metrics.json");
        assert!(json.contains("application/json"));
        assert!(json.contains("\"metrics\""));
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        exporter.shutdown();
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_label("x\"y"), "x\\\"y");
    }

    struct Fixture;
    impl ScrapeSource for Fixture {
        fn prometheus(&self) -> String {
            "x 1\n".to_string()
        }
        fn metrics_json(&self) -> String {
            "{\"metrics\":[]}".to_string()
        }
        fn healthz(&self) -> HealthReport {
            HealthReport::new(vec![super::super::health::HealthCheck::new(
                "always", true, "fixture",
            )])
        }
        fn debug_state(&self) -> String {
            "{\"depth\":0}".to_string()
        }
    }

    fn fetch_raw(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read");
        body
    }

    #[test]
    fn non_get_methods_rejected_with_405() {
        let exporter = serve_scrape(Fixture, ("127.0.0.1", 0)).expect("bind");
        let addr = exporter.local_addr();
        let resp = fetch_raw(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 405"));
        assert!(resp.contains("Allow: GET"));
        exporter.shutdown();
    }

    #[test]
    fn healthz_and_debug_state_routes_answer() {
        let exporter = serve_scrape(Fixture, ("127.0.0.1", 0)).expect("bind");
        let addr = exporter.local_addr();
        let health = fetch_raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"));
        assert!(health.contains("application/json"));
        assert!(health.contains("\"status\":\"ok\""));
        let state = fetch_raw(addr, "GET /debug/state HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(state.starts_with("HTTP/1.1 200"));
        assert!(state.contains("\"depth\":0"));
        exporter.shutdown();
    }

    #[test]
    fn degraded_source_answers_503() {
        struct Degraded;
        impl ScrapeSource for Degraded {
            fn prometheus(&self) -> String {
                String::new()
            }
            fn metrics_json(&self) -> String {
                String::new()
            }
            fn healthz(&self) -> HealthReport {
                HealthReport::new(vec![super::super::health::HealthCheck::new(
                    "slo", false, "breached",
                )])
            }
        }
        let exporter = serve_scrape(Degraded, ("127.0.0.1", 0)).expect("bind");
        let resp = fetch_raw(
            exporter.local_addr(),
            "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 503"));
        assert!(resp.contains("\"status\":\"degraded\""));
        exporter.shutdown();
    }

    #[test]
    fn stalled_client_does_not_block_other_scrapes() {
        let exporter = serve_scrape(Fixture, ("127.0.0.1", 0)).expect("bind");
        let addr = exporter.local_addr();
        // Connect and send nothing — this client holds its connection
        // open while real scrapes proceed on their own threads.
        let stalled = TcpStream::connect(addr).expect("connect");
        let start = Instant::now();
        let resp = fetch_raw(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"));
        assert!(
            start.elapsed() < SCRAPE_HEAD_DEADLINE,
            "scrape waited behind a stalled client"
        );
        drop(stalled);
        exporter.shutdown();
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let exporter = serve_scrape(Fixture, ("127.0.0.1", 0)).expect("bind");
        let addr = exporter.local_addr();
        let handles: Vec<_> = (0..24)
            .map(|i| {
                std::thread::spawn(move || {
                    let path = match i % 4 {
                        0 => "/metrics",
                        1 => "/metrics.json",
                        2 => "/healthz",
                        _ => "/debug/state",
                    };
                    fetch_raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().expect("scrape thread");
            assert!(resp.starts_with("HTTP/1.1 200"), "got: {resp}");
        }
        exporter.shutdown();
    }
}
