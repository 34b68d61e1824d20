//! End-to-end serving telemetry: per-query stage traces, the metrics
//! registry, per-layer kernel timing, and the exporters.
//!
//! [`Telemetry`] is the one shared observability object a [`crate::Server`]
//! owns (when [`TelemetryConfig::enabled`]); every serving layer feeds it:
//!
//! * the admission/batcher/worker path records the **stage split** of
//!   every answered query — queue-wait (admission enqueue → batcher pop),
//!   batch-wait (pop → forward start) and service (forward start →
//!   reply) — into registry histograms; the three stage durations and the
//!   end-to-end latency are derived from the *same* four timestamps, so
//!   `queue + batch + service` reconstructs the end-to-end latency up to
//!   microsecond truncation (≤ 3µs of slop);
//! * a **sampled subset** of queries additionally carries a
//!   [`TraceContext`] whose stage marks become [`SpanRecord`]s in the
//!   bounded [`TraceRing`] at reply time (plus batch-level plan/forward/
//!   shard spans), exportable as Chrome `trace_event` JSON;
//! * the engines record **per-layer kernel timing** (dense-linear vs
//!   SpMM vs SSpMM vs MaxK vs gather, full vs partial path) and the
//!   sharded router its **per-shard** forward time, as registry counters.
//!
//! Overhead model: stage recording costs four integer durations and one
//! short lock per histogram *per batch* (amortized over the batch's
//! queries); tracing costs nothing for unsampled queries (the sampler is
//! one relaxed atomic increment) and a handful of ring writes at reply
//! for sampled ones; kernel timing is per *batch*, two `Instant` reads
//! per kernel call. The repo benchmark reports the total as
//! `serve.trace_overhead_pct` (`benchmark/`, traced pass).

pub mod export;
pub mod health;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod trace;

pub use export::{chrome_trace_json, serve_scrape, MetricsExporter, ScrapeSource};
pub use health::{HealthCheck, HealthReport};
pub use recorder::{EventKind, FlightEvent, FlightRecorder, IncidentReport, RecorderConfig};
pub use registry::{Counter, Gauge, Histogram, MetricSample, Registry, RegistrySnapshot};
pub use slo::{
    AnswerObs, SloConfig, SloEvent, SloHub, SloKind, SloSpec, SloSpecSet, SloState, SloStatus,
    SloTracker,
};
pub use trace::{SpanRecord, Stage, TraceContext, TraceRing};

use maxk_nn::plan::KernelKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Telemetry knobs, carried inside [`crate::ServeConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch. When `false` the server allocates no telemetry
    /// state at all.
    pub enabled: bool,
    /// Fraction of queries that carry a full [`TraceContext`] (span
    /// recording). `0.0` disables tracing, `1.0` traces everything;
    /// intermediate rates trace every ⌈1/rate⌉-th query. Stage
    /// histograms and per-layer kernel laps are **not** sampled — they
    /// cover every answered query/batch whenever telemetry is enabled.
    pub sampling: f64,
}

/// Span-ring capacity: the bounded memory of the trace window.
pub const RING_CAPACITY: usize = 4096;

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            sampling: 0.0,
        }
    }
}

impl TelemetryConfig {
    /// A disabled configuration (the `--telemetry-off` baseline).
    pub fn off() -> Self {
        TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        }
    }
}

/// The per-query stage wait/service histograms, as one read-out.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    /// Admission enqueue → batcher pop, per answered query.
    pub queue_wait: crate::metrics::LatencySummary,
    /// Batcher pop → forward start (window wait + batch-channel
    /// handoff; 0 for inline cache answers), per answered query.
    pub batch_wait: crate::metrics::LatencySummary,
    /// Forward start → reply recorded (forward + gather + reply
    /// assembly; cache-row assembly for inline answers), per answered
    /// query.
    pub service: crate::metrics::LatencySummary,
    /// Enqueue → reply, recorded from the same timestamps the three
    /// stages split (so its count matches theirs exactly).
    pub e2e: crate::metrics::LatencySummary,
}

/// The shared telemetry hub: sampler, registry, stage histograms and the
/// span ring. One per server, `Arc`-shared with every thread that
/// records into it.
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    registry: Registry,
    ring: TraceRing,
    /// Trace every `sample_every`-th query; 0 disables tracing.
    sample_every: u64,
    sample_ctr: AtomicU64,
    /// Trace-sampling boost deadline (µs on the telemetry clock): while
    /// `now < boost_until`, every query traces regardless of the
    /// configured rate. 0 means no boost. Set by the flight recorder on
    /// an incident trigger.
    boost_until_us: AtomicU64,
    next_trace_id: AtomicU64,
    next_batch_id: AtomicU64,
    stage_queue: Histogram,
    stage_batch: Histogram,
    stage_service: Histogram,
    stage_e2e: Histogram,
}

const STAGE_HIST: &str = "maxk_serve_stage_latency_us";
const STAGE_HELP: &str =
    "Per-stage latency split of answered queries (queue_wait + batch_wait + service == e2e \
     up to microsecond truncation)";

impl Telemetry {
    /// Builds the hub for `cfg` (callers gate on `cfg.enabled`
    /// themselves — a disabled config still builds a working, unused
    /// hub).
    pub fn new(cfg: TelemetryConfig) -> Self {
        let registry = Registry::new();
        let stage = |stage: &str| registry.histogram(STAGE_HIST, &[("stage", stage)], STAGE_HELP);
        let stage_queue = stage("queue_wait");
        let stage_batch = stage("batch_wait");
        let stage_service = stage("service");
        let stage_e2e = stage("e2e");
        let sample_every = if cfg.sampling <= 0.0 {
            0
        } else {
            (1.0 / cfg.sampling.min(1.0)).round().max(1.0) as u64
        };
        Telemetry {
            epoch: Instant::now(),
            ring: TraceRing::new(RING_CAPACITY),
            sample_every,
            sample_ctr: AtomicU64::new(0),
            boost_until_us: AtomicU64::new(0),
            next_trace_id: AtomicU64::new(1),
            next_batch_id: AtomicU64::new(1),
            registry,
            stage_queue,
            stage_batch,
            stage_service,
            stage_e2e,
        }
    }

    /// The metrics registry (engines and the router record kernel and
    /// shard counters here; exporters snapshot it).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Microseconds since the telemetry epoch for `at` (span
    /// timestamps).
    pub fn us_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Microseconds since the telemetry epoch, now. The flight recorder
    /// and SLO engine share this clock so incident events and spans line
    /// up on one timebase.
    pub fn now_us(&self) -> u64 {
        self.us_since_epoch(Instant::now())
    }

    /// Boosts trace sampling to 100% until `until_us` on the telemetry
    /// clock (monotone: never shrinks an already-later deadline). The
    /// flight recorder calls this on an incident trigger so the
    /// post-trigger window is fully traced.
    pub fn boost_sampling_until(&self, until_us: u64) {
        self.boost_until_us.fetch_max(until_us, Ordering::Relaxed);
    }

    fn boosted(&self) -> bool {
        let until = self.boost_until_us.load(Ordering::Relaxed);
        until != 0 && self.now_us() < until
    }

    /// True when span recording is on at any rate (batch-level spans are
    /// recorded per batch whenever it is), including during an incident
    /// boost window.
    pub fn spans_enabled(&self) -> bool {
        self.sample_every > 0 || self.boosted()
    }

    /// Sampler: hands out a [`TraceContext`] for every
    /// ⌈1/sampling⌉-th query, `None` otherwise. The unsampled path costs
    /// one relaxed atomic increment (plus one load for the boost
    /// deadline); during an incident boost window every query traces.
    pub fn begin_trace(&self, client: u64, seeds: usize) -> Option<Box<TraceContext>> {
        if self.sample_every == 0 {
            if !self.boosted() {
                return None;
            }
        } else {
            let n = self.sample_ctr.fetch_add(1, Ordering::Relaxed);
            if n % self.sample_every != 0 && !self.boosted() {
                return None;
            }
        }
        let id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(TraceContext::new(id, client, seeds as u64)))
    }

    /// Allocates a batch id for batch-level spans.
    pub fn next_batch_id(&self) -> u64 {
        self.next_batch_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Folds a finished trace into spans: one span per consecutive mark
    /// interval (named by the later mark's
    /// [`Stage::interval_label`]) plus one whole-query `"query"` span,
    /// all pushed into the ring.
    pub fn finish_trace(&self, ctx: &TraceContext) {
        let marks = ctx.marks();
        if marks.len() < 2 {
            return;
        }
        for pair in marks.windows(2) {
            let (_, prev_at) = pair[0];
            let (stage, at) = pair[1];
            self.ring.push(SpanRecord {
                name: stage.interval_label(),
                cat: "query",
                tid: ctx.id(),
                start_us: self.us_since_epoch(prev_at),
                dur_us: at.saturating_duration_since(prev_at).as_micros() as u64,
                arg: ctx.seeds(),
            });
        }
        let (_, first) = marks[0];
        let (_, last) = marks[marks.len() - 1];
        self.ring.push(SpanRecord {
            name: "query",
            cat: "query",
            tid: ctx.id(),
            start_us: self.us_since_epoch(first),
            dur_us: last.saturating_duration_since(first).as_micros() as u64,
            arg: ctx.client(),
        });
    }

    /// Pushes one batch-level span (plan / forward / shard_forward /
    /// gather) into the ring.
    pub fn push_span(
        &self,
        name: &'static str,
        batch_id: u64,
        start: Instant,
        dur: Duration,
        arg: u64,
    ) {
        self.ring.push(SpanRecord {
            name,
            cat: "batch",
            tid: batch_id,
            start_us: self.us_since_epoch(start),
            dur_us: dur.as_micros() as u64,
            arg,
        });
    }

    /// Records the stage split of one delivery's answered queries — a
    /// `[queue_wait, batch_wait, service, e2e]` row in microseconds per
    /// query — under one lock per histogram.
    pub fn record_stage_rows(&self, rows: &[[u64; 4]]) {
        if rows.is_empty() {
            return;
        }
        self.stage_queue.record_all(rows.iter().map(|r| r[0]));
        self.stage_batch.record_all(rows.iter().map(|r| r[1]));
        self.stage_service.record_all(rows.iter().map(|r| r[2]));
        self.stage_e2e.record_all(rows.iter().map(|r| r[3]));
    }

    /// The stage histograms as one read-out (also surfaced through
    /// [`crate::StatsSnapshot::stages`]).
    pub fn stage_breakdown(&self) -> StageBreakdown {
        use crate::metrics::LatencySummary;
        StageBreakdown {
            queue_wait: LatencySummary::of(&self.stage_queue.snapshot()),
            batch_wait: LatencySummary::of(&self.stage_batch.snapshot()),
            service: LatencySummary::of(&self.stage_service.snapshot()),
            e2e: LatencySummary::of(&self.stage_e2e.snapshot()),
        }
    }

    /// Records one forward pass's wall time on `path` (`"full"` /
    /// `"partial"`).
    pub fn record_forward(&self, path: &'static str, dur: Duration) {
        self.registry
            .counter(
                "maxk_serve_forward_time_us_total",
                &[("path", path)],
                "Cumulative engine forward wall time by plan path",
            )
            .add(dur.as_micros() as u64);
        self.registry
            .counter(
                "maxk_serve_forwards_total",
                &[("path", path)],
                "Forward passes by plan path",
            )
            .inc();
    }

    /// Records a forward's per-layer kernel laps on `path` into the
    /// `maxk_serve_kernel_time_us_total{path,layer,kernel}` counters.
    pub fn record_kernel_laps(&self, path: &'static str, laps: &[(usize, KernelKind, Duration)]) {
        for &(layer, kernel, dur) in laps {
            self.registry
                .counter(
                    "maxk_serve_kernel_time_us_total",
                    &[
                        ("path", path),
                        ("layer", &layer.to_string()),
                        ("kernel", kernel.label()),
                    ],
                    "Cumulative per-layer kernel wall time by plan path",
                )
                .add(dur.as_micros() as u64);
        }
    }

    /// Records planning (full-vs-partial cost model) wall time.
    pub fn record_plan(&self, dur: Duration) {
        self.registry
            .counter(
                "maxk_serve_plan_time_us_total",
                &[],
                "Cumulative batch plan-selection wall time",
            )
            .add(dur.as_micros() as u64);
    }

    /// Records one shard's forward wall time within a sharded batch.
    pub fn record_shard_forward(&self, shard: usize, dur: Duration, partial: bool) {
        let shard_label = shard.to_string();
        self.registry
            .counter(
                "maxk_serve_shard_forward_time_us_total",
                &[("shard", &shard_label)],
                "Cumulative per-shard forward wall time",
            )
            .add(dur.as_micros() as u64);
        self.registry
            .counter(
                "maxk_serve_shard_forwards_total",
                &[
                    ("shard", &shard_label),
                    ("path", if partial { "partial" } else { "full" }),
                ],
                "Per-shard forward passes by plan path",
            )
            .inc();
    }

    /// The resident span window, sorted by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.collect()
    }

    /// The resident span window as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_rate_maps_to_stride() {
        assert_eq!(Telemetry::new(TelemetryConfig::default()).sample_every, 0);
        let full = Telemetry::new(TelemetryConfig {
            sampling: 1.0,
            ..TelemetryConfig::default()
        });
        assert_eq!(full.sample_every, 1);
        let percent = Telemetry::new(TelemetryConfig {
            sampling: 0.01,
            ..TelemetryConfig::default()
        });
        assert_eq!(percent.sample_every, 100);
    }

    #[test]
    fn sampler_hands_out_every_nth_trace() {
        let t = Telemetry::new(TelemetryConfig {
            sampling: 0.25,
            ..TelemetryConfig::default()
        });
        let sampled = (0..100).filter(|_| t.begin_trace(0, 1).is_some()).count();
        assert_eq!(sampled, 25);
        let off = Telemetry::new(TelemetryConfig::default());
        assert!(off.begin_trace(0, 1).is_none());
        assert!(!off.spans_enabled());
    }

    #[test]
    fn finished_trace_produces_interval_spans() {
        let t = Telemetry::new(TelemetryConfig {
            sampling: 1.0,
            ..TelemetryConfig::default()
        });
        let mut ctx = t.begin_trace(9, 3).expect("sampling 1.0 traces everything");
        let t0 = Instant::now();
        ctx.mark_at(Stage::Enqueue, t0);
        ctx.mark_at(Stage::Dequeue, t0 + Duration::from_micros(50));
        ctx.mark_at(Stage::Forward, t0 + Duration::from_micros(80));
        ctx.mark_at(Stage::Reply, t0 + Duration::from_micros(100));
        t.finish_trace(&ctx);
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"queue_wait"));
        assert!(names.contains(&"batch_wait"));
        assert!(names.contains(&"reply"));
        assert!(names.contains(&"query"));
        let q = spans.iter().find(|s| s.name == "queue_wait").unwrap();
        assert_eq!(q.dur_us, 50);
        assert_eq!(q.tid, ctx.id());
        let whole = spans.iter().find(|s| s.name == "query").unwrap();
        assert_eq!(whole.dur_us, 100);
    }

    #[test]
    fn stage_rows_land_in_all_four_histograms() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record_stage_rows(&[[10, 5, 85, 100], [0, 0, 7, 7]]);
        let b = t.stage_breakdown();
        assert_eq!(b.queue_wait.count, 2);
        assert_eq!(b.batch_wait.count, 2);
        assert_eq!(b.service.count, 2);
        assert_eq!(b.e2e.count, 2);
        assert_eq!(b.e2e.max_us, 100);
    }

    #[test]
    fn kernel_and_shard_counters_register() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record_forward("partial", Duration::from_micros(120));
        t.record_kernel_laps(
            "partial",
            &[
                (0, KernelKind::DenseLinear, Duration::from_micros(60)),
                (0, KernelKind::SSpMM, Duration::from_micros(40)),
            ],
        );
        t.record_shard_forward(1, Duration::from_micros(70), true);
        let snap = t.registry().snapshot();
        let get = |name: &str, label: (&str, &str)| {
            snap.counters
                .iter()
                .find(|s| {
                    s.name == name && s.labels.iter().any(|(k, v)| *k == label.0 && v == label.1)
                })
                .map(|s| s.value)
        };
        assert_eq!(
            get("maxk_serve_forward_time_us_total", ("path", "partial")),
            Some(120)
        );
        assert_eq!(
            get("maxk_serve_kernel_time_us_total", ("kernel", "sspmm")),
            Some(40)
        );
        assert_eq!(
            get("maxk_serve_shard_forward_time_us_total", ("shard", "1")),
            Some(70)
        );
    }
}
