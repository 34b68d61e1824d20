//! The always-on flight recorder: a bounded black-box event ring plus
//! triggered incident bundles.
//!
//! Serving layers [`FlightRecorder::record`] coarse events (batch
//! formed, shed burst, epoch swap, eviction churn, replan, scrape) into
//! a fixed-byte ring at near-zero cost — one relaxed atomic fetch-add
//! and one short slot-mutex write, the same discipline as
//! [`super::TraceRing`]. Nothing is paid at steady state beyond that;
//! there is no sink I/O and no allocation per event.
//!
//! When an SLO breaches, [`FlightRecorder::trigger`] snapshots the ring
//! (the *pre*-incident evidence, captured retroactively) and boosts
//! trace sampling to 100% for [`RecorderConfig::post_trigger`] (the
//! *post*-incident evidence, captured prospectively). Once the window
//! elapses, [`FlightRecorder::finalize_due`] composes a self-contained
//! incident bundle — ring events, the boosted span window as Chrome
//! trace JSON, a full registry snapshot, the serving config and the
//! breach context — and writes it to the sink directory as
//! `incident-NNNN.json` (schema `maxk-incident-v1`). Re-triggering is
//! suppressed while an incident is open and for
//! [`RecorderConfig::cooldown`] after it closes, so one sustained breach
//! produces exactly one bundle.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use super::export::chrome_trace_json;
use super::trace::SpanRecord;
use super::Telemetry;

/// What a flight event witnessed. Coarse by design: the ring records
/// *that* something happened and its magnitude, spans record *why it
/// was slow*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A batch left the batcher (`a` = queries, `b` = union seeds).
    BatchFormed,
    /// A fully-cache-hot query answered inline (`a` = seeds).
    InlineAnswer,
    /// Admission shed queries (`a` = shed count in the burst).
    ShedBurst,
    /// Admission rejected queries (`a` = rejected count).
    Rejected,
    /// A dynamic engine swapped epochs (`a` = new epoch, `b` = rows
    /// invalidated by the swap).
    EpochSwap,
    /// Cache eviction churn observed by the monitor (`a` = evictions
    /// since the last tick).
    EvictionChurn,
    /// The adaptive controller replanned (`a` = replans since the last
    /// tick).
    Replan,
    /// A scrape or introspection request was answered (`a` = endpoint
    /// discriminant).
    Scrape,
    /// An SLO changed state (`a` = new state rank, `b` = fast burn in
    /// thousandths).
    SloTransition,
    /// The recorder itself triggered (`a` = incident id).
    Trigger,
}

impl EventKind {
    /// Stable label for bundles and debug dumps.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::BatchFormed => "batch_formed",
            EventKind::InlineAnswer => "inline_answer",
            EventKind::ShedBurst => "shed_burst",
            EventKind::Rejected => "rejected",
            EventKind::EpochSwap => "epoch_swap",
            EventKind::EvictionChurn => "eviction_churn",
            EventKind::Replan => "replan",
            EventKind::Scrape => "scrape",
            EventKind::SloTransition => "slo_transition",
            EventKind::Trigger => "trigger",
        }
    }
}

/// One black-box event: a timestamp on the telemetry clock, a kind and
/// two kind-specific magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the telemetry epoch.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// First magnitude (kind-specific).
    pub a: u64,
    /// Second magnitude (kind-specific).
    pub b: u64,
}

/// Flight-recorder knobs, carried inside [`super::slo::SloConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Byte bound on the event ring; capacity is
    /// `max_bytes / size_of::<FlightEvent>()` slots. Default 64 KiB
    /// (≈ 1630 events).
    pub max_bytes: usize,
    /// How long after a trigger to keep sampling boosted before the
    /// bundle finalizes. Default 500ms.
    pub post_trigger: Duration,
    /// Re-trigger suppression after a bundle closes. Default 5s.
    pub cooldown: Duration,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            max_bytes: 64 * 1024,
            post_trigger: Duration::from_millis(500),
            cooldown: Duration::from_secs(5),
        }
    }
}

/// A closed incident: everything that went into (or would go into) its
/// bundle file, retained in memory for introspection and tests.
#[derive(Debug, Clone)]
pub struct IncidentReport {
    /// Monotonic incident id (1-based).
    pub id: u64,
    /// Why the recorder triggered (e.g. `slo:latency`).
    pub reason: String,
    /// Trigger time, microseconds on the telemetry clock.
    pub trigger_us: u64,
    /// Finalize time, microseconds on the telemetry clock.
    pub finalize_us: u64,
    /// The ring snapshot taken at trigger time.
    pub events: Vec<FlightEvent>,
    /// The span window collected at finalize time (includes the boosted
    /// post-trigger traces).
    pub spans: Vec<SpanRecord>,
    /// Where the bundle was written (`None` without a sink dir).
    pub path: Option<PathBuf>,
}

#[derive(Debug)]
struct Pending {
    id: u64,
    reason: String,
    context_json: String,
    trigger_us: u64,
    due_us: u64,
    events: Vec<FlightEvent>,
}

#[derive(Debug, Default)]
struct RecorderState {
    pending: Option<Pending>,
    incidents: Vec<IncidentReport>,
    last_close_us: Option<u64>,
    next_id: u64,
}

/// The always-on black box. One per server, `Arc`-shared with every
/// layer that records into it.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    telemetry: Arc<Telemetry>,
    /// Serving config rendered once at startup, embedded in every
    /// bundle.
    config_json: String,
    sink: Option<PathBuf>,
    head: AtomicUsize,
    slots: Vec<Mutex<Option<FlightEvent>>>,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// Builds the recorder over the server's telemetry (timestamps and
    /// the boosted span window share its clock). `config_json` is the
    /// serving configuration as a JSON object, embedded verbatim in
    /// every bundle; `sink` is the incident output directory (`None`
    /// keeps bundles in memory only).
    pub fn new(
        cfg: RecorderConfig,
        telemetry: Arc<Telemetry>,
        config_json: String,
        sink: Option<PathBuf>,
    ) -> Self {
        let capacity = (cfg.max_bytes / std::mem::size_of::<FlightEvent>()).max(1);
        FlightRecorder {
            cfg,
            telemetry,
            config_json,
            sink,
            head: AtomicUsize::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            state: Mutex::new(RecorderState::default()),
        }
    }

    /// The configuration the recorder was built with.
    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    /// Ring capacity in events (bounded by
    /// [`RecorderConfig::max_bytes`]).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Resident ring bytes — always ≤ the configured bound.
    pub fn ring_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<FlightEvent>()
    }

    /// The incident sink directory, when configured.
    pub fn sink(&self) -> Option<&Path> {
        self.sink.as_deref()
    }

    /// Records one event at the current time. The steady-state cost:
    /// one relaxed fetch-add plus one short slot-mutex store.
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.record_at(self.telemetry.now_us(), kind, a, b);
    }

    /// Records one event at an explicit telemetry-clock time.
    pub fn record_at(&self, at_us: u64, kind: EventKind, a: u64, b: u64) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[idx].lock().expect("recorder slot poisoned") =
            Some(FlightEvent { at_us, kind, a, b });
    }

    /// The resident event window, sorted by time.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|s| *s.lock().expect("recorder slot poisoned"))
            .collect();
        out.sort_by_key(|e| e.at_us);
        out
    }

    /// Opens an incident: snapshots the ring, boosts trace sampling to
    /// 100% for the post-trigger window, and schedules the bundle.
    /// Returns `false` (and does nothing) while an incident is already
    /// open or the post-close cooldown is running — one sustained breach
    /// yields exactly one bundle.
    ///
    /// `reason` names the trigger (e.g. `slo:latency`); `context_json`
    /// is a JSON object describing the breach (burn rates, states),
    /// embedded verbatim in the bundle.
    pub fn trigger(&self, reason: &str, context_json: String) -> bool {
        let now_us = self.telemetry.now_us();
        let mut state = self.state.lock().expect("recorder state poisoned");
        if state.pending.is_some() {
            return false;
        }
        if let Some(closed) = state.last_close_us {
            if now_us < closed.saturating_add(self.cfg.cooldown.as_micros() as u64) {
                return false;
            }
        }
        state.next_id += 1;
        let id = state.next_id;
        drop(state);
        // Record the trigger itself, then snapshot — the event is part
        // of the evidence.
        self.record_at(now_us, EventKind::Trigger, id, 0);
        let events = self.events();
        let due_us = now_us.saturating_add(self.cfg.post_trigger.as_micros() as u64);
        self.telemetry.boost_sampling_until(due_us);
        self.telemetry
            .registry()
            .counter(
                "maxk_serve_incidents_total",
                &[],
                "Flight-recorder incidents triggered",
            )
            .inc();
        let mut state = self.state.lock().expect("recorder state poisoned");
        state.pending = Some(Pending {
            id,
            reason: reason.to_string(),
            context_json,
            trigger_us: now_us,
            due_us,
            events,
        });
        true
    }

    /// True while a triggered incident has not yet finalized.
    pub fn incident_open(&self) -> bool {
        self.state
            .lock()
            .expect("recorder state poisoned")
            .pending
            .is_some()
    }

    /// Finalizes the open incident once its post-trigger window has
    /// elapsed (or immediately when `force` — the shutdown path, so a
    /// breach near exit still emits its bundle). Collects the boosted
    /// span window and the registry snapshot, writes the bundle to the
    /// sink, and starts the cooldown. Returns the closed report.
    pub fn finalize_due(&self, force: bool) -> Option<IncidentReport> {
        let now_us = self.telemetry.now_us();
        let pending = {
            let mut state = self.state.lock().expect("recorder state poisoned");
            match &state.pending {
                Some(p) if force || now_us >= p.due_us => state.pending.take(),
                _ => None,
            }
        }?;
        let spans = self.telemetry.spans();
        let report = IncidentReport {
            id: pending.id,
            reason: pending.reason,
            trigger_us: pending.trigger_us,
            finalize_us: now_us,
            events: pending.events,
            spans,
            path: None,
        };
        let bundle = self.render_bundle(&report, &pending.context_json);
        let path = self.sink.as_ref().and_then(|dir| {
            let path = dir.join(format!("incident-{:04}.json", report.id));
            std::fs::create_dir_all(dir).ok()?;
            std::fs::write(&path, bundle.as_bytes()).ok()?;
            Some(path)
        });
        let report = IncidentReport { path, ..report };
        let mut state = self.state.lock().expect("recorder state poisoned");
        state.last_close_us = Some(now_us);
        state.incidents.push(report.clone());
        Some(report)
    }

    /// Every closed incident so far.
    pub fn incidents(&self) -> Vec<IncidentReport> {
        self.state
            .lock()
            .expect("recorder state poisoned")
            .incidents
            .clone()
    }

    /// Renders the self-contained `maxk-incident-v1` bundle.
    fn render_bundle(&self, report: &IncidentReport, context_json: &str) -> String {
        use std::fmt::Write as _;
        let mut events = String::new();
        for (i, e) in report.events.iter().enumerate() {
            if i > 0 {
                events.push(',');
            }
            let _ = write!(
                events,
                "{{\"at_us\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.at_us,
                e.kind.label(),
                e.a,
                e.b
            );
        }
        let registry = super::export::render_metrics_json(&self.telemetry.registry().snapshot());
        let context = if context_json.is_empty() {
            "{}"
        } else {
            context_json
        };
        format!(
            "{{\"schema\":\"maxk-incident-v1\",\"id\":{},\"reason\":\"{}\",\"trigger_us\":{},\
             \"finalize_us\":{},\"context\":{},\"config\":{},\"events\":[{}],\"trace\":{},\
             \"registry\":{}}}",
            report.id,
            super::export::escape_json(&report.reason),
            report.trigger_us,
            report.finalize_us,
            context,
            if self.config_json.is_empty() {
                "{}"
            } else {
                &self.config_json
            },
            events,
            chrome_trace_json(&report.spans),
            registry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryConfig;

    fn recorder(cfg: RecorderConfig) -> FlightRecorder {
        let tel = Arc::new(Telemetry::new(TelemetryConfig::default()));
        FlightRecorder::new(cfg, tel, "{}".to_string(), None)
    }

    #[test]
    fn ring_never_exceeds_byte_bound() {
        let cfg = RecorderConfig {
            max_bytes: 1024,
            ..RecorderConfig::default()
        };
        let rec = recorder(cfg);
        assert!(rec.ring_bytes() <= 1024);
        let cap = rec.capacity();
        for i in 0..(cap * 3) {
            rec.record_at(i as u64, EventKind::BatchFormed, 1, 1);
        }
        assert!(rec.events().len() <= cap);
        assert!(rec.ring_bytes() <= 1024);
    }

    #[test]
    fn ring_keeps_newest_events() {
        let rec = recorder(RecorderConfig {
            max_bytes: 4 * std::mem::size_of::<FlightEvent>(),
            ..RecorderConfig::default()
        });
        assert_eq!(rec.capacity(), 4);
        for i in 0..10u64 {
            rec.record_at(i, EventKind::Replan, i, 0);
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].a, 6);
        assert_eq!(events[3].a, 9);
    }

    #[test]
    fn trigger_suppressed_while_open_and_during_cooldown() {
        let rec = recorder(RecorderConfig {
            post_trigger: Duration::from_millis(0),
            cooldown: Duration::from_secs(3600),
            ..RecorderConfig::default()
        });
        rec.record(EventKind::ShedBurst, 5, 0);
        assert!(rec.trigger("slo:latency", "{}".to_string()));
        assert!(rec.incident_open());
        assert!(!rec.trigger("slo:latency", "{}".to_string()));
        let report = rec.finalize_due(false).expect("due immediately");
        assert_eq!(report.id, 1);
        assert!(report.events.iter().any(|e| e.kind == EventKind::ShedBurst));
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == EventKind::Trigger && e.a == 1));
        // Cooldown (1h) suppresses the next trigger.
        assert!(!rec.trigger("slo:latency", "{}".to_string()));
        assert_eq!(rec.incidents().len(), 1);
    }

    #[test]
    fn trigger_boosts_sampling_and_bundle_carries_spans() {
        let tel = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let rec = FlightRecorder::new(
            RecorderConfig {
                post_trigger: Duration::from_millis(200),
                ..RecorderConfig::default()
            },
            Arc::clone(&tel),
            "{}".to_string(),
            None,
        );
        // Sampling is 0.0: no traces before the trigger.
        assert!(tel.begin_trace(0, 1).is_none());
        assert!(rec.trigger("slo:latency", "{}".to_string()));
        // Boost window: everything traces.
        assert!(tel.spans_enabled());
        assert!(tel.begin_trace(0, 1).is_some());
        tel.push_span(
            "forward",
            1,
            std::time::Instant::now(),
            Duration::from_micros(40),
            0,
        );
        let report = rec.finalize_due(true).expect("forced");
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "forward");
    }

    #[test]
    fn bundle_written_to_sink_is_self_contained() {
        let dir = std::env::temp_dir().join(format!(
            "maxk-recorder-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tel = Arc::new(Telemetry::new(TelemetryConfig::default()));
        tel.registry()
            .counter("maxk_serve_queries_total", &[], "answered")
            .add(7);
        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            tel,
            "{\"workers\":2}".to_string(),
            Some(dir.clone()),
        );
        rec.record(EventKind::EpochSwap, 3, 11);
        assert!(rec.trigger("slo:staleness", "{\"fast_burn\":9.0}".to_string()));
        let report = rec.finalize_due(true).expect("forced");
        let path = report.path.expect("bundle written");
        let body = std::fs::read_to_string(&path).expect("bundle readable");
        assert!(body.contains("\"schema\":\"maxk-incident-v1\""));
        assert!(body.contains("\"reason\":\"slo:staleness\""));
        assert!(body.contains("\"kind\":\"epoch_swap\""));
        assert!(body.contains("\"fast_burn\":9.0"));
        assert!(body.contains("\"workers\":2"));
        assert!(body.contains("maxk_serve_queries_total"));
        assert!(body.contains("\"traceEvents\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
