//! Incident-aware observability acceptance suite (ISSUE 10).
//!
//! Exercises the SLO burn-rate engine, the flight recorder and the
//! introspection endpoints through the public serving API: burn-rate
//! state transitions must be monotone in observed error mass, the
//! recorder ring must never exceed its byte bound while a triggered
//! dump carries spans of the offending window, and an injected
//! latency fault must breach the latency SLO, flip `/healthz` to
//! degraded, emit exactly one self-contained incident bundle, and
//! recover once the fault clears.

use maxk_gnn::graph::generate;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, GnnModel, ModelConfig};
use maxk_gnn::serve::telemetry::slo::state_of;
use maxk_gnn::serve::{
    EventKind, FaultInjector, FlightRecorder, InferenceEngine, RecorderConfig, Server, SloConfig,
    SloSpec, SloSpecSet, SloState, SloTracker, Telemetry, TelemetryConfig,
};
use maxk_gnn::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small served model: power-law graph, GCN + MaxK, eval-mode engine.
fn engine(nodes: usize) -> InferenceEngine {
    let graph = generate::chung_lu_power_law(nodes, 6.0, 2.3, 23)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(4), 6, 3);
    cfg.hidden_dim = 12;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(41);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let x = Matrix::xavier(nodes, 6, &mut rng);
    InferenceEngine::from_snapshot(&ModelSnapshot::capture(&model), &graph, x).unwrap()
}

/// One blocking HTTP/1.1 GET; returns the raw response (status line,
/// headers and body) without asserting a status.
fn http_raw(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to endpoint");
    stream.write_all(request.as_bytes()).expect("write request");
    stream.flush().expect("flush request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    buf
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    http_raw(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// The latency objective this host can meet when healthy: `max(1 ms,
/// 4 × p99)` of 80 single-seed queries (64 of them warm) through a plain
/// server over `engine` (a constant budget is a bet on the machine; a
/// 2-core CI host lost it).
fn probed_objective(engine: &Arc<FaultInjector<InferenceEngine>>) -> Duration {
    let probe = Server::builder()
        .batch_window(Duration::ZERO)
        .workers(1)
        .start(Arc::clone(engine));
    for i in 0..80u32 {
        let _ = probe.handle().query(&[i % 16]).unwrap();
    }
    let p99_us = probe.shutdown().latency.p99_us;
    Duration::from_micros(4 * p99_us as u64).max(Duration::from_millis(1))
}

/// An aggressive SLO configuration sized for a short test run: the
/// probed latency objective, windows just long enough to hold 8 stalled
/// forwards, a low event floor, a short post-trigger window and a
/// one-hour cooldown so a sustained breach cannot emit a second bundle.
fn tight_slo(objective: Duration, stall: Duration) -> SloConfig {
    SloConfig {
        specs: SloSpecSet::new().with_spec(SloSpec::latency("latency", objective, 0.05)),
        fast_window: Duration::from_millis(400).max(8 * stall),
        slow_window: Duration::from_millis(800).max(16 * stall),
        tick: Duration::from_millis(5),
        min_events: 4,
        recorder: RecorderConfig {
            post_trigger: Duration::from_millis(100).max(3 * stall),
            cooldown: Duration::from_secs(3600),
            ..RecorderConfig::default()
        },
        ..SloConfig::default()
    }
}

/// The full incident lifecycle, end to end over TCP: a healthy server
/// answers `/healthz` 200; an injected forward stall of 10× the probed
/// latency objective breaches it, flipping `/healthz` to 503 and
/// triggering exactly one incident bundle in the sink directory —
/// self-contained, with ring events, spans of the offending window and a
/// registry snapshot; clearing the fault recovers `/healthz` to 200.
#[test]
fn injected_fault_breaches_flips_healthz_and_emits_one_bundle() {
    let sink = std::env::temp_dir().join(format!("maxk-slo-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sink);
    let faulty = Arc::new(FaultInjector::new(engine(60)));
    let objective = probed_objective(&faulty);
    let stall = 10 * objective;
    let server = Server::builder()
        .batch_window(Duration::ZERO)
        .workers(1)
        .slo(tight_slo(objective, stall))
        .incident_sink(&sink)
        .start(Arc::clone(&faulty));
    let exporter = server.serve_metrics("127.0.0.1:0").expect("bind endpoint");
    let addr = exporter.local_addr();
    let handle = server.handle();

    // Healthy: /healthz answers 200 with every check ok.
    let healthy = http_get(addr, "/healthz");
    assert!(healthy.starts_with("HTTP/1.1 200"), "got: {healthy}");
    assert!(healthy.contains("\"status\":\"ok\""));

    // Inject the fault and drive load until the breach flips /healthz.
    faulty.set_forward_delay(stall);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut degraded = String::new();
    while Instant::now() < deadline {
        for i in 0..8u32 {
            let _ = handle.query(&[i % 16]).unwrap();
        }
        degraded = http_get(addr, "/healthz");
        if degraded.starts_with("HTTP/1.1 503") {
            break;
        }
    }
    assert!(
        degraded.starts_with("HTTP/1.1 503"),
        "breach must degrade /healthz: {degraded}"
    );
    assert!(degraded.contains("\"status\":\"degraded\""));
    assert!(degraded.contains("breached: latency"));

    // The incident finalizes after its post-trigger window; keep serving
    // so the boosted window has spans to collect.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.incidents().is_empty() && Instant::now() < deadline {
        for i in 0..4u32 {
            let _ = handle.query(&[i]).unwrap();
        }
    }
    let incidents = server.incidents();
    assert_eq!(
        incidents.len(),
        1,
        "exactly one bundle per sustained breach"
    );
    assert_eq!(incidents[0].reason, "slo:latency");
    assert!(
        !incidents[0].spans.is_empty(),
        "boosted post-trigger window must carry spans"
    );
    assert!(
        incidents[0]
            .events
            .iter()
            .any(|e| e.kind == EventKind::BatchFormed),
        "ring evidence must include the offending batches"
    );

    // The bundle on disk is self-contained: schema, breach context,
    // config, ring events, Chrome trace and a registry snapshot.
    let files: Vec<_> = std::fs::read_dir(&sink)
        .expect("sink directory created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "exactly one bundle file: {files:?}");
    let body = std::fs::read_to_string(&files[0]).unwrap();
    assert!(body.contains("\"schema\":\"maxk-incident-v1\""));
    assert!(body.contains("\"reason\":\"slo:latency\""));
    assert!(body.contains("\"state\":\"breach\""));
    assert!(body.contains("\"batch_window_us\":0"));
    assert!(body.contains("\"kind\":\"batch_formed\""));
    assert!(body.contains("\"traceEvents\""));
    assert!(body.contains("maxk_serve_slo_state"));
    assert!(body.contains("maxk_serve_incidents_total"));

    // Clear the fault: the burn decays within the fast window and
    // /healthz recovers.
    faulty.set_forward_delay(Duration::ZERO);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut recovered = String::new();
    while Instant::now() < deadline {
        for i in 0..8u32 {
            let _ = handle.query(&[i]).unwrap();
        }
        std::thread::sleep(Duration::from_millis(25));
        recovered = http_get(addr, "/healthz");
        if recovered.starts_with("HTTP/1.1 200") {
            break;
        }
    }
    assert!(
        recovered.starts_with("HTTP/1.1 200"),
        "cleared fault must recover /healthz: {recovered}"
    );

    // Still exactly one incident (cooldown suppressed re-triggers).
    assert_eq!(server.incidents().len(), 1);

    // /debug/state reflects the episode.
    let dump = http_get(addr, "/debug/state");
    let (_, json) = dump.split_once("\r\n\r\n").expect("header/body split");
    assert!(json.contains("\"incidents\":1"));
    assert!(json.contains("\"name\":\"latency\""));

    exporter.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&sink);
}

/// The ring is byte-bounded no matter how much is recorded, and a
/// triggered dump carries the spans pushed during the boosted window —
/// through the public recorder API.
#[test]
fn recorder_ring_stays_bounded_and_dump_carries_offending_spans() {
    let tel = Arc::new(Telemetry::new(TelemetryConfig::default()));
    let rec = FlightRecorder::new(
        RecorderConfig {
            max_bytes: 2048,
            post_trigger: Duration::from_millis(50),
            cooldown: Duration::from_secs(3600),
        },
        Arc::clone(&tel),
        "{}".to_string(),
        None,
    );
    assert!(rec.ring_bytes() <= 2048);
    for i in 0..10_000u64 {
        rec.record_at(i, EventKind::BatchFormed, i, 2 * i);
    }
    assert!(rec.ring_bytes() <= 2048, "recording must not grow the ring");
    assert!(rec.events().len() <= rec.capacity());

    // Trigger: sampling is 0.0, so spans can only come from the boost.
    assert!(tel.begin_trace(0, 1).is_none());
    assert!(rec.trigger("slo:latency", "{}".to_string()));
    assert!(tel.begin_trace(0, 1).is_some(), "boost forces tracing on");
    tel.push_span("forward", 7, Instant::now(), Duration::from_micros(123), 0);
    let report = rec.finalize_due(true).expect("forced finalize");
    assert!(report.spans.iter().any(|s| s.name == "forward"));
    assert!(report
        .events
        .iter()
        .any(|e| e.kind == EventKind::BatchFormed));
    // One sustained breach, one bundle.
    assert!(!rec.trigger("slo:latency", "{}".to_string()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The burn-rate state machine is monotone in observed error mass:
    /// raising either window's burn rate never lowers the resulting
    /// state (Ok < Warning < Breach).
    #[test]
    fn state_is_monotone_in_burn_rates(
        (fast_m, slow_m, dfast_m, dslow_m) in (
            0u64..20_000,
            0u64..20_000,
            0u64..20_000,
            0u64..20_000,
        )
    ) {
        let (fast, slow) = (fast_m as f64 / 1000.0, slow_m as f64 / 1000.0);
        let (dfast, dslow) = (dfast_m as f64 / 1000.0, dslow_m as f64 / 1000.0);
        let base = state_of(fast, slow);
        let worse = state_of(fast + dfast, slow + dslow);
        prop_assert!(
            worse >= base,
            "more burn lowered the state: ({fast},{slow})={base:?} vs \
             ({},{})={worse:?}",
            fast + dfast,
            slow + dslow
        );
    }

    /// Tracker-level monotonicity: for the same good mass and timeline,
    /// a run that observes *more* bad events never evaluates to a less
    /// severe state, and never under-counts transitions into Breach.
    #[test]
    fn tracker_state_is_monotone_in_error_mass(
        (good, bad, extra) in (0u64..400, 0u64..400, 0u64..400)
    ) {
        let cfg = SloConfig {
            min_events: 1,
            ..SloConfig::default()
        };
        let spec = SloSpec::availability("availability", 0.05);
        let run = |bad_mass: u64| {
            let mut t = SloTracker::new(spec, cfg);
            // All mass lands in one fast-window bucket; evaluate just
            // after it.
            t.record(1_000, good, bad_mass);
            let (_, state) = t.evaluate(2_000);
            state
        };
        let base = run(bad);
        let worse = run(bad + extra);
        prop_assert!(
            worse >= base,
            "extra error mass lowered the state: {base:?} -> {worse:?}"
        );
        prop_assert_eq!(run(0), SloState::Ok);
    }

    /// Ring byte bound as a property: any capacity bound and any event
    /// volume, the resident ring never exceeds the configured bytes.
    #[test]
    fn recorder_ring_byte_bound_holds_for_any_volume(
        (max_bytes, events) in (64usize..4096, 0u64..2000)
    ) {
        let tel = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let rec = FlightRecorder::new(
            RecorderConfig { max_bytes, ..RecorderConfig::default() },
            tel,
            String::new(),
            None,
        );
        for i in 0..events {
            rec.record_at(i, EventKind::Scrape, i, 0);
        }
        prop_assert!(rec.ring_bytes() <= max_bytes.max(std::mem::size_of::<maxk_gnn::serve::FlightEvent>()));
        prop_assert!(rec.events().len() <= rec.capacity());
    }
}
