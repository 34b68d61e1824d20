//! Declarative service-level objectives with multi-window burn-rate
//! alerting.
//!
//! An [`SloSpec`] names one objective over the serving books — a
//! latency-under-budget bound, availability (answered / submitted), a
//! cache hit-rate floor, or a staleness epoch-lag bound. Every objective
//! reduces to a **good/bad event stream**: each observed event either
//! honored the objective or burned error budget. Events land in a
//! time-bucketed [`WindowRing`] covering the slow window; burn rates are
//! read over two sliding windows at once (the fast window catches an
//! active incident in seconds, the slow window keeps one noisy blip from
//! paging), the multi-window pattern of SRE burn-rate alerting scaled
//! down to serving-bench time constants.
//!
//! The state machine is a **pure function of the two burn rates**
//! (plus a minimum event mass), which makes its transitions monotone in
//! observed error mass: with the good-event stream held fixed, adding
//! bad events can only raise the state, never lower it — no flapping
//! without signal. `tests/slo.rs` proves this property under proptest.
//!
//! A server evaluates its [`SloHub`] on a monitor tick (the `maxk-slo`
//! worker): burn rates and states export as `maxk_serve_slo_*` registry
//! gauges, a transition into [`SloState::Breach`] triggers the flight
//! recorder (incident bundle + trace-sampling boost) and tightens the
//! [`crate::AdaptiveController`]'s derived deadline (by
//! [`SloConfig::tighten`]) until the breach clears.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use super::recorder::RecorderConfig;
use super::Telemetry;

/// Maximum number of objectives an [`SloSpecSet`] can hold.
///
/// Fixed so [`SloConfig`] stays `Copy` (it travels by value through
/// [`crate::ServeConfig`] and the server builder), mirroring
/// [`crate::admission::MAX_CLASSES`].
pub const MAX_SLOS: usize = 8;

/// What one objective measures — every kind reduces to a good/bad event
/// classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Answered-query latency under a budget: an answered query is bad
    /// when its end-to-end latency exceeds `budget_us`. Combined with
    /// the spec's error budget this encodes
    /// "p(1 - error_budget) latency ≤ budget" — e.g. error budget 0.01
    /// means "99% of answers under the bound".
    LatencyUnder {
        /// The per-answer latency bound in microseconds.
        budget_us: u64,
    },
    /// Availability: a submitted query that is answered is good; a
    /// rejection or shed is bad.
    Availability,
    /// Cache hit-rate floor: a seed instance served from residency or a
    /// coalesced in-flight row is good, a miss (fresh forward) is bad.
    /// Only meaningful when the server has a logit cache.
    CacheHitRate,
    /// Staleness: an answer computed at an engine epoch lagging the
    /// current epoch by more than `max_lag` mutation batches is bad.
    /// Frozen-graph engines never produce bad events here.
    StalenessLag {
        /// Largest acceptable epoch lag per answer.
        max_lag: u64,
    },
}

impl SloKind {
    /// Stable label for gauges and incident bundles.
    pub fn label(&self) -> &'static str {
        match self {
            SloKind::LatencyUnder { .. } => "latency_under",
            SloKind::Availability => "availability",
            SloKind::CacheHitRate => "cache_hit_rate",
            SloKind::StalenessLag { .. } => "staleness_lag",
        }
    }
}

/// One declarative objective: a name, what it measures, and how much of
/// the event stream may be bad before budget burns at rate 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Objective name — the `slo` label on every exported series.
    pub name: &'static str,
    /// What good/bad means for this objective.
    pub kind: SloKind,
    /// Fraction of events allowed to be bad (the error budget). Burn
    /// rate is `(bad / total) / error_budget`: 1.0 means budget burns
    /// exactly as provisioned, above 1.0 the budget exhausts early.
    pub error_budget: f64,
}

impl SloSpec {
    /// A latency objective: at least `1 - error_budget` of answers under
    /// `budget`.
    pub fn latency(name: &'static str, budget: Duration, error_budget: f64) -> Self {
        SloSpec {
            name,
            kind: SloKind::LatencyUnder {
                budget_us: budget.as_micros().min(u128::from(u64::MAX)) as u64,
            },
            error_budget,
        }
    }

    /// An availability objective: at most `error_budget` of submissions
    /// rejected or shed.
    pub fn availability(name: &'static str, error_budget: f64) -> Self {
        SloSpec {
            name,
            kind: SloKind::Availability,
            error_budget,
        }
    }

    /// A cache hit-rate floor: at most `error_budget` of answered seed
    /// instances missing the cache (i.e. hit rate ≥ `1 - error_budget`).
    pub fn cache_hit_rate(name: &'static str, error_budget: f64) -> Self {
        SloSpec {
            name,
            kind: SloKind::CacheHitRate,
            error_budget,
        }
    }

    /// A staleness bound: at most `error_budget` of answers lagging the
    /// live epoch by more than `max_lag`.
    pub fn staleness(name: &'static str, max_lag: u64, error_budget: f64) -> Self {
        SloSpec {
            name,
            kind: SloKind::StalenessLag { max_lag },
            error_budget,
        }
    }
}

/// A fixed-capacity, `Copy` set of objectives (see [`MAX_SLOS`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSpecSet {
    specs: [Option<SloSpec>; MAX_SLOS],
    len: usize,
}

impl SloSpecSet {
    /// An empty set.
    pub fn new() -> Self {
        SloSpecSet::default()
    }

    /// Adds one objective.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_SLOS`] objectives, on a non-finite or
    /// out-of-range error budget, or on a duplicate name.
    #[must_use]
    pub fn with_spec(mut self, spec: SloSpec) -> Self {
        assert!(self.len < MAX_SLOS, "at most {MAX_SLOS} SLOs");
        assert!(
            spec.error_budget.is_finite() && spec.error_budget > 0.0 && spec.error_budget <= 1.0,
            "SLO error budget must be in (0, 1] (got {})",
            spec.error_budget
        );
        assert!(
            self.iter().all(|s| s.name != spec.name),
            "duplicate SLO name {:?}",
            spec.name
        );
        self.specs[self.len] = Some(spec);
        self.len += 1;
        self
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no objectives are configured.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the configured objectives in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &SloSpec> {
        self.specs[..self.len].iter().filter_map(|s| s.as_ref())
    }
}

/// Fast-window burn rate at which a tracker enters [`SloState::Warning`].
pub const WARN_BURN: f64 = 2.0;

/// Fast-window burn rate required for [`SloState::Breach`] (the slow
/// window must simultaneously burn at ≥ 1.0 — budget actually depleting
/// — so one sparse spike cannot page).
pub const BREACH_BURN: f64 = 8.0;

/// SLO engine configuration, carried inside [`crate::ServeConfig`].
///
/// The defaults use serving-bench time constants (seconds, not the
/// 5m/1h of fleet dashboards) so incidents resolve within a test run;
/// the structure — fast window to detect, slow window to confirm — is
/// the standard multi-window burn-rate shape either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// The objectives to evaluate.
    pub specs: SloSpecSet,
    /// Fast (detection) window. Default 5s.
    pub fast_window: Duration,
    /// Slow (confirmation) window; also bounds ring memory. Default 60s.
    pub slow_window: Duration,
    /// Monitor evaluation cadence. Default 20ms.
    pub tick: Duration,
    /// Minimum events in a window before its burn rate reads nonzero
    /// (no alerting off a near-empty window). Default 16.
    pub min_events: u64,
    /// Flight-recorder knobs (ring byte bound, post-trigger window,
    /// re-trigger cooldown).
    pub recorder: RecorderConfig,
    /// Breaches feed back into the [`crate::AdaptiveController`]: while
    /// any objective is breached the derived deadline is multiplied by
    /// this factor (in `(0, 1]`), shedding harder until the burn clears
    /// (no-op without an adaptive controller). Default 0.5.
    pub tighten: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            specs: SloSpecSet::new(),
            fast_window: Duration::from_secs(5),
            slow_window: Duration::from_secs(60),
            tick: Duration::from_millis(20),
            min_events: 16,
            recorder: RecorderConfig::default(),
            tighten: 0.5,
        }
    }
}

impl SloConfig {
    /// A serving default: a latency objective at `budget` plus an
    /// availability objective, both with a 5% error budget.
    pub fn with_latency_budget(budget: Duration) -> Self {
        SloConfig {
            specs: SloSpecSet::new()
                .with_spec(SloSpec::latency("latency", budget, 0.05))
                .with_spec(SloSpec::availability("availability", 0.05)),
            ..SloConfig::default()
        }
    }
}

/// Objective health, ordered: comparisons follow severity
/// (`Ok < Warning < Breach`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Burn within budget.
    Ok,
    /// The fast window burns above [`WARN_BURN`].
    Warning,
    /// The fast window burns above [`BREACH_BURN`] while the
    /// slow window confirms budget depletion (burn ≥ 1.0).
    Breach,
}

impl SloState {
    /// Stable label for gauges and incident bundles.
    pub fn label(&self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warning => "warning",
            SloState::Breach => "breach",
        }
    }

    /// Gauge encoding: 0 ok, 1 warning, 2 breach.
    pub fn rank(&self) -> u64 {
        match self {
            SloState::Ok => 0,
            SloState::Warning => 1,
            SloState::Breach => 2,
        }
    }
}

/// Time-bucketed good/bad event ring covering the slow window.
///
/// Bucket width is `fast_window / 8` so the fast window reads at ~12%
/// granularity; the ring holds `slow_window / width + 1` buckets, so
/// memory is bounded by the window ratio, not by traffic. Recording
/// advances the ring to the event's bucket (zeroing skipped buckets —
/// idle time decays naturally) and adds; reading sums the trailing
/// buckets of the requested window.
#[derive(Debug)]
pub struct WindowRing {
    width_us: u64,
    /// `(good, bad)` per bucket.
    buckets: Vec<(u64, u64)>,
    /// Absolute bucket index of the newest bucket.
    head: u64,
    /// True once any event has been recorded (distinguishes "bucket 0 is
    /// live" from "nothing ever happened").
    touched: bool,
}

impl WindowRing {
    /// A ring sized for the given windows.
    pub fn new(fast_window: Duration, slow_window: Duration) -> Self {
        let fast_us = fast_window.as_micros().max(8) as u64;
        let slow_us = (slow_window.as_micros() as u64).max(fast_us);
        let width_us = (fast_us / 8).max(1);
        let buckets = (slow_us.div_ceil(width_us) + 1) as usize;
        WindowRing {
            width_us,
            buckets: vec![(0, 0); buckets],
            head: 0,
            touched: false,
        }
    }

    /// Bucket width in microseconds.
    pub fn width_us(&self) -> u64 {
        self.width_us
    }

    fn advance(&mut self, to: u64) {
        if !self.touched {
            self.head = to;
            self.touched = true;
            let slot = (to % self.buckets.len() as u64) as usize;
            self.buckets[slot] = (0, 0);
            return;
        }
        if to <= self.head {
            return;
        }
        let n = self.buckets.len() as u64;
        let steps = (to - self.head).min(n);
        for i in 1..=steps {
            let slot = ((self.head + i) % n) as usize;
            self.buckets[slot] = (0, 0);
        }
        if to - self.head > n {
            // Every bucket went stale; zero the rest of the ring too.
            for b in &mut self.buckets {
                *b = (0, 0);
            }
        }
        self.head = to;
    }

    /// Records `good`/`bad` events observed at `at_us` (microseconds on
    /// the telemetry clock). Events older than the ring window are
    /// dropped.
    pub fn record(&mut self, at_us: u64, good: u64, bad: u64) {
        let idx = at_us / self.width_us;
        self.advance(idx);
        let n = self.buckets.len() as u64;
        if self.head - idx.min(self.head) >= n {
            return; // predates the resident window
        }
        let slot = (idx.min(self.head) % n) as usize;
        self.buckets[slot].0 += good;
        self.buckets[slot].1 += bad;
    }

    /// Sums `(good, bad)` over the trailing `window` as of `now_us`.
    pub fn totals(&mut self, window: Duration, now_us: u64) -> (u64, u64) {
        self.advance(now_us / self.width_us);
        if !self.touched {
            return (0, 0);
        }
        let n = self.buckets.len() as u64;
        let k = ((window.as_micros() as u64).div_ceil(self.width_us)).clamp(1, n);
        let mut good = 0;
        let mut bad = 0;
        for i in 0..k {
            if i > self.head {
                break;
            }
            let slot = ((self.head - i) % n) as usize;
            good += self.buckets[slot].0;
            bad += self.buckets[slot].1;
        }
        (good, bad)
    }
}

/// The pure state function: burn rates in, state out. Monotone in both
/// burn rates (raising either can only raise the state), which is what
/// makes the engine flap-free without signal.
pub fn state_of(fast_burn: f64, slow_burn: f64) -> SloState {
    if fast_burn >= BREACH_BURN && slow_burn >= 1.0 {
        SloState::Breach
    } else if fast_burn >= WARN_BURN {
        SloState::Warning
    } else {
        SloState::Ok
    }
}

/// One objective's sliding windows plus its state machine. Standalone so
/// tests can drive it deterministically with synthetic clocks; the
/// [`SloHub`] owns one per configured spec.
#[derive(Debug)]
pub struct SloTracker {
    spec: SloSpec,
    cfg: SloConfig,
    ring: WindowRing,
    state: SloState,
    fast_burn: f64,
    slow_burn: f64,
    transitions: u64,
    breaches: u64,
}

impl SloTracker {
    /// A tracker for `spec` under `cfg`'s windows and thresholds.
    pub fn new(spec: SloSpec, cfg: SloConfig) -> Self {
        SloTracker {
            spec,
            cfg,
            ring: WindowRing::new(cfg.fast_window, cfg.slow_window),
            state: SloState::Ok,
            fast_burn: 0.0,
            slow_burn: 0.0,
            transitions: 0,
            breaches: 0,
        }
    }

    /// The objective this tracker evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Feeds `good`/`bad` events observed at `at_us`.
    pub fn record(&mut self, at_us: u64, good: u64, bad: u64) {
        if good | bad != 0 {
            self.ring.record(at_us, good, bad);
        }
    }

    fn burn(&mut self, window: Duration, now_us: u64) -> f64 {
        let (good, bad) = self.ring.totals(window, now_us);
        let total = good + bad;
        if total < self.cfg.min_events.max(1) {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.spec.error_budget
    }

    /// Re-evaluates the state machine as of `now_us`, returning
    /// `(previous, current)` state.
    pub fn evaluate(&mut self, now_us: u64) -> (SloState, SloState) {
        self.fast_burn = self.burn(self.cfg.fast_window, now_us);
        self.slow_burn = self.burn(self.cfg.slow_window, now_us);
        let prev = self.state;
        let next = state_of(self.fast_burn, self.slow_burn);
        if next != prev {
            self.transitions += 1;
            if next == SloState::Breach {
                self.breaches += 1;
            }
        }
        self.state = next;
        (prev, next)
    }

    /// Current state (as of the last [`SloTracker::evaluate`]).
    pub fn state(&self) -> SloState {
        self.state
    }

    /// Point-in-time status.
    pub fn status(&self) -> SloStatus {
        SloStatus {
            name: self.spec.name,
            kind: self.spec.kind.label(),
            state: self.state,
            fast_burn: self.fast_burn,
            slow_burn: self.slow_burn,
            transitions: self.transitions,
            breaches: self.breaches,
        }
    }
}

/// One objective's exported status (surfaced through
/// [`crate::StatsSnapshot::slo`], `/debug/state` and incident bundles).
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub name: &'static str,
    /// Objective kind label.
    pub kind: &'static str,
    /// State as of the last monitor evaluation.
    pub state: SloState,
    /// Fast-window burn rate.
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// State transitions since start.
    pub transitions: u64,
    /// Transitions into [`SloState::Breach`] since start.
    pub breaches: u64,
}

/// One state transition surfaced by [`SloHub::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloEvent {
    /// The objective that transitioned.
    pub name: &'static str,
    /// Previous state.
    pub from: SloState,
    /// New state.
    pub to: SloState,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

/// An answered query's SLO-relevant observation.
#[derive(Debug, Clone, Copy)]
pub struct AnswerObs {
    /// End-to-end latency in microseconds.
    pub latency_us: u64,
    /// Epochs the answer lagged the live engine (0 for frozen graphs).
    pub epoch_lag: u64,
}

/// The per-server SLO engine: one tracker per configured objective,
/// fed by the serving layers and evaluated on the monitor tick.
///
/// Answered queries are fed at reply time by the batcher (inline cache
/// answers) and workers; availability bad-mass (rejections + sheds) and
/// cache hit/miss mass are fed by the monitor from counter deltas.
/// Gauges land in the shared [`Telemetry`] registry on every
/// [`SloHub::evaluate`], so scrapes see them with zero extra plumbing.
#[derive(Debug)]
pub struct SloHub {
    cfg: SloConfig,
    telemetry: Arc<Telemetry>,
    trackers: Mutex<Vec<SloTracker>>,
    /// Cheap read-side for `/healthz`: true while any tracker is in
    /// [`SloState::Breach`].
    breached: AtomicBool,
}

impl SloHub {
    /// Builds the hub over the server's telemetry (gauges register in
    /// its registry; timestamps use its epoch).
    pub fn new(cfg: SloConfig, telemetry: Arc<Telemetry>) -> Self {
        let trackers = cfg.specs.iter().map(|s| SloTracker::new(*s, cfg)).collect();
        SloHub {
            cfg,
            telemetry,
            trackers: Mutex::new(trackers),
            breached: AtomicBool::new(false),
        }
    }

    /// The configuration the hub was built with.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Feeds a batch of answered queries (good availability mass;
    /// latency and staleness classified per spec). One lock per batch.
    pub fn observe_answers(&self, at_us: u64, rows: &[AnswerObs]) {
        if rows.is_empty() {
            return;
        }
        let mut trackers = self.trackers.lock().expect("slo trackers poisoned");
        for t in trackers.iter_mut() {
            match t.spec.kind {
                SloKind::LatencyUnder { budget_us } => {
                    let bad = rows.iter().filter(|r| r.latency_us > budget_us).count() as u64;
                    t.record(at_us, rows.len() as u64 - bad, bad);
                }
                SloKind::Availability => {
                    t.record(at_us, rows.len() as u64, 0);
                }
                SloKind::StalenessLag { max_lag } => {
                    let bad = rows.iter().filter(|r| r.epoch_lag > max_lag).count() as u64;
                    t.record(at_us, rows.len() as u64 - bad, bad);
                }
                SloKind::CacheHitRate => {}
            }
        }
    }

    /// Feeds availability bad mass (rejections + sheds since the last
    /// call, from the admission counters).
    pub fn observe_unserved(&self, at_us: u64, unserved: u64) {
        if unserved == 0 {
            return;
        }
        let mut trackers = self.trackers.lock().expect("slo trackers poisoned");
        for t in trackers.iter_mut() {
            if matches!(t.spec.kind, SloKind::Availability) {
                t.record(at_us, 0, unserved);
            }
        }
    }

    /// Feeds cache hit/miss mass (deltas of the cache books).
    pub fn observe_cache(&self, at_us: u64, hits: u64, misses: u64) {
        if hits | misses == 0 {
            return;
        }
        let mut trackers = self.trackers.lock().expect("slo trackers poisoned");
        for t in trackers.iter_mut() {
            if matches!(t.spec.kind, SloKind::CacheHitRate) {
                t.record(at_us, hits, misses);
            }
        }
    }

    /// Re-evaluates every tracker as of `now_us`, refreshes the
    /// `maxk_serve_slo_*` gauges, and returns the state transitions.
    pub fn evaluate(&self, now_us: u64) -> Vec<SloEvent> {
        let mut events = Vec::new();
        let mut any_breach = false;
        let mut trackers = self.trackers.lock().expect("slo trackers poisoned");
        let reg = self.telemetry.registry();
        for t in trackers.iter_mut() {
            let (prev, next) = t.evaluate(now_us);
            any_breach |= next == SloState::Breach;
            let labels = [("slo", t.spec.name)];
            reg.gauge(
                "maxk_serve_slo_state",
                &labels,
                "Objective state: 0 ok, 1 warning, 2 breach",
            )
            .set(next.rank());
            reg.gauge(
                "maxk_serve_slo_burn_permille",
                &[("slo", t.spec.name), ("window", "fast")],
                "Burn rate per window, thousandths (1000 = budget burning exactly as provisioned)",
            )
            .set((t.fast_burn * 1000.0).round().min(u64::MAX as f64) as u64);
            reg.gauge(
                "maxk_serve_slo_burn_permille",
                &[("slo", t.spec.name), ("window", "slow")],
                "Burn rate per window, thousandths (1000 = budget burning exactly as provisioned)",
            )
            .set((t.slow_burn * 1000.0).round().min(u64::MAX as f64) as u64);
            if next != prev {
                reg.counter(
                    "maxk_serve_slo_transitions_total",
                    &[("slo", t.spec.name), ("to", next.label())],
                    "Objective state transitions",
                )
                .inc();
                if next == SloState::Breach {
                    reg.counter(
                        "maxk_serve_slo_breaches_total",
                        &labels,
                        "Transitions into breach",
                    )
                    .inc();
                }
                events.push(SloEvent {
                    name: t.spec.name,
                    from: prev,
                    to: next,
                    fast_burn: t.fast_burn,
                    slow_burn: t.slow_burn,
                });
            }
        }
        self.breached.store(any_breach, Ordering::Relaxed);
        events
    }

    /// True while any objective is breached (one relaxed load — the
    /// `/healthz` read side).
    pub fn any_breached(&self) -> bool {
        self.breached.load(Ordering::Relaxed)
    }

    /// Point-in-time status of every objective.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.trackers
            .lock()
            .expect("slo trackers poisoned")
            .iter()
            .map(|t| t.status())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryConfig;

    const MS: u64 = 1000;

    fn cfg() -> SloConfig {
        SloConfig {
            fast_window: Duration::from_millis(80),
            slow_window: Duration::from_millis(800),
            min_events: 4,
            ..SloConfig::default()
        }
    }

    #[test]
    fn spec_set_holds_up_to_max() {
        let mut set = SloSpecSet::new();
        for i in 0..MAX_SLOS {
            let name: &'static str = Box::leak(format!("slo{i}").into_boxed_str());
            set = set.with_spec(SloSpec::availability(name, 0.1));
        }
        assert_eq!(set.len(), MAX_SLOS);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let _ = SloSpecSet::new()
            .with_spec(SloSpec::availability("a", 0.1))
            .with_spec(SloSpec::availability("a", 0.2));
    }

    #[test]
    fn ring_decays_old_buckets() {
        let mut ring = WindowRing::new(Duration::from_millis(80), Duration::from_millis(800));
        ring.record(0, 10, 10);
        assert_eq!(ring.totals(Duration::from_millis(80), 5 * MS), (10, 10));
        // Two seconds later, everything fell out of even the slow window.
        assert_eq!(ring.totals(Duration::from_millis(800), 2000 * MS), (0, 0));
    }

    #[test]
    fn state_function_is_monotone() {
        assert_eq!(state_of(0.0, 0.0), SloState::Ok);
        assert_eq!(state_of(WARN_BURN, 0.5), SloState::Warning);
        assert_eq!(state_of(BREACH_BURN, 0.5), SloState::Warning);
        assert_eq!(state_of(BREACH_BURN, 1.0), SloState::Breach);
        assert!(state_of(100.0, 100.0) >= state_of(1.0, 1.0));
    }

    #[test]
    fn tracker_breaches_under_error_mass_and_recovers() {
        let c = cfg();
        let mut t = SloTracker::new(SloSpec::latency("lat", Duration::from_millis(1), 0.05), c);
        // All-bad mass: burn = 20x budget in both windows.
        for tick in 0..10u64 {
            t.record(tick * 10 * MS, 0, 5);
        }
        let (_, state) = t.evaluate(100 * MS);
        assert_eq!(state, SloState::Breach);
        assert_eq!(t.status().breaches, 1);
        // Fast window decays (slow still holds mass): breach clears.
        let (_, state) = t.evaluate(400 * MS);
        assert_eq!(state, SloState::Ok);
    }

    #[test]
    fn min_events_suppresses_empty_window_alerts() {
        let c = cfg();
        let mut t = SloTracker::new(SloSpec::availability("avail", 0.01), c);
        t.record(0, 0, 2); // 2 events < min_events(4)
        let (_, state) = t.evaluate(10 * MS);
        assert_eq!(state, SloState::Ok);
        assert_eq!(t.status().fast_burn, 0.0);
    }

    #[test]
    fn hub_classifies_answers_per_spec_and_exports_gauges() {
        let tel = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let c = SloConfig {
            specs: SloSpecSet::new()
                .with_spec(SloSpec::latency("lat", Duration::from_micros(100), 0.05))
                .with_spec(SloSpec::availability("avail", 0.05))
                .with_spec(SloSpec::staleness("stale", 1, 0.05)),
            ..cfg()
        };
        let hub = SloHub::new(c, Arc::clone(&tel));
        let rows: Vec<AnswerObs> = (0..20)
            .map(|i| AnswerObs {
                latency_us: if i < 10 { 10 } else { 500 },
                epoch_lag: 0,
            })
            .collect();
        hub.observe_answers(10 * MS, &rows);
        let events = hub.evaluate(20 * MS);
        // Latency: 10/20 bad over a 0.05 budget = burn 10 ≥ breach 8.
        assert!(events
            .iter()
            .any(|e| e.name == "lat" && e.to == SloState::Breach));
        assert!(hub.any_breached());
        let statuses = hub.statuses();
        assert_eq!(statuses.len(), 3);
        assert_eq!(
            statuses.iter().find(|s| s.name == "avail").unwrap().state,
            SloState::Ok
        );
        let snap = tel.registry().snapshot();
        let state_gauge = snap
            .gauges
            .iter()
            .find(|g| g.name == "maxk_serve_slo_state" && g.labels.iter().any(|(_, v)| v == "lat"))
            .expect("state gauge exported");
        assert_eq!(state_gauge.value, 2.0);
    }

    #[test]
    fn unserved_mass_breaches_availability() {
        let tel = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let c = SloConfig {
            specs: SloSpecSet::new().with_spec(SloSpec::availability("avail", 0.05)),
            ..cfg()
        };
        let hub = SloHub::new(c, tel);
        hub.observe_answers(
            MS,
            &[AnswerObs {
                latency_us: 1,
                epoch_lag: 0,
            }; 10],
        );
        hub.observe_unserved(2 * MS, 10);
        let events = hub.evaluate(5 * MS);
        assert!(events
            .iter()
            .any(|e| e.name == "avail" && e.to == SloState::Breach));
    }
}
