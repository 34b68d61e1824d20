//! Admission control and backpressure: the bounded ingress between
//! clients and the micro-batcher.
//!
//! The serving stack's original ingress was an unbounded `mpsc` channel:
//! when offered load exceeds forward throughput, the queue grows without
//! bound, every query's latency grows with it, and p99 is a function of
//! how long the overload has lasted rather than of the system. This
//! module turns overload into a *measured, bounded regime*:
//!
//! * **Bounded queue** — at most [`AdmissionConfig::capacity`] queries
//!   wait for a batch slot; the depth (and its peak) are observable
//!   gauges.
//! * **Overload policy** ([`OverloadPolicy`]) — what happens when a query
//!   arrives and the queue is full: block the submitter (closed-loop
//!   backpressure), reject the newcomer, drop the oldest waiter, or shed
//!   deadline-blown work before it wastes a forward.
//! * **Per-client fairness** ([`FairnessConfig`]) — a token bucket per
//!   client caps any one client's admitted rate, so a hot client under
//!   Zipf traffic cannot monopolize the queue; when fairness is on, the
//!   `DropOldest`/`DeadlineShed` eviction victim is the *most-queued*
//!   client's oldest entry rather than the global oldest, which keeps a
//!   light client's only waiting query from being evicted by a flood
//!   (see [`AdmissionQueue::submit`] for the exact guarantee).
//! * **Exact accounting** — every submitted query ends in exactly one of
//!   *answered*, *rejected* or *shed* (plus *still queued* while the
//!   server runs): `submitted == popped + rejected + shed + depth` holds
//!   under the queue's lock at all times, so overload experiments can
//!   reconcile their books to the query.
//! * **Adaptive budgets** ([`AdaptiveController`]) — instead of
//!   hand-set capacity and deadline, the queue can derive both from a
//!   live EWMA of *observed* batch service time (fed by the serving
//!   workers after every forward, re-planned on engine epoch swap).
//!   The derived values replace [`AdmissionConfig::capacity`] /
//!   [`AdmissionConfig::default_deadline`] the moment the first
//!   measurement lands; until then the static values apply. The
//!   accounting identity is unaffected: a capacity shrink simply makes
//!   the full-queue policy machinery engage earlier, and every entry it
//!   removes is counted shed exactly as before.
//! * **Weighted classes** ([`ClassWeights`]) — service-coupled token
//!   buckets per traffic class (e.g. `paid`/`internal`/`batch`),
//!   layered over per-client fairness. Each *pop* (one unit of service)
//!   refills one credit split across classes in proportion to weight;
//!   credits are only charged when a submission hits a full queue, so
//!   shaping is work-conserving — under light load classes are
//!   indistinguishable, under sustained overload admitted throughput is
//!   proportional to weight and a class out of credits is rejected with
//!   [`RejectReason::ClassThrottled`]. Per-class books obey
//!   `submitted == popped + rejected + shed + queued` class by class.
//!
//! The queue is generic over its payload `T` so the policy/fairness
//! machinery is testable without spinning up a server (the proptest
//! suite drives it with integer payloads); `maxk_serve::server` feeds it
//! boxed requests.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{ClientStats, EvictedClientStats, LatencyHistogram, LatencySummary};
use crate::ServeError;

/// What the admission layer does with a query that arrives while the
/// queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the submitting thread until space frees up — classic
    /// backpressure. Bounds memory but not client-observed latency; the
    /// baseline the shedding policies are measured against.
    Block,
    /// Turn the incoming query away with
    /// [`RejectReason::QueueFull`]. First-come-first-served: waiting
    /// work is never discarded.
    RejectNewest,
    /// Evict a waiting query (shed with [`ShedReason::Evicted`]) to
    /// admit the new one — freshest-work-wins. Without fairness the
    /// victim is the global oldest entry; with fairness it is the
    /// most-queued client's oldest entry.
    DropOldest,
    /// [`OverloadPolicy::DropOldest`] overflow behavior, plus
    /// deadline-aware shedding: entries whose latency budget has already
    /// elapsed are shed ([`ShedReason::DeadlineBlown`]) — at overflow to
    /// make room, and at dequeue so a blown query never costs a forward
    /// pass. Budgets come from the per-query deadline or
    /// [`AdmissionConfig::default_deadline`].
    DeadlineShed,
}

impl OverloadPolicy {
    /// Stable lower-case label — the single source of the policy names
    /// reported by `maxk_serve_build_info{policy=…}`, `/debug/state` and
    /// the incident-bundle config.
    pub fn label(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::RejectNewest => "reject",
            OverloadPolicy::DropOldest => "drop",
            OverloadPolicy::DeadlineShed => "deadline",
        }
    }
}

/// Per-client token-bucket rate limiting.
///
/// Each client starts with `burst` tokens; a submission costs one token
/// and tokens refill continuously at `rate_per_s`. A client out of
/// tokens is rejected with [`RejectReason::RateLimited`] regardless of
/// queue depth, capping any single client's sustained admitted rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessConfig {
    /// Sustained admitted queries per second per client.
    pub rate_per_s: f64,
    /// Bucket size: how far a client may burst above the sustained rate.
    /// Must be at least 1 for the client to ever admit anything.
    pub burst: f64,
}

/// EWMA smoothing factor of the [`AdaptiveController`]: the weight of the
/// newest batch service time.
pub const EWMA_ALPHA: f64 = 0.2;

/// The derived deadline budget as a multiple of the EWMA batch service
/// time. At `2.0` the derived capacity equals the work the pool drains in
/// one budget, so a query admitted to a full queue just barely makes its
/// deadline, and an answered query's p99 lands near `(multiplier + 2) x
/// EWMA` (queue wait up to one budget, then its own batch's channel hop
/// and service).
pub const DEADLINE_MULTIPLIER: f64 = 2.0;

/// Tuning knobs for [`AdaptiveController`].
///
/// The controller maintains an exponentially-weighted moving average
/// (EWMA) of the batch service time the workers actually observe, and
/// derives from it the two budgets that were previously hand-set per
/// graph/batch-size combination:
///
/// * **deadline** — [`DEADLINE_MULTIPLIER`]` x EWMA`: a query may wait a
///   few batch-times, but not an unbounded multiple of one.
/// * **capacity** — the number of queries the worker pool can drain
///   within one deadline budget, `workers x max_batch x (deadline /
///   EWMA)`, clamped to `[min_capacity, max_capacity]`. Admitting more
///   than that merely manufactures deadline-blown work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Lower clamp on the derived capacity. Keep this strictly above
    /// the expected number of active clients so the fairness
    /// non-starvation precondition (see [`AdmissionQueue::submit`])
    /// survives adaptation. Default `64`.
    pub min_capacity: usize,
    /// Upper clamp on the derived capacity. Default `1 << 20`.
    pub max_capacity: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_capacity: 64,
            max_capacity: 1 << 20,
        }
    }
}

/// Point-in-time view of an [`AdaptiveController`] (exported as the
/// `maxk_serve_admission_*` adaptive gauges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveSnapshot {
    /// EWMA of observed batch service time, microseconds (0 before the
    /// first observation).
    pub ewma_us: u64,
    /// Batches observed so far.
    pub samples: u64,
    /// Capacity currently derived from the EWMA (0 before the first
    /// observation).
    pub derived_capacity: u64,
    /// Deadline budget currently derived from the EWMA, microseconds
    /// (0 before the first observation).
    pub derived_deadline_us: u64,
    /// Times the average was restarted because the engine epoch
    /// changed (snapshot/graph swap).
    pub replans: u64,
    /// Deadline tighten factor in thousandths (1000 = no tightening;
    /// 500 = the SLO feedback halved the derived deadline).
    pub tighten_permille: u64,
}

/// Live batch-service-time measurement and the budgets derived from it.
///
/// One controller is shared (via `Arc`) between the serving workers —
/// which call [`AdaptiveController::observe_batch`] after every batch
/// forward — and the [`AdmissionQueue`], which reads
/// [`derived_capacity`](AdaptiveController::derived_capacity) /
/// [`derived_deadline`](AdaptiveController::derived_deadline) on every
/// submission. All state is atomics: observation never takes the
/// admission lock, and a reader sees either the pre- or post-update
/// value, both of which are valid budgets.
///
/// An observation carrying a new engine **epoch** (a [`DynamicEngine`]
/// mutation swapped the graph) *re-plans*: the average restarts at that
/// observation instead of dragging the stale graph's service time
/// along.
///
/// [`DynamicEngine`]: crate::mutation::DynamicEngine
#[derive(Debug)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
    max_batch: u64,
    workers: u64,
    ewma_us: AtomicU64,
    samples: AtomicU64,
    last_epoch: AtomicU64,
    replans: AtomicU64,
    /// Deadline tighten factor in thousandths (1000 = none). Set by the
    /// SLO feedback loop on breach, restored on recovery.
    tighten_permille: AtomicU64,
}

impl AdaptiveController {
    /// Creates a controller for a server draining batches of up to
    /// `max_batch` queries on `workers` parallel workers.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch == 0`, `workers == 0`, `min_capacity == 0`,
    /// or `min_capacity > max_capacity`.
    pub fn new(cfg: AdaptiveConfig, max_batch: usize, workers: usize) -> Self {
        assert!(max_batch > 0, "adaptive max_batch must be nonzero");
        assert!(workers > 0, "adaptive worker count must be nonzero");
        assert!(
            0 < cfg.min_capacity && cfg.min_capacity <= cfg.max_capacity,
            "adaptive capacity clamp must satisfy 0 < min <= max (got {}..={})",
            cfg.min_capacity,
            cfg.max_capacity
        );
        AdaptiveController {
            cfg,
            max_batch: max_batch as u64,
            workers: workers as u64,
            ewma_us: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            tighten_permille: AtomicU64::new(1000),
        }
    }

    /// The configuration the controller was built with.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Feeds one observed batch service time (wall time of the batch's
    /// forward pass) measured against engine `epoch`.
    ///
    /// Sub-microsecond observations count as 1us so a cache-hot batch
    /// can never zero the average out. An epoch change restarts the
    /// average at this observation (re-plan).
    pub fn observe_batch(&self, service: Duration, epoch: u64) {
        let us = service.as_micros().clamp(1, u128::from(u64::MAX)) as u64;
        let prev_epoch = self.last_epoch.swap(epoch, Ordering::AcqRel);
        if prev_epoch != epoch && self.samples.load(Ordering::Acquire) > 0 {
            self.ewma_us.store(us, Ordering::Release);
            self.replans.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = self
                .ewma_us
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
                    Some(if old == 0 {
                        us
                    } else {
                        ((old as f64) + EWMA_ALPHA * (us as f64 - old as f64))
                            .round()
                            .max(1.0) as u64
                    })
                });
        }
        self.samples.fetch_add(1, Ordering::AcqRel);
    }

    /// Current EWMA of batch service time; `None` before the first
    /// observation.
    pub fn service_ewma(&self) -> Option<Duration> {
        let us = self.ewma_us.load(Ordering::Acquire);
        (us > 0).then(|| Duration::from_micros(us))
    }

    /// The deadline budget derived from the current EWMA, scaled by the
    /// current [tighten factor](AdaptiveController::set_deadline_tighten);
    /// `None` before the first observation (static config applies until
    /// then).
    pub fn derived_deadline(&self) -> Option<Duration> {
        let base = self.service_ewma().map(|t| {
            Duration::from_micros((t.as_micros() as f64 * DEADLINE_MULTIPLIER).round() as u64)
        })?;
        let permille = self.tighten_permille.load(Ordering::Relaxed);
        if permille >= 1000 {
            return Some(base);
        }
        let scaled = (base.as_micros() as f64 * permille as f64 / 1000.0).round() as u64;
        Some(Duration::from_micros(scaled.max(1)))
    }

    /// Sets the SLO-feedback tighten factor: while a latency objective
    /// is breached the server scales the derived deadline by `factor`
    /// (in `(0, 1]`), shedding harder until the burn clears. `1.0`
    /// restores normal budgets. Values outside `(0, 1]` clamp.
    pub fn set_deadline_tighten(&self, factor: f64) {
        let permille = if factor.is_finite() {
            (factor * 1000.0).round().clamp(1.0, 1000.0) as u64
        } else {
            1000
        };
        self.tighten_permille.store(permille, Ordering::Relaxed);
    }

    /// The current tighten factor (1.0 when no feedback is applied).
    pub fn deadline_tighten(&self) -> f64 {
        self.tighten_permille.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// The queue capacity derived from the current EWMA (queries the
    /// worker pool drains within one deadline budget, clamped); `None`
    /// before the first observation.
    pub fn derived_capacity(&self) -> Option<usize> {
        let t = self.ewma_us.load(Ordering::Acquire);
        if t == 0 {
            return None;
        }
        let budget_us = self.derived_deadline()?.as_micros() as f64;
        let drain = (self.workers * self.max_batch) as f64 * (budget_us / t as f64);
        Some((drain.round() as usize).clamp(self.cfg.min_capacity, self.cfg.max_capacity))
    }

    /// Batches observed so far.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Acquire)
    }

    /// Consistent-enough point-in-time view for gauges (individual
    /// fields are read independently; each is internally valid).
    pub fn snapshot(&self) -> AdaptiveSnapshot {
        AdaptiveSnapshot {
            ewma_us: self.ewma_us.load(Ordering::Acquire),
            samples: self.samples.load(Ordering::Acquire),
            derived_capacity: self.derived_capacity().unwrap_or(0) as u64,
            derived_deadline_us: self
                .derived_deadline()
                .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
            replans: self.replans.load(Ordering::Acquire),
            tighten_permille: self.tighten_permille.load(Ordering::Relaxed),
        }
    }
}

/// Maximum number of traffic classes a [`ClassWeights`] can hold.
///
/// Fixed so the whole configuration stays `Copy` (classes live in
/// [`AdmissionConfig`], which travels by value through builders).
pub const MAX_CLASSES: usize = 8;

/// Weighted traffic classes for service-coupled admission shaping.
///
/// Classes are indexed `0..len` in registration order; a query names
/// its class by index (class `0` is the default for untagged traffic).
/// See the [module docs](self) for the credit mechanics: one credit per
/// pop, split by weight, charged only at a full queue, per-class burst
/// cap.
///
/// # Examples
///
/// ```
/// use maxk_serve::admission::ClassWeights;
///
/// let classes = ClassWeights::new()
///     .with_class("paid", 6.0)
///     .with_class("internal", 3.0)
///     .with_class("batch", 1.0);
/// assert_eq!(classes.len(), 3);
/// assert_eq!(classes.name(0), "paid");
/// assert_eq!(classes.weight(2), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassWeights {
    weights: [f64; MAX_CLASSES],
    names: [&'static str; MAX_CLASSES],
    len: usize,
    burst: f64,
}

impl Default for ClassWeights {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassWeights {
    /// An empty class table (add classes with
    /// [`with_class`](ClassWeights::with_class)).
    pub fn new() -> Self {
        ClassWeights {
            weights: [0.0; MAX_CLASSES],
            names: [""; MAX_CLASSES],
            len: 0,
            burst: 16.0,
        }
    }

    /// Appends a class with the given display name and weight,
    /// returning its index implicitly (registration order).
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_CLASSES`] classes or when `weight` is not
    /// strictly positive and finite (a zero-weight class would never
    /// refill and starve, which the shaping is proven not to do).
    pub fn with_class(mut self, name: &'static str, weight: f64) -> Self {
        assert!(self.len < MAX_CLASSES, "at most {MAX_CLASSES} classes");
        assert!(
            weight.is_finite() && weight > 0.0,
            "class weight must be finite and > 0 (got {weight})"
        );
        self.weights[self.len] = weight;
        self.names[self.len] = name;
        self.len += 1;
        self
    }

    /// Sets the per-class credit cap (how far a class may burst at a
    /// full queue after a quiet spell). Must be `>= 1`. Default `16`.
    ///
    /// # Panics
    ///
    /// Panics when `burst` is below 1 or not finite.
    pub fn with_burst(mut self, burst: f64) -> Self {
        assert!(
            burst.is_finite() && burst >= 1.0,
            "class burst must be >= 1 (got {burst})"
        );
        self.burst = burst;
        self
    }

    /// Number of configured classes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Display name of class `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn name(&self, i: usize) -> &'static str {
        assert!(i < self.len, "class index {i} out of range");
        self.names[i]
    }

    /// Weight of class `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn weight(&self, i: usize) -> f64 {
        assert!(i < self.len, "class index {i} out of range");
        self.weights[i]
    }

    /// Per-class credit cap.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    fn total_weight(&self) -> f64 {
        self.weights[..self.len].iter().sum()
    }
}

/// Per-class admission accounting (one row per configured class; empty
/// when no [`ClassWeights`] are configured).
///
/// The identity `submitted == popped + rejected + shed + queued` holds
/// for every row, under the queue lock, at all times.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Class index (the tag queries carry).
    pub class: u32,
    /// Display name from [`ClassWeights`].
    pub name: &'static str,
    /// Configured weight.
    pub weight: f64,
    /// Queries submitted under this class.
    pub submitted: u64,
    /// Queries rejected at the door (rate-limited, queue-full, or
    /// class-throttled).
    pub rejected: u64,
    /// Admitted queries shed before a forward.
    pub shed: u64,
    /// Queries handed to the consumer.
    pub popped: u64,
    /// Currently queued.
    pub queued: u64,
}

/// Configuration of the admission layer.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but not yet batched) queries. With an
    /// [`AdaptiveController`] attached this is only the pre-measurement
    /// fallback; the derived capacity governs once observations land.
    pub capacity: usize,
    /// What to do when the queue is full.
    pub policy: OverloadPolicy,
    /// Per-client token-bucket fairness; `None` disables rate limiting
    /// and fairness-aware victim selection.
    pub fairness: Option<FairnessConfig>,
    /// Latency budget applied to queries that do not carry their own
    /// deadline (only enforced under [`OverloadPolicy::DeadlineShed`]).
    /// With an [`AdaptiveController`] attached, the derived deadline
    /// takes precedence over this once observations land.
    pub default_deadline: Option<Duration>,
    /// Weighted traffic classes; `None` disables class shaping (all
    /// queries behave as one unshaped class).
    pub classes: Option<ClassWeights>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 1024,
            policy: OverloadPolicy::Block,
            fairness: None,
            default_deadline: None,
            classes: None,
        }
    }
}

/// Why a query was turned away at the door (never entered the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue was full under [`OverloadPolicy::RejectNewest`].
    QueueFull,
    /// The client's token bucket was empty ([`FairnessConfig`]).
    RateLimited,
    /// The queue was full and the query's traffic class was out of
    /// credits ([`ClassWeights`]) — the class is consuming more than
    /// its weighted share of service.
    ClassThrottled,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue full"),
            RejectReason::RateLimited => write!(f, "client rate limited"),
            RejectReason::ClassThrottled => write!(f, "traffic class over weighted share"),
        }
    }
}

/// Why an *admitted* query was dropped before reaching a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Evicted to make room for a newer query
    /// ([`OverloadPolicy::DropOldest`] / overflow under
    /// [`OverloadPolicy::DeadlineShed`]).
    Evicted,
    /// Its latency budget elapsed before a batch slot opened
    /// ([`OverloadPolicy::DeadlineShed`]).
    DeadlineBlown,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::Evicted => write!(f, "evicted under overload"),
            ShedReason::DeadlineBlown => write!(f, "latency budget blown in queue"),
        }
    }
}

/// One admitted query waiting in (or popped from) the queue.
#[derive(Debug)]
pub struct Entry<T> {
    /// Submitting client's identity (fairness/accounting key).
    pub client: u64,
    /// Traffic class index ([`ClassWeights`]); 0 for untagged traffic.
    pub class: u32,
    /// When the entry entered the queue.
    pub enqueued: Instant,
    /// Absolute latency deadline, if any.
    pub deadline: Option<Instant>,
    /// Caller payload (the server boxes its request here).
    pub payload: T,
}

impl<T> Entry<T> {
    /// True when the entry's deadline (if any) has passed at `now`.
    fn blown(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Outcome of [`AdmissionQueue::submit`].
#[derive(Debug)]
pub enum Submission<T> {
    /// The query entered the queue. `shed` lists entries that were
    /// evicted (or found deadline-blown) to make room — the caller owns
    /// notifying their submitters.
    Admitted {
        /// Entries removed from the queue by this admission, tagged with
        /// why.
        shed: Vec<(Entry<T>, ShedReason)>,
    },
    /// The query was turned away; it never entered the queue.
    Rejected(RejectReason),
}

/// Result of one [`AdmissionQueue::pop`] call.
#[derive(Debug)]
pub struct Popped<T> {
    /// Deadline-blown entries removed while looking for a live one
    /// (always [`ShedReason::DeadlineBlown`]; the caller notifies them).
    pub shed: Vec<Entry<T>>,
    /// The next admitted query, if one arrived before the wait deadline.
    pub item: Option<Entry<T>>,
    /// True when the queue is closed *and* drained — the consumer should
    /// exit. While entries remain after [`AdmissionQueue::close`], pops
    /// keep returning them so already-admitted work is flushed.
    pub closed: bool,
}

/// The cumulative top-line admission books (see
/// [`AdmissionQueue::totals`]) — cheap enough to read on a monitor
/// tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionTotals {
    /// Queries ever submitted.
    pub submitted: u64,
    /// Queries rejected at admission.
    pub rejected: u64,
    /// Queries shed after admission.
    pub shed: u64,
    /// Queries popped toward batches.
    pub popped: u64,
    /// Current queue depth.
    pub depth: u64,
}

/// Point-in-time admission accounting (global and per client).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdmissionSnapshot {
    /// Queries offered to [`AdmissionQueue::submit`] while open.
    pub submitted: u64,
    /// Queries turned away at the door (never queued).
    pub rejected: u64,
    /// Admitted queries dropped before a forward (evicted or
    /// deadline-blown).
    pub shed: u64,
    /// Of `shed`, those dropped because their deadline passed.
    pub deadline_shed: u64,
    /// Admitted queries handed to the consumer so far.
    pub popped: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Highest queue depth observed since construction.
    pub queue_depth_peak: u64,
    /// Per-client accounting ([`ClientStats`]: admission books plus the
    /// served-side answered count and latency histogram, recorded by the
    /// workers via [`AdmissionQueue::record_answered`] so both sides live
    /// in one map under one eviction policy), sorted by client id.
    pub clients: Vec<ClientStats>,
    /// Aggregate of per-client states evicted to honor
    /// [`MAX_TRACKED_CLIENTS`]. Each evicted `(client, epoch)` state is
    /// merged exactly once, so `Σ clients + evicted` reconciles with the
    /// global counters even under eviction churn.
    pub evicted: EvictedClientStats,
    /// Per-class accounting, one row per configured [`ClassWeights`]
    /// class (empty without class shaping).
    pub classes: Vec<ClassStats>,
    /// Adaptive-controller gauges, when one is attached.
    pub adaptive: Option<AdaptiveSnapshot>,
}

#[derive(Debug)]
struct ClientState {
    /// Accounting epoch, minted per tracking incarnation. Idle-candidate
    /// entries carry the epoch they were enqueued under and only match a
    /// state with the same epoch, so an id that was evicted and
    /// re-tracked is never confused with its previous incarnation — the
    /// dedup that keeps each state's histogram merged exactly once.
    epoch: u64,
    tokens: f64,
    last_refill: Instant,
    queued: usize,
    submitted: u64,
    answered: u64,
    rejected: u64,
    shed: u64,
    hist: LatencyHistogram,
}

/// Aggregate the evicted per-client states merge into (exactly once per
/// state, keyed by accounting epoch).
#[derive(Debug, Default)]
struct EvictedAggregate {
    clients: u64,
    submitted: u64,
    answered: u64,
    rejected: u64,
    shed: u64,
    hist: LatencyHistogram,
}

impl EvictedAggregate {
    fn merge(&mut self, state: &ClientState) {
        self.clients += 1;
        self.submitted += state.submitted;
        self.answered += state.answered;
        self.rejected += state.rejected;
        self.shed += state.shed;
        self.hist.merge(&state.hist);
    }
}

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<Entry<T>>,
    clients: HashMap<u64, ClientState>,
    /// `(id, epoch)` pairs whose queued count last dropped to 0 —
    /// amortized-O(1) eviction candidates for the
    /// [`MAX_TRACKED_CLIENTS`] bound (validated lazily at eviction time;
    /// bounded, with a linear-scan fallback when stale). The epoch pins
    /// the candidate to one tracking incarnation, so a stale candidate
    /// can never evict — and merge — a later incarnation of the same id.
    idle_candidates: VecDeque<(u64, u64)>,
    /// Epoch minted for the next fresh [`ClientState`].
    next_epoch: u64,
    /// Where evicted per-client states go; merged exactly once each.
    evicted: EvictedAggregate,
    closed: bool,
    submitted: u64,
    rejected: u64,
    shed: u64,
    deadline_shed: u64,
    popped: u64,
    depth_peak: u64,
    /// Class shaping state; `None` mirrors `cfg.classes` (kept inside
    /// `Inner` so `shed_at`/`pop` bookkeeping can reach it without
    /// re-borrowing the config).
    classes: Option<ClassWeights>,
    /// Spendable credits per class (refilled on pop, charged at a full
    /// queue).
    class_credits: [f64; MAX_CLASSES],
    class_submitted: [u64; MAX_CLASSES],
    class_rejected: [u64; MAX_CLASSES],
    class_shed: [u64; MAX_CLASSES],
    class_popped: [u64; MAX_CLASSES],
    class_queued: [usize; MAX_CLASSES],
}

/// Cap on tracked per-client states (token bucket + accounting +
/// latency histogram). Client ids are caller-supplied `u64`s: without a
/// bound, a server fed one fresh id per connection would grow its client
/// map — and the cost of every stats snapshot — without limit. Past the
/// cap, admitting a *new* client evicts an idle (nothing queued)
/// client's state: its counters and latency histogram merge — exactly
/// once, deduped by accounting epoch — into the
/// [`AdmissionSnapshot::evicted`] aggregate (so totals still reconcile),
/// its per-client breakdown entry disappears, and its token bucket
/// resets to a full burst if it returns. Clients with queued entries are
/// never evicted, and there are at most `capacity` of those.
pub const MAX_TRACKED_CLIENTS: usize = 8192;

impl<T> Inner<T> {
    /// Marks `(id, epoch)` as an eviction candidate (the state's queued
    /// count just hit 0). Duplicates are fine — candidates are validated
    /// against the live state's epoch at eviction — and the list is
    /// bounded so it cannot itself become a leak.
    fn mark_idle(&mut self, id: u64, epoch: u64) {
        if self.idle_candidates.len() < MAX_TRACKED_CLIENTS {
            self.idle_candidates.push_back((id, epoch));
        }
    }

    /// Removes `id`'s state and merges it into the evicted aggregate.
    fn evict(&mut self, id: u64) {
        let state = self.clients.remove(&id).expect("evicting a tracked id");
        self.evicted.merge(&state);
    }

    fn client(&mut self, id: u64, now: Instant, burst: f64) -> &mut ClientState {
        if !self.clients.contains_key(&id) {
            if self.clients.len() >= MAX_TRACKED_CLIENTS {
                // Amortized-O(1) path: pop candidates until one matches a
                // live idle state *of the same epoch*. Each stale
                // candidate is discarded for good, so total validation
                // work is bounded by total candidate pushes; the epoch
                // check keeps a candidate from an evicted incarnation
                // from touching a re-tracked one.
                let mut evicted = false;
                while let Some((idle, epoch)) = self.idle_candidates.pop_front() {
                    if self
                        .clients
                        .get(&idle)
                        .is_some_and(|s| s.epoch == epoch && s.queued == 0)
                    {
                        self.evict(idle);
                        evicted = true;
                        break;
                    }
                }
                if !evicted {
                    // Fallback (candidate list exhausted/stale): linear scan.
                    if let Some(&idle) = self
                        .clients
                        .iter()
                        .find(|(_, s)| s.queued == 0)
                        .map(|(id, _)| id)
                    {
                        self.evict(idle);
                    }
                }
            }
            let epoch = self.next_epoch;
            self.next_epoch += 1;
            self.clients.insert(
                id,
                ClientState {
                    epoch,
                    tokens: burst,
                    last_refill: now,
                    queued: 0,
                    submitted: 0,
                    answered: 0,
                    rejected: 0,
                    shed: 0,
                    hist: LatencyHistogram::new(),
                },
            );
        }
        self.clients.get_mut(&id).expect("present or just inserted")
    }

    /// Removes the entry at `idx`, updating shed accounting.
    fn shed_at(&mut self, idx: usize, deadline: bool) -> Entry<T> {
        let entry = self.queue.remove(idx).expect("index in bounds");
        self.shed += 1;
        if deadline {
            self.deadline_shed += 1;
        }
        if self.classes.is_some() {
            let ci = entry.class as usize;
            self.class_shed[ci] += 1;
            self.class_queued[ci] = self.class_queued[ci].saturating_sub(1);
        }
        if let Some(c) = self.clients.get_mut(&entry.client) {
            c.queued = c.queued.saturating_sub(1);
            c.shed += 1;
            let epoch = c.epoch;
            if c.queued == 0 {
                self.mark_idle(entry.client, epoch);
            }
        }
        entry
    }

    /// Sheds every deadline-blown entry (any position). Returns them in
    /// queue order.
    fn shed_blown(&mut self, now: Instant) -> Vec<Entry<T>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].blown(now) {
                out.push(self.shed_at(i, true));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Index of the eviction victim.
    ///
    /// With [`ClassWeights`] configured, class proportionality comes
    /// first: the victim is the oldest entry of the class holding the
    /// most queued entries *per unit weight* (ties: lowest class
    /// index). Otherwise, with fairness, it is the oldest entry of the
    /// client holding the most queued entries (ties: lowest client id);
    /// without either, the global oldest (front).
    fn victim_index(&self, fair: bool) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        if let Some(cw) = &self.classes {
            let victim_class =
                (0..cw.len())
                    .filter(|&i| self.class_queued[i] > 0)
                    .max_by(|&a, &b| {
                        let ra = self.class_queued[a] as f64 / cw.weight(a);
                        let rb = self.class_queued[b] as f64 / cw.weight(b);
                        ra.partial_cmp(&rb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(b.cmp(&a))
                    })?;
            return self
                .queue
                .iter()
                .position(|e| e.class as usize == victim_class);
        }
        if !fair {
            return Some(0);
        }
        let victim_client = self
            .clients
            .iter()
            .filter(|(_, s)| s.queued > 0)
            .max_by_key(|(id, s)| (s.queued, u64::MAX - *id))
            .map(|(id, _)| *id)?;
        self.queue.iter().position(|e| e.client == victim_client)
    }
}

/// A bounded, policy-governed, per-client-fair ingress queue.
///
/// Producers call [`AdmissionQueue::submit`]; a single consumer (the
/// server's batcher) calls [`AdmissionQueue::pop`]. All policy decisions
/// happen under one mutex, so the accounting invariant
/// `submitted == popped + rejected + shed + depth` is exact at every
/// instant.
///
/// # Examples
///
/// ```
/// use maxk_serve::admission::{
///     AdmissionConfig, AdmissionQueue, OverloadPolicy, RejectReason, Submission,
/// };
///
/// let q: AdmissionQueue<&str> = AdmissionQueue::new(AdmissionConfig {
///     capacity: 1,
///     policy: OverloadPolicy::RejectNewest,
///     ..AdmissionConfig::default()
/// });
/// assert!(matches!(q.submit(0, None, "first"), Ok(Submission::Admitted { .. })));
/// assert!(matches!(
///     q.submit(0, None, "second"),
///     Ok(Submission::Rejected(RejectReason::QueueFull))
/// ));
/// let popped = q.pop(Some(std::time::Instant::now()));
/// assert_eq!(popped.item.unwrap().payload, "first");
/// ```
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    cfg: AdmissionConfig,
    adaptive: Option<Arc<AdaptiveController>>,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// Creates an empty queue with static budgets.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0` (nothing could ever be admitted), or
    /// when fairness is configured with `burst < 1` or a negative /
    /// non-finite refill rate (a sub-1 burst would silently reject every
    /// query from every client — a total serving outage is a
    /// misconfiguration, not a policy).
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self::with_controller(cfg, None)
    }

    /// Creates an empty queue, optionally governed by an
    /// [`AdaptiveController`]: once the controller has observations,
    /// its derived capacity replaces [`AdmissionConfig::capacity`] and
    /// its derived deadline slots between the per-query deadline and
    /// [`AdmissionConfig::default_deadline`] in precedence.
    ///
    /// # Panics
    ///
    /// As [`AdmissionQueue::new`].
    pub fn with_controller(
        cfg: AdmissionConfig,
        adaptive: Option<Arc<AdaptiveController>>,
    ) -> Self {
        assert!(cfg.capacity > 0, "admission capacity must be nonzero");
        if let Some(fair) = cfg.fairness {
            assert!(
                fair.burst.is_finite() && fair.burst >= 1.0,
                "fairness burst must be >= 1 (got {}); a sub-1 burst admits nothing",
                fair.burst
            );
            assert!(
                fair.rate_per_s.is_finite() && fair.rate_per_s >= 0.0,
                "fairness refill rate must be finite and >= 0 (got {})",
                fair.rate_per_s
            );
        }
        let mut class_credits = [0.0; MAX_CLASSES];
        if let Some(cw) = &cfg.classes {
            assert!(cw.len() > 0, "class shaping configured with no classes");
            // Every class starts with a full burst so shaping only
            // bites once a class has actually out-consumed its share.
            class_credits[..cw.len()].fill(cw.burst());
        }
        AdmissionQueue {
            cfg,
            adaptive,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                clients: HashMap::new(),
                idle_candidates: VecDeque::new(),
                next_epoch: 0,
                evicted: EvictedAggregate::default(),
                closed: false,
                submitted: 0,
                rejected: 0,
                shed: 0,
                deadline_shed: 0,
                popped: 0,
                depth_peak: 0,
                classes: cfg.classes,
                class_credits,
                class_submitted: [0; MAX_CLASSES],
                class_rejected: [0; MAX_CLASSES],
                class_shed: [0; MAX_CLASSES],
                class_popped: [0; MAX_CLASSES],
                class_queued: [0; MAX_CLASSES],
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The configuration the queue was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// The adaptive controller governing this queue, if any.
    pub fn adaptive(&self) -> Option<&Arc<AdaptiveController>> {
        self.adaptive.as_ref()
    }

    /// The capacity currently in force: the adaptive controller's
    /// derived capacity once it has observations, the static
    /// [`AdmissionConfig::capacity`] before.
    pub fn effective_capacity(&self) -> usize {
        self.adaptive
            .as_ref()
            .and_then(|a| a.derived_capacity())
            .unwrap_or(self.cfg.capacity)
    }

    /// The default latency budget currently in force (per-query
    /// deadlines still take precedence).
    pub fn effective_deadline(&self) -> Option<Duration> {
        self.adaptive
            .as_ref()
            .and_then(|a| a.derived_deadline())
            .or(self.cfg.default_deadline)
    }

    /// Offers one query for admission.
    ///
    /// The effective deadline is `deadline`, falling back to
    /// [`AdmissionConfig::default_deadline`] (deadlines are only
    /// *enforced* under [`OverloadPolicy::DeadlineShed`], but always
    /// recorded so the server can count late answers as deadline
    /// misses). Under [`OverloadPolicy::Block`] this call blocks while
    /// the queue is full.
    ///
    /// **Non-starvation guarantee.** With fairness enabled, a policy of
    /// `DropOldest` (or `DeadlineShed`, absent deadlines) and
    /// `capacity` strictly greater than the number of active clients,
    /// an eviction victim always holds at least two queued entries: the
    /// queue is only full when some client has ≥ 2 queued (pigeonhole),
    /// and the most-queued client is the victim. So no client's *last*
    /// waiting query is ever evicted on another client's behalf — every
    /// client with nonzero demand keeps at least one query in flight
    /// until it is popped (the property the admission proptest checks).
    ///
    /// # Errors
    ///
    /// [`ServeError::ChannelClosed`] when the queue is closed (including
    /// while blocked under `Block`).
    pub fn submit(
        &self,
        client: u64,
        deadline: Option<Duration>,
        payload: T,
    ) -> Result<Submission<T>, ServeError> {
        self.submit_classed(client, 0, deadline, payload)
    }

    /// [`AdmissionQueue::submit`] with an explicit traffic class.
    ///
    /// With [`ClassWeights`] configured, a submission that hits a
    /// *full* queue first spends one of its class's credits; a class
    /// out of credits is rejected with
    /// [`RejectReason::ClassThrottled`] before any policy action.
    /// Credits refill one per pop, split across classes by weight, so
    /// under sustained overload each class's admitted throughput is
    /// proportional to its weight — and since every positive-weight
    /// class receives credit on every pop, no class starves (the
    /// class-level analogue of the per-client guarantee above; when
    /// classes and fairness are both configured, eviction victims are
    /// chosen class-first). Below capacity no credit is charged:
    /// shaping is work-conserving.
    ///
    /// # Panics
    ///
    /// Panics when [`ClassWeights`] are configured and `class` is not
    /// a configured index (a misconfigured caller, not traffic).
    /// Without class shaping, `class` is recorded on the entry but has
    /// no effect.
    ///
    /// # Errors
    ///
    /// [`ServeError::ChannelClosed`] when the queue is closed (including
    /// while blocked under `Block`).
    pub fn submit_classed(
        &self,
        client: u64,
        class: u32,
        deadline: Option<Duration>,
        payload: T,
    ) -> Result<Submission<T>, ServeError> {
        let ci = class as usize;
        let shaped = self.cfg.classes.is_some();
        if let Some(cw) = &self.cfg.classes {
            assert!(
                ci < cw.len(),
                "traffic class {class} out of range ({} classes configured)",
                cw.len()
            );
        }
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("admission lock poisoned");
        if inner.closed {
            return Err(ServeError::ChannelClosed);
        }
        inner.submitted += 1;
        if shaped {
            inner.class_submitted[ci] += 1;
        }
        // Token bucket first: rate limiting applies regardless of depth.
        if let Some(fair) = self.cfg.fairness {
            let state = inner.client(client, now, fair.burst);
            let elapsed = now.duration_since(state.last_refill).as_secs_f64();
            state.tokens = (state.tokens + elapsed * fair.rate_per_s).min(fair.burst);
            state.last_refill = now;
            if state.tokens < 1.0 {
                state.submitted += 1;
                state.rejected += 1;
                inner.rejected += 1;
                if shaped {
                    inner.class_rejected[ci] += 1;
                }
                return Ok(Submission::Rejected(RejectReason::RateLimited));
            }
            state.tokens -= 1.0;
        }
        inner.client(client, now, 0.0).submitted += 1;

        let mut shed = Vec::new();
        let mut charged = false;
        while inner.queue.len() >= self.effective_capacity() {
            // Class shaping gates the full-queue path: one credit per
            // submission that contends for a slot, charged once even if
            // the policy loop runs multiple rounds.
            if shaped && !charged {
                if inner.class_credits[ci] < 1.0 {
                    inner.rejected += 1;
                    inner.class_rejected[ci] += 1;
                    if let Some(c) = inner.clients.get_mut(&client) {
                        c.rejected += 1;
                    }
                    return Ok(Submission::Rejected(RejectReason::ClassThrottled));
                }
                inner.class_credits[ci] -= 1.0;
                charged = true;
            }
            match self.cfg.policy {
                OverloadPolicy::Block => {
                    inner = self.not_full.wait(inner).expect("admission lock poisoned");
                    if inner.closed {
                        // The submission was counted; un-count it so the
                        // books stay exact for accepted traffic. The
                        // client entry may have been evicted (and even
                        // recreated) while this submitter was blocked,
                        // so the per-client decrement must saturate
                        // rather than underflow.
                        inner.submitted -= 1;
                        if shaped {
                            inner.class_submitted[ci] -= 1;
                            if charged {
                                // The slot was never consumed; return
                                // the credit (cap is irrelevant on the
                                // shutdown path).
                                inner.class_credits[ci] += 1.0;
                            }
                        }
                        if let Some(c) = inner.clients.get_mut(&client) {
                            c.submitted = c.submitted.saturating_sub(1);
                        }
                        return Err(ServeError::ChannelClosed);
                    }
                }
                OverloadPolicy::RejectNewest => {
                    inner.rejected += 1;
                    if shaped {
                        inner.class_rejected[ci] += 1;
                    }
                    if let Some(c) = inner.clients.get_mut(&client) {
                        c.rejected += 1;
                    }
                    return Ok(Submission::Rejected(RejectReason::QueueFull));
                }
                OverloadPolicy::DropOldest => {
                    let idx = inner
                        .victim_index(self.cfg.fairness.is_some())
                        .expect("full queue has a victim");
                    shed.push((inner.shed_at(idx, false), ShedReason::Evicted));
                }
                OverloadPolicy::DeadlineShed => {
                    let blown = inner.shed_blown(Instant::now());
                    if blown.is_empty() {
                        let idx = inner
                            .victim_index(self.cfg.fairness.is_some())
                            .expect("full queue has a victim");
                        shed.push((inner.shed_at(idx, false), ShedReason::Evicted));
                    } else {
                        shed.extend(blown.into_iter().map(|e| (e, ShedReason::DeadlineBlown)));
                    }
                }
            }
        }

        let deadline = deadline
            .or_else(|| self.effective_deadline())
            .map(|budget| now + budget);
        inner.queue.push_back(Entry {
            client,
            class,
            enqueued: now,
            deadline,
            payload,
        });
        if shaped {
            inner.class_queued[ci] += 1;
        }
        if let Some(c) = inner.clients.get_mut(&client) {
            c.queued += 1;
        }
        inner.depth_peak = inner.depth_peak.max(inner.queue.len() as u64);
        drop(inner);
        self.not_empty.notify_one();
        Ok(Submission::Admitted { shed })
    }

    /// Takes the next admitted query, waiting until `wait_until` (or
    /// indefinitely when `None`) for one to arrive.
    ///
    /// Under [`OverloadPolicy::DeadlineShed`], deadline-blown entries
    /// are shed (returned in [`Popped::shed`]) rather than handed out,
    /// so a blown query never costs forward work; when only shed entries
    /// turn up, the call returns early (item `None`) so the caller can
    /// notify their submitters instead of holding them hostage for the
    /// rest of the wait. After [`AdmissionQueue::close`], remaining
    /// entries are still handed out; [`Popped::closed`] turns true once
    /// the queue is both closed and drained.
    pub fn pop(&self, wait_until: Option<Instant>) -> Popped<T> {
        let mut shed = Vec::new();
        let mut inner = self.inner.lock().expect("admission lock poisoned");
        let (item, closed) = loop {
            if self.cfg.policy == OverloadPolicy::DeadlineShed {
                shed.extend(inner.shed_blown(Instant::now()));
            }
            if let Some(entry) = inner.queue.pop_front() {
                inner.popped += 1;
                if let Some(cw) = inner.classes {
                    let ci = entry.class as usize;
                    inner.class_popped[ci] += 1;
                    inner.class_queued[ci] = inner.class_queued[ci].saturating_sub(1);
                    // Service-coupled refill: one pop is one unit of
                    // service, split across classes by weight and
                    // capped at the burst. Admissions at a full queue
                    // cost one credit each, so under sustained overload
                    // each class admits at most its weighted share of
                    // the pop rate.
                    let total = cw.total_weight();
                    for i in 0..cw.len() {
                        inner.class_credits[i] =
                            (inner.class_credits[i] + cw.weight(i) / total).min(cw.burst());
                    }
                }
                let now_idle = match inner.clients.get_mut(&entry.client) {
                    Some(c) => {
                        c.queued = c.queued.saturating_sub(1);
                        (c.queued == 0).then_some(c.epoch)
                    }
                    None => None,
                };
                if let Some(epoch) = now_idle {
                    inner.mark_idle(entry.client, epoch);
                }
                break (Some(entry), false);
            }
            if inner.closed {
                break (None, true);
            }
            if !shed.is_empty() {
                // Yield so the caller can notify the shed submitters.
                break (None, false);
            }
            let now = Instant::now();
            match wait_until {
                Some(until) if now >= until => break (None, false),
                Some(until) => {
                    let (guard, _) = self
                        .not_empty
                        .wait_timeout(inner, until - now)
                        .expect("admission lock poisoned");
                    inner = guard;
                }
                None => {
                    inner = self.not_empty.wait(inner).expect("admission lock poisoned");
                }
            }
        };
        drop(inner);
        // Every removal (popped item or shed entry) frees a slot for
        // blocked submitters.
        let freed = usize::from(item.is_some()) + shed.len();
        if freed == 1 {
            self.not_full.notify_one();
        } else if freed > 1 {
            self.not_full.notify_all();
        }
        Popped { shed, item, closed }
    }

    /// Closes the queue: subsequent submits fail with
    /// [`ServeError::ChannelClosed`], blocked submitters wake with the
    /// same error, and pops drain the remaining entries before reporting
    /// [`Popped::closed`].
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("admission lock poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// True once [`AdmissionQueue::close`] has been called (the
    /// `/healthz` ingress check).
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("admission lock poisoned").closed
    }

    /// Records served outcomes: for each `(client, latency_us)` pair,
    /// bumps the client's answered counter and latency histogram. Called
    /// by the serving workers once per batch (single lock acquisition),
    /// so the admission and serving sides of the per-client books live
    /// in **one** map under one eviction policy and cannot diverge. A
    /// client whose state was evicted while its query was in flight gets
    /// a fresh entry (a new accounting epoch); its pre-eviction
    /// observations live on in [`AdmissionSnapshot::evicted`], merged
    /// exactly once, so totals reconcile even past
    /// [`MAX_TRACKED_CLIENTS`].
    pub fn record_answered(&self, outcomes: impl IntoIterator<Item = (u64, u64)>) {
        let now = Instant::now();
        let burst = self.cfg.fairness.map_or(0.0, |f| f.burst);
        let mut inner = self.inner.lock().expect("admission lock poisoned");
        for (client, us) in outcomes {
            let state = inner.client(client, now, burst);
            state.answered += 1;
            state.hist.record(us);
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .expect("admission lock poisoned")
            .queue
            .len()
    }

    /// The cumulative top-line books in one cheap lock acquisition — the
    /// SLO monitor diffs these every tick, so this deliberately skips
    /// the per-client and per-class maps that make
    /// [`AdmissionQueue::snapshot`] expensive.
    pub fn totals(&self) -> AdmissionTotals {
        let inner = self.inner.lock().expect("admission lock poisoned");
        AdmissionTotals {
            submitted: inner.submitted,
            rejected: inner.rejected,
            shed: inner.shed,
            popped: inner.popped,
            depth: inner.queue.len() as u64,
        }
    }

    /// Consistent snapshot of every admission counter.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let inner = self.inner.lock().expect("admission lock poisoned");
        let mut clients: Vec<ClientStats> = inner
            .clients
            .iter()
            .map(|(&client, s)| ClientStats {
                client,
                submitted: s.submitted,
                answered: s.answered,
                rejected: s.rejected,
                shed: s.shed,
                queued: s.queued as u64,
                latency: LatencySummary::of(&s.hist),
            })
            .collect();
        clients.sort_by_key(|c| c.client);
        let classes = inner
            .classes
            .map(|cw| {
                (0..cw.len())
                    .map(|i| ClassStats {
                        class: i as u32,
                        name: cw.name(i),
                        weight: cw.weight(i),
                        submitted: inner.class_submitted[i],
                        rejected: inner.class_rejected[i],
                        shed: inner.class_shed[i],
                        popped: inner.class_popped[i],
                        queued: inner.class_queued[i] as u64,
                    })
                    .collect()
            })
            .unwrap_or_default();
        AdmissionSnapshot {
            submitted: inner.submitted,
            rejected: inner.rejected,
            shed: inner.shed,
            deadline_shed: inner.deadline_shed,
            popped: inner.popped,
            queue_depth: inner.queue.len() as u64,
            queue_depth_peak: inner.depth_peak,
            clients,
            evicted: EvictedClientStats {
                clients: inner.evicted.clients,
                submitted: inner.evicted.submitted,
                answered: inner.evicted.answered,
                rejected: inner.evicted.rejected,
                shed: inner.evicted.shed,
                latency: LatencySummary::of(&inner.evicted.hist),
            },
            classes,
            adaptive: self.adaptive.as_ref().map(|a| a.snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, StdThreadExecutor};

    fn cfg(capacity: usize, policy: OverloadPolicy) -> AdmissionConfig {
        AdmissionConfig {
            capacity,
            policy,
            ..AdmissionConfig::default()
        }
    }

    fn admit<T>(q: &AdmissionQueue<T>, client: u64, payload: T) -> Vec<(Entry<T>, ShedReason)> {
        match q.submit(client, None, payload).expect("queue open") {
            Submission::Admitted { shed } => shed,
            Submission::Rejected(r) => panic!("unexpected rejection: {r}"),
        }
    }

    fn pop_now<T>(q: &AdmissionQueue<T>) -> Popped<T> {
        q.pop(Some(Instant::now()))
    }

    #[test]
    fn fifo_order_and_depth_gauges() {
        let q = AdmissionQueue::new(cfg(8, OverloadPolicy::RejectNewest));
        for i in 0..5u32 {
            assert!(admit(&q, 0, i).is_empty());
        }
        assert_eq!(q.depth(), 5);
        for i in 0..5u32 {
            assert_eq!(pop_now(&q).item.unwrap().payload, i);
        }
        let snap = q.snapshot();
        assert_eq!(snap.submitted, 5);
        assert_eq!(snap.popped, 5);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.queue_depth_peak, 5);
        assert_eq!(snap.rejected + snap.shed, 0);
    }

    #[test]
    fn reject_newest_turns_away_at_capacity() {
        let q = AdmissionQueue::new(cfg(2, OverloadPolicy::RejectNewest));
        admit(&q, 1, "a");
        admit(&q, 1, "b");
        match q.submit(2, None, "c").unwrap() {
            Submission::Rejected(RejectReason::QueueFull) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let snap = q.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queue_depth, 2);
        let c2 = snap.clients.iter().find(|c| c.client == 2).unwrap();
        assert_eq!((c2.submitted, c2.rejected), (1, 1));
    }

    #[test]
    fn drop_oldest_evicts_the_front() {
        let q = AdmissionQueue::new(cfg(2, OverloadPolicy::DropOldest));
        admit(&q, 0, "a");
        admit(&q, 0, "b");
        let shed = admit(&q, 0, "c");
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.payload, "a");
        assert_eq!(shed[0].1, ShedReason::Evicted);
        assert_eq!(pop_now(&q).item.unwrap().payload, "b");
        assert_eq!(pop_now(&q).item.unwrap().payload, "c");
        let snap = q.snapshot();
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.popped, 2);
    }

    #[test]
    fn fair_drop_oldest_targets_the_hoarder() {
        let q = AdmissionQueue::new(AdmissionConfig {
            capacity: 4,
            policy: OverloadPolicy::DropOldest,
            fairness: Some(FairnessConfig {
                rate_per_s: 0.0,
                burst: 16.0,
            }),
            ..AdmissionConfig::default()
        });
        // Client 7 floods; client 1 parks a single query first.
        admit(&q, 1, 100u32);
        for v in 0..3 {
            admit(&q, 7, v);
        }
        // Queue full; the next flood submission evicts 7's own oldest,
        // not client 1's only entry.
        let shed = admit(&q, 7, 3);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.client, 7);
        assert_eq!(shed[0].0.payload, 0);
        let first = pop_now(&q).item.unwrap();
        assert_eq!((first.client, first.payload), (1, 100));
    }

    #[test]
    fn token_bucket_rate_limits_per_client() {
        let q = AdmissionQueue::new(AdmissionConfig {
            capacity: 64,
            policy: OverloadPolicy::RejectNewest,
            fairness: Some(FairnessConfig {
                rate_per_s: 0.0,
                burst: 2.0,
            }),
            ..AdmissionConfig::default()
        });
        admit(&q, 3, ());
        admit(&q, 3, ());
        match q.submit(3, None, ()).unwrap() {
            Submission::Rejected(RejectReason::RateLimited) => {}
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // A different client still has its full burst.
        admit(&q, 4, ());
        let snap = q.snapshot();
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queue_depth, 3);
    }

    #[test]
    fn deadline_shed_drops_blown_entries_at_pop() {
        let q = AdmissionQueue::new(AdmissionConfig {
            capacity: 8,
            policy: OverloadPolicy::DeadlineShed,
            default_deadline: Some(Duration::ZERO),
            ..AdmissionConfig::default()
        });
        admit(&q, 0, "blown");
        let popped = pop_now(&q);
        assert!(popped.item.is_none());
        assert_eq!(popped.shed.len(), 1);
        assert_eq!(popped.shed[0].payload, "blown");
        let snap = q.snapshot();
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.deadline_shed, 1);
    }

    #[test]
    fn deadline_shed_overflow_prefers_blown_then_evicts() {
        let q = AdmissionQueue::new(cfg(2, OverloadPolicy::DeadlineShed));
        // One blown entry, one live one.
        match q.submit(0, Some(Duration::ZERO), "blown").unwrap() {
            Submission::Admitted { shed } => assert!(shed.is_empty()),
            other => panic!("{other:?}"),
        }
        admit(&q, 0, "live");
        let shed = admit(&q, 0, "new");
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.payload, "blown");
        assert_eq!(shed[0].1, ShedReason::DeadlineBlown);
        // No blown entries left: a further overflow evicts the oldest.
        let shed = admit(&q, 0, "newer");
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.payload, "live");
        assert_eq!(shed[0].1, ShedReason::Evicted);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = AdmissionQueue::new(cfg(4, OverloadPolicy::Block));
        admit(&q, 0, 1u32);
        admit(&q, 0, 2u32);
        q.close();
        assert!(matches!(
            q.submit(0, None, 3u32),
            Err(ServeError::ChannelClosed)
        ));
        let p = pop_now(&q);
        assert_eq!(p.item.unwrap().payload, 1);
        assert!(!p.closed);
        assert_eq!(pop_now(&q).item.unwrap().payload, 2);
        let last = pop_now(&q);
        assert!(last.item.is_none());
        assert!(last.closed);
    }

    #[test]
    fn block_policy_blocks_until_pop_frees_space() {
        let q = std::sync::Arc::new(AdmissionQueue::new(cfg(1, OverloadPolicy::Block)));
        admit(&q, 0, 0u32);
        let q2 = std::sync::Arc::clone(&q);
        let submitter = StdThreadExecutor.spawn_worker("test-submitter", move || {
            // Blocks until the consumer pops.
            q2.submit(0, None, 1u32).expect("open")
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.depth(), 1, "submitter must be blocked, not queued");
        assert_eq!(q.pop(None).item.unwrap().payload, 0);
        match submitter.join().expect("submitter thread") {
            Submission::Admitted { shed } => assert!(shed.is_empty()),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.pop(None).item.unwrap().payload, 1);
    }

    #[test]
    fn blocked_submitter_wakes_on_close() {
        let q = std::sync::Arc::new(AdmissionQueue::new(cfg(1, OverloadPolicy::Block)));
        admit(&q, 0, ());
        let q2 = std::sync::Arc::clone(&q);
        let submitter =
            StdThreadExecutor.spawn_worker("test-submitter", move || q2.submit(0, None, ()));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(
            submitter.join().expect("submitter thread"),
            Err(ServeError::ChannelClosed)
        ));
        // The blocked-then-refused submission must not be counted.
        let snap = q.snapshot();
        assert_eq!(snap.submitted, 1);
    }

    #[test]
    #[should_panic(expected = "burst must be >= 1")]
    fn sub_one_burst_is_a_misconfiguration() {
        let _: AdmissionQueue<()> = AdmissionQueue::new(AdmissionConfig {
            capacity: 4,
            policy: OverloadPolicy::RejectNewest,
            fairness: Some(FairnessConfig {
                rate_per_s: 100.0,
                burst: 0.5,
            }),
            ..AdmissionConfig::default()
        });
    }

    #[test]
    fn tracked_client_state_is_bounded() {
        let q = AdmissionQueue::new(cfg(4, OverloadPolicy::DropOldest));
        for id in 0..(MAX_TRACKED_CLIENTS as u64 + 100) {
            let _ = q.submit(id, None, ());
        }
        let snap = q.snapshot();
        assert!(
            snap.clients.len() <= MAX_TRACKED_CLIENTS,
            "client map grew to {}",
            snap.clients.len()
        );
        // Global books stay exact even though idle per-client entries
        // were evicted from the breakdown.
        assert_eq!(
            snap.submitted,
            snap.popped + snap.rejected + snap.shed + snap.queue_depth
        );
    }

    #[test]
    fn eviction_churn_merges_each_state_exactly_once() {
        // Evict → re-track → evict churn within one snapshot window: the
        // per-client books (tracked + evicted aggregate) must reconcile
        // with the global counters, with no observation counted twice
        // and none lost. Before the epoch-deduped merge, evicted state
        // was silently discarded (and a stale idle candidate could hit a
        // re-tracked incarnation), so these sums drifted under churn.
        let q = AdmissionQueue::new(cfg(4, OverloadPolicy::DropOldest));
        let mut answered_recorded = 0u64;
        // Three churn rounds: flood past the tracking bound, answering a
        // few along the way so evicted histograms are non-empty; the
        // repeating low ids are evicted and re-tracked each round.
        for round in 0..3u64 {
            for i in 0..(MAX_TRACKED_CLIENTS as u64 / 2 + 50) {
                // Hot ids 0..5 recur every round (evicted idle, then
                // re-tracked under a fresh epoch); cold ids are fresh
                // each round, so round 2 onward pushes past the bound.
                let id = if i < 5 { i } else { round * 1_000_000 + i };
                let _ = q.submit(id, None, ());
                if id < 5 {
                    // Drain and answer the hot ids' queries immediately,
                    // touching their histograms in every incarnation.
                    while pop_now(&q).item.is_some() {}
                    q.record_answered([(id, 10 * (round + 1))]);
                    answered_recorded += 1;
                }
            }
        }
        let snap = q.snapshot();
        assert!(snap.clients.len() <= MAX_TRACKED_CLIENTS);
        assert!(snap.evicted.clients > 0, "churn must evict");
        // Conservation: tracked + evicted == global, per counter.
        let tracked_submitted: u64 = snap.clients.iter().map(|c| c.submitted).sum();
        assert_eq!(tracked_submitted + snap.evicted.submitted, snap.submitted);
        let tracked_shed: u64 = snap.clients.iter().map(|c| c.shed).sum();
        assert_eq!(tracked_shed + snap.evicted.shed, snap.shed);
        let tracked_rejected: u64 = snap.clients.iter().map(|c| c.rejected).sum();
        assert_eq!(tracked_rejected + snap.evicted.rejected, snap.rejected);
        // Histogram conservation: every recorded answer is in exactly
        // one histogram (the double-count this test guards against).
        let tracked_answers: u64 = snap.clients.iter().map(|c| c.latency.count).sum();
        assert_eq!(
            tracked_answers + snap.evicted.latency.count,
            answered_recorded
        );
        let tracked_answered: u64 = snap.clients.iter().map(|c| c.answered).sum();
        assert_eq!(tracked_answered + snap.evicted.answered, answered_recorded);
    }

    #[test]
    fn accounting_identity_holds() {
        let q = AdmissionQueue::new(cfg(2, OverloadPolicy::DropOldest));
        for i in 0..10u32 {
            let _ = q.submit(u64::from(i % 3), None, i);
        }
        let _ = pop_now(&q);
        let snap = q.snapshot();
        assert_eq!(
            snap.submitted,
            snap.popped + snap.rejected + snap.shed + snap.queue_depth
        );
    }

    fn classed_cfg(capacity: usize, burst: f64) -> AdmissionConfig {
        AdmissionConfig {
            capacity,
            policy: OverloadPolicy::DropOldest,
            classes: Some(
                ClassWeights::new()
                    .with_class("paid", 3.0)
                    .with_class("batch", 1.0)
                    .with_burst(burst),
            ),
            ..AdmissionConfig::default()
        }
    }

    fn per_class_identity(snap: &AdmissionSnapshot) {
        for c in &snap.classes {
            assert_eq!(
                c.submitted,
                c.popped + c.rejected + c.shed + c.queued,
                "class {} books must balance",
                c.name
            );
        }
    }

    #[test]
    fn classes_are_work_conserving_below_capacity() {
        // Below capacity no credit is charged: a zero-credit class
        // still admits freely while slots are open.
        let q = AdmissionQueue::new(classed_cfg(8, 1.0));
        for i in 0..6u32 {
            match q.submit_classed(0, 1, None, i).unwrap() {
                Submission::Admitted { shed } => assert!(shed.is_empty()),
                other => panic!("{other:?}"),
            }
        }
        let snap = q.snapshot();
        assert_eq!(snap.classes[1].submitted, 6);
        assert_eq!(snap.classes[1].queued, 6);
        assert_eq!(snap.classes[1].rejected, 0);
        per_class_identity(&snap);
    }

    #[test]
    fn class_out_of_credits_is_throttled_at_full_queue() {
        let q = AdmissionQueue::new(classed_cfg(2, 1.0));
        // Fill below-capacity (uncharged), then contend twice: the
        // first full-queue submission spends the class's only credit,
        // the second is throttled.
        let _ = q.submit_classed(0, 1, None, 0u32);
        let _ = q.submit_classed(0, 1, None, 1u32);
        match q.submit_classed(0, 1, None, 2u32).unwrap() {
            Submission::Admitted { shed } => assert_eq!(shed.len(), 1),
            other => panic!("{other:?}"),
        }
        match q.submit_classed(0, 1, None, 3u32).unwrap() {
            Submission::Rejected(RejectReason::ClassThrottled) => {}
            other => panic!("expected ClassThrottled, got {other:?}"),
        }
        per_class_identity(&q.snapshot());
    }

    #[test]
    fn class_credit_refills_on_pop_split_by_weight() {
        let q = AdmissionQueue::new(classed_cfg(2, 1.0));
        let _ = q.submit_classed(0, 0, None, 0u32);
        let _ = q.submit_classed(0, 0, None, 1u32);
        // Drain both classes' initial credits at the full queue.
        let _ = q.submit_classed(0, 0, None, 2u32);
        let _ = q.submit_classed(0, 1, None, 3u32);
        // One pop refills paid by 0.75 and batch by 0.25: neither
        // reaches a full credit, so both are still throttled...
        assert!(pop_now(&q).item.is_some());
        let _ = q.submit_classed(0, 0, None, 4u32); // refills the slot uncharged
        match q.submit_classed(0, 0, None, 5u32).unwrap() {
            Submission::Rejected(RejectReason::ClassThrottled) => {}
            other => panic!("expected paid throttled at 0.75 credits, got {other:?}"),
        }
        // ...a second pop takes paid to 1.5 -> capped charge works again.
        assert!(pop_now(&q).item.is_some());
        let _ = q.submit_classed(0, 0, None, 6u32); // uncharged (slot open)
        match q.submit_classed(0, 0, None, 7u32).unwrap() {
            Submission::Admitted { shed } => assert_eq!(shed.len(), 1),
            other => panic!("{other:?}"),
        }
        per_class_identity(&q.snapshot());
    }

    #[test]
    fn class_victim_is_most_queued_per_weight() {
        // Queue of 3 batch entries + 1 paid: batch is far over its
        // weighted share, so a contending paid submission evicts batch,
        // never paid's only entry.
        let q = AdmissionQueue::new(classed_cfg(4, 16.0));
        for i in 0..3u32 {
            let _ = q.submit_classed(0, 1, None, i);
        }
        let _ = q.submit_classed(0, 0, None, 100u32);
        match q.submit_classed(0, 0, None, 101u32).unwrap() {
            Submission::Admitted { shed } => {
                assert_eq!(shed.len(), 1);
                assert_eq!(shed[0].0.class, 1, "victim must be the batch class");
                assert_eq!(shed[0].0.payload, 0, "oldest batch entry first");
            }
            other => panic!("{other:?}"),
        }
        per_class_identity(&q.snapshot());
    }

    #[test]
    fn class_throughput_tracks_weight_under_sustained_overload() {
        // Deterministic 2x-overload loop: every round offers one paid
        // and one batch query against one pop of service. Popped
        // (served) counts must track the 3:1 weights.
        let q = AdmissionQueue::new(classed_cfg(4, 1.0));
        for i in 0..2u32 {
            let _ = q.submit_classed(0, 0, None, i);
            let _ = q.submit_classed(0, 1, None, i);
        }
        let rounds = 400u32;
        for i in 0..rounds {
            let _ = q.submit_classed(0, 0, None, i);
            let _ = q.submit_classed(0, 1, None, i);
            let _ = pop_now(&q);
        }
        let snap = q.snapshot();
        per_class_identity(&snap);
        let paid = snap.classes[0].popped as f64;
        let batch = snap.classes[1].popped as f64;
        let share = paid / (paid + batch);
        assert!(
            (share - 0.75).abs() < 0.1,
            "paid service share {share} should approximate its 0.75 weight share \
             (paid {paid}, batch {batch})"
        );
        assert!(
            snap.classes[1].popped > 0,
            "the light class must not starve"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_index_out_of_range_panics() {
        let q = AdmissionQueue::new(classed_cfg(4, 1.0));
        let _ = q.submit_classed(0, 7, None, 0u32);
    }

    #[test]
    fn adaptive_controller_converges_to_steady_service_time() {
        let ctrl = AdaptiveController::new(AdaptiveConfig::default(), 64, 2);
        assert!(ctrl.service_ewma().is_none());
        assert!(ctrl.derived_capacity().is_none());
        for _ in 0..50 {
            ctrl.observe_batch(Duration::from_micros(500), 0);
        }
        let ewma = ctrl.service_ewma().unwrap();
        assert_eq!(ewma, Duration::from_micros(500));
        // deadline = multiplier x EWMA; capacity = workers x max_batch
        // x multiplier, inside the clamp.
        assert_eq!(
            ctrl.derived_deadline().unwrap(),
            Duration::from_micros(1000)
        );
        assert_eq!(ctrl.derived_capacity().unwrap(), 256);
        let snap = ctrl.snapshot();
        assert_eq!(snap.ewma_us, 500);
        assert_eq!(snap.samples, 50);
        assert_eq!(snap.derived_deadline_us, 1000);
        assert_eq!(snap.derived_capacity, 256);
    }

    #[test]
    fn adaptive_replans_on_epoch_swap() {
        let ctrl = AdaptiveController::new(AdaptiveConfig::default(), 8, 1);
        for _ in 0..100 {
            ctrl.observe_batch(Duration::from_micros(10_000), 0);
        }
        assert_eq!(ctrl.service_ewma().unwrap(), Duration::from_micros(10_000));
        // A graph mutation swaps the epoch and the service time drops;
        // the average restarts instead of dragging the old regime.
        ctrl.observe_batch(Duration::from_micros(100), 1);
        assert_eq!(ctrl.service_ewma().unwrap(), Duration::from_micros(100));
        assert_eq!(ctrl.snapshot().replans, 1);
    }

    #[test]
    fn adaptive_deadline_tightens_under_slo_feedback() {
        let ctrl = AdaptiveController::new(AdaptiveConfig::default(), 64, 2);
        for _ in 0..50 {
            ctrl.observe_batch(Duration::from_micros(500), 0);
        }
        assert_eq!(
            ctrl.derived_deadline().unwrap(),
            Duration::from_micros(1000)
        );
        assert_eq!(ctrl.deadline_tighten(), 1.0);
        // Breach feedback halves the budget...
        ctrl.set_deadline_tighten(0.5);
        assert_eq!(ctrl.derived_deadline().unwrap(), Duration::from_micros(500));
        assert_eq!(ctrl.snapshot().tighten_permille, 500);
        // ...and recovery restores it. Out-of-range values clamp.
        ctrl.set_deadline_tighten(1.0);
        assert_eq!(
            ctrl.derived_deadline().unwrap(),
            Duration::from_micros(1000)
        );
        ctrl.set_deadline_tighten(7.0);
        assert_eq!(ctrl.deadline_tighten(), 1.0);
        ctrl.set_deadline_tighten(0.0);
        assert_eq!(ctrl.snapshot().tighten_permille, 1);
    }

    #[test]
    fn totals_match_snapshot_books() {
        let queue: AdmissionQueue<()> = AdmissionQueue::new(AdmissionConfig {
            capacity: 4,
            policy: OverloadPolicy::RejectNewest,
            ..AdmissionConfig::default()
        });
        for i in 0..6u64 {
            let _ = queue.submit(i, None, ());
        }
        let totals = queue.totals();
        let snap = queue.snapshot();
        assert_eq!(totals.submitted, snap.submitted);
        assert_eq!(totals.rejected, snap.rejected);
        assert_eq!(totals.shed, snap.shed);
        assert_eq!(totals.popped, snap.popped);
        assert_eq!(totals.depth, snap.queue_depth);
        assert_eq!(totals.submitted, 6);
        assert_eq!(totals.rejected, 2);
    }

    #[test]
    fn adaptive_capacity_respects_clamp() {
        let cfg = AdaptiveConfig {
            min_capacity: 10,
            max_capacity: 20,
        };
        let ctrl = AdaptiveController::new(cfg, 1, 1);
        ctrl.observe_batch(Duration::from_micros(100), 0);
        // Unclamped derivation would be 1 x 1 x 8 = 8.
        assert_eq!(ctrl.derived_capacity().unwrap(), 10);
        let big = AdaptiveController::new(cfg, 1 << 16, 4);
        big.observe_batch(Duration::from_micros(100), 0);
        assert_eq!(big.derived_capacity().unwrap(), 20);
    }

    #[test]
    fn adaptive_queue_switches_from_static_to_derived_capacity() {
        let ctrl = Arc::new(AdaptiveController::new(
            AdaptiveConfig {
                min_capacity: 4,
                max_capacity: 4,
            },
            1,
            1,
        ));
        let q: AdmissionQueue<u32> = AdmissionQueue::with_controller(
            cfg(1, OverloadPolicy::RejectNewest),
            Some(Arc::clone(&ctrl)),
        );
        // Pre-measurement: the static capacity (1) governs.
        assert_eq!(q.effective_capacity(), 1);
        let _ = q.submit(0, None, 0);
        assert!(matches!(
            q.submit(0, None, 1).unwrap(),
            Submission::Rejected(RejectReason::QueueFull)
        ));
        // First observation lands: derived capacity (clamped to 4)
        // takes over and the queue stretches.
        ctrl.observe_batch(Duration::from_millis(1), 0);
        assert_eq!(q.effective_capacity(), 4);
        for v in 2..5u32 {
            match q.submit(0, None, v).unwrap() {
                Submission::Admitted { shed } => assert!(shed.is_empty()),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(
            q.submit(0, None, 9).unwrap(),
            Submission::Rejected(RejectReason::QueueFull)
        ));
        let snap = q.snapshot();
        assert_eq!(snap.queue_depth, 4);
        assert_eq!(snap.adaptive.unwrap().derived_capacity, 4);
        assert_eq!(
            snap.submitted,
            snap.popped + snap.rejected + snap.shed + snap.queue_depth
        );
    }

    #[test]
    fn adaptive_deadline_applies_to_untagged_queries() {
        let ctrl = Arc::new(AdaptiveController::new(AdaptiveConfig::default(), 8, 1));
        let q: AdmissionQueue<u32> = AdmissionQueue::with_controller(
            cfg(8, OverloadPolicy::DeadlineShed),
            Some(Arc::clone(&ctrl)),
        );
        // EWMA 1us -> derived budget 8us: a parked query blows it.
        ctrl.observe_batch(Duration::from_micros(1), 0);
        let _ = q.submit(0, None, 7);
        std::thread::sleep(Duration::from_millis(2));
        let popped = pop_now(&q);
        assert!(popped.item.is_none());
        assert_eq!(popped.shed.len(), 1);
        assert_eq!(q.snapshot().deadline_shed, 1);
    }
}
