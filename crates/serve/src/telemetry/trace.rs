//! Per-query stage traces and the bounded span ring.
//!
//! A sampled query carries a [`TraceContext`] through the serving
//! pipeline; each layer stamps a [`Stage`] mark as the query passes
//! (admission enqueue, dequeue, cache probe, batch assembly, forward,
//! gather, reply). Marks accumulate *locally* in the context — the hot
//! path touches no shared state until the reply, when the finished
//! context is folded into spans and pushed into the [`TraceRing`].
//!
//! The ring is bounded ([`super::RING_CAPACITY`] slots in a server, oldest
//! overwritten) and its push path is wait-free on the index side: an
//! atomic fetch-add picks the slot, and only that one slot's mutex is
//! taken to write the record. Unsampled queries never touch the ring at all — that is what
//! keeps full-rate serving overhead within the sampling budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pipeline stages a query passes through; each mark timestamps the
/// *completion* of the step it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Accepted into the admission queue.
    Enqueue,
    /// Popped from the admission queue by the batcher.
    Dequeue,
    /// Logit-cache probe finished (only stamped when a cache is
    /// configured).
    CacheProbe,
    /// Joined an assembled batch (fully-hot inline answers skip this).
    BatchAssembled,
    /// The batch's forward pass started on a worker.
    Forward,
    /// The forward returned and per-query row gathering started.
    Gather,
    /// The answer was recorded and sent.
    Reply,
}

impl Stage {
    /// Label of the interval **ending** at this mark (the span name the
    /// Chrome-trace export renders for the gap between the previous mark
    /// and this one).
    pub fn interval_label(self) -> &'static str {
        match self {
            Stage::Enqueue => "enqueue",
            Stage::Dequeue => "queue_wait",
            Stage::CacheProbe => "cache_probe",
            Stage::BatchAssembled => "batch_assembly",
            Stage::Forward => "batch_wait",
            Stage::Gather => "forward",
            Stage::Reply => "reply",
        }
    }
}

/// The per-query trace state: an id plus locally accumulated
/// `(stage, instant)` marks. Created by
/// [`crate::telemetry::Telemetry::begin_trace`] for sampled queries and
/// carried inside the request payload; no locks, no shared memory.
#[derive(Debug)]
pub struct TraceContext {
    id: u64,
    client: u64,
    seeds: u64,
    marks: Vec<(Stage, Instant)>,
}

impl TraceContext {
    pub(crate) fn new(id: u64, client: u64, seeds: u64) -> Self {
        TraceContext {
            id,
            client,
            seeds,
            marks: Vec::with_capacity(8),
        }
    }

    /// This trace's id (the Chrome-trace `tid` its spans render under).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The submitting client.
    pub fn client(&self) -> u64 {
        self.client
    }

    /// Number of seeds the query carries.
    pub fn seeds(&self) -> u64 {
        self.seeds
    }

    /// Stamps `stage` as completed now.
    pub fn mark(&mut self, stage: Stage) {
        self.mark_at(stage, Instant::now());
    }

    /// Stamps `stage` as completed at `at` (reuses an instant the caller
    /// already read — e.g. the admission entry's enqueue time — so the
    /// trace and the stage histograms agree about the same event).
    pub fn mark_at(&mut self, stage: Stage, at: Instant) {
        self.marks.push((stage, at));
    }

    /// The accumulated marks in stamp order.
    pub fn marks(&self) -> &[(Stage, Instant)] {
        &self.marks
    }
}

/// One finished span, Chrome-trace shaped: a named complete event with a
/// microsecond start (relative to the telemetry epoch) and duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (a stage interval label, or a batch-level step like
    /// `plan` / `shard_forward`).
    pub name: &'static str,
    /// Event category: `"query"` for per-query stage spans, `"batch"`
    /// for batch-level engine/router spans.
    pub cat: &'static str,
    /// Track id: the trace id for query spans, the batch id for batch
    /// spans.
    pub tid: u64,
    /// Start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// One span-specific argument (seed count for query spans, shard
    /// index for `shard_forward` spans, 0 otherwise).
    pub arg: u64,
}

/// Bounded ring of finished spans: `capacity` slots, oldest overwritten.
///
/// Pushes are concurrent-safe and nearly disjoint: the head index is an
/// atomic fetch-add, and each slot has its own mutex, so two pushes only
/// contend when they land on the same slot (ring wrap under heavy
/// sampling). Memory is bounded at `capacity` records regardless of how
/// long the server runs.
#[derive(Debug)]
pub struct TraceRing {
    head: AtomicUsize,
    slots: Vec<Mutex<Option<SpanRecord>>>,
}

impl TraceRing {
    /// A ring with `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            head: AtomicUsize::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed (not clamped to capacity).
    pub fn pushed(&self) -> usize {
        self.head.load(Ordering::Relaxed)
    }

    /// Appends one span, overwriting the oldest when full.
    pub fn push(&self, record: SpanRecord) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[slot].lock().expect("ring slot poisoned") = Some(record);
    }

    /// Copies the resident window, sorted by start time.
    pub fn collect(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("ring slot poisoned").clone())
            .collect();
        out.sort_by_key(|r| (r.start_us, r.tid));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(tid: u64, start_us: u64) -> SpanRecord {
        SpanRecord {
            name: "queue_wait",
            cat: "query",
            tid,
            start_us,
            dur_us: 5,
            arg: 0,
        }
    }

    #[test]
    fn ring_bounds_memory_and_keeps_newest() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(span(i, i));
        }
        assert_eq!(ring.pushed(), 10);
        let window = ring.collect();
        assert_eq!(window.len(), 4);
        // The resident window is the newest 4 pushes.
        let tids: Vec<u64> = window.iter().map(|r| r.tid).collect();
        assert_eq!(tids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn collect_sorts_by_start() {
        let ring = TraceRing::new(8);
        ring.push(span(1, 30));
        ring.push(span(2, 10));
        ring.push(span(3, 20));
        let starts: Vec<u64> = ring.collect().iter().map(|r| r.start_us).collect();
        assert_eq!(starts, vec![10, 20, 30]);
    }

    #[test]
    fn trace_context_accumulates_marks_in_order() {
        let mut ctx = TraceContext::new(7, 3, 2);
        let t0 = Instant::now();
        ctx.mark_at(Stage::Enqueue, t0);
        ctx.mark_at(Stage::Dequeue, t0 + Duration::from_micros(10));
        ctx.mark(Stage::Reply);
        assert_eq!(ctx.id(), 7);
        assert_eq!(ctx.client(), 3);
        assert_eq!(ctx.seeds(), 2);
        let stages: Vec<Stage> = ctx.marks().iter().map(|&(s, _)| s).collect();
        assert_eq!(stages, vec![Stage::Enqueue, Stage::Dequeue, Stage::Reply]);
    }

    #[test]
    fn concurrent_pushes_never_lose_the_ring() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..100 {
                        ring.push(span(t, i));
                    }
                });
            }
        });
        assert_eq!(ring.pushed(), 400);
        assert_eq!(ring.collect().len(), 64);
    }
}
