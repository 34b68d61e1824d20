//! In-memory spans around the runner's calls into each layer, written
//! out as Chrome-trace JSON when the run ends.
//!
//! The spans live in the benchmark, not in the product: a span is opened
//! just before a call into a layer's public function and closed just
//! after it returns.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`"forward"`, `"query"`, ...).
    pub name: &'static str,
    /// The layer (workspace crate) the call went into.
    pub layer: &'static str,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin.
    pub end_ns: u64,
    /// Index of this span in the recorder.
    pub id: u32,
    /// The span that was open when this one began, if any.
    pub parent: Option<u32>,
    /// Trace row: 0 for the runner thread's nested spans, above 0 for
    /// requests in flight (which overlap one another).
    pub lane: u32,
}

/// Per `(layer, name)` totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans seen.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// Handle returned by [`Recorder::begin`]; pass it to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Collects spans. A disabled recorder reads no clock and stores nothing,
/// so the untraced runs share the traced runs' code.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    enabled: bool,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a nested span on the runner thread.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            id,
            parent: self.stack.last().copied(),
            lane: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` (and, defensively, any left open inside it).
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records a finished interval that overlaps others (a request in
    /// flight), on trace row `lane >= 1`.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        lane: u32,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            id,
            parent: None,
            lane: lane.max(1),
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals per `(layer, name)`.
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<_, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry((s.layer, s.name)).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Renders spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, i64::from);
        // Names and layers are identifiers from this crate: nothing to escape.
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.lane,
            s.id,
            parent
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent.is_some() { "child" } else { "root" },
            layer: "nn",
            start_ns,
            end_ns,
            id,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_counted_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),  // overlaps span 1 by 10
            span(3, Some(2), 35, 45),  // grandchild: not subtracted from root
            span(4, Some(0), 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), [40, 30, 20, 10, 30]);
        let t = totals(&spans);
        assert_eq!(
            t[&("nn", "root")],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(t[&("nn", "child")].count, 4);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_stores_nothing() {
        let mut r = Recorder::new(true);
        let a = r.begin("epoch", "nn");
        let b = r.begin("forward", "nn");
        r.end(b);
        r.end(a);
        r.record("query", "serve", Instant::now(), Instant::now(), 3);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[2].lane, 3);

        let mut off = Recorder::new(false);
        let a = off.begin("epoch", "nn");
        off.end(a);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let spans = [span(0, None, 1_000, 3_500), span(1, Some(0), 2_000, 3_000)];
        let json = chrome_trace(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0}"));
        assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}\n"));
    }
}
