//! The metrics registry: named counter/gauge/histogram families with
//! label sets, behind cheap cloneable handles.
//!
//! The registry is the rendezvous between producers (server, engines,
//! router) and exporters (Prometheus text, JSON dump): producers hold
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles obtained once by
//! `(name, labels)` key, exporters take a [`RegistrySnapshot`] and render
//! every family. Handles are `Arc`-backed, so recording never touches the
//! registry's own maps — the per-call cost is one atomic add (counters,
//! gauges) or one short mutex-guarded histogram record.

use crate::metrics::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A metric's identity: family name plus its sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

fn key(name: &'static str, labels: &[(&'static str, &str)]) -> Key {
    let mut labels: Vec<(&'static str, String)> =
        labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
    labels.sort_unstable();
    Key { name, labels }
}

/// A monotonically increasing counter handle (one atomic add per
/// record; cloning shares the underlying cell).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle (one atomic store per record; cloning
/// shares the underlying cell).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency-histogram handle over [`LatencyHistogram`] (one short
/// mutex-guarded record per observation; cloning shares the histogram).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// Records one observation in microseconds.
    pub fn record(&self, us: u64) {
        self.0.lock().expect("histogram poisoned").record(us);
    }

    /// Records a batch of observations under one lock acquisition (the
    /// server's per-batch stage recording path).
    pub fn record_all(&self, us: impl IntoIterator<Item = u64>) {
        let mut h = self.0.lock().expect("histogram poisoned");
        for v in us {
            h.record(v);
        }
    }

    /// A copy of the current distribution.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().expect("histogram poisoned").clone()
    }
}

/// One exported sample: family name, label pairs (sorted by label name)
/// and the value at snapshot time.
#[derive(Debug, Clone)]
pub struct MetricSample<T> {
    /// Metric family name (e.g. `maxk_serve_kernel_time_us_total`).
    pub name: &'static str,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(&'static str, String)>,
    /// The sampled value.
    pub value: T,
}

/// Point-in-time copy of every registered metric, sorted by
/// `(name, labels)` so exports are deterministic.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter samples.
    pub counters: Vec<MetricSample<u64>>,
    /// Gauge samples (`f64`: registry gauges hold integers, but the
    /// stats-derived ones — uptime, class weights — are fractional).
    pub gauges: Vec<MetricSample<f64>>,
    /// Histogram samples (full bucket state, not just summaries).
    pub histograms: Vec<MetricSample<LatencyHistogram>>,
    /// Help text per family name.
    pub help: BTreeMap<&'static str, &'static str>,
}

impl RegistrySnapshot {
    /// Notes `name`'s help and shapes one sample like the registry's own
    /// (labels sorted).
    fn sample<T>(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: T,
        help: &'static str,
    ) -> MetricSample<T> {
        self.help.entry(name).or_insert(help);
        let Key { name, labels } = key(name, labels);
        MetricSample {
            name,
            labels,
            value,
        }
    }

    /// Appends a counter sample for a series that lives outside the
    /// registry (the server's [`crate::StatsSnapshot`] books).
    pub fn counter(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: u64,
        help: &'static str,
    ) {
        let sample = self.sample(name, labels, value, help);
        self.counters.push(sample);
    }

    /// Appends a gauge sample (see [`RegistrySnapshot::counter`]).
    pub fn gauge(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: f64,
        help: &'static str,
    ) {
        let sample = self.sample(name, labels, value, help);
        self.gauges.push(sample);
    }

    /// Appends a histogram sample (see [`RegistrySnapshot::counter`]).
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        value: LatencyHistogram,
        help: &'static str,
    ) {
        let sample = self.sample(name, labels, value, help);
        self.histograms.push(sample);
    }

    /// Appends every sample of `other` after this snapshot's own (help
    /// text already present wins).
    pub fn merge(&mut self, other: RegistrySnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        for (name, help) in other.help {
            self.help.entry(name).or_insert(help);
        }
    }
}

/// The registry itself: get-or-create maps from `(name, labels)` to the
/// shared cells behind the handles.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Mutex<LatencyHistogram>>>>,
    help: Mutex<BTreeMap<&'static str, &'static str>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn note_help(&self, name: &'static str, help: &'static str) {
        self.help
            .lock()
            .expect("help poisoned")
            .entry(name)
            .or_insert(help);
    }

    /// The counter for `(name, labels)`, created on first use.
    pub fn counter(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
    ) -> Counter {
        self.note_help(name, help);
        let cell = Arc::clone(
            self.counters
                .lock()
                .expect("counters poisoned")
                .entry(key(name, labels))
                .or_default(),
        );
        Counter(cell)
    }

    /// The gauge for `(name, labels)`, created on first use.
    pub fn gauge(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
    ) -> Gauge {
        self.note_help(name, help);
        let cell = Arc::clone(
            self.gauges
                .lock()
                .expect("gauges poisoned")
                .entry(key(name, labels))
                .or_default(),
        );
        Gauge(cell)
    }

    /// The histogram for `(name, labels)`, created on first use.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
    ) -> Histogram {
        self.note_help(name, help);
        let cell = Arc::clone(
            self.histograms
                .lock()
                .expect("histograms poisoned")
                .entry(key(name, labels))
                .or_insert_with(|| Arc::new(Mutex::new(LatencyHistogram::new()))),
        );
        Histogram(cell)
    }

    /// Copies every registered metric (sorted by name then labels).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counters poisoned")
            .iter()
            .map(|(k, v)| MetricSample {
                name: k.name,
                labels: k.labels.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauges poisoned")
            .iter()
            .map(|(k, v)| MetricSample {
                name: k.name,
                labels: k.labels.clone(),
                value: v.load(Ordering::Relaxed) as f64,
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histograms poisoned")
            .iter()
            .map(|(k, v)| MetricSample {
                name: k.name,
                labels: k.labels.clone(),
                value: v.lock().expect("histogram poisoned").clone(),
            })
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
            help: self.help.lock().expect("help poisoned").clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_key() {
        let reg = Registry::new();
        let a = reg.counter("c_total", &[("shard", "0")], "help");
        let b = reg.counter("c_total", &[("shard", "0")], "help");
        let other = reg.counter("c_total", &[("shard", "1")], "help");
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(other.get(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].value, 3);
        assert_eq!(snap.counters[1].value, 1);
        assert_eq!(snap.help.get("c_total"), Some(&"help"));
    }

    #[test]
    fn gauge_holds_last_value() {
        let reg = Registry::new();
        let g = reg.gauge("depth", &[], "queue depth");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", &[("stage", "queue_wait")], "stage wait");
        h.record(10);
        h.record_all([20, 30]);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum_us(), 60);
        let reg_snap = reg.snapshot();
        assert_eq!(reg_snap.histograms.len(), 1);
        assert_eq!(reg_snap.histograms[0].value.count(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = Registry::new();
        reg.counter("b_total", &[], "b").inc();
        reg.counter("a_total", &[("x", "2")], "a").inc();
        reg.counter("a_total", &[("x", "1")], "a").inc();
        let names: Vec<(&str, Vec<(&str, String)>)> = reg
            .snapshot()
            .counters
            .into_iter()
            .map(|s| (s.name, s.labels))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a_total", vec![("x", "1".to_string())]),
                ("a_total", vec![("x", "2".to_string())]),
                ("b_total", vec![]),
            ]
        );
    }
}
