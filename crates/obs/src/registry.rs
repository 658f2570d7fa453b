//! The process-wide metric registry.
//!
//! A [`Registry`] maps `(name, labels)` to one instrument and hands out
//! cheap clone-able handles; the same key always resolves to the same
//! underlying atomic, so a counter incremented by sixteen worker threads
//! reads as one total. Resolution takes a lock — callers on hot paths
//! resolve once and hold the handle.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Canonical metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A metric registry. Most code uses the process-wide [`global`] instance;
/// separate registries exist for tests (see [`crate::with_registry`]).
/// Clones share the same metrics.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    slots: Arc<Mutex<BTreeMap<MetricKey, Slot>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves (creating on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics when the key is already registered as another kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut slots = self.slots.lock().expect("metric registry lock");
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Counter(Counter::new()))
        {
            Slot::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Resolves (creating on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics when the key is already registered as another kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut slots = self.slots.lock().expect("metric registry lock");
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Gauge(Gauge::new()))
        {
            Slot::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Resolves (creating on first use) the histogram `name{labels}` with
    /// the given bucket bounds. Bounds are fixed by the first resolution;
    /// later calls reuse the existing buckets.
    ///
    /// # Panics
    ///
    /// Panics when the key is already registered as another kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut slots = self.slots.lock().expect("metric registry lock");
        match slots
            .entry(key)
            .or_insert_with(|| Slot::Histogram(Histogram::new(bounds)))
        {
            Slot::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// A point-in-time copy of every metric, ordered by name then labels.
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().expect("metric registry lock");
        let mut snap = Snapshot::default();
        for (key, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => snap.counters.push(CounterSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value: c.get(),
                }),
                Slot::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value: g.get(),
                }),
                Slot::Histogram(h) => snap.histograms.push(HistogramSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    count: h.observations(),
                    sum: h.sum(),
                    mean: h.mean(),
                    p50: h.quantile(0.5),
                    p99: h.quantile(0.99),
                    buckets: h.buckets(),
                }),
            }
        }
        snap
    }

    /// Zeroes every registered metric (handles stay valid). For tests and
    /// benchmark setup; production code never resets.
    pub fn reset(&self) {
        let slots = self.slots.lock().expect("metric registry lock");
        for slot in slots.values() {
            match slot {
                Slot::Counter(c) => c.reset(),
                Slot::Gauge(g) => g.reset(),
                Slot::Histogram(h) => h.reset(),
            }
        }
    }
}

/// The process-wide registry all production instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_resolves_to_same_instrument() {
        let r = Registry::new();
        let a = r.counter("ticks", &[("platform", "purley")]);
        let b = r.counter("ticks", &[("platform", "purley")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        // Label order does not matter.
        let x = r.gauge("g", &[("a", "1"), ("b", "2")]);
        let y = r.gauge("g", &[("b", "2"), ("a", "1")]);
        x.set(7.0);
        assert_eq!(y.get(), 7.0);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let r = Registry::new();
        let a = r.counter("decodes", &[("scheme", "purley")]);
        let b = r.counter("decodes", &[("scheme", "whitley")]);
        a.add(1);
        b.add(10);
        let snap = r.snapshot();
        assert_eq!(snap.counter("decodes"), 11);
        assert_eq!(
            snap.counter_labeled("decodes", &[("scheme", "purley")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_labeled("decodes", &[("scheme", "whitley")]),
            Some(10)
        );
        assert_eq!(snap.counter_labeled("decodes", &[("scheme", "k920")]), None);
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn kind_clash_panics() {
        let r = Registry::new();
        let _ = r.counter("clash", &[]);
        let _ = r.gauge("clash", &[]);
    }

    #[test]
    fn snapshot_is_ordered_and_reset_zeroes() {
        let r = Registry::new();
        r.counter("b_metric", &[]).add(1);
        r.counter("a_metric", &[]).add(1);
        r.histogram("h", &[], &[1.0]).record(0.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "a_metric");
        assert_eq!(snap.counters[1].name, "b_metric");
        assert_eq!(snap.histograms[0].count, 1);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("a_metric"), 0);
        assert_eq!(snap.histograms[0].count, 0);
        assert_eq!(snap.histograms[0].sum, 0.0);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("registry_test_singleton", &[]);
        c.add(4);
        assert_eq!(global().counter("registry_test_singleton", &[]).get(), 4);
        global().reset();
    }
}
