//! Monitoring and feedback (paper §VII): dashboards over every phase of
//! the MLOps workflow, live precision/recall from cloud-service feedback,
//! and the retraining trigger.

use crate::drift::DriftReport;
use mfp_dram::address::DimmId;
use mfp_dram::time::SimTime;
use mfp_obs::series_name;
use std::collections::BTreeMap;
use std::sync::RwLock;

/// Lock-poisoning panic message: a writer panicked mid-update.
const POISONED: &str = "monitor lock poisoned by a panicked writer";

/// A monotonically increasing counter or a last-value gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Cumulative count.
    Counter(u64),
    /// Last observed value.
    Gauge(f64),
}

/// The metrics dashboard: named counters and gauges, as rendered in both
/// the testing and production environments.
#[derive(Debug, Default)]
pub struct Dashboard {
    metrics: RwLock<BTreeMap<String, MetricValue>>,
}

impl Dashboard {
    /// Creates an empty dashboard.
    pub fn new() -> Self {
        Dashboard::default()
    }

    /// Increments a counter (creating it at zero).
    pub fn incr(&self, name: &str, by: u64) {
        let mut m = self.metrics.write().expect(POISONED);
        let e = m.entry(name.to_string()).or_insert(MetricValue::Counter(0));
        if let MetricValue::Counter(c) = e {
            *c += by;
        }
    }

    /// Sets a gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        self.metrics
            .write()
            .expect(POISONED)
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Reads one metric.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.metrics.read().expect(POISONED).get(name).copied()
    }

    /// Snapshot of all metrics.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        self.metrics.read().expect(POISONED).clone()
    }

    /// Imports a process-telemetry snapshot ([`mfp_obs::Snapshot`]) into the
    /// dashboard, so the §VII rendering covers every instrumented layer
    /// (simulator, feature assembly, training, online serving).
    ///
    /// Counters are imported as counters (replacing any previous import of
    /// the same series — `mfp-obs` counters are already cumulative), gauges
    /// as gauges, and each histogram contributes `<name>_count` plus
    /// `<name>_p99` entries.
    pub fn import_telemetry(&self, snap: &mfp_obs::Snapshot) {
        let mut m = self.metrics.write().expect(POISONED);
        for c in &snap.counters {
            m.insert(
                series_name(&c.name, &c.labels),
                MetricValue::Counter(c.value),
            );
        }
        for g in &snap.gauges {
            m.insert(series_name(&g.name, &g.labels), MetricValue::Gauge(g.value));
        }
        for h in &snap.histograms {
            let base = series_name(&h.name, &h.labels);
            m.insert(format!("{base}_count"), MetricValue::Counter(h.count));
            m.insert(format!("{base}_p99"), MetricValue::Gauge(h.p99));
        }
    }

    /// Renders a plain-text dashboard.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.metrics.read().expect(POISONED).iter() {
            match value {
                MetricValue::Counter(c) => out.push_str(&format!("{name:<40} {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{name:<40} {g:.4}\n")),
            }
        }
        out
    }
}

/// Feedback collector: matches alarms against later UE outcomes to track
/// live precision / recall, the signal the paper feeds back "to enhance
/// algorithm accuracy and ensure fairness".
#[derive(Debug, Default)]
pub struct FeedbackLoop {
    alarmed: RwLock<BTreeMap<DimmId, SimTime>>,
    failed: RwLock<BTreeMap<DimmId, SimTime>>,
}

impl FeedbackLoop {
    /// Creates an empty loop.
    pub fn new() -> Self {
        FeedbackLoop::default()
    }

    /// Records an alarm (first one per DIMM wins).
    pub fn record_alarm(&self, dimm: DimmId, at: SimTime) {
        self.alarmed
            .write()
            .expect(POISONED)
            .entry(dimm)
            .or_insert(at);
    }

    /// Records an observed UE.
    pub fn record_ue(&self, dimm: DimmId, at: SimTime) {
        self.failed
            .write()
            .expect(POISONED)
            .entry(dimm)
            .or_insert(at);
    }

    /// Live (precision, recall) so far: an alarm is correct when the DIMM
    /// failed after it.
    pub fn live_precision_recall(&self) -> (f64, f64) {
        let alarmed = self.alarmed.read().expect(POISONED);
        let failed = self.failed.read().expect(POISONED);
        let tp = alarmed
            .iter()
            .filter(|(d, &t)| failed.get(d).is_some_and(|&ue| ue > t))
            .count() as f64;
        let precision = if alarmed.is_empty() {
            0.0
        } else {
            tp / alarmed.len() as f64
        };
        let recall = if failed.is_empty() {
            0.0
        } else {
            tp / failed.len() as f64
        };
        (precision, recall)
    }
}

/// Retraining policy: fires when drift is severe or live precision sinks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainPolicy {
    /// PSI above which retraining triggers.
    pub psi_threshold: f64,
    /// Live precision below which retraining triggers (given enough
    /// feedback volume).
    pub min_precision: f64,
    /// Minimum alarms before precision feedback is trusted.
    pub min_alarms: usize,
}

impl Default for RetrainPolicy {
    fn default() -> Self {
        RetrainPolicy {
            psi_threshold: 0.2,
            min_precision: 0.2,
            min_alarms: 20,
        }
    }
}

impl RetrainPolicy {
    /// Decides whether to retrain; returns the triggering reason.
    pub fn should_retrain(&self, drift: &DriftReport, feedback: &FeedbackLoop) -> Option<String> {
        if drift.drifted(self.psi_threshold) {
            return Some(format!(
                "feature drift: max PSI {:.3} > {:.3}",
                drift.max_psi(),
                self.psi_threshold
            ));
        }
        let n_alarms = feedback.alarmed.read().expect(POISONED).len();
        if n_alarms >= self.min_alarms {
            let (precision, _) = feedback.live_precision_recall();
            if precision < self.min_precision {
                return Some(format!(
                    "live precision {precision:.3} < {:.3} over {n_alarms} alarms",
                    self.min_precision
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FeatureDrift;

    #[test]
    fn counters_and_gauges() {
        let d = Dashboard::new();
        d.incr("events_ingested", 10);
        d.incr("events_ingested", 5);
        d.gauge("model_f1", 0.61);
        assert_eq!(d.get("events_ingested"), Some(MetricValue::Counter(15)));
        assert_eq!(d.get("model_f1"), Some(MetricValue::Gauge(0.61)));
        let text = d.render();
        assert!(text.contains("events_ingested"));
        assert!(text.contains("0.6100"));
    }

    #[test]
    fn telemetry_snapshot_imports_into_dashboard() {
        // Feed telemetry through real mfp-obs handles in a private
        // registry, then import its snapshot.
        let reg = mfp_obs::Registry::new();
        mfp_obs::with_registry(&reg, || {
            mfp_obs::counter("monitor_import_test_total", &[("k", "v")]).add(7);
            mfp_obs::gauge("monitor_import_test_level", &[]).set(0.25);
            mfp_obs::latency("monitor_import_test_seconds", &[]).record(0.001);
        });
        let d = Dashboard::new();
        d.import_telemetry(&reg.snapshot());
        assert_eq!(
            d.get("monitor_import_test_total{k=v}"),
            Some(MetricValue::Counter(7))
        );
        assert_eq!(
            d.get("monitor_import_test_level"),
            Some(MetricValue::Gauge(0.25))
        );
        assert_eq!(
            d.get("monitor_import_test_seconds_count"),
            Some(MetricValue::Counter(1))
        );
        assert!(matches!(
            d.get("monitor_import_test_seconds_p99"),
            Some(MetricValue::Gauge(_))
        ));
        let text = d.render();
        assert!(text.contains("monitor_import_test_total{k=v}"));
    }

    #[test]
    fn failover_telemetry_surfaces_in_the_dashboard_snapshot() {
        // The self-healing serving path (crate::supervise + per-shard
        // WALs) reports through these exact series; pin the names so the
        // dashboard always carries restart/quarantine/replay state.
        let reg = mfp_obs::Registry::new();
        let thread = [("host", "thread")];
        mfp_obs::with_registry(&reg, || {
            mfp_obs::counter("supervise_restarts", &thread).add(2);
            mfp_obs::counter("serve_shard_quarantined", &[]).incr();
            mfp_obs::counter("supervise_panics_caught", &thread).add(3);
            mfp_obs::counter("supervise_hangs_detected", &thread).incr();
            mfp_obs::counter("supervise_kills_injected", &thread).incr();
            mfp_obs::counter("wal_replay_records", &[("shard", "0")]).add(5);
            mfp_obs::gauge("supervise_live_shards", &thread).set(4.0);
        });
        let d = Dashboard::new();
        d.import_telemetry(&reg.snapshot());
        for (series, want) in [
            ("supervise_restarts{host=thread}", 2),
            ("serve_shard_quarantined", 1),
            ("supervise_panics_caught{host=thread}", 3),
            ("supervise_hangs_detected{host=thread}", 1),
            ("supervise_kills_injected{host=thread}", 1),
            ("wal_replay_records{shard=0}", 5),
        ] {
            assert_eq!(d.get(series), Some(MetricValue::Counter(want)), "{series}");
        }
        assert_eq!(
            d.get("supervise_live_shards{host=thread}"),
            Some(MetricValue::Gauge(4.0))
        );
        let snapshot = d.snapshot();
        assert!(snapshot.contains_key("supervise_restarts{host=thread}"));
    }

    #[test]
    fn feedback_precision_recall() {
        let f = FeedbackLoop::new();
        f.record_alarm(DimmId::new(1, 0), SimTime::from_secs(10));
        f.record_alarm(DimmId::new(2, 0), SimTime::from_secs(10));
        f.record_ue(DimmId::new(1, 0), SimTime::from_secs(100)); // tp
        f.record_ue(DimmId::new(3, 0), SimTime::from_secs(100)); // fn
        let (p, r) = f.live_precision_recall();
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alarm_after_failure_is_not_correct() {
        let f = FeedbackLoop::new();
        f.record_ue(DimmId::new(1, 0), SimTime::from_secs(50));
        f.record_alarm(DimmId::new(1, 0), SimTime::from_secs(100));
        let (p, r) = f.live_precision_recall();
        assert_eq!((p, r), (0.0, 0.0));
    }

    #[test]
    fn retrain_on_drift() {
        let policy = RetrainPolicy::default();
        let drift = DriftReport {
            features: vec![FeatureDrift {
                name: "ce_5d".into(),
                psi: 0.5,
            }],
        };
        let reason = policy.should_retrain(&drift, &FeedbackLoop::new());
        assert!(reason.unwrap().contains("drift"));
    }

    #[test]
    fn retrain_on_bad_precision_needs_volume() {
        let policy = RetrainPolicy {
            min_alarms: 3,
            ..Default::default()
        };
        let no_drift = DriftReport { features: vec![] };
        let f = FeedbackLoop::new();
        f.record_alarm(DimmId::new(1, 0), SimTime::from_secs(10));
        // Too few alarms: no trigger.
        assert!(policy.should_retrain(&no_drift, &f).is_none());
        f.record_alarm(DimmId::new(2, 0), SimTime::from_secs(10));
        f.record_alarm(DimmId::new(3, 0), SimTime::from_secs(10));
        // 3 alarms, zero correct: precision 0 triggers.
        let reason = policy.should_retrain(&no_drift, &f);
        assert!(reason.unwrap().contains("precision"));
    }
}
