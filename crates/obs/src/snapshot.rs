//! Point-in-time metric snapshots with hand-rolled JSON export (no serde)
//! and a plain-text rendering in the style of the `mfp-bench` reports.

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Counter value.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Gauge value.
    pub value: f64,
}

/// One histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Mean observation.
    pub mean: f64,
    /// Median upper-bound estimate.
    pub p50: f64,
    /// 99th-percentile upper-bound estimate.
    pub p99: f64,
    /// `(upper_bound, count)` per bucket; the last bound is `+inf`.
    pub buckets: Vec<(f64, u64)>,
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All counters, ordered by name then labels.
    pub counters: Vec<CounterSample>,
    /// All gauges, ordered by name then labels.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, ordered by name then labels.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Sum of a counter across all its label sets (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// One labeled counter series, when present.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == want)
            .map(|c| c.value)
    }

    /// One gauge value (first matching series), when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// One histogram sample (first matching series), when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the snapshot as a single JSON object:
    /// `{"counters": [...], "gauges": [...], "histograms": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, &c.name);
            out.push_str(",\"labels\":");
            json_labels(&mut out, &c.labels);
            out.push_str(",\"value\":");
            out.push_str(&c.value.to_string());
            out.push('}');
        }
        out.push_str("],\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, &g.name);
            out.push_str(",\"labels\":");
            json_labels(&mut out, &g.labels);
            out.push_str(",\"value\":");
            json_number(&mut out, g.value);
            out.push('}');
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, &h.name);
            out.push_str(",\"labels\":");
            json_labels(&mut out, &h.labels);
            out.push_str(",\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            json_number(&mut out, h.sum);
            out.push_str(",\"mean\":");
            json_number(&mut out, h.mean);
            out.push_str(",\"p50\":");
            json_number(&mut out, h.p50);
            out.push_str(",\"p99\":");
            json_number(&mut out, h.p99);
            out.push_str(",\"buckets\":[");
            for (j, &(bound, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"le\":");
                json_number(&mut out, bound);
                out.push_str(",\"count\":");
                out.push_str(&count.to_string());
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Plain-text rendering, one metric per line (dashboard style).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!(
                "{:<56} {}\n",
                series_name(&c.name, &c.labels),
                c.value
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                "{:<56} {:.4}\n",
                series_name(&g.name, &g.labels),
                g.value
            ));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "{:<56} n={} mean={:.3e} p50<={:.3e} p99<={:.3e}\n",
                series_name(&h.name, &h.labels),
                h.count,
                h.mean,
                h.p50,
                h.p99,
            ));
        }
        out
    }
}

/// `name{k=v,...}` series identifier used by text renderings.
/// Canonical display name for a labeled series: `name{k=v,...}`, or just
/// `name` when there are no labels.
pub fn series_name(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

fn json_labels(out: &mut String, labels: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, k);
        out.push(':');
        json_string(out, v);
    }
    out.push('}');
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON has no Infinity/NaN; non-finite values serialize as null.
fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![CounterSample {
                name: "alarms".into(),
                labels: vec![("platform".into(), "purley".into())],
                value: 7,
            }],
            gauges: vec![GaugeSample {
                name: "max_psi".into(),
                labels: vec![],
                value: 0.125,
            }],
            histograms: vec![HistogramSample {
                name: "tick_seconds".into(),
                labels: vec![],
                count: 2,
                sum: 0.5,
                mean: 0.25,
                p50: 0.25,
                p99: f64::INFINITY,
                buckets: vec![(0.25, 1), (f64::INFINITY, 1)],
            }],
        }
    }

    #[test]
    fn json_round_trips_structure() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"counters\":["));
        assert!(j.contains("\"name\":\"alarms\""));
        assert!(j.contains("\"labels\":{\"platform\":\"purley\"}"));
        assert!(j.contains("\"value\":7"));
        assert!(j.contains("\"max_psi\""));
        assert!(j.contains("\"value\":0.125"));
        // Infinite bounds become null, keeping the JSON parseable.
        assert!(j.contains("{\"le\":null,\"count\":1}"));
        assert!(j.ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = j.matches('{').count() + j.matches('[').count();
        let closes = j.matches('}').count() + j.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn accessors_find_series() {
        let snap = sample();
        assert_eq!(snap.counter("alarms"), 7);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(
            snap.counter_labeled("alarms", &[("platform", "purley")]),
            Some(7)
        );
        assert_eq!(snap.gauge("max_psi"), Some(0.125));
        assert_eq!(snap.histogram("tick_seconds").unwrap().count, 2);
        assert!(!snap.is_empty());
        assert!(Snapshot::default().is_empty());
    }

    #[test]
    fn render_lists_every_series() {
        let text = sample().render();
        assert!(text.contains("alarms{platform=purley}"));
        assert!(text.contains("max_psi"));
        assert!(text.contains("n=2"));
    }
}
