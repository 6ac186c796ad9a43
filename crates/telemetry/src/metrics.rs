//! The metrics registry: labeled counters, gauges and log-bucketed
//! histograms.
//!
//! Instruments are handed out as cheap `Arc`-backed handles: a counter
//! increment is one relaxed atomic add, so hot paths fetch their handle
//! once and update it without touching the registry again. The registry
//! exports everything as Prometheus text exposition format or as a JSON
//! document.

use crate::json::escape_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    let mut l: Labels = pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    l
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
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

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values whose bit length is `i`, i.e. the range `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` samples.
///
/// Buckets double in width, so relative error on quantiles is at most 2×
/// while `record` stays O(1) with no allocation.
#[derive(Clone, Debug)]
pub struct Histogram {
    data: Arc<Mutex<HistData>>,
}

#[derive(Debug)]
struct HistData {
    counts: [u64; HISTOGRAM_BUCKETS],
    sum: u128,
    count: u64,
}

/// Index of the bucket that holds `value`.
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            data: Arc::new(Mutex::new(HistData {
                counts: [0; HISTOGRAM_BUCKETS],
                sum: 0,
                count: 0,
            })),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let mut d = self.data.lock().unwrap();
        d.counts[bucket_index(value)] += 1;
        d.sum += value as u128;
        d.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.data.lock().unwrap().count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.data.lock().unwrap().sum
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let d = self.data.lock().unwrap();
        if d.count == 0 {
            return 0;
        }
        let rank = ((q * d.count as f64).ceil() as u64).clamp(1, d.count);
        let mut seen = 0u64;
        for (i, &c) in d.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Copies out the raw bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        self.data.lock().unwrap().counts
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

/// Escapes a label value per the Prometheus text exposition format:
/// only `\`, `"` and newline are escaped (`\\`, `\"`, `\n`); everything
/// else — including other control characters and non-ASCII — passes
/// through verbatim. This deliberately differs from JSON string
/// escaping, which Prometheus parsers would reject (e.g. `\0`).
fn prom_label_value_into(out: &mut String, v: &str) {
    out.push('"');
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes a `# HELP` text per the exposition format: `\` and newline
/// only (quotes are legal verbatim in help text).
fn prom_help_into(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

impl MetricKey {
    fn render(&self, out: &mut String) {
        out.push_str(&self.name);
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}=");
                prom_label_value_into(out, v);
            }
            out.push('}');
        }
    }
}

/// The registry. Cloning shares the underlying instrument tables.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    gauges: Mutex<BTreeMap<MetricKey, Gauge>>,
    histograms: Mutex<BTreeMap<MetricKey, Histogram>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Registers a `# HELP` description for metric `name`; the first
    /// description registered for a name wins. Described metrics get a
    /// HELP line before their TYPE line in [`Metrics::to_prometheus`].
    pub fn describe(&self, name: &str, help: &str) {
        self.inner.help.lock().unwrap().entry(name.to_string()).or_insert_with(|| help.to_string());
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey { name: name.to_string(), labels: labels_of(labels) };
        self.inner.counters.lock().unwrap().entry(key).or_default().clone()
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey { name: name.to_string(), labels: labels_of(labels) };
        self.inner.gauges.lock().unwrap().entry(key).or_default().clone()
    }

    /// Returns (registering on first use) the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey { name: name.to_string(), labels: labels_of(labels) };
        self.inner.histograms.lock().unwrap().entry(key).or_default().clone()
    }

    /// All counters named `name`, as `(labels, value)` pairs sorted by
    /// label set.
    pub fn counters_with_name(&self, name: &str) -> Vec<(Labels, u64)> {
        self.inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, c)| (k.labels.clone(), c.get()))
            .collect()
    }

    /// Renders the registry in Prometheus text exposition format.
    ///
    /// Output is sorted by metric name then label set, so it is stable
    /// across runs.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let help = self.inner.help.lock().unwrap().clone();
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                if let Some(text) = help.get(name) {
                    let _ = write!(out, "# HELP {name} ");
                    prom_help_into(out, text);
                    out.push('\n');
                }
                out.push_str(&line);
                last_type_line = line;
            }
        };

        for (key, c) in self.inner.counters.lock().unwrap().iter() {
            type_line(&mut out, &key.name, "counter");
            key.render(&mut out);
            let _ = writeln!(out, " {}", c.get());
        }
        for (key, g) in self.inner.gauges.lock().unwrap().iter() {
            type_line(&mut out, &key.name, "gauge");
            key.render(&mut out);
            let _ = writeln!(out, " {}", g.get());
        }
        for (key, h) in self.inner.histograms.lock().unwrap().iter() {
            type_line(&mut out, &key.name, "histogram");
            let buckets = h.buckets();
            let mut cumulative = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let mut labels = key.labels.clone();
                labels.push(("le".to_string(), bucket_upper_bound(i).to_string()));
                labels.sort();
                let bucket_key = MetricKey { name: format!("{}_bucket", key.name), labels };
                bucket_key.render(&mut out);
                let _ = writeln!(out, " {cumulative}");
            }
            let mut inf_labels = key.labels.clone();
            inf_labels.push(("le".to_string(), "+Inf".to_string()));
            inf_labels.sort();
            MetricKey { name: format!("{}_bucket", key.name), labels: inf_labels }.render(&mut out);
            let _ = writeln!(out, " {}", h.count());
            MetricKey { name: format!("{}_sum", key.name), labels: key.labels.clone() }
                .render(&mut out);
            let _ = writeln!(out, " {}", h.sum());
            MetricKey { name: format!("{}_count", key.name), labels: key.labels.clone() }
                .render(&mut out);
            let _ = writeln!(out, " {}", h.count());
        }
        out
    }

    /// Renders the registry as a JSON document with `counters`, `gauges`
    /// and `histograms` arrays, sorted by name then label set.
    pub fn to_json(&self) -> String {
        let emit_key = |out: &mut String, key: &MetricKey| {
            out.push_str("{\"name\":");
            escape_into(out, &key.name);
            out.push_str(",\"labels\":{");
            for (i, (k, v)) in key.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                escape_into(out, v);
            }
            out.push('}');
        };

        let mut out = String::from("{\"counters\":[");
        for (i, (key, c)) in self.inner.counters.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            emit_key(&mut out, key);
            let _ = write!(out, ",\"value\":{}}}", c.get());
        }
        out.push_str("],\"gauges\":[");
        for (i, (key, g)) in self.inner.gauges.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            emit_key(&mut out, key);
            let _ = write!(out, ",\"value\":{}}}", g.get());
        }
        out.push_str("],\"histograms\":[");
        for (i, (key, h)) in self.inner.histograms.lock().unwrap().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            emit_key(&mut out, key);
            let _ = write!(out, ",\"count\":{},\"sum\":{},\"buckets\":[", h.count(), h.sum());
            let mut first = true;
            for (b, &c) in h.buckets().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{{\"le\":{},\"count\":{c}}}", bucket_upper_bound(b));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            // The upper bound of bucket i lands in bucket i; one past it
            // lands in bucket i + 1.
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(ub + 1), i + 1);
        }
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        // Median of 1..=100 is 50, which lives in bucket [32, 63].
        assert_eq!(h.quantile(0.5), 63);
        // p99 is 99, in bucket [64, 127].
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 127);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
    }

    #[test]
    fn counters_and_gauges_share_state_across_handles() {
        let m = Metrics::new();
        let a = m.counter("x_total", &[("k", "v")]);
        let b = m.counter("x_total", &[("k", "v")]);
        a.add(3);
        b.inc();
        assert_eq!(m.counter("x_total", &[("k", "v")]).get(), 4);
        let g = m.gauge("g", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(m.gauge("g", &[]).get(), 3);
    }

    #[test]
    fn prometheus_output_has_type_lines_and_values() {
        let m = Metrics::new();
        m.counter("events_total", &[("kind", "wol_retry")]).add(2);
        m.gauge("hosts_powered", &[]).set(7);
        m.histogram("lat_us", &[]).record(5);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE events_total counter"));
        assert!(text.contains("events_total{kind=\"wol_retry\"} 2"));
        assert!(text.contains("# TYPE hosts_powered gauge"));
        assert!(text.contains("hosts_powered 7"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{le=\"7\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_us_sum 5"));
        assert!(text.contains("lat_us_count 1"));
    }

    #[test]
    fn prometheus_label_values_use_exposition_escaping() {
        let m = Metrics::new();
        m.counter("odd_total", &[("k", "a\\b\"c\nd\te")]).inc();
        let text = m.to_prometheus();
        // Backslash, quote and newline escaped; the tab passes through
        // verbatim (JSON-style \t would be rejected by Prometheus).
        assert!(text.contains(r#"odd_total{k="a\\b\"c\nd	e"} 1"#), "got: {text}");
    }

    #[test]
    fn help_lines_precede_type_lines_for_described_metrics() {
        let m = Metrics::new();
        m.describe("events_total", "Events by kind.\nSecond line \\ slash.");
        m.describe("events_total", "loser: first description wins");
        m.counter("events_total", &[("kind", "a")]).inc();
        m.counter("events_total", &[("kind", "b")]).inc();
        m.counter("undescribed_total", &[]).inc();
        let text = m.to_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help = lines.iter().position(|l| l.starts_with("# HELP events_total")).unwrap();
        assert_eq!(lines[help], r"# HELP events_total Events by kind.\nSecond line \\ slash.");
        assert_eq!(lines[help + 1], "# TYPE events_total counter", "HELP directly above TYPE");
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("# HELP events_total")).count(),
            1,
            "one HELP per name, not per series"
        );
        assert!(!text.contains("# HELP undescribed_total"));
    }
}
