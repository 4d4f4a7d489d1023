//! The metric registry: named counters, gauges and fixed-bucket
//! histograms behind one lock per obs scope, plus point-in-time
//! snapshots with diffing and deterministic export.
//!
//! Metric names are `&'static str` by design — the hot paths never
//! allocate to record, and the set of metric names is a static property
//! of the build (grep for `tacc_obs::counter_add` to enumerate it).
//! Snapshots key by name in a [`BTreeMap`], so every export iterates in
//! one canonical order and renders byte-deterministically.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use serde_json::Value;

/// Number of log₂ buckets in a [`FixedHistogram`]: bucket `i` counts
/// values in `[2^i, 2^(i+1))` (bucket 0 also holds zero), so 48 buckets
/// cover anything up to ~78 hours in nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed-bucket log₂ histogram of `u64` observations.
///
/// The bucket layout is static, so histograms recorded on different
/// machines or runs diff and merge bucket-by-bucket, and the JSON
/// export's shape never depends on the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        FixedHistogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl FixedHistogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = (63 - value.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper edge of the smallest bucket whose cumulative count
    /// reaches `q` (0 < q ≤ 1) of all observations — a conservative
    /// quantile, exact to within the 2× bucket width. 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (i + 1);
            }
        }
        1u64 << HISTOGRAM_BUCKETS
    }

    /// Adds `other`'s observations, bucket-wise.
    fn merge(&mut self, other: &FixedHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The histogram with `earlier`'s observations subtracted —
    /// bucket-wise, saturating, with `max` kept from `self` (a maximum
    /// cannot be un-seen).
    #[must_use]
    pub fn diff(&self, earlier: &FixedHistogram) -> FixedHistogram {
        let mut out = *self;
        for (b, e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*e);
        }
        out.count = out.count.saturating_sub(earlier.count);
        out.sum = out.sum.saturating_sub(earlier.sum);
        out
    }

    /// JSON rendering listing only the occupied buckets (shape:
    /// `{"count", "sum", "max", "mean", "buckets": [{"le", "count"}]}`).
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Value::Object(vec![
                    ("le".to_owned(), Value::UInt(1u64 << (i + 1))),
                    ("count".to_owned(), Value::UInt(c)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("count".to_owned(), Value::UInt(self.count)),
            ("sum".to_owned(), Value::UInt(self.sum)),
            ("max".to_owned(), Value::UInt(self.max)),
            ("mean".to_owned(), Value::Float(self.mean())),
            ("buckets".to_owned(), Value::Array(buckets)),
        ])
    }
}

/// One named metric's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotonic count of deterministic occurrences.
    Counter(u64),
    /// Last-write-wins deterministic reading.
    Gauge(f64),
    /// Distribution of deterministic quantities.
    ValueHistogram(FixedHistogram),
    /// Distribution of wall-clock nanoseconds — a *measurement*,
    /// excluded from deterministic exports.
    TimeHistogram(FixedHistogram),
}

impl MetricValue {
    /// Whether this metric is a pure function of the workload (counters,
    /// gauges, value histograms) as opposed to a wall-clock measurement.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, MetricValue::TimeHistogram(_))
    }

    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::ValueHistogram(_) => "value_histogram",
            MetricValue::TimeHistogram(_) => "time_histogram",
        }
    }
}

/// One metric store; every obs [`crate::Scope`] owns one. All workspace
/// crates record through the free functions in the crate root
/// ([`crate::counter_add`] & co.), which consult the calling thread's
/// switch *before* touching the lock — a disabled build never contends
/// here.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, MetricValue>>,
}

impl Registry {
    /// Adds `n` to a counter, creating it at zero first.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics.entry(name).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += n,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Sets a gauge.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics.entry(name).or_insert(MetricValue::Gauge(value)) {
            MetricValue::Gauge(g) => *g = value,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Records into a value histogram.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn observe(&self, name: &'static str, value: u64) {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics.entry(name).or_insert(MetricValue::ValueHistogram(FixedHistogram::default()))
        {
            MetricValue::ValueHistogram(h) => h.record(value),
            other => panic!("metric `{name}` is a {}, not a value histogram", other.kind()),
        }
    }

    /// Records a duration (as nanoseconds) into a time histogram.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn observe_time(&self, name: &'static str, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics.entry(name).or_insert(MetricValue::TimeHistogram(FixedHistogram::default())) {
            MetricValue::TimeHistogram(h) => h.record(ns),
            other => panic!("metric `{name}` is a {}, not a time histogram", other.kind()),
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().expect("registry lock");
        RegistrySnapshot {
            metrics: metrics.iter().map(|(&name, value)| (name.to_owned(), *value)).collect(),
        }
    }

    /// Removes every metric.
    pub fn clear(&self) {
        self.metrics.lock().expect("registry lock").clear();
    }

    /// Records everything `other` holds into this registry, as if it had
    /// been recorded here after what this registry already holds:
    /// counters and histograms add up, gauges take `other`'s reading.
    ///
    /// # Panics
    ///
    /// Panics if a name is registered as different kinds in the two.
    pub(crate) fn absorb(&self, other: &Registry) {
        let other = other.metrics.lock().expect("registry lock").clone();
        let mut metrics = self.metrics.lock().expect("registry lock");
        for (name, value) in other {
            let Some(mine) = metrics.get_mut(name) else {
                metrics.insert(name, value);
                continue;
            };
            match (mine, value) {
                (MetricValue::Counter(c), MetricValue::Counter(o)) => *c += o,
                (MetricValue::Gauge(g), MetricValue::Gauge(o)) => *g = o,
                (MetricValue::ValueHistogram(h), MetricValue::ValueHistogram(o))
                | (MetricValue::TimeHistogram(h), MetricValue::TimeHistogram(o)) => h.merge(&o),
                (mine, theirs) => {
                    panic!("metric `{name}` is a {} here and a {}", mine.kind(), theirs.kind())
                }
            }
        }
    }
}

/// An immutable copy of the registry at one instant, ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl RegistrySnapshot {
    /// The metrics, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(name, value)| (name.as_str(), value))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// A counter's value, if the name is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// A gauge's value, if the name is a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A histogram (value or time), if the name is one.
    pub fn histogram(&self, name: &str) -> Option<&FixedHistogram> {
        match self.metrics.get(name) {
            Some(MetricValue::ValueHistogram(h) | MetricValue::TimeHistogram(h)) => Some(h),
            _ => None,
        }
    }

    /// What changed since `earlier`: counters and histograms subtract;
    /// gauges keep the later reading; metrics absent from `earlier`
    /// carry over whole. Metrics only present in `earlier` are dropped
    /// (the registry never removes metrics mid-run, so that means
    /// `earlier` post-dates `self`).
    #[must_use]
    pub fn diff(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let diffed = match (value, earlier.metrics.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::ValueHistogram(now), Some(MetricValue::ValueHistogram(then))) => {
                        MetricValue::ValueHistogram(now.diff(then))
                    }
                    (MetricValue::TimeHistogram(now), Some(MetricValue::TimeHistogram(then))) => {
                        MetricValue::TimeHistogram(now.diff(then))
                    }
                    _ => *value,
                };
                (name.clone(), diffed)
            })
            .collect();
        RegistrySnapshot { metrics }
    }

    /// Deterministic JSON export, grouped by metric kind with names in
    /// order. `include_timing` appends the wall-clock time histograms;
    /// without it the output is a pure function of the workload and is
    /// byte-identical across replays of the same seed.
    pub fn to_json(&self, include_timing: bool) -> Value {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut value_hists = Vec::new();
        let mut time_hists = Vec::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(c) => counters.push((name.clone(), Value::UInt(*c))),
                MetricValue::Gauge(g) => gauges.push((name.clone(), Value::Float(*g))),
                MetricValue::ValueHistogram(h) => value_hists.push((name.clone(), h.to_json())),
                MetricValue::TimeHistogram(h) => {
                    if include_timing {
                        time_hists.push((name.clone(), h.to_json()));
                    }
                }
            }
        }
        let mut fields = vec![
            ("counters".to_owned(), Value::Object(counters)),
            ("gauges".to_owned(), Value::Object(gauges)),
            ("value_histograms".to_owned(), Value::Object(value_hists)),
        ];
        if include_timing {
            fields.push(("time_histograms".to_owned(), Value::Object(time_hists)));
        }
        Value::Object(fields)
    }

    /// Deterministic fixed-width text rendering (one metric per line,
    /// names in order).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.metrics.is_empty() {
            out.push_str("(registry empty)\n");
            return out;
        }
        let width = self.metrics.keys().map(|n| n.len()).max().unwrap_or(0);
        for (name, value) in &self.metrics {
            let rendered = match value {
                MetricValue::Counter(c) => format!("counter  {c}"),
                MetricValue::Gauge(g) => format!("gauge    {g:.6}"),
                MetricValue::ValueHistogram(h) => format!(
                    "hist     n={} mean={:.1} max={} p99<={}",
                    h.count(),
                    h.mean(),
                    h.max(),
                    h.quantile_upper_bound(0.99)
                ),
                MetricValue::TimeHistogram(h) => format!(
                    "time     n={} mean={} max={} p99<={}",
                    h.count(),
                    format_ns(h.mean() as u64),
                    format_ns(h.max()),
                    format_ns(h.quantile_upper_bound(0.99))
                ),
            };
            out.push_str(&format!("{name:width$}  {rendered}\n"));
        }
        out
    }
}

/// Human-scale rendering of a nanosecond count (`850ns`, `1.2µs`,
/// `3.4ms`, `5.6s`).
pub(crate) fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = FixedHistogram::default();
        for v in [0, 1, 3, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.mean() > 0.0);
        // 0 and 1 share bucket 0; 3 is bucket 1; 1024 is bucket 10.
        assert_eq!(h.quantile_upper_bound(0.2), 2);
        assert_eq!(h.quantile_upper_bound(0.6), 4);
    }

    #[test]
    fn histogram_diff_subtracts_bucketwise() {
        let mut earlier = FixedHistogram::default();
        earlier.record(10);
        let mut later = earlier;
        later.record(10);
        later.record(2000);
        let delta = later.diff(&earlier);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 2010);
    }

    #[test]
    fn registry_is_isolated_per_instance() {
        let registry = Registry::default();
        registry.counter_add("a", 1);
        registry.counter_add("a", 2);
        registry.gauge_set("b", 0.5);
        registry.observe("c", 9);
        registry.observe_time("d", Duration::from_nanos(500));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.gauge("b"), Some(0.5));
        assert_eq!(snap.histogram("c").map(FixedHistogram::count), Some(1));
        assert_eq!(snap.len(), 4);
        registry.clear();
        assert!(registry.snapshot().is_empty());
    }

    #[test]
    fn absorb_adds_counters_and_histograms_and_takes_gauges() {
        let parent = Registry::default();
        parent.counter_add("n", 2);
        parent.gauge_set("g", 1.0);
        parent.observe("h", 3);
        let child = Registry::default();
        child.counter_add("n", 5);
        child.gauge_set("g", 7.0);
        child.observe("h", 1000);
        child.observe_time("t", Duration::from_nanos(40));
        parent.absorb(&child);
        let snap = parent.snapshot();
        assert_eq!(snap.counter("n"), Some(7));
        assert_eq!(snap.gauge("g"), Some(7.0));
        let h = snap.histogram("h").unwrap();
        assert_eq!((h.count(), h.sum(), h.max()), (2, 1003, 1000));
        assert_eq!(snap.histogram("t").map(FixedHistogram::count), Some(1));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::default();
        registry.gauge_set("x", 1.0);
        registry.counter_add("x", 1);
    }

    #[test]
    fn snapshot_diff_and_deterministic_export() {
        let registry = Registry::default();
        registry.counter_add("events", 10);
        registry.observe("batch", 4);
        registry.observe_time("fsync", Duration::from_micros(50));
        let before = registry.snapshot();
        registry.counter_add("events", 5);
        registry.observe("batch", 8);
        let after = registry.snapshot();
        let delta = after.diff(&before);
        assert_eq!(delta.counter("events"), Some(5));
        assert_eq!(delta.histogram("batch").map(FixedHistogram::count), Some(1));

        // Deterministic export excludes the time histogram...
        let text = serde_json::to_string(&after.to_json(false)).unwrap();
        assert!(!text.contains("fsync"), "{text}");
        assert!(!text.contains("time_histograms"), "{text}");
        // ...and the timing export includes it.
        let with = serde_json::to_string(&after.to_json(true)).unwrap();
        assert!(with.contains("fsync"), "{with}");
        // Text rendering mentions every metric.
        let rendered = after.to_text();
        for name in ["events", "batch", "fsync"] {
            assert!(rendered.contains(name), "{rendered}");
        }
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(850), "850ns");
        assert_eq!(format_ns(1_200), "1.2µs");
        assert_eq!(format_ns(3_400_000), "3.4ms");
        assert_eq!(format_ns(5_600_000_000), "5.60s");
    }
}
