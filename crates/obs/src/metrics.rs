//! The metrics registry: counters, gauges, latency histograms, and
//! per-link byte totals.
//!
//! Keys are `&'static str` so the hot recording path never allocates
//! for a name; everything is held in `BTreeMap`s so JSON export is
//! deterministically ordered.

use std::collections::BTreeMap;

use serde_json::Value;

/// A log-bucketed latency histogram (seconds).
///
/// Buckets are powers of ten from 1 ns to 1000 s plus an overflow
/// bucket — wide enough for every virtual duration the simulator
/// produces, cheap enough to update per message.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; Histogram::BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Decade buckets: `< 1e-9, < 1e-8, …, < 1e3`, plus overflow.
    pub const BUCKETS: usize = 14;

    /// Upper bound of bucket `i` in seconds (`None` = overflow).
    pub fn bucket_bound(i: usize) -> Option<f64> {
        (i + 1 < Self::BUCKETS).then(|| 10f64.powi(i as i32 - 9))
    }

    /// Record one observation.
    ///
    /// A bucket holds values strictly below its bound, so an
    /// observation sitting exactly on a power-of-ten boundary lands in
    /// the bucket *above* it. Zero and negative observations land in
    /// the lowest bucket (everything is `< 1e-9`). NaN observations
    /// are dropped — one poisoned sample must not turn `sum`/`mean`
    /// into NaN for the whole registry.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let mut idx = Self::BUCKETS - 1;
        for i in 0..Self::BUCKETS - 1 {
            if Self::bucket_bound(i).is_some_and(|bound| v < bound) {
                idx = i;
                break;
            }
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Estimate the `p`-th percentile (0–100) of the observations.
    ///
    /// Uses the nearest-rank target within the decade buckets, linearly
    /// interpolated across the bucket that holds it: exact at the
    /// extremes (`p = 0` → min, `p = 100` → max), decade-resolution in
    /// between — the right fidelity for "where did the tail go"
    /// summaries without storing every sample. Returns 0 when empty;
    /// estimates are clamped to `[min, max]` so a sparse bucket can
    /// never report a value outside the observed range.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        // The k-th smallest observation, k in [1, count]. The first and
        // last ranks are the observed extrema exactly.
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if target <= 1 {
            return self.min;
        }
        if target >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                // Bucket i spans [bound(i-1), bound(i)); the edge
                // buckets borrow the observed extrema as their open
                // ends.
                let lo = if i == 0 {
                    self.min
                } else {
                    Self::bucket_bound(i - 1).unwrap_or(self.min).max(self.min)
                };
                let hi = Self::bucket_bound(i).unwrap_or(self.max).min(self.max);
                let hi = hi.max(lo);
                let frac = (target - seen) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max()
    }

    /// Render as JSON: count, sum, mean, min, max, non-empty buckets.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("count", Value::Number(self.count as f64));
        v.set("sum", Value::Number(self.sum));
        v.set("mean", Value::Number(self.mean()));
        v.set("min", Value::Number(self.min()));
        v.set("max", Value::Number(self.max()));
        let mut buckets = Value::object();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let label = match Self::bucket_bound(i) {
                Some(b) => format!("lt_{b:.0e}"),
                None => "overflow".to_string(),
            };
            buckets.set(&label, Value::Number(c as f64));
        }
        v.set("buckets", buckets);
        v
    }
}

/// A registry of named counters, gauges, histograms, and per-link byte
/// totals for one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Bytes moved per directed `(from_node, to_node)` pair.
    link_bytes: BTreeMap<(u32, u32), u64>,
}

impl Metrics {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `name` by `by`.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record an observation into histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// Histogram `name`, if it has observations.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Account `bytes` moved from `from_node` to `to_node`.
    pub fn link_bytes(&mut self, from_node: u32, to_node: u32, bytes: u64) {
        *self.link_bytes.entry((from_node, to_node)).or_insert(0) += bytes;
    }

    /// Per-link byte totals, heaviest first.
    pub fn links_by_bytes(&self) -> Vec<((u32, u32), u64)> {
        let mut v: Vec<_> = self.link_bytes.iter().map(|(&k, &b)| (k, b)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Render the whole registry as ordered JSON.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        let mut counters = Value::object();
        for (k, c) in &self.counters {
            counters.set(k, Value::Number(*c as f64));
        }
        v.set("counters", counters);
        let mut gauges = Value::object();
        for (k, g) in &self.gauges {
            gauges.set(k, Value::Number(*g));
        }
        v.set("gauges", gauges);
        let mut hists = Value::object();
        for (k, h) in &self.histograms {
            hists.set(k, h.to_value());
        }
        v.set("histograms", hists);
        let links = self
            .links_by_bytes()
            .into_iter()
            .map(|((a, b), bytes)| {
                let mut e = Value::object();
                e.set("from_node", Value::Number(a as f64));
                e.set("to_node", Value::Number(b as f64));
                e.set("bytes", Value::Number(bytes as f64));
                e
            })
            .collect();
        v.set("link_bytes", Value::Array(links));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [1e-6, 2e-6, 5e-3, 40.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 40.005003).abs() < 1e-9);
        assert_eq!(h.min(), 1e-6);
        assert_eq!(h.max(), 40.0);
        let v = h.to_value();
        assert_eq!(v.get("count").and_then(Value::as_f64), Some(4.0));
        // 1e-6 and 2e-6 share the `< 1e-5` decade bucket.
        assert_eq!(
            v.get("buckets")
                .and_then(|b| b.get("lt_1e-5"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    /// Which bucket a single observation of `v` lands in.
    fn bucket_of(v: f64) -> usize {
        let mut h = Histogram::default();
        h.record(v);
        let val = h.to_value();
        let Value::Object(buckets) = val.get("buckets").unwrap().clone() else {
            panic!("buckets must be an object");
        };
        assert_eq!(buckets.len(), 1, "exactly one bucket holds the sample");
        let label = &buckets[0].0;
        if label == "overflow" {
            return Histogram::BUCKETS - 1;
        }
        (0..Histogram::BUCKETS - 1)
            .find(|&i| format!("lt_{:.0e}", Histogram::bucket_bound(i).unwrap()) == *label)
            .unwrap_or_else(|| panic!("unknown bucket label {label}"))
    }

    #[test]
    fn exact_power_of_ten_boundaries_land_in_the_bucket_above() {
        // Buckets are half-open `[prev, bound)`: a value exactly on
        // bucket i's bound is not `< bound`, so it belongs to bucket
        // i+1. Probing with the bound itself makes the test exact —
        // no assumption about the literal 1e-9 equaling `10f64.powi`.
        for i in 0..Histogram::BUCKETS - 1 {
            let bound = Histogram::bucket_bound(i).unwrap();
            assert_eq!(bucket_of(bound), i + 1, "bound of bucket {i}");
            // And a value just under the bound stays in bucket i (the
            // decade midpoint is comfortably inside).
            assert!(bucket_of(bound * 0.5) <= i, "half the bound of bucket {i}");
        }
        // The last bound (1e3) overflows: bucket BUCKETS-1 *is* the
        // overflow bucket.
        let top = Histogram::bucket_bound(Histogram::BUCKETS - 2).unwrap();
        assert_eq!(bucket_of(top), Histogram::BUCKETS - 1);
        assert_eq!(Histogram::bucket_bound(Histogram::BUCKETS - 1), None);
    }

    #[test]
    fn zero_and_negative_observations_land_in_the_lowest_bucket() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-0.0), 0);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(-1e6), 0);
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-2.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), -2.5);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.sum(), -2.5);
    }

    #[test]
    fn nan_observations_are_dropped() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0, "NaN is not an observation");
        assert_eq!(h.mean(), 0.0);
        // NaN between real samples must not poison the stats.
        h.record(1.0);
        h.record(f64::NAN);
        h.record(3.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4.0);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 3.0);
    }

    #[test]
    fn percentile_of_empty_is_zero_and_extremes_are_exact() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0.0);
        let mut h = Histogram::default();
        for v in [1e-6, 3e-6, 9e-6, 2e-3, 7.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1e-6, "p0 is the minimum");
        assert_eq!(h.percentile(100.0), 7.0, "p100 is the maximum");
        // Out-of-range p clamps instead of extrapolating.
        assert_eq!(h.percentile(-5.0), 1e-6);
        assert_eq!(h.percentile(250.0), 7.0);
    }

    #[test]
    fn percentile_is_monotone_and_bucket_accurate() {
        let mut h = Histogram::default();
        // 90 observations in the [1e-5, 1e-4) decade, 10 in [1e-1, 1).
        for i in 0..90 {
            h.record(2e-5 + i as f64 * 1e-7);
        }
        for _ in 0..10 {
            h.record(0.5);
        }
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!(
            p50 >= h.min() && p50 < 1e-4,
            "p50 in the bulk decade: {p50}"
        );
        assert!((1e-1..=0.5).contains(&p95), "p95 in the tail decade: {p95}");
        assert!(p99 >= p95, "percentiles are monotone");
        assert!(p95 >= p50);
        // A single-valued histogram reports that value at every p.
        let mut one = Histogram::default();
        one.record(42.0);
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(one.percentile(p), 42.0);
        }
    }

    #[test]
    fn registry_counts_and_exports() {
        let mut m = Metrics::new();
        m.inc("messages_sent", 3);
        m.gauge("connection_occupancy", 1.5);
        m.observe("message_latency_seconds", 2e-6);
        m.link_bytes(0, 1, 100);
        m.link_bytes(1, 0, 300);
        m.link_bytes(0, 1, 50);
        assert_eq!(m.counter("messages_sent"), 3);
        assert_eq!(m.counter("never_touched"), 0);
        assert_eq!(m.links_by_bytes()[0], ((1, 0), 300));
        assert_eq!(m.links_by_bytes()[1], ((0, 1), 150));
        let text = serde_json::to_string_pretty(&m.to_value());
        let parsed = serde_json::from_str(&text).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("messages_sent"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("connection_occupancy"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
    }
}
