//! Per-run metrics: named counters and percentile histograms.
//!
//! The registry is built once per run, after the workers have joined, from
//! the run report and the recorded spans — so it needs no interior locking.
//! Names are dotted paths (`ring.d0.max_occupancy`, `gcups.wall`), kept in
//! sorted order so rendered summaries are deterministic.
//!
//! [`Histogram`] is a dependency-free log-bucketed summary: observations
//! land in geometric buckets with [`BUCKETS_PER_OCTAVE`] sub-buckets per
//! power of two, so any quantile estimate carries a bounded *relative*
//! error of at most `2^(1/(2·BUCKETS_PER_OCTAVE)) − 1` (< 4.5% at the
//! default resolution) while the memory cost stays proportional to the
//! number of occupied buckets, not the number of observations.

use std::collections::BTreeMap;
use std::fmt;

/// Geometric sub-buckets per power of two. 8 gives a worst-case relative
/// quantile error below 4.5% (`2^(1/16) − 1`), which is far below the
/// run-to-run noise of any wall-clock measurement this crate summarizes.
pub const BUCKETS_PER_OCTAVE: u32 = 8;

/// Streaming summary of a set of `f64` observations with log-bucketed
/// percentiles.
///
/// Non-finite observations (NaN, ±∞) are **rejected**: they bump
/// [`Histogram::rejected`] and leave every other statistic untouched, so a
/// single bad sample cannot poison `min`/`max`/`mean` or the quantiles.
/// Zero and negative observations are finite and legal; they share a
/// dedicated floor bucket (a log scale cannot spread them further apart)
/// whose representative value is 0, clamped into the observed `[min, max]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Non-finite observations rejected by [`Histogram::record`].
    pub rejected: u64,
    /// Occupied log buckets: key is the bucket index from [`bucket_index`],
    /// value the number of observations that landed there.
    buckets: BTreeMap<i32, u64>,
}

/// Bucket index for a finite observation: `floor(log2(v) ·
/// BUCKETS_PER_OCTAVE)` for positive `v`, and `i32::MIN` as the shared
/// floor bucket for zero and negative values.
fn bucket_index(value: f64) -> i32 {
    if value <= 0.0 {
        return i32::MIN;
    }
    (value.log2() * BUCKETS_PER_OCTAVE as f64).floor() as i32
}

/// Representative value for a bucket: the geometric midpoint of its bounds.
fn bucket_mid(index: i32) -> f64 {
    if index == i32::MIN {
        return 0.0;
    }
    ((index as f64 + 0.5) / BUCKETS_PER_OCTAVE as f64).exp2()
}

impl Histogram {
    /// Record one observation. Non-finite values are rejected (counted in
    /// [`Histogram::rejected`]) so they cannot poison the summary.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.rejected += 1;
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the log buckets.
    ///
    /// Returns 0 for an empty histogram. The estimate is the geometric
    /// midpoint of the bucket holding the target rank, clamped to the
    /// observed `[min, max]` — so a single-sample histogram returns that
    /// sample exactly, and the relative error is bounded by the bucket
    /// resolution (< 4.5% at [`BUCKETS_PER_OCTAVE`] = 8).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q · n), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Cumulative bucket counts for exposition: `(upper_bound, count ≤
    /// upper_bound)` pairs in ascending bound order, one per occupied log
    /// bucket. The floor bucket (zero and negative observations) reports
    /// bound 0. Counts are cumulative and therefore monotone nondecreasing;
    /// the last entry's count equals [`Histogram::count`]. Prometheus
    /// histogram exposition appends the implicit `+Inf` bucket itself.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cum = 0u64;
        for (&idx, &n) in &self.buckets {
            cum += n;
            let bound = if idx == i32::MIN {
                0.0
            } else {
                ((idx as f64 + 1.0) / BUCKETS_PER_OCTAVE as f64).exp2()
            };
            out.push((bound, cum));
        }
        out
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Named counters + histograms for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    help: BTreeMap<String, String>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter, creating it at zero if absent.
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Record one observation into a histogram, creating it if absent.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Install a histogram kept elsewhere (say, incrementally by a
    /// long-lived owner), replacing any histogram of the same name.
    pub fn insert_histogram(&mut self, name: &str, histogram: Histogram) {
        self.histograms.insert(name.to_string(), histogram);
    }

    /// Attach a one-line help string to a metric. Exposition formats that
    /// carry metadata (`# HELP` in Prometheus text) render it; metrics
    /// without a description get a generated fallback line.
    pub fn describe(&mut self, name: &str, help: &str) {
        self.help.insert(name.to_string(), help.to_string());
    }

    /// The help string attached via [`MetricsRegistry::describe`], if any.
    pub fn help(&self, name: &str) -> Option<&str> {
        self.help.get(name).map(String::as_str)
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics:")?;
        for (name, value) in &self.counters {
            writeln!(f, "  {name:<40} {value}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name:<40} n={} mean={:.3} min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
                h.count,
                h.mean(),
                h.min,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.incr("blocks", 3);
        m.incr("blocks", 4);
        assert_eq!(m.counter("blocks"), Some(7));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn histogram_summary() {
        let mut m = MetricsRegistry::new();
        for v in [2.0, 4.0, 9.0] {
            m.observe("occupancy", v);
        }
        let h = m.histogram("occupancy").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 9.0);
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_mean_and_quantiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::default();
        h.record(123.456);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 123.456, "q = {q}");
        }
    }

    #[test]
    fn non_finite_observations_are_rejected_not_poisoning() {
        let mut h = Histogram::default();
        h.record(2.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        h.record(8.0);
        assert_eq!(h.count, 2);
        assert_eq!(h.rejected, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!(h.p50().is_finite());
        assert!(h.p99() <= 8.0);
    }

    #[test]
    fn nan_first_observation_does_not_seed_min_max() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        assert_eq!(h.count, 0);
        assert_eq!(h.rejected, 1);
        h.record(3.0);
        assert_eq!(h.min, 3.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn zero_and_negative_values_are_recorded() {
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(-5.0);
        h.record(10.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -5.0);
        assert_eq!(h.max, 10.0);
        // The floor bucket holds the two non-positive samples; its
        // representative value is 0 (within the observed range).
        assert_eq!(h.quantile(0.5), 0.0);
        assert!((h.quantile(1.0) - 10.0).abs() / 10.0 < 0.05);
    }

    /// Seeded-sweep comparison of the log-bucket quantiles against a
    /// sorted-array oracle, within the bucket-resolution relative error.
    #[test]
    fn quantiles_match_sorted_oracle_within_bucket_resolution() {
        // Tiny xorshift so the sweep is seeded and dependency-free.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Half-bucket relative error bound, plus float-boundary slack.
        let bound = 2f64.powf(1.0 / (2.0 * BUCKETS_PER_OCTAVE as f64)) - 1.0 + 1e-9;
        for scale in [1.0, 1e3, 1e9] {
            for n in [2usize, 7, 100, 1000] {
                let mut h = Histogram::default();
                let mut values: Vec<f64> = (0..n)
                    .map(|_| {
                        // Uniform mantissa across three decades.
                        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                        scale * 1000f64.powf(u)
                    })
                    .collect();
                for &v in &values {
                    h.record(v);
                }
                values.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                    let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
                    let oracle = values[rank.min(n - 1)];
                    let est = h.quantile(q);
                    let rel = (est - oracle).abs() / oracle;
                    assert!(
                        rel <= bound,
                        "scale {scale} n {n} q {q}: oracle {oracle}, est {est}, rel {rel}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::default();
        for i in 1..=500u32 {
            h.record(i as f64);
        }
        let qs: Vec<f64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        for w in qs.windows(2) {
            assert!(w[1] >= w[0], "{qs:?}");
        }
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total_to_count() {
        let mut h = Histogram::default();
        for i in 0..1000u32 {
            h.record(((i * 37) % 991) as f64 - 10.0);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for w in buckets.windows(2) {
            assert!(w[1].0 > w[0].0, "bounds ascend: {buckets:?}");
            assert!(w[1].1 >= w[0].1, "counts nondecreasing: {buckets:?}");
        }
        assert_eq!(buckets.last().unwrap().1, h.count);
        // The floor bucket (bound 0) holds the negative-and-zero samples.
        assert_eq!(buckets[0].0, 0.0);
        assert!(buckets[0].1 > 0);
    }

    #[test]
    fn describe_attaches_help_text() {
        let mut m = MetricsRegistry::new();
        m.incr("cells.total", 1);
        m.describe("cells.total", "DP cells computed");
        assert_eq!(m.help("cells.total"), Some("DP cells computed"));
        assert_eq!(m.help("missing"), None);
    }

    #[test]
    fn display_is_deterministic_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.incr("z.last", 1);
        m.incr("a.first", 2);
        m.observe("m.mid", 1.5);
        let text = m.to_string();
        let a = text.find("a.first").unwrap();
        let z = text.find("z.last").unwrap();
        assert!(a < z);
        assert!(text.contains("mean=1.500"));
        assert!(text.contains("p50=1.500"));
        assert!(text.contains("p99=1.500"));
    }
}
