//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! Instruments are created on first use and live for the process. All
//! updates are lock-free atomics so hot paths never contend; the
//! registry lock is only taken on first registration and when
//! snapshotting for [`emit_metrics_events`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::event::FieldValue;
use crate::recorder::emit;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    n: AtomicU64,
}

impl Counter {
    /// Add `delta` occurrences.
    pub fn add(&self, delta: u64) {
        self.n.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one occurrence.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }

    /// Reset to zero (tests).
    pub fn reset(&self) {
        self.n.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins float value (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0.0f64.to_bits()) }
    }
}

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram with upper-inclusive bounds plus an
/// overflow bucket.
///
/// A sample `x` lands in the first bucket whose bound satisfies
/// `x <= bound`; samples above the last bound (and non-finite samples)
/// land in the overflow bucket.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_bits: Mutex<f64>,
}

impl Histogram {
    /// Build from ascending upper bounds (one extra overflow bucket is
    /// appended automatically).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: Mutex::new(0.0),
        }
    }

    /// Index of the bucket a sample falls into (last index = overflow).
    fn bucket_index(&self, x: f64) -> usize {
        if !x.is_finite() {
            return self.bounds.len();
        }
        self.bounds.iter().position(|b| x <= *b).unwrap_or(self.bounds.len())
    }

    /// Record one sample.
    pub fn observe(&self, x: f64) {
        self.counts[self.bucket_index(x)].fetch_add(1, Ordering::Relaxed);
        if x.is_finite() {
            if let Ok(mut s) = self.sum_bits.lock() {
                *s += x;
            }
        }
    }

    /// Per-bucket counts (last entry = overflow bucket).
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of finite samples.
    pub fn sum(&self) -> f64 {
        self.sum_bits.lock().map(|s| *s).unwrap_or(0.0)
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Bucket-resolution quantile estimate: the upper bound of the
    /// bucket containing the `q`-th sample (`0.0 < q <= 1.0`), the
    /// standard fixed-bucket estimator for p50/p99 dashboards. Returns
    /// `None` with no samples; overflow-bucket quantiles report the
    /// last finite bound (the estimate saturates).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.bounds, &self.counts(), q)
    }
}

/// Shared fixed-bucket quantile estimator — also used by `turl report`
/// when reconstructing histograms from emitted `metric` events.
pub fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || bounds.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bounds[i.min(bounds.len() - 1)]);
        }
    }
    Some(bounds[bounds.len() - 1])
}

#[derive(Default)]
struct Registry {
    counters: Vec<(&'static str, Arc<Counter>)>,
    gauges: Vec<(&'static str, Arc<Gauge>)>,
    histograms: Vec<(&'static str, Arc<Histogram>)>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Get or create the named counter.
pub fn counter(name: &'static str) -> Arc<Counter> {
    let mut reg = match registry().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some((_, c)) = reg.counters.iter().find(|(n, _)| *n == name) {
        return Arc::clone(c);
    }
    let c = Arc::new(Counter::default());
    reg.counters.push((name, Arc::clone(&c)));
    c
}

/// Get or create the named gauge.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    let mut reg = match registry().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some((_, g)) = reg.gauges.iter().find(|(n, _)| *n == name) {
        return Arc::clone(g);
    }
    let g = Arc::new(Gauge::default());
    reg.gauges.push((name, Arc::clone(&g)));
    g
}

/// Get or create the named histogram (bounds apply on first creation).
pub fn histogram(name: &'static str, bounds: &[f64]) -> Arc<Histogram> {
    let mut reg = match registry().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some((_, h)) = reg.histograms.iter().find(|(n, _)| *n == name) {
        return Arc::clone(h);
    }
    let h = Arc::new(Histogram::new(bounds));
    reg.histograms.push((name, Arc::clone(&h)));
    h
}

/// Point-in-time copy of one histogram.
#[derive(Debug)]
pub struct HistogramSnapshot {
    /// Registered name (labels included).
    pub name: &'static str,
    /// Number of observations.
    pub total: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Per-bucket counts, the overflow bucket last.
    pub counts: Vec<u64>,
    /// Upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
}

/// Point-in-time copy of every registered instrument, consumed by the
/// Prometheus renderer and `emit_metrics_events`.
#[derive(Debug, Default)]
pub struct RegistrySnapshot {
    /// `(name, cumulative count)` per counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, last value)` per gauge.
    pub gauges: Vec<(&'static str, f64)>,
    /// One entry per histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Snapshot every registered instrument (registration order).
pub fn snapshot_registry() -> RegistrySnapshot {
    let reg = match registry().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    RegistrySnapshot {
        counters: reg.counters.iter().map(|(n, c)| (*n, c.get())).collect(),
        gauges: reg.gauges.iter().map(|(n, g)| (*n, g.get())).collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(n, h)| HistogramSnapshot {
                name: n,
                total: h.total(),
                sum: h.sum(),
                counts: h.counts(),
                bounds: h.bounds().to_vec(),
            })
            .collect(),
    }
}

/// Intern a dynamically built instrument name into a `&'static str`
/// (instrument constructors take static names so hot paths never hash
/// strings). Deduplicated, so repeated interning of the same text does
/// not grow memory — intended for names built once at startup, e.g. a
/// `build_info` gauge whose labels depend on the loaded artifact.
pub fn intern_name(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut table = match INTERNED.get_or_init(|| Mutex::new(Vec::new())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some(s) = table.iter().find(|s| **s == name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

/// Emit one `metric` event per registered instrument (cumulative
/// values — consumers diff across snapshots if they want rates).
pub fn emit_metrics_events() {
    let snapshot = snapshot_registry();
    for (name, v) in snapshot.counters {
        emit(
            "metric",
            vec![
                ("name", FieldValue::Str(name.to_string())),
                ("metric_type", FieldValue::Str("counter".to_string())),
                ("value", FieldValue::U64(v)),
            ],
        );
    }
    for (name, v) in snapshot.gauges {
        emit(
            "metric",
            vec![
                ("name", FieldValue::Str(name.to_string())),
                ("metric_type", FieldValue::Str("gauge".to_string())),
                ("value", FieldValue::F64(v)),
            ],
        );
    }
    for HistogramSnapshot { name, total, sum, counts, bounds } in snapshot.histograms {
        let buckets = counts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",");
        let bounds = bounds.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",");
        emit(
            "metric",
            vec![
                ("name", FieldValue::Str(name.to_string())),
                ("metric_type", FieldValue::Str("histogram".to_string())),
                ("total", FieldValue::U64(total)),
                ("sum", FieldValue::F64(sum)),
                ("buckets", FieldValue::Str(buckets)),
                ("bounds", FieldValue::Str(bounds)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let c = counter("test_counter_a");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(counter("test_counter_a").get(), 5); // same instrument
        c.reset();
        assert_eq!(c.get(), 0);

        let g = gauge("test_gauge_a");
        g.set(2.5);
        assert_eq!(gauge("test_gauge_a").get(), 2.5);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        // upper-inclusive: a sample exactly on a bound lands in that bucket
        assert_eq!(h.bucket_index(0.5), 0);
        assert_eq!(h.bucket_index(1.0), 0);
        assert_eq!(h.bucket_index(1.0000001), 1);
        assert_eq!(h.bucket_index(10.0), 1);
        assert_eq!(h.bucket_index(100.0), 2);
        assert_eq!(h.bucket_index(100.1), 3); // overflow
        assert_eq!(h.bucket_index(f64::NAN), 3); // non-finite → overflow
        assert_eq!(h.bucket_index(f64::INFINITY), 3);
        assert_eq!(h.bucket_index(-5.0), 0); // below first bound

        for x in [0.5, 1.0, 10.0, 100.0, 1e6, f64::NAN] {
            h.observe(x);
        }
        assert_eq!(h.counts(), vec![2, 1, 1, 2]);
        assert_eq!(h.total(), 6);
        // NaN excluded from the sum
        assert!((h.sum() - (0.5 + 1.0 + 10.0 + 100.0 + 1e6)).abs() < 1e-9);
    }

    #[test]
    fn quantile_from_buckets_edge_cases() {
        // empty histogram: no bounds, no counts
        assert_eq!(quantile_from_buckets(&[], &[], 0.5), None);
        // bounds but zero samples
        assert_eq!(quantile_from_buckets(&[1.0, 2.0], &[0, 0, 0], 0.5), None);
        // counts but no bounds (degenerate registration)
        assert_eq!(quantile_from_buckets(&[], &[5], 0.5), None);

        let bounds = [1.0, 10.0, 100.0];
        let counts = [5u64, 3, 2, 0];
        // q=0.0 clamps to rank 1: the first non-empty bucket's bound
        assert_eq!(quantile_from_buckets(&bounds, &counts, 0.0), Some(1.0));
        // q=1.0 is the last non-empty bucket's bound
        assert_eq!(quantile_from_buckets(&bounds, &counts, 1.0), Some(100.0));
        // out-of-range q clamps rather than panicking
        assert_eq!(quantile_from_buckets(&bounds, &counts, -3.0), Some(1.0));
        assert_eq!(quantile_from_buckets(&bounds, &counts, 7.0), Some(100.0));

        // single-bucket histogram: every quantile is that bound
        assert_eq!(quantile_from_buckets(&[5.0], &[9, 0], 0.01), Some(5.0));
        assert_eq!(quantile_from_buckets(&[5.0], &[9, 0], 0.99), Some(5.0));

        // all mass in the overflow bucket: saturates at last finite bound
        assert_eq!(quantile_from_buckets(&bounds, &[0, 0, 0, 42], 0.5), Some(100.0));
        assert_eq!(quantile_from_buckets(&bounds, &[0, 0, 0, 42], 1.0), Some(100.0));
    }

    #[test]
    fn interned_names_deduplicate() {
        let a = intern_name(&format!("dyn.metric.{}", 7));
        let b = intern_name("dyn.metric.7");
        assert!(std::ptr::eq(a, b), "same text must intern to the same allocation");
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        assert_eq!(h.quantile(0.5), None, "no samples yet");
        for _ in 0..90 {
            h.observe(0.5); // bucket 0
        }
        for _ in 0..9 {
            h.observe(5.0); // bucket 1
        }
        h.observe(50.0); // bucket 2
        assert_eq!(h.quantile(0.50), Some(1.0));
        assert_eq!(h.quantile(0.95), Some(10.0));
        assert_eq!(h.quantile(0.999), Some(100.0));
        // overflow samples saturate at the last finite bound
        for _ in 0..1000 {
            h.observe(1e9);
        }
        assert_eq!(h.quantile(0.99), Some(100.0));
    }
}
