//! Typed metrics: monotonic `u64` counters, gauges, and log2-bucket
//! histograms, usable either standalone (owned by a consumer, always
//! counting — e.g. the kernel cache's per-instance hit/miss counters) or
//! through the process-global **registry** (exported by the summary,
//! Chrome, and Prometheus writers).
//!
//! The registry has two tiers. The *gated* tier is what [`count`] /
//! [`record`] feed: no-ops while tracing is off. The *always-on* tier is
//! entered via [`register_counter`]: a consumer that owns an always-exact
//! standalone [`Counter`] (the kernel cache, the tuner) registers
//! that same counter under its metric name, making the registry the
//! single source of truth without any mirror writes on the hot path.

use crate::enabled;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A monotonic `u64` counter. Cheap (`Relaxed` fetch-add) and shareable;
/// standalone counters always count — gating on the trace flag is the
/// registry helpers' job ([`count`]), not the counter's.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and re-runs).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-written-wins `u64` gauge for sampled state (pool occupancy,
/// resident cells, disk bytes). Like [`Counter`], standalone gauges
/// always record; the registry helpers decide policy.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the current value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
const BUCKETS: usize = 65;

/// Number of histogram buckets, public for exporters and tests: bucket 0
/// holds zeros, bucket `k` (1..=64) holds values in `[2^(k-1), 2^k)`,
/// with bucket 64's upper edge saturating at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = BUCKETS;

/// Inclusive upper bound of log2 bucket `idx`: 0 for bucket 0,
/// `2^idx - 1` for buckets 1..=63, and `u64::MAX` for bucket 64 (whose
/// nominal edge `2^64 - 1` is exactly `u64::MAX`). Every `u64` — 0 and
/// `u64::MAX` included — lands in a bucket with a defined bound.
pub fn bucket_upper_bound(idx: usize) -> u64 {
    assert!(idx < BUCKETS, "bucket index {idx} out of range");
    match idx {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// A log2-bucket histogram: bucket 0 holds zeros, bucket `k` holds values
/// in `[2^(k-1), 2^k)`. Lossy but allocation-free, lock-free, and wide
/// enough for anything from backtrack counts to cycle totals.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Any `u64` lands in a defined bucket:
    /// 0 in bucket 0, `u64::MAX` in bucket 64. The running sum saturates
    /// at `u64::MAX` instead of wrapping, so extreme observations leave
    /// the mean pessimistic rather than nonsensical.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Resets every bucket (tests and re-runs).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen [`Histogram`] reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation counts per log2 bucket (`buckets[0]` = zeros,
    /// `buckets[k]` = values in `[2^(k-1), 2^k)`).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket holding quantile `q` (e.g. 0.5, 0.99):
    /// a conservative percentile estimate from the log2 distribution.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket 64's bound is u64::MAX, not `(1 << 64) - 1`,
                // which would overflow the shift.
                return bucket_upper_bound(idx);
            }
        }
        u64::MAX
    }
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// The process-global counter named `name`, registered on first use.
/// Entries are interned for the process lifetime (names are `'static` and
/// the set of instrumentation sites is finite).
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Registers an externally-owned counter under `name` in the always-on
/// tier: the owner keeps bumping its own `Counter` unconditionally (no
/// trace-flag gate, no mirror writes), and every exporter reads the very
/// same cells through the registry. Returns `false` (keeping the
/// existing entry) if `name` is already registered — registration is
/// first-wins, so process-global singletons register exactly once.
pub fn register_counter(name: &'static str, counter: &'static Counter) -> bool {
    let mut map = registry()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if map.contains_key(name) {
        return false;
    }
    map.insert(name, counter);
    true
}

/// The process-global gauge named `name`, registered on first use.
/// Gauges sample current state (occupancy, bytes, residency), so they
/// are always-on: reading state to publish it costs nothing on any hot
/// path.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = registry()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Sets the registry gauge `name` to `value` (always-on; see [`gauge`]).
pub fn set_gauge(name: &'static str, value: u64) {
    gauge(name).set(value);
}

/// The process-global histogram named `name`, registered on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry()
        .histograms
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Adds `n` to the registry counter `name` — if tracing is enabled,
/// otherwise a no-op after one relaxed flag load.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() && n > 0 {
        counter(name).add(n);
    }
}

/// Records `value` into the registry histogram `name` — if tracing is
/// enabled, otherwise a no-op after one relaxed flag load.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if enabled() {
        histogram(name).record(value);
    }
}

/// Snapshot of every registered counter, sorted by name.
pub fn counters() -> Vec<(&'static str, u64)> {
    registry()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&name, c)| (name, c.get()))
        .collect()
}

/// Snapshot of every registered gauge, sorted by name.
pub fn gauges() -> Vec<(&'static str, u64)> {
    registry()
        .gauges
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&name, g)| (name, g.get()))
        .collect()
}

/// Snapshot of every registered histogram, sorted by name.
pub fn histograms() -> Vec<(&'static str, HistogramSnapshot)> {
    registry()
        .histograms
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&name, h)| (name, h.snapshot()))
        .collect()
}

/// Zeroes every registered counter and histogram (the registry itself is
/// kept — handles stay valid).
pub fn reset_metrics() {
    for (_, c) in registry()
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        c.reset();
    }
    for (_, h) in registry()
        .histograms
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn standalone_counter_counts_without_tracing() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1023 in [512, 1024)
        assert_eq!(s.buckets[11], 1); // 1024 in [1024, 2048)
        assert_eq!(s.sum, 2057);
        assert!((s.mean() - 2057.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_bound_is_monotone_and_conservative() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile_bound(0.5);
        let p99 = s.quantile_bound(0.99);
        assert!(p50 >= 49, "p50 bound {p50} below true median");
        assert!(p99 >= p50);
        assert!(p99 <= 127, "p99 bound {p99} beyond max bucket for <100");
        assert_eq!(HistogramSnapshot::default_empty().quantile_bound(0.5), 0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            Histogram::new().snapshot()
        }
    }

    #[test]
    fn extremes_land_in_defined_buckets() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1, "0 lands in bucket 0");
        assert_eq!(s.buckets[64], 1, "u64::MAX lands in bucket 64");
        assert_eq!(s.count(), 2);
        // Both quantile extremes resolve without shift overflow.
        assert_eq!(s.quantile_bound(0.0), 0);
        assert_eq!(s.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(17);
        let s = h.snapshot();
        assert_eq!(s.sum, u64::MAX, "sum pins at u64::MAX");
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn all_65_bucket_boundaries_are_pinned() {
        // Bucket 0 is exactly {0}; bucket k (1..=64) is [2^(k-1), 2^k),
        // with bucket 64 closed at u64::MAX. Check every boundary from
        // both sides: the first value in each bucket and the last.
        let h = Histogram::new();
        h.record(0);
        for k in 1..=64usize {
            let lo = 1u64 << (k - 1);
            let hi = bucket_upper_bound(k);
            h.record(lo);
            h.record(hi);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        for k in 1..=64usize {
            // Two recorded values per bucket (for bucket 1, {1}, the same
            // value twice): both edges land in bucket k and nowhere else.
            assert_eq!(s.buckets[k], 2, "bucket {k} holds its own edges");
        }
        // And the bounds themselves are the documented closed-form.
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(63), (1u64 << 63) - 1);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for k in 1..64usize {
            assert!(bucket_upper_bound(k) < bucket_upper_bound(k + 1));
        }
        assert_eq!(HISTOGRAM_BUCKETS, 65);
    }

    #[test]
    fn registered_counters_are_always_on_and_first_wins() {
        let _g = test_lock::hold();
        crate::disable();
        static OWNED: Counter = Counter::new();
        assert!(register_counter("metrics.test.registered", &OWNED));
        // Second registration under the same name keeps the first.
        static OTHER: Counter = Counter::new();
        assert!(!register_counter("metrics.test.registered", &OTHER));
        OWNED.add(3); // owner bumps directly, tracing still off
        let c = counters();
        assert!(
            c.contains(&("metrics.test.registered", 3)),
            "registered counter visible while tracing is off: {c:?}"
        );
        assert!(std::ptr::eq(counter("metrics.test.registered"), &OWNED));
    }

    #[test]
    fn gauges_are_always_on_last_write_wins() {
        let _g = test_lock::hold();
        crate::disable();
        set_gauge("metrics.test.gauge", 9);
        set_gauge("metrics.test.gauge", 4);
        assert!(gauges().contains(&("metrics.test.gauge", 4)));
        assert_eq!(gauge("metrics.test.gauge").get(), 4);
    }

    #[test]
    fn registry_interns_and_gates_on_the_flag() {
        let _g = test_lock::hold();
        crate::disable();
        count("metrics.test.gated", 7);
        assert_eq!(
            counters()
                .iter()
                .find(|(n, _)| *n == "metrics.test.gated")
                .map(|&(_, v)| v),
            None
        );
        crate::enable();
        count("metrics.test.gated", 7);
        record("metrics.test.hist", 8);
        crate::disable();
        let c = counters();
        assert!(c.contains(&("metrics.test.gated", 7)));
        let h = histograms();
        let (_, snap) = h
            .iter()
            .find(|(n, _)| *n == "metrics.test.hist")
            .expect("registered");
        assert_eq!(snap.count(), 1);
        // Same name returns the same interned counter.
        assert!(std::ptr::eq(
            counter("metrics.test.gated"),
            counter("metrics.test.gated")
        ));
        reset_metrics();
        assert_eq!(counter("metrics.test.gated").get(), 0);
    }
}
