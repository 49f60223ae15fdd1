//! Metric primitives: atomic counters, gauges, and log2-bucketed
//! histograms, plus a non-atomic [`LocalHistogram`] for hot loops.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `b` (1..=64) holds values whose bit length is `b`, i.e. the range
/// `[2^(b-1), 2^b)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: 0 for 0, otherwise the bit
/// length of the value (1..=64). `u64::MAX` lands in bucket 64.
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Lower bound of a bucket (inclusive). Bucket 0 covers exactly 0.
#[must_use]
pub fn bucket_floor(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b => 1u64 << (b - 1),
    }
}

/// A monotonically increasing event count. All operations are
/// order-independent (wrapping add), so totals are identical no
/// matter how work is split across threads.
///
/// Registry-owned counters carry their registration name so updates
/// can be mirrored into an installed [`crate::capture::CaptureSink`];
/// standalone counters (`Counter::new`) have an empty name and are
/// never mirrored.
#[derive(Debug, Default)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A fresh zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Self::named("")
    }

    /// A fresh zeroed counter that mirrors updates under `name`.
    #[must_use]
    pub(crate) const fn named(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Adds `n` to the counter.
    ///
    /// Mirrored into the thread's capture sink even when `n` is 0, so
    /// a captured delta registers exactly the metric names the direct
    /// run would.
    #[inline]
    pub fn add(&self, n: u64) {
        self.add_raw(n);
        if !self.name.is_empty() {
            crate::capture::mirror_counter(self.name, n);
        }
    }

    /// Adds `n` without mirroring into any capture sink (replay path).
    #[inline]
    pub(crate) fn add_raw(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A running-maximum metric. [`Gauge::record_max`] is
/// order-independent, so a gauge is deterministic in parallel code and
/// a captured delta replays exactly.
#[derive(Debug, Default)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// A fresh zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Self::named("")
    }

    /// A fresh zeroed gauge that mirrors updates under `name`.
    #[must_use]
    pub(crate) const fn named(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Raises the gauge to `v` if `v` is larger (order-independent).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.max_raw(v);
        if !self.name.is_empty() {
            crate::capture::mirror_gauge_max(self.name, v);
        }
    }

    /// Raises the gauge without mirroring into any capture sink
    /// (replay path).
    #[inline]
    pub(crate) fn max_raw(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the gauge to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of `u64` samples.
///
/// 65 buckets: bucket 0 is exactly 0; bucket `b` covers
/// `[2^(b-1), 2^b)`. Count, sum, and per-bucket totals are all
/// relaxed atomic adds, so merged results are independent of thread
/// interleaving.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::named("")
    }

    /// A fresh empty histogram that mirrors updates under `name`.
    #[must_use]
    pub(crate) fn named(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        if !self.name.is_empty() {
            crate::capture::mirror_histogram_sample(self.name, value);
        }
    }

    /// Adds pre-aggregated parts without mirroring into any capture
    /// sink (replay path). A zero-count add is a no-op for the stored
    /// totals; the histogram itself is registered by the lookup that
    /// produced `self`.
    pub(crate) fn add_parts(&self, count: u64, sum: u64, buckets: &[u64; HISTOGRAM_BUCKETS]) {
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        for (slot, &n) in self.buckets.iter().zip(buckets) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Total number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Wrapping sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts.
    #[must_use]
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Mean sample value, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Merges a thread-local histogram into this one.
    ///
    /// Mirrored into the thread's capture sink even when `local` is
    /// empty, so a captured delta registers exactly the metric names
    /// the direct run would.
    pub fn merge(&self, local: &LocalHistogram) {
        if !self.name.is_empty() {
            crate::capture::mirror_histogram_parts(
                self.name,
                local.count,
                local.sum,
                &local.buckets,
            );
        }
        if local.count == 0 {
            return;
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        for (i, &n) in local.buckets.iter().enumerate() {
            if n != 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Clears count, sum, and every bucket.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A non-atomic histogram for single-threaded hot loops. Record into
/// this locally and [`Histogram::merge`] once at the end of the run —
/// the inner-loop cost is then a couple of plain adds, not atomics.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    count: u64,
    sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// A fresh empty local histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { count: 0, sum: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of samples recorded locally.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrapping sum of local samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Flushes this local histogram into `target` and clears it.
    pub fn flush_into(&mut self, target: &Histogram) {
        target.merge(self);
        *self = Self::new();
    }

    /// Merges another local histogram into this one (commutative and
    /// associative, so shard-local histograms can be reduced in any
    /// grouping and flushed once).
    pub fn absorb(&mut self, other: &LocalHistogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_matches_recording_directly() {
        let mut whole = LocalHistogram::new();
        let mut left = LocalHistogram::new();
        let mut right = LocalHistogram::new();
        for v in [0u64, 1, 5, 9, 1000, u64::MAX] {
            whole.record(v);
            if v % 2 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        let mut merged = LocalHistogram::new();
        merged.absorb(&left);
        merged.absorb(&right);
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.sum(), whole.sum());
        assert_eq!(merged.buckets, whole.buckets);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(64), 1u64 << 63);
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        // Sum wraps: 0 + u64::MAX.
        assert_eq!(h.sum(), u64::MAX);
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[64], 1);
        assert_eq!(b[1..64].iter().sum::<u64>(), 0);
    }

    #[test]
    fn local_merge_matches_direct() {
        let direct = Histogram::new();
        let merged = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 5, 1000, u64::MAX, 42, 42] {
            direct.record(v);
            local.record(v);
        }
        local.flush_into(&merged);
        assert_eq!(local.count(), 0);
        assert_eq!(direct.count(), merged.count());
        assert_eq!(direct.sum(), merged.sum());
        assert_eq!(direct.buckets(), merged.buckets());
    }
}
