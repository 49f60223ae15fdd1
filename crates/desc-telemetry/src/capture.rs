//! Per-thread capture of registry metric updates, and replay of a
//! captured delta back into the global registry.
//!
//! This is the telemetry half of the content-addressed cell cache
//! (`desc-cache`): a cold cell computation runs with a
//! [`CaptureSink`] installed on its thread, so every update to a
//! *named* (registry-owned) metric is **mirrored** — the global
//! registry still receives the update as usual, and the sink records
//! the same delta on the side. The per-cell delta is stored next to
//! the cell result; a warm cache hit calls [`replay`] to apply the
//! stored delta to the global registry, making a warm run's report
//! `metrics` byte-identical to a cold run's.
//!
//! Design points:
//!
//! - **Mirror, not redirect.** A captured run is metric-identical to
//!   an uncaptured run; capture only *also* records the delta.
//! - **Thread-local installation, pool-aware.** [`install_capture`]
//!   installs a sink on the current thread (guard-restored).
//!   `desc-exec` snapshots the submitting thread's sink when a region
//!   is created and installs it on every worker that drains the
//!   region, so a cell's nested partition work is captured no matter
//!   which pool thread runs it.
//! - **Zero cost when idle.** Every mirror hook first checks a
//!   process-wide count of installed sinks with one relaxed load.
//! - **Registration parity.** Mirror hooks fire even for zero-valued
//!   updates, so replaying a delta registers exactly the metric names
//!   the direct computation would have registered.
//! - **Gauges replay as running maxima.** Every gauge is a running
//!   maximum ([`crate::Gauge::record_max`], e.g.
//!   `core.cost.max_cycles`), so replay's `record_max` is exact: it is
//!   order-independent and idempotent.

use crate::metrics::HISTOGRAM_BUCKETS;
use crate::registry::{MetricValue, Snapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of threads with a sink currently installed. The fast path
/// for every mirror hook: one relaxed load, and when it is zero the
/// hook returns immediately.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SINK: RefCell<Option<Arc<CaptureSink>>> = const { RefCell::new(None) };
}

#[derive(Debug, Clone, Copy)]
struct HistCap {
    count: u64,
    sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

#[derive(Debug, Default)]
struct SinkInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistCap>,
    /// Operational side-channel counters ([`CaptureSink::incr_op`]),
    /// deliberately excluded from [`CaptureSink::snapshot`]: they
    /// describe how the scope's work was *served* (e.g. how many cells
    /// a `desc-serve` request received from an in-flight leader), not
    /// what it computed, so they must never reach the deterministic
    /// `metrics` stanza.
    ops: BTreeMap<String, u64>,
}

/// An accumulating record of named-metric updates on the threads it
/// is installed on. Unlike [`crate::Registry`] it never leaks:
/// thousands of short-lived per-cell sinks are expected.
#[derive(Debug, Default)]
pub struct CaptureSink {
    inner: Mutex<SinkInner>,
}

impl CaptureSink {
    /// A fresh empty sink, ready to pass to [`install_capture`] /
    /// [`with_capture`] (shared `Arc` so `desc-exec` workers can
    /// mirror into the same sink).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The captured delta as a name-sorted [`Snapshot`], shaped
    /// exactly like [`crate::Registry::snapshot`] so it can be stored
    /// and later [`replay`]ed.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("capture sink poisoned");
        let mut metrics =
            Vec::with_capacity(inner.counters.len() + inner.gauges.len() + inner.histograms.len());
        for (name, &v) in &inner.counters {
            metrics.push((name.clone(), MetricValue::Counter(v)));
        }
        for (name, &v) in &inner.gauges {
            metrics.push((name.clone(), MetricValue::Gauge(v)));
        }
        for (name, h) in &inner.histograms {
            metrics.push((
                name.clone(),
                MetricValue::Histogram { count: h.count, sum: h.sum, buckets: Box::new(h.buckets) },
            ));
        }
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { metrics }
    }

    /// True when nothing has been captured yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock().expect("capture sink poisoned");
        inner.counters.is_empty() && inner.gauges.is_empty() && inner.histograms.is_empty()
    }

    /// Merges a captured delta into this sink *without* touching the
    /// global registry: counters and histogram parts add, gauges raise
    /// (`record_max`), mirroring [`replay`]'s semantics. This is how a
    /// scope that wraps cached work (e.g. one `desc-serve` request)
    /// keeps a complete delta even though nested per-cell sinks shadow
    /// it: the cell path absorbs each cell's delta — freshly captured
    /// on a cold compute, loaded from the store on a warm hit —
    /// into the sink that was installed before the cell's own.
    pub fn absorb(&self, delta: &Snapshot) {
        for (name, value) in &delta.metrics {
            match value {
                MetricValue::Counter(n) => self.add_counter(name, *n),
                MetricValue::Gauge(v) => self.gauge_max(name, *v),
                MetricValue::Histogram { count, sum, buckets } => {
                    self.hist_parts(
                        name,
                        &HistCap { count: *count, sum: *sum, buckets: **buckets },
                    );
                }
            }
        }
    }

    /// Increments an operational side-channel counter on this sink.
    /// Unlike mirrored metrics these are scoped to the sink alone
    /// (nothing reaches the global registry) and excluded from
    /// [`CaptureSink::snapshot`], so a scope can count *how* its work
    /// was served without perturbing the deterministic delta.
    pub fn incr_op(&self, name: &str) {
        let mut inner = self.inner.lock().expect("capture sink poisoned");
        if let Some(v) = inner.ops.get_mut(name) {
            *v += 1;
        } else {
            inner.ops.insert(name.to_owned(), 1);
        }
    }

    /// The current value of an operational counter (0 if never
    /// incremented).
    #[must_use]
    pub fn op_count(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("capture sink poisoned");
        inner.ops.get(name).copied().unwrap_or(0)
    }

    fn add_counter(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock().expect("capture sink poisoned");
        if let Some(v) = inner.counters.get_mut(name) {
            *v = v.wrapping_add(n);
        } else {
            inner.counters.insert(name.to_owned(), n);
        }
    }

    fn gauge_max(&self, name: &str, v: u64) {
        let mut inner = self.inner.lock().expect("capture sink poisoned");
        if let Some(cur) = inner.gauges.get_mut(name) {
            *cur = (*cur).max(v);
        } else {
            inner.gauges.insert(name.to_owned(), v);
        }
    }

    fn hist_sample(&self, name: &str, value: u64) {
        let mut parts = HistCap { count: 1, sum: value, buckets: [0; HISTOGRAM_BUCKETS] };
        parts.buckets[crate::metrics::bucket_index(value)] = 1;
        self.hist_parts(name, &parts);
    }

    fn hist_parts(&self, name: &str, parts: &HistCap) {
        let mut inner = self.inner.lock().expect("capture sink poisoned");
        if let Some(h) = inner.histograms.get_mut(name) {
            h.count += parts.count;
            h.sum = h.sum.wrapping_add(parts.sum);
            for (mine, &theirs) in h.buckets.iter_mut().zip(&parts.buckets) {
                *mine += theirs;
            }
        } else {
            inner.histograms.insert(name.to_owned(), *parts);
        }
    }
}

/// Restores the previously installed sink (if any) when dropped.
#[derive(Debug)]
pub struct CaptureGuard {
    prev: Option<Arc<CaptureSink>>,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        set_sink(self.prev.take());
    }
}

fn set_sink(new: Option<Arc<CaptureSink>>) -> Option<Arc<CaptureSink>> {
    let installing = new.is_some();
    let prev = SINK.with(|s| s.replace(new));
    match (prev.is_some(), installing) {
        (false, true) => {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        (true, false) => {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
        _ => {}
    }
    prev
}

/// Installs `sink` (or clears the installation with `None`) on the
/// current thread until the returned guard drops, restoring whatever
/// was installed before.
#[must_use]
pub fn install_capture(sink: Option<Arc<CaptureSink>>) -> CaptureGuard {
    CaptureGuard { prev: set_sink(sink) }
}

/// Runs `f` with `sink` installed on the current thread.
pub fn with_capture<R>(sink: &Arc<CaptureSink>, f: impl FnOnce() -> R) -> R {
    let _guard = install_capture(Some(Arc::clone(sink)));
    f()
}

/// The sink installed on the current thread, if any. `desc-exec`
/// snapshots this at region-submission time so pooled tasks inherit
/// the submitter's capture.
#[must_use]
pub fn capture_sink() -> Option<Arc<CaptureSink>> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SINK.with(|s| s.borrow().clone())
}

/// Applies a captured delta to the global registry: counters and
/// histogram parts add, gauges raise (`record_max`). Replay never
/// re-mirrors, so it is safe while a capture is installed.
pub fn replay(delta: &Snapshot) {
    let reg = crate::global();
    for (name, value) in &delta.metrics {
        match value {
            MetricValue::Counter(n) => reg.counter(name).add_raw(*n),
            MetricValue::Gauge(v) => reg.gauge(name).max_raw(*v),
            MetricValue::Histogram { count, sum, buckets } => {
                reg.histogram(name).add_parts(*count, *sum, buckets);
            }
        }
    }
}

fn mirror(apply: impl FnOnce(&CaptureSink)) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow().as_deref() {
            apply(sink);
        }
    });
}

#[inline]
pub(crate) fn mirror_counter(name: &str, n: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    mirror(|sink| sink.add_counter(name, n));
}

#[inline]
pub(crate) fn mirror_gauge_max(name: &str, v: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    mirror(|sink| sink.gauge_max(name, v));
}

#[inline]
pub(crate) fn mirror_histogram_sample(name: &str, value: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    mirror(|sink| sink.hist_sample(name, value));
}

#[inline]
pub(crate) fn mirror_histogram_parts(
    name: &str,
    count: u64,
    sum: u64,
    buckets: &[u64; HISTOGRAM_BUCKETS],
) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    mirror(|sink| sink.hist_parts(name, &HistCap { count, sum, buckets: *buckets }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalHistogram;

    #[test]
    fn mirror_records_delta_and_global_still_updates() {
        let reg = crate::global();
        let before = reg.counter("capture.test.mirrored").get();
        let sink = CaptureSink::new();
        with_capture(&sink, || {
            reg.counter("capture.test.mirrored").add(5);
            reg.gauge("capture.test.max").record_max(9);
            reg.histogram("capture.test.hist").record(3);
            reg.histogram("capture.test.hist").record(0);
        });
        // Global registry saw every update (mirror, not redirect).
        assert_eq!(reg.counter("capture.test.mirrored").get(), before + 5);
        let delta = sink.snapshot();
        assert_eq!(delta.counter("capture.test.mirrored"), Some(5));
        assert_eq!(delta.gauge("capture.test.max"), Some(9));
        assert_eq!(delta.histogram("capture.test.hist"), Some((2, 3)));
        // Nothing mirrors once the guard is gone.
        reg.counter("capture.test.mirrored").add(1);
        assert_eq!(sink.snapshot().counter("capture.test.mirrored"), Some(5));
    }

    #[test]
    fn absorb_merges_like_replay_without_touching_the_registry() {
        let reg = crate::global();
        let cell = CaptureSink::new();
        with_capture(&cell, || {
            reg.counter("capture.test.absorbed").add(4);
            reg.gauge("capture.test.absorbed_max").record_max(11);
            reg.histogram("capture.test.absorbed_hist").record(7);
        });
        let delta = cell.snapshot();
        let global_before = reg.counter("capture.test.absorbed").get();

        let outer = CaptureSink::new();
        outer.absorb(&delta);
        outer.absorb(&delta);
        let merged = outer.snapshot();
        // Counters and histograms add across absorbs; gauges stay max.
        assert_eq!(merged.counter("capture.test.absorbed"), Some(8));
        assert_eq!(merged.gauge("capture.test.absorbed_max"), Some(11));
        assert_eq!(merged.histogram("capture.test.absorbed_hist"), Some((2, 14)));
        // The global registry never saw the absorbs.
        assert_eq!(reg.counter("capture.test.absorbed").get(), global_before);
    }

    /// The contract a request-scoped sink relies on: with a store in
    /// the middle, "absorb the inner delta into the outer sink" makes
    /// the outer sink identical to capturing the work directly.
    #[test]
    fn outer_sink_plus_absorb_equals_direct_capture() {
        let reg = crate::global();
        let direct = CaptureSink::new();
        with_capture(&direct, || {
            reg.counter("capture.test.composed").add(5);
            reg.histogram("capture.test.composed_hist").record(3);
        });

        let outer = CaptureSink::new();
        with_capture(&outer, || {
            let cell = CaptureSink::new();
            with_capture(&cell, || {
                reg.counter("capture.test.composed").add(5);
                reg.histogram("capture.test.composed_hist").record(3);
            });
            if let Some(current) = capture_sink() {
                current.absorb(&cell.snapshot());
            }
        });
        assert_eq!(outer.snapshot(), direct.snapshot());
    }

    #[test]
    fn op_counters_stay_out_of_the_snapshot() {
        let sink = CaptureSink::new();
        assert_eq!(sink.op_count("dedup_cells"), 0);
        sink.incr_op("dedup_cells");
        sink.incr_op("dedup_cells");
        assert_eq!(sink.op_count("dedup_cells"), 2);
        // The deterministic delta never sees the side channel.
        assert!(sink.snapshot().metrics.is_empty());
        assert!(sink.is_empty(), "op counters are not captured metrics");
    }

    #[test]
    fn zero_valued_updates_register_names() {
        let reg = crate::global();
        let sink = CaptureSink::new();
        with_capture(&sink, || {
            reg.counter("capture.test.zero").add(0);
            reg.histogram("capture.test.zero_hist").merge(&LocalHistogram::new());
        });
        let delta = sink.snapshot();
        assert_eq!(delta.counter("capture.test.zero"), Some(0));
        assert_eq!(delta.histogram("capture.test.zero_hist"), Some((0, 0)));
    }

    #[test]
    fn replay_matches_direct_updates() {
        let reg = crate::global();
        let sink = CaptureSink::new();
        with_capture(&sink, || {
            reg.counter("capture.test.replayed").add(4);
            reg.gauge("capture.test.replayed_max").record_max(11);
            let mut local = LocalHistogram::new();
            local.record(7);
            local.record(70);
            reg.histogram("capture.test.replayed_hist").merge(&local);
        });
        let delta = sink.snapshot();
        replay(&delta);
        // Counter doubled (direct + replay); gauge idempotent max.
        assert_eq!(reg.counter("capture.test.replayed").get(), 8);
        assert_eq!(reg.gauge("capture.test.replayed_max").get(), 11);
        assert_eq!(reg.histogram("capture.test.replayed_hist").count(), 4);
        assert_eq!(reg.histogram("capture.test.replayed_hist").sum(), 154);
    }

    #[test]
    fn nested_installs_restore_the_outer_sink() {
        let reg = crate::global();
        let outer = CaptureSink::new();
        let inner = CaptureSink::new();
        with_capture(&outer, || {
            with_capture(&inner, || reg.counter("capture.test.nested").add(2));
            reg.counter("capture.test.nested").add(3);
        });
        assert_eq!(inner.snapshot().counter("capture.test.nested"), Some(2));
        assert_eq!(outer.snapshot().counter("capture.test.nested"), Some(3));
        assert!(capture_sink().is_none());
    }
}
