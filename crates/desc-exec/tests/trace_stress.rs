//! Multi-thread tracing stress test: hammer the pool with nested,
//! labeled fork-join regions while telemetry is on, then check the
//! drained timeline is complete, time-sorted, and attributed to the
//! right workers and region labels — and that the utilization stanza
//! agrees with it.
//!
//! Telemetry state is process-global, so the whole scenario lives in
//! one `#[test]`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

const OUTER: usize = 24;
const INNER: usize = 16;

#[test]
fn stressed_pool_produces_a_complete_attributed_timeline() {
    desc_exec::configure(4);
    desc_telemetry::set_enabled(true);
    desc_telemetry::set_context("stress");
    let before = desc_exec::stats();
    let dropped_before = desc_telemetry::spans_dropped();

    // Nested fan-out: OUTER cells, each spinning briefly, each opening
    // its own span, and each submitting an INNER region — the shape of
    // a figure sweep over sharded simulations. On a loaded host a short
    // cell can finish before a second pool thread wakes, so each cell
    // first waits (up to a shared 5 s deadline) until two distinct
    // threads have entered one.
    let work = AtomicU64::new(0);
    let entered: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let deadline = Instant::now() + Duration::from_secs(5);
    let totals = desc_exec::run_labeled("stress-outer", OUTER, 4, |c| {
        let _span = desc_telemetry::span("stress-cell", format!("cell{c}"));
        let two_entered = || {
            let mut threads = entered.lock().expect("entered");
            let me = thread::current().id();
            if !threads.contains(&me) {
                threads.push(me);
            }
            threads.len() >= 2
        };
        while !two_entered() && Instant::now() < deadline {
            thread::yield_now();
        }
        let inner = desc_exec::run_labeled("stress-inner", INNER, 2, |p| {
            // Enough work for a nonzero clock reading now and then.
            let mut acc = 0u64;
            for i in 0..2_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i ^ (c as u64) ^ (p as u64));
            }
            work.fetch_add(1, Ordering::Relaxed);
            acc
        });
        inner.len()
    });
    assert_eq!(totals, vec![INNER; OUTER], "every inner region must complete");
    assert_eq!(work.load(Ordering::Relaxed), (OUTER * INNER) as u64);

    desc_telemetry::set_context("");
    desc_telemetry::set_enabled(false);
    let spans = desc_telemetry::drain_spans();
    let after = desc_exec::stats();

    // Complete: one cell span per outer task, one region span per
    // run_labeled call (nothing dropped, so the ring kept everything).
    assert_eq!(desc_telemetry::spans_dropped(), dropped_before, "rings overflowed mid-test");
    let cells: Vec<_> = spans.iter().filter(|s| s.name == "stress-cell").collect();
    assert_eq!(cells.len(), OUTER, "one span per outer cell");
    let mut labels: Vec<&str> = cells.iter().map(|s| s.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), OUTER, "cell labels are distinct");
    let regions: BTreeMap<&str, usize> =
        spans.iter().filter(|s| s.name == "region").fold(BTreeMap::new(), |mut m, s| {
            *m.entry(s.label.as_str()).or_default() += 1;
            m
        });
    assert_eq!(regions.get("stress-outer"), Some(&1));
    assert_eq!(regions.get("stress-inner"), Some(&OUTER));

    // Time-sorted, with every span carrying the context and a worker
    // ordinal that resolves to a registered thread name.
    let names = desc_telemetry::worker_names();
    for pair in spans.windows(2) {
        assert!(pair[0].start_us <= pair[1].start_us, "drain_spans must be time-sorted");
    }
    for s in spans.iter().filter(|s| s.name == "stress-cell" || s.name == "region") {
        assert_eq!(s.ctx, "stress", "span {}/{} lost its context", s.name, s.label);
        assert!(
            (s.worker as usize) < names.len(),
            "span worker {} has no registered name",
            s.worker
        );
    }

    // Worker attribution: with a 4-wide pool and 24 spinning cells,
    // more than one thread must have recorded cell spans, and each
    // cell span's worker must be either the submitting thread or a
    // pool worker (named desc-exec-*).
    let mut cell_workers: Vec<u32> = cells.iter().map(|s| s.worker).collect();
    cell_workers.sort_unstable();
    cell_workers.dedup();
    assert!(cell_workers.len() > 1, "all {OUTER} cells landed on one thread despite a 4-wide pool");

    // Pool accounting agrees with the timeline: the outer region plus
    // one nested region per outer task, every inner submission counted
    // as nested.
    assert!(after.regions_nested >= before.regions_nested + OUTER as u64);
    assert!(
        after.tasks_executed >= before.tasks_executed + (OUTER + OUTER * INNER) as u64,
        "task count must cover outer and inner work"
    );

    // Utilization sees the same picture: both labels present, task
    // counts exact, and busy time attributed to the same workers that
    // recorded spans.
    let util = desc_exec::utilization();
    let by_label: BTreeMap<&str, &desc_telemetry::RegionUtilization> =
        util.regions.iter().map(|r| (r.label.as_str(), r)).collect();
    let outer = by_label.get("stress-outer").expect("outer region in utilization");
    let inner = by_label.get("stress-inner").expect("inner region in utilization");
    assert_eq!(outer.tasks, OUTER as u64);
    assert_eq!(inner.tasks, (OUTER * INNER) as u64);
    let bucket_total: u64 = outer.run_us_buckets.iter().map(|&(_, n)| n).sum();
    assert_eq!(bucket_total, outer.tasks, "sparse buckets must cover every task");
    let util_workers: Vec<u32> = util.workers.iter().map(|w| w.worker).collect();
    for w in &cell_workers {
        assert!(
            util_workers.contains(w),
            "worker {w} recorded spans but is missing from utilization"
        );
    }
}
