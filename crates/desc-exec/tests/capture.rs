//! Pins the capture-propagation contract: a metric capture sink
//! installed on the thread that submits a region is mirrored into by
//! every pool worker that drains the region — including nested
//! regions submitted from inside pooled tasks — while the global
//! registry still sees every update (mirror, not redirect).
//!
//! Lives in its own integration test binary (= its own process)
//! because it flips the process-wide telemetry switch.

use desc_telemetry::{counter, CaptureSink};

#[test]
fn submitter_sink_is_mirrored_by_pool_workers() {
    desc_telemetry::set_enabled(true);
    desc_exec::configure(4);

    let sink = CaptureSink::new();
    let outputs = desc_telemetry::with_capture(&sink, || {
        desc_exec::run_labeled("capture_outer", 8, 4, |i| {
            counter!("exec.capture.test.outer").add(1);
            // A nested region: its tasks may run on yet other workers,
            // but Region::new snapshots this (pooled) thread's sink.
            let inner: Vec<u64> = desc_exec::run_labeled("capture_inner", 3, 2, |j| {
                counter!("exec.capture.test.inner").add(1);
                j as u64
            });
            i as u64 + inner.iter().sum::<u64>()
        })
    });
    assert_eq!(outputs.len(), 8);

    let delta = sink.snapshot();
    assert_eq!(delta.counter("exec.capture.test.outer"), Some(8));
    assert_eq!(delta.counter("exec.capture.test.inner"), Some(24));

    // Mirror, not redirect: the global registry saw the same totals.
    let reg = desc_telemetry::global();
    assert_eq!(reg.counter("exec.capture.test.outer").get(), 8);
    assert_eq!(reg.counter("exec.capture.test.inner").get(), 24);

    // Outside the capture scope nothing is mirrored anywhere.
    let again: Vec<()> = desc_exec::run_labeled("capture_outer", 4, 4, |_| {
        counter!("exec.capture.test.outer").add(1);
    });
    assert_eq!(again.len(), 4);
    assert_eq!(sink.snapshot().counter("exec.capture.test.outer"), Some(8));
    assert_eq!(reg.counter("exec.capture.test.outer").get(), 12);
}
