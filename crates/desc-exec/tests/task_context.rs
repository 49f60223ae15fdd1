//! Pins the task-context contract: a region submitted from a pool
//! worker inherits all three parts of its parent's context — the
//! submitter's metric capture sink, its cancel token and its
//! fair-share group — not just whichever the worker happens to hold.
//!
//! Each check forces a nested region onto a pool worker: the outer
//! region has two tasks and a cap of two, and each task waits until
//! both have started, so one of them must be running on a worker
//! while the submitting thread runs the other.
//!
//! Lives in its own integration test binary (= its own process)
//! because it flips the process-wide telemetry switch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use desc_exec::{CancelToken, Cancelled, Group};
use desc_telemetry::{counter, CaptureSink};

const NESTED: usize = 16;

/// Blocks until both outer tasks have started, then reports whether
/// this one runs on a pool worker rather than the submitting thread.
fn rendezvous(started: &AtomicUsize) -> bool {
    started.fetch_add(1, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while started.load(Ordering::SeqCst) < 2 {
        assert!(Instant::now() < deadline, "the second outer task never started");
        std::thread::yield_now();
    }
    std::thread::current().name().is_some_and(|n| n.starts_with("desc-exec-"))
}

#[test]
fn nested_region_on_a_worker_inherits_sink_cancel_and_group() {
    desc_telemetry::set_enabled(true);
    desc_exec::configure(2);
    assert!(desc_exec::stats().workers >= 1, "pool must have a real worker");

    // Sink and group: every nested task's counter reaches the
    // submitter's sink, and every nested claim is charged to the
    // submitter's group.
    let sink = CaptureSink::new();
    let group = Group::new("ctx-owner", 1);
    let started = AtomicUsize::new(0);
    let on_worker = desc_telemetry::with_capture(&sink, || {
        let _group = desc_exec::install_group(Some(group.clone()));
        desc_exec::run_labeled("ctx_outer", 2, 2, |_| {
            let on_worker = rendezvous(&started);
            let _: Vec<()> = desc_exec::run_labeled("ctx_inner", NESTED, 2, |_| {
                counter!("exec.ctx.test.nested").add(1);
            });
            on_worker
        })
    });
    assert_eq!(on_worker.iter().filter(|&&w| w).count(), 1, "one outer task runs on a worker");
    assert_eq!(sink.snapshot().counter("exec.ctx.test.nested"), Some(2 * NESTED as u64));
    assert_eq!(group.tasks(), 2 + 2 * NESTED as u64, "outer and nested claims charge the group");

    // Cancel: the worker-side nested region cancels the submitter's
    // token from its first task, and that region stops claiming.
    let token = CancelToken::new();
    let ran = AtomicUsize::new(0);
    let started = AtomicUsize::new(0);
    let result = {
        let _cancel = desc_exec::install_cancel(Some(token.clone()));
        catch_unwind(AssertUnwindSafe(|| {
            desc_exec::run_labeled("ctx_outer", 2, 2, |_| {
                if rendezvous(&started) {
                    let _: Vec<()> = desc_exec::run_labeled("ctx_inner", NESTED, 2, |j| {
                        if j == 0 {
                            token.cancel();
                        }
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        }))
    };
    let payload = result.expect_err("the cancelled nested region must unwind to the submitter");
    assert!(payload.downcast_ref::<Cancelled>().is_some(), "expected a Cancelled payload");
    assert!(ran.load(Ordering::SeqCst) < NESTED, "cancellation must skip nested tasks");
}
