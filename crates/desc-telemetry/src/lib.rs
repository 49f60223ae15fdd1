//! Unified telemetry for the DESC workspace.
//!
//! Three pieces, all dependency-free so the build stays hermetic:
//!
//! 1. A process-wide **metric registry** ([`Registry`]) of atomic
//!    [`Counter`]s, [`Gauge`]s, and log2-bucketed [`Histogram`]s, with
//!    static-caching registration macros ([`counter!`], [`gauge!`],
//!    [`histogram!`]) so a hot path pays one pointer load after the
//!    first use.
//! 2. A **span trace**: fixed-capacity per-thread ring buffers of
//!    labelled wall-clock spans ([`span`]), merged and time-sorted at
//!    [`drain_spans`], so parallel sweeps can report per-cell timing.
//! 3. **Machine-readable run reports**: an in-tree JSON value type with
//!    writer *and* parser ([`json`]) plus a [`report`] builder that
//!    serializes a registry snapshot with build/seed/config metadata.
//!    The emitted `desc-run-report/v1` format is specified in
//!    `docs/REPORT_SCHEMA.md` at the repository root (key-by-key
//!    tables, a worked example, and the stability/versioning rules);
//!    `tests/schema_doc.rs` pins the document to the code.
//!
//! # Zero cost when disabled
//!
//! Telemetry is off by default. Every instrumentation site in the
//! workspace is guarded by [`enabled`] — a single relaxed atomic load
//! and a branch — so instrumented hot paths (e.g. `Link::transfer`,
//! which runs on the order of a million transfers per second) are
//! unchanged when telemetry is off. Metric updates use only
//! order-independent operations (add, max), so counter values are
//! identical for any `--jobs N` worker count.
//!
//! # Examples
//!
//! ```
//! desc_telemetry::set_enabled(true);
//! desc_telemetry::counter!("example.requests").add(3);
//! desc_telemetry::histogram!("example.latency_cycles").record(17);
//! let snap = desc_telemetry::global().snapshot();
//! assert_eq!(snap.counter("example.requests"), Some(3));
//! desc_telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod chrome;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod trace;

pub use capture::{capture_sink, install_capture, replay, with_capture, CaptureGuard, CaptureSink};
pub use chrome::{chrome_trace, write_chrome_trace};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram, HISTOGRAM_BUCKETS};
pub use registry::{MetricValue, Registry, Snapshot};
pub use report::{
    CacheReport, PoolUtilization, RegionUtilization, Report, ReportMeta, ServeReport,
    WorkerUtilization,
};
pub use trace::{
    current_worker, drain_spans, now_us, set_context, span, spans_dropped, worker_names, Span,
    SpanGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when telemetry collection is on. One relaxed load — this is
/// the guard every instrumentation site branches on.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metric registry.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Looks up (registering on first use) the named [`Counter`] in the
/// global registry, caching the reference in a hidden `static` so
/// subsequent hits are a single pointer load.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Looks up (registering on first use) the named [`Gauge`] in the
/// global registry; cached like [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Looks up (registering on first use) the named [`Histogram`] in the
/// global registry; cached like [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| $crate::global().histogram($name))
    }};
}
