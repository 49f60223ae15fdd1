//! Machine-readable run reports: registry snapshot + run metadata
//! serialized through the in-tree [`Json`] writer.
//!
//! Schema (`desc-run-report/v1`), top-level keys:
//!
//! - `schema` — the literal `"desc-run-report/v1"`.
//! - `meta` — tool name/version, seed, scale, jobs, shards, experiment list,
//!   dropped-span count, and a wall-clock timestamp (the
//!   non-deterministic fields).
//! - `metrics` — one entry per registered metric, name-sorted; each is
//!   a typed object (`counter` / `gauge` / `histogram`). Histogram
//!   buckets are sparse: only non-empty buckets appear, keyed by
//!   bucket index.
//! - `pool_utilization` — optional executor accounting: per-worker
//!   busy time and per-region queue-wait/run aggregates (present when
//!   the producer supplies a [`PoolUtilization`]).
//! - `cache` — optional cell-cache accounting: hit/miss/store and
//!   single-flight counts (present when the producer supplies a
//!   [`CacheReport`]).
//! - `serve` — optional sweep-service accounting: accepted/rejected/
//!   timed-out/active request counts (present when the producer is a
//!   `desc-serve` process supplying a [`ServeReport`]).
//! - `spans` — drained trace spans in start-time order (wall-clock, so
//!   durations vary run to run; counters never do).
//!
//! The full schema — key-by-key tables, a worked example, and the
//! stability/versioning rules — is specified in `docs/REPORT_SCHEMA.md`
//! at the repository root, and `tests/schema_doc.rs` keeps that
//! document and this module in lockstep.

use crate::json::Json;
use crate::metrics::HISTOGRAM_BUCKETS;
use crate::registry::{MetricValue, Snapshot};
use crate::trace::Span;
use std::time::{SystemTime, UNIX_EPOCH};

/// Metadata identifying the run that produced a report.
#[derive(Debug, Clone, Default)]
pub struct ReportMeta {
    /// Producing binary, e.g. `"repro"`.
    pub tool: String,
    /// Crate version of the producing binary.
    pub version: String,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Scale label, e.g. `"quick"` or `"full"`.
    pub scale: String,
    /// Worker count used for sweeps.
    pub jobs: usize,
    /// Intra-cell worker count (bank shards per simulation cell).
    pub shards: usize,
    /// Experiments that ran, in execution order.
    pub experiments: Vec<String>,
    /// Trace spans lost to ring overflow during the run (see
    /// [`crate::spans_dropped`]); nonzero means the `spans` array is a
    /// truncated timeline and `DESC_TRACE_RING` should be raised.
    pub spans_dropped: u64,
}

/// One worker thread's share of the executor's work, for the
/// `pool_utilization` stanza. Worker ordinals match the span/trace
/// lanes (see [`crate::current_worker`]).
#[derive(Debug, Clone)]
pub struct WorkerUtilization {
    /// Stable worker ordinal (Chrome-trace lane id).
    pub worker: u32,
    /// Thread name (`main`, `desc-exec-0`, ...).
    pub name: String,
    /// Microseconds this thread spent executing pool tasks.
    pub busy_us: u64,
    /// Tasks this thread executed.
    pub tasks: u64,
}

/// Aggregated queue-wait / run-time accounting for one executor
/// region family (e.g. `cells`, `parts`).
#[derive(Debug, Clone)]
pub struct RegionUtilization {
    /// Region label.
    pub label: String,
    /// Tasks executed under this label.
    pub tasks: u64,
    /// Sum of per-task queue waits (submit → task start), µs.
    pub queue_wait_us_sum: u64,
    /// Largest single queue wait, µs.
    pub queue_wait_us_max: u64,
    /// Sparse log2 buckets of queue waits (index → count), as in
    /// metric histograms.
    pub queue_wait_us_buckets: Vec<(usize, u64)>,
    /// Sum of per-task run times, µs.
    pub run_us_sum: u64,
    /// Largest single task run time, µs.
    pub run_us_max: u64,
    /// Sparse log2 buckets of run times (index → count).
    pub run_us_buckets: Vec<(usize, u64)>,
}

impl RegionUtilization {
    /// Converts a full bucket array into the sparse pairs this struct
    /// stores (only non-empty buckets, ascending index).
    #[must_use]
    pub fn sparse_buckets(buckets: &[u64; HISTOGRAM_BUCKETS]) -> Vec<(usize, u64)> {
        buckets.iter().enumerate().filter(|(_, &n)| n != 0).map(|(i, &n)| (i, n)).collect()
    }
}

/// Executor accounting for the `pool_utilization` stanza: how busy
/// each worker lane was and where each region family's time went.
/// Produced by `desc_exec::utilization()`; all values are wall-clock
/// and therefore non-deterministic.
#[derive(Debug, Clone, Default)]
pub struct PoolUtilization {
    /// Microseconds elapsed on the executor's timebase (first timed
    /// task → snapshot), the denominator of every busy fraction.
    pub elapsed_us: u64,
    /// Per-worker busy time, ordered by worker ordinal.
    pub workers: Vec<WorkerUtilization>,
    /// Per-region aggregates, ordered by label.
    pub regions: Vec<RegionUtilization>,
}

impl PoolUtilization {
    /// Serializes the stanza (see `docs/REPORT_SCHEMA.md`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let workers = Json::Arr(
            self.workers
                .iter()
                .map(|w| {
                    let fraction = if self.elapsed_us == 0 {
                        0.0
                    } else {
                        w.busy_us as f64 / self.elapsed_us as f64
                    };
                    Json::obj()
                        .with("worker", Json::UInt(u64::from(w.worker)))
                        .with("name", Json::Str(w.name.clone()))
                        .with("busy_us", Json::UInt(w.busy_us))
                        .with("tasks", Json::UInt(w.tasks))
                        .with("busy_fraction", Json::Num((fraction * 1e4).round() / 1e4))
                })
                .collect(),
        );
        let mut regions = Json::obj();
        for r in &self.regions {
            regions = regions.with(
                &r.label,
                Json::obj()
                    .with("tasks", Json::UInt(r.tasks))
                    .with("queue_wait_us_sum", Json::UInt(r.queue_wait_us_sum))
                    .with("queue_wait_us_max", Json::UInt(r.queue_wait_us_max))
                    .with("queue_wait_us_buckets", sparse_to_json(&r.queue_wait_us_buckets))
                    .with("run_us_sum", Json::UInt(r.run_us_sum))
                    .with("run_us_max", Json::UInt(r.run_us_max))
                    .with("run_us_buckets", sparse_to_json(&r.run_us_buckets)),
            );
        }
        Json::obj()
            .with("elapsed_us", Json::UInt(self.elapsed_us))
            .with("workers", workers)
            .with("regions", regions)
    }
}

fn sparse_to_json(buckets: &[(usize, u64)]) -> Json {
    let mut obj = Json::obj();
    for (i, n) in buckets {
        obj = obj.with(&i.to_string(), Json::UInt(*n));
    }
    obj
}

/// Cell-cache accounting for the `cache` stanza: where this run's
/// cells came from. Built by `desc-cache`'s `CacheStore::report` from
/// the store's counters (desc-telemetry deliberately does not depend on
/// desc-cache, mirroring how [`PoolUtilization`] is filled by
/// `desc-exec`). All values are deterministic for a given store state,
/// but naturally differ between cold and warm runs — determinism
/// comparisons filter the stanza (and the matching `cache.*` registry
/// counters) like `pool.*`.
#[derive(Debug, Clone, Default)]
pub struct CacheReport {
    /// Cache directory backing the store (omitted from JSON when the
    /// store is memory-only).
    pub dir: Option<String>,
    /// Cell-result schema version the store was opened with.
    pub schema_version: u64,
    /// Cells served from the in-memory hot map.
    pub hits_memory: u64,
    /// Cells served from the on-disk store of record.
    pub hits_disk: u64,
    /// Cells computed because no usable entry existed.
    pub misses: u64,
    /// Cell results written to the store.
    pub stores: u64,
    /// Entries skipped due to a schema-version mismatch (recomputed,
    /// never served).
    pub version_mismatches: u64,
    /// Unreadable/corrupt entries or failed writes (recomputed /
    /// non-fatal).
    pub errors: u64,
    /// Hot-tier entries dropped to keep the in-memory map under its
    /// byte budget (`DESC_CACHE_MEM_BYTES`); the disk store of record
    /// is unaffected.
    pub evictions: u64,
    /// Callers that became the single-flight leader for a cold cell.
    pub inflight_leads: u64,
    /// Callers that found their cell already in flight and waited for
    /// the leader instead of recomputing.
    pub inflight_waits: u64,
    /// Waits resolved with the leader's published entry — each one a
    /// duplicate compute avoided.
    pub inflight_hits: u64,
    /// Waits that ended with the leader abandoning the cell (panic or
    /// cancellation); a waiting follower took over leadership.
    pub inflight_handoffs: u64,
}

impl CacheReport {
    /// Serializes the stanza (see `docs/REPORT_SCHEMA.md`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        if let Some(dir) = &self.dir {
            obj = obj.with("dir", Json::Str(dir.clone()));
        }
        obj.with("schema_version", Json::UInt(self.schema_version))
            .with("hits_memory", Json::UInt(self.hits_memory))
            .with("hits_disk", Json::UInt(self.hits_disk))
            .with("misses", Json::UInt(self.misses))
            .with("stores", Json::UInt(self.stores))
            .with("version_mismatches", Json::UInt(self.version_mismatches))
            .with("errors", Json::UInt(self.errors))
            .with("evictions", Json::UInt(self.evictions))
            .with("inflight_leads", Json::UInt(self.inflight_leads))
            .with("inflight_waits", Json::UInt(self.inflight_waits))
            .with("inflight_hits", Json::UInt(self.inflight_hits))
            .with("inflight_handoffs", Json::UInt(self.inflight_handoffs))
    }
}

/// Sweep-service accounting for the `serve` stanza: what the
/// `desc-serve` frontend accepted, rejected, and finished. Filled by
/// `desc-serve` from its admission-gate counters (desc-telemetry
/// deliberately does not depend on desc-serve, mirroring how
/// [`PoolUtilization`] and [`CacheReport`] are filled by their
/// producers). Values are process-cumulative and scheduling-dependent,
/// so determinism comparisons filter the stanza (and the matching
/// `serve.*` registry counters) like `pool.*` / `cache.*`.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Address the service is listening on, e.g. `"127.0.0.1:7013"`.
    pub addr: String,
    /// Maximum `run` requests executing concurrently (admission cap).
    pub workers: u64,
    /// Maximum `run` requests allowed to wait for a free worker.
    pub queue_capacity: u64,
    /// Connections accepted over the process lifetime.
    pub connections: u64,
    /// `run` requests admitted past the gate.
    pub accepted: u64,
    /// `run` requests that finished with an `ok` response.
    pub completed: u64,
    /// `run` requests rejected with `busy` (gate full).
    pub rejected_busy: u64,
    /// Frames or payloads rejected as malformed/oversized/invalid.
    pub rejected_malformed: u64,
    /// Requests that hit their deadline (queued or mid-run).
    pub timed_out: u64,
    /// Requests that failed with an `internal` error.
    pub failed: u64,
    /// Cells served to a request from a cell already being computed by
    /// a concurrent request (single-flight dedup; each one a duplicate
    /// compute avoided process-wide).
    pub dedup_cells: u64,
    /// `run` requests that received at least one deduped cell.
    pub dedup_requests: u64,
    /// `run` requests executing right now.
    pub active: u64,
    /// True once graceful shutdown has begun (drain in progress).
    pub draining: bool,
}

impl ServeReport {
    /// Serializes the stanza (see `docs/REPORT_SCHEMA.md` and
    /// `docs/SERVICE.md`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("addr", Json::Str(self.addr.clone()))
            .with("workers", Json::UInt(self.workers))
            .with("queue_capacity", Json::UInt(self.queue_capacity))
            .with("connections", Json::UInt(self.connections))
            .with("accepted", Json::UInt(self.accepted))
            .with("completed", Json::UInt(self.completed))
            .with("rejected_busy", Json::UInt(self.rejected_busy))
            .with("rejected_malformed", Json::UInt(self.rejected_malformed))
            .with("timed_out", Json::UInt(self.timed_out))
            .with("failed", Json::UInt(self.failed))
            .with("dedup_cells", Json::UInt(self.dedup_cells))
            .with("dedup_requests", Json::UInt(self.dedup_requests))
            .with("active", Json::UInt(self.active))
            .with("draining", Json::Bool(self.draining))
    }
}

/// A run report ready to serialize.
#[derive(Debug, Clone)]
pub struct Report {
    /// Run metadata.
    pub meta: ReportMeta,
    /// Registry snapshot taken at the end of the run.
    pub snapshot: Snapshot,
    /// Executor utilization accounting, when the producer collected
    /// it (serialized as `pool_utilization`; omitted when `None`).
    pub pool: Option<PoolUtilization>,
    /// Cell-cache accounting, when the producer ran with a cache
    /// (serialized as `cache`; omitted when `None`).
    pub cache: Option<CacheReport>,
    /// Sweep-service accounting, when the producer is a `desc-serve`
    /// process (serialized as `serve`; omitted when `None`).
    pub serve: Option<ServeReport>,
    /// Trace spans drained at the end of the run.
    pub spans: Vec<Span>,
}

impl Report {
    /// Serializes the report to the v1 JSON schema.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let timestamp = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let meta = Json::obj()
            .with("tool", Json::Str(self.meta.tool.clone()))
            .with("version", Json::Str(self.meta.version.clone()))
            .with("seed", Json::UInt(self.meta.seed))
            .with("scale", Json::Str(self.meta.scale.clone()))
            .with("jobs", Json::UInt(self.meta.jobs as u64))
            .with("shards", Json::UInt(self.meta.shards as u64))
            .with(
                "experiments",
                Json::Arr(self.meta.experiments.iter().map(|e| Json::Str(e.clone())).collect()),
            )
            .with("spans_dropped", Json::UInt(self.meta.spans_dropped))
            .with("generated_unix_s", Json::UInt(timestamp));

        let mut metrics = Json::obj();
        for (name, value) in &self.snapshot.metrics {
            metrics = metrics.with(name, metric_to_json(value));
        }

        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut span = Json::obj()
                        .with("name", Json::Str(s.name.to_owned()))
                        .with("label", Json::Str(s.label.clone()));
                    if !s.ctx.is_empty() {
                        span = span.with("ctx", Json::Str(s.ctx.clone()));
                    }
                    span.with("worker", Json::UInt(u64::from(s.worker)))
                        .with("start_us", Json::UInt(s.start_us))
                        .with("duration_us", Json::UInt(s.duration_us))
                })
                .collect(),
        );

        let mut doc = Json::obj()
            .with("schema", Json::Str("desc-run-report/v1".to_owned()))
            .with("meta", meta)
            .with("metrics", metrics);
        if let Some(pool) = &self.pool {
            doc = doc.with("pool_utilization", pool.to_json());
        }
        if let Some(cache) = &self.cache {
            doc = doc.with("cache", cache.to_json());
        }
        if let Some(serve) = &self.serve {
            doc = doc.with("serve", serve.to_json());
        }
        doc.with("spans", spans)
    }

    /// Serializes and writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

fn metric_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::obj()
            .with("type", Json::Str("counter".to_owned()))
            .with("value", Json::UInt(*v)),
        MetricValue::Gauge(v) => Json::obj()
            .with("type", Json::Str("gauge".to_owned()))
            .with("value", Json::UInt(*v)),
        MetricValue::Histogram { count, sum, buckets } => {
            let mut sparse = Json::obj();
            for (i, &n) in buckets.iter().enumerate() {
                if n != 0 {
                    sparse = sparse.with(&i.to_string(), Json::UInt(n));
                }
            }
            Json::obj()
                .with("type", Json::Str("histogram".to_owned()))
                .with("count", Json::UInt(*count))
                .with("sum", Json::UInt(*sum))
                .with(
                    "mean",
                    if *count == 0 {
                        Json::Num(0.0)
                    } else {
                        Json::Num(*sum as f64 / *count as f64)
                    },
                )
                .with("buckets", sparse)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn report_has_required_keys_and_round_trips() {
        let r = Registry::new();
        r.counter("a.count").add(5);
        r.histogram("a.lat").record(100);
        let report = Report {
            meta: ReportMeta {
                tool: "test".to_owned(),
                version: "0.0.0".to_owned(),
                seed: 2013,
                scale: "quick".to_owned(),
                jobs: 4,
                shards: 2,
                experiments: vec!["fig16".to_owned()],
                spans_dropped: 0,
            },
            snapshot: r.snapshot(),
            pool: Some(PoolUtilization {
                elapsed_us: 100,
                workers: vec![WorkerUtilization {
                    worker: 0,
                    name: "main".to_owned(),
                    busy_us: 50,
                    tasks: 3,
                }],
                regions: vec![RegionUtilization {
                    label: "cells".to_owned(),
                    tasks: 3,
                    queue_wait_us_sum: 9,
                    queue_wait_us_max: 6,
                    queue_wait_us_buckets: vec![(2, 3)],
                    run_us_sum: 41,
                    run_us_max: 20,
                    run_us_buckets: vec![(4, 2), (5, 1)],
                }],
            }),
            cache: Some(CacheReport {
                dir: Some("/tmp/cache".to_owned()),
                schema_version: 1,
                hits_memory: 2,
                hits_disk: 3,
                misses: 4,
                stores: 4,
                version_mismatches: 0,
                errors: 0,
                evictions: 1,
                inflight_leads: 4,
                inflight_waits: 2,
                inflight_hits: 2,
                inflight_handoffs: 0,
            }),
            serve: Some(ServeReport {
                addr: "127.0.0.1:7013".to_owned(),
                workers: 2,
                queue_capacity: 8,
                connections: 5,
                accepted: 4,
                completed: 4,
                rejected_busy: 1,
                rejected_malformed: 0,
                timed_out: 0,
                failed: 0,
                dedup_cells: 2,
                dedup_requests: 1,
                active: 0,
                draining: false,
            }),
            spans: vec![Span {
                name: "cell",
                label: "x".to_owned(),
                ctx: "fig16".to_owned(),
                worker: 0,
                start_us: 1,
                duration_us: 2,
            }],
        };
        let json = report.to_json();
        for key in ["schema", "meta", "metrics", "pool_utilization", "cache", "serve", "spans"] {
            assert!(json.get(key).is_some(), "missing top-level key {key}");
        }
        assert_eq!(json.get("schema").and_then(Json::as_str), Some("desc-run-report/v1"));
        let text = json.to_pretty();
        let back = Json::parse(&text).expect("report parses back");
        let metric = back.get("metrics").and_then(|m| m.get("a.count")).expect("metric present");
        assert_eq!(metric.get("value").and_then(Json::as_u64), Some(5));
        let busy = back
            .get("pool_utilization")
            .and_then(|p| p.get("workers"))
            .and_then(Json::as_arr)
            .and_then(|w| w.first())
            .and_then(|w| w.get("busy_fraction"))
            .and_then(Json::as_f64)
            .expect("busy fraction");
        assert!((busy - 0.5).abs() < 1e-9);
        assert_eq!(back.get("meta").and_then(|m| m.get("spans_dropped")).and_then(Json::as_u64), Some(0));
        let cache = back.get("cache").expect("cache stanza present");
        assert_eq!(cache.get("hits_disk").and_then(Json::as_u64), Some(3));
        let serve = back.get("serve").expect("serve stanza present");
        assert_eq!(serve.get("accepted").and_then(Json::as_u64), Some(4));
        assert_eq!(serve.get("rejected_busy").and_then(Json::as_u64), Some(1));
        assert_eq!(serve.get("draining"), Some(&Json::Bool(false)));
    }

    #[test]
    fn optional_stanzas_are_omitted_when_absent() {
        let report = Report {
            meta: ReportMeta::default(),
            snapshot: Registry::new().snapshot(),
            pool: None,
            cache: None,
            serve: None,
            spans: Vec::new(),
        };
        assert!(report.to_json().get("pool_utilization").is_none());
        assert!(report.to_json().get("cache").is_none());
        assert!(report.to_json().get("serve").is_none());
        // A memory-only cache stanza omits `dir`.
        assert!(CacheReport::default().to_json().get("dir").is_none());
    }
}
