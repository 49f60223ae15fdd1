//! Pins `docs/REPORT_SCHEMA.md` to the code: the document's "Key
//! index" block must list exactly the key paths a representative
//! `desc-run-report/v1` report emits. If either side changes alone,
//! this test fails — the schema document cannot drift silently.

use desc_telemetry::{
    CacheReport, Json, PoolUtilization, RegionUtilization, Registry, Report, ReportMeta,
    ServeReport, Span, WorkerUtilization,
};
use std::collections::BTreeSet;

/// Extracts the fenced block following the "## Key index" heading.
fn documented_paths(doc: &str) -> BTreeSet<String> {
    let index = doc.split("## Key index").nth(1).expect("doc has a Key index section");
    let block = index.split("```").nth(1).expect("Key index has a fenced block");
    block
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && *l != "text")
        .map(|l| l.trim_end_matches('?').to_owned())
        .collect()
}

/// Flattens an emitted report into the doc's path notation:
/// `metrics.<actual name>` collapses to `metrics.<name>`,
/// `pool_utilization.regions.<actual label>` to
/// `pool_utilization.regions.<label>`, array elements to `[]`.
fn emitted_paths(report: &Json) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let Json::Obj(top) = report else { panic!("report is an object") };
    for (key, value) in top {
        match key.as_str() {
            "meta" => {
                let Json::Obj(meta) = value else { panic!("meta is an object") };
                for (k, _) in meta {
                    out.insert(format!("meta.{k}"));
                }
            }
            "metrics" => {
                let Json::Obj(metrics) = value else { panic!("metrics is an object") };
                for (_, metric) in metrics {
                    let Json::Obj(fields) = metric else { panic!("metric is an object") };
                    for (k, _) in fields {
                        out.insert(format!("metrics.<name>.{k}"));
                    }
                }
            }
            "pool_utilization" => {
                let Json::Obj(pool) = value else { panic!("pool_utilization is an object") };
                for (k, v) in pool {
                    match k.as_str() {
                        "workers" => {
                            for w in v.as_arr().expect("workers is an array") {
                                let Json::Obj(fields) = w else { panic!("worker is an object") };
                                for (wk, _) in fields {
                                    out.insert(format!("pool_utilization.workers[].{wk}"));
                                }
                            }
                        }
                        "regions" => {
                            let Json::Obj(regions) = v else { panic!("regions is an object") };
                            for (_, region) in regions {
                                let Json::Obj(fields) = region else {
                                    panic!("region is an object")
                                };
                                for (rk, _) in fields {
                                    out.insert(format!("pool_utilization.regions.<label>.{rk}"));
                                }
                            }
                        }
                        other => {
                            out.insert(format!("pool_utilization.{other}"));
                        }
                    }
                }
            }
            "cache" => {
                let Json::Obj(cache) = value else { panic!("cache is an object") };
                for (k, _) in cache {
                    out.insert(format!("cache.{k}"));
                }
            }
            "serve" => {
                let Json::Obj(serve) = value else { panic!("serve is an object") };
                for (k, _) in serve {
                    out.insert(format!("serve.{k}"));
                }
            }
            "spans" => {
                for span in value.as_arr().expect("spans is an array") {
                    let Json::Obj(fields) = span else { panic!("span is an object") };
                    for (k, _) in fields {
                        out.insert(format!("spans[].{k}"));
                    }
                }
            }
            other => {
                out.insert(other.to_owned());
            }
        }
    }
    out
}

#[test]
fn schema_document_matches_emitted_report() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/REPORT_SCHEMA.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/REPORT_SCHEMA.md exists");
    let documented = documented_paths(&doc);

    // A representative report exercising every metric type, the pool
    // stanza, and a context-carrying span, so every optional (`?`)
    // key is emitted.
    let registry = Registry::new();
    registry.counter("t.count").add(3);
    registry.gauge("t.gauge").set(7);
    registry.histogram("t.lat").record(42);
    let report = Report {
        meta: ReportMeta {
            tool: "schema-doc-test".to_owned(),
            version: "0.0.0".to_owned(),
            seed: 2013,
            scale: "tiny".to_owned(),
            jobs: 2,
            shards: 2,
            experiments: vec!["fig23".to_owned()],
            spans_dropped: 0,
        },
        snapshot: registry.snapshot(),
        pool: Some(PoolUtilization {
            elapsed_us: 1000,
            workers: vec![WorkerUtilization {
                worker: 0,
                name: "main".to_owned(),
                busy_us: 600,
                tasks: 4,
            }],
            regions: vec![RegionUtilization {
                label: "cells".to_owned(),
                tasks: 4,
                queue_wait_us_sum: 12,
                queue_wait_us_max: 8,
                queue_wait_us_buckets: vec![(3, 4)],
                run_us_sum: 580,
                run_us_max: 200,
                run_us_buckets: vec![(7, 3), (8, 1)],
            }],
        }),
        cache: Some(CacheReport {
            dir: Some("/tmp/desc-cache".to_owned()),
            schema_version: 1,
            hits_memory: 1,
            hits_disk: 1,
            misses: 2,
            stores: 2,
            version_mismatches: 0,
            errors: 0,
            evictions: 0,
            inflight_leads: 2,
            inflight_waits: 1,
            inflight_hits: 1,
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
            dedup_cells: 1,
            dedup_requests: 1,
            active: 0,
            draining: false,
        }),
        spans: vec![Span {
            name: "experiment",
            label: "fig23".to_owned(),
            ctx: "fig23".to_owned(),
            worker: 0,
            start_us: 1,
            duration_us: 2,
        }],
    };
    let emitted = emitted_paths(&report.to_json());

    assert_eq!(
        documented, emitted,
        "docs/REPORT_SCHEMA.md Key index disagrees with Report::to_json \
         (left: documented, right: emitted)"
    );
    assert!(
        doc.contains("desc-run-report/v1"),
        "schema document must name the schema version"
    );
}
