//! End-to-end tests of the `repro` binary's command-line contract:
//! distinct exit codes per error class, a Perfetto-loadable `--trace`
//! artifact, a `--report` carrying the `pool_utilization` stanza, and
//! byte-identical CSV output whether tracing is on or off and for any
//! `(jobs, shards)` shape.

use desc_telemetry::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("failed to launch repro binary")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desc-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn bad_arguments_exit_2_with_a_stderr_line() {
    let cases: &[&[&str]] = &[
        &[],                         // no experiments requested
        &["--seed"],                 // missing value
        &["--seed", "NaN", "fig13"], // malformed value
        &["--accesses", "0", "fig13"],
        &["--apps", "99", "fig13"],
        &["--jobs", "0", "fig13"],
        &["--shards", "zero", "fig13"],
        &["--report"],
        &["--trace"],
        &["--cache-dir"], // missing value
        &["--cache-dir", "", "fig13"],
        &["--resume", "--cache-dir", "/tmp", "fig13"], // removed flags
        &["--no-cache", "fig13"],
        &["--frobnicate", "fig13"], // unknown flag
    ];
    for args in cases {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "repro {args:?} must exit 2, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("repro: "),
            "repro {args:?} stderr must explain the usage error: {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "usage errors must not print results");
    }
}

#[test]
fn unknown_experiment_exits_3() {
    let out = repro(&["--tiny", "fig99"]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"), "{stderr:?}");
    assert!(stderr.contains("--list"), "stderr should point at --list: {stderr:?}");
}

#[test]
fn unwritable_output_path_exits_4() {
    let missing = std::env::temp_dir().join("desc-cli-no-such-dir").join("out.json");
    let missing = missing.to_str().expect("utf-8 temp path");
    for flag in ["--trace", "--report"] {
        let out = repro(&["--tiny", "--quiet", flag, missing, "fig13"]);
        assert_eq!(
            out.status.code(),
            Some(4),
            "{flag} to an unwritable path must exit 4, got {:?}",
            out.status.code()
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("failed to write"), "{stderr:?}");
    }
}

#[test]
fn unusable_cache_dir_exits_5() {
    let dir = temp_dir("cache-exit");
    // A plain file where the cache directory should be.
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"x").expect("create blocking file");
    let out = repro(&["--tiny", "--quiet", "--cache-dir", file.to_str().expect("utf-8"), "fig13"]);
    assert_eq!(
        out.status.code(),
        Some(5),
        "a file as --cache-dir must exit 5, got {:?}",
        out.status.code()
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unusable cache dir"), "{stderr:?}");
    assert!(out.stdout.is_empty(), "cache errors must not print partial results");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_and_report_artifacts_are_valid_and_csv_is_bit_exact_across_pool_shapes() {
    let dir = temp_dir("artifacts");
    let trace_path = dir.join("trace.json");
    let report_path = dir.join("report.json");

    // Baseline: serial, untraced.
    let base = repro(&["--tiny", "--csv", "--quiet", "fig16", "fig23"]);
    assert!(base.status.success(), "baseline run failed: {base:?}");
    assert!(!base.stdout.is_empty());

    // Fanned out, untraced: identical CSV bytes.
    let fanned =
        repro(&["--tiny", "--csv", "--quiet", "--jobs", "4", "--shards", "2", "fig16", "fig23"]);
    assert!(fanned.status.success());
    assert_eq!(
        base.stdout, fanned.stdout,
        "CSV output diverged between (jobs,shards)=(1,1) and (4,2)"
    );

    // Fanned out *and* traced *and* reporting: still identical bytes.
    let traced = repro(&[
        "--tiny",
        "--csv",
        "--quiet",
        "--jobs",
        "4",
        "--shards",
        "2",
        "--trace",
        trace_path.to_str().expect("utf-8 path"),
        "--report",
        report_path.to_str().expect("utf-8 path"),
        "fig16",
        "fig23",
    ]);
    assert!(traced.status.success(), "traced run failed: {traced:?}");
    assert_eq!(base.stdout, traced.stdout, "enabling --trace/--report changed CSV output");

    // The trace is valid Chrome trace-event JSON: named worker lanes,
    // X events on the timeline, and every event lane has lane metadata.
    let trace = Json::parse(&std::fs::read_to_string(&trace_path).expect("trace written"))
        .expect("trace parses as JSON");
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    let xs: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    assert!(!xs.is_empty(), "trace has no complete events");
    let lane_named = |tid: u64| {
        events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("tid").and_then(Json::as_u64) == Some(tid)
        })
    };
    for x in &xs {
        let tid = x.get("tid").and_then(Json::as_u64).expect("X event has tid");
        assert!(lane_named(tid), "event lane {tid} has no thread_name metadata");
    }
    // The sweep itself is on the timeline: experiment, cell, and
    // region spans (partitions come from --shards 2 sharded cells).
    for family in ["experiment", "cell", "region", "partition"] {
        assert!(
            xs.iter().any(|x| {
                x.get("args").and_then(|a| a.get("family")).and_then(Json::as_str) == Some(family)
            }),
            "no {family} events in the trace"
        );
    }

    // The report carries the pool_utilization stanza, consistent with
    // the schema: cells region present with nonzero tasks, and worker
    // ordinals that the trace also used.
    let report = Json::parse(&std::fs::read_to_string(&report_path).expect("report written"))
        .expect("report parses as JSON");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("desc-run-report/v1"),
        "report schema tag"
    );
    assert!(report.get("meta").and_then(|m| m.get("spans_dropped")).is_some());
    let pool = report.get("pool_utilization").expect("report has pool_utilization");
    let workers = pool.get("workers").and_then(Json::as_arr).expect("workers array");
    assert!(!workers.is_empty(), "pool_utilization lists no workers");
    let regions = pool.get("regions").expect("regions object");
    let cells = regions.get("cells").expect("cells region in pool_utilization");
    assert!(
        cells.get("tasks").and_then(Json::as_u64).unwrap_or(0) > 0,
        "cells region ran no tasks"
    );

    std::fs::remove_dir_all(&dir).ok();
}
