//! Cross-process determinism of the pooled sweep.
//!
//! The executor's contract is that `--jobs` and `--shards` bound
//! concurrency without ever entering the results: every figure table
//! and every run-report metric must be byte-identical for any
//! (jobs, shards) combination. These tests drive the real `repro`
//! binary — one process per combination, so each gets its own pool —
//! through the figures that exercise every sharded code path: fig16
//! (banked-L2 `SystemSim` sweep), fig23 and fig24 (S-NUCA-1, the
//! densest 128-partition decomposition).

use desc_telemetry::Json;
use std::process::Command;

const COMBOS: [(&str, &str); 3] = [("1", "1"), ("4", "2"), ("2", "8")];

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro output is UTF-8")
}

#[test]
fn figure_csvs_identical_across_pool_shapes() {
    let mut baseline: Option<String> = None;
    for (jobs, shards) in COMBOS {
        let csv = repro(&[
            "--tiny", "--csv", "--jobs", jobs, "--shards", shards, "fig16", "fig23", "fig24",
        ]);
        assert!(csv.contains(','), "csv output looks empty: {csv:?}");
        match &baseline {
            None => baseline = Some(csv),
            Some(expected) => {
                assert_eq!(expected, &csv, "figure CSVs diverged at jobs={jobs} shards={shards}");
            }
        }
    }
}

/// The whole `metrics` object of a run report, pretty-printed. Where
/// work ran (inline or pooled) lives in `pool_utilization`, never
/// here, so every key must match across pool shapes.
fn report_metrics(report_path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(report_path).expect("read report");
    let doc = Json::parse(&text).expect("parse report");
    let Some(metrics @ Json::Obj(pairs)) = doc.get("metrics") else {
        panic!("report has no metrics object");
    };
    assert!(!pairs.is_empty(), "report metrics are empty");
    metrics.to_pretty()
}

#[test]
fn report_metrics_identical_across_pool_shapes() {
    let dir = std::env::temp_dir().join(format!("desc-pool-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut baseline: Option<String> = None;
    for (jobs, shards) in COMBOS {
        let path = dir.join(format!("report-j{jobs}-s{shards}.json"));
        repro(&[
            "--tiny",
            "--jobs",
            jobs,
            "--shards",
            shards,
            "--report",
            path.to_str().expect("utf-8 temp path"),
            "fig16",
            "fig23",
        ]);
        let metrics = report_metrics(&path);
        match &baseline {
            None => baseline = Some(metrics),
            Some(expected) => {
                assert_eq!(
                    expected, &metrics,
                    "report metrics diverged at jobs={jobs} shards={shards}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
