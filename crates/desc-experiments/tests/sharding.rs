//! Bank-sharding acceptance tests: figure output must be
//! byte-identical and `desc-run-report/v1` metrics identical for any
//! `--shards` count at a fixed seed, because the decomposition unit is
//! the L2 bank (fixed by the machine config), not the thread count.
//! Covered figures span both machine organisations: fig16 (UCA,
//! `SystemSim`) and fig23/fig24 (S-NUCA-1, `SnucaSim`).
//!
//! The telemetry flag and registry are process-global, so everything
//! lives in one `#[test]` to keep toggles serialized.

use desc_experiments::{run_experiment, Scale};
use desc_telemetry::{Report, ReportMeta};

fn report_for(experiments: &[&str], shards: usize, scale: &Scale) -> (Vec<String>, String) {
    // A fresh cell store, so every run computes its cells instead of
    // replaying an earlier run's.
    desc_experiments::cache::install(None);
    desc_telemetry::global().reset_all();
    let renders: Vec<String> = experiments
        .iter()
        .map(|name| run_experiment(name, &scale.with_shards(shards)).render())
        .collect();
    let _ = desc_telemetry::drain_spans();
    let report = Report {
        meta: ReportMeta {
            tool: "test".to_owned(),
            version: "0.0.0".to_owned(),
            seed: scale.seed,
            scale: "tiny".to_owned(),
            jobs: scale.jobs,
            shards,
            experiments: experiments.iter().map(|&e| e.to_owned()).collect(),
            spans_dropped: desc_telemetry::spans_dropped(),
        },
        snapshot: desc_telemetry::global().snapshot(),
        pool: None,
        cache: None,
        serve: None,
        spans: Vec::new(),
    };
    // Metrics only: `meta` records the shard count itself (and a
    // timestamp), which legitimately differs between runs.
    let json = report.to_json();
    let metrics = json.get("metrics").expect("report has metrics").to_pretty();
    (renders, metrics)
}

#[test]
fn figure_bytes_and_report_metrics_are_shard_invariant() {
    let scale = Scale::tiny();
    let experiments = ["fig16", "fig23", "fig24"];
    desc_telemetry::set_enabled(true);
    let (serial_renders, serial_metrics) = report_for(&experiments, 1, &scale);
    assert!(
        serial_metrics.contains("sim.l2.accesses"),
        "baseline report recorded no UCA simulator metrics"
    );
    assert!(
        serial_metrics.contains("sim.snuca.accesses"),
        "baseline report recorded no S-NUCA simulator metrics"
    );
    for shards in [2, 8] {
        let (renders, metrics) = report_for(&experiments, shards, &scale);
        for (name, (serial, sharded)) in experiments.iter().zip(serial_renders.iter().zip(&renders))
        {
            assert_eq!(serial, sharded, "{name} output diverged at --shards {shards}");
        }
        assert_eq!(serial_metrics, metrics, "run-report metrics diverged at --shards {shards}");
    }
    desc_telemetry::set_enabled(false);
    desc_telemetry::global().reset_all();
}
