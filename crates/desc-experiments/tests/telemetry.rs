//! Telemetry acceptance tests: enabling instrumentation must not
//! change any figure output, counter values must be identical for
//! identical seeds and for any `--jobs` count, and disabling must
//! leave the registry silent.
//!
//! The enabled flag and registry are process-global, so everything
//! lives in one `#[test]` to keep toggles serialized. Every compared
//! run starts on a fresh cell store, so it computes its cells.

use desc_experiments::{cache, run_experiment, Scale};
use desc_telemetry::MetricValue;

#[test]
fn telemetry_is_invisible_in_outputs_and_deterministic_in_counters() {
    let scale = Scale::tiny();

    // Baseline render with telemetry off.
    desc_telemetry::set_enabled(false);
    cache::install(None);
    let off = run_experiment("fig16", &scale).render();

    // Same run with telemetry on: byte-identical output, and a
    // registry populated from every instrumented layer.
    desc_telemetry::global().reset_all();
    desc_telemetry::set_enabled(true);
    cache::install(None);
    let on_first = run_experiment("fig16", &scale).render();
    let first = desc_telemetry::global().snapshot();
    assert_eq!(off, on_first, "enabling telemetry changed figure output");
    for layer in ["core.", "sim.", "workloads."] {
        assert!(
            first.metrics.iter().any(|(name, _)| name.starts_with(layer)),
            "no {layer}* metrics registered by a fig16 run"
        );
    }
    match first.counter("core.cost.blocks") {
        Some(blocks) => assert!(blocks > 0, "core.cost.blocks stayed zero"),
        None => panic!("core.cost.blocks missing from snapshot"),
    }

    // Identical seed, second run: identical counter values.
    desc_telemetry::global().reset_all();
    cache::install(None);
    let on_second = run_experiment("fig16", &scale).render();
    let second = desc_telemetry::global().snapshot();
    assert_eq!(on_first, on_second);
    assert_eq!(first.metrics, second.metrics, "counters diverged between identical runs");

    // Same run fanned over 4 workers (and 2-way sharded cells): same
    // rendered bytes, same counter values (all updates are
    // order-independent).
    desc_telemetry::global().reset_all();
    let _ = desc_telemetry::drain_spans();
    desc_telemetry::set_context("fig16");
    cache::install(None);
    let parallel = run_experiment("fig16", &scale.with_jobs(4).with_shards(2)).render();
    desc_telemetry::set_context("");
    let fanned = desc_telemetry::global().snapshot();
    assert_eq!(on_first, parallel, "fig16 diverged under --jobs 4 with telemetry on");
    assert_eq!(first.metrics, fanned.metrics, "counters diverged under --jobs 4");
    // The sweep landed on the execution timeline: per-cell spans named
    // scheme/app, a "cells" executor region, per-bank "partition"
    // spans from the sharded simulations inside "parts" regions —
    // every one carrying the process-wide context. Drain so later
    // tests start clean.
    let spans = desc_telemetry::drain_spans();
    let cells: Vec<_> = spans.iter().filter(|s| s.name == "cell").collect();
    assert!(!cells.is_empty(), "parallel sweep recorded no per-cell spans");
    assert!(
        cells.iter().any(|s| s.label.contains('/')),
        "fig16 cell spans should be labeled c<config>/<app>, got e.g. {:?}",
        cells.first().map(|s| &s.label)
    );
    assert!(
        cells.iter().all(|s| s.ctx == "fig16"),
        "cell spans recorded on pool workers lost the experiment context"
    );
    let region_labels: std::collections::BTreeSet<&str> =
        spans.iter().filter(|s| s.name == "region").map(|s| s.label.as_str()).collect();
    assert!(region_labels.contains("cells"), "no cells region span: {region_labels:?}");
    assert!(
        region_labels.contains("parts"),
        "sharded cells recorded no partition regions: {region_labels:?}"
    );
    assert!(
        spans.iter().any(|s| s.name == "partition"),
        "sharded cells recorded no per-partition spans"
    );
    // Executor utilization saw the same sweep, without touching the
    // registry (the metric maps above already proved byte-equality).
    let util = desc_exec::utilization();
    assert!(
        util.regions.iter().any(|r| r.label == "cells" && r.tasks > 0),
        "pool utilization missing the cells region"
    );

    // Disabled again: running an experiment touches no counters.
    desc_telemetry::set_enabled(false);
    desc_telemetry::global().reset_all();
    let _ = run_experiment("fig13", &scale).render();
    let silent = desc_telemetry::global().snapshot();
    for (name, value) in &silent.metrics {
        let quiet = match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v == 0,
            MetricValue::Histogram { count, .. } => *count == 0,
        };
        assert!(quiet, "metric {name} advanced while telemetry was disabled");
    }
    assert!(
        desc_telemetry::drain_spans().is_empty(),
        "spans recorded while telemetry was disabled"
    );
}
