//! A cold cell's outcome-stream compute is visible on the execution
//! timeline: the cell that leads it records one `streams` span labelled
//! with the profile name, and a cell that reuses the stream records
//! none. The test runs alone in this binary's process, so its spans and
//! its memo are its own.

use desc_core::schemes::SchemeKind;
use desc_sim::{SimConfig, SystemSim};
use desc_workloads::BenchmarkId;

#[test]
fn only_the_leading_cell_records_a_streams_span() {
    desc_telemetry::set_enabled(true);
    let _ = desc_telemetry::drain_spans();
    let cfg = SimConfig { shards: 2, ..SimConfig::paper_multithreaded() };
    let sim = SystemSim::new(cfg, BenchmarkId::Ocean.profile(), 0x5eed_0002);
    let streams = |spans: &[desc_telemetry::Span]| -> Vec<String> {
        spans.iter().filter(|s| s.name == "streams").map(|s| s.label.clone()).collect()
    };

    sim.run(SchemeKind::ZeroSkippedDesc.build_paper_config(), 2_000);
    let led = desc_telemetry::drain_spans();
    assert_eq!(streams(&led), [BenchmarkId::Ocean.profile().name]);
    assert!(led.iter().any(|s| s.name == "partition"), "the compute's partitions are spans too");

    sim.run(SchemeKind::ConventionalBinary.build_paper_config(), 2_000);
    let reused = desc_telemetry::drain_spans();
    assert!(streams(&reused).is_empty(), "a reusing cell computes no stream");
    assert!(reused.iter().any(|s| s.name == "partition"));
    desc_telemetry::set_enabled(false);
}
