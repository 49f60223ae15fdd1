//! The outcome-stream memo seen from the public simulators: a cell
//! that reuses a stream is bit-identical to one that computed it, its
//! metric delta included, and concurrent cells sharing one stream
//! neither deadlock nor diverge at any shard cap.
//!
//! Both tests run in this binary's own process. Their cells are small
//! (well under the memo's byte budget together), so nothing here is
//! evicted: the first run of a key leads and every later run hits.

use desc_core::schemes::SchemeKind;
use desc_sim::{SimConfig, SnucaSim, SystemSim};
use desc_workloads::BenchmarkId;
use std::sync::{mpsc, Once};
use std::time::Duration;

/// A two-thread pool (`repro --jobs 2`), set before anything sizes it.
fn two_thread_pool() {
    static POOL: Once = Once::new();
    POOL.call_once(|| {
        std::env::set_var("DESC_JOBS", "2");
        desc_exec::configure(2);
    });
    desc_telemetry::set_enabled(true);
}

/// Runs `f` under a fresh capture sink and returns its result with the
/// captured metric delta.
fn captured<R>(f: impl FnOnce() -> R) -> (R, desc_telemetry::Snapshot) {
    let sink = desc_telemetry::CaptureSink::new();
    let result = desc_telemetry::with_capture(&sink, f);
    (result, sink.snapshot())
}

#[test]
fn a_memo_hit_equals_a_fresh_compute_bit_for_bit() {
    two_thread_pool();
    let cfg = SimConfig { shards: 2, ..SimConfig::paper_multithreaded() };
    let uca = SystemSim::new(cfg, BenchmarkId::Ocean.profile(), 0x5eed_0001);
    let snuca = SnucaSim::new(cfg, BenchmarkId::Ocean.profile(), 0x5eed_0001);
    for kind in [SchemeKind::ZeroSkippedDesc, SchemeKind::LastValueSkippedDesc] {
        let uca_run = || format!("{:?}", uca.run(kind.build_paper_config(), 5_000));
        let snuca_run = || format!("{:?}", snuca.run(kind.build_paper_config(), 5_000));
        // The first scheme's first run leads; every other run hits.
        let fresh = captured(uca_run);
        let hit = captured(uca_run);
        assert_eq!(fresh, hit, "{kind:?} UCA");
        let fresh = captured(snuca_run);
        let hit = captured(snuca_run);
        assert_eq!(fresh, hit, "{kind:?} S-NUCA");
        assert!(fresh.1.metrics.iter().any(|(name, _)| name == "workloads.accesses_generated"));
    }
}

#[test]
fn concurrent_cells_share_a_stream_without_deadlock_at_any_shard_cap() {
    two_thread_pool();
    let kinds = [
        SchemeKind::ConventionalBinary,
        SchemeKind::ZeroSkippedDesc,
        SchemeKind::LastValueSkippedDesc,
        SchemeKind::BusInvertCoding,
    ];
    for (n, shards) in [1usize, 2, 8, 32].into_iter().enumerate() {
        let cfg = SimConfig { shards, ..SimConfig::paper_multithreaded() };
        // A seed of its own per cap, so the concurrent cells below
        // find the key absent and race to lead it.
        let seed = 0x5eed_1000 + n as u64;
        let cells = move || {
            desc_exec::run_labeled("cells", 2 * kinds.len(), 2 * kinds.len(), |i| {
                let kind = kinds[i % kinds.len()];
                let profile = BenchmarkId::Fft.profile();
                if i < kinds.len() {
                    format!(
                        "{:?}",
                        SystemSim::new(cfg, profile, seed).run(kind.build_paper_config(), 2_000)
                    )
                } else {
                    format!(
                        "{:?}",
                        SnucaSim::new(cfg, profile, seed).run(kind.build_paper_config(), 2_000)
                    )
                }
            })
        };
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(cells()).expect("receiver alive"));
        let concurrent = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("shards={shards}: concurrent cells deadlocked"));
        worker.join().expect("cells thread");
        // Serially, every cell now hits the published streams.
        assert_eq!(concurrent, cells(), "shards={shards}");
    }
}
