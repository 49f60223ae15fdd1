//! Build a custom workload model and measure how much DESC saves on
//! it end-to-end (simulator + energy model), versus conventional
//! binary transfer.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use desc::cacti::CacheModel;
use desc::core::schemes::SchemeKind;
use desc::sim::{SimConfig, SystemSim};
use desc::workloads::values::ValueModel;
use desc::workloads::BenchmarkId;

fn main() {
    // Start from a real profile and swap in a custom value mixture: a
    // key-value store with many empty slots and pointer-heavy nodes.
    let mut profile = BenchmarkId::Mcf.profile();
    profile.values = ValueModel {
        null: 0.20,
        sparse_int: 0.15,
        small_int: 0.10,
        dense_fp: 0.05,
        text: 0.10,
        pointer: 0.25,
        near_repeat: 0.15,
    };

    let accesses = 20_000;
    let mut results = Vec::new();
    for kind in [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc] {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.bus_width_bits = kind.build_paper_config().wires().total();
        let sim = SystemSim::new(cfg, profile, 7);
        let result = sim.run(kind.build_paper_config(), accesses);
        let l2 = CacheModel::new(cfg.l2).energy_for(&result.activity);
        println!(
            "{:<24} {:>10.1} flips/block {:>8.1} hit cycles  L2 energy {:.3e} J",
            kind.label(),
            result.transfer.mean_transitions(),
            result.avg_hit_latency_cycles,
            l2.total(),
        );
        results.push(l2.total());
    }
    println!(
        "\nZero-skipped DESC cuts this workload's L2 energy by {:.2}x",
        results[0] / results[1]
    );
}
