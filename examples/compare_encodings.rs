//! Compare all transfer schemes on a realistic benchmark value stream
//! (the paper's Fig. 16 in miniature), printing mean transitions and
//! latency per block.
//!
//! ```text
//! cargo run --release --example compare_encodings [-- <benchmark>]
//! ```

use desc::core::schemes::SchemeKind;
use desc::core::{CostSummary, TransferScheme};
use desc::workloads::{parallel_suite, BenchmarkId};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Radix".to_owned());
    let profile = parallel_suite()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(&name))
        .unwrap_or_else(|| BenchmarkId::Radix.profile());
    let blocks = 5_000;
    println!("Transferring {blocks} cache blocks of {} traffic:\n", profile.name);
    println!("{:<32} {:>14} {:>12} {:>12}", "scheme", "flips/block", "cycles/block", "vs binary");
    let mut binary_mean = None;
    for kind in SchemeKind::ALL {
        let mut scheme = kind.build_paper_config();
        let mut stream = profile.value_stream(42);
        let mut summary = CostSummary::new();
        for _ in 0..blocks {
            summary.record(scheme.transfer(&stream.next_block()));
        }
        let mean = summary.mean_transitions();
        let base = *binary_mean.get_or_insert(mean);
        println!(
            "{:<32} {:>14.1} {:>12.1} {:>11.2}x",
            kind.label(),
            mean,
            summary.mean_cycles(),
            base / mean
        );
    }
    println!("\n(A transition on a wire is what costs energy on the cache H-tree;");
    println!(" the paper's headline 1.81x L2 saving comes from the bottom rows.)");
}
