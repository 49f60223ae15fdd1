//! Fig. 27: impact of L2 capacity (512 KB – 64 MB) on cache energy
//! for binary and zero-skipped DESC, normalised to the 8 MB binary
//! cache. Paper: DESC improves energy 1.87× (512 KB) to 1.75×
//! (64 MB).
//!
//! One sweep cell per (capacity, app) runs both schemes, binary first:
//! the two share one L2 outcome stream (DESIGN.md §10), so a cell
//! reuses the stream it just computed instead of a second worker
//! waiting for it. Each scheme is still its own stored cell.

use crate::common::{run_matrix, run_paper, Scale};
use crate::table::{r2, Table};
use desc_core::schemes::SchemeKind;
use desc_sim::SimConfig;

/// Capacities swept, in bytes.
pub const CAPACITIES: [usize; 8] =
    [512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20];

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let suite = scale.suite();
    let per_app = run_matrix(&CAPACITIES, &suite, scale, |&capacity, p| {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.capacity_bytes = capacity;
        let energy = |kind| run_paper(kind, cfg, p, scale).l2_energy();
        let bin = energy(SchemeKind::ConventionalBinary);
        (bin, energy(SchemeKind::ZeroSkippedDesc))
    });
    let sums: Vec<(f64, f64)> = (0..CAPACITIES.len())
        .map(|c| {
            (per_app.iter().map(|row| row[c].0).sum(), per_app.iter().map(|row| row[c].1).sum())
        })
        .collect();
    let base_index = CAPACITIES
        .iter()
        .position(|&c| c == 8 << 20)
        .expect("the 8MB binary baseline is part of the sweep");
    let base = sums[base_index].0;
    let mut t = Table::new(
        "Fig. 27: L2 energy vs capacity (normalised to 8MB binary)",
        &["Capacity", "Binary", "Zero-skip DESC", "DESC improvement"],
    );
    for (cap, (bin, desc)) in CAPACITIES.into_iter().zip(sums) {
        let (bin, desc) = (bin / base, desc / base);
        let label =
            if cap >= 1 << 20 { format!("{}MB", cap >> 20) } else { format!("{}KB", cap >> 10) };
        t.row_owned(vec![label, r2(bin), r2(desc), format!("{:.2}x", bin / desc)]);
    }
    t.note("paper: improvement 1.87x at 512KB tapering to 1.75x at 64MB");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_improves_at_every_capacity() {
        let t = run(&Scale { accesses: 1_200, apps: 2, seed: 1, jobs: 1, shards: 1 });
        assert_eq!(t.row_count(), CAPACITIES.len());
        for row in 0..t.row_count() {
            let bin: f64 = t.cell(row, 1).expect("bin").parse().expect("num");
            let desc: f64 = t.cell(row, 2).expect("desc").parse().expect("num");
            assert!(desc < bin, "row {row}: DESC {desc} !< binary {bin}");
        }
        // Energy grows with capacity for both schemes.
        let first_bin: f64 = t.cell(0, 1).expect("c").parse().expect("n");
        let last_bin: f64 = t.cell(t.row_count() - 1, 1).expect("c").parse().expect("n");
        assert!(last_bin > first_bin);
    }
}
