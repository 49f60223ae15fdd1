//! Fig. 27: impact of L2 capacity (512 KB – 64 MB) on cache energy
//! for binary and zero-skipped DESC, normalised to the 8 MB binary
//! cache. Paper: DESC improves energy 1.87× (512 KB) to 1.75×
//! (64 MB).

use crate::common::{run_custom_keyed, run_matrix, Scale};
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
    let configs: Vec<(usize, SchemeKind)> = CAPACITIES
        .into_iter()
        .flat_map(|cap| {
            [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc]
                .into_iter()
                .map(move |kind| (cap, kind))
        })
        .collect();
    let per_app = run_matrix(&configs, &suite, scale, |&(capacity, kind), p| {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.capacity_bytes = capacity;
        let overhead = if kind.is_desc() { 1.03 } else { 1.0 };
        run_custom_keyed(
            &format!("paper:{kind:?}"),
            kind.build_paper_config(),
            cfg,
            p,
            scale,
            overhead,
        )
        .l2_energy()
    });
    let sums: Vec<f64> =
        (0..configs.len()).map(|c| per_app.iter().map(|row| row[c]).sum()).collect();
    let base_index = configs
        .iter()
        .position(|&c| c == (8 << 20, SchemeKind::ConventionalBinary))
        .expect("the 8MB binary baseline is part of the sweep");
    let base = sums[base_index];
    let mut t = Table::new(
        "Fig. 27: L2 energy vs capacity (normalised to 8MB binary)",
        &["Capacity", "Binary", "Zero-skip DESC", "DESC improvement"],
    );
    for (i, cap) in CAPACITIES.into_iter().enumerate() {
        let bin = sums[2 * i] / base;
        let desc = sums[2 * i + 1] / base;
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
