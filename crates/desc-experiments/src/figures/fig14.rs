//! Fig. 14: design-space exploration of the L2 over ITRS device
//! classes (cells–periphery), normalised to the 8-bank, 64-bit,
//! LSTP-LSTP organisation. The paper's conclusion: LSTP-LSTP
//! minimises both L2 and total processor energy at a negligible
//! performance cost.

use crate::common::{run_matrix, run_paper, Scale};
use crate::table::{r2, Table};
use desc_cacti::DeviceType;
use desc_core::schemes::SchemeKind;
use desc_sim::SimConfig;

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Fig. 14: L2 design space over device classes (8 banks, 64-bit bus, binary)",
        &["Cells-Periphery", "L2 energy", "Exec time", "Processor energy"],
    );
    let suite = scale.suite();
    let pairs: Vec<(DeviceType, DeviceType)> = DeviceType::ALL
        .into_iter()
        .flat_map(|cell| DeviceType::ALL.into_iter().map(move |peri| (cell, peri)))
        .collect();
    let per_app = run_matrix(&pairs, &suite, scale, |&(cell, periphery), p| {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.cell_device = cell;
        cfg.l2.periphery_device = periphery;
        let run = run_paper(SchemeKind::ConventionalBinary, cfg, p, scale);
        (run.l2_energy(), run.result.exec_time_s, run.processor.processor_total_j())
    });
    // Sum each configuration's columns over the suite.
    let sums: Vec<(f64, f64, f64)> = (0..pairs.len())
        .map(|c| {
            per_app.iter().fold((0.0, 0.0, 0.0), |acc, row| {
                (acc.0 + row[c].0, acc.1 + row[c].1, acc.2 + row[c].2)
            })
        })
        .collect();

    let base_index = pairs
        .iter()
        .position(|&p| p == (DeviceType::Lstp, DeviceType::Lstp))
        .expect("LSTP-LSTP is part of the sweep");
    let (base_l2, base_time, base_proc) = sums[base_index];
    for ((cell, periphery), (l2, time, proc)) in pairs.iter().zip(&sums) {
        t.row_owned(vec![
            format!("{cell}-{periphery}"),
            r2(l2 / base_l2),
            r2(time / base_time),
            r2(proc / base_proc),
        ]);
    }
    t.note("paper: LSTP-LSTP minimises energy; HP is ≈2x faster at the array but <2% end-to-end");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstp_lstp_is_the_energy_minimum() {
        let t = run(&Scale { accesses: 1_500, apps: 2, seed: 1, jobs: 1, shards: 1 });
        assert_eq!(t.row_count(), 9);
        // Find rows; LSTP-LSTP is last (ALL order: HP, LOP, LSTP).
        let last = t.row_count() - 1;
        assert_eq!(t.cell(last, 0), Some("LSTP-LSTP"));
        let base_l2: f64 = t.cell(last, 1).expect("cell").parse().expect("number");
        assert!((base_l2 - 1.0).abs() < 1e-9);
        // HP-HP leaks orders of magnitude more.
        let hp_l2: f64 = t.cell(0, 1).expect("cell").parse().expect("number");
        assert!(hp_l2 > 3.0, "HP-HP relative energy {hp_l2}");
        // Execution-time cost of LSTP is small (paper: ≈2%).
        let hp_time: f64 = t.cell(0, 2).expect("cell").parse().expect("number");
        assert!(hp_time > 0.85 && hp_time <= 1.0, "HP-HP relative time {hp_time}");
    }
}
