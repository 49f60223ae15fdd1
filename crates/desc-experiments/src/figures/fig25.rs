//! Fig. 25: sensitivity of zero-skipped DESC to the number of L2
//! banks (1–64), normalised to the 8-bank binary baseline. Paper: 1→2
//! banks removes most bank conflicts; ≈8 banks minimises both energy
//! and time; beyond that per-bank overheads grow.

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{r2, Table};
use desc_core::schemes::SchemeKind;
use desc_sim::SimConfig;

/// The bank counts swept.
pub const BANKS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let suite = scale.suite();
    // The 8-bank binary baseline, then DESC at every bank count.
    let mut configs: Vec<(usize, SchemeKind)> = vec![(8, SchemeKind::ConventionalBinary)];
    configs.extend(BANKS.iter().map(|&b| (b, SchemeKind::ZeroSkippedDesc)));
    let per_app = run_matrix(&configs, &suite, scale, |&(banks, kind), p| {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.banks = banks;
        let overhead = if kind.is_desc() { 1.03 } else { 1.0 };
        let run = run_custom_keyed(
            &format!("paper:{kind:?}"),
            kind.build_paper_config(),
            cfg,
            p,
            scale,
            overhead,
        );
        (run.l2_energy(), run.result.exec_time_s)
    });
    let sums: Vec<(f64, f64)> = (0..configs.len())
        .map(|c| per_app.iter().fold((0.0, 0.0), |acc, row| (acc.0 + row[c].0, acc.1 + row[c].1)))
        .collect();
    let (base_e, base_x) = sums[0];
    let mut t = Table::new(
        "Fig. 25: zero-skipped DESC sensitivity to bank count (normalised to 8-bank binary)",
        &["Banks", "L2 energy", "Exec time"],
    );
    for (banks, (e, x)) in BANKS.iter().zip(&sums[1..]) {
        t.row_owned(vec![banks.to_string(), r2(e / base_e), r2(x / base_x)]);
    }
    t.note("paper: time drops sharply 1→2 banks; energy-delay optimum near 8 banks");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bank_is_slow_and_many_banks_cost_energy() {
        let t = run(&Scale { accesses: 2_000, apps: 2, seed: 1, jobs: 1, shards: 1 });
        let time = |row: usize| -> f64 { t.cell(row, 2).expect("t").parse().expect("num") };
        let energy = |row: usize| -> f64 { t.cell(row, 1).expect("e").parse().expect("num") };
        // Row order follows BANKS.
        assert!(time(0) > time(3), "1 bank {} !> 8 banks {}", time(0), time(3));
        assert!(energy(6) > energy(3), "64 banks {} !> 8 banks {}", energy(6), energy(3));
    }
}
