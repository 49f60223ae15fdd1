//! Fig. 22: the cache design space (energy vs execution time) opened
//! up by DESC, sweeping banks and bus widths for conventional binary
//! and zero-skipped DESC, normalised to the 8-bank 64-bit binary
//! baseline. Paper: DESC points push the energy frontier left without
//! significantly increasing access latency.

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{r2, Table};
use desc_core::schemes::{BinaryScheme, DescScheme, SkipMode};
use desc_core::{ChunkSize, TransferScheme};
use desc_sim::SimConfig;

/// Sweep points: (banks, data wires).
pub const POINTS: [(usize, usize); 9] =
    [(2, 64), (8, 32), (8, 64), (8, 128), (8, 256), (32, 64), (32, 128), (2, 128), (32, 256)];

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let suite = scale.suite();
    // Configurations: every point under binary, then under DESC; the
    // normalisation baseline (8 banks, 64-bit binary) is one of them.
    let configs: Vec<(bool, usize, usize)> = [false, true]
        .into_iter()
        .flat_map(|desc| POINTS.into_iter().map(move |(banks, wires)| (desc, banks, wires)))
        .collect();
    let per_app = run_matrix(&configs, &suite, scale, |&(desc, banks, wires), p| {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.banks = banks;
        let (scheme, id): (Box<dyn TransferScheme>, String) = if desc {
            (
                Box::new(DescScheme::new(wires, ChunkSize::PAPER_DEFAULT, SkipMode::Zero)),
                format!("desc:w{wires}:c{}:skip=Zero", ChunkSize::PAPER_DEFAULT.bits()),
            )
        } else {
            (Box::new(BinaryScheme::new(wires)), format!("binary:w{wires}"))
        };
        let overhead = if desc { 1.03 } else { 1.0 };
        let run = run_custom_keyed(&id, scheme, cfg, p, scale, overhead);
        (run.l2_energy(), run.result.exec_time_s)
    });
    let sums: Vec<(f64, f64)> = (0..configs.len())
        .map(|c| per_app.iter().fold((0.0, 0.0), |acc, row| (acc.0 + row[c].0, acc.1 + row[c].1)))
        .collect();
    let base_index = configs
        .iter()
        .position(|&c| c == (false, 8, 64))
        .expect("the 8-bank 64-bit binary baseline is part of the sweep");
    let (base_e, base_t) = sums[base_index];
    let mut t = Table::new(
        "Fig. 22: design space — L2 energy vs execution time (normalised to 8 banks, 64-bit binary)",
        &["Scheme", "Banks", "Wires", "L2 energy", "Exec time"],
    );
    for (&(desc, banks, wires), &(e, x)) in configs.iter().zip(&sums) {
        t.row_owned(vec![
            if desc { "Zero-skip DESC" } else { "Binary" }.into(),
            banks.to_string(),
            wires.to_string(),
            r2(e / base_e),
            r2(x / base_t),
        ]);
    }
    t.note("paper: DESC opens lower-energy design points at similar execution time");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_frontier_dominates_on_energy() {
        let scale = Scale { accesses: 1_200, apps: 2, seed: 1, jobs: 1, shards: 1 };
        let t = run(&scale);
        assert_eq!(t.row_count(), 2 * POINTS.len());
        // Best DESC energy beats best binary energy.
        let energy =
            |row: usize| -> f64 { t.cell(row, 3).expect("energy").parse().expect("number") };
        let best_binary = (0..POINTS.len()).map(energy).fold(f64::INFINITY, f64::min);
        let best_desc = (POINTS.len()..2 * POINTS.len()).map(energy).fold(f64::INFINITY, f64::min);
        assert!(best_desc < best_binary, "DESC {best_desc} vs binary {best_binary}");
    }
}
