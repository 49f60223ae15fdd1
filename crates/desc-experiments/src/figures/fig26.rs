//! Fig. 26: sensitivity of zero-skipped DESC to the chunk size (1, 2,
//! 4, 8 bits) across bus widths (32–256 wires), normalised to the
//! binary baseline. Paper: 4-bit chunks with 128 wires give the best
//! energy-delay product; 8-bit chunks suffer long windows.

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{r2, Table};
use desc_core::schemes::{DescScheme, SkipMode};
use desc_core::ChunkSize;
use desc_sim::SimConfig;

/// Chunk widths and wire counts swept.
pub const CHUNKS: [u8; 4] = [1, 2, 4, 8];
/// Wire counts swept.
pub const WIRES: [usize; 4] = [32, 64, 128, 256];

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let suite = scale.suite();
    let cfg = SimConfig::paper_multithreaded();
    // Chunk bits 0 marks the binary baseline configuration.
    let mut configs: Vec<(u8, usize)> = vec![(0, 0)];
    for bits in CHUNKS {
        configs.extend(WIRES.iter().map(|&w| (bits, w)));
    }
    let per_app = run_matrix(&configs, &suite, scale, |&(bits, wires), p| {
        let run = if bits == 0 {
            run_custom_keyed(
                "paper:ConventionalBinary",
                desc_core::schemes::SchemeKind::ConventionalBinary.build_paper_config(),
                cfg,
                p,
                scale,
                1.0,
            )
        } else {
            let scheme = Box::new(DescScheme::new(
                wires,
                ChunkSize::new(bits).expect("valid"),
                SkipMode::Zero,
            ));
            run_custom_keyed(
                &format!("desc:w{wires}:c{bits}:skip=Zero"),
                scheme,
                cfg,
                p,
                scale,
                1.03,
            )
        };
        (run.l2_energy(), run.result.exec_time_s)
    });
    let sums: Vec<(f64, f64)> = (0..configs.len())
        .map(|c| per_app.iter().fold((0.0, 0.0), |acc, row| (acc.0 + row[c].0, acc.1 + row[c].1)))
        .collect();
    let (base_e, base_x) = sums[0];
    let mut t = Table::new(
        "Fig. 26: zero-skipped DESC vs chunk size and wires (normalised to binary)",
        &["Chunk bits", "Wires", "L2 energy", "Exec time"],
    );
    for (&(bits, wires), &(e, x)) in configs.iter().zip(&sums).skip(1) {
        t.row_owned(vec![bits.to_string(), wires.to_string(), r2(e / base_e), r2(x / base_x)]);
    }
    t.note("paper: 4-bit chunks with 128 wires give the best L2 energy-delay product");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_chunks_beat_one_bit_on_energy_and_eight_bit_on_time() {
        let t = run(&Scale { accesses: 1_200, apps: 2, seed: 1, jobs: 1, shards: 1 });
        // Index rows: bits-major then wires; 128 wires is column 2.
        let row = |bits_i: usize, wires_i: usize| bits_i * WIRES.len() + wires_i;
        let energy = |r: usize| -> f64 { t.cell(r, 2).expect("e").parse().expect("num") };
        let time = |r: usize| -> f64 { t.cell(r, 3).expect("t").parse().expect("num") };
        let one_bit = row(0, 2);
        let four_bit = row(2, 2);
        let eight_bit = row(3, 2);
        // 1-bit chunks = one strobe per bit → far more transitions.
        assert!(energy(four_bit) < energy(one_bit));
        // 8-bit chunks → up-to-255-cycle windows → slower.
        assert!(time(four_bit) < time(eight_bit));
    }
}
