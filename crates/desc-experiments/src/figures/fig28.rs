//! Fig. 28: execution time under SECDED ECC for binary and DESC in
//! the paper's W-S configurations (W data wires, S-bit code
//! segments), normalised to 64-bit binary with 64-bit-segment ECC.
//! Paper: zero-skipped DESC stays within ≈1% of binary.

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{geomean, r3, Table};
use desc_core::schemes::{BinaryScheme, DescScheme, SkipMode};
use desc_core::{ChunkSize, TransferScheme};
use desc_ecc::scheme::SecdedScheme;
use desc_ecc::SecdedCode;
use desc_sim::SimConfig;

/// The four W-S configurations of Figs. 28/29, in paper order.
pub const CONFIGS: [&str; 4] = ["64-64 Binary", "128-128 Binary", "128-64 DESC", "128-128 DESC"];

/// Builds the transfer scheme for one W-S configuration.
///
/// # Panics
///
/// Panics if `name` is not in [`CONFIGS`].
#[must_use]
pub fn build_config(name: &str) -> Box<dyn TransferScheme> {
    let c4 = ChunkSize::PAPER_DEFAULT;
    match name {
        // 512 data + 64 parity bits over 64 + 8 wires.
        "64-64 Binary" => {
            Box::new(SecdedScheme::new(BinaryScheme::new(72), SecdedCode::c72_64(), 8))
        }
        // 512 + 36 bits over 128 + 9 wires.
        "128-128 Binary" => {
            Box::new(SecdedScheme::new(BinaryScheme::new(137), SecdedCode::c137_128(), 4))
        }
        // 144 chunks (128 data + 16 parity) over 144 strobe wires.
        "128-64 DESC" => Box::new(SecdedScheme::new(
            DescScheme::new(144, c4, SkipMode::Zero),
            SecdedCode::c72_64(),
            8,
        )),
        // 138 chunks (128 data + 9 parity + padding) over 138 wires.
        "128-128 DESC" => Box::new(SecdedScheme::new(
            DescScheme::new(138, c4, SkipMode::Zero),
            SecdedCode::c137_128(),
            4,
        )),
        other => panic!("unknown ECC configuration {other:?}"),
    }
}

/// Per-app measurements for the four configurations; shared with
/// Fig. 29.
#[must_use]
pub fn measure(scale: &Scale) -> Vec<(String, [f64; 4], [f64; 4])> {
    let cfg = SimConfig::paper_multithreaded();
    let suite = scale.suite();
    let per_app = run_matrix(&CONFIGS, &suite, scale, |name, p| {
        let overhead = if name.contains("DESC") { 1.03 } else { 1.0 };
        let run =
            run_custom_keyed(&format!("ecc:{name}"), build_config(name), cfg, p, scale, overhead);
        (run.result.exec_time_s, run.l2_energy())
    });
    suite
        .iter()
        .zip(&per_app)
        .map(|(p, row)| {
            let mut times = [0.0; 4];
            let mut energies = [0.0; 4];
            for (i, &(x, e)) in row.iter().enumerate() {
                times[i] = x;
                energies[i] = e;
            }
            (p.name.to_owned(), times, energies)
        })
        .collect()
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Fig. 28: execution time under SECDED ECC (normalised to 64-64 binary)",
        &["App", CONFIGS[0], CONFIGS[1], CONFIGS[2], CONFIGS[3]],
    );
    let rows = measure(scale);
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (name, times, _) in &rows {
        let mut cells = vec![name.clone()];
        for (i, &x) in times.iter().enumerate() {
            let r = x / times[0];
            per_cfg[i].push(r);
            cells.push(r3(r));
        }
        t.row_owned(cells);
    }
    let mut geo = vec!["Geomean".to_owned()];
    for ratios in &per_cfg {
        geo.push(r3(geomean(ratios)));
    }
    t.row_owned(geo);
    t.note("paper: zero-skipped DESC within ~1% of binary under ECC");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_under_ecc_stays_close_to_binary() {
        let t = run(&Scale { accesses: 1_500, apps: 2, seed: 1, jobs: 1, shards: 1 });
        let last = t.row_count() - 1;
        for col in 1..=4 {
            let g: f64 = t.cell(last, col).expect("geomean").parse().expect("num");
            assert!((0.9..=1.1).contains(&g), "config {col} ratio {g}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown ECC configuration")]
    fn bad_config_rejected() {
        let _ = build_config("32-32 Ternary");
    }
}
