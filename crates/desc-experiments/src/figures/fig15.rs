//! Fig. 15: L2 energy of the baseline encodings as a function of the
//! data-segment size, normalised to binary encoding. The best
//! configuration of each scheme (starred in the paper) becomes its
//! Fig. 16 baseline.

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{r2, Table};
use desc_core::schemes::{
    BusInvertScheme, DzcScheme, EncodedZeroSkipBusInvertScheme, SchemeKind, ZeroSkipBusInvertScheme,
};
use desc_core::TransferScheme;
use desc_sim::SimConfig;

/// The segment sizes the paper sweeps.
pub const SEGMENT_BITS: [usize; 5] = [64, 32, 16, 8, 4];

fn build(scheme: &str, seg: usize) -> Box<dyn TransferScheme> {
    match scheme {
        "DZC" => Box::new(DzcScheme::new(64, seg)),
        "BIC" => Box::new(BusInvertScheme::new(64, seg)),
        "BIC+ZS" => Box::new(ZeroSkipBusInvertScheme::new(64, seg)),
        "BIC+EZS" => Box::new(EncodedZeroSkipBusInvertScheme::new(64, seg)),
        other => panic!("unknown scheme {other}"),
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let suite = scale.suite();
    let cfg = SimConfig::paper_multithreaded();
    // One sweep over binary (the baseline, segment ignored) plus every
    // scheme × segment configuration.
    const SCHEMES: [&str; 4] = ["DZC", "BIC", "BIC+ZS", "BIC+EZS"];
    let mut configs: Vec<(&str, usize)> = vec![("Binary", 0)];
    for name in SCHEMES {
        configs.extend(SEGMENT_BITS.iter().map(|&seg| (name, seg)));
    }
    let per_app = run_matrix(&configs, &suite, scale, |&(name, seg), p| {
        if name == "Binary" {
            run_custom_keyed(
                "paper:ConventionalBinary",
                SchemeKind::ConventionalBinary.build_paper_config(),
                cfg,
                p,
                scale,
                1.0,
            )
            .l2_energy()
        } else {
            run_custom_keyed(
                &format!("{name}:w64:seg{seg}"),
                build(name, seg),
                cfg,
                p,
                scale,
                1.005,
            )
            .l2_energy()
        }
    });
    let totals: Vec<f64> =
        (0..configs.len()).map(|c| per_app.iter().map(|row| row[c]).sum()).collect();
    let binary_total = totals[0];

    let mut t = Table::new(
        "Fig. 15: baseline L2 energy vs segment size (normalised to binary)",
        &["Scheme", "64-bit", "32-bit", "16-bit", "8-bit", "4-bit"],
    );
    for (i, name) in SCHEMES.iter().enumerate() {
        let mut cells = vec![(*name).to_owned()];
        for j in 0..SEGMENT_BITS.len() {
            cells.push(r2(totals[1 + i * SEGMENT_BITS.len() + j] / binary_total));
        }
        t.row_owned(cells);
    }
    t.note("paper best configs: DZC 8-bit, BIC 32-bit, BIC+ZS 32-bit, BIC+EZS 16-bit");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_baselines_beat_or_match_binary_at_some_segment() {
        let t = run(&Scale { accesses: 1_500, apps: 2, seed: 1, jobs: 1, shards: 1 });
        assert_eq!(t.row_count(), 4);
        for row in 0..4 {
            let best = (1..=5)
                .map(|c| t.cell(row, c).expect("cell").parse::<f64>().expect("number"))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 1.05, "row {row} best {best} never beats binary");
        }
    }
}
