//! Fig. 21: average L2 hit delay for conventional binary and
//! zero-skipped DESC on 64- and 128-wire data buses. Paper: DESC adds
//! 31.2 cycles at 64 wires and 8.45 cycles at 128 wires.

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{r2, Table};
use desc_core::schemes::{BinaryScheme, DescScheme, SkipMode};
use desc_core::{ChunkSize, TransferScheme};
use desc_sim::SimConfig;

fn scheme_for(wires: usize, desc: bool) -> Box<dyn TransferScheme> {
    if desc {
        Box::new(DescScheme::new(wires, ChunkSize::PAPER_DEFAULT, SkipMode::Zero))
    } else {
        Box::new(BinaryScheme::new(wires))
    }
}

fn scheme_id(wires: usize, desc: bool) -> String {
    if desc {
        format!("desc:w{wires}:c{}:skip=Zero", ChunkSize::PAPER_DEFAULT.bits())
    } else {
        format!("binary:w{wires}")
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Fig. 21: average L2 hit delay (cycles)",
        &["App", "64-bit binary", "128-bit binary", "64-bit DESC", "128-bit DESC"],
    );
    let cfg = SimConfig::paper_multithreaded();
    let mut sums = [0.0f64; 4];
    let suite = scale.suite();
    let configs = [(64, false), (128, false), (64, true), (128, true)];
    let matrix = run_matrix(&configs, &suite, scale, |&(wires, desc), p| {
        run_custom_keyed(&scheme_id(wires, desc), scheme_for(wires, desc), cfg, p, scale, 1.0)
    });
    for (p, row) in suite.iter().zip(&matrix) {
        let mut cells = vec![p.name.to_owned()];
        for (i, run) in row.iter().enumerate() {
            sums[i] += run.result.avg_hit_latency_cycles;
            cells.push(r2(run.result.avg_hit_latency_cycles));
        }
        t.row_owned(cells);
    }
    let n = suite.len() as f64;
    t.row_owned(vec![
        "Average".into(),
        r2(sums[0] / n),
        r2(sums[1] / n),
        r2(sums[2] / n),
        r2(sums[3] / n),
    ]);
    t.note(
        "paper: DESC adds 31.2 cycles (64-wire) / 8.45 cycles (128-wire) over same-width binary",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_gaps_follow_the_paper_shape() {
        let t = run(&Scale { accesses: 2_000, apps: 3, seed: 1, jobs: 2, shards: 1 });
        let last = t.row_count() - 1;
        let get = |c: usize| -> f64 { t.cell(last, c).expect("avg").parse().expect("number") };
        let (b64, b128, d64, d128) = (get(1), get(2), get(3), get(4));
        // Wider buses are faster for both schemes.
        assert!(b128 < b64);
        assert!(d128 < d64);
        // DESC is slower than binary at the same width, and the gap is
        // far larger at 64 wires (two serialized rounds).
        assert!(d64 > b64 && d128 > b128);
        assert!(
            (d64 - b64) > 1.5 * (d128 - b128),
            "64-wire gap {} vs 128-wire gap {}",
            d64 - b64,
            d128 - b128
        );
        // 128-wire DESC gap lands in the paper's ballpark (8.45 ± a few).
        assert!((3.0..=16.0).contains(&(d128 - b128)), "gap {}", d128 - b128);
    }
}
