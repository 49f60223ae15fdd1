//! Fig. 20: execution time of the data-communication schemes,
//! normalised to binary encoding (paper: DESC variants within 2%,
//! wire-overhead baselines within 1%).

use crate::common::{run_app, run_matrix, Scale};
use crate::table::{geomean, r3, Table};
use desc_core::schemes::SchemeKind;

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let suite = scale.suite();
    let mut t = Table::new(
        "Fig. 20: execution time by transfer technique (normalised to binary)",
        &["Scheme", "Normalised execution time"],
    );
    let times: Vec<Vec<f64>> =
        run_matrix(&SchemeKind::ALL, &suite, scale, |&kind, p| run_app(kind, p, scale))
            .into_iter()
            .map(|row| row.into_iter().map(|r| r.result.exec_time_s).collect())
            .collect();
    let base = SchemeKind::ALL
        .iter()
        .position(|&k| k == SchemeKind::ConventionalBinary)
        .expect("conventional binary is always part of the scheme list");
    for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
        let ratios: Vec<f64> = times.iter().map(|row| row[i] / row[base]).collect();
        t.row_owned(vec![kind.label().into(), r3(geomean(&ratios))]);
    }
    t.note("paper: zero-/last-value-skipped DESC add <2%; baselines ~1%");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_small() {
        let t = run(&Scale { accesses: 2_500, apps: 3, seed: 1, jobs: 2, shards: 1 });
        for row in 0..t.row_count() {
            let ratio: f64 = t.cell(row, 1).expect("ratio").parse().expect("number");
            assert!(
                (0.97..=1.10).contains(&ratio),
                "{} execution ratio {ratio}",
                t.cell(row, 0).expect("name")
            );
        }
    }
}
