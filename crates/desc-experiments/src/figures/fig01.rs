//! Fig. 1: L2 energy as a fraction of total processor energy
//! (baseline binary configuration; paper geomean ≈ 0.15).

use crate::common::{run_app, run_matrix, Scale};
use crate::table::{geomean, r3, Table};
use desc_core::schemes::SchemeKind;

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Fig. 1: L2 energy as a fraction of total processor energy",
        &["App", "L2 fraction"],
    );
    let suite = scale.suite();
    let per_app = run_matrix(&[()], &suite, scale, |&(), p| {
        run_app(SchemeKind::ConventionalBinary, p, scale).processor.l2_fraction()
    });
    let fractions: Vec<f64> = per_app.iter().map(|row| row[0]).collect();
    for (p, &f) in suite.iter().zip(&fractions) {
        t.row_owned(vec![p.name.into(), r3(f)]);
    }
    t.row_owned(vec!["Geomean".into(), r3(geomean(&fractions))]);
    t.note("paper geomean ≈ 0.15");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_are_sane_and_near_paper() {
        let t = run(&Scale { accesses: 2_000, apps: 4, seed: 1, jobs: 1, shards: 1 });
        assert_eq!(t.row_count(), 5);
        let geo: f64 = t.cell(4, 1).expect("geomean row").parse().expect("number");
        assert!((0.05..=0.35).contains(&geo), "L2 fraction geomean {geo}");
    }
}
