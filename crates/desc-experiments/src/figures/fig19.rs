//! Fig. 19: overall processor energy with zero-skipped DESC at the
//! L2, normalised to binary encoding, split into L2 and other
//! hardware units. Paper: 7% total processor savings.

use crate::common::{run_app, run_matrix, Scale};
use crate::table::{geomean, r3, Table};
use desc_core::schemes::SchemeKind;

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Fig. 19: processor energy with zero-skipped DESC (normalised to binary)",
        &["App", "L2 share", "Other units share", "Total"],
    );
    let kinds = [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc];
    let suite = scale.suite();
    let per_app = run_matrix(&kinds, &suite, scale, |&kind, p| run_app(kind, p, scale));
    let mut totals = Vec::new();
    for (p, row) in suite.iter().zip(&per_app) {
        let (base, desc) = (&row[0], &row[1]);
        let denom = base.processor.processor_total_j();
        let l2 = desc.l2.total() / denom;
        let other = desc.processor.other_units_j() / denom;
        totals.push(l2 + other);
        t.row_owned(vec![p.name.into(), r3(l2), r3(other), r3(l2 + other)]);
    }
    t.row_owned(vec!["Geomean".into(), String::new(), String::new(), r3(geomean(&totals))]);
    t.note("paper: ~0.93 total (7% processor savings)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_savings_in_paper_band() {
        let t = run(&Scale { accesses: 2_500, apps: 3, seed: 1, jobs: 1, shards: 1 });
        let last = t.row_count() - 1;
        let total: f64 = t.cell(last, 3).expect("geomean").parse().expect("number");
        assert!((0.85..=0.99).contains(&total), "normalised processor energy {total}");
    }
}
