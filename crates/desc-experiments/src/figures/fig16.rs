//! Fig. 16: L2 cache energy achieved by all eight data-transfer
//! techniques, per application, normalised to conventional binary.
//! The paper's headline: zero-skipped DESC reduces L2 energy 1.81×
//! (i.e. to ≈0.55) on average.

use crate::common::{run_app, run_matrix_labeled, Scale};
use crate::table::{geomean, r2, Table};
use desc_core::schemes::SchemeKind;

/// Index of the normalisation baseline within [`SchemeKind::ALL`].
fn binary_index() -> usize {
    SchemeKind::ALL
        .iter()
        .position(|&k| k == SchemeKind::ConventionalBinary)
        .expect("conventional binary is always part of the scheme list")
}

/// Per-app, per-scheme L2 energies for the whole sweep, computed
/// across `scale.jobs` workers (indexed `[app][scheme]`).
fn energy_matrix(scale: &Scale) -> Vec<Vec<f64>> {
    let suite = scale.suite();
    run_matrix_labeled(
        &SchemeKind::ALL,
        &suite,
        scale,
        |c, p| format!("{}/{}", SchemeKind::ALL[c].label(), suite[p].name),
        |&kind, p| run_app(kind, p, scale),
    )
    .into_iter()
    .map(|row| row.into_iter().map(|r| r.l2_energy()).collect())
    .collect()
}

/// Per-scheme geomean of normalised L2 energy — the numbers behind
/// the figure, exposed for tests and EXPERIMENTS.md.
#[must_use]
pub fn scheme_geomeans(scale: &Scale) -> Vec<(SchemeKind, f64)> {
    let energies = energy_matrix(scale);
    let base = binary_index();
    SchemeKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let ratios: Vec<f64> = energies.iter().map(|row| row[i] / row[base]).collect();
            (kind, geomean(&ratios))
        })
        .collect()
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let suite = scale.suite();
    let mut headers: Vec<&str> = vec!["App"];
    let labels: Vec<&str> = SchemeKind::ALL.iter().map(|k| k.label()).collect();
    headers.extend(labels.iter());
    let mut t =
        Table::new("Fig. 16: L2 energy by transfer technique (normalised to binary)", &headers);

    let energies = energy_matrix(scale);
    let base = binary_index();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); SchemeKind::ALL.len()];
    for (p, row) in suite.iter().zip(&energies) {
        let mut cells = vec![p.name.to_owned()];
        for (i, _) in SchemeKind::ALL.into_iter().enumerate() {
            let ratio = row[i] / row[base];
            per_scheme[i].push(ratio);
            cells.push(r2(ratio));
        }
        t.row_owned(cells);
    }
    let mut geo = vec!["Geomean".to_owned()];
    for ratios in &per_scheme {
        geo.push(r2(geomean(ratios)));
    }
    t.row_owned(geo);
    t.note("paper geomeans: DZC 0.90, BIC 0.81, BIC+ZS 0.80, basic DESC 0.89, zero-skip DESC 0.55 (1.81x), last-value DESC 0.56");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_orderings_hold() {
        let geo: std::collections::HashMap<_, _> =
            scheme_geomeans(&Scale { accesses: 2_500, apps: 3, seed: 1, jobs: 2, shards: 1 })
                .into_iter()
                .collect();
        let g = |k: SchemeKind| geo[&k];
        // Binary is the unit baseline.
        assert!((g(SchemeKind::ConventionalBinary) - 1.0).abs() < 1e-9);
        // Zero-skipped DESC is the overall winner (paper: 0.55).
        let zs = g(SchemeKind::ZeroSkippedDesc);
        assert!(zs < 0.75, "zero-skip DESC at {zs}");
        assert!(zs < g(SchemeKind::BusInvertCoding));
        assert!(zs < g(SchemeKind::DynamicZeroCompression));
        assert!(zs < g(SchemeKind::BasicDesc));
        // Last-value DESC is close behind but not better (paper: 0.56).
        assert!(g(SchemeKind::LastValueSkippedDesc) >= zs * 0.9);
        // Every technique saves energy vs binary.
        for kind in SchemeKind::ALL {
            assert!(g(kind) <= 1.05, "{kind} at {}", g(kind));
        }
    }
}
