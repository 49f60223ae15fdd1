//! Fig. 30: execution time of SPEC CPU2006 applications on the
//! out-of-order machine with zero-skipped DESC, normalised to binary
//! (paper geomean ≈ 1.06 — latency-sensitive cores pay for DESC's
//! longer transfers).

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{geomean, r3, Table};
use desc_core::schemes::SchemeKind;
use desc_sim::SimConfig;
use desc_workloads::spec_suite;

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Fig. 30: SPEC 2006 execution time with zero-skipped DESC (OoO core, normalised)",
        &["App", "Normalised execution time"],
    );
    let cfg = SimConfig::paper_out_of_order();
    let apps: Vec<_> = spec_suite().into_iter().take(scale.apps.max(2)).collect();
    let kinds = [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc];
    let per_app = run_matrix(&kinds, &apps, scale, |&kind, p| {
        let overhead = if kind.is_desc() { 1.03 } else { 1.0 };
        run_custom_keyed(
            &format!("paper:{kind:?}"),
            kind.build_paper_config(),
            cfg,
            p,
            scale,
            overhead,
        )
        .result
        .exec_time_s
    });
    let mut ratios = Vec::new();
    for (p, row) in apps.iter().zip(&per_app) {
        let r = row[1] / row[0];
        ratios.push(r);
        t.row_owned(vec![p.name.into(), r3(r)]);
    }
    t.row_owned(vec!["Geomean".into(), r3(geomean(&ratios))]);
    t.note("paper geomean ≈ 1.06");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ooo_slowdown_is_visible_but_bounded() {
        let t = run(&Scale { accesses: 2_500, apps: 4, seed: 1, jobs: 1, shards: 1 });
        let last = t.row_count() - 1;
        let g: f64 = t.cell(last, 1).expect("geomean").parse().expect("num");
        assert!((1.0..=1.15).contains(&g), "OoO slowdown {g}, paper ≈1.06");
    }
}
