//! Ablations of DESC's design choices — not paper figures, but
//! experiments the paper's §2/§3 discussion implies:
//!
//! * `abl_sync` — the synchronization strobe's cost: DESC on an
//!   asynchronous cache (strobe per §3.1) vs a synchronous cache
//!   sharing the clock network (no strobe).
//! * `abl_adaptive` — adaptive frequent-value skipping vs zero and
//!   last-value skipping (the paper's §3.3: gains "not appreciable").
//! * `abl_chunk_order` — sensitivity to the skip-value count-list
//!   optimisation: with and without excluding the skip value from the
//!   count list (Fig. 10's 6→5-cycle window shrink).
//! * `abl_wires` — DESC on low-swing interconnect (the paper's §2
//!   argues activity reduction composes with low-swing wires).

use crate::common::{run_custom_keyed, run_matrix, Scale};
use crate::table::{geomean, r2, r3, Table};
use desc_core::schemes::{AdaptiveDescScheme, DescScheme, SchemeKind, SkipMode};
use desc_core::{ChunkSize, TransferScheme};
use desc_sim::SimConfig;

/// Synchronization-strobe ablation.
#[must_use]
pub fn abl_sync(scale: &Scale) -> Table {
    let suite = scale.suite();
    let cfg = SimConfig::paper_multithreaded();
    let configs: [(&str, Option<bool>); 3] = [
        ("Binary", None),
        ("Zero-skip DESC + sync strobe (async cache)", Some(true)),
        ("Zero-skip DESC, shared clock (sync cache)", Some(false)),
    ];
    let per_app = run_matrix(&configs, &suite, scale, |&(_, build), p| {
        let (scheme, id): (Box<dyn TransferScheme>, &str) = match build {
            None => {
                (SchemeKind::ConventionalBinary.build_paper_config(), "paper:ConventionalBinary")
            }
            Some(true) => (
                Box::new(DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero)),
                "desc:w128:c4:skip=Zero",
            ),
            Some(false) => (
                Box::new(
                    DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero)
                        .without_sync_strobe(),
                ),
                "desc:w128:c4:skip=Zero:nostrobe",
            ),
        };
        let overhead = if build.is_some() { 1.03 } else { 1.0 };
        run_custom_keyed(id, scheme, cfg, p, scale, overhead).l2_energy()
    });
    let totals: Vec<f64> =
        (0..configs.len()).map(|c| per_app.iter().map(|row| row[c]).sum()).collect();
    let base = totals[0];
    let mut t = Table::new(
        "Ablation: synchronization strobe cost (L2 energy vs binary)",
        &["Configuration", "Normalised L2 energy"],
    );
    for ((name, _), total) in configs.iter().zip(&totals) {
        t.row_owned(vec![(*name).into(), r3(total / base)]);
    }
    t.note("the strobe toggles once per window cycle; synchronous caches avoid it");
    t
}

/// Adaptive frequent-value skipping ablation (paper §3.3).
#[must_use]
pub fn abl_adaptive(scale: &Scale) -> Table {
    let suite = scale.suite();
    let cfg = SimConfig::paper_multithreaded();
    let mut t = Table::new(
        "Ablation: skip-value policies (L2 energy vs binary)",
        &["Policy", "Normalised L2 energy"],
    );
    // Configuration 0 is the per-app binary baseline; 1–3 the skip
    // policies, built by index so the sweep closure stays `Sync`.
    const POLICIES: [&str; 3] =
        ["Zero skipping", "Last-value skipping", "Adaptive frequent-value skipping"];
    let configs: [usize; 4] = [0, 1, 2, 3];
    let per_app = run_matrix(&configs, &suite, scale, |&i, p| {
        let (scheme, id, overhead): (Box<dyn TransferScheme>, &str, f64) = match i {
            0 => (
                SchemeKind::ConventionalBinary.build_paper_config(),
                "paper:ConventionalBinary",
                1.0,
            ),
            1 => (
                Box::new(DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero)),
                "desc:w128:c4:skip=Zero",
                1.03,
            ),
            2 => (
                Box::new(DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::LastValue)),
                "desc:w128:c4:skip=LastValue",
                1.03,
            ),
            _ => (
                Box::new(AdaptiveDescScheme::new(128, ChunkSize::PAPER_DEFAULT)),
                "adaptive-desc:w128:c4",
                1.03,
            ),
        };
        run_custom_keyed(id, scheme, cfg, p, scale, overhead).l2_energy()
    });
    for (i, name) in POLICIES.iter().enumerate() {
        let ratios: Vec<f64> = per_app.iter().map(|row| row[i + 1] / row[0]).collect();
        t.row_owned(vec![(*name).into(), r3(geomean(&ratios))]);
    }
    t.note("paper §3.3: adaptive detection of frequent non-zero chunks is not appreciably better");
    t
}

/// Count-list optimisation ablation: how much of the window shrink
/// comes from excluding the skip value from the count list. We model
/// the unoptimised variant by charging basic-DESC positions (v+1) on
/// an otherwise zero-skipped transfer — one extra cycle per window.
#[must_use]
pub fn abl_chunk_order(scale: &Scale) -> Table {
    let suite = scale.suite();
    let mut t = Table::new(
        "Ablation: count-list optimisation (mean window cycles per block)",
        &["Variant", "Mean transfer cycles", "Mean transitions"],
    );
    let per_app = run_matrix(&[()], &suite, scale, |&(), p| {
        let mut scheme =
            DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero).without_sync_strobe();
        let mut stream = p.value_stream(scale.seed);
        let mut cycles = 0.0;
        let mut trans = 0.0;
        let mut blocks = 0u64;
        for _ in 0..(scale.accesses / 4).max(100) {
            let c = scheme.transfer(&stream.next_block());
            cycles += c.cycles as f64;
            trans += c.total_transitions() as f64;
            blocks += 1;
        }
        (cycles, trans, blocks)
    });
    let mut optimised_cycles = 0.0;
    let mut optimised_trans = 0.0;
    let mut blocks = 0u64;
    for row in &per_app {
        optimised_cycles += row[0].0;
        optimised_trans += row[0].1;
        blocks += row[0].2;
    }
    let n = blocks as f64;
    t.row_owned(vec![
        "Skip value excluded (paper Fig. 10-b)".into(),
        r2(optimised_cycles / n),
        r2(optimised_trans / n),
    ]);
    // Unoptimised: every strobe position shifts by +1 (value v at
    // cycle v+1), so each non-empty window is one cycle longer.
    t.row_owned(vec![
        "Skip value kept in count list".into(),
        r2(optimised_cycles / n + 1.0),
        r2(optimised_trans / n),
    ]);
    t.note("excluding the skip value shortens every window by one cycle (6→5 in Fig. 10)");
    t
}

/// Low-swing interconnect ablation (paper §2: activity reduction
/// composes with low-swing signalling \[7, 2\]). Low-swing wires cut
/// per-transition energy several-fold for every scheme; DESC's
/// *relative* advantage persists.
#[must_use]
pub fn abl_wires(scale: &Scale) -> Table {
    use desc_cacti::Signaling;
    let suite = scale.suite();
    let kinds = [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc];
    let signalings = [Signaling::FullSwing, Signaling::low_swing_default()];
    let configs: Vec<(SchemeKind, Signaling)> =
        kinds.into_iter().flat_map(|kind| signalings.into_iter().map(move |s| (kind, s))).collect();
    let per_app = run_matrix(&configs, &suite, scale, |&(kind, signaling), p| {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.signaling = signaling;
        let overhead = if kind.is_desc() { 1.03 } else { 1.0 };
        run_custom_keyed(
            &format!("paper:{kind:?}"),
            kind.build_paper_config(),
            cfg,
            p,
            scale,
            overhead,
        )
        .l2_energy()
    });
    let totals: Vec<f64> =
        (0..configs.len()).map(|c| per_app.iter().map(|row| row[c]).sum()).collect();
    let rows: Vec<(&str, f64, f64)> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| (kind.label(), totals[2 * i], totals[2 * i + 1]))
        .collect();
    let base = rows[0].1; // full-swing binary
    let mut t = Table::new(
        "Ablation: full-swing vs low-swing wires (L2 energy vs full-swing binary)",
        &["Scheme", "Full swing", "Low swing (0.2 V)"],
    );
    for (name, full, low) in rows {
        t.row_owned(vec![name.into(), r3(full / base), r3(low / base)]);
    }
    t.note("DESC's relative saving persists on low-swing interconnect (paper §2)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale { accesses: 1_500, apps: 2, seed: 1, jobs: 1, shards: 1 }
    }

    #[test]
    fn sync_strobe_costs_measurable_energy() {
        let t = abl_sync(&scale());
        let with: f64 = t.cell(1, 1).expect("with").parse().expect("num");
        let without: f64 = t.cell(2, 1).expect("without").parse().expect("num");
        assert!(without < with, "removing the strobe must save energy");
        assert!(with - without < 0.2, "strobe cost implausibly large");
    }

    #[test]
    fn adaptive_is_not_appreciably_better() {
        let t = abl_adaptive(&scale());
        let zero: f64 = t.cell(0, 1).expect("zero").parse().expect("num");
        let adaptive: f64 = t.cell(2, 1).expect("adaptive").parse().expect("num");
        assert!((adaptive - zero).abs() < 0.08, "zero {zero} vs adaptive {adaptive}");
    }

    #[test]
    fn count_list_saves_one_cycle() {
        let t = abl_chunk_order(&scale());
        let opt: f64 = t.cell(0, 1).expect("opt").parse().expect("num");
        let unopt: f64 = t.cell(1, 1).expect("unopt").parse().expect("num");
        assert!((unopt - opt - 1.0).abs() < 1e-9);
    }

    #[test]
    fn low_swing_preserves_desc_advantage() {
        let t = abl_wires(&scale());
        let bin_low: f64 = t.cell(0, 2).expect("cell").parse().expect("num");
        let desc_low: f64 = t.cell(1, 2).expect("cell").parse().expect("num");
        assert!(desc_low < bin_low, "DESC must still win on low-swing wires");
    }
}
