//! Workspace-level integration tests: the full pipeline from workload
//! generation through encoding, simulation, energy pricing and the
//! processor roll-up, asserting the paper's headline claims hold
//! end-to-end at reduced scale.

use desc::cacti::CacheModel;
use desc::core::schemes::SchemeKind;
use desc::experiments::figures::fig16;
use desc::experiments::{run_experiment, Scale};
use desc::mcpat::ProcessorConfig;
use desc::sim::{SimConfig, SystemSim};
use desc::workloads::BenchmarkId;

fn scale() -> Scale {
    Scale { accesses: 2_000, apps: 3, seed: 99, jobs: 1, shards: 1 }
}

#[test]
fn headline_l2_energy_reduction_holds_end_to_end() {
    // Paper §5.2: zero-skipped DESC reduces L2 energy substantially
    // (1.81× at full scale); at reduced scale we require ≥1.3×.
    let geos: std::collections::HashMap<_, _> =
        fig16::scheme_geomeans(&scale()).into_iter().collect();
    let zs = geos[&SchemeKind::ZeroSkippedDesc];
    assert!(zs < 0.77, "zero-skip DESC normalised L2 energy {zs}");
    // And it beats every baseline.
    for kind in SchemeKind::ALL {
        if kind != SchemeKind::ZeroSkippedDesc {
            assert!(zs <= geos[&kind] + 1e-9, "{kind} beat zero-skip DESC");
        }
    }
}

#[test]
fn processor_level_savings_track_l2_share() {
    // Fig. 1 ∧ Fig. 19 arithmetic: L2 ≈ 15% of processor energy, so a
    // big L2 saving becomes a mid-single-digit processor saving.
    let s = scale();
    let p = BenchmarkId::Ocean.profile();
    let run = |kind: SchemeKind| {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.bus_width_bits = kind.build_paper_config().wires().total();
        let result = SystemSim::new(cfg, p, s.seed).run(kind.build_paper_config(), s.accesses);
        let l2 = CacheModel::new(cfg.l2).energy_for(&result.activity);
        ProcessorConfig::niagara_like().roll_up(
            result.instructions,
            result.exec_time_s,
            l2,
            result.misses + result.writebacks,
        )
    };
    let base = run(SchemeKind::ConventionalBinary);
    let desc = run(SchemeKind::ZeroSkippedDesc);
    let fraction = base.l2_fraction();
    assert!((0.08..=0.30).contains(&fraction), "L2 share {fraction}");
    let saving = 1.0 - desc.processor_total_j() / base.processor_total_j();
    assert!((0.01..=0.15).contains(&saving), "processor saving {saving}");
}

#[test]
fn experiment_tables_are_deterministic() {
    let a = run_experiment("fig13", &scale()).render();
    let b = run_experiment("fig13", &scale()).render();
    assert_eq!(a, b);
}

#[test]
fn quick_and_full_scales_agree_on_the_winner() {
    let tiny = fig16::scheme_geomeans(&Scale::tiny());
    let winner =
        tiny.iter().min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite")).expect("non-empty").0;
    assert!(
        winner == SchemeKind::ZeroSkippedDesc || winner == SchemeKind::LastValueSkippedDesc,
        "unexpected winner {winner:?}"
    );
}
