//! Every sweep over one input shares one L2 outcome stream, whatever
//! the bank count or the cache organisation (DESIGN.md §10): fig16
//! (8 banks), fig22 (2 to 16 banks), fig23 (S-NUCA, 128 banks) and
//! fig25 (1 to 64 banks) all run each app at the same capacity, seed
//! and access count, so together they compute one stream per app.
//!
//! The test sits alone in its binary, so the stream memo and the
//! recorded spans are its own.

use desc_experiments::{cache, run_experiment, Scale};

#[test]
fn bank_sweeps_and_organisations_share_one_stream_per_app() {
    cache::install(None);
    desc_telemetry::set_enabled(true);
    let _ = desc_telemetry::drain_spans();
    let scale = Scale::tiny();
    for name in ["fig16", "fig22", "fig23", "fig25"] {
        let _ = run_experiment(name, &scale);
    }
    desc_telemetry::set_enabled(false);

    let mut computed: Vec<String> = desc_telemetry::drain_spans()
        .into_iter()
        .filter(|s| s.name == "streams")
        .map(|s| s.label)
        .collect();
    computed.sort_unstable();
    let mut apps: Vec<String> = scale.suite().iter().map(|p| p.name.to_string()).collect();
    apps.sort_unstable();
    assert_eq!(computed, apps, "one streams span per app");
}
