//! Any job count must render the same figure text as the serial loop.
//! Cell keys leave out `jobs`, so each run starts on a fresh cell
//! store, and this test sits alone in its binary so that no other test
//! can fill the store it reads.

use desc_experiments::{cache, run_experiment, Scale};

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    // Samples every run_matrix shape: AppRun cells (fig16), generic
    // config axes (fig14, fig22), scalar cells (fig13), S-NUCA rows
    // (fig24), ECC (fig28), and ablations.
    for name in ["fig13", "fig14", "fig16", "fig22", "fig24", "fig28", "abl-adaptive"] {
        cache::install(None);
        let serial = run_experiment(name, &Scale::tiny()).render();
        cache::install(None);
        let parallel = run_experiment(name, &Scale::tiny().with_jobs(4)).render();
        assert_eq!(serial, parallel, "{name} diverged under --jobs 4");
    }
}
