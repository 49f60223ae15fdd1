//! # desc-experiments
//!
//! The reproduction harness: one runner per table and figure of the
//! paper's evaluation (§5). Each runner returns a [`Table`] whose rows
//! mirror the corresponding figure's bars or series, normalised the
//! same way the paper normalises them. The `repro` binary prints any
//! or all of them:
//!
//! ```text
//! repro fig16           # L2 energy, all eight schemes, per app
//! repro --quick all     # every experiment at reduced scale
//! ```
//!
//! Paper-vs-measured numbers for every experiment are recorded in the
//! repository's `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod common;
pub mod figures;
pub mod progress;
pub mod table;

pub use common::{AppRun, Scale};
pub use table::Table;

/// Every experiment the harness can regenerate, in paper order.
#[must_use]
pub fn experiment_names() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "table3",
        "fig1",
        "fig2",
        "fig3",
        "fig5",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "fig22",
        "fig23",
        "fig24",
        "fig25",
        "fig26",
        "fig27",
        "fig28",
        "fig29",
        "fig30",
        "abl-sync",
        "abl-adaptive",
        "abl-count-list",
        "abl-low-swing",
    ]
}

/// Runs one experiment by name.
///
/// # Panics
///
/// Panics if `name` is not one of [`experiment_names`].
#[must_use]
pub fn run_experiment(name: &str, scale: &Scale) -> Table {
    match name {
        "table1" => figures::tables::table1(),
        "table2" => figures::tables::table2(),
        "table3" => figures::tables::table3(),
        "fig1" => figures::fig01::run(scale),
        "fig2" => figures::fig02::run(scale),
        "fig3" => figures::fig03::run(),
        "fig5" => figures::fig05::run(),
        "fig12" => figures::fig12::run(scale),
        "fig13" => figures::fig13::run(scale),
        "fig14" => figures::fig14::run(scale),
        "fig15" => figures::fig15::run(scale),
        "fig16" => figures::fig16::run(scale),
        "fig17" => figures::fig17::run(),
        "fig18" => figures::fig18::run(scale),
        "fig19" => figures::fig19::run(scale),
        "fig20" => figures::fig20::run(scale),
        "fig21" => figures::fig21::run(scale),
        "fig22" => figures::fig22::run(scale),
        "fig23" => figures::fig23::run(scale),
        "fig24" => figures::fig24::run(scale),
        "fig25" => figures::fig25::run(scale),
        "fig26" => figures::fig26::run(scale),
        "fig27" => figures::fig27::run(scale),
        "fig28" => figures::fig28::run(scale),
        "fig29" => figures::fig29::run(scale),
        "fig30" => figures::fig30::run(scale),
        "abl-sync" => figures::ablations::abl_sync(scale),
        "abl-adaptive" => figures::ablations::abl_adaptive(scale),
        "abl-count-list" => figures::ablations::abl_chunk_order(scale),
        "abl-low-swing" => figures::ablations::abl_wires(scale),
        other => panic!("unknown experiment {other:?}; see experiment_names()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs_at_tiny_scale() {
        // Every key demanded on the way is checked against the scheme
        // construction that first demanded it (`cache::note_demand`).
        let scale = Scale::tiny();
        for name in experiment_names() {
            let table = run_experiment(name, &scale);
            assert!(!table.render().is_empty(), "{name} rendered nothing");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = run_experiment("fig99", &Scale::tiny());
    }
}
