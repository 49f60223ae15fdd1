//! # desc-bench
//!
//! Benchmark-only crate: dependency-free timing harnesses tracking the
//! throughput of the DESC reproduction's hot paths.
//!
//! * `bench_transfers` — steady-state `Link::transfer` throughput per
//!   skip mode (`BENCH_link.json`).
//! * `bench_codecs` — SECDED encode/decode and chunk-interleave
//!   throughput (`BENCH_ecc.json`).
//! * `bench_pipeline` — end-to-end simulate → price → roll-up pipeline
//!   throughput (`BENCH_pipeline.json`).
//!
//! Every harness appends to its JSON file through [`append_history`]:
//! the latest numbers stay at the top level (`results`) for scripts
//! that only want the current state, while `history` accumulates one
//! entry per run so regressions are visible as a time series.
//!
//! For full-scale figure regeneration use the `repro` binary from
//! `desc-experiments` instead; benches exist to keep the whole
//! reproduction harness fast and regression-tracked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use desc_telemetry::Json;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Appends one benchmark run to `path` in the shared history format.
///
/// The written document keeps the original single-run layout at the
/// top level — `benchmark`, `config`, `results` always reflect the
/// *latest* run — and grows a `history` array with one entry per run
/// (`recorded_unix_s`, `host_cores` + that run's `results`, so runs on
/// different hosts are never compared blind). Existing files are
/// parsed and extended; a pre-history file's `results` become the
/// first history entry, and an unparseable file is replaced with a
/// fresh single-entry history rather than aborting the run.
///
/// # Errors
///
/// Propagates the final write's I/O error.
pub fn append_history(
    path: &Path,
    benchmark: &str,
    config: Json,
    results: Json,
) -> std::io::Result<()> {
    let mut history: Vec<Json> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(old) = Json::parse(&text) {
            if let Some(entries) = old.get("history").and_then(Json::as_arr) {
                history = entries.to_vec();
            } else if let Some(previous) = old.get("results") {
                // Old single-run format: keep its numbers as the first
                // history entry (it carries no timestamp of its own).
                history.push(Json::obj().with("results", previous.clone()));
            }
        }
    }
    let recorded = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    history.push(
        Json::obj()
            .with("recorded_unix_s", Json::UInt(recorded))
            .with("host_cores", Json::UInt(host_cores() as u64))
            .with("results", results.clone()),
    );
    let doc = Json::obj()
        .with("benchmark", Json::Str(benchmark.to_owned()))
        .with("config", config)
        .with("results", results)
        .with("history", Json::Arr(history));
    std::fs::write(path, doc.to_pretty())
}

/// Times `work` over `reps` repetitions of `iters` iterations each and
/// returns the best iterations/second (the least scheduler-disturbed
/// repetition). The caller is responsible for warmup.
pub fn best_rate(iters: usize, reps: usize, mut work: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            work();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    iters as f64 / best
}

/// The host's available parallelism, recorded with every run.
fn host_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Where this run's [`desc_exec`] pool tasks actually executed, for the
/// `pool` stanza every bench config records: a history entry then
/// documents its own concurrency, so serial and pooled runs are never
/// compared blind.
#[must_use]
pub fn pool_stanza() -> Json {
    let s = desc_exec::stats();
    Json::obj()
        .with("host_cores", Json::UInt(host_cores() as u64))
        .with("target", Json::UInt(s.target as u64))
        .with("workers", Json::UInt(s.workers as u64))
        .with("regions", Json::UInt(s.regions))
        .with("tasks_executed", Json::UInt(s.tasks_executed))
        .with("tasks_inline", Json::UInt(s.tasks_inline))
        .with("tasks_helped", Json::UInt(s.tasks_helped))
        .with("tasks_stolen", Json::UInt(s.tasks_stolen))
        .with("regions_nested", Json::UInt(s.regions_nested))
        .with("cap_rejections", Json::UInt(s.cap_rejections))
}

/// Shared scaffolding for the bench binaries: collects result rows,
/// then writes benchmark + config (with the [`pool_stanza`] appended)
/// + rows through [`append_history`] and exits non-zero on I/O error.
pub struct Harness {
    benchmark: &'static str,
    out_path: String,
    results: Vec<Json>,
}

impl Harness {
    /// Creates a harness writing to `out_path`.
    #[must_use]
    pub fn new(benchmark: &'static str, out_path: String) -> Self {
        Self { benchmark, out_path, results: Vec::new() }
    }

    /// Creates a harness writing to the first non-flag CLI argument,
    /// or `default_out` when none is given.
    #[must_use]
    pub fn from_args(benchmark: &'static str, default_out: &str) -> Self {
        let out_path = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .unwrap_or_else(|| default_out.to_owned());
        Self::new(benchmark, out_path)
    }

    /// Adds one result row to the run.
    pub fn push(&mut self, row: Json) {
        self.results.push(row);
    }

    /// Appends the run to the history file and reports the outcome;
    /// exits the process with status 1 if the write fails.
    pub fn finish(self, config: Json) {
        let config = config.with("pool", pool_stanza());
        match append_history(
            Path::new(&self.out_path),
            self.benchmark,
            config,
            Json::Arr(self.results),
        ) {
            Ok(()) => println!("\nwrote {}", self.out_path),
            Err(e) => {
                eprintln!("failed to write {}: {e}", self.out_path);
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_appends_and_preserves_old_results() {
        let dir = std::env::temp_dir().join(format!("desc-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("hist.json");
        // Seed with an old-format (history-less) document.
        std::fs::write(
            &path,
            "{\"benchmark\": \"t\", \"config\": {}, \"results\": [{\"x\": 1}]}\n",
        )
        .expect("seed file");
        let results = Json::Arr(vec![Json::obj().with("x", Json::UInt(2))]);
        append_history(&path, "t", Json::obj(), results.clone()).expect("first append");
        append_history(&path, "t", Json::obj(), results).expect("second append");
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("read"))
            .expect("parse history file");
        let history = doc.get("history").and_then(Json::as_arr).expect("history array");
        // Old results + two appends.
        assert_eq!(history.len(), 3);
        let first_x = history[0]
            .get("results")
            .and_then(|r| r.as_arr())
            .and_then(|a| a.first())
            .and_then(|e| e.get("x"))
            .and_then(Json::as_u64);
        assert_eq!(first_x, Some(1), "old-format results preserved as first entry");
        assert!(history[2].get("recorded_unix_s").is_some());
        assert!(history[2].get("host_cores").and_then(Json::as_u64).is_some());
        // Top level keeps the latest run.
        let top_x = doc
            .get("results")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .and_then(|e| e.get("x"))
            .and_then(Json::as_u64);
        assert_eq!(top_x, Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparseable_file_is_replaced() {
        let dir = std::env::temp_dir().join(format!("desc-bench-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json at all").expect("seed file");
        append_history(&path, "t", Json::obj(), Json::Arr(Vec::new())).expect("append");
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("read")).expect("parse");
        assert_eq!(doc.get("history").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn best_rate_is_positive() {
        let mut n = 0u64;
        let rate = best_rate(100, 2, || n = n.wrapping_add(1));
        assert!(rate > 0.0);
        assert_eq!(n, 200);
    }
}
