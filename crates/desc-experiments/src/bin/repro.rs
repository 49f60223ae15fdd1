//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro fig16 fig20        # specific experiments
//! repro all                # everything, full scale
//! repro --quick all        # everything, reduced scale
//! repro --report out.json  # machine-readable run report (implies all)
//! repro --trace out.json   # Chrome/Perfetto execution timeline
//! repro --list             # available experiment names
//! ```
//!
//! # Exit codes
//!
//! Errors are uniform: one line on stderr, and a distinct code per
//! error class so scripts can tell misuse from bad selection from I/O
//! failure.
//!
//! | code | meaning                                        |
//! |------|------------------------------------------------|
//! | 0    | success                                        |
//! | 2    | usage error (unknown/malformed flag, no names) |
//! | 3    | unknown experiment name                        |
//! | 4    | failed to write a requested output file        |
//! | 5    | `--cache-dir` unusable (cannot create/write)   |
//!
//! Damaged cache *contents* never exit nonzero: a version-mismatched
//! or corrupt entry is warned about, recomputed, and overwritten —
//! the cache can degrade a run's speed, never its figures.

use desc_experiments::progress::{self, Reporter};
use desc_experiments::{experiment_names, run_experiment, Scale};
use desc_telemetry::{Report, ReportMeta};
use std::process::ExitCode;
use std::time::Instant;

/// Malformed or unknown command line (see `--help`).
const EXIT_USAGE: u8 = 2;
/// An experiment name not in `--list`.
const EXIT_UNKNOWN_EXPERIMENT: u8 = 3;
/// A requested output file (`--report`, `--trace`) could not be
/// written.
const EXIT_WRITE_FAILED: u8 = 4;
/// `--cache-dir` could not be opened (created or probed writable).
const EXIT_CACHE: u8 = 5;

/// Prints a usage-class error and returns the usage exit code.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("repro: {msg}");
    eprintln!("repro: try `repro --help`");
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::full();
    let mut scale_label = "full";
    let mut names: Vec<String> = Vec::new();
    let mut csv = false;
    let mut quiet = false;
    let mut force_progress = false;
    let mut jobs: Option<usize> = None;
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => {
                scale = Scale::quick();
                scale_label = "quick";
            }
            "--csv" => csv = true,
            "--quiet" => quiet = true,
            "--progress" => force_progress = true,
            "--tiny" => {
                scale = Scale::tiny();
                scale_label = "tiny";
            }
            "--seed" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(seed)) => scale.seed = seed,
                _ => return usage_error("--seed needs an integer argument"),
            },
            "--accesses" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => scale.accesses = n,
                _ => return usage_error("--accesses needs a positive integer argument"),
            },
            "--apps" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if (1..=16).contains(&n) => scale.apps = n,
                _ => return usage_error("--apps needs an integer in 1..=16"),
            },
            "--jobs" | "-j" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = Some(n),
                _ => return usage_error("--jobs needs a positive integer argument"),
            },
            "--shards" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => scale.shards = n,
                _ => return usage_error("--shards needs a positive integer argument"),
            },
            "--report" => match iter.next() {
                Some(path) if !path.is_empty() => {
                    report_path = Some(std::path::PathBuf::from(path));
                }
                _ => return usage_error("--report needs an output path argument"),
            },
            "--cache-dir" => match iter.next() {
                Some(path) if !path.is_empty() => {
                    cache_dir = Some(std::path::PathBuf::from(path));
                }
                _ => return usage_error("--cache-dir needs a directory path argument"),
            },
            "--trace" => match iter.next() {
                Some(path) if !path.is_empty() => {
                    trace_path = Some(std::path::PathBuf::from(path));
                }
                _ => return usage_error("--trace needs an output path argument"),
            },
            "--list" | "-l" => {
                for n in experiment_names() {
                    println!("{n}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick|--tiny] [--csv] [--quiet] [--seed N] [--accesses N] \
                     [--apps N] [--jobs N] [--shards N] [--report PATH] [--trace PATH] \
                     [--cache-dir DIR] <experiment...|all>\n\
                     --jobs N      run up to N sweep cells concurrently; results are\n\
                     bit-identical for any N (default: all hardware threads)\n\
                     --shards N    run up to N of each cell's bank partitions concurrently;\n\
                     bit-identical for any N (default: 1). jobs and shards\n\
                     are caps on one shared pool and never multiply threads\n\
                     --report PATH enable telemetry and write a machine-readable JSON run\n\
                     report (counters, histograms, pool utilization, spans);\n\
                     defaults to all experiments\n\
                     --trace PATH  enable telemetry and write a Chrome trace-event JSON\n\
                     timeline (one lane per pool thread) for Perfetto;\n\
                     see docs/TELEMETRY.md\n\
                     --cache-dir DIR  persist the cell store under DIR; every run serves\n\
                     repeat cells from its store, which without DIR is\n\
                     memory-only and ends with the process; warm results are\n\
                     byte-identical to cold ones; rerun on DIR to continue an\n\
                     interrupted run (see docs/CACHE.md)\n\
                     --quiet       suppress the live progress line on stderr\n\
                     --progress    force the live progress line even when stderr is\n\
                     not a terminal\n\
                     exit codes: 0 ok, 2 usage error, 3 unknown experiment,\n\
                     4 output write failure, 5 unusable cache dir\n\
                     experiments: {}",
                    experiment_names().join(" ")
                );
                return ExitCode::SUCCESS;
            }
            "all" => names.extend(experiment_names().iter().map(|s| (*s).to_owned())),
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag {other:?}"));
            }
            other => names.push(other.to_owned()),
        }
    }
    if names.is_empty() {
        if report_path.is_some() || trace_path.is_some() {
            // A report or trace with no explicit selection covers
            // everything.
            names.extend(experiment_names().iter().map(|s| (*s).to_owned()));
        } else {
            return usage_error("no experiments requested");
        }
    }
    // Sweeps are deterministic for any job count, so defaulting to all
    // hardware threads is safe.
    scale.jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let known = experiment_names();
    for name in &names {
        if !known.contains(&name.as_str()) {
            eprintln!("repro: unknown experiment {name:?}; try `repro --list`");
            return ExitCode::from(EXIT_UNKNOWN_EXPERIMENT);
        }
    }
    let telemetry = report_path.is_some() || trace_path.is_some();
    if telemetry {
        desc_telemetry::set_enabled(true);
    }
    if let Some(dir) = &cache_dir {
        match desc_cache::CacheStore::open(dir, desc_experiments::cache::CELL_SCHEMA_VERSION) {
            Ok(store) => desc_experiments::cache::install(Some(std::sync::Arc::new(store))),
            Err(e) => {
                eprintln!("repro: unusable cache dir {}: {e}", dir.display());
                return ExitCode::from(EXIT_CACHE);
            }
        }
    }
    let store = desc_experiments::cache::active();
    // Size the shared pool once telemetry state is settled. `--jobs`
    // sets the pool size; `--shards` only caps how many of a cell's
    // bank partitions run concurrently *within* that pool — the two
    // never multiply, so the process runs at most `jobs` sim threads.
    desc_exec::configure(scale.jobs);

    // Live progress goes to stderr only when someone is watching (or
    // explicitly asked): never into redirected logs, never with
    // `--quiet`.
    progress::set_experiment_count(names.len());
    let reporter = (!quiet && (force_progress || progress::stderr_is_tty())).then(Reporter::start);

    for name in &names {
        let started = Instant::now();
        desc_telemetry::set_context(name);
        progress::begin_experiment(name);
        let table = {
            let _span = desc_telemetry::span("experiment", name.as_str());
            run_experiment(name, &scale)
        };
        desc_telemetry::set_context("");
        let finished = progress::end_experiment();
        if let (Some(reporter), Some((fig, cells, secs))) = (&reporter, finished) {
            reporter.experiment_finished(&fig, cells, secs);
        }
        if csv {
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
            println!("[{name} completed in {:.1}s]\n", started.elapsed().as_secs_f64());
        }
    }
    if let Some(reporter) = reporter {
        reporter.finish();
    }

    let s = store.stats();
    eprintln!(
        "cache: {} hits ({} memory, {} disk), {} misses, {} stores",
        s.hits(),
        s.hits_memory,
        s.hits_disk,
        s.misses,
        s.stores
    );
    if s.version_mismatches > 0 {
        eprintln!(
            "repro: warning: {} entr{} from a different cell-schema version recomputed",
            s.version_mismatches,
            if s.version_mismatches == 1 { "y" } else { "ies" }
        );
    }
    if s.errors > 0 {
        eprintln!(
            "repro: warning: {} corrupt or unwritable cache entr{} (recomputed; non-fatal)",
            s.errors,
            if s.errors == 1 { "y" } else { "ies" }
        );
    }

    // One drain serves both artifacts, so the report's spans and the
    // Chrome timeline describe the same events.
    let spans = if telemetry { desc_telemetry::drain_spans() } else { Vec::new() };
    if let Some(path) = &trace_path {
        let doc = desc_telemetry::chrome_trace("repro", &desc_telemetry::worker_names(), &spans);
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            eprintln!("repro: failed to write trace to {}: {e}", path.display());
            return ExitCode::from(EXIT_WRITE_FAILED);
        }
        eprintln!("wrote execution trace to {} (open in https://ui.perfetto.dev)", path.display());
    }
    if let Some(path) = &report_path {
        let report = Report {
            meta: ReportMeta {
                tool: "repro".to_owned(),
                version: env!("CARGO_PKG_VERSION").to_owned(),
                seed: scale.seed,
                scale: scale_label.to_owned(),
                jobs: scale.jobs,
                shards: scale.shards,
                experiments: names.clone(),
                spans_dropped: desc_telemetry::spans_dropped(),
            },
            snapshot: desc_telemetry::global().snapshot(),
            pool: Some(desc_exec::utilization()),
            cache: Some(store.report()),
            serve: None,
            spans,
        };
        if let Err(e) = report.write_to(path) {
            eprintln!("repro: failed to write report to {}: {e}", path.display());
            return ExitCode::from(EXIT_WRITE_FAILED);
        }
        eprintln!("wrote run report to {}", path.display());
    }
    ExitCode::SUCCESS
}
