//! `bench_pipeline` — throughput harness for the full experiment
//! pipeline: trace generation → cache simulation → energy pricing →
//! processor roll-up.
//!
//! ```text
//! cargo run --release -p desc-bench --bin bench_pipeline \
//!     [-- OUTPUT.json] [--jobs N] [--shards A,B,C]
//! ```
//!
//! Times `run_app` (one complete simulate-and-price cell, exactly what
//! every figure sweep executes per cell, each on a fresh memory-only
//! cell store so every timed cell is cold; the time includes that
//! store's set-up and the key, lookup, encode and insert every cell
//! pays on its way through it) for conventional binary and
//! zero-skipped DESC across a sweep of intra-cell shard counts, plus
//! one S-NUCA-1 cell (`SnucaSim::run`, the fig23/fig24 unit) on the
//! same shard axis, and appends simulated-accesses-per-second to
//! `BENCH_pipeline.json` in the shared history format. Each entry
//! records its `jobs` and `shards` axes so the history distinguishes
//! serial from pooled throughput; results are bit-identical across
//! both axes, only wall-clock moves.
//!
//! A final `cached_sweep` pair times the same multi-app sweep through
//! the `desc-cache` cell store cold (fresh store, all misses) and warm
//! (populated store, all hits) on a new `cache` axis, with the
//! observed hit/miss counters recorded alongside the rates. A
//! `contended_sweep[single_flight]` row on the `contention` axis then
//! runs duplicate concurrent demanders of one cold sweep through one
//! cell store, recording the counters that prove each cell was
//! computed once.
//!
//! `--jobs N` sizes the process-wide `desc_exec` pool (a pool never
//! shrinks, so sweeping jobs takes one process per value — see
//! `scripts/bench_scaling.sh`); `--shards A,B,C` selects the shard
//! counts to sweep (default `1,2,4,8`).
//!
//! `--trace PATH` additionally enables telemetry and writes a
//! Chrome/Perfetto execution timeline of the whole bench run (one lane
//! per pool thread; see `docs/TELEMETRY.md`) — useful for eyeballing
//! where partition tasks actually land as the shard cap sweeps.
//! Tracing changes wall-clock slightly, so rates from traced runs
//! should not be compared against untraced history entries.

use desc_bench::{best_rate, Harness};
use desc_core::schemes::SchemeKind;
use desc_experiments::cache;
use desc_experiments::common::run_app;
use desc_experiments::Scale;
use desc_sim::{SimConfig, SnucaSim};
use desc_telemetry::Json;
use desc_workloads::BenchmarkId;
use std::hint::black_box;

const ACCESSES: usize = 4_000;
const REPS: usize = 5;

struct Args {
    out_path: String,
    jobs: usize,
    shard_counts: Vec<usize>,
    trace_path: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut out_path = "BENCH_pipeline.json".to_owned();
    let mut jobs = 1usize;
    let mut shard_counts = vec![1, 2, 4, 8];
    let mut trace_path = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--jobs" | "-j" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer argument");
                    std::process::exit(1);
                }
            },
            "--trace" => match iter.next() {
                Some(path) if !path.is_empty() => {
                    trace_path = Some(std::path::PathBuf::from(path));
                }
                _ => {
                    eprintln!("--trace needs an output path argument");
                    std::process::exit(1);
                }
            },
            "--shards" => {
                let parsed: Option<Vec<usize>> = iter
                    .next()
                    .map(|v| v.split(',').map(|s| s.trim().parse::<usize>().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(counts) if !counts.is_empty() && counts.iter().all(|&c| c > 0) => {
                        shard_counts = counts;
                    }
                    _ => {
                        eprintln!("--shards needs a comma-separated list of positive integers");
                        std::process::exit(1);
                    }
                }
            }
            other if !other.starts_with('-') => out_path = other.to_owned(),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(1);
            }
        }
    }
    Args { out_path, jobs, shard_counts, trace_path }
}

fn main() {
    let args = parse_args();
    if args.trace_path.is_some() {
        desc_telemetry::set_enabled(true);
    }
    // The pool is sized by --jobs alone; shard counts only cap how many
    // partition tasks run concurrently within it, so jobs=1 measures
    // pure decomposition overhead with zero extra threads.
    desc_exec::configure(args.jobs);
    let mut harness = Harness::new("experiment_pipeline", args.out_path.clone());
    let scale = Scale { accesses: ACCESSES, apps: 1, seed: 2013, jobs: args.jobs, shards: 1 };
    let profile = BenchmarkId::Ocean.profile();

    let jobs = args.jobs;
    println!(
        "{:<24} {:>5} {:>7} {:>14} {:>18}",
        "scheme", "jobs", "shards", "cells/sec", "accesses/sec"
    );
    let record = |harness: &mut Harness, label: &str, shards: usize, cells_per_sec: f64| {
        let accesses_per_sec = cells_per_sec * ACCESSES as f64;
        println!(
            "{label:<24} {jobs:>5} {shards:>7} {cells_per_sec:>14.2} {accesses_per_sec:>18.0}"
        );
        harness.push(
            Json::obj()
                .with("scheme", Json::Str(label.to_owned()))
                .with("jobs", Json::UInt(jobs as u64))
                .with("shards", Json::UInt(shards as u64))
                .with("cells_per_sec", Json::Num((cells_per_sec * 100.0).round() / 100.0))
                .with("accesses_per_sec", Json::Num(accesses_per_sec.round())),
        );
    };

    for (label, kind) in [
        ("conventional_binary", SchemeKind::ConventionalBinary),
        ("zero_skip_desc", SchemeKind::ZeroSkippedDesc),
    ] {
        for &shards in &args.shard_counts {
            let scale = scale.with_shards(shards);
            // Warmup one cell, then time whole cells, each on a fresh
            // store so it is computed rather than read back.
            let cold_cell = || {
                cache::install(None);
                black_box(run_app(kind, &profile, &scale).l2_energy());
            };
            cold_cell();
            let cells_per_sec = best_rate(3, REPS, cold_cell);
            record(&mut harness, label, shards, cells_per_sec);
        }
    }

    // S-NUCA-1 cell (fig23/fig24 unit): 128 bank partitions per cell,
    // the densest shard decomposition in the workspace.
    for (label, kind) in [
        ("snuca_conventional_binary", SchemeKind::ConventionalBinary),
        ("snuca_zero_skip_desc", SchemeKind::ZeroSkippedDesc),
    ] {
        for &shards in &args.shard_counts {
            let mut cfg = SimConfig::paper_multithreaded();
            cfg.shards = shards;
            let sim = SnucaSim::new(cfg, profile, scale.seed);
            black_box(sim.run(kind.build_paper_config(), ACCESSES).total_energy_j());
            let cells_per_sec = best_rate(3, REPS, || {
                black_box(sim.run(kind.build_paper_config(), ACCESSES).total_energy_j());
            });
            record(&mut harness, label, shards, cells_per_sec);
        }
    }

    // Cache axis: the same quick-scale sweep cold (fresh store per
    // timing, every cell computed and stored) vs warm (one populated
    // store, every cell a hit). Rows carry `cache: "cold"|"warm"` plus
    // the hit/miss counters observed during the timed reps, so the
    // history can assert the warm sweep really was served from cache.
    {
        let scale = Scale { accesses: ACCESSES, apps: 4, seed: 2013, jobs, shards: 1 };
        let suite = scale.suite();
        let kinds = [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc];
        let cells = (suite.len() * kinds.len()) as f64;
        let sweep = |scale: &Scale| {
            for kind in kinds {
                for p in &suite {
                    black_box(run_app(kind, p, scale).l2_energy());
                }
            }
        };
        let record_cached =
            |harness: &mut Harness, cache: &str, cells_per_sec: f64, hits: u64, misses: u64| {
                let label = format!("cached_sweep[{cache}]");
                let accesses_per_sec = cells_per_sec * ACCESSES as f64;
                println!(
                    "{label:<24} {jobs:>5} {:>7} {cells_per_sec:>14.2} {accesses_per_sec:>18.0}",
                    1
                );
                harness.push(
                    Json::obj()
                        .with("scheme", Json::Str("cached_sweep".to_owned()))
                        .with("cache", Json::Str(cache.to_owned()))
                        .with("jobs", Json::UInt(jobs as u64))
                        .with("shards", Json::UInt(1))
                        .with("cells_per_sec", Json::Num((cells_per_sec * 100.0).round() / 100.0))
                        .with("accesses_per_sec", Json::Num(accesses_per_sec.round()))
                        .with("cache_hits", Json::UInt(hits))
                        .with("cache_misses", Json::UInt(misses)),
                );
            };
        // Cold: a fresh store every invocation, so each timed sweep
        // computes and stores all cells.
        let cold_rate = best_rate(1, 3, || {
            cache::install(None);
            sweep(&scale);
        });
        // Warm: keep the last cold run's store; every cell hits.
        let store = cache::active();
        let before = store.stats();
        record_cached(&mut harness, "cold", cold_rate * cells, before.hits(), before.misses);
        let warm_rate = best_rate(3, REPS, || sweep(&scale));
        let after = store.stats();
        let (hits, misses) = (after.hits() - before.hits(), after.misses - before.misses);
        record_cached(&mut harness, "warm", warm_rate * cells, hits, misses);
    }

    // Contention axis: CLIENTS threads demand the *same* cold sweep
    // concurrently through one store: one demander leads each cell and
    // the rest share the published entry (stores == distinct cells).
    // The row records demanded-cells-served per second plus those
    // counters so the history can verify the dedup actually happened.
    {
        const CLIENTS: usize = 4;
        let scale = Scale { accesses: ACCESSES, apps: 2, seed: 2013, jobs, shards: 1 };
        let suite = scale.suite();
        let kinds = [SchemeKind::ConventionalBinary, SchemeKind::ZeroSkippedDesc];
        let demanded = (suite.len() * kinds.len() * CLIENTS) as f64;
        let sweep = |scale: &Scale| {
            for kind in kinds {
                for p in &suite {
                    black_box(run_app(kind, p, scale).l2_energy());
                }
            }
        };
        cache::install(None);
        let store = cache::active();
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| sweep(&scale));
            }
        });
        let secs = started.elapsed().as_secs_f64();
        let stats = store.stats();
        let cells_per_sec = demanded / secs;
        let accesses_per_sec = cells_per_sec * ACCESSES as f64;
        let label = "contended_sweep[single_flight]";
        println!("{label:<24} {jobs:>5} {:>7} {cells_per_sec:>14.2} {accesses_per_sec:>18.0}", 1);
        harness.push(
            Json::obj()
                .with("scheme", Json::Str("contended_sweep".to_owned()))
                .with("contention", Json::Str("single_flight".to_owned()))
                .with("clients", Json::UInt(CLIENTS as u64))
                .with("jobs", Json::UInt(jobs as u64))
                .with("shards", Json::UInt(1))
                .with("cells_per_sec", Json::Num((cells_per_sec * 100.0).round() / 100.0))
                .with("accesses_per_sec", Json::Num(accesses_per_sec.round()))
                .with("cache_stores", Json::UInt(stats.stores))
                .with("inflight_leads", Json::UInt(stats.inflight_leads))
                .with("inflight_hits", Json::UInt(stats.inflight_hits)),
        );
    }

    if let Some(path) = &args.trace_path {
        let spans = desc_telemetry::drain_spans();
        match desc_telemetry::write_chrome_trace(path, "bench_pipeline", &spans) {
            Ok(()) => println!("wrote execution trace to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    let config = Json::obj()
        .with("accesses_per_cell", Json::UInt(ACCESSES as u64))
        .with("workload", Json::Str("ocean profile, seed 2013".to_owned()))
        .with("jobs", Json::UInt(jobs as u64))
        .with("reps", Json::UInt(REPS as u64));
    harness.finish(config);
}
