//! `perfbench` — the DESC repro stack's benchmark.
//!
//! ```text
//! perfbench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the real `repro` and `serve` binaries in `DIR` with one
//! workload (`repro-quick-cold`, `serve-warm`, `serve-mixed`; see
//! README.md), checks every output, and prints one JSON result as the
//! last stdout line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced in-process replay with `--trace 1`.
//! A result-stanza line before it records the run's settings, sample
//! counts and output digests. Exits 1 when an output is wrong (a golden
//! digest or a cross-check mismatch) or the run could not complete, 2
//! on a usage error.

mod proc;
mod replay;
mod spans;
mod stats;
mod workloads;

use spans::Recorder;
use stats::{median, p90_guarded, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};
use workloads::{Ctx, Measured};

const WORKLOADS: [&str; 3] = ["repro-quick-cold", "serve-warm", "serve-mixed"];

struct Args {
    bin_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut bin_dir, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => {
                return Err(format!(
                    "bad argument {flag} {value:?} (workloads: {})",
                    WORKLOADS.join(", ")
                ))
            }
        }
    }
    Ok(Args {
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory on every exit path, and its
/// parent once no other run is using it.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn json_str(s: &str) -> String {
    desc_telemetry::Json::Str(s.to_owned())
        .to_pretty()
        .trim_end()
        .to_owned()
}

/// The end-to-end metrics; a latency p90 with too thin a tail fails.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let need = |v: &[f64], what: &str| {
        if v.is_empty() {
            Err(format!("no {what} samples"))
        } else {
            Ok(())
        }
    };
    need(&m.setup_s, "setup")?;
    need(&m.peak_rss_mb, "RSS")?;
    need(&m.wall_s, "wall")?;
    need(&m.latency_ms, "latency")?;
    if m.cells == 0 || m.cells_secs <= 0.0 {
        return Err("no cells completed".to_owned());
    }
    Ok(vec![
        ("setup_s", median(&m.setup_s), "s"),
        ("peak_rss_mb", median(&m.peak_rss_mb), "MB"),
        ("wall_s", median(&m.wall_s), "s"),
        ("latency_p50_ms", median(&m.latency_ms), "ms"),
        (
            "latency_p90_ms",
            p90_guarded(&m.latency_ms, "latency")?,
            "ms",
        ),
        ("cells_per_s", m.cells as f64 / m.cells_secs, "1/s"),
    ])
}

/// The `desc-serve` and `desc-telemetry` rows, from the client samples.
fn client_layers(m: &Measured) -> Vec<Metric> {
    let med = |v: Vec<f64>| stats::percentile_or_zero(&v, 0.5);
    let parse = if m.serve.is_empty() {
        m.report_parse_ms.clone()
    } else {
        m.serve.iter().map(|s| s.parse_ms).collect()
    };
    vec![
        (
            "serve.server_ms",
            med(m.serve.iter().map(|s| s.server_ms as f64).collect()),
            "ms",
        ),
        (
            "serve.transport_ms",
            med(m
                .serve
                .iter()
                .map(|s| s.rtt_ms - s.server_ms as f64)
                .collect()),
            "ms",
        ),
        (
            "serve.response_bytes",
            med(m.serve.iter().map(|s| s.bytes as f64).collect()),
            "bytes",
        ),
        ("serve.busy_replies", m.busy as f64, "count"),
        ("telemetry.json_parse_ms", med(parse), "ms"),
    ]
}

fn run(args: &Args) -> Result<(Measured, Vec<Metric>), String> {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = Path::new(".perfbench_tmp").join(format!(
        "{}-{}-{nanos}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let scratch = Scratch(dir);
    let rec = Recorder::new(args.trace);
    let cx = Ctx {
        bins: &args.bin_dir,
        dir: &scratch.0,
        seed: args.seed,
        seconds: args.seconds,
        rec: &rec,
    };
    let mut m = Measured::default();
    match args.workload.as_str() {
        "repro-quick-cold" => workloads::repro_quick_cold(&cx, &mut m)?,
        "serve-warm" => workloads::serve_warm(&cx, &mut m)?,
        _ => workloads::serve_mixed(&cx, &mut m)?,
    }
    if !args.trace {
        let metrics = end_to_end(&m)?;
        return Ok((m, metrics));
    }
    let plan = replay::Plan {
        seed: m.cell_seed,
        sut_store: m.sut_store.as_deref(),
        warm: (args.workload == "serve-warm").then_some((workloads::HOT_TIER_BYTES, 4)),
        probes: args.workload == "serve-mixed",
    };
    let layers = replay::run(&rec, &plan, &scratch.0.join("replay"))?;
    let mut metrics = layers.metrics;
    metrics.extend(client_layers(&m));
    m.attempted += layers.attempted;
    for e in layers.errors {
        m.mismatch(e);
    }
    let out = Path::new(".perfbench_out");
    let _ = std::fs::create_dir_all(out);
    rec.write_chrome(
        "perfbench",
        &out.join(format!("trace-{}.json", args.workload)),
    )
    .map_err(|e| format!("write trace: {e}"))?;
    Ok((m, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (m, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for e in &m.errors {
        eprintln!("perfbench: failed: {e}");
    }    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let digests: Vec<String> = m
        .digests
        .seen
        .iter()
        .map(|(a, d)| format!("{}: \"{d:016x}\"", json_str(a)))
        .collect();
    let failed_ratio = m.failed as f64 / m.attempted.max(1) as f64;
    println!(
        "{{\"stanza\": {{\"workload\": {}, \"seed\": {}, \"host_cores\": {cores}, \"jobs\": {}, \
         \"hot_tier_bytes\": {}, \"trace\": {}, \"latency_samples\": {}, \"wall_samples\": {}, \
         \"setup_samples\": {}, \"fail_ratio\": {failed_ratio}, \"digests\": {{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        workloads::JOBS,
        if args.workload == "serve-warm" {
            workloads::HOT_TIER_BYTES
        } else {
            desc_cache::DEFAULT_MEM_BYTES
        },
        args.trace,
        m.latency_ms.len(),
        m.wall_s.len(),
        m.setup_s.len(),
        digests.join(", "),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let correct = m.digests.mismatches.is_empty() && m.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    );
    for e in &m.digests.mismatches {
        eprintln!("perfbench: wrong output: {e}");
    }
    if m.digests.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
