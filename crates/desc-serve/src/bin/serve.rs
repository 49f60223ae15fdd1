//! `serve` — the DESC sweep-exploration service.
//!
//! ```text
//! serve                          # 127.0.0.1:0 (free port), memory-only cell store
//! serve --addr 127.0.0.1:7013    # fixed port
//! serve --cache-dir cells        # persist the cell store under cells/
//! serve --workers 4 --queue 16   # admission limits
//! ```
//!
//! Prints exactly one `serve: listening on HOST:PORT` line to stdout
//! once the listener is bound (scripts parse it to learn the port),
//! then serves until a client issues the `shutdown` op. The wire
//! protocol is specified in `docs/SERVICE.md`.
//!
//! # Exit codes
//!
//! Aligned with `repro` (`docs/SERVICE.md` has the uniform table):
//!
//! | code | meaning                                      |
//! |------|----------------------------------------------|
//! | 0    | clean shutdown (drained via the protocol)    |
//! | 2    | usage error (unknown/malformed flag)         |
//! | 4    | failed to write `--report` at shutdown       |
//! | 5    | `--cache-dir` unusable (cannot create/write) |
//! | 6    | could not bind `--addr`                      |

use desc_serve::{ServeConfig, Server};
use std::process::ExitCode;

/// Malformed or unknown command line (see `--help`).
const EXIT_USAGE: u8 = 2;
/// The `--report` file could not be written at shutdown.
const EXIT_WRITE_FAILED: u8 = 4;
/// `--cache-dir` could not be opened (created or probed writable).
const EXIT_CACHE: u8 = 5;
/// The listen address could not be bound.
const EXIT_BIND: u8 = 6;

/// Prints a usage-class error and returns the usage exit code.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("serve: {msg}");
    eprintln!("serve: try `serve --help`");
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig::default();
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(addr) if !addr.is_empty() => config.addr = addr.clone(),
                _ => return usage_error("--addr needs a HOST:PORT argument"),
            },
            "--workers" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => config.workers = n,
                _ => return usage_error("--workers needs a positive integer argument"),
            },
            "--queue" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => config.queue = n,
                _ => return usage_error("--queue needs a non-negative integer argument"),
            },
            "--jobs" | "-j" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => config.default_jobs = n,
                _ => return usage_error("--jobs needs a positive integer argument"),
            },
            "--default-deadline-ms" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => config.default_deadline_ms = Some(n),
                _ => return usage_error("--default-deadline-ms needs a positive integer"),
            },
            "--retry-after-ms" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => config.retry_after_ms = n,
                _ => return usage_error("--retry-after-ms needs an integer argument"),
            },
            "--cache-dir" => match iter.next() {
                Some(path) if !path.is_empty() => {
                    cache_dir = Some(std::path::PathBuf::from(path));
                }
                _ => return usage_error("--cache-dir needs a directory path argument"),
            },
            "--report" => match iter.next() {
                Some(path) if !path.is_empty() => {
                    report_path = Some(std::path::PathBuf::from(path));
                }
                _ => return usage_error("--report needs an output path argument"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] [--jobs N]\n\
                     \x20            [--default-deadline-ms N] [--retry-after-ms N]\n\
                     \x20            [--cache-dir DIR] [--report PATH]\n\
                     --addr HOST:PORT  listen address; port 0 picks a free port\n\
                     \x20                 (default: 127.0.0.1:0)\n\
                     --workers N       run requests executing concurrently (default: 2)\n\
                     --queue N         run requests waiting beyond that before `busy`\n\
                     \x20                 rejections (default: 8)\n\
                     --jobs N          default sweep-cell concurrency per request\n\
                     \x20                 (default: all hardware threads)\n\
                     --default-deadline-ms N  deadline for requests that carry none\n\
                     --retry-after-ms N  fallback hint attached to `busy` rejections\n\
                     \x20                 before any request completes (default: 250);\n\
                     \x20                 afterwards the hint tracks queue depth and\n\
                     \x20                 recent service times\n\
                     --cache-dir DIR   persist the cell store every request shares, so\n\
                     \x20                 it survives restarts; without it the store is\n\
                     \x20                 memory-only (see docs/CACHE.md)\n\
                     --report PATH     write a final desc-run-report/v1 (with the\n\
                     \x20                 `serve` stanza) at clean shutdown\n\
                     exit codes: 0 clean shutdown, 2 usage error,\n\
                     4 report write failure, 5 unusable cache dir, 6 bind failure\n\
                     protocol: docs/SERVICE.md (desc-run-request/v1)"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown flag {other:?}")),
        }
    }

    if let Some(dir) = &cache_dir {
        match desc_cache::CacheStore::open(dir, desc_experiments::cache::CELL_SCHEMA_VERSION) {
            Ok(store) => {
                let store = std::sync::Arc::new(store);
                desc_experiments::cache::install(Some(std::sync::Arc::clone(&store)));
                eprintln!("serve: sharing cell store {}", dir.display());
            }
            Err(e) => {
                eprintln!("serve: unusable cache dir {}: {e}", dir.display());
                return ExitCode::from(EXIT_CACHE);
            }
        }
    }

    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: could not bind: {e}");
            return ExitCode::from(EXIT_BIND);
        }
    };
    let addr = server.local_addr();
    // The one line scripts depend on; flush so a pipe reader sees it
    // before the first connection.
    println!("serve: listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let final_serve = match server.run() {
        Ok(stanza) => Some(stanza),
        Err(e) => {
            eprintln!("serve: accept loop failed: {e}");
            None
        }
    };
    eprintln!("serve: drained; shutting down");

    if let Some(path) = &report_path {
        let cache = Some(desc_experiments::cache::active().report());
        let report = desc_telemetry::Report {
            meta: desc_telemetry::ReportMeta {
                tool: "serve".to_owned(),
                version: env!("CARGO_PKG_VERSION").to_owned(),
                seed: 0,
                scale: "service".to_owned(),
                jobs: 0,
                shards: 0,
                experiments: Vec::new(),
                spans_dropped: desc_telemetry::spans_dropped(),
            },
            snapshot: desc_telemetry::global().snapshot(),
            pool: Some(desc_exec::utilization()),
            cache,
            serve: final_serve,
            spans: Vec::new(),
        };
        if let Err(e) = report.write_to(path) {
            eprintln!("serve: failed to write report to {}: {e}", path.display());
            return ExitCode::from(EXIT_WRITE_FAILED);
        }
        eprintln!("serve: wrote run report to {}", path.display());
    }
    ExitCode::SUCCESS
}
