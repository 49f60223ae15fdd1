//! End-to-end service tests against an in-process [`Server`] plus one
//! spawn of the real `serve` binary.
//!
//! Telemetry, the executor pool, and the installed cell store are all
//! process-global, so every test takes the same mutex: the suites must
//! not interleave cache installs or capture expectations.

use desc_serve::client::{ping_request, shutdown_request, Client, RunRequest};
use desc_serve::proto::Tables;
use desc_serve::{ServeConfig, Server};
use desc_telemetry::Json;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// A scratch directory unique to this test process + tag, recreated
/// empty.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("desc-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts an in-process server and returns its address plus the join
/// handle for [`Server::run`].
fn start_server(
    config: ServeConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<std::io::Result<desc_telemetry::ServeReport>>) {
    let server = Server::bind(config).expect("bind on loopback");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    let reply = c.request(&shutdown_request("bye")).expect("shutdown round-trip");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
}

/// The small-but-real request shape shared by the tests: two
/// experiments spanning both machine organisations (UCA fig16,
/// S-NUCA-1 fig23) at reduced access counts so the suite stays fast.
const EXPERIMENTS: [&str; 2] = ["fig16", "fig23"];
const ACCESSES: u64 = 400;

fn tiny_request(id: &str) -> RunRequest {
    RunRequest {
        id: Some(id.to_owned()),
        accesses: Some(ACCESSES),
        deadline_ms: None,
        ..RunRequest::new(&EXPERIMENTS, "tiny")
    }
}

/// The `metrics` stanza a `repro`-style direct run records for the
/// same cells, captured through a sink exactly as a request capture
/// is. Computed on a fresh memory-only store, so every cell is a cold
/// compute the service must match byte for byte.
fn expected_metrics() -> String {
    desc_experiments::cache::install(None);
    desc_telemetry::set_enabled(true);
    let mut scale = desc_experiments::Scale::tiny();
    scale.accesses = ACCESSES as usize;
    let sink = desc_telemetry::CaptureSink::new();
    desc_telemetry::with_capture(&sink, || {
        for name in EXPERIMENTS {
            let _ = desc_experiments::run_experiment(name, &scale);
        }
    });
    let report = desc_telemetry::Report {
        meta: desc_telemetry::ReportMeta {
            tool: "expected".to_owned(),
            version: "0.0.0".to_owned(),
            seed: scale.seed,
            scale: "tiny".to_owned(),
            jobs: scale.jobs,
            shards: scale.shards,
            experiments: EXPERIMENTS.iter().map(|&e| e.to_owned()).collect(),
            spans_dropped: 0,
        },
        snapshot: sink.snapshot(),
        pool: None,
        cache: None,
        serve: None,
        spans: Vec::new(),
    };
    report.to_json().get("metrics").expect("report has metrics").to_pretty()
}

#[test]
fn concurrent_clients_match_repro_metrics_and_share_the_cache() {
    let _guard = serialize();
    let expected = expected_metrics();

    let dir = scratch_dir("shared");
    let store = Arc::new(
        desc_cache::CacheStore::open(&dir, desc_experiments::cache::CELL_SCHEMA_VERSION)
            .expect("open cell store"),
    );
    desc_experiments::cache::install(Some(Arc::clone(&store)));

    let (addr, server) =
        start_server(ServeConfig { workers: 4, queue: 8, ..ServeConfig::default() });

    // One warm-up request populates the store, so the concurrent
    // round below deterministically hits the shared hot map instead
    // of racing all clients through the same cold cells in lockstep.
    {
        let mut warm = Client::connect(addr).expect("warm-up client");
        let reply = warm.request(&tiny_request("warm-up").to_json()).expect("warm-up round-trip");
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
        let metrics = reply
            .get("report")
            .and_then(|r| r.get("metrics"))
            .expect("warm-up report has metrics")
            .to_pretty();
        assert_eq!(metrics, expected, "cold run metrics must match a direct run");
    }

    // N parallel clients, every one requesting the same overlapping
    // cell set: every cell is served warm from the shared store, and
    // every response still carries the full, identical metrics stanza.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("client connects");
                let reply = c
                    .request(&tiny_request(&format!("client-{i}")).to_json())
                    .expect("run round-trip");
                (i, reply)
            })
        })
        .collect();
    for handle in clients {
        let (i, reply) = handle.join().expect("client thread");
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("ok"),
            "client {i}: {}",
            reply.to_pretty()
        );
        assert_eq!(reply.get("id").and_then(Json::as_str), Some(format!("client-{i}").as_str()));
        let report = reply.get("report").expect("ok run embeds a report");
        assert_eq!(report.get("schema").and_then(Json::as_str), Some("desc-run-report/v1"));
        let metrics = report.get("metrics").expect("report has metrics").to_pretty();
        assert_eq!(
            metrics, expected,
            "client {i}: response metrics must be byte-identical to a direct run"
        );
        let serve = report.get("serve").expect("report has a serve stanza");
        assert!(serve.get("accepted").and_then(Json::as_u64) >= Some(1));
    }

    // Overlap must have hit the shared hot map: 4 identical requests,
    // each distinct cell computed at most a couple of times (races
    // aside), everything else warm.
    let stats = store.stats();
    assert!(stats.stores > 0, "cold cells must be stored");
    assert!(
        stats.hits_memory > 0,
        "overlapping clients must share the in-process hot map (stats: {stats:?})"
    );

    // `ping` exposes the same counters over the wire.
    let mut c = Client::connect(addr).expect("ping client");
    let pong = c.request(&ping_request("stats")).expect("ping round-trip");
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
    let serve = pong.get("serve").expect("ping has a serve stanza");
    assert_eq!(serve.get("completed").and_then(Json::as_u64), Some(5));
    assert_eq!(serve.get("active").and_then(Json::as_u64), Some(0));
    let cache = pong.get("cache").expect("ping has a cache stanza with a store installed");
    assert!(cache.get("hits_memory").and_then(Json::as_u64) > Some(0));

    shutdown(addr);
    let stanza = server.join().expect("server thread").expect("clean drain");
    assert!(stanza.draining, "final stanza reports the drain");
    assert_eq!(stanza.completed, 5);

    // Drained, not lost: every completed cell survived to the store
    // of record and a fresh process can serve them.
    desc_experiments::cache::install(None);
    let reopened = desc_cache::CacheStore::open(&dir, desc_experiments::cache::CELL_SCHEMA_VERSION)
        .expect("reopen store after drain");
    assert!(reopened.manifest_cells() > 0, "completed cells must survive shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_duplicate_requests_compute_each_cold_cell_exactly_once() {
    let _guard = serialize();
    let expected = expected_metrics();
    let version = desc_experiments::cache::CELL_SCHEMA_VERSION;
    let (addr, server) =
        start_server(ServeConfig { workers: 4, queue: 8, ..ServeConfig::default() });

    // Serial reference: one request against a fresh store records how
    // many distinct cells the sweep has (every store is one cell).
    let serial_store = Arc::new(desc_cache::CacheStore::in_memory(version));
    desc_experiments::cache::install(Some(Arc::clone(&serial_store)));
    {
        let mut c = Client::connect(addr).expect("serial client");
        let reply = c.request(&tiny_request("serial").to_json()).expect("serial round-trip");
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    }
    let distinct_cells = serial_store.stats().stores;
    assert!(distinct_cells > 0, "the sweep must have at least one cell");

    // Concurrent duplicates: four clients submit the same cold sweep
    // simultaneously against a fresh store, installed or (as in a
    // server without `--cache-dir`) the default one.
    let mut shared_cells = 0;
    for store in [Some(Arc::new(desc_cache::CacheStore::in_memory(version))), None] {
        desc_experiments::cache::install(store);
        let shared_before = shared_cells;
        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("client connects");
                    c.request(&tiny_request(&format!("dup-{i}")).to_json()).expect("run round-trip")
                })
            })
            .collect();
        for handle in clients {
            let reply = handle.join().expect("client thread");
            let status = reply.get("status").and_then(Json::as_str);
            assert_eq!(status, Some("ok"), "{}", reply.to_pretty());
            let metrics = reply.get("report").and_then(|r| r.get("metrics")).expect("metrics");
            assert_eq!(metrics.to_pretty(), expected, "duplicates must match a direct run");
            shared_cells += reply.get("dedup_cells").and_then(Json::as_u64).expect("dedup_cells");
        }

        // The tentpole invariant: four overlapping demanders, each
        // cold cell computed (and stored) exactly once, the rest
        // shared. The store's counters come over the wire.
        let mut c = Client::connect(addr).expect("ping client");
        let pong = c.request(&ping_request("dedup-stats")).expect("ping round-trip");
        let cache = pong.get("cache").expect("ping has a cache stanza");
        for counter in ["stores", "inflight_leads"] {
            let value = cache.get(counter).and_then(Json::as_u64);
            assert_eq!(value, Some(distinct_cells), "{counter}: {}", cache.to_pretty());
        }
        assert!(shared_cells > shared_before, "concurrent duplicates must share a cell");

        // The server accounts the sharing cumulatively.
        let serve = pong.get("serve").expect("serve stanza");
        assert_eq!(serve.get("dedup_cells").and_then(Json::as_u64), Some(shared_cells));
        assert!(serve.get("dedup_requests").and_then(Json::as_u64) >= Some(1));
    }
    desc_experiments::cache::install(None);

    shutdown(addr);
    server.join().expect("server thread").expect("clean drain");
}

#[test]
fn a_small_request_completes_while_a_large_sweep_is_in_flight() {
    let _guard = serialize();
    desc_experiments::cache::install(None);
    let (addr, server) = start_server(ServeConfig { workers: 2, ..ServeConfig::default() });

    // A deliberately large sweep (~20x the probe) under its own client
    // identity.
    let sweep = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("sweep client");
        let request = RunRequest {
            id: Some("sweep".to_owned()),
            client: Some("sweep-client".to_owned()),
            accesses: Some(ACCESSES * 20),
            ..RunRequest::new(&EXPERIMENTS, "tiny")
        };
        c.request(&request.to_json()).expect("sweep round-trip")
    });

    // Wait until the sweep is actually executing before probing.
    let mut c = Client::connect(addr).expect("probe client");
    loop {
        let pong = c.request(&ping_request("probe-poll")).expect("ping round-trip");
        let active = pong.get("serve").and_then(|s| s.get("active")).and_then(Json::as_u64);
        if active >= Some(1) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The 1-experiment probe (distinct seed, so no cell overlap with
    // the sweep) must complete while the sweep is still in flight —
    // fair scheduling means it does not queue behind the sweep's
    // remaining cells.
    let request = RunRequest {
        id: Some("probe".to_owned()),
        client: Some("probe-client".to_owned()),
        accesses: Some(ACCESSES),
        seed: Some(7),
        ..RunRequest::new(&["fig16"], "tiny")
    };
    let reply = c.request(&request.to_json()).expect("probe round-trip");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"), "{}", reply.to_pretty());
    assert!(
        !sweep.is_finished(),
        "the probe must complete while the large sweep is still in flight"
    );

    let sweep_reply = sweep.join().expect("sweep thread");
    assert_eq!(sweep_reply.get("status").and_then(Json::as_str), Some("ok"));
    desc_experiments::cache::install(None);
    shutdown(addr);
    server.join().expect("server thread").expect("clean drain");
}

#[test]
fn malformed_inputs_get_structured_errors_on_a_surviving_connection() {
    let _guard = serialize();
    desc_experiments::cache::install(None);
    let (addr, server) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr).expect("client connects");

    // Garbage bytes in a well-formed frame: structured `malformed`
    // reply, connection stays usable.
    let reply = c.request_raw(b"definitely not json").expect("malformed round-trip");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    let code = reply.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("malformed"));

    // Valid JSON, wrong shape — still `malformed`, id still echoed.
    let reply = c
        .request_raw(br#"{"schema":"desc-run-request/v1","op":"dance","id":"x7"}"#)
        .expect("bad-op round-trip");
    let code = reply.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("malformed"));
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("x7"));

    // Unknown experiment: its own code, and the connection survives.
    let reply = c
        .request(&RunRequest::new(&["fig999"], "tiny").to_json())
        .expect("unknown-experiment round-trip");
    let code = reply.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("unknown_experiment"));

    // The same connection still answers pings after three rejections.
    let pong = c.request(&ping_request("still-alive")).expect("ping after errors");
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
    let serve = pong.get("serve").expect("serve stanza");
    assert!(serve.get("rejected_malformed").and_then(Json::as_u64) >= Some(3));

    shutdown(addr);
    server.join().expect("server thread").expect("clean drain");
}

#[test]
fn oversized_frame_is_rejected_then_the_connection_closes() {
    let _guard = serialize();
    let (addr, server) = start_server(ServeConfig::default());

    // Hand-write a frame whose prefix exceeds the limit — the client
    // helper refuses to, by design.
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
    let declared = (desc_serve::frame::MAX_FRAME as u32) + 1;
    stream.write_all(&declared.to_be_bytes()).expect("send bogus prefix");
    stream.flush().expect("flush");

    let reply = desc_serve::frame::read_frame(&mut stream).expect("error reply arrives");
    let reply = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    let code = reply.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("oversized"));

    // The stream is desynchronized, so the server must close it.
    assert!(
        matches!(
            desc_serve::frame::read_frame(&mut stream),
            Err(desc_serve::frame::FrameError::Closed)
        ),
        "connection must close after an oversized frame"
    );

    shutdown(addr);
    server.join().expect("server thread").expect("clean drain");
}

#[test]
fn deadline_exceeded_cancels_the_run_and_reports_it() {
    let _guard = serialize();
    desc_experiments::cache::install(None);
    let (addr, server) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr).expect("client connects");

    // 1 ms cannot cover even one tiny cell. `jobs: 1` keeps the cells
    // serial, so the expiry is observed at a between-cell check rather
    // than racing a burst of parallel task claims.
    let request =
        RunRequest { deadline_ms: Some(1), jobs: Some(1), ..RunRequest::new(&["fig16"], "tiny") };
    let reply = c.request(&request.to_json()).expect("deadline round-trip");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    let err = reply.get("error").expect("error body");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("deadline"));
    assert!(err.get("message").and_then(Json::as_str).is_some_and(|m| m.contains("deadline")));

    // The failure is accounted and the server still takes work: the
    // same connection immediately runs the same cells undeadlined.
    let pong = c.request(&ping_request("after-deadline")).expect("ping");
    let serve = pong.get("serve").expect("serve stanza");
    assert!(serve.get("timed_out").and_then(Json::as_u64) >= Some(1));

    let reply = c.request(&tiny_request("retry").to_json()).expect("retry round-trip");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("ok"),
        "server must keep serving after a deadline: {}",
        reply.to_pretty()
    );

    shutdown(addr);
    server.join().expect("server thread").expect("clean drain");
}

#[test]
fn tables_render_like_repro_and_csv_like_repro_csv() {
    let _guard = serialize();
    desc_experiments::cache::install(None);
    desc_telemetry::set_enabled(true);
    let mut scale = desc_experiments::Scale::tiny();
    scale.accesses = ACCESSES as usize;
    let direct = desc_experiments::run_experiment("fig16", &scale);

    // A fresh store: the service computes its own cells.
    desc_experiments::cache::install(None);
    let (addr, server) = start_server(ServeConfig::default());
    let mut c = Client::connect(addr).expect("client connects");
    let request = RunRequest { tables: Tables::Text, ..tiny_request("tables-text") };
    let reply = c.request(&request.to_json()).expect("run round-trip");
    let tables = reply.get("tables").expect("tables requested");
    assert_eq!(
        tables.get("fig16").and_then(Json::as_str),
        Some(direct.render().as_str()),
        "text tables must match Table::render"
    );

    let request = RunRequest { tables: Tables::Csv, ..tiny_request("tables-csv") };
    let reply = c.request(&request.to_json()).expect("csv round-trip");
    let tables = reply.get("tables").expect("tables requested");
    assert_eq!(
        tables.get("fig16").and_then(Json::as_str),
        Some(direct.to_csv().as_str()),
        "csv tables must match Table::to_csv"
    );

    shutdown(addr);
    server.join().expect("server thread").expect("clean drain");
}

#[test]
fn serve_binary_listens_answers_and_drains_clean() {
    let _guard = serialize();
    let dir = scratch_dir("bin");
    // With `--cache-dir` the binary persists its store under it;
    // without, the store is memory-only. Either way it keeps results.
    for cache_dir in [Some(dir.to_str().unwrap()), None] {
        use std::io::BufRead;
        let mut args = vec!["--addr", "127.0.0.1:0", "--workers", "2"];
        args.extend(cache_dir.into_iter().flat_map(|d| ["--cache-dir", d]));
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn serve binary");

        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let banner = lines.next().expect("serve prints a listening line").expect("readable stdout");
        let addr = banner
            .strip_prefix("serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_owned();

        let mut c = Client::connect(addr.as_str()).expect("connect to binary");
        let pong = c.request(&ping_request("hello")).expect("ping binary");
        assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
        let cache = pong.get("cache").expect("ping has a cache stanza");
        assert_eq!(cache.get("dir").is_some(), cache_dir.is_some(), "{}", cache.to_pretty());

        // A repeat request is served from memory: no cell misses again.
        let mut run = |id: &str| {
            let reply = c.request(&tiny_request(id).to_json()).expect("run on binary");
            assert_eq!(
                reply.get("status").and_then(Json::as_str),
                Some("ok"),
                "{}",
                reply.to_pretty()
            );
            let cache = reply.get("report").and_then(|r| r.get("cache")).expect("cache stanza");
            ["stores", "hits_memory", "misses"].map(|k| cache.get(k).and_then(Json::as_u64))
        };
        let [stores, hits, misses] = run("bin-run");
        let [_, hits_repeat, misses_repeat] = run("bin-repeat");
        assert!(stores > Some(0) && misses > Some(0), "the first request computes its cells");
        assert!(hits_repeat > hits, "the repeat must hit the memory tier");
        assert_eq!(misses_repeat, misses, "the repeat must not recompute a cell");

        let bye = c.request(&shutdown_request("bye")).expect("shutdown binary");
        assert_eq!(bye.get("status").and_then(Json::as_str), Some("ok"));
        let status = child.wait().expect("binary exits");
        assert!(status.success(), "clean drain must exit 0, got {status:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn round_trips_cost_the_work_not_a_tcp_timer() {
    let _guard = serialize();
    desc_experiments::cache::install(None);
    let (addr, server) = start_server(ServeConfig::default());

    // A raw connection that leaves `TCP_NODELAY` off, like a client
    // that never heard of it: only the one-write framing and the
    // server's own `nodelay` keep each message from waiting on a
    // delayed ACK (about 40 ms per round trip on Linux loopback).
    let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
    let mut round_trip = |request: &Json| {
        desc_serve::frame::write_frame(&mut stream, request.to_pretty().as_bytes())
            .expect("send request");
        let reply = desc_serve::frame::read_frame(&mut stream).expect("read reply");
        let reply = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"), "{}", reply.to_pretty());
    };
    let run = tiny_request("warm").to_json();
    // Untimed: fills the hot tier so the timed runs are warm.
    round_trip(&run);

    let started = std::time::Instant::now();
    for _ in 0..40 {
        round_trip(&ping_request("ping"));
    }
    for _ in 0..20 {
        round_trip(&run);
    }
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "40 pings and 20 warm runs took {took:?}; a TCP timer is back on the path"
    );

    desc_experiments::cache::install(None);
    shutdown(addr);
    server.join().expect("server thread").expect("clean drain");
}
