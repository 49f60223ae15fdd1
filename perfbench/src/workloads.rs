//! The three workloads: the traffic each sends to the system under
//! test, what it times, and how it checks every output.

use crate::proc::{run_repro, Served};
use crate::spans::Recorder;
use crate::stats::{fnv1a, metrics_digest, Digests};
use desc_serve::client::RunRequest;
use desc_serve::frame;
use desc_serve::proto::Tables;
use desc_telemetry::Json;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `--jobs` of the system under test (the reference host has 2 cores).
pub const JOBS: usize = 2;
/// Extra spawn-to-ready probes before the timed phase, and as many
/// again after it: `setup_s` is a median over both ends of the run, not
/// one instant's reading.
const SETUP_PROBES: usize = 20;
/// Whole `repro` runs per `repro-quick-cold` run, at least.
const MIN_REPROS: usize = 3;
/// Latency samples a run needs (10 beyond the p90).
const MIN_SAMPLES: usize = 100;
/// No timed phase runs past this, so a run ends well within 180 s.
const HARD_CAP: Duration = Duration::from_secs(120);
/// `serve-warm`'s hot-tier budget (`DESC_CACHE_MEM_BYTES`): well below
/// the quick sweep set's working set, so lookups mix memory and disk.
pub const HOT_TIER_BYTES: u64 = 131_072;
/// The quick sweep set `serve-warm` pre-fills and cycles over: every
/// experiment whose cells go through the cell cache.
const WARM_SET: [&str; 21] = [
    "fig1",
    "fig2",
    "fig14",
    "fig15",
    "fig16",
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
    "abl-low-swing",
];
/// `serve-mixed`'s sweep: the paper-scheme UCA cells (fig. 16: eight
/// schemes × apps) and the S-NUCA cells (fig. 23: two schemes × apps).
const SWEEP: [&str; 2] = ["fig16", "fig23"];
/// Cells one quick `SWEEP` request computes (4 quick apps × (8 + 2)).
const SWEEP_CELLS: u64 = 40;
/// Salts separating the seed streams derived from the workload seed.
const SWEEP_SALT: u64 = 0x0053_5745_4550;
const PROBE_SALT: u64 = 0x0050_524f_4245;
const WARMUP_SALT: u64 = 0x0057_4152_4d55;

/// A request seed derived from the workload seed (splitmix64).
fn derive(seed: u64, salt: u64, i: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(29) ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000
}

/// What a workload run needs.
pub struct Ctx<'a> {
    /// Directory holding the `repro` and `serve` binaries.
    pub bins: &'a Path,
    /// This run's own scratch directory (fresh, removed afterwards).
    pub dir: &'a Path,
    /// Workload seed.
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: f64,
    /// Span recorder (records only in a traced run).
    pub rec: &'a Recorder,
}

/// One client round trip to `serve`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Frame write until reply frame read, ms.
    pub rtt_ms: f64,
    /// `Json::parse` of the reply, ms.
    pub parse_ms: f64,
    /// The server's own `elapsed_ms`.
    pub server_ms: u64,
    /// Reply payload bytes.
    pub bytes: usize,
}

impl Sample {
    /// What the client sees: round trip plus decoding the reply.
    pub fn latency_ms(&self) -> f64 {
        self.rtt_ms + self.parse_ms
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Measured {
    /// Operations attempted and failed (errors, `busy`, mismatches).
    pub attempted: u64,
    /// See [`Measured::attempted`].
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Output digests and golden mismatches.
    pub digests: Digests,
    /// Spawn-to-ready times of the system under test, s.
    pub setup_s: Vec<f64>,
    /// Peak RSS of each measured system-under-test process, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Wall time of each unit of batch work, s.
    pub wall_s: Vec<f64>,
    /// Latency of each interactive unit, ms.
    pub latency_ms: Vec<f64>,
    /// Cells completed in `cells_secs` of timed phase.
    pub cells: u64,
    /// See [`Measured::cells`].
    pub cells_secs: f64,
    /// Client samples of the timed phase (serve workloads).
    pub serve: Vec<Sample>,
    /// `busy` replies seen.
    pub busy: u64,
    /// Time to parse each `repro` report, ms.
    pub report_parse_ms: Vec<f64>,
    /// The system under test's cell store, for the traced replay.
    pub sut_store: Option<PathBuf>,
    /// Seed of the cells that store holds (the replay's cold seed).
    pub cell_seed: u64,
}

impl Measured {
    /// Counts one failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Counts a correctness failure: the run exits nonzero.
    pub fn mismatch(&mut self, msg: String) {
        self.digests.mismatches.push(msg.clone());
        self.fail(msg);
    }

    /// Records an output digest; a golden mismatch is a [`Self::mismatch`].
    fn golden(&mut self, seed: u64, artifact: &str, digest: u64) {
        if let Some(msg) = self.digests.check(seed, artifact, digest) {
            self.mismatch(msg);
        }
    }
}

/// A framed connection; requests are built with
/// `desc_serve::client::RunRequest` and sent exactly as
/// `desc_serve::client::Client::request` sends them (no `nodelay`), with
/// the transport and the reply decode timed apart.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(HARD_CAP))
            .map_err(|e| e.to_string())?;
        Ok(Conn { stream })
    }

    fn round_trip(
        &mut self,
        request: &Json,
        rec: &Recorder,
        label: &str,
    ) -> Result<(Json, Sample), String> {
        let payload = request.to_pretty();
        let sent = Instant::now();
        frame::write_frame(&mut self.stream, payload.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let reply = frame::read_frame(&mut self.stream).map_err(|e| format!("receive: {e}"))?;
        let received = Instant::now();
        let text = std::str::from_utf8(&reply).map_err(|e| e.to_string())?;
        let doc = Json::parse(text)?;
        let parsed = Instant::now();
        rec.record("serve.request", label, sent, received - sent);
        rec.record("telemetry.json_parse", label, received, parsed - received);
        let sample = Sample {
            rtt_ms: (received - sent).as_secs_f64() * 1e3,
            parse_ms: (parsed - received).as_secs_f64() * 1e3,
            server_ms: doc.get("elapsed_ms").and_then(Json::as_u64).unwrap_or(0),
            bytes: reply.len(),
        };
        Ok((doc, sample))
    }
}

fn status(doc: &Json) -> (&str, &str) {
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("");
    let code = doc
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or("");
    (status, code)
}

/// Checks a `run` reply: `ok`, or a counted failure (`busy` included).
fn run_ok(m: &mut Measured, doc: &Json, what: &str) -> bool {
    match status(doc) {
        ("ok", _) => true,
        (_, code) => {
            if code == "busy" {
                m.busy += 1;
            }
            m.fail(format!("{what}: status {:?} code {code:?}", status(doc).0));
            false
        }
    }
}

fn mkdir(path: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

fn repro_args(seed: u64, cache: &Path, report: &Path, experiments: &[&str]) -> Vec<String> {
    let (jobs, seed) = (JOBS.to_string(), seed.to_string());
    let (cache, report) = (cache.display().to_string(), report.display().to_string());
    let mut args = vec![
        "--quick", "--jobs", &jobs, "--seed", &seed, "--csv", "--quiet",
    ];
    args.extend(["--cache-dir", &cache, "--report", &report]);
    args.extend(experiments);
    args.into_iter().map(str::to_owned).collect()
}

/// Reads a `repro --report` document: its head (schema, meta, metrics,
/// pool and cache stanzas) through `Json::parse`, and the `cell`
/// durations of its span list, in ms. The span list (tens of thousands
/// of entries) is scanned, not parsed: `Json::parse` re-validates UTF-8
/// from each string character to the end of its input, so it takes
/// quadratic time on a multi-megabyte report.
fn read_report(m: &mut Measured, rec: &Recorder, path: &Path) -> Result<(Json, Vec<f64>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let cut = text
        .find("\n  \"spans\": [")
        .ok_or("report has no span list")?;
    let head = format!("{}\n}}", text[..cut].trim_end().trim_end_matches(','));
    let started = Instant::now();
    let doc = Json::parse(&head)?;
    let took = started.elapsed();
    rec.record("telemetry.json_parse", "report", started, took);
    m.report_parse_ms.push(took.as_secs_f64() * 1e3);
    let cells = text[cut..]
        .split("\"name\": \"cell\"")
        .skip(1)
        .filter_map(|span| {
            let rest = &span[span.find("\"duration_us\": ")? + 15..];
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..digits].parse::<u64>().ok().map(|us| us as f64 / 1e3)
        })
        .collect();
    Ok((doc, cells))
}

/// `SETUP_PROBES` `repro` starts, each killed at its first table line.
fn repro_setup_probes(cx: &Ctx, m: &mut Measured, bin: &Path, tag: &str) -> Result<(), String> {
    for i in 0..SETUP_PROBES {
        let d = mkdir(&cx.dir.join(format!("probe-{tag}{i}")))?;
        let args = repro_args(cx.seed, &d.join("cells"), &d.join("report.json"), &["all"]);
        m.attempted += 1;
        match run_repro(bin, &args, &d.join("log"), true, HARD_CAP) {
            Ok(run) => m.setup_s.push(run.setup_s),
            Err(e) => m.fail(e),
        }
        let _ = std::fs::remove_dir_all(&d);
    }
    Ok(())
}

/// `repro-quick-cold`: whole `repro --quick all` runs, each into a
/// fresh cache directory, until the time is up (at least three). A run
/// starts only while, at the last run's pace, it would end no more than
/// half a run past `--seconds`, so the timed phase stays near its length.
pub fn repro_quick_cold(cx: &Ctx, m: &mut Measured) -> Result<(), String> {
    let bin = cx.bins.join("repro");
    repro_setup_probes(cx, m, &bin, "before")?;
    let started = Instant::now();
    let mut first: Option<(u64, u64)> = None;
    let mut rep = 0;
    let mut last_wall = 0.0;
    while rep < MIN_REPROS || started.elapsed().as_secs_f64() + last_wall / 2.0 < cx.seconds {
        if started.elapsed() > HARD_CAP {
            return Err(format!("only {rep} repro runs fit in {HARD_CAP:?}"));
        }
        let d = mkdir(&cx.dir.join(format!("rep{rep}")))?;
        let report_path = d.join("report.json");
        let args = repro_args(cx.seed, &d.join("cells"), &report_path, &["all"]);
        m.attempted += 1;
        match run_repro(&bin, &args, &d.join("log"), false, HARD_CAP) {
            Ok(run) => {
                m.setup_s.push(run.setup_s);
                m.wall_s.push(run.wall_s);
                m.peak_rss_mb.push(run.exit.peak_rss_mb());
                let (report, cell_ms) = read_report(m, cx.rec, &report_path)?;
                let digests = (fnv1a(&[&run.stdout]), metrics_digest(&report)?);
                match first {
                    None => {
                        m.golden(cx.seed, "cold.csv", digests.0);
                        m.golden(cx.seed, "cold.metrics", digests.1);
                        first = Some(digests);
                    }
                    Some(f) if f != digests => {
                        m.mismatch(format!(
                            "repro run {rep} differs from run 0 for the same seed"
                        ));
                    }
                    Some(_) => {}
                }
                let misses = report
                    .get("cache")
                    .and_then(|c| c.get("misses"))
                    .and_then(Json::as_u64);
                m.cells += misses.unwrap_or(0);
                m.cells_secs += run.wall_s;
                if cell_ms.is_empty() {
                    m.fail(format!("repro run {rep} reported no cell spans"));
                }
                m.latency_ms.extend(cell_ms);
            }
            Err(e) => m.fail(e),
        }
        // The first run's store stays for the traced replay to check
        // its cells against; later ones go to keep the disk small.
        if rep == 0 {
            m.sut_store = Some(d.join("cells"));
            m.cell_seed = cx.seed;
        } else {
            let _ = std::fs::remove_dir_all(&d);
        }
        rep += 1;
    }
    repro_setup_probes(cx, m, &bin, "after")
}

/// Starts `SETUP_PROBES` throwaway servers over `store` (spawn, ping,
/// shutdown), one after another; every start is a set-up sample.
fn serve_setup_probes(
    cx: &Ctx,
    m: &mut Measured,
    store: &Path,
    budget: Option<u64>,
    tag: &str,
) {
    let bin = cx.bins.join("serve");
    for i in 0..SETUP_PROBES {
        m.attempted += 1;
        let log = cx.dir.join(format!("serve-probe-{tag}{i}.log"));
        match Served::start(&bin, store, JOBS, budget, &log, HARD_CAP) {
            Ok((server, setup_s)) => {
                m.setup_s.push(setup_s);
                if let Err(e) = server.stop() {
                    m.fail(e);
                }
            }
            Err(e) => m.fail(e),
        }
    }
}

/// Runs the set-up probes that precede the timed phase, then starts the
/// server that serves it; its start is a set-up sample too.
fn start_server(
    cx: &Ctx,
    m: &mut Measured,
    store: &Path,
    probe_store: &Path,
    budget: Option<u64>,
) -> Result<Served, String> {
    serve_setup_probes(cx, m, probe_store, budget, "before");
    m.attempted += 1;
    let (server, setup_s) = Served::start(
        &cx.bins.join("serve"),
        store,
        JOBS,
        budget,
        &cx.dir.join("serve.log"),
        2 * HARD_CAP,
    )?;
    m.setup_s.push(setup_s);
    Ok(server)
}

/// Cumulative `(hits, misses)` of the server's cell store.
fn cache_counts(conn: &mut Conn, rec: &Recorder) -> Result<(u64, u64), String> {
    let (doc, _) = conn.round_trip(&desc_serve::client::ping_request("counts"), rec, "ping")?;
    let cache = doc.get("cache").ok_or("ping reply has no cache stanza")?;
    let get = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
    Ok((get("hits_memory") + get("hits_disk"), get("misses")))
}

/// Stops the server; its peak RSS is the run's, a dirty stop a failure.
fn stop_server(m: &mut Measured, server: Served) {
    match server.stop() {
        Ok(exit) => m.peak_rss_mb.push(exit.peak_rss_mb()),
        Err(e) => m.fail(e),
    }
}

/// `serve-warm`: pre-fill a store with the quick sweep set (untimed),
/// then cycle single-experiment quick requests over it on one
/// closed-loop connection; every reply must equal the pre-fill's.
pub fn serve_warm(cx: &Ctx, m: &mut Measured) -> Result<(), String> {
    let store = cx.dir.join("store");
    let repro = cx.bins.join("repro");
    let mut cold: HashMap<&str, u64> = HashMap::new();
    let mut csv = Vec::new();
    for exp in WARM_SET {
        let report_path = cx.dir.join(format!("prefill-{exp}.json"));
        let args = repro_args(cx.seed, &store, &report_path, &[exp]);
        m.attempted += 1;
        let run = run_repro(&repro, &args, &cx.dir.join("prefill.log"), false, HARD_CAP)?;
        csv.extend_from_slice(&run.stdout);
        let (report, _) = read_report(m, cx.rec, &report_path)?;
        cold.insert(exp, metrics_digest(&report)?);
    }
    m.golden(cx.seed, "warm.prefill.csv", fnv1a(&[&csv]));
    m.sut_store = Some(store.clone());
    m.cell_seed = cx.seed;

    let server = start_server(cx, m, &store, &store, Some(HOT_TIER_BYTES))?;
    let mut conn = Conn::connect(server.addr)?;
    let before = cache_counts(&mut conn, cx.rec)?;
    let started = Instant::now();
    loop {
        let cycle = Instant::now();
        for exp in WARM_SET {
            let request = RunRequest {
                experiments: Some(vec![exp.to_owned()]),
                preset: Some("quick".to_owned()),
                seed: Some(cx.seed),
                ..RunRequest::default()
            };
            m.attempted += 1;
            let (doc, sample) = match conn.round_trip(&request.to_json(), cx.rec, exp) {
                Ok(r) => r,
                Err(e) => {
                    m.fail(e);
                    continue;
                }
            };
            m.serve.push(sample);
            m.latency_ms.push(sample.latency_ms());
            if run_ok(m, &doc, exp) {
                let served = doc
                    .get("report")
                    .ok_or_else(|| "run reply has no report".to_owned())
                    .and_then(metrics_digest);
                if served.as_ref().ok() != cold.get(exp) {
                    m.mismatch(format!("served {exp} differs from the cold pre-fill"));
                }
            }
        }
        m.wall_s.push(cycle.elapsed().as_secs_f64());
        let elapsed = started.elapsed();
        if (elapsed.as_secs_f64() >= cx.seconds && m.latency_ms.len() >= MIN_SAMPLES)
            || elapsed > HARD_CAP
        {
            break;
        }
    }
    let timed = started.elapsed().as_secs_f64();
    let after = cache_counts(&mut conn, cx.rec)?;
    if after.1 != before.1 {
        m.fail(format!("warm serving missed {} cells", after.1 - before.1));
    }
    m.cells += after.0 - before.0;
    m.cells_secs += timed;
    drop(conn);
    stop_server(m, server);
    serve_setup_probes(cx, m, &store, Some(HOT_TIER_BYTES), "after");
    Ok(())
}

/// One `serve-mixed` request's outcome.
struct Done {
    seed: u64,
    sample: Sample,
    digest: Option<u64>,
    csv: Option<String>,
    /// Completion time since the timed phase began.
    at: Duration,
}

/// `serve-mixed`: one closed-loop `sweep` client sending cold quick
/// sweeps and one closed-loop `probe` client sending small cold
/// requests, on one `serve --jobs 2`; checked warm afterwards.
pub fn serve_mixed(cx: &Ctx, m: &mut Measured) -> Result<(), String> {
    let store = mkdir(&cx.dir.join("store"))?;
    // The probes get a store of their own, which stays empty.
    let probe_store = mkdir(&cx.dir.join("probe-store"))?;
    let server = start_server(cx, m, &store, &probe_store, None)?;
    let addr = server.addr;
    let stop = AtomicBool::new(false);
    let sweep_request = |seed: u64| RunRequest {
        client: Some("sweep".to_owned()),
        experiments: Some(SWEEP.map(str::to_owned).to_vec()),
        preset: Some("quick".to_owned()),
        seed: Some(seed),
        ..RunRequest::default()
    };
    let probe_request = |seed: u64| RunRequest {
        client: Some("probe".to_owned()),
        experiments: Some(vec!["fig16".to_owned()]),
        preset: Some("tiny".to_owned()),
        apps: Some(1),
        seed: Some(seed),
        tables: Tables::Csv,
        ..RunRequest::default()
    };
    let mut sweep_conn = Conn::connect(addr)?;
    let mut probe_conn = Conn::connect(addr)?;
    // Warm-up, untimed: one sweep and one probe on seeds of their own,
    // so the server's lazy set-up is done before the clock starts.
    for (conn, request, label) in [
        (&mut sweep_conn, sweep_request(derive(cx.seed, WARMUP_SALT, 0)), "warm-up sweep"),
        (&mut probe_conn, probe_request(derive(cx.seed, WARMUP_SALT, 1)), "warm-up probe"),
    ] {
        m.attempted += 1;
        match conn.round_trip(&request.to_json(), &Recorder::new(false), label) {
            Ok((doc, _)) => {
                run_ok(m, &doc, label);
            }
            Err(e) => m.fail(e),
        }
    }
    let started = Instant::now();
    type Outcomes = Vec<Result<(Json, Done), String>>;
    let run_client = |conn: &mut Conn,
                      salt: u64,
                      build: &dyn Fn(u64) -> RunRequest,
                      label: &str,
                      probe: bool|
     -> Outcomes {
        let mut out = Vec::new();
        let mut i = 0;
        loop {
            if probe {
                let elapsed = started.elapsed();
                if (elapsed.as_secs_f64() >= cx.seconds && out.len() >= MIN_SAMPLES)
                    || elapsed > HARD_CAP
                {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            } else if stop.load(Ordering::SeqCst) {
                break;
            }
            let seed = derive(cx.seed, salt, i);
            i += 1;
            out.push(conn.round_trip(&build(seed).to_json(), cx.rec, label).map(
                |(doc, sample)| {
                    let at = started.elapsed();
                    (
                        doc,
                        Done {
                            seed,
                            sample,
                            digest: None,
                            csv: None,
                            at,
                        },
                    )
                },
            ));
        }
        out
    };
    let (sweeps, probes) = std::thread::scope(|s| {
        let sweeper =
            s.spawn(|| run_client(&mut sweep_conn, SWEEP_SALT, &sweep_request, "sweep", false));
        let probes = run_client(&mut probe_conn, PROBE_SALT, &probe_request, "probe", true);
        stop.store(true, Ordering::SeqCst);
        (sweeper.join().expect("sweep client panicked"), probes)
    });
    let probe_end = started.elapsed();

    let mut done_sweeps = Vec::new();
    for outcome in sweeps {
        m.attempted += 1;
        match outcome {
            Ok((doc, mut d)) if run_ok(m, &doc, "sweep") => {
                d.digest = doc
                    .get("report")
                    .ok_or_else(|| "no report".to_owned())
                    .and_then(metrics_digest)
                    .ok();
                m.serve.push(d.sample);
                m.wall_s.push(d.sample.latency_ms() / 1e3);
                done_sweeps.push(d);
            }
            Ok(_) => {}
            Err(e) => m.fail(e),
        }
    }
    let mut done_probes = Vec::new();
    for outcome in probes {
        m.attempted += 1;
        match outcome {
            Ok((doc, mut d)) if run_ok(m, &doc, "probe") => {
                d.csv = doc
                    .get("tables")
                    .and_then(|t| t.get("fig16"))
                    .and_then(Json::as_str)
                    .map(str::to_owned);
                m.serve.push(d.sample);
                m.latency_ms.push(d.sample.latency_ms());
                done_probes.push(d);
            }
            Ok(_) => {}
            Err(e) => m.fail(e),
        }
    }
    // Throughput over whole sweeps that finished while probes ran.
    let in_window: Vec<&Done> = done_sweeps.iter().filter(|d| d.at <= probe_end).collect();
    if let Some(last) = in_window.iter().map(|d| d.at).max() {
        m.cells += SWEEP_CELLS * in_window.len() as u64;
        m.cells_secs += last.as_secs_f64();
    }

    // Checks, after the timed phase. Sweeps: a warm re-request must
    // equal the cold reply (the warm == cold contract). Probes: a
    // sample is recomputed in-process and must match byte for byte.
    let mut conn = Conn::connect(addr)?;
    m.cell_seed = done_sweeps.first().map_or(0, |d| d.seed);
    for d in &done_sweeps {
        if d.seed == derive(cx.seed, SWEEP_SALT, 0) {
            m.golden(cx.seed, "mixed.sweep0.metrics", d.digest.unwrap_or(0));
        }
        m.attempted += 1;
        let warm = conn
            .round_trip(
                &sweep_request(d.seed).to_json(),
                &Recorder::new(false),
                "check",
            )
            .and_then(|(doc, _)| {
                doc.get("report")
                    .ok_or("no report".to_owned())
                    .and_then(metrics_digest)
            });
        match warm {
            Ok(digest) if Some(digest) == d.digest => {}
            Ok(_) => m.mismatch(format!(
                "warm sweep seed {} differs from its cold reply",
                d.seed
            )),
            Err(e) => m.fail(e),
        }
    }
    let step = (done_probes.len() / 8).max(1);
    for d in done_probes.iter().step_by(step) {
        if d.seed == derive(cx.seed, PROBE_SALT, 0) {
            m.golden(
                cx.seed,
                "mixed.probe0.csv",
                fnv1a(&[d.csv.as_deref().unwrap_or("").as_bytes()]),
            );
        }
        let scale = desc_experiments::Scale {
            apps: 1,
            seed: d.seed,
            ..desc_experiments::Scale::tiny()
        };
        let local = desc_experiments::run_experiment("fig16", &scale).to_csv();
        if d.csv.as_deref() != Some(local.as_str()) {
            m.mismatch(format!(
                "probe seed {} differs from an in-process run",
                d.seed
            ));
        }
    }
    drop(conn);
    stop_server(m, server);
    serve_setup_probes(cx, m, &probe_store, None, "after");
    m.sut_store = Some(store);
    Ok(())
}
