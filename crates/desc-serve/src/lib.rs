//! `desc-serve` — a long-lived sweep-exploration service over the
//! process-wide [`desc_exec`] pool and the shared [`desc_cache`] cell
//! store.
//!
//! One server process accepts many concurrent TCP clients speaking the
//! length-prefixed JSON protocol of `docs/SERVICE.md`
//! ([`proto::REQUEST_SCHEMA`]). Every admitted `run` request executes
//! its experiments as sweep cells on the *same* executor pool, reading
//! and writing the *same* cell cache — so clients exploring
//! overlapping parameter sweeps pay for each distinct cell once,
//! process-wide, and the response embeds a `desc-run-report/v1`
//! document whose `metrics` match what `repro --report` produces for
//! the same cells (modulo the `pool.*` / `cache.*` / `serve.*`
//! operational families, which describe the process, not the
//! simulation — see `docs/REPORT_SCHEMA.md`).
//!
//! # Robustness contract
//!
//! - **Backpressure**: at most [`ServeConfig::workers`] requests
//!   execute at once; up to [`ServeConfig::queue`] more wait. Beyond
//!   that a request is rejected immediately with `busy` and a
//!   `retry_after_ms` hint — the server never queues unboundedly. The
//!   hint is dynamic: queue depth times an EWMA of recent service
//!   times, divided by the worker count, clamped to [25 ms, 60 s]
//!   (the configured constant until a first request completes).
//! - **Fairness**: each admitted request executes its cells under the
//!   [`desc_exec::Group`] of the request's `client` key (its `id`
//!   when untagged) — one shared group *instance* per identity, so N
//!   concurrent requests from one client share one fair-queue weight
//!   rather than multiplying their share — and pool workers drain
//!   concurrent clients' regions weighted-round-robin: a 1-cell probe
//!   completes while a 1000-cell sweep is in flight instead of
//!   queueing behind it.
//!   Overlapping sweeps also deduplicate: a cell already being
//!   computed by another request is shared via single-flight, reported
//!   per-request as `dedup_cells` and cumulatively as
//!   `serve.dedup_*`.
//! - **Deadlines**: a request's `deadline_ms` covers queueing *and*
//!   execution. Expiry cancels the request's remaining cells at the
//!   next task boundary (see [`desc_exec::CancelToken`]) and replies
//!   `deadline`. Completed cells stay cached — a retry resumes warm.
//! - **Malformed input never kills the server**: an unparsable payload
//!   in a well-formed frame gets a `malformed` reply on a surviving
//!   connection; an oversized frame gets an `oversized` reply and a
//!   connection close (the stream is desynchronized, the server is
//!   not).
//! - **Graceful shutdown**: the `shutdown` op stops admissions, lets
//!   in-flight requests finish and reply, closes idle connections, and
//!   returns from [`Server::run`]. Cache writes are atomic
//!   (temp-file + rename), so even a hard kill loses no completed
//!   entry.
//!
//! Operational counters are exposed three ways, all named `serve.*`:
//! mirrored into the global metric registry, embedded as the `serve`
//! stanza of every response report, and returned by `ping`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod proto;

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

use desc_exec::{CancelToken, Cancelled};
use desc_telemetry::{Json, Report, ReportMeta, ServeReport};
use frame::FrameError;
use proto::{ErrorCode, Op, Request, Tables};

/// How a [`Server`] listens and admits work.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Maximum concurrently *executing* run requests.
    pub workers: usize,
    /// Maximum run requests waiting for a worker slot; beyond this,
    /// requests are rejected with `busy`.
    pub queue: usize,
    /// Fallback `retry_after_ms` hint attached to `busy` rejections
    /// before any request has completed; afterwards the hint is
    /// derived from queue depth and an EWMA of recent service times.
    pub retry_after_ms: u64,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Default per-request sweep-cell concurrency cap (`scale.jobs`)
    /// when the request does not set `jobs`.
    pub default_jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue: 8,
            retry_after_ms: 250,
            default_deadline_ms: None,
            default_jobs: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

/// Lifetime counters for the `serve.*` stanza; every increment is also
/// mirrored into the global metric registry under the same name (the
/// `serve.*` family is excluded from request captures and determinism
/// comparisons, like `pool.*` and `cache.*`).
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_malformed: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    dedup_cells: AtomicU64,
    dedup_requests: AtomicU64,
    active: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64, name: &'static str) {
        Counters::add(field, name, 1);
    }

    fn add(field: &AtomicU64, name: &'static str, n: u64) {
        if n == 0 {
            return;
        }
        field.fetch_add(n, Ordering::Relaxed);
        if desc_telemetry::enabled() {
            desc_telemetry::global().counter(name).add(n);
        }
    }
}

/// Admission gate: a counting semaphore with a bounded wait queue and
/// a drain switch. Plain `Mutex` + `Condvar` so the wait can poll the
/// request's deadline token.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    workers: usize,
    queue: usize,
}

#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
    draining: bool,
}

/// Outcome of [`Gate::acquire`].
enum Admission {
    /// Admitted; drop the permit to release the slot.
    Admitted(Permit),
    /// Queue full — reject with `busy`.
    Busy,
    /// Server is draining — reject with `shutting_down`.
    Draining,
    /// The request's deadline passed while it was queued.
    Expired,
}

/// An occupied execution slot; releases it (and wakes one queued
/// waiter) on drop.
struct Permit {
    gate: Arc<Gate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().unwrap_or_else(|e| e.into_inner());
        s.active -= 1;
        drop(s);
        self.gate.cv.notify_all();
    }
}

impl Gate {
    fn new(workers: usize, queue: usize) -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            workers: workers.max(1),
            queue,
        })
    }

    /// Tries to occupy an execution slot, waiting in the bounded queue
    /// if none is free. `cancel` (the request's deadline token) is
    /// polled while queued so a request cannot wait past its deadline.
    fn acquire(self: &Arc<Gate>, cancel: Option<&CancelToken>) -> Admission {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.draining {
            return Admission::Draining;
        }
        if s.active < self.workers {
            s.active += 1;
            return Admission::Admitted(Permit { gate: Arc::clone(self) });
        }
        if s.queued >= self.queue {
            return Admission::Busy;
        }
        s.queued += 1;
        loop {
            // A bounded wait, not a pure block: the deadline token has
            // no waker, so poll it at queue granularity (25 ms is
            // negligible next to any real cell).
            let (guard, _timeout) = self
                .cv
                .wait_timeout(s, Duration::from_millis(25))
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            if s.draining {
                s.queued -= 1;
                return Admission::Draining;
            }
            if cancel.is_some_and(CancelToken::is_cancelled) {
                s.queued -= 1;
                return Admission::Expired;
            }
            if s.active < self.workers {
                s.queued -= 1;
                s.active += 1;
                return Admission::Admitted(Permit { gate: Arc::clone(self) });
            }
        }
    }

    /// Flips the drain switch: every queued waiter is rejected and no
    /// future request is admitted.
    fn drain(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.draining = true;
        drop(s);
        self.cv.notify_all();
    }

    fn is_draining(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).draining
    }

    fn queued(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).queued
    }
}

/// Per-connection bookkeeping so a drain can close *idle* connections
/// (blocked reading a frame) while *busy* ones finish and reply.
struct Conn {
    stream: TcpStream,
    busy: AtomicBool,
    done: AtomicBool,
}

/// One client identity's scheduling group plus how many admitted
/// requests currently hold it; the registry entry is dropped when the
/// count returns to zero, so an idle (or one-shot) identity leaves no
/// state behind.
struct GroupSlot {
    group: desc_exec::Group,
    active: usize,
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    gate: Arc<Gate>,
    counters: Counters,
    conns: Mutex<Vec<Arc<Conn>>>,
    /// Live fair-scheduling groups keyed by client identity, so N
    /// concurrent requests carrying the same `client` share **one**
    /// fair-queue weight (the documented contract) instead of
    /// multiplying their share by submitting concurrently.
    groups: Mutex<HashMap<String, GroupSlot>>,
    /// EWMA (α = 1/8) of completed-request service time in ms; `0`
    /// means no request has completed yet. Feeds [`Shared::retry_hint`].
    service_ewma_ms: AtomicU64,
}

/// Holds one request's claim on its client identity's [`GroupSlot`];
/// dropping it releases the claim (and retires the idle group).
struct GroupLease<'a> {
    shared: &'a Shared,
    identity: String,
    group: desc_exec::Group,
}

impl Drop for GroupLease<'_> {
    fn drop(&mut self) {
        let mut groups = self.shared.groups.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = groups.get_mut(&self.identity) {
            slot.active = slot.active.saturating_sub(1);
            if slot.active == 0 {
                groups.remove(&self.identity);
            }
        }
    }
}

impl Shared {
    /// Checks out the scheduling group for `identity`, creating it on
    /// first use and sharing the *same* group instance with every
    /// concurrently admitted request carrying the identity (fairness
    /// is per group instance — see [`desc_exec::Group::same`]).
    fn checkout_group(&self, identity: &str) -> GroupLease<'_> {
        let mut groups = self.groups.lock().unwrap_or_else(|e| e.into_inner());
        let slot = groups
            .entry(identity.to_owned())
            .or_insert_with(|| GroupSlot { group: desc_exec::Group::new(identity, 1), active: 0 });
        slot.active += 1;
        GroupLease { shared: self, identity: identity.to_owned(), group: slot.group.clone() }
    }

    /// Folds one completed request's service time into the EWMA. A
    /// single atomic read-modify-write so concurrent completions each
    /// land a sample instead of overwriting each other.
    fn note_service_ms(&self, elapsed_ms: u64) {
        let sample = elapsed_ms.max(1);
        let folded = self.service_ewma_ms.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |old| Some(if old == 0 { sample } else { (old * 7 + sample) / 8 }),
        );
        debug_assert!(folded.is_ok(), "fetch_update with Some never fails");
    }

    /// The `retry_after_ms` hint for a `busy` rejection: the time the
    /// queue is expected to take to drain one slot, estimated from the
    /// current queue depth and the recent service-time EWMA, clamped
    /// to [25 ms, 60 s]. Falls back to the configured constant until a
    /// first request completes.
    fn retry_hint(&self) -> u64 {
        let ewma = self.service_ewma_ms.load(Ordering::Relaxed);
        if ewma == 0 {
            return self.config.retry_after_ms;
        }
        let queued = self.gate.queued() as u64;
        ((queued + 1).saturating_mul(ewma) / self.gate.workers as u64).clamp(25, 60_000)
    }
    /// The live `serve` stanza.
    fn serve_report(&self) -> ServeReport {
        let c = &self.counters;
        ServeReport {
            addr: self.addr.to_string(),
            workers: self.config.workers as u64,
            queue_capacity: self.config.queue as u64,
            connections: c.connections.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected_busy: c.rejected_busy.load(Ordering::Relaxed),
            rejected_malformed: c.rejected_malformed.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            dedup_cells: c.dedup_cells.load(Ordering::Relaxed),
            dedup_requests: c.dedup_requests.load(Ordering::Relaxed),
            active: c.active.load(Ordering::Relaxed),
            draining: self.gate.is_draining(),
        }
    }
}

/// The cancellation payload [`desc_exec`] unwinds with is expected
/// noise here, not a crash: filter it out of the process panic hook so
/// a deadline does not spray backtraces over the server log. Installed
/// once, delegating everything else to the previous hook.
fn silence_cancelled_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_none() {
                prev(info);
            }
        }));
    });
}

/// A bound, not-yet-running service. [`Server::run`] blocks the
/// calling thread in the accept loop until a client issues the
/// `shutdown` op.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, sizes the shared executor pool, and turns
    /// telemetry on (responses embed run reports, so collection must
    /// be live). Does not accept connections yet.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        desc_telemetry::set_enabled(true);
        desc_exec::configure(config.default_jobs);
        silence_cancelled_panics();
        let gate = Gate::new(config.workers, config.queue);
        let shared = Arc::new(Shared {
            config,
            addr,
            gate,
            counters: Counters::default(),
            conns: Mutex::new(Vec::new()),
            groups: Mutex::new(HashMap::new()),
            service_ewma_ms: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Accepts and serves connections until a `shutdown` request
    /// drains the server. In-flight requests finish and reply; idle
    /// connections are closed; completed cache entries are all on
    /// disk when this returns (every store is atomic at cell
    /// granularity). Returns the final `serve` stanza.
    pub fn run(self) -> std::io::Result<ServeReport> {
        let mut threads = Vec::new();
        loop {
            // `accept` is woken during drain by a loopback connection
            // from the draining thread (see `initiate_drain`).
            let (stream, _) = self.listener.accept()?;
            if self.shared.gate.is_draining() {
                break;
            }
            // Replies go out as soon as they are written instead of
            // waiting on the client's delayed ACK. Best effort: a
            // socket that refuses the option is still served.
            let _ = stream.set_nodelay(true);
            Counters::bump(&self.shared.counters.connections, "serve.connections");
            let conn = Arc::new(Conn {
                stream: stream.try_clone()?,
                busy: AtomicBool::new(false),
                done: AtomicBool::new(false),
            });
            {
                let mut conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
                // Drop bookkeeping for connections that already ended,
                // so a long-lived server does not accrete state.
                conns.retain(|c| !c.done.load(Ordering::Relaxed));
                conns.push(Arc::clone(&conn));
            }
            let shared = Arc::clone(&self.shared);
            threads.push(std::thread::spawn(move || serve_connection(&shared, &conn, stream)));
        }
        // Close idle connections (their reader sees EOF); busy ones
        // finish their request and observe the drain switch.
        let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        for conn in conns.iter() {
            if !conn.busy.load(Ordering::Relaxed) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        drop(conns);
        for t in threads {
            let _ = t.join();
        }
        Ok(self.shared.serve_report())
    }
}

/// Flips the drain switch and wakes the accept loop with a loopback
/// connection.
fn initiate_drain(shared: &Shared) {
    shared.gate.drain();
    let _ = TcpStream::connect(shared.addr);
}

/// One connection's read-dispatch-reply loop. Returns when the peer
/// closes, the stream desynchronizes (oversized frame), a `shutdown`
/// is processed, or the server drains.
fn serve_connection(shared: &Shared, conn: &Conn, mut stream: TcpStream) {
    loop {
        let payload = match frame::read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => break,
            Err(FrameError::Oversized { declared }) => {
                Counters::bump(&shared.counters.rejected_malformed, "serve.rejected_malformed");
                let reply = proto::error(
                    "",
                    ErrorCode::Oversized,
                    &format!(
                        "frame of {declared} bytes exceeds the {}-byte limit; closing \
                         (stream position is no longer trustworthy)",
                        frame::MAX_FRAME
                    ),
                    None,
                );
                let _ = write_reply(&mut stream, &reply);
                break;
            }
            // Also covers a mid-frame disconnect during drain.
            Err(FrameError::Io(_)) => break,
        };
        conn.busy.store(true, Ordering::Relaxed);
        let (reply, shutdown) = handle_request(shared, &payload);
        let sent = write_reply(&mut stream, &reply);
        conn.busy.store(false, Ordering::Relaxed);
        if shutdown {
            initiate_drain(shared);
            break;
        }
        if sent.is_err() || shared.gate.is_draining() {
            break;
        }
    }
    conn.done.store(true, Ordering::Relaxed);
    // The drain registry holds a clone of this socket, so dropping
    // `stream` alone would not send FIN; shut it down explicitly so
    // the peer sees the close immediately.
    let _ = stream.shutdown(Shutdown::Both);
}

fn write_reply(stream: &mut TcpStream, reply: &Json) -> std::io::Result<()> {
    frame::write_frame(stream, reply.to_pretty().as_bytes())
}

/// Dispatches one well-framed payload. Returns the reply and whether
/// the server should drain afterwards. Never panics outward: run
/// execution is wrapped in `catch_unwind`, and parse errors become
/// `malformed` replies.
fn handle_request(shared: &Shared, payload: &[u8]) -> (Json, bool) {
    let started = Instant::now();
    let request = match Request::parse(payload) {
        Ok(r) => r,
        Err(msg) => {
            Counters::bump(&shared.counters.rejected_malformed, "serve.rejected_malformed");
            // Echo the id if one survives in the broken payload, so
            // clients can still correlate the rejection.
            let id = std::str::from_utf8(payload)
                .ok()
                .and_then(|t| Json::parse(t).ok())
                .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_owned))
                .unwrap_or_default();
            return (proto::error(&id, ErrorCode::Malformed, &msg, None), false);
        }
    };
    match request.op {
        Op::Ping => {
            let serve = shared.serve_report().to_json();
            let cache = desc_experiments::cache::active().map(|store| store.report().to_json());
            (proto::ok_ping(&request.id, started.elapsed(), serve, cache), false)
        }
        Op::Shutdown => (proto::ok_shutdown(&request.id, started.elapsed()), true),
        Op::Run => {
            let reply = handle_run(shared, &request, started);
            (reply, false)
        }
    }
}

/// Admission, execution, and report assembly for one `run` request.
fn handle_run(shared: &Shared, request: &Request, started: Instant) -> Json {
    let known = desc_experiments::experiment_names();
    if let Some(bad) = request.experiments.iter().find(|n| !known.contains(&n.as_str())) {
        Counters::bump(&shared.counters.rejected_malformed, "serve.rejected_malformed");
        return proto::error(
            &request.id,
            ErrorCode::UnknownExperiment,
            &format!("unknown experiment {bad:?}; known names match `repro --list`"),
            None,
        );
    }
    let deadline_ms = request.deadline_ms.or(shared.config.default_deadline_ms);
    let cancel = deadline_ms.map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));

    let permit = match shared.gate.acquire(cancel.as_ref()) {
        Admission::Admitted(p) => p,
        Admission::Busy => {
            Counters::bump(&shared.counters.rejected_busy, "serve.rejected_busy");
            return proto::error(
                &request.id,
                ErrorCode::Busy,
                &format!(
                    "{} running and {} queued requests; retry later",
                    shared.config.workers, shared.config.queue
                ),
                Some(shared.retry_hint()),
            );
        }
        Admission::Draining => {
            return proto::error(
                &request.id,
                ErrorCode::ShuttingDown,
                "server is draining; no new work is admitted",
                None,
            )
        }
        Admission::Expired => {
            Counters::bump(&shared.counters.timed_out, "serve.timed_out");
            return proto::error(
                &request.id,
                ErrorCode::Deadline,
                &format!(
                    "deadline of {} ms elapsed while queued",
                    deadline_ms.unwrap_or_default()
                ),
                None,
            );
        }
    };

    Counters::bump(&shared.counters.accepted, "serve.accepted");
    shared.counters.active.fetch_add(1, Ordering::Relaxed);
    if desc_telemetry::enabled() {
        desc_telemetry::global()
            .gauge("serve.active")
            .set(shared.counters.active.load(Ordering::Relaxed));
    }

    let mut scale = match request.preset.as_str() {
        "full" => desc_experiments::Scale::full(),
        "quick" => desc_experiments::Scale::quick(),
        _ => desc_experiments::Scale::tiny(),
    };
    if let Some(n) = request.accesses {
        scale.accesses = n;
    }
    if let Some(n) = request.apps {
        scale.apps = n;
    }
    if let Some(n) = request.seed {
        scale.seed = n;
    }
    if let Some(n) = request.shards {
        scale.shards = n;
    }
    scale.jobs = request.jobs.unwrap_or(shared.config.default_jobs);
    desc_exec::configure(scale.jobs);

    // The request-scoped sink: every cell delta — computed fresh or
    // served warm from the shared cache — is absorbed into it (see
    // `desc_experiments::run_custom_keyed`), so the embedded report's
    // `metrics` match a `repro --report` of the same cells.
    // The request's fair-scheduling identity: concurrent requests
    // tagged with the same `client` check out the *same* group from
    // the shared registry, so together they get one fair-queue weight
    // — a client cannot multiply its share by submitting concurrent
    // requests — while a small client still drains alongside a large
    // sweep instead of behind it (see `desc_exec`'s fair cross-group
    // scheduling). The lease drops when this request finishes, which
    // retires the group once its last concurrent holder is done.
    let identity = request.client.as_deref().unwrap_or(if request.id.is_empty() {
        "anonymous"
    } else {
        request.id.as_str()
    });
    let group_lease = shared.checkout_group(identity);

    let sink = desc_telemetry::CaptureSink::new();
    let outcome = {
        let _cancel_guard = desc_exec::install_cancel(cancel.clone());
        let _group_guard = desc_exec::install_group(Some(group_lease.group.clone()));
        catch_unwind(AssertUnwindSafe(|| {
            desc_telemetry::with_capture(&sink, || {
                request
                    .experiments
                    .iter()
                    .map(|name| (name.clone(), desc_experiments::run_experiment(name, &scale)))
                    .collect::<Vec<_>>()
            })
        }))
    };

    shared.counters.active.fetch_sub(1, Ordering::Relaxed);
    if desc_telemetry::enabled() {
        desc_telemetry::global()
            .gauge("serve.active")
            .set(shared.counters.active.load(Ordering::Relaxed));
    }
    drop(permit);
    // Telemetry is on for the request captures, so every cell, region
    // and partition span also lands in a per-thread ring. Nothing in
    // `serve` exports spans (replies and `--report` carry none), so
    // drop them here rather than let the rings grow to capacity.
    drop(desc_telemetry::drain_spans());

    let results = match outcome {
        Ok(results) => results,
        Err(payload) if payload.downcast_ref::<Cancelled>().is_some() => {
            Counters::bump(&shared.counters.timed_out, "serve.timed_out");
            return proto::error(
                &request.id,
                ErrorCode::Deadline,
                &format!(
                    "deadline of {} ms elapsed mid-run; completed cells stay cached, \
                     a retry resumes warm",
                    deadline_ms.unwrap_or_default()
                ),
                None,
            );
        }
        Err(payload) => {
            Counters::bump(&shared.counters.failed, "serve.failed");
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a cell panicked with a non-string payload".to_owned());
            return proto::error(&request.id, ErrorCode::Internal, &msg, None);
        }
    };

    // Cells this request got from a concurrent leader via
    // single-flight (operational side-channel of the capture sink;
    // warm cache hits do not count).
    let dedup_cells = sink.op_count("dedup_cells");
    Counters::add(&shared.counters.dedup_cells, "serve.dedup_cells", dedup_cells);
    if dedup_cells > 0 {
        Counters::bump(&shared.counters.dedup_requests, "serve.dedup_requests");
    }

    let report = Report {
        meta: ReportMeta {
            tool: "serve".to_owned(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            seed: scale.seed,
            scale: request.preset.clone(),
            jobs: scale.jobs,
            shards: scale.shards,
            experiments: request.experiments.clone(),
            spans_dropped: desc_telemetry::spans_dropped(),
        },
        snapshot: sink.snapshot(),
        pool: None,
        cache: desc_experiments::cache::active().map(|store| store.report()),
        serve: Some(shared.serve_report()),
        spans: Vec::new(),
    };
    let tables = match request.tables {
        Tables::None => None,
        Tables::Text => Some(
            results
                .iter()
                .fold(Json::obj(), |acc, (name, t)| acc.with(name, Json::Str(t.render()))),
        ),
        Tables::Csv => Some(
            results
                .iter()
                .fold(Json::obj(), |acc, (name, t)| acc.with(name, Json::Str(t.to_csv()))),
        ),
    };
    Counters::bump(&shared.counters.completed, "serve.completed");
    let elapsed = started.elapsed();
    shared.note_service_ms(elapsed.as_millis() as u64);
    proto::ok_run(&request.id, elapsed, dedup_cells, report.to_json(), tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_up_to_workers_then_queues_then_rejects() {
        let gate = Gate::new(2, 1);
        let a = match gate.acquire(None) {
            Admission::Admitted(p) => p,
            _ => panic!("first slot admits"),
        };
        let b = match gate.acquire(None) {
            Admission::Admitted(p) => p,
            _ => panic!("second slot admits"),
        };
        // Third request must queue; run it on a helper thread and
        // reject a fourth while the queue is occupied.
        let gate2 = Arc::clone(&gate);
        let queued = std::thread::spawn(move || match gate2.acquire(None) {
            Admission::Admitted(p) => {
                drop(p);
                true
            }
            _ => false,
        });
        // Wait until the helper is actually queued.
        loop {
            let s = gate.state.lock().unwrap();
            if s.queued == 1 {
                break;
            }
            drop(s);
            std::thread::yield_now();
        }
        assert!(matches!(gate.acquire(None), Admission::Busy), "queue of 1 is full");
        drop(a);
        assert!(queued.join().unwrap(), "queued request admits when a slot frees");
        drop(b);
    }

    fn test_shared() -> Shared {
        Shared {
            config: ServeConfig { workers: 2, retry_after_ms: 250, ..ServeConfig::default() },
            addr: "127.0.0.1:0".parse().unwrap(),
            gate: Gate::new(2, 8),
            counters: Counters::default(),
            conns: Mutex::new(Vec::new()),
            groups: Mutex::new(HashMap::new()),
            service_ewma_ms: AtomicU64::new(0),
        }
    }

    #[test]
    fn concurrent_requests_with_one_client_share_one_group() {
        let shared = test_shared();
        // Two concurrent checkouts of the same identity: one group
        // instance (one fair-queue weight), per the protocol docs.
        let a = shared.checkout_group("ci-bot");
        let b = shared.checkout_group("ci-bot");
        assert!(a.group.same(&b.group), "same client must share one group");
        // A different identity gets its own group.
        let other = shared.checkout_group("probe");
        assert!(!a.group.same(&other.group));
        // Releasing one holder keeps the group alive for the other...
        drop(a);
        let c = shared.checkout_group("ci-bot");
        assert!(b.group.same(&c.group), "group persists while a holder remains");
        // ...and releasing the last retires the registry entry, so a
        // later request starts a fresh group (no unbounded growth).
        drop(b);
        drop(c);
        drop(other);
        assert!(shared.groups.lock().unwrap().is_empty(), "idle identities leave no state");
        let fresh = shared.checkout_group("ci-bot");
        assert_eq!(fresh.group.name(), "ci-bot");
    }

    #[test]
    fn retry_hint_tracks_service_time_and_falls_back_when_unsampled() {
        let shared = test_shared();
        // No completed request yet: the configured constant.
        assert_eq!(shared.retry_hint(), 250);
        // First sample seeds the EWMA; an empty queue estimates one
        // service time spread over the workers.
        shared.note_service_ms(800);
        assert_eq!(shared.retry_hint(), 400);
        // Subsequent samples fold in at α = 1/8 (zero clamps to 1 ms).
        shared.note_service_ms(0);
        assert_eq!(shared.service_ewma_ms.load(Ordering::Relaxed), 700);
        // The hint never drops below 25 ms nor exceeds 60 s.
        shared.service_ewma_ms.store(10, Ordering::Relaxed);
        assert_eq!(shared.retry_hint(), 25);
        shared.service_ewma_ms.store(1_000_000, Ordering::Relaxed);
        assert_eq!(shared.retry_hint(), 60_000);
    }

    #[test]
    fn gate_expires_queued_requests_and_rejects_while_draining() {
        let gate = Gate::new(1, 4);
        let slot = match gate.acquire(None) {
            Admission::Admitted(p) => p,
            _ => panic!("slot admits"),
        };
        let expired = CancelToken::new();
        expired.cancel();
        assert!(matches!(gate.acquire(Some(&expired)), Admission::Expired));
        gate.drain();
        assert!(matches!(gate.acquire(None), Admission::Draining));
        drop(slot);
        assert!(matches!(gate.acquire(None), Admission::Draining));
    }
}
