//! Process-wide deterministic fork-join executor.
//!
//! Every parallel layer of the DESC reproduction shares **one** pool of
//! persistent worker threads: `run_matrix` submits (config × app) cell
//! tasks and `SystemSim`/`SnucaSim` submit bank-partition tasks into
//! the same worker set, so `--jobs` and `--shards` *bound* concurrency
//! instead of multiplying threads, and no hot path ever spawns an OS
//! thread.
//!
//! # Task model
//!
//! A call to [`run_labeled`] (or [`run_mut_labeled`]) opens a
//! **region**: `total` independent tasks identified by index
//! `0..total`, a concurrency cap, and one result slot (or one `&mut`
//! state) per index. Both entry points hand their tasks to one private
//! region driver and differ only in where task `i` puts its result.
//! The calling thread always participates — it claims and executes
//! tasks alongside the workers — and blocks until every task in *its
//! own* region has completed, then collects the slots in index order.
//! With an empty pool (1-CPU machine, or before [`configure`] raises
//! the target) a region degrades to a plain serial loop on the caller
//! with no synchronisation at all.
//!
//! # Task context
//!
//! A task inherits three things from the thread that submitted its
//! region: the metric capture sink (`desc_telemetry::install_capture`),
//! the cancel token ([`install_cancel`]) and the fair-share group
//! ([`install_group`]). The region captures all three once, as one
//! task context, when it opens, and installs that context on every
//! thread that drains it, so a nested region submitted from a pool
//! worker inherits the same sink, deadline and group as its parent.
//!
//! # Determinism is structural
//!
//! Workers claim task *indices* from a shared counter, so which thread
//! runs which task is scheduling-dependent — but each task is a pure
//! function of its index and each result lands in its index's slot.
//! Merges that consume the returned `Vec` in order therefore see
//! byte-identical inputs for any worker count, any cap, and any
//! interleaving. Nothing downstream needs to reason about the pool.
//!
//! # Fair cross-group scheduling
//!
//! Concurrently open regions are drained **weighted round-robin
//! across [`Group`]s**: a region is tagged with the group installed on
//! its submitting thread ([`install_group`]), every claimed task
//! charges the group's virtual time by `1/weight`, and workers run
//! one task at a time, each time re-picking the claimable region whose
//! group has received the least weighted service. A one-cell request
//! tagged with its own group therefore gets the next worker slot even
//! while a 1000-cell sweep is in flight. Untagged work shares one
//! default group, and same-group regions keep strict submission order
//! — a single-client process schedules exactly as before. Fairness
//! only redistributes *worker* help; the submitting caller still
//! drains its own region, which is what keeps determinism and the
//! no-deadlock argument below intact.
//!
//! # Nested submission cannot deadlock
//!
//! A task may itself call [`run_labeled`] (a `run_matrix` cell running
//! a sharded `SystemSim`). The nested caller helps execute its own
//! region first and only then waits, so it can only block on tasks
//! *claimed by other threads* — and a claimant never waits for work it
//! has not finished: either it is executing a leaf task (which runs to
//! completion) or it is itself a nested caller one level deeper. Every
//! chain of waiting threads ends at a thread making progress, so the
//! wait graph is well-founded for any pool size, including a pool of
//! zero workers.
//!
//! # Observability
//!
//! When `desc-telemetry` is enabled, the pool places itself on the
//! execution timeline (see `docs/TELEMETRY.md`): every
//! [`run_labeled`]/[`run_mut_labeled`] call opens a `region` span on
//! the submitting thread, every task records its queue wait
//! (submit→start) and run time into a per-label aggregation, and every
//! executing thread accumulates busy time under its stable
//! [`desc_telemetry::current_worker`] ordinal. [`utilization`] exports
//! the whole picture as the `pool_utilization` stanza of
//! `desc-run-report/v1`. When telemetry is disabled none of this reads
//! a clock or takes a lock — the only residue is the pool's lifetime
//! [`stats`] counters, which are plain relaxed atomics on cold paths.
//!
//! # Example
//!
//! ```
//! desc_exec::configure(2);
//! let squares = desc_exec::run_labeled("squares", 8, 2, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
// This crate is the one place in the workspace that uses `unsafe`: it
// erases closure lifetimes to hand borrowed task contexts to 'static
// worker threads. Soundness rests on a single invariant, documented at
// [`Region`]: the submitting call blocks until `done == total` before
// its borrows go out of scope.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::BTreeMap;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use desc_telemetry::Histogram;

/// Snapshot of the pool's lifetime statistics, exposed so benchmark
/// harnesses can stamp a `pool` stanza into their JSON output. These
/// are *internal* atomics, deliberately kept out of the
/// `desc-telemetry` registry: inline and pooled executions of the same
/// workload take different code paths here, and run reports must stay
/// byte-identical across `--jobs`/`--shards` settings.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Concurrency target (caller + workers) the pool was configured
    /// for; the high-water mark of every [`configure`] call.
    pub target: usize,
    /// Worker threads actually spawned (`target - 1`, lazily).
    pub workers: usize,
    /// Regions (fork-join scopes) executed through the pool.
    pub regions: u64,
    /// Tasks executed in total, on any thread.
    pub tasks_executed: u64,
    /// Tasks that ran on the serial fast path (no region opened).
    pub tasks_inline: u64,
    /// Tasks executed by their own submitting caller while helping.
    pub tasks_helped: u64,
    /// Tasks stolen by pool workers from a submitting caller.
    pub tasks_stolen: u64,
    /// Regions submitted from inside another region's task (nested
    /// fork-join, e.g. a sweep cell running a sharded simulation).
    pub regions_nested: u64,
    /// Times a worker raced for a region slot and lost to its
    /// concurrency cap — a saturation signal: how often spare threads
    /// found work they were not allowed to take.
    pub cap_rejections: u64,
}

/// Per-label timing aggregation for one region family (`"cells"` for
/// sweep cells, `"parts"` for bank partitions). Standalone [`Histogram`]s, *not* registry metrics —
/// wall-clock queue waits differ run to run, and the registry must
/// stay byte-identical across pool shapes.
#[derive(Default)]
struct RegionAgg {
    tasks: AtomicU64,
    queue_wait: Histogram,
    queue_wait_max: AtomicU64,
    run: Histogram,
    run_max: AtomicU64,
}

impl RegionAgg {
    fn record(&self, queue_wait_us: u64, run_us: u64) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record(queue_wait_us);
        self.queue_wait_max.fetch_max(queue_wait_us, Ordering::Relaxed);
        self.run.record(run_us);
        self.run_max.fetch_max(run_us, Ordering::Relaxed);
    }
}

/// Per-label region aggregations, keyed by the `&'static str` label so
/// iteration order (and therefore report output order) is stable.
fn region_aggs() -> &'static Mutex<BTreeMap<&'static str, Arc<RegionAgg>>> {
    static AGGS: OnceLock<Mutex<BTreeMap<&'static str, Arc<RegionAgg>>>> = OnceLock::new();
    AGGS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn region_agg(label: &'static str) -> Arc<RegionAgg> {
    let mut aggs = region_aggs().lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(aggs.entry(label).or_default())
}

/// Per-thread busy-time cell, keyed by the thread's telemetry worker
/// ordinal so utilization rows line up with Chrome-trace lanes.
#[derive(Default)]
struct WorkerCell {
    busy_us: AtomicU64,
    tasks: AtomicU64,
}

fn worker_cells() -> &'static Mutex<BTreeMap<u32, Arc<WorkerCell>>> {
    static CELLS: OnceLock<Mutex<BTreeMap<u32, Arc<WorkerCell>>>> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    /// This thread's busy cell (registered on first timed task).
    static WORKER_CELL: Arc<WorkerCell> = {
        let worker = desc_telemetry::current_worker();
        let mut cells = worker_cells().lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(cells.entry(worker).or_default())
    };

    /// True while this thread is executing a region task; a region
    /// submitted in that state is a nested fork-join.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };

    /// True while this thread runs a timed task. A task timed inside
    /// it — a nested region's, run inline or while helping — is
    /// already covered by the outer task's busy time.
    static TIMED: Cell<bool> = const { Cell::new(false) };
}

/// Sets a thread-local flag and restores its previous value even when
/// the task unwinds, so a caught panic cannot leave the thread
/// permanently "in a task".
struct FlagGuard {
    flag: &'static std::thread::LocalKey<Cell<bool>>,
    was: bool,
}

impl FlagGuard {
    fn enter(flag: &'static std::thread::LocalKey<Cell<bool>>) -> Self {
        FlagGuard { flag, was: flag.with(|f| f.replace(true)) }
    }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        self.flag.with(|f| f.set(self.was));
    }
}

/// Panic payload used to unwind out of a cancelled region. Callers
/// that wrap a cancellable scope in [`std::panic::catch_unwind`] can
/// downcast the payload to this type to distinguish an intentional
/// cancellation (a `desc-serve` request deadline) from a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("desc-exec region cancelled (deadline or explicit cancel)")
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation handle, installed per thread with
/// [`install_cancel`] and snapshotted by every region submitted while
/// it is installed (exactly like the metric [`desc_telemetry::CaptureSink`]).
/// Once the token is cancelled — explicitly via [`CancelToken::cancel`]
/// or implicitly by its deadline passing — every subsequent task claim
/// in a covered region unwinds with a [`Cancelled`] payload, which
/// rides the executor's existing panic-propagation path: remaining
/// unclaimed tasks are cancelled and the payload is re-raised on the
/// submitting caller.
///
/// Cancellation is **best-effort and task-granular**: a task that is
/// already running is never interrupted mid-flight (results stay
/// deterministic and cache writes stay complete), so the latency of a
/// cancel is bounded by the longest single task, not the region.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token that only cancels explicitly, never by deadline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels once `timeout` has elapsed from now.
    #[must_use]
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Requests cancellation. Idempotent; takes effect at the next
    /// task boundary of every covered region.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) was called or the deadline
    /// passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch so later checks skip the clock read.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Unwinds with [`Cancelled`] if the token is cancelled.
    pub fn check(&self) {
        if self.is_cancelled() {
            panic_any(Cancelled);
        }
    }
}

/// Installs `token` (or clears the installation with `None`) on the
/// current thread until the returned guard drops. Regions submitted
/// while a token is installed snapshot it and honour it on every
/// draining thread, so a deadline covers nested fork-join work no
/// matter which pool thread runs it.
#[must_use]
pub fn install_cancel(token: Option<CancelToken>) -> ContextGuard {
    ContextGuard::install(Some(token), None, None)
}

/// Unwinds with [`Cancelled`] if the current thread's installed token
/// (if any) is cancelled. Cheap enough to call between coarse work
/// items (one thread-local borrow; a clock read only while a deadline
/// token is installed and not yet latched).
pub fn check_cancelled() {
    INSTALLED.with(|c| {
        if let Some(token) = &c.borrow().0 {
            token.check();
        }
    });
}

/// Fixed-point scale for group virtual time: a weight-1 group is
/// charged this much per claimed task, a weight-`w` group `1/w` of it.
const WEIGHT_SCALE: u64 = 1 << 16;

#[derive(Debug)]
struct GroupInner {
    name: String,
    weight: u64,
    /// Weighted service received, in [`WEIGHT_SCALE`] fixed-point:
    /// grows by `WEIGHT_SCALE / weight` per task claimed by any region
    /// of this group. Workers prefer the claimable region whose group
    /// has the *smallest* virtual time, which is what makes the
    /// draining weighted-round-robin fair across groups.
    vtime: AtomicU64,
    /// Tasks claimed by this group's regions (service in plain units).
    tasks: AtomicU64,
}

/// A fair-share scheduling identity for pool work — one per client,
/// request, or logical job. Regions submitted while a group is
/// installed ([`install_group`]) are tagged with it, and pool workers
/// drain concurrently open regions **weighted round-robin across
/// groups**: after every task a worker re-picks the claimable region
/// whose group has received the least weighted service, so a one-cell
/// request tagged with its own group never waits for a 1000-cell
/// sweep's region to drain. A group with weight `w` receives `w`
/// shares; untagged regions all pool into one process-wide default
/// group.
///
/// Fairness only redistributes *worker* help — the submitting caller
/// still drains its own region itself, so determinism, nesting, and
/// the no-deadlock argument are untouched.
///
/// Cheap to clone (shared handle); service accounting is visible via
/// [`tasks`](Self::tasks) and [`vtime`](Self::vtime).
#[derive(Debug, Clone)]
pub struct Group {
    inner: Arc<GroupInner>,
}

impl Group {
    /// A new group with `weight` fair shares (clamped to at least 1).
    #[must_use]
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        Group {
            inner: Arc::new(GroupInner {
                name: name.into(),
                weight: u64::from(weight.max(1)),
                vtime: AtomicU64::new(0),
                tasks: AtomicU64::new(0),
            }),
        }
    }

    /// The group's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The group's fair-share weight.
    #[must_use]
    pub fn weight(&self) -> u32 {
        u32::try_from(self.inner.weight).unwrap_or(u32::MAX)
    }

    /// Tasks claimed by this group's regions so far.
    #[must_use]
    pub fn tasks(&self) -> u64 {
        self.inner.tasks.load(Ordering::Relaxed)
    }

    /// Weighted service received (fixed-point; see [`Group`]). Useful
    /// for tests and diagnostics, not meaningful in wall-clock units.
    #[must_use]
    pub fn vtime(&self) -> u64 {
        self.inner.vtime.load(Ordering::Relaxed)
    }

    fn charge(&self) {
        self.inner.tasks.fetch_add(1, Ordering::Relaxed);
        self.inner.vtime.fetch_add(WEIGHT_SCALE / self.inner.weight, Ordering::Relaxed);
    }

    /// True when `self` and `other` are handles to the *same* group
    /// (shared service accounting), as opposed to two groups that
    /// merely share a name. This is the identity the scheduler uses:
    /// fairness is per group instance, so callers that want several
    /// requests to share one fair-queue weight must clone one handle
    /// rather than construct groups with equal names.
    #[must_use]
    pub fn same(&self, other: &Group) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// The group untagged regions land in, so fairness between tagged and
/// untagged work still has two comparable parties.
fn default_group() -> Group {
    static DEFAULT: OnceLock<Group> = OnceLock::new();
    DEFAULT.get_or_init(|| Group::new("main", 1)).clone()
}

/// Installs `group` (or clears the installation with `None`) on the
/// current thread until the returned guard drops. Regions submitted
/// while a group is installed are tagged with it — and, like the
/// capture sink and cancel token, the tag is mirrored onto every
/// thread that drains the region, so nested regions inherit it no
/// matter which pool thread submits them.
#[must_use]
pub fn install_group(group: Option<Group>) -> ContextGuard {
    ContextGuard::install(None, Some(group), None)
}

thread_local! {
    /// The cancel token and group installed on this thread. The
    /// capture sink is the third part of a [`TaskCtx`] but lives in
    /// `desc-telemetry`'s own slot, where metric updates read it.
    static INSTALLED: RefCell<(Option<CancelToken>, Option<Group>)> =
        const { RefCell::new((None, None)) };
}

/// Everything a task inherits from the thread that submitted its
/// region. Captured once when the region opens and installed for every
/// drain of it, so a cached cell's nested partition work is captured,
/// cancelled and charged like its parent no matter which pool thread
/// runs it. The inline path runs on the submitting thread itself,
/// where the same context is already installed.
struct TaskCtx {
    /// Metric capture sink (see `desc_telemetry::capture`).
    sink: Option<Arc<desc_telemetry::CaptureSink>>,
    /// Cancel token ([`install_cancel`]); checked once per task claim.
    cancel: Option<CancelToken>,
    /// Fair-share group the region's service is charged to: the
    /// installed one ([`install_group`]) or the process default.
    group: Group,
}

impl TaskCtx {
    fn capture() -> Self {
        let (cancel, group) = INSTALLED.with(|c| c.borrow().clone());
        TaskCtx {
            sink: desc_telemetry::capture_sink(),
            cancel,
            group: group.unwrap_or_else(default_group),
        }
    }

    /// Installs the context on the current thread until the guard
    /// drops. On the submitting thread this re-installs what is
    /// already there, with the default group in place of none.
    fn install(&self) -> ContextGuard {
        ContextGuard::install(
            Some(self.cancel.clone()),
            Some(Some(self.group.clone())),
            self.sink.as_ref().map(|s| desc_telemetry::install_capture(Some(Arc::clone(s)))),
        )
    }
}

/// Restores, when dropped, whatever the call that returned it
/// ([`install_cancel`], [`install_group`]) replaced on the current
/// thread.
#[derive(Debug)]
pub struct ContextGuard {
    /// `Some(prev)` for each installed value this guard replaced.
    cancel: Option<Option<CancelToken>>,
    group: Option<Option<Group>>,
    _capture: Option<desc_telemetry::CaptureGuard>,
}

impl ContextGuard {
    fn install(
        cancel: Option<Option<CancelToken>>,
        group: Option<Option<Group>>,
        capture: Option<desc_telemetry::CaptureGuard>,
    ) -> Self {
        let mut guard = ContextGuard { cancel, group, _capture: capture };
        guard.swap();
        guard
    }

    /// Swaps each `Some` slot with the thread's installed value. A
    /// second swap undoes the first, which is how a guard restores only
    /// what it replaced: a cancel guard and a group guard may drop in
    /// either order.
    fn swap(&mut self) {
        INSTALLED.with(|c| {
            let mut installed = c.borrow_mut();
            if let Some(token) = &mut self.cancel {
                std::mem::swap(&mut installed.0, token);
            }
            if let Some(group) = &mut self.group {
                std::mem::swap(&mut installed.1, group);
            }
        });
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        self.swap();
    }
}

/// One fork-join scope: `total` indexed tasks behind a type-erased
/// entry point.
///
/// # Safety invariant
///
/// `env` points at a stack frame of the submitting caller. The caller
/// blocks in [`Region::wait_done`] until `done == total` (completions
/// are `Release`, the caller's read is `Acquire`), and every execution
/// path — success, task panic, cancellation after a sibling's panic —
/// increments `done` exactly once per task index. Therefore no thread
/// can touch `env` after `wait_done` returns, and the erased lifetime
/// never outlives the borrow it erased.
struct Region {
    task: unsafe fn(*const (), usize),
    env: *const (),
    total: usize,
    cap: usize,
    /// Per-task timing, set at submit time iff telemetry was enabled;
    /// queue wait is measured from the submit instant.
    timer: Option<TaskTimer>,
    /// What every task inherits from the submitting thread.
    ctx: TaskCtx,
    /// Next unclaimed task index; CAS-claimed so it never exceeds
    /// `total` (which keeps the cancellation arithmetic on the panic
    /// path exact).
    next: AtomicUsize,
    /// Threads currently executing tasks of this region (the caller
    /// pre-counts as one); bounded by `cap`.
    active: AtomicUsize,
    /// Completed (or cancelled) task count; region is finished at
    /// `done == total`.
    done: AtomicUsize,
    /// First panic payload raised by a task, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `env` is only dereferenced by `task` while the submitting
// caller provably keeps the pointee alive (see the struct docs); all
// other fields are Sync primitives.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    fn new(
        task: unsafe fn(*const (), usize),
        env: *const (),
        total: usize,
        cap: usize,
        label: &'static str,
    ) -> Self {
        Region {
            task,
            env,
            total,
            cap,
            timer: TaskTimer::start(label),
            ctx: TaskCtx::capture(),
            next: AtomicUsize::new(0),
            // The submitting caller counts as already active.
            active: AtomicUsize::new(1),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Cheap scan predicate for workers: unclaimed work exists and the
    /// concurrency cap has headroom.
    fn claimable(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.total
            && self.active.load(Ordering::Relaxed) < self.cap
    }

    /// Reserves an active slot; the loser of a race backs out.
    fn try_enter(&self) -> bool {
        if self.active.fetch_add(1, Ordering::Relaxed) >= self.cap {
            self.active.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    fn exit(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// CAS-claims the next task index, never moving `next` past
    /// `total`.
    fn claim(&self) -> Option<usize> {
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            if cur >= self.total {
                return None;
            }
            match self.next.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // Service accounting happens at claim time (not
                    // completion), so a group's virtual time reflects
                    // work already handed to it when workers pick
                    // their next region.
                    self.ctx.group.charge();
                    return Some(cur);
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Claims and executes tasks until none are left, returning how
    /// many this thread ran. A panicking task cancels the region's
    /// remaining unclaimed tasks (accounting them as done so the
    /// caller wakes) and records the first payload for re-raising on
    /// the submitting thread.
    fn execute_until_empty(&self) -> u64 {
        self.execute(usize::MAX)
    }

    /// [`Self::execute_until_empty`] bounded to at most `limit` tasks
    /// — the weighted-round-robin burst unit for pool workers, which
    /// re-pick the fairest claimable region after every task.
    fn execute(&self, limit: usize) -> u64 {
        let _ctx = self.ctx.install();
        let mut ran = 0u64;
        while (ran as usize) < limit {
            let Some(i) = self.claim() else { break };
            ran += 1;
            let outcome = TaskTimer::time(self.timer.as_ref(), || {
                catch_unwind(AssertUnwindSafe(|| {
                    // Cancellation is task-granular: a claimed task
                    // either runs to completion or never starts. The
                    // panic rides the cancel-remaining accounting below.
                    if let Some(token) = &self.ctx.cancel {
                        token.check();
                    }
                    let _in_task = FlagGuard::enter(&IN_TASK);
                    // SAFETY: `i` was claimed exactly once and `env` is
                    // alive (struct invariant).
                    unsafe { (self.task)(self.env, i) }
                }))
            });
            match outcome {
                Ok(()) => self.complete(1),
                Err(payload) => {
                    {
                        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    let already = self.next.swap(self.total, Ordering::Relaxed);
                    let cancelled = self.total - already.min(self.total);
                    self.complete(1 + cancelled);
                }
            }
        }
        ran
    }

    /// Marks `k` tasks finished; the final completion wakes the
    /// submitting caller. `Release` so the caller's `Acquire` read of
    /// `done == total` orders every slot write before the collection.
    fn complete(&self, k: usize) {
        let before = self.done.fetch_add(k, Ordering::Release);
        if before + k >= self.total {
            // Taking the lock pairs with the caller's check-then-wait,
            // closing the lost-wakeup window.
            let _guard = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.done_cv.notify_all();
        }
    }

    fn wait_done(&self) {
        if self.done.load(Ordering::Acquire) >= self.total {
            return;
        }
        let mut guard = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.done.load(Ordering::Acquire) < self.total {
            guard = self.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

struct Pool {
    /// Currently open regions, in submission order; workers take the
    /// first claimable one.
    open: Mutex<Vec<Arc<Region>>>,
    /// Signalled when a region is submitted or concurrency capacity
    /// frees up.
    work: Condvar,
    target: AtomicUsize,
    spawned: AtomicUsize,
    regions: AtomicU64,
    executed: AtomicU64,
    inline: AtomicU64,
    helped: AtomicU64,
    stolen: AtomicU64,
    nested: AtomicU64,
    rejected: AtomicU64,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            open: Mutex::new(Vec::new()),
            work: Condvar::new(),
            target: AtomicUsize::new(default_target()),
            spawned: AtomicUsize::new(0),
            regions: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            helped: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            nested: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// Lazily brings the worker set up to `target - 1` threads (the
    /// caller of every region is the remaining unit of concurrency).
    /// Workers are never torn down; an idle worker is a parked thread.
    fn ensure_workers(&'static self) {
        let want = self.target.load(Ordering::Relaxed).saturating_sub(1);
        let mut cur = self.spawned.load(Ordering::Relaxed);
        while cur < want {
            match self.spawned.compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    std::thread::Builder::new()
                        .name(format!("desc-exec-{cur}"))
                        .spawn(move || self.worker_loop())
                        .expect("failed to spawn desc-exec worker");
                    cur += 1;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn worker_loop(&'static self) {
        loop {
            let region = {
                let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    // Weighted round-robin across groups: among the
                    // claimable regions, take the one whose group has
                    // received the least weighted service. Strict `<`
                    // keeps submission order as the tie-break, so
                    // same-group regions (and a single-client process)
                    // drain FIFO exactly as before.
                    let mut best: Option<&Arc<Region>> = None;
                    for r in open.iter().filter(|r| r.claimable()) {
                        if best.is_none_or(|b| r.ctx.group.vtime() < b.ctx.group.vtime()) {
                            best = Some(r);
                        }
                    }
                    if let Some(r) = best {
                        break Arc::clone(r);
                    }
                    open = self.work.wait(open).unwrap_or_else(|e| e.into_inner());
                }
            };
            // The claimability check above ran under the lock, but the
            // race with other claimants is resolved here; a loser just
            // rescans (and sleeps if nothing else is claimable).
            if region.try_enter() {
                // Burst of one task, then re-pick: this is what lets a
                // freshly submitted small region take the next worker
                // slot instead of waiting for a large region to drain.
                region.execute(1);
                region.exit();
                // Leaving may free cap headroom for a sibling worker,
                // and the fairest region may have changed.
                self.work.notify_all();
            } else {
                // Lost the race to the concurrency cap: spare capacity
                // existed but the region was not allowed to use it.
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn submit(&'static self, region: Arc<Region>) {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        // A group entering (or re-entering) service must not undercut
        // groups already being served: raise its virtual time to the
        // smallest among the other open regions' groups, so a fresh
        // client gets the *next* fair turn, not a monopolizing replay
        // of the service it never used.
        let floor = open
            .iter()
            .filter(|r| !r.ctx.group.same(&region.ctx.group))
            .map(|r| r.ctx.group.vtime())
            .min();
        if let Some(floor) = floor {
            region.ctx.group.inner.vtime.fetch_max(floor, Ordering::Relaxed);
        }
        open.push(region);
        drop(open);
        self.work.notify_all();
    }

    fn retire(&'static self, region: &Arc<Region>) {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = open.iter().position(|r| Arc::ptr_eq(r, region)) {
            open.swap_remove(pos);
        }
    }
}

/// Concurrency target before any [`configure`] call: the `DESC_JOBS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
fn default_target() -> usize {
    if let Ok(v) = std::env::var("DESC_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Raises the pool's concurrency target (caller + workers) to
/// `threads` and spawns any missing workers. The pool never shrinks:
/// the target is a process-lifetime high-water mark, so `--jobs` can
/// only widen a run, and a target of 1 means a completely serial
/// process with zero pool threads.
pub fn configure(threads: usize) {
    let pool = Pool::global();
    pool.target.fetch_max(threads.max(1), Ordering::Relaxed);
    pool.ensure_workers();
}

/// Current lifetime statistics of the process-wide pool.
#[must_use]
pub fn stats() -> PoolStats {
    let pool = Pool::global();
    PoolStats {
        target: pool.target.load(Ordering::Relaxed),
        workers: pool.spawned.load(Ordering::Relaxed),
        regions: pool.regions.load(Ordering::Relaxed),
        tasks_executed: pool.executed.load(Ordering::Relaxed),
        tasks_inline: pool.inline.load(Ordering::Relaxed),
        tasks_helped: pool.helped.load(Ordering::Relaxed),
        tasks_stolen: pool.stolen.load(Ordering::Relaxed),
        regions_nested: pool.nested.load(Ordering::Relaxed),
        cap_rejections: pool.rejected.load(Ordering::Relaxed),
    }
}

/// Wall-clock utilization of the pool on the shared trace timebase:
/// per-worker busy time and per-region-label queue-wait / run-time
/// distributions, in the shape the `desc-run-report/v1`
/// `pool_utilization` stanza serializes. Only populated while
/// telemetry is enabled (per-task clocks are off otherwise); worker
/// ordinals match span lanes and [`desc_telemetry::worker_names`].
#[must_use]
pub fn utilization() -> desc_telemetry::PoolUtilization {
    let names = desc_telemetry::worker_names();
    let workers = worker_cells()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&worker, cell)| desc_telemetry::WorkerUtilization {
            worker,
            name: names
                .get(worker as usize)
                .cloned()
                .unwrap_or_else(|| format!("thread-{worker}")),
            busy_us: cell.busy_us.load(Ordering::Relaxed),
            tasks: cell.tasks.load(Ordering::Relaxed),
        })
        .collect();
    let regions = region_aggs()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&label, agg)| desc_telemetry::RegionUtilization {
            label: label.to_owned(),
            tasks: agg.tasks.load(Ordering::Relaxed),
            queue_wait_us_sum: agg.queue_wait.sum(),
            queue_wait_us_max: agg.queue_wait_max.load(Ordering::Relaxed),
            queue_wait_us_buckets: desc_telemetry::RegionUtilization::sparse_buckets(
                &agg.queue_wait.buckets(),
            ),
            run_us_sum: agg.run.sum(),
            run_us_max: agg.run_max.load(Ordering::Relaxed),
            run_us_buckets: desc_telemetry::RegionUtilization::sparse_buckets(&agg.run.buckets()),
        })
        .collect();
    desc_telemetry::PoolUtilization {
        elapsed_us: desc_telemetry::now_us(),
        workers,
        regions,
    }
}

/// Per-task timing for one region, pooled or inline (so a 1-job run
/// still produces a populated `pool_utilization` stanza and honest
/// busy-time lanes). Constructed only when telemetry is enabled.
struct TaskTimer {
    agg: Arc<RegionAgg>,
    /// Trace-timebase microsecond the region opened at; per-task queue
    /// wait is measured from here.
    opened_us: u64,
}

impl TaskTimer {
    fn start(label: &'static str) -> Option<Self> {
        desc_telemetry::enabled()
            .then(|| TaskTimer { agg: region_agg(label), opened_us: desc_telemetry::now_us() })
    }

    /// Runs `g`, recording its queue wait and run time when `timer` is
    /// set; without one this reads no clock. Only the outermost timed
    /// task on a thread adds to the thread's busy time, so a busy
    /// fraction never exceeds 1.
    fn time<R>(timer: Option<&Self>, g: impl FnOnce() -> R) -> R {
        let Some(timer) = timer else { return g() };
        let timed = FlagGuard::enter(&TIMED);
        let start_us = desc_telemetry::now_us();
        let result = g();
        let run_us = desc_telemetry::now_us().saturating_sub(start_us);
        timer.agg.record(start_us.saturating_sub(timer.opened_us), run_us);
        WORKER_CELL.with(|cell| {
            if !timed.was {
                cell.busy_us.fetch_add(run_us, Ordering::Relaxed);
            }
            cell.tasks.fetch_add(1, Ordering::Relaxed);
        });
        result
    }
}

/// The region sequence behind [`run_labeled`] and [`run_mut_labeled`]:
/// runs `task(i)` exactly once for every `i` in `0..total` with at
/// most `cap` tasks in flight, and returns only after every task has
/// finished. A cap of 1 or an empty pool runs a serial loop on the
/// caller; otherwise the region is submitted to the pool, the caller
/// helps drain it, and the first task panic is re-raised here.
fn drive<F>(label: &'static str, total: usize, cap: usize, task: F)
where
    F: Fn(usize) + Sync,
{
    if total == 0 {
        return;
    }
    let pool = Pool::global();
    if IN_TASK.with(Cell::get) {
        pool.nested.fetch_add(1, Ordering::Relaxed);
    }
    let _region_span = desc_telemetry::span("region", label);
    let cap = cap.max(1).min(total);
    if cap > 1 {
        pool.ensure_workers();
    }
    if cap == 1 || pool.spawned.load(Ordering::Relaxed) == 0 {
        pool.inline.fetch_add(total as u64, Ordering::Relaxed);
        pool.executed.fetch_add(total as u64, Ordering::Relaxed);
        let _in_task = FlagGuard::enter(&IN_TASK);
        let timer = TaskTimer::start(label);
        for i in 0..total {
            check_cancelled();
            TaskTimer::time(timer.as_ref(), || task(i));
        }
        return;
    }

    /// # Safety
    ///
    /// `env` must point at a live `F`.
    unsafe fn call<F: Fn(usize) + Sync>(env: *const (), i: usize) {
        // SAFETY: `env` is the `task` on the submitting caller's stack,
        // alive until its `wait_done` returns (Region invariant).
        unsafe { (*env.cast::<F>())(i) }
    }

    let region =
        Arc::new(Region::new(call::<F>, std::ptr::from_ref(&task).cast(), total, cap, label));
    pool.submit(Arc::clone(&region));
    let mine = region.execute_until_empty();
    region.exit();
    // Our departure frees cap headroom; wake scanners.
    pool.work.notify_all();
    region.wait_done();
    pool.retire(&region);
    pool.regions.fetch_add(1, Ordering::Relaxed);
    pool.executed.fetch_add(total as u64, Ordering::Relaxed);
    pool.helped.fetch_add(mine, Ordering::Relaxed);
    pool.stolen.fetch_add(total as u64 - mine, Ordering::Relaxed);
    if let Some(payload) = region.take_panic() {
        resume_unwind(payload);
    }
}

/// Runs `f(0)..f(total-1)` with at most `cap` tasks in flight at once
/// (the caller included) and returns the results in index order —
/// bit-identical to the serial loop for any pool size or schedule.
///
/// `label` names the region family on the execution timeline: it
/// becomes a `region` span on the submitting thread and keys the
/// per-label queue-wait / run-time distributions that [`utilization`]
/// reports (the DESC layers use `"cells"` for sweep cells and
/// `"parts"` for bank partitions). Labels are `'static`
/// so the hot path never hashes or allocates for attribution.
///
/// If any task panics, remaining unclaimed tasks are cancelled and the
/// first panic is re-raised on the calling thread after every in-flight
/// task has finished.
///
/// May be called from inside another region's task (nested
/// fork-join); see the crate docs for why this cannot deadlock.
pub fn run_labeled<T, F>(label: &'static str, total: usize, cap: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Slot<T>> = Vec::new();
    slots.resize_with(total, Slot::new);
    // SAFETY: `drive` runs each index exactly once, so every slot has
    // one writer.
    drive(label, total, cap, |i| unsafe { slots[i].write(f(i)) });
    slots.into_iter().map(|mut s| s.take().expect("completed region left an empty slot")).collect()
}

/// Runs `f(i, &mut states[i])` for every index with at most `cap`
/// tasks in flight, in place — the mutable-state twin of
/// [`run_labeled`] used for buffers that persist across repeated
/// passes (e.g. the timing fixed-point). Panic, determinism, and
/// timeline-attribution semantics match [`run_labeled`].
pub fn run_mut_labeled<S, F>(label: &'static str, states: &mut [S], cap: usize, f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let total = states.len();
    let base = StatesPtr(states.as_mut_ptr());
    // SAFETY: `drive` runs each index in `0..total` exactly once and
    // returns before the `states` borrow ends, so `base.at(i)` is the
    // only reference to `states[i]` while it lives.
    drive(label, total, cap, |i| f(i, unsafe { base.at(i) }));
}

/// The base of a [`run_mut_labeled`] slice, shared with every thread
/// that drains the region.
struct StatesPtr<S>(*mut S);

// SAFETY: tasks only form disjoint `&mut` into the slice, one per
// index, and `S: Send` lets each of them move to another thread.
unsafe impl<S: Send> Sync for StatesPtr<S> {}

impl<S> StatesPtr<S> {
    /// # Safety
    ///
    /// `i` must be in bounds of the slice, and no other reference to
    /// element `i` may be live while the returned one is.
    unsafe fn at<'a>(&self, i: usize) -> &'a mut S {
        // SAFETY: upheld by the caller.
        unsafe { &mut *self.0.add(i) }
    }
}

/// One result cell, written at most once by whichever thread claims
/// its index. This is the lock-free replacement for the old
/// per-partition `Mutex<&mut Option<T>>` pattern: disjoint indices
/// need no mutual exclusion, only a happens-before edge, which the
/// region's `done` counter provides.
struct Slot<T> {
    written: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: a slot is written by exactly one claimant and read only by
// the submitting caller after the region's Release/Acquire completion
// handshake.
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot { written: AtomicBool::new(false), value: UnsafeCell::new(MaybeUninit::uninit()) }
    }

    /// # Safety
    /// Must be called at most once per slot, from the unique claimant
    /// of its index.
    unsafe fn write(&self, value: T) {
        unsafe { (*self.value.get()).write(value) };
        self.written.store(true, Ordering::Release);
    }

    fn take(&mut self) -> Option<T> {
        if *self.written.get_mut() {
            *self.written.get_mut() = false;
            // SAFETY: the flag says the value was initialised, and
            // clearing it transfers ownership to us.
            Some(unsafe { (*self.value.get()).assume_init_read() })
        } else {
            None
        }
    }
}

impl<T> Drop for Slot<T> {
    fn drop(&mut self) {
        if *self.written.get_mut() {
            // SAFETY: initialised and never taken (cancelled region).
            unsafe { (*self.value.get()).assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current_cancel() -> Option<CancelToken> {
        INSTALLED.with(|c| c.borrow().0.clone())
    }

    #[test]
    fn results_arrive_in_index_order_for_any_cap() {
        configure(4);
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for cap in [1, 2, 3, 8, 64, 200] {
            assert_eq!(run_labeled("region", 100, cap, |i| i * i), expect, "cap={cap}");
        }
    }

    #[test]
    fn zero_and_single_task_regions() {
        configure(4);
        assert!(run_labeled("region", 0, 8, |i| i).is_empty());
        assert_eq!(run_labeled("region", 1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_regions_complete_and_stay_deterministic() {
        configure(4);
        let expect: Vec<usize> =
            (0..6).map(|c| (0..12).map(|p| c * 100 + p).sum::<usize>()).collect();
        for _ in 0..20 {
            let got = run_labeled("region", 6, 4, |c| {
                run_labeled("region", 12, 3, |p| c * 100 + p).into_iter().sum::<usize>()
            });
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn run_mut_updates_every_state_in_place() {
        configure(4);
        for cap in [1, 2, 8] {
            let mut states: Vec<u64> = (0..50).collect();
            run_mut_labeled("region", &mut states, cap, |i, s| *s += i as u64 * 10);
            let expect: Vec<u64> = (0..50).map(|i| i + i * 10).collect();
            assert_eq!(states, expect, "cap={cap}");
        }
    }

    #[test]
    fn task_panic_propagates_to_caller_and_pool_survives() {
        configure(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_labeled("region", 64, 4, |i| {
                if i == 17 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err(), "panic must reach the submitting caller");
        // The pool must not be wedged by the cancelled region.
        let expect: Vec<usize> = (0..32).map(|i| i * 3).collect();
        assert_eq!(run_labeled("region", 32, 4, |i| i * 3), expect);
    }

    #[test]
    fn stats_count_tasks() {
        configure(2);
        let before = stats();
        let _ = run_labeled("region", 10, 1, |i| i); // cap 1 -> inline path
        let _ = run_labeled("region", 10, 4, |i| i);
        let after = stats();
        assert!(after.tasks_executed >= before.tasks_executed + 20);
        assert!(after.tasks_inline >= before.tasks_inline + 10);
        assert!(after.workers >= 1);
    }

    #[test]
    fn nested_regions_are_counted() {
        configure(2);
        let before = stats().regions_nested;
        // 4 outer tasks, each submitting one inner region (the inner
        // cap of 1 keeps it on the inline path — still a region).
        let _ =
            run_labeled("region", 4, 2, |c| run_labeled("region", 3, 1, move |p| c * 10 + p).len());
        let after = stats().regions_nested;
        assert!(after >= before + 4, "nested submissions: {before} -> {after}");
    }

    /// One test (not two) because `set_enabled` is process-global and
    /// the harness runs tests concurrently: the disabled-path check
    /// must not race a sibling that turns telemetry on.
    #[test]
    fn utilization_follows_the_telemetry_switch() {
        configure(2);

        // Disabled: a labeled run leaves no timing trace at all.
        desc_telemetry::set_enabled(false);
        let _ = run_labeled("test-dark", 16, 2, |i| i);
        let util = utilization();
        assert!(util.regions.iter().all(|r| r.label != "test-dark"));

        // Enabled: tasks, run time, buckets, and worker busy time all
        // land under the region's label.
        desc_telemetry::set_enabled(true);
        let _ = run_labeled("test-util", 8, 2, |i| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            i
        });
        desc_telemetry::set_enabled(false);
        let util = utilization();
        assert!(util.elapsed_us > 0);
        let region = util
            .regions
            .iter()
            .find(|r| r.label == "test-util")
            .expect("labeled region appears in utilization");
        assert_eq!(region.tasks, 8);
        assert!(region.run_us_sum > 0, "sleeping tasks must accrue run time");
        assert!(!region.run_us_buckets.is_empty());
        let busy: u64 = util.workers.iter().map(|w| w.busy_us).sum();
        let worked: u64 = util.workers.iter().map(|w| w.tasks).sum();
        assert!(busy >= region.run_us_sum, "worker busy time covers the region");
        assert!(worked >= 8);

        // Nested: a task's inline sub-region runs inside its busy
        // time, so this thread's busy time grows by no more than the
        // wall time that passed.
        desc_telemetry::set_enabled(true);
        let me = desc_telemetry::current_worker();
        let busy_of = |util: &desc_telemetry::PoolUtilization| {
            util.workers.iter().find(|w| w.worker == me).map_or(0, |w| w.busy_us)
        };
        let before = utilization();
        let _ = run_labeled("test-outer", 2, 1, |_| {
            run_labeled("test-inner", 3, 1, |i| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                i
            })
        });
        desc_telemetry::set_enabled(false);
        let after = utilization();
        let busy = busy_of(&after) - busy_of(&before);
        let wall = after.elapsed_us - before.elapsed_us;
        assert!(busy >= 60_000, "the outer tasks slept 60 ms: busy {busy} µs");
        assert!(busy <= wall, "busy {busy} µs over {wall} µs of wall time");
    }

    #[test]
    fn group_service_is_charged_per_claim() {
        configure(2);
        let group = Group::new("charged", 2);
        let before_vtime = group.vtime();
        let guard = install_group(Some(group.clone()));
        let _ = run_labeled("region", 10, 2, |i| i);
        drop(guard);
        assert_eq!(group.tasks(), 10);
        // Weight 2 => half a weight-1 charge per task; the submit-time
        // floor clamp can only raise vtime further.
        assert!(group.vtime() >= before_vtime + 10 * (WEIGHT_SCALE / 2), "{}", group.vtime());
        assert_eq!(group.name(), "charged");
        assert_eq!(group.weight(), 2);
    }

    #[test]
    fn freshly_submitted_group_inherits_the_service_floor() {
        configure(2);
        let holder_group = Group::new("floor-holder", 1);
        let release = Arc::new(AtomicBool::new(false));
        let holder = {
            let group = holder_group.clone();
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let _g = install_group(Some(group));
                run_labeled("region", 4, 2, move |_| {
                    while !release.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            })
        };
        // Wait until the holder's region has been charged for at
        // least one claim, so the floor is provably nonzero.
        while holder_group.vtime() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let floor = holder_group.vtime();
        let fresh = Group::new("floor-fresh", 1);
        {
            let fresh = fresh.clone();
            std::thread::spawn(move || {
                let _g = install_group(Some(fresh));
                let _ = run_labeled("region", 2, 2, |i| i);
            })
            .join()
            .unwrap();
        }
        release.store(true, Ordering::Relaxed);
        holder.join().unwrap();
        assert!(
            fresh.vtime() >= floor,
            "fresh group must not undercut active groups: {} < {floor}",
            fresh.vtime()
        );
    }

    #[test]
    fn small_region_completes_while_a_large_sweep_is_in_flight() {
        configure(4);
        let sweep_started = Arc::new(AtomicBool::new(false));
        let sweep = {
            let started = Arc::clone(&sweep_started);
            std::thread::spawn(move || {
                let _g = install_group(Some(Group::new("sweep", 1)));
                run_labeled("region", 300, 4, move |_| {
                    started.store(true, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                });
            })
        };
        while !sweep_started.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The sweep has hundreds of milliseconds of work left; a
        // one-cell request in its own group must not wait for it.
        let _g = install_group(Some(Group::new("ping", 1)));
        let started = Instant::now();
        assert_eq!(run_labeled("region", 2, 2, |i| i * 7), vec![0, 7]);
        let elapsed = started.elapsed();
        sweep.join().unwrap();
        assert!(
            elapsed < Duration::from_millis(200),
            "small region waited behind the sweep: {elapsed:?}"
        );
    }

    /// Unwraps a caught panic payload as a [`Cancelled`] marker.
    fn assert_cancelled(payload: Box<dyn std::any::Any + Send>) {
        assert!(
            payload.downcast_ref::<Cancelled>().is_some(),
            "expected a Cancelled payload, got something else"
        );
    }

    #[test]
    fn expired_deadline_cancels_a_pooled_region() {
        configure(2);
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        let guard = install_cancel(Some(token));
        let ran = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let ran = Arc::clone(&ran);
            run_labeled("region", 64, 2, move |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        }));
        drop(guard);
        assert_cancelled(result.expect_err("expired deadline must unwind"));
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "no task may start after the deadline passed"
        );
        // The pool must stay healthy for subsequent regions.
        let values = run_labeled("region", 8, 2, |i| i * 2);
        assert_eq!(values, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_cancel_stops_remaining_tasks_midway() {
        configure(2);
        let token = CancelToken::new();
        let _guard = install_cancel(Some(token.clone()));
        let ran = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let ran = Arc::clone(&ran);
            let token = token.clone();
            run_labeled("region", 256, 2, move |i| {
                if i == 0 {
                    token.cancel();
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert_cancelled(result.expect_err("cancelled region must unwind"));
        let done = ran.load(Ordering::Relaxed);
        assert!(done < 256, "cancellation must skip some of the 256 tasks (ran {done})");
    }

    #[test]
    fn inline_path_honours_the_installed_token() {
        // cap == 1 forces the inline fast path regardless of workers.
        let token = CancelToken::new();
        token.cancel();
        let _guard = install_cancel(Some(token));
        let result = catch_unwind(AssertUnwindSafe(|| run_labeled("region", 4, 1, |i| i)));
        assert_cancelled(result.expect_err("inline run must observe the token"));

        let mut states = [0u64; 4];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_mut_labeled("region", &mut states, 1, |_, s| *s += 1);
        }));
        assert_cancelled(result.expect_err("inline run_mut must observe the token"));
    }

    #[test]
    fn uncancelled_token_is_transparent_and_guard_restores() {
        let outer = CancelToken::new();
        let _outer_guard = install_cancel(Some(outer.clone()));
        {
            let inner = CancelToken::new();
            let _inner_guard = install_cancel(Some(inner));
            let values = run_labeled("region", 8, 1, |i| i + 1);
            assert_eq!(values.len(), 8);
        }
        // Inner guard dropped: the outer token is installed again.
        let current = current_cancel().expect("outer token restored");
        outer.cancel();
        assert!(current.is_cancelled(), "restored handle shares the outer state");
    }
}
