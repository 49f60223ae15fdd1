//! The two-tier cell-result store: a bounded in-memory hot tier in
//! front of an on-disk, content-addressed store of record, with a
//! single-flight registry so concurrent callers compute each cold
//! cell exactly once.
//!
//! - **Hot tier**: an LRU map under one mutex, bounded by a byte
//!   budget (`DESC_CACHE_MEM_BYTES`, default 4 MiB). Every disk hit
//!   and every store populates it, so overlapping figures in one
//!   process (fig16/fig22/fig25 sweep the same grid) pay the disk
//!   once per cell; a long-lived server evicts least-recently-used
//!   entries instead of growing without bound. Evictions never touch
//!   the store of record — an evicted cell re-reads from disk.
//! - **Store of record**: one file per cell at
//!   `<dir>/objects/<first 2 hex>/<32 hex>.cell`, written atomically
//!   (temp + rename) in the versioned, checksummed entry format of
//!   [`crate::codec`]. The object directory is the store's only
//!   record: lookups *probe* the filesystem, so any number of
//!   processes can share one directory and the store self-heals —
//!   deleting any object just makes that cell recompute.
//! - **Single flight**: [`CacheStore::begin_flight`] registers a cold
//!   cell as in flight; the first caller leads and computes while
//!   later callers wait on the leader's slot and receive the
//!   identical published [`Arc<Entry>`] ([`FlightOutcome::Shared`]).
//!   A leader that unwinds (panic or cancellation) hands leadership
//!   to a waiting follower instead of wedging the key.
//!
//! Every outcome is counted in the store's own atomics
//! ([`CacheStats`]), rendered only into the `cache` stanza of
//! `desc-run-report/v1` ([`CacheStore::report`]) and
//! `bench_pipeline`'s cache axis — never into the metric registry, so
//! a report's `metrics` block is identical cold or warm.
//!
//! A lookup never returns a wrong or stale result class: entries are
//! validated (checksum, version, key echo) at decode time, and a
//! version-mismatched or corrupt entry is counted and treated as a
//! miss — the cell recomputes and the entry is overwritten. A flight
//! slot only ever resolves to a fully published entry (or to nothing,
//! on handoff): followers can never observe a partial result.

use crate::codec::{decode_entry, encode_entry, CodecError, Entry};
use crate::hash::CellKey;
use desc_telemetry::{CacheReport, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Hot-tier byte budget when `DESC_CACHE_MEM_BYTES` is unset. Cells
/// are a few KiB, so this holds a whole `repro --quick all` store
/// (about 1.3 MB for 404 cells) and keeps its in-run repeats memory
/// hits, while a long-lived server's resident set stays small: past
/// it a cell costs one disk read, about what a hot hit costs.
pub const DEFAULT_MEM_BYTES: u64 = 4 * 1024 * 1024;

/// How long a single-flight follower sleeps between checks of the
/// leader's slot (and calls to its cancellation poll). Bounded so a
/// follower with a deadline never oversleeps it by much.
const FLIGHT_WAIT_TICK: Duration = Duration::from_millis(10);

/// Point-in-time store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory hot map.
    pub hits_memory: u64,
    /// Lookups served from the on-disk store of record.
    pub hits_disk: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Structurally sound entries skipped for carrying a different
    /// cell-schema version.
    pub version_mismatches: u64,
    /// Corrupt/unreadable entries and failed writes (all non-fatal).
    pub errors: u64,
    /// Hot-tier entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Flights led: cold cells this store handed to a caller to
    /// compute (exactly one per concurrently demanded cold cell).
    pub inflight_leads: u64,
    /// Callers that found their cell already in flight and waited on
    /// the leader's slot instead of computing.
    pub inflight_waits: u64,
    /// Waits that ended with the leader's published entry (the dedup
    /// win: each is a cell compute that did not happen).
    pub inflight_hits: u64,
    /// Leadership handoffs: a leader unwound without publishing and a
    /// waiting follower took over (or re-queued behind a new leader).
    pub inflight_handoffs: u64,
}

impl CacheStats {
    /// Total hits across both tiers.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits_memory + self.hits_disk
    }
}

#[derive(Debug, Default)]
struct StatCells {
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    version_mismatches: AtomicU64,
    errors: AtomicU64,
    evictions: AtomicU64,
    inflight_leads: AtomicU64,
    inflight_waits: AtomicU64,
    inflight_hits: AtomicU64,
    inflight_handoffs: AtomicU64,
}

/// The bounded LRU hot tier. Recency is a monotonic clock stamp per
/// slot plus a `stamp -> key` index, so touch/evict are `O(log n)`
/// without unsafe pointer links (this crate forbids unsafe code).
#[derive(Debug)]
struct HotTier {
    map: HashMap<CellKey, HotSlot>,
    order: BTreeMap<u64, CellKey>,
    clock: u64,
    bytes: u64,
    budget: u64,
}

#[derive(Debug)]
struct HotSlot {
    entry: Arc<Entry>,
    stamp: u64,
    cost: u64,
}

impl HotTier {
    fn new(budget: u64) -> Self {
        Self { map: HashMap::new(), order: BTreeMap::new(), clock: 0, bytes: 0, budget }
    }

    /// Fetches and marks `key` most recently used.
    fn get(&mut self, key: &CellKey) -> Option<Arc<Entry>> {
        let stamp = self.next_stamp();
        let slot = self.map.get_mut(key)?;
        self.order.remove(&slot.stamp);
        slot.stamp = stamp;
        self.order.insert(stamp, *key);
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until back under budget. The entry just inserted is
    /// never evicted — a cell must be reachable at least until the
    /// next insert, whatever the budget. Returns the eviction count.
    fn insert(&mut self, key: CellKey, entry: Arc<Entry>) -> u64 {
        self.remove(&key);
        let stamp = self.next_stamp();
        let cost = entry.approx_bytes();
        self.bytes += cost;
        self.map.insert(key, HotSlot { entry, stamp, cost });
        self.order.insert(stamp, key);
        let mut evicted = 0;
        while self.bytes > self.budget {
            let (&oldest, &victim) = self.order.iter().next().expect("order tracks map");
            if victim == key {
                break;
            }
            self.order.remove(&oldest);
            let slot = self.map.remove(&victim).expect("map tracks order");
            self.bytes -= slot.cost;
            evicted += 1;
        }
        evicted
    }

    fn remove(&mut self, key: &CellKey) {
        if let Some(slot) = self.map.remove(key) {
            self.order.remove(&slot.stamp);
            self.bytes -= slot.cost;
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// One in-flight cold cell: the leader publishes (or abandons) into
/// `state` and wakes waiting followers.
#[derive(Debug, Default)]
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct FlightState {
    done: bool,
    /// `Some` after a publish, `None` after the leader abandoned the
    /// flight (unwound without publishing).
    entry: Option<Arc<Entry>>,
}

impl Flight {
    fn resolve(&self, entry: Option<Arc<Entry>>) {
        // `into_inner` over poisoning: resolution happens on drop
        // paths during unwinds, and a waiter must still be woken.
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.done = true;
        state.entry = entry;
        self.cv.notify_all();
    }

    /// One bounded wait tick. `Some(resolution)` once the flight is
    /// resolved; `None` means "still computing, poll and re-wait".
    fn poll_done(&self, tick: Duration) -> Option<Option<Arc<Entry>>> {
        let state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.done {
            return Some(state.entry.clone());
        }
        let (state, _) = self
            .cv
            .wait_timeout(state, tick)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.done.then(|| state.entry.clone())
    }
}

/// What [`CacheStore::begin_flight`] resolved a cell demand into.
#[derive(Debug)]
pub enum FlightOutcome<'a> {
    /// The store already had a usable entry (hot or disk hit).
    Ready(Arc<Entry>),
    /// Another caller was computing this cell; this is the identical
    /// entry it published. Each `Shared` is one deduplicated compute.
    Shared(Arc<Entry>),
    /// This caller leads: compute the cell and
    /// [`publish`](FlightLease::publish) it through the lease.
    Lead(FlightLease<'a>),
}

/// Leadership of one in-flight cell. [`publish`](Self::publish) stores
/// the result and releases waiting followers with it; dropping the
/// lease without publishing (panic, cancellation, early return) wakes
/// followers empty-handed so one of them takes over — a crashed leader
/// can never wedge a key.
#[derive(Debug)]
pub struct FlightLease<'a> {
    store: &'a CacheStore,
    key: CellKey,
    /// `None` when single-flight is disabled: the lease then degrades
    /// to a plain [`CacheStore::store`] on publish.
    flight: Option<Arc<Flight>>,
    published: bool,
}

impl FlightLease<'_> {
    /// The cell this lease leads.
    #[must_use]
    pub fn key(&self) -> &CellKey {
        &self.key
    }

    /// Publishes the computed cell: stores it (hot tier and store of
    /// record first, so fresh lookups hit before the flight is
    /// retired), then hands the identical entry to every waiting
    /// follower.
    pub fn publish(mut self, payload: Vec<u8>, delta: Option<Snapshot>) -> Arc<Entry> {
        let entry = self.store.store_entry(&self.key, payload, delta);
        self.published = true;
        if let Some(flight) = self.flight.take() {
            self.store.retire_flight(&self.key, &flight);
            flight.resolve(Some(Arc::clone(&entry)));
        }
        entry
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        if let Some(flight) = self.flight.take() {
            // Retire before resolving: by the time a follower wakes to
            // retry, the dead flight is gone and the first retrier
            // re-leads under a fresh slot.
            self.store.retire_flight(&self.key, &flight);
            flight.resolve(None);
        }
    }
}

/// The two-tier content-addressed cell store. Cheap to share
/// (`Arc<CacheStore>`); all methods take `&self`.
#[derive(Debug)]
pub struct CacheStore {
    dir: Option<PathBuf>,
    version: u32,
    hot: Mutex<HotTier>,
    inflight: Mutex<HashMap<CellKey, Arc<Flight>>>,
    single_flight: AtomicBool,
    stats: StatCells,
}

/// Hot-tier byte budget: `DESC_CACHE_MEM_BYTES` when set to a
/// positive integer, [`DEFAULT_MEM_BYTES`] otherwise.
fn mem_budget_from_env() -> u64 {
    std::env::var("DESC_CACHE_MEM_BYTES")
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .filter(|&bytes| bytes > 0)
        .unwrap_or(DEFAULT_MEM_BYTES)
}

impl CacheStore {
    /// A memory-only store (hot tier without a store of record) —
    /// used by in-process warm/cold tests and available to embedders
    /// that only want intra-process dedup.
    #[must_use]
    pub fn in_memory(version: u32) -> Self {
        Self {
            dir: None,
            version,
            hot: Mutex::new(HotTier::new(mem_budget_from_env())),
            inflight: Mutex::new(HashMap::new()),
            single_flight: AtomicBool::new(true),
            stats: StatCells::default(),
        }
    }

    /// Replaces the hot tier's byte budget (tests and benches; the
    /// production budget comes from `DESC_CACHE_MEM_BYTES`).
    #[must_use]
    pub fn with_mem_budget(self, bytes: u64) -> Self {
        self.hot.lock().expect("hot tier poisoned").budget = bytes;
        self
    }

    /// Enables/disables single-flight dedup (enabled by default).
    /// With it off, [`Self::begin_flight`] still works but every
    /// cold caller leads — the `bench_pipeline` contention baseline.
    pub fn set_single_flight(&self, enabled: bool) {
        self.single_flight.store(enabled, Ordering::Relaxed);
    }

    /// Opens (creating as needed) the on-disk store at `dir`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or written (probed
    /// with an atomic write) — the conditions `repro` maps to its
    /// cache exit code. Nothing else in the directory is read: a
    /// `manifest` file left by an older binary is ignored.
    pub fn open(dir: impl Into<PathBuf>, version: u32) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("objects"))?;
        // Probe writability up front so a read-only directory fails
        // loudly at startup instead of degrading every store. The
        // probe name is per call, so concurrent opens of one
        // directory never remove each other's probe.
        let probe = dir.join(format!(".probe.{}", unique_suffix()));
        write_atomic(&probe, b"desc-cache")?;
        std::fs::remove_file(&probe)?;
        Ok(Self {
            dir: Some(dir),
            version,
            hot: Mutex::new(HotTier::new(mem_budget_from_env())),
            inflight: Mutex::new(HashMap::new()),
            single_flight: AtomicBool::new(true),
            stats: StatCells::default(),
        })
    }

    /// The backing directory, when this store has one.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The cell-schema version this store serves.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    fn object_path(&self, dir: &Path, key: &CellKey) -> PathBuf {
        let hex = key.hex();
        dir.join("objects").join(&hex[..2]).join(format!("{hex}.cell"))
    }

    /// Looks up `key`: hot map first, then a disk probe. With
    /// `require_delta`, an entry without a captured metric delta is
    /// treated as a miss (a telemetry-enabled run must be able to
    /// replay the cell's metrics; recomputing overwrites the entry
    /// with one that has them).
    pub fn lookup(&self, key: &CellKey, require_delta: bool) -> Option<Arc<Entry>> {
        let usable = |e: &Entry| !require_delta || e.delta.is_some();
        if let Some(entry) = self.hot.lock().expect("hot tier poisoned").get(key) {
            if usable(&entry) {
                self.bump(&self.stats.hits_memory);
                return Some(entry);
            }
            self.bump(&self.stats.misses);
            return None;
        }
        let Some(dir) = &self.dir else {
            self.bump(&self.stats.misses);
            return None;
        };
        let path = self.object_path(dir, key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                if e.kind() != std::io::ErrorKind::NotFound {
                    self.bump(&self.stats.errors);
                }
                self.bump(&self.stats.misses);
                return None;
            }
        };
        match decode_entry(&bytes, self.version, key) {
            Ok(entry) if usable(&entry) => {
                let entry = Arc::new(entry);
                let evicted =
                    self.hot.lock().expect("hot tier poisoned").insert(*key, Arc::clone(&entry));
                self.bump_by(&self.stats.evictions, evicted);
                self.bump(&self.stats.hits_disk);
                Some(entry)
            }
            Ok(_) => {
                self.bump(&self.stats.misses);
                None
            }
            Err(CodecError::Version { .. }) => {
                self.bump(&self.stats.version_mismatches);
                self.bump(&self.stats.misses);
                None
            }
            Err(_) => {
                self.bump(&self.stats.errors);
                self.bump(&self.stats.misses);
                None
            }
        }
    }

    /// Reports that an entry returned by [`CacheStore::lookup`] had an
    /// undecodable payload (caller-level codec disagreement). Evicts
    /// it from the hot tier *and* deletes the on-disk object, so the
    /// next lookup is a genuine miss and the recompute's
    /// [`CacheStore::store`] is what future lookups see — without the
    /// deletion, a disk-backed store would keep re-serving the same
    /// entry-level-valid but app-undecodable object forever.
    pub fn note_corrupt(&self, key: &CellKey) {
        self.hot.lock().expect("hot tier poisoned").remove(key);
        if let Some(dir) = &self.dir {
            let removed = std::fs::remove_file(self.object_path(dir, key));
            if let Err(e) = removed {
                if e.kind() != std::io::ErrorKind::NotFound {
                    self.bump(&self.stats.errors);
                }
            }
        }
        self.bump(&self.stats.errors);
    }

    /// Stores a computed cell under `key` (hot map immediately; object
    /// file atomically). Write failures are counted, never raised — a
    /// broken disk degrades the cache to memory-only behavior rather
    /// than failing the run.
    pub fn store(&self, key: &CellKey, payload: Vec<u8>, delta: Option<Snapshot>) {
        let _ = self.store_entry(key, payload, delta);
    }

    fn store_entry(&self, key: &CellKey, payload: Vec<u8>, delta: Option<Snapshot>) -> Arc<Entry> {
        let entry = Arc::new(Entry { payload, delta });
        let evicted = self.hot.lock().expect("hot tier poisoned").insert(*key, Arc::clone(&entry));
        self.bump_by(&self.stats.evictions, evicted);
        self.bump(&self.stats.stores);
        let Some(dir) = &self.dir else { return entry };
        let bytes = encode_entry(self.version, key, &entry.payload, entry.delta.as_ref());
        let path = self.object_path(dir, key);
        let written = path
            .parent()
            .map(std::fs::create_dir_all)
            .unwrap_or(Ok(()))
            .and_then(|()| write_atomic(&path, &bytes));
        if written.is_err() {
            self.bump(&self.stats.errors);
        }
        entry
    }

    /// Resolves a demand for `key` into a hit, a shared in-flight
    /// result, or leadership of the compute — the single-flight entry
    /// point (see the module docs).
    ///
    /// `poll` runs between bounded wait ticks while this caller waits
    /// on another's flight, with no store locks held; it may unwind
    /// (e.g. a cancellation check) to abandon the wait. Leaders'
    /// `poll` is never called.
    ///
    /// With `require_delta`, a published entry without a metric delta
    /// does not satisfy a waiting follower — it loops and recomputes,
    /// exactly as [`Self::lookup`] treats such entries as misses.
    pub fn begin_flight(
        &self,
        key: &CellKey,
        require_delta: bool,
        poll: &mut dyn FnMut(),
    ) -> FlightOutcome<'_> {
        loop {
            if let Some(entry) = self.lookup(key, require_delta) {
                return FlightOutcome::Ready(entry);
            }
            if !self.single_flight.load(Ordering::Relaxed) {
                // Dedup off: every cold caller leads, nobody waits.
                return FlightOutcome::Lead(FlightLease {
                    store: self,
                    key: *key,
                    flight: None,
                    published: false,
                });
            }
            let flight = {
                let mut inflight = self.inflight.lock().expect("inflight registry poisoned");
                match inflight.get(key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::default());
                        inflight.insert(*key, Arc::clone(&flight));
                        self.bump(&self.stats.inflight_leads);
                        return FlightOutcome::Lead(FlightLease {
                            store: self,
                            key: *key,
                            flight: Some(flight),
                            published: false,
                        });
                    }
                }
            };
            self.bump(&self.stats.inflight_waits);
            loop {
                match flight.poll_done(FLIGHT_WAIT_TICK) {
                    Some(Some(entry)) => {
                        if !require_delta || entry.delta.is_some() {
                            self.bump(&self.stats.inflight_hits);
                            return FlightOutcome::Shared(entry);
                        }
                        // The leader published without the delta this
                        // caller needs; recompute (outer loop leads).
                        break;
                    }
                    Some(None) => {
                        // Leader abandoned the flight: retry from the
                        // top — the first retrier re-leads, the rest
                        // queue behind it.
                        self.bump(&self.stats.inflight_handoffs);
                        break;
                    }
                    None => poll(),
                }
            }
        }
    }

    /// Removes `flight` from the registry iff it is still the one
    /// registered under `key` (a successor may already have re-led).
    fn retire_flight(&self, key: &CellKey, flight: &Arc<Flight>) {
        let mut inflight = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inflight.get(key).is_some_and(|current| Arc::ptr_eq(current, flight)) {
            inflight.remove(key);
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits_memory: self.stats.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.stats.hits_disk.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            stores: self.stats.stores.load(Ordering::Relaxed),
            version_mismatches: self.stats.version_mismatches.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            inflight_leads: self.stats.inflight_leads.load(Ordering::Relaxed),
            inflight_waits: self.stats.inflight_waits.load(Ordering::Relaxed),
            inflight_hits: self.stats.inflight_hits.load(Ordering::Relaxed),
            inflight_handoffs: self.stats.inflight_handoffs.load(Ordering::Relaxed),
        }
    }

    /// The `cache` stanza of a run report: this store's directory,
    /// schema version and counters.
    #[must_use]
    pub fn report(&self) -> CacheReport {
        let s = self.stats();
        CacheReport {
            dir: self.dir().map(|p| p.display().to_string()),
            schema_version: u64::from(self.version),
            hits_memory: s.hits_memory,
            hits_disk: s.hits_disk,
            misses: s.misses,
            stores: s.stores,
            version_mismatches: s.version_mismatches,
            errors: s.errors,
            evictions: s.evictions,
            inflight_leads: s.inflight_leads,
            inflight_waits: s.inflight_waits,
            inflight_hits: s.inflight_hits,
            inflight_handoffs: s.inflight_handoffs,
        }
    }

    /// Cell objects in the store of record: a count of the `*.cell`
    /// files under `objects/`, so it sees every process's writes to a
    /// shared directory (0 for memory-only stores). It walks the
    /// directory on each call. The name is from the completion log the
    /// object count replaced; it stays because `perfbench` calls it.
    #[must_use]
    pub fn manifest_cells(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        let Ok(shards) = std::fs::read_dir(dir.join("objects")) else { return 0 };
        let objects = shards
            .flatten()
            .filter_map(|shard| std::fs::read_dir(shard.path()).ok())
            .flat_map(|files| files.flatten())
            .filter(|f| f.path().extension().is_some_and(|ext| ext == "cell"))
            .count();
        objects as u64
    }

    fn bump(&self, cell: &AtomicU64) {
        self.bump_by(cell, 1);
    }

    fn bump_by(&self, cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// A file-name suffix no other call in any live process returns: the
/// process id plus a process-wide sequence number.
fn unique_suffix() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!("{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed))
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory (same filesystem, so the rename cannot cross devices),
/// then rename over the target. A crash at any point leaves either
/// the old file or the new one, never a torn mix. Each call writes
/// its own temp file, so concurrent writers of one path all succeed
/// and the last rename wins.
///
/// # Errors
///
/// Propagates create/write/rename failures; the temp file is removed
/// on a failed rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let stem = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let tmp = dir.join(format!(".{stem}.tmp.{}", unique_suffix()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Contents reach the disk before the rename publishes them.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CellKey {
        CellKey { hi: n.wrapping_mul(0x9e37_79b9_7f4a_7c15), lo: n }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("desc-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_round_trip_and_stats() {
        let store = CacheStore::in_memory(1);
        assert!(store.lookup(&key(1), false).is_none());
        store.store(&key(1), vec![1, 2, 3], None);
        let hit = store.lookup(&key(1), false).expect("hot hit");
        assert_eq!(hit.payload, vec![1, 2, 3]);
        // An entry without a delta is unusable when one is required.
        assert!(store.lookup(&key(1), true).is_none());
        let stats = store.stats();
        assert_eq!(
            (stats.hits_memory, stats.misses, stats.stores),
            (1, 2, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn disk_store_survives_reopen_like_a_new_process() {
        let dir = tmp_dir("reopen");
        {
            let store = CacheStore::open(&dir, 1).unwrap();
            store.store(&key(7), b"result".to_vec(), None);
            assert_eq!(store.manifest_cells(), 1);
        }
        let store = CacheStore::open(&dir, 1).unwrap();
        let hit = store.lookup(&key(7), false).expect("disk hit");
        assert_eq!(hit.payload, b"result");
        assert_eq!(store.stats().hits_disk, 1);
        // Second lookup is served hot.
        store.lookup(&key(7), false).unwrap();
        assert_eq!(store.stats().hits_memory, 1);
        assert_eq!(store.manifest_cells(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stores_sharing_a_directory_count_every_cell() {
        let dir = tmp_dir("shared");
        // Two stores on one directory, as `repro` and `serve` share one.
        let a = CacheStore::open(&dir, 1).unwrap();
        let b = CacheStore::open(&dir, 1).unwrap();
        a.store(&key(1), vec![1], None);
        b.store(&key(2), vec![2], None);
        a.store(&key(3), vec![3], None);
        b.store(&key(1), vec![1], None); // re-stored: still one cell
        assert_eq!(CacheStore::open(&dir, 1).unwrap().manifest_cells(), 3);

        // A torn temp object is not a cell, and a leftover (here
        // garbage) `manifest` from an older binary is neither read nor
        // deleted.
        let shard = dir.join("objects").join("ab");
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(shard.join(".x.cell.tmp.1.2"), b"torn").unwrap();
        std::fs::write(dir.join("manifest"), b"not a manifest line\n").unwrap();
        let reopened = CacheStore::open(&dir, 1).unwrap();
        assert_eq!(reopened.manifest_cells(), 3);
        assert_eq!(reopened.lookup(&key(2), false).unwrap().payload, vec![2]);
        reopened.store(&key(4), vec![4], None);
        assert_eq!(reopened.manifest_cells(), 4);
        assert_eq!(std::fs::read(dir.join("manifest")).unwrap(), b"not a manifest line\n");

        assert_eq!(CacheStore::in_memory(1).manifest_cells(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_bump_invalidates_without_error() {
        let dir = tmp_dir("version");
        CacheStore::open(&dir, 1).unwrap().store(&key(3), vec![9], None);
        let newer = CacheStore::open(&dir, 2).unwrap();
        assert!(newer.lookup(&key(3), false).is_none());
        let stats = newer.stats();
        assert_eq!((stats.version_mismatches, stats.errors, stats.misses), (1, 0, 1));
        // Recompute overwrites under the new version.
        newer.store(&key(3), vec![10], None);
        assert_eq!(
            CacheStore::open(&dir, 2).unwrap().lookup(&key(3), false).unwrap().payload,
            vec![10]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_object_is_a_counted_miss() {
        let dir = tmp_dir("corrupt");
        let store = CacheStore::open(&dir, 1).unwrap();
        store.store(&key(5), vec![1, 2, 3], None);
        let path = store.object_path(store.dir().unwrap(), &key(5));
        // Truncate the object (a state atomic writes cannot produce;
        // simulates external damage).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let fresh = CacheStore::open(&dir, 1).unwrap();
        assert!(fresh.lookup(&key(5), false).is_none());
        let stats = fresh.stats();
        assert_eq!((stats.errors, stats.misses), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn note_corrupt_deletes_the_disk_object_so_lookup_misses() {
        let dir = tmp_dir("notecorrupt");
        let store = CacheStore::open(&dir, 1).unwrap();
        store.store(&key(6), vec![1, 2, 3], None);
        // The entry is entry-level valid; pretend the *application*
        // codec rejected its payload.
        store.note_corrupt(&key(6));
        // Hot tier and disk object are both gone: the next demand is
        // a miss even through a fresh store on the same directory, so
        // a caller can never be fed the same undecodable object again.
        assert!(store.lookup(&key(6), false).is_none());
        assert!(CacheStore::open(&dir, 1).unwrap().lookup(&key(6), false).is_none());
        assert!(store.stats().errors >= 1);
        // Re-reporting an already-deleted object stays non-fatal.
        store.note_corrupt(&key(6));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_round_trips_through_disk() {
        let dir = tmp_dir("delta");
        let delta = Snapshot {
            metrics: vec![(
                "sim.test.counter".to_owned(),
                desc_telemetry::MetricValue::Counter(42),
            )],
        };
        CacheStore::open(&dir, 1).unwrap().store(&key(8), vec![0], Some(delta.clone()));
        let store = CacheStore::open(&dir, 1).unwrap();
        let hit = store.lookup(&key(8), true).expect("delta-bearing hit");
        assert_eq!(hit.delta.as_ref().unwrap().metrics, delta.metrics);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Convenience for tests that never wait: lead or die.
    fn must_lead<'a>(store: &'a CacheStore, k: &CellKey) -> FlightLease<'a> {
        match store.begin_flight(k, false, &mut || {}) {
            FlightOutcome::Lead(lease) => lease,
            other => panic!("expected leadership, got {other:?}"),
        }
    }

    #[test]
    fn flight_leader_publishes_and_follower_shares_the_same_arc() {
        let store = Arc::new(CacheStore::in_memory(1));
        let lease = must_lead(&store, &key(11));
        let follower = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                match store.begin_flight(&key(11), false, &mut || {}) {
                    FlightOutcome::Shared(e) | FlightOutcome::Ready(e) => e,
                    FlightOutcome::Lead(_) => panic!("key already led"),
                }
            })
        };
        // Give the follower time to join the flight (no harm if it
        // instead lands on a hot-map hit after the publish).
        std::thread::sleep(Duration::from_millis(30));
        let published = lease.publish(vec![4, 5, 6], None);
        let shared = follower.join().unwrap();
        assert!(Arc::ptr_eq(&published, &shared) || shared.payload == published.payload);
        let stats = store.stats();
        assert_eq!(stats.inflight_leads, 1, "{stats:?}");
        assert_eq!(stats.stores, 1, "{stats:?}");
    }

    #[test]
    fn abandoned_flight_hands_leadership_to_a_follower() {
        let store = Arc::new(CacheStore::in_memory(1));
        let lease = must_lead(&store, &key(12));
        let follower = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || match store.begin_flight(&key(12), false, &mut || {}) {
                FlightOutcome::Lead(lease) => {
                    lease.publish(vec![9], None);
                }
                other => panic!("follower should inherit leadership, got {other:?}"),
            })
        };
        // Wait until the follower is registered as a waiter, then
        // abandon leadership by dropping the lease unpublished.
        while store.stats().inflight_waits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(lease);
        follower.join().unwrap();
        let stats = store.stats();
        assert_eq!(stats.inflight_handoffs, 1, "{stats:?}");
        assert_eq!(stats.inflight_leads, 2, "{stats:?}");
        assert_eq!(store.lookup(&key(12), false).unwrap().payload, vec![9]);
    }

    #[test]
    fn follower_poll_can_unwind_and_registry_stays_clean() {
        let store = Arc::new(CacheStore::in_memory(1));
        let lease = must_lead(&store, &key(13));
        let follower = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    store.begin_flight(&key(13), false, &mut || panic!("cancelled"))
                }));
            })
        };
        while store.stats().inflight_waits == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        follower.join().unwrap();
        // The leader is unaffected by the follower's unwind and can
        // still publish; the registry slot retires with it.
        lease.publish(vec![7], None);
        assert!(store.inflight.lock().unwrap().is_empty());
        assert_eq!(store.lookup(&key(13), false).unwrap().payload, vec![7]);
    }

    #[test]
    fn single_flight_off_means_every_cold_caller_leads() {
        let store = CacheStore::in_memory(1);
        store.set_single_flight(false);
        let a = must_lead(&store, &key(14));
        let b = must_lead(&store, &key(14));
        a.publish(vec![1], None);
        b.publish(vec![1], None);
        let stats = store.stats();
        assert_eq!((stats.inflight_leads, stats.stores), (0, 2), "{stats:?}");
    }

    #[test]
    fn hot_tier_evicts_lru_under_byte_budget_but_disk_survives() {
        let dir = tmp_dir("lru");
        // Budget fits roughly one entry (payload + fixed overhead).
        let store = CacheStore::open(&dir, 1).unwrap().with_mem_budget(200);
        store.store(&key(1), vec![0u8; 64], None);
        store.store(&key(2), vec![0u8; 64], None);
        let stats = store.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        // key(1) was evicted from the hot tier but re-reads from disk.
        assert_eq!(store.lookup(&key(1), false).unwrap().payload.len(), 64);
        assert!(store.stats().hits_disk >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_entry_is_never_evicted_even_over_budget() {
        let store = CacheStore::in_memory(1).with_mem_budget(1);
        store.store(&key(21), vec![0u8; 4096], None);
        assert!(store.lookup(&key(21), false).is_some(), "newest stays reachable");
        store.store(&key(22), vec![0u8; 4096], None);
        assert!(store.lookup(&key(22), false).is_some());
        // The older one is gone (memory-only store: a true miss).
        assert!(store.lookup(&key(21), false).is_none());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn lru_touch_protects_recently_used_entries() {
        // Each delta-less entry costs 40 (payload) + 96 (overhead)
        // bytes; a 420-byte budget holds three but not four.
        let store = CacheStore::in_memory(1).with_mem_budget(420);
        store.store(&key(31), vec![0u8; 40], None);
        store.store(&key(32), vec![0u8; 40], None);
        store.store(&key(33), vec![0u8; 40], None);
        // Touch 31 so 32 becomes the LRU victim.
        store.lookup(&key(31), false).unwrap();
        store.store(&key(34), vec![0u8; 40], None);
        assert!(store.lookup(&key(31), false).is_some(), "touched entry survives");
        assert!(store.lookup(&key(32), false).is_none(), "LRU entry evicted");
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = tmp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "target")
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_a_file_as_cache_dir() {
        let dir = tmp_dir("notadir");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain-file");
        std::fs::write(&file, b"x").unwrap();
        assert!(CacheStore::open(&file, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
