//! The two-tier cell-result store: a bounded in-memory hot tier in
//! front of an on-disk, content-addressed store of record. The hot tier
//! is the crate's one bounded single-flight memo ([`crate::memo`]), so
//! concurrent callers also compute each cold cell exactly once.
//!
//! - **Hot tier**: a [`Memo`] of entries bounded by a byte budget
//!   (`DESC_CACHE_MEM_BYTES`, default 4 MiB). Every disk hit and every
//!   store populates it, so overlapping figures in one process
//!   (fig16/fig22/fig25 sweep the same grid) pay the disk once per
//!   cell; a long-lived server evicts least-recently-used entries
//!   instead of growing without bound. Evictions never touch the store
//!   of record — an evicted cell re-reads from disk.
//! - **Store of record**: one file per cell at
//!   `<dir>/objects/<first 2 hex>/<32 hex>.cell`, written atomically
//!   (temp + rename) in the versioned, checksummed entry format of
//!   [`crate::codec`]. The object directory is the store's only
//!   record: lookups *probe* the filesystem, so any number of
//!   processes can share one directory and the store self-heals —
//!   deleting any object just makes that cell recompute.
//! - **Single flight**: [`CacheStore::begin_flight`] claims a cold
//!   cell in the hot tier; the first caller leads and computes while
//!   later callers wait on the leader's flight and receive the
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
//! only ever settles with a fully published entry (or with nothing,
//! on handoff): followers can never observe a partial result.

use crate::codec::{decode_entry, encode_entry, CodecError, Entry};
use crate::hash::CellKey;
use crate::memo::{Claim, Lease, Memo};
use desc_telemetry::{CacheReport, Snapshot};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hot-tier byte budget when `DESC_CACHE_MEM_BYTES` is unset. Cells
/// are a few KiB, so this holds a whole `repro --quick all` store
/// (about 1.3 MB for 404 cells) and keeps its in-run repeats memory
/// hits, while a long-lived server's resident set stays small: past
/// it a cell costs one disk read, about what a hot hit costs.
pub const DEFAULT_MEM_BYTES: u64 = 4 * 1024 * 1024;

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
    lease: Lease<'a, CellKey, Entry>,
}

impl FlightLease<'_> {
    /// Publishes the computed cell: writes it to the store of record,
    /// then into the hot tier, which hands the identical entry to
    /// every waiting follower.
    pub fn publish(self, payload: Vec<u8>, delta: Option<Snapshot>) -> Arc<Entry> {
        let entry = self.store.persist(self.lease.key(), payload, delta);
        let evicted = self.lease.publish(Arc::clone(&entry), entry.approx_bytes());
        self.store.bump_by(&self.store.stats.evictions, evicted);
        entry
    }
}

/// The two-tier content-addressed cell store. Cheap to share
/// (`Arc<CacheStore>`); all methods take `&self`.
#[derive(Debug)]
pub struct CacheStore {
    dir: Option<PathBuf>,
    version: u32,
    hot: Memo<CellKey, Entry>,
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
            hot: Memo::new(mem_budget_from_env()),
            stats: StatCells::default(),
        }
    }

    /// Replaces the hot tier's byte budget (tests and benches; the
    /// production budget comes from `DESC_CACHE_MEM_BYTES`). The hot
    /// tier starts empty.
    #[must_use]
    pub fn with_mem_budget(self, bytes: u64) -> Self {
        Self { hot: Memo::new(bytes), ..self }
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
            hot: Memo::new(mem_budget_from_env()),
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

    /// Looks up `key`: hot tier first, then a disk probe. With
    /// `require_delta`, an entry without a captured metric delta is
    /// treated as a miss (a telemetry-enabled run must be able to
    /// replay the cell's metrics; recomputing overwrites the entry
    /// with one that has them).
    pub fn lookup(&self, key: &CellKey, require_delta: bool) -> Option<Arc<Entry>> {
        let usable = |e: &Entry| !require_delta || e.delta.is_some();
        if let Some(entry) = self.hot.get(key) {
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
                let evicted = self.hot.insert(*key, Arc::clone(&entry), entry.approx_bytes());
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
        self.hot.remove(key);
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
        let entry = self.persist(key, payload, delta);
        let evicted = self.hot.insert(*key, Arc::clone(&entry), entry.approx_bytes());
        self.bump_by(&self.stats.evictions, evicted);
    }

    /// Counts a store and writes the entry's object file, if this
    /// store has a directory; a failed write is counted, never raised.
    fn persist(&self, key: &CellKey, payload: Vec<u8>, delta: Option<Snapshot>) -> Arc<Entry> {
        let entry = Arc::new(Entry { payload, delta });
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
    /// `poll` runs before every bounded wait tick while this caller
    /// waits on another's flight, with no store locks held; it may
    /// unwind (e.g. a cancellation check) to abandon the wait.
    /// Leaders' `poll` is never called.
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
            let mut waited = false;
            let claim = self.hot.claim(*key, &mut || {
                if !waited {
                    waited = true;
                    self.bump(&self.stats.inflight_waits);
                }
                poll();
            });
            match claim {
                Claim::Lead(lease) => {
                    if waited {
                        // The leader abandoned the flight this caller
                        // waited on; it leads instead.
                        self.bump(&self.stats.inflight_handoffs);
                    }
                    self.bump(&self.stats.inflight_leads);
                    return FlightOutcome::Lead(FlightLease { store: self, lease });
                }
                // Published without the delta this caller needs:
                // forget it and lead the recompute that replaces it.
                Claim::Ready(entry) | Claim::Shared(entry)
                    if require_delta && entry.delta.is_none() =>
                {
                    self.hot.remove(key);
                }
                Claim::Shared(entry) => {
                    self.bump(&self.stats.inflight_hits);
                    return FlightOutcome::Shared(entry);
                }
                // Published between the lookup and the claim.
                Claim::Ready(entry) => return FlightOutcome::Ready(entry),
            }
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
        assert_eq!((stats.hits_memory, stats.misses, stats.stores), (1, 2, 1), "{stats:?}");
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
