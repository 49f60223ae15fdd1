//! Two-tier content-addressed cell-result cache for DESC sweeps.
//!
//! The paper's figure grid is massively redundant — fig16/fig22/fig25
//! and the ablations sweep overlapping `(config, scheme, seed, scale)`
//! cells — and a full `repro all` recomputes every cell from scratch.
//! This crate memoizes completed cells so repeat and overlapping
//! sweeps are near-free and an interrupted run, rerun on the same
//! directory, recomputes only the cells it had not stored:
//!
//! - [`hash`] — an in-tree deterministic hasher ([`KeyHasher`], two
//!   fixed-key SipHash-2-4 lanes) producing the 128-bit [`CellKey`]
//!   content address of a cell spec. Stable across processes, `--jobs`
//!   and `--shards`; any field change changes the key.
//! - [`codec`] — a compact fixed-width binary codec ([`Encoder`] /
//!   [`Decoder`]) and the versioned, checksummed on-disk entry format.
//!   Floats travel as exact bit patterns, so a warm hit reproduces the
//!   cold result *bitwise*.
//! - [`store`] — the two-tier [`CacheStore`]: a bounded LRU hot tier
//!   (`DESC_CACHE_MEM_BYTES`) in front of an on-disk store of record
//!   (one object file per cell, written with [`write_atomic`]), with
//!   hit/miss/store/eviction counters surfaced as `cache.*` metrics
//!   and a single-flight registry ([`CacheStore::begin_flight`]) so
//!   concurrent callers compute each cold cell exactly once.
//!
//! What a cached entry *means* (which config/profile fields are
//! hashed, what the payload encodes, when the schema version bumps)
//! is owned by `desc-experiments`; this crate only promises that
//! lookups return exactly what was stored, or nothing.
//!
//! See `docs/CACHE.md` for the key-derivation and invalidation rules.
//!
//! # Example
//!
//! ```
//! use desc_cache::{CacheStore, KeyHasher};
//!
//! let store = CacheStore::in_memory(1);
//! let mut h = KeyHasher::new("example");
//! h.write_str("scheme:desc:w128");
//! h.write_u64(2013); // seed
//! let key = h.finish();
//! assert!(store.lookup(&key, false).is_none());
//! store.store(&key, vec![1, 2, 3], None);
//! assert_eq!(store.lookup(&key, false).unwrap().payload, vec![1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod hash;
pub mod store;

pub use codec::{
    decode_entry, decode_snapshot, encode_entry, encode_snapshot, CodecError, Decoder, Encoder,
    Entry, ENTRY_MAGIC,
};
pub use hash::{CellKey, KeyHasher, SipHasher24};
pub use store::{
    write_atomic, CacheStats, CacheStore, FlightLease, FlightOutcome, DEFAULT_MEM_BYTES,
};
