//! In-process tests of single-flight cell dedup through the real
//! experiment path (`run_custom_keyed`): concurrent demanders of one
//! cold cell compute it exactly once, a cancelled leader hands the
//! cell off to a waiting follower (satellite: deadline kills the
//! computing leader mid-cell — the follower must inherit or
//! recompute, never hang, never observe a partial entry), and a
//! cancelled *follower* abandons its wait promptly.
//!
//! These tests install the process-global cache store, so they share
//! one `#[test]`-per-scenario process but serialize on a local mutex.

use desc_cache::{CacheStore, FlightOutcome};
use desc_core::schemes::SchemeKind;
use desc_experiments::cache::{self, CELL_SCHEMA_VERSION};
use desc_experiments::common::{run_custom_keyed, scheme_static_overhead, Scale};
use desc_sim::SimConfig;
use desc_workloads::BenchmarkId;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Serializes tests in this file: they install the process-global
/// store handle.
fn serialize() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const KIND: SchemeKind = SchemeKind::ZeroSkippedDesc;

fn run_cell() -> Vec<u8> {
    let kind = KIND;
    let run = run_custom_keyed(
        &format!("paper:{kind:?}"),
        kind.build_paper_config(),
        SimConfig::paper_multithreaded(),
        &BenchmarkId::Radix.profile(),
        &Scale::tiny(),
        scheme_static_overhead(kind),
    );
    cache::encode_app_run(&run)
}

fn cell_key() -> desc_cache::CellKey {
    let kind = KIND;
    let scheme = kind.build_paper_config();
    cache::app_key(
        &format!("paper:{kind:?}"),
        scheme.as_ref(),
        &SimConfig::paper_multithreaded(),
        &BenchmarkId::Radix.profile(),
        &Scale::tiny(),
        scheme_static_overhead(kind),
    )
}

#[test]
fn concurrent_demanders_compute_a_cold_cell_exactly_once() {
    let _guard = serialize();
    let expected = run_cell(); // computed cold in the default store
    let store = Arc::new(CacheStore::in_memory(CELL_SCHEMA_VERSION));
    cache::install(Some(Arc::clone(&store)));
    let threads: Vec<_> = (0..4).map(|_| std::thread::spawn(run_cell)).collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    cache::install(None);
    for bytes in &results {
        assert_eq!(bytes, &expected, "shared result differs from direct compute");
    }
    let stats = store.stats();
    assert_eq!(stats.stores, 1, "cold cell computed more than once: {stats:?}");
    assert_eq!(stats.inflight_leads, 1, "{stats:?}");
}

#[test]
fn cancelled_leader_hands_the_cell_to_a_waiting_follower() {
    let _guard = serialize();
    let expected = run_cell();
    let store = Arc::new(CacheStore::in_memory(CELL_SCHEMA_VERSION));
    cache::install(Some(Arc::clone(&store)));
    let key = cell_key();

    // A stand-in leader claims the flight the way a real request's
    // compute does, then unwinds without publishing — exactly the
    // observable effect of a deadline cancelling the leader mid-cell
    // (its `FlightLease` drops during the unwind).
    let lease = match store.begin_flight(&key, false, &mut || {}) {
        FlightOutcome::Lead(lease) => lease,
        other => panic!("expected to lead the cold cell, got {other:?}"),
    };
    let follower = std::thread::spawn(run_cell);
    // Wait until the follower is queued behind the leader before
    // killing it, so the handoff path (not a plain cold miss) runs.
    while store.stats().inflight_waits == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(lease);

    let bytes = follower.join().expect("follower must never hang or die");
    cache::install(None);
    assert_eq!(bytes, expected, "inherited compute differs from direct compute");
    let stats = store.stats();
    assert!(stats.inflight_handoffs >= 1, "{stats:?}");
    assert_eq!(stats.stores, 1, "{stats:?}");
    // No partial entry: the published object decodes cleanly.
    let entry = store.lookup(&key, false).expect("cell published");
    cache::decode_app_run(&entry.payload).expect("entry is complete");
}

/// Regression: a *disk-backed* store holding an entry-level-valid
/// object whose payload the app codec rejects (codec drift without a
/// `CELL_SCHEMA_VERSION` bump — e.g. one `--cache-dir` reused across
/// builds). The demand must terminate with a recompute that
/// overwrites the object; it must never cycle
/// `lookup -> decode fail -> evict hot tier -> re-read disk` forever.
#[test]
fn undecodable_disk_entry_recomputes_and_overwrites_instead_of_looping() {
    let _guard = serialize();
    let expected = run_cell();
    let dir = std::env::temp_dir().join(format!("desc-sf-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = cell_key();
    // Plant the poisoned object with a throwaway store, then reopen so
    // the hot tier is cold and the demand takes the disk-read path the
    // infinite loop lived on.
    CacheStore::open(&dir, CELL_SCHEMA_VERSION).unwrap().store(
        &key,
        b"not an app run".to_vec(),
        None,
    );
    let store = Arc::new(CacheStore::open(&dir, CELL_SCHEMA_VERSION).unwrap());
    cache::install(Some(Arc::clone(&store)));
    let bytes = run_cell();
    cache::install(None);
    assert_eq!(bytes, expected, "recomputed cell differs from direct compute");
    let stats = store.stats();
    assert!(stats.errors >= 1, "the poisoned entry must be counted: {stats:?}");
    assert_eq!(stats.stores, 1, "exactly one recompute: {stats:?}");
    // The object on disk is now the recompute: a fresh store (new
    // process) decodes it cleanly.
    let fresh = CacheStore::open(&dir, CELL_SCHEMA_VERSION).unwrap();
    let entry = fresh.lookup(&key, false).expect("overwritten object serves");
    cache::decode_app_run(&entry.payload).expect("entry decodes after the overwrite");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cancelled_follower_abandons_its_wait_without_disturbing_the_leader() {
    let _guard = serialize();
    let store = Arc::new(CacheStore::in_memory(CELL_SCHEMA_VERSION));
    cache::install(Some(Arc::clone(&store)));
    let key = cell_key();
    let lease = match store.begin_flight(&key, false, &mut || {}) {
        FlightOutcome::Lead(lease) => lease,
        other => panic!("expected to lead the cold cell, got {other:?}"),
    };

    let token = desc_exec::CancelToken::new();
    let follower = {
        let token = token.clone();
        std::thread::spawn(move || {
            let _cancel = desc_exec::install_cancel(Some(token));
            // The leader never publishes; only the cancellation poll
            // can end this wait.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(run_cell))
        })
    };
    while store.stats().inflight_waits == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    token.cancel();
    let outcome = follower.join().expect("follower thread must exit");
    assert!(outcome.is_err(), "cancelled follower must unwind, not return a result");

    // The leader is unaffected: it can still publish, and a fresh
    // lookup then serves the entry.
    lease.publish(b"payload".to_vec(), None);
    cache::install(None);
    assert_eq!(store.lookup(&key, false).expect("published").payload, b"payload");
}
