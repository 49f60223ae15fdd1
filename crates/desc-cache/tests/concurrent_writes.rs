//! Concurrent atomic writes and store opens within one process.
//!
//! Several threads of one process may write the same path at once
//! (cold cells racing with single-flight off) or open the same cache
//! directory at once (two stores in one process). Every such call must
//! succeed, and no temp or probe file may be left behind.

use desc_cache::{write_atomic, CacheStore};
use std::path::{Path, PathBuf};
use std::sync::Barrier;

const THREADS: usize = 8;
const ROUNDS: usize = 25;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desc-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `op(thread, round)` on `THREADS` threads for `ROUNDS` lockstep
/// rounds and returns how many calls failed.
fn failures_in_lockstep(op: impl Fn(usize, usize) -> std::io::Result<()> + Sync) -> usize {
    let barrier = Barrier::new(THREADS);
    let (barrier, op) = (&barrier, &op);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut failed = 0;
                    for round in 0..ROUNDS {
                        barrier.wait();
                        failed += usize::from(op(t, round).is_err());
                    }
                    failed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn files_except(dir: &Path, keep: &[&str]) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !keep.contains(&n.as_str()))
        .collect()
}

fn payload(thread: usize, round: usize) -> Vec<u8> {
    format!("thread {thread} round {round} ").repeat(64).into_bytes()
}

#[test]
fn concurrent_writes_to_one_path_all_succeed() {
    let dir = fresh_dir("race");
    let path = dir.join("target.cell");
    let failed = failures_in_lockstep(|t, round| write_atomic(&path, &payload(t, round)));
    assert_eq!(failed, 0, "{failed} of {} writes failed", THREADS * ROUNDS);
    let last = std::fs::read(&path).unwrap();
    assert!(
        (0..THREADS).any(|t| last == payload(t, ROUNDS - 1)),
        "final file is not exactly one writer's payload"
    );
    assert_eq!(files_except(&dir, &["target.cell"]), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_opens_of_one_directory_all_succeed() {
    let dir = fresh_dir("open");
    let failed = failures_in_lockstep(|_, _| CacheStore::open(&dir, 1).map(drop));
    assert_eq!(failed, 0, "{failed} of {} opens failed", THREADS * ROUNDS);
    assert_eq!(files_except(&dir, &["objects"]), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}
