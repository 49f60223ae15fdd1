//! The append-only completion manifest behind `repro --resume`.
//!
//! One text file (`manifest` in the cache directory), one line per
//! completed cell: `<32-hex key> v<schema version>`. Lookups never
//! consult the manifest — the object store is content-addressed and
//! self-validating — so the manifest is *advisory*: it tells a
//! resumed run how many cells the previous run(s) already banked and
//! gives humans a greppable completion log.
//!
//! Durability rules:
//!
//! - Every append rewrites the file via temp-file + rename, so a
//!   killed `repro` leaves either the old or the new manifest, never
//!   a torn one.
//! - The loader is tolerant anyway (defense in depth for manifests
//!   written by pre-atomic tools or damaged externally): malformed
//!   lines are counted and skipped, and the next append rewrites the
//!   file clean. A damaged manifest can therefore never poison
//!   `--resume` — at worst a cell is recomputed and re-recorded.

use crate::hash::CellKey;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// In-memory view of the manifest file, rewritten atomically on every
/// append.
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
    entries: BTreeSet<(CellKey, u32)>,
    skipped: u64,
}

impl Manifest {
    /// Loads `path`, tolerating a missing file (empty manifest) and
    /// malformed lines (counted in [`Manifest::skipped`], dropped on
    /// the next rewrite).
    ///
    /// # Errors
    ///
    /// Only real I/O errors (e.g. unreadable file); a damaged file is
    /// not an error.
    pub fn load(path: PathBuf) -> std::io::Result<Self> {
        let mut entries = BTreeSet::new();
        let mut skipped = 0u64;
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    match parse_line(line) {
                        Some(entry) => {
                            entries.insert(entry);
                        }
                        None => skipped += 1,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Self { path, entries, skipped })
    }

    /// True when `key` was recorded under `version`.
    #[must_use]
    pub fn contains(&self, key: &CellKey, version: u32) -> bool {
        self.entries.contains(&(*key, version))
    }

    /// Number of recorded `(key, version)` entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Malformed lines dropped by [`Manifest::load`].
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Records a completed cell and atomically rewrites the file.
    /// Recording an already-present entry is a no-op (no I/O).
    ///
    /// # Errors
    ///
    /// Propagates write/rename failures; the in-memory set keeps the
    /// entry either way so the next successful append persists it.
    pub fn record(&mut self, key: CellKey, version: u32) -> std::io::Result<()> {
        if !self.entries.insert((key, version)) {
            return Ok(());
        }
        self.rewrite()
    }

    fn rewrite(&self) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.entries.len() * 40);
        for (key, version) in &self.entries {
            text.push_str(&key.hex());
            text.push_str(" v");
            text.push_str(&version.to_string());
            text.push('\n');
        }
        write_atomic(&self.path, text.as_bytes())
    }
}

fn parse_line(line: &str) -> Option<(CellKey, u32)> {
    let (hex, version) = line.split_once(' ')?;
    let key = CellKey::from_hex(hex)?;
    let version = version.strip_prefix('v')?.parse().ok()?;
    Some((key, version))
}

/// A file-name suffix no other call in any live process returns: the
/// process id plus a process-wide sequence number.
pub(crate) fn unique_suffix() -> String {
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
        CellKey { hi: n, lo: !n }
    }

    #[test]
    fn record_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("desc-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip");
        let mut m = Manifest::load(path.clone()).unwrap();
        assert!(m.is_empty());
        m.record(key(1), 1).unwrap();
        m.record(key(2), 1).unwrap();
        m.record(key(1), 1).unwrap(); // duplicate: no-op
        let back = Manifest::load(path.clone()).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.contains(&key(1), 1));
        assert!(!back.contains(&key(1), 2));
        assert_eq!(back.skipped(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_lines_are_skipped_and_dropped_on_rewrite() {
        let dir = std::env::temp_dir().join(format!("desc-manifest-dmg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged");
        let good = format!("{} v1\n", key(9).hex());
        // A valid line, junk, and a torn tail (pre-atomic-write style).
        std::fs::write(&path, format!("{good}not a manifest line\n{}", &good[..10])).unwrap();
        let mut m = Manifest::load(path.clone()).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.skipped(), 2);
        m.record(key(10), 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "rewrite drops damaged lines");
        assert!(Manifest::load(path).unwrap().skipped() == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("desc-manifest-tmp-{}", std::process::id()));
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
}
