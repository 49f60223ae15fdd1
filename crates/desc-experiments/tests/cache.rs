//! End-to-end tests of the cell-result cache through the `repro`
//! binary: warm reruns must be byte-identical to cold ones (CSV *and*
//! report metrics) across process boundaries and `(jobs, shards)`
//! shapes, an interrupted run rerun on its directory must not
//! recompute the cells it stored, and damaged or version-mismatched
//! entries must degrade to recomputes with a warning — never a wrong
//! figure.
//!
//! Each test runs the binary in fresh processes, so the warm-hit
//! assertions double as the cross-process cache-key stability test:
//! a disk hit in a new process is only possible if the second process
//! derived the same 128-bit content address as the first.

use desc_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("failed to launch repro binary")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("desc-cache-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The report's `cache` stanza as `(field -> u64)` lookups.
fn cache_stanza(report_path: &Path) -> Json {
    let report = Json::parse(&std::fs::read_to_string(report_path).expect("report written"))
        .expect("report parses as JSON");
    report.get("cache").expect("report has a cache stanza").clone()
}

fn cache_u64(stanza: &Json, field: &str) -> u64 {
    stanza.get(field).and_then(Json::as_u64).unwrap_or_else(|| panic!("cache.{field} missing"))
}

/// `.cell` objects in the store at `cache`.
fn stored_cells(cache: &Path) -> u64 {
    desc_cache::CacheStore::open(cache, desc_experiments::cache::CELL_SCHEMA_VERSION)
        .expect("open store")
        .manifest_cells()
}

/// Report metrics with the machine-shape stanzas (`pool.*`, `cache.*`)
/// filtered out — exactly the subset the determinism contract covers.
fn deterministic_metrics(report_path: &Path) -> Vec<(String, String)> {
    let report = Json::parse(&std::fs::read_to_string(report_path).expect("report written"))
        .expect("report parses as JSON");
    let Some(Json::Obj(entries)) = report.get("metrics") else {
        panic!("report has no metrics object");
    };
    entries
        .iter()
        .filter(|(k, _)| !k.starts_with("pool.") && !k.starts_with("cache."))
        .map(|(k, v)| (k.clone(), v.to_pretty()))
        .collect()
}

#[test]
fn warm_rerun_in_a_new_process_is_byte_identical_and_fully_served_from_cache() {
    let dir = temp_dir("warm");
    let cache = dir.join("cells");
    let cache_arg = cache.to_str().expect("utf-8 path");
    let cold_report = dir.join("cold.json");
    let warm_report = dir.join("warm.json");
    // fig23 and fig24 run the same S-NUCA cells, so even the cold run
    // sees intra-process sharing; fig16 covers the UCA pipeline.
    let experiments = ["fig16", "fig23", "fig24"];

    let mut cold_args = vec![
        "--tiny", "--csv", "--quiet", "--jobs", "4", "--shards", "2", "--cache-dir", cache_arg,
        "--report", cold_report.to_str().expect("utf-8 path"),
    ];
    cold_args.extend(experiments);
    let cold = repro(&cold_args);
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    let cold_stats = cache_stanza(&cold_report);
    assert!(cache_u64(&cold_stats, "stores") > 0, "cold run stored nothing: {cold_stats:?}");
    assert_eq!(cache_u64(&cold_stats, "hits_disk"), 0, "cold run hit the disk tier");
    let cold_cells = stored_cells(&cache);

    // New process, different pool shape: every cell must be a hit and
    // every output byte must match.
    let mut warm_args = vec![
        "--tiny", "--csv", "--quiet", "--jobs", "1", "--shards", "1", "--cache-dir", cache_arg,
        "--report", warm_report.to_str().expect("utf-8 path"),
    ];
    warm_args.extend(experiments);
    let warm = repro(&warm_args);
    assert!(warm.status.success(), "warm run failed: {warm:?}");
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm CSV diverged from cold across processes and pool shapes"
    );
    let warm_stats = cache_stanza(&warm_report);
    assert_eq!(cache_u64(&warm_stats, "misses"), 0, "warm run recomputed: {warm_stats:?}");
    assert_eq!(cache_u64(&warm_stats, "stores"), 0, "warm run re-stored: {warm_stats:?}");
    assert!(cache_u64(&warm_stats, "hits_disk") > 0, "warm run never probed disk");
    assert_eq!(cold_cells, stored_cells(&cache), "warm run changed the stored cells");
    // Replayed metric deltas make the warm report metric-identical.
    assert_eq!(
        deterministic_metrics(&cold_report),
        deterministic_metrics(&warm_report),
        "warm report metrics diverged from cold"
    );

    // Any field change changes the key: a different seed shares no cells.
    let reseeded_report = dir.join("reseeded.json");
    let reseeded = repro(&[
        "--tiny", "--csv", "--quiet", "--seed", "999", "--cache-dir", cache_arg, "--report",
        reseeded_report.to_str().expect("utf-8 path"), "fig16",
    ]);
    assert!(reseeded.status.success(), "reseeded run failed: {reseeded:?}");
    let reseeded_stats = cache_stanza(&reseeded_report);
    assert_eq!(
        cache_u64(&reseeded_stats, "hits_memory") + cache_u64(&reseeded_stats, "hits_disk"),
        0,
        "a different seed must never hit: {reseeded_stats:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_run_reruns_without_recomputing_stored_cells() {
    let dir = temp_dir("rerun");
    let cache = dir.join("cells");
    let cache_arg = cache.to_str().expect("utf-8 path");

    // Reference output, no cache involved.
    let reference = repro(&["--tiny", "--csv", "--quiet", "fig16", "fig22"]);
    assert!(reference.status.success());

    // Start the same selection cold and kill it mid-run. Whatever was
    // stored before the kill is the "completed" set; atomic object
    // writes guarantee the kill cannot poison it. The killed run
    // reports too: a telemetry-enabled rerun only accepts
    // delta-bearing entries, so the cold run must store them that way.
    let killed_report = dir.join("killed.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--tiny", "--csv", "--quiet", "--cache-dir", cache_arg, "--report",
            killed_report.to_str().expect("utf-8 path"), "fig16", "fig22",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let _ = child.kill();
    let _ = child.wait();

    // A killed atomic write may leave a stray temp file; one more,
    // planted by hand, must be ignored as well.
    let shard = cache.join("objects").join("ab");
    std::fs::create_dir_all(&shard).expect("create shard dir");
    std::fs::write(shard.join(".ab.cell.tmp.99999.0"), b"torn half-write").expect("plant temp");
    let before = stored_cells(&cache);

    let rerun_report = dir.join("rerun.json");
    let rerun = repro(&[
        "--tiny", "--csv", "--quiet", "--cache-dir", cache_arg, "--report",
        rerun_report.to_str().expect("utf-8 path"), "fig16", "fig22",
    ]);
    assert!(rerun.status.success(), "rerun failed: {rerun:?}");
    assert_eq!(reference.stdout, rerun.stdout, "rerun CSV diverged from uncached reference");

    // Every cell stored before the kill was served, not recomputed:
    // the rerun only stores the remainder.
    let stats = cache_stanza(&rerun_report);
    let after = stored_cells(&cache);
    assert!(
        cache_u64(&stats, "stores") <= after - before,
        "rerun recomputed stored cells ({before} stored before, {after} after): {stats:?}"
    );
    assert!(
        cache_u64(&stats, "hits_disk") >= before,
        "stored cells were not all served from disk: {stats:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_mismatched_entry_warns_recomputes_and_never_changes_the_figure() {
    let dir = temp_dir("version");
    let cache = dir.join("cells");
    let cache_arg = cache.to_str().expect("utf-8 path");

    let cold = repro(&["--tiny", "--csv", "--quiet", "--cache-dir", cache_arg, "fig16"]);
    assert!(cold.status.success(), "cold run failed: {cold:?}");

    // Rewrite one object as a structurally valid entry carrying a
    // *future* schema version (what a cache dir shared with a newer
    // tool would contain).
    let objects = cache.join("objects");
    let object = std::fs::read_dir(&objects)
        .expect("objects dir")
        .flat_map(|bucket| std::fs::read_dir(bucket.expect("bucket").path()).expect("bucket dir"))
        .map(|f| f.expect("object file").path())
        .next()
        .expect("cold run left at least one object");
    let hex = object.file_stem().and_then(|s| s.to_str()).expect("hex object name");
    let key = desc_cache::CellKey::from_hex(hex).expect("object name is a cell key");
    let future = desc_cache::encode_entry(u32::MAX, &key, b"payload from the future", None);
    std::fs::write(&object, future).expect("rewrite object");

    let warm_report = dir.join("warm.json");
    let warm = repro(&[
        "--tiny", "--csv", "--quiet", "--cache-dir", cache_arg, "--report",
        warm_report.to_str().expect("utf-8 path"), "fig16",
    ]);
    assert!(warm.status.success(), "version mismatch must not fail the run: {warm:?}");
    assert_eq!(cold.stdout, warm.stdout, "a mismatched entry changed figure output");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("cell-schema version"), "no version-mismatch warning: {stderr:?}");
    let stats = cache_stanza(&warm_report);
    assert_eq!(cache_u64(&stats, "version_mismatches"), 1, "{stats:?}");
    // The recompute overwrote the entry under the current version.
    let fixed = repro(&["--tiny", "--csv", "--quiet", "--cache-dir", cache_arg, "fig16"]);
    assert!(fixed.status.success());
    assert_eq!(cold.stdout, fixed.stdout);

    std::fs::remove_dir_all(&dir).ok();
}
