//! Shared experiment plumbing: run scales, scheme wire budgets, and
//! the simulation → energy → processor pipeline.

use desc_cacti::cache::CacheModel;
use desc_cacti::EnergyBreakdown;
use desc_core::schemes::SchemeKind;
use desc_core::TransferScheme;
use desc_mcpat::{ProcessorConfig, ProcessorEnergy};
use desc_sim::{CoreModel, SimConfig, SimResult, SystemSim};
use desc_workloads::{parallel_suite, BenchmarkProfile};

/// How much simulation an experiment runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale {
    /// L2 accesses simulated per (app, configuration) pair.
    pub accesses: usize,
    /// How many of the 16 parallel apps to use (figure rows shrink
    /// accordingly; geomeans stay geomeans).
    pub apps: usize,
    /// Master seed for all deterministic generators.
    pub seed: u64,
    /// Concurrency cap for (app × configuration) sweep cells on the
    /// process-wide [`desc_exec`] pool. Every cell is seeded
    /// independently from `seed`, so results are bit-identical for any
    /// job count; `1` runs cells inline. `0` is treated as `1`.
    pub jobs: usize,
    /// Concurrency cap for bank partitions *inside* each simulation
    /// cell (see [`desc_sim::SimConfig::shards`]). The decomposition
    /// unit is the L2 bank, fixed by the machine config, so results are
    /// bit-identical for any shard count; `0`/`1` run each cell
    /// serially. `jobs` and `shards` are both caps on the same
    /// fixed-size pool — they bound concurrency but never multiply
    /// thread counts.
    pub shards: usize,
}

impl Scale {
    /// Full reproduction scale (all apps, 20 000 accesses each).
    #[must_use]
    pub fn full() -> Self {
        Self { accesses: 20_000, apps: 16, seed: 2013, jobs: 1, shards: 1 }
    }

    /// Reduced scale for interactive runs and benches.
    #[must_use]
    pub fn quick() -> Self {
        Self { accesses: 4_000, apps: 4, seed: 2013, jobs: 1, shards: 1 }
    }

    /// Minimal scale for unit tests.
    #[must_use]
    pub fn tiny() -> Self {
        Self { accesses: 800, apps: 2, seed: 2013, jobs: 1, shards: 1 }
    }

    /// Returns this scale with `jobs` worker threads for sweeps.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Returns this scale with `shards` intra-cell worker threads.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The parallel-suite subset selected by this scale.
    #[must_use]
    pub fn suite(&self) -> Vec<BenchmarkProfile> {
        parallel_suite().into_iter().take(self.apps.max(1)).collect()
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::full()
    }
}

/// Total physical wires a scheme occupies in its paper configuration
/// (data + control + sync), used to size the H-tree for leakage and
/// area accounting.
#[must_use]
pub fn scheme_total_wires(kind: SchemeKind) -> usize {
    kind.build_paper_config().wires().total()
}

/// Multiplier on L2 leakage power from a scheme's extra circuitry:
/// the synthesized DESC interfaces add ≈3% static energy (paper
/// Fig. 18 discussion); the extra-wire baselines add a token 0.5%.
#[must_use]
pub fn scheme_static_overhead(kind: SchemeKind) -> f64 {
    if kind.is_desc() {
        1.03
    } else if kind == SchemeKind::ConventionalBinary {
        1.0
    } else {
        1.005
    }
}

/// Outcome of simulating one app under one scheme: raw sim result, the
/// priced L2 energy, and the processor roll-up.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Simulation measurements.
    pub result: SimResult,
    /// L2 energy breakdown over the simulated window.
    pub l2: EnergyBreakdown,
    /// Processor-level roll-up.
    pub processor: ProcessorEnergy,
}

impl AppRun {
    /// Total L2 energy in joules.
    #[must_use]
    pub fn l2_energy(&self) -> f64 {
        self.l2.total()
    }
}

/// Simulates `profile` under `scheme` on `config`, prices the
/// activity, and rolls up processor energy. `static_overhead`
/// multiplies L2 leakage (see [`scheme_static_overhead`]).
///
/// The cell runs through the process's cell store
/// ([`crate::cache::active`]): the cell's content address is looked up
/// first and a hit skips the simulation entirely. `scheme_id` must
/// spell out the scheme's constructor arguments (wires, chunk size,
/// skip mode, ablations) — everything [`TransferScheme::name`] does
/// not expose.
///
/// Warm hits are bitwise-faithful: payload floats round-trip as exact
/// bit patterns, and when telemetry is enabled the cell's captured
/// metric delta is replayed into the global registry, so a warm run's
/// figure CSVs *and* report metrics match a cold run byte for byte.
/// A telemetry-enabled run treats delta-less entries (stored by dark
/// runs) as misses and overwrites them with delta-bearing ones.
#[must_use]
pub fn run_custom_keyed(
    scheme_id: &str,
    scheme: Box<dyn TransferScheme>,
    mut config: SimConfig,
    profile: &BenchmarkProfile,
    scale: &Scale,
    static_overhead: f64,
) -> AppRun {
    let key =
        crate::cache::app_key(scheme_id, scheme.as_ref(), &config, profile, scale, static_overhead);
    let compute = move || {
        config.l2.bus_width_bits = scheme.wires().total();
        config.shards = scale.shards.max(1);
        let sim = SystemSim::new(config, *profile, scale.seed);
        let result = sim.run(scheme, scale.accesses);
        let model = CacheModel::new(config.l2);
        let mut l2 = model.energy_for(&result.activity);
        l2.static_j *= static_overhead;
        let proc_cfg = match config.core {
            CoreModel::Throughput { .. } => ProcessorConfig::niagara_like(),
            CoreModel::OutOfOrder { .. } => ProcessorConfig::out_of_order(),
        };
        let processor = proc_cfg.roll_up(
            result.instructions,
            result.exec_time_s,
            l2,
            result.misses + result.writebacks,
        );
        AppRun { result, l2, processor }
    };
    let store = crate::cache::active();
    cached_cell(&store, &key, crate::cache::decode_app_run, crate::cache::encode_app_run, compute)
}

/// The single-flight cached-cell driver shared by
/// [`run_custom_keyed`] and [`run_snuca`].
///
/// [`CacheStore::begin_flight`](desc_cache::CacheStore::begin_flight)
/// claims the cell in the store's hot tier — the workspace's one
/// bounded single-flight memo, [`desc_cache::memo::Memo`] — and
/// resolves it into a store hit, a result shared from another
/// caller's in-flight compute, or leadership; leading computes under a
/// per-cell [`desc_telemetry::CaptureSink`] and publishes result +
/// delta in one step, so concurrent demanders of the same cold cell
/// compute it exactly once and all observe the identical entry.
///
/// While waiting on another caller's flight, this thread polls
/// [`desc_exec::check_cancelled`] before each wait tick — a cancelled
/// request abandons its wait promptly (the poll unwinds) without
/// disturbing the leader.
/// Conversely a *leading* cell that unwinds (panic or cancellation
/// inside the compute) drops its lease unpublished, which hands
/// leadership to a waiting follower rather than wedging the key.
///
/// The sink installed *around* the cell, if any (e.g. a `desc-serve`
/// request sink), still sees exactly the cell's metric delta: the
/// per-cell capture replaces it for the cell's duration (innermost
/// wins) and `replay` only touches the global registry, so the delta
/// is absorbed into the outer sink explicitly on every path — warm
/// hit, shared flight, and cold compute alike. Shared-flight results
/// additionally bump the sink's `dedup_cells` op counter, the
/// operational side-channel `desc-serve` reports per request.
fn cached_cell<T>(
    store: &desc_cache::CacheStore,
    key: &desc_cache::CellKey,
    decode: impl Fn(&[u8]) -> Result<T, desc_cache::CodecError>,
    encode: impl Fn(&T) -> Vec<u8>,
    compute: impl FnOnce() -> T,
) -> T {
    use desc_cache::FlightOutcome;
    let want_delta = desc_telemetry::enabled();
    let outer = desc_telemetry::capture_sink();
    let mut compute = Some(compute);
    let mut corrupt_retried = false;
    loop {
        let outcome = store.begin_flight(key, want_delta, &mut || desc_exec::check_cancelled());
        let (entry, shared) = match outcome {
            FlightOutcome::Ready(entry) => (entry, false),
            FlightOutcome::Shared(entry) => (entry, true),
            FlightOutcome::Lead(lease) => {
                let compute = compute.take().expect("a cell computes at most once");
                let (value, delta) = compute_traced(want_delta, outer.as_deref(), compute);
                lease.publish(encode(&value), delta);
                return value;
            }
        };
        match decode(&entry.payload) {
            Ok(value) => {
                if want_delta {
                    if let Some(delta) = &entry.delta {
                        desc_telemetry::replay(delta);
                        if let Some(outer) = &outer {
                            outer.absorb(delta);
                        }
                    }
                }
                if shared {
                    if let Some(outer) = &outer {
                        outer.incr_op("dedup_cells");
                    }
                }
                return value;
            }
            // Undecodable payload (codec drift without a version
            // bump): count it and evict it everywhere — hot tier and
            // disk object — so the next iteration misses and leads a
            // recompute whose store overwrites the entry.
            Err(_) => {
                store.note_corrupt(key);
                if corrupt_retried {
                    // The store served an undecodable entry *again*
                    // after eviction (e.g. the object file could not
                    // be deleted, or another process keeps rewriting
                    // it): stop cycling through lookup and recompute
                    // directly, overwriting the entry. Bounds the
                    // loop on any store behavior.
                    let compute = compute.take().expect("a cell computes at most once");
                    let (value, delta) = compute_traced(want_delta, outer.as_deref(), compute);
                    store.store(key, encode(&value), delta);
                    return value;
                }
                corrupt_retried = true;
            }
        }
    }
}

/// Runs one cell compute under a fresh per-cell [`CaptureSink`] (when
/// `want_delta`), returning the value plus the captured metric delta,
/// with the delta absorbed into `outer` — the sink installed around
/// the cell, e.g. a `desc-serve` request sink — on the way out.
///
/// [`CaptureSink`]: desc_telemetry::CaptureSink
fn compute_traced<T>(
    want_delta: bool,
    outer: Option<&desc_telemetry::CaptureSink>,
    compute: impl FnOnce() -> T,
) -> (T, Option<desc_telemetry::Snapshot>) {
    let (value, delta) = if want_delta {
        let sink = desc_telemetry::CaptureSink::new();
        let value = desc_telemetry::with_capture(&sink, compute);
        (value, Some(sink.snapshot()))
    } else {
        (compute(), None)
    };
    if let (Some(outer), Some(delta)) = (outer, delta.as_ref()) {
        outer.absorb(delta);
    }
    (value, delta)
}

/// Simulates `profile` under a paper-configured scheme on the paper's
/// multithreaded machine, through the cell store (see
/// [`run_custom_keyed`]).
#[must_use]
pub fn run_app(kind: SchemeKind, profile: &BenchmarkProfile, scale: &Scale) -> AppRun {
    run_custom_keyed(
        &format!("paper:{kind:?}"),
        kind.build_paper_config(),
        SimConfig::paper_multithreaded(),
        profile,
        scale,
        scheme_static_overhead(kind),
    )
}

/// One S-NUCA-1 run behind the cell cache: constructs the
/// [`desc_sim::SnucaSim`] per call so fig. 23 and fig. 24 — which run
/// the same `(scheme, app)` cells — share cache entries. Same
/// contract as [`run_custom_keyed`].
#[must_use]
pub fn run_snuca(
    scheme_id: &str,
    scheme: Box<dyn TransferScheme>,
    config: SimConfig,
    profile: &BenchmarkProfile,
    scale: &Scale,
) -> desc_sim::snuca::SnucaResult {
    let key = crate::cache::snuca_key(
        scheme_id,
        scheme.as_ref(),
        &config,
        profile,
        scale.seed,
        scale.accesses,
    );
    let store = crate::cache::active();
    cached_cell(&store, &key, crate::cache::decode_snuca, crate::cache::encode_snuca, move || {
        desc_sim::SnucaSim::new(config, *profile, scale.seed).run(scheme, scale.accesses)
    })
}

/// Runs every cell of an (app × configuration) sweep on the
/// process-wide [`desc_exec`] pool, with at most `scale.jobs` cells in
/// flight at once.
///
/// `rows` is the benchmark suite of the sweep; `configs` can be any
/// per-column parameter (schemes, device classes, sweep points), and
/// each cell may return any `Send` result (an [`AppRun`], an energy
/// scalar, a tuple of measurements).
///
/// `cell(config, app)` must derive everything from its arguments and
/// `scale.seed` (as [`run_app`]/[`run_custom_keyed`] do — each cell
/// constructs its own independently seeded simulation), so the result
/// is **bit-identical to the serial loop for any job count**: the pool
/// schedule only decides *which* thread computes a cell, never its
/// value, and each cell writes its own result slot. Cells may submit
/// nested partition regions (`SimConfig::shards > 1`) onto the same
/// pool without deadlock — blocked submitters help execute. Results
/// are indexed `[app][config]`.
///
/// Every sweep executes as a `"cells"` region on the shared pool
/// (queue-wait/run-time distributions per cell under that label in
/// `desc_exec::utilization`) and feeds the [`crate::progress`]
/// counters that drive `repro`'s live status line. When telemetry is
/// enabled each cell records a `"cell"` span labeled
/// `c<config>/<app>` (`c4/ocean`), so `repro --report` shows per-cell
/// wall-clock for any job count; when disabled no label is even
/// formatted.
#[must_use]
pub fn run_matrix<C, R, F>(
    configs: &[C],
    rows: &[BenchmarkProfile],
    scale: &Scale,
    cell: F,
) -> Vec<Vec<R>>
where
    C: Sync,
    R: Send,
    F: Fn(&C, &BenchmarkProfile) -> R + Sync,
{
    let n_cells = rows.len() * configs.len();
    crate::progress::cells_planned(n_cells as u64);
    let cells = desc_exec::run_labeled("cells", n_cells, scale.jobs.max(1), |i| {
        let (p, c) = (i / configs.len(), i % configs.len());
        let _span = desc_telemetry::enabled()
            .then(|| desc_telemetry::span("cell", format!("c{c}/{}", rows[p].name)));
        let out = cell(&configs[c], &rows[p]);
        crate::progress::cell_done();
        out
    });
    let mut out = Vec::with_capacity(rows.len());
    let mut it = cells.into_iter();
    for _ in 0..rows.len() {
        out.push(it.by_ref().take(configs.len()).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use desc_workloads::BenchmarkId;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::tiny().accesses < Scale::quick().accesses);
        assert!(Scale::quick().accesses < Scale::full().accesses);
        assert_eq!(Scale::full().suite().len(), 16);
        assert_eq!(Scale::quick().suite().len(), 4);
    }

    #[test]
    fn wire_budgets_match_paper_configs() {
        assert_eq!(scheme_total_wires(SchemeKind::ConventionalBinary), 64);
        assert_eq!(scheme_total_wires(SchemeKind::DynamicZeroCompression), 72);
        assert_eq!(scheme_total_wires(SchemeKind::BusInvertCoding), 66);
        assert_eq!(scheme_total_wires(SchemeKind::ZeroSkippedBusInvert), 68);
        assert_eq!(scheme_total_wires(SchemeKind::ZeroSkippedDesc), 130);
    }

    #[test]
    fn desc_pays_static_overhead() {
        assert!(scheme_static_overhead(SchemeKind::ZeroSkippedDesc) > 1.02);
        assert_eq!(scheme_static_overhead(SchemeKind::ConventionalBinary), 1.0);
    }

    #[test]
    fn run_matrix_handles_more_jobs_than_cells() {
        let scale = Scale::tiny().with_jobs(64);
        let suite = scale.suite();
        let kinds = [SchemeKind::ConventionalBinary];
        let m = run_matrix(&kinds, &suite[..1], &scale, |&k, p| run_app(k, p, &scale));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 1);
        assert!(m[0][0].l2_energy() > 0.0);
    }

    #[test]
    fn run_app_produces_consistent_energy() {
        let scale = Scale::tiny();
        let run = run_app(SchemeKind::ZeroSkippedDesc, &BenchmarkId::Radix.profile(), &scale);
        assert!(run.l2_energy() > 0.0);
        assert!(run.processor.l2_fraction() > 0.0 && run.processor.l2_fraction() < 1.0);
        assert_eq!(run.result.accesses, scale.accesses as u64);
    }
}
