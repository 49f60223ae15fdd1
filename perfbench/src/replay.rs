//! The traced run's in-process replay: the workload's cells go through
//! the repository's crates one public call at a time, each call inside
//! a benchmark span, on a 2-worker `desc_exec` pool — so one cell's time
//! splits into trace and value generation (`desc-workloads`), the
//! simulator (`desc-sim`), the batched encoders (`desc-core`), pricing
//! (`desc-cacti`, `desc-mcpat`) and the cell cache (`desc-cache`).
//!
//! The replayed cells are fig. 16's (eight paper schemes × the quick
//! apps, through `run_app`'s pipeline) and fig. 23's S-NUCA cells (two
//! schemes × the quick apps, through `run_snuca`'s), at the seed whose
//! cells the system under test stored; every replayed payload must
//! equal the stored one, and the plain `run_app`/`run_snuca` results.

use crate::spans::Recorder;
use crate::stats::{percentile_or_zero, Metric};
use desc_cache::{CacheStore, CellKey, FlightOutcome};
use desc_cacti::cache::CacheModel;
use desc_core::schemes::SchemeKind;
use desc_core::{BlockSlab, TransferScheme};
use desc_experiments::cache::{
    app_key, decode_app_run, decode_snuca, encode_app_run, encode_snuca, snuca_key,
    CELL_SCHEMA_VERSION,
};
use desc_experiments::common::{run_app, run_snuca, scheme_static_overhead};
use desc_experiments::{AppRun, Scale};
use desc_mcpat::ProcessorConfig;
use desc_sim::{CoreModel, SimConfig, SnucaSim, SystemSim};
use desc_workloads::BenchmarkProfile;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool concurrency of the replay, as `--jobs 2` on the system under test.
const POOL: usize = 2;
/// Blocks per `transfer_many` call, as the simulators flush them.
const SLAB: usize = 256;

/// One replayed cell.
#[derive(Clone, Copy)]
enum Cell {
    /// A `run_app` cell: paper scheme × app.
    App(SchemeKind, BenchmarkProfile),
    /// A `run_snuca` cell of fig. 23.
    Snuca(SchemeKind, BenchmarkProfile),
}

impl Cell {
    fn label(&self) -> String {
        match self {
            Cell::App(k, p) => format!("{}/{}", k.label(), p.name),
            Cell::Snuca(k, p) => format!("snuca:{}/{}", k.label(), p.name),
        }
    }

    fn id(&self) -> String {
        match self {
            Cell::App(k, _) | Cell::Snuca(k, _) => format!("paper:{k:?}"),
        }
    }

    fn key(&self, scale: &Scale) -> CellKey {
        match *self {
            Cell::App(kind, profile) => app_key(
                &self.id(),
                kind.build_paper_config().as_ref(),
                &SimConfig::paper_multithreaded(),
                &profile,
                scale,
                scheme_static_overhead(kind),
            ),
            Cell::Snuca(kind, profile) => snuca_key(
                &self.id(),
                kind.build_paper_config().as_ref(),
                &SimConfig::paper_multithreaded(),
                &profile,
                scale.seed,
                scale.accesses,
            ),
        }
    }

    /// The cell through the library's own entry point (no spans).
    fn plain(&self, scale: &Scale) -> Vec<u8> {
        match *self {
            Cell::App(kind, profile) => encode_app_run(&run_app(kind, &profile, scale)),
            Cell::Snuca(kind, profile) => encode_snuca(&run_snuca(
                &self.id(),
                kind.build_paper_config(),
                SimConfig::paper_multithreaded(),
                &profile,
                scale,
            )),
        }
    }
}

fn cells(scale: &Scale) -> Vec<Cell> {
    let suite = scale.suite();
    let mut out: Vec<Cell> = suite
        .iter()
        .flat_map(|&p| SchemeKind::ALL.map(|k| Cell::App(k, p)))
        .collect();
    for &p in &suite {
        out.push(Cell::Snuca(SchemeKind::ConventionalBinary, p));
        out.push(Cell::Snuca(SchemeKind::ZeroSkippedDesc, p));
    }
    out
}

/// `run_custom_keyed`'s cold path for an app cell, one span per call.
fn app_cell(
    rec: &Recorder,
    label: &str,
    kind: SchemeKind,
    profile: &BenchmarkProfile,
    scale: &Scale,
) -> AppRun {
    let scheme = kind.build_paper_config();
    let mut config = SimConfig::paper_multithreaded();
    config.l2.bus_width_bits = scheme.wires().total();
    config.shards = scale.shards.max(1);
    let result = rec.time("sim.system_run", label, || {
        SystemSim::new(config, *profile, scale.seed).run(scheme, scale.accesses)
    });
    let model = CacheModel::new(config.l2);
    let mut l2 = rec.time("cacti.energy_for", label, || {
        model.energy_for(&result.activity)
    });
    l2.static_j *= scheme_static_overhead(kind);
    let proc_cfg = match config.core {
        CoreModel::Throughput { .. } => ProcessorConfig::niagara_like(),
        CoreModel::OutOfOrder { .. } => ProcessorConfig::out_of_order(),
    };
    let processor = rec.time("mcpat.roll_up", label, || {
        proc_cfg.roll_up(
            result.instructions,
            result.exec_time_s,
            l2,
            result.misses + result.writebacks,
        )
    });
    AppRun {
        result,
        l2,
        processor,
    }
}

/// One cell as `run_custom_keyed`/`run_snuca` take it through the
/// store: key → flight lookup → (decode | compute → encode → publish).
fn traced_cell(
    rec: &Recorder,
    store: &CacheStore,
    cell: Cell,
    scale: &Scale,
) -> (Vec<u8>, Option<AppRun>) {
    let label = cell.label();
    let key = rec.time("cache.key", &label, || cell.key(scale));
    let lease = match rec.time("cache.lookup", &label, || {
        store.begin_flight(&key, false, &mut || {})
    }) {
        FlightOutcome::Lead(lease) => lease,
        FlightOutcome::Ready(entry) | FlightOutcome::Shared(entry) => {
            let payload = entry.payload.clone();
            let decoded = rec.time("cache.decode", &label, || match cell {
                Cell::App(..) => decode_app_run(&payload).map(|r| encode_app_run(&r)),
                Cell::Snuca(..) => decode_snuca(&payload).map(|r| encode_snuca(&r)),
            });
            return (decoded.unwrap_or_default(), None);
        }
    };
    let (payload, run) = match cell {
        Cell::App(kind, profile) => {
            let run = app_cell(rec, &label, kind, &profile, scale);
            (
                rec.time("cache.encode", &label, || encode_app_run(&run)),
                Some(run),
            )
        }
        Cell::Snuca(kind, profile) => {
            let r = rec.time("sim.snuca_run", &label, || {
                SnucaSim::new(SimConfig::paper_multithreaded(), profile, scale.seed)
                    .run(kind.build_paper_config(), scale.accesses)
            });
            (rec.time("cache.encode", &label, || encode_snuca(&r)), None)
        }
    };
    rec.time("cache.store", &label, || {
        lease.publish(payload.clone(), None)
    });
    (payload, run)
}

/// Layer times of one app cell's simulator inputs, re-generated and
/// re-encoded outside the simulator: the trace, the value blocks, and
/// `transfer_many` over slabs of those blocks.
struct Inputs {
    trace: Duration,
    values: Duration,
    transfer: Duration,
    accesses: u64,
    blocks: u64,
}

fn sim_inputs(kind: SchemeKind, profile: &BenchmarkProfile, scale: &Scale, blocks: u64) -> Inputs {
    let l2 = SimConfig::paper_multithreaded().l2;
    let capacity_blocks = l2.capacity_bytes / l2.block_bytes;
    let sets = capacity_blocks / l2.associativity;
    let parts = if l2.banks.is_power_of_two() && l2.banks <= sets {
        l2.banks
    } else {
        1
    };
    let n = (2 * capacity_blocks).max(scale.accesses) + scale.accesses;
    let started = Instant::now();
    black_box(profile.trace(scale.seed).take(n));
    let trace = started.elapsed();
    let (mut values, mut transfer) = (Duration::ZERO, Duration::ZERO);
    let mut slab = BlockSlab::with_capacity(l2.block_bytes, SLAB);
    let mut costs = Vec::with_capacity(SLAB);
    for p in 0..parts {
        let mut stream = profile.value_stream_for_bank(scale.seed, p);
        let mut scheme: Box<dyn TransferScheme> = kind.build_paper_config();
        scheme.reset();
        let mut left = blocks / parts as u64 + u64::from((p as u64) < blocks % parts as u64);
        while left > 0 {
            let take = left.min(SLAB as u64);
            let t = Instant::now();
            for _ in 0..take {
                slab.push(stream.next_block_ref());
            }
            values += t.elapsed();
            let t = Instant::now();
            scheme.transfer_many(&slab, &mut costs);
            black_box(&costs);
            transfer += t.elapsed();
            slab.clear();
            costs.clear();
            left -= take;
        }
    }
    Inputs {
        trace,
        values,
        transfer,
        accesses: n as u64,
        blocks,
    }
}

/// What the replay is checked against and which phases it runs.
pub struct Plan<'a> {
    /// Seed of the cells the system under test stored.
    pub seed: u64,
    /// That store, when the workload left one.
    pub sut_store: Option<&'a Path>,
    /// `serve-warm`: lookups against the pre-filled store, with this
    /// hot-tier budget (scaled to the replay's share of the working
    /// set) over this many passes.
    pub warm: Option<(u64, usize)>,
    /// `serve-mixed`: probe-sized cells submitted beside the sweep
    /// under their own fair-scheduling group.
    pub probes: bool,
}

/// The replay's per-layer metrics (name, value, unit) and failures.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub errors: Vec<String>,
}

fn med(v: &[f64]) -> f64 {
    percentile_or_zero(v, 0.5)
}

/// Runs the replay in `dir` and derives the layer metrics from its spans.
pub fn run(rec: &Recorder, plan: &Plan, dir: &Path) -> Result<Layers, String> {
    let scale = Scale {
        seed: plan.seed,
        jobs: POOL,
        ..Scale::quick()
    };
    let cells = cells(&scale);
    let mut errors = Vec::new();
    desc_exec::configure(POOL);
    let open = |name: &str| {
        CacheStore::open(dir.join(name), CELL_SCHEMA_VERSION)
            .map_err(|e| format!("open {name}: {e}"))
    };

    // Plain passes through the library's own entry points (no spans)
    // alternate with traced passes over the same cells, each into a
    // fresh store, after one untimed warm-up; the difference of their
    // totals is the tracing overhead.
    let plain_pass = |name: &str| -> Result<(Vec<Vec<u8>>, f64), String> {
        desc_experiments::cache::install(Some(Arc::new(open(name)?)));
        let started = Instant::now();
        let out = desc_exec::run_labeled("cells", cells.len(), POOL, |i| cells[i].plain(&scale));
        let took = started.elapsed().as_secs_f64();
        desc_experiments::cache::install(None);
        Ok((out, took))
    };
    let exec_before = desc_exec::stats();
    let (plain, _) = plain_pass("warmup")?;
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut traced = Vec::new();
    let mut store = None;
    // Plain, traced, traced, plain: a steady drift cancels out.
    for round in 0..2 {
        if round == 0 {
            plain_s += plain_pass("plain0")?.1;
        }
        let traced_store = open(&format!("traced{round}"))?;
        let started = Instant::now();
        let opened = Instant::now();
        traced = desc_exec::run_labeled("cells", cells.len(), POOL, |i| {
            rec.record("exec.queue_wait", "sweep", opened, opened.elapsed());
            let t = Instant::now();
            let out = traced_cell(rec, &traced_store, cells[i], &scale);
            rec.record("experiments.cell", &cells[i].label(), t, t.elapsed());
            rec.record("exec.run", "sweep", t, t.elapsed());
            out
        });
        traced_s += started.elapsed().as_secs_f64();
        store = Some(traced_store);
        if round == 1 {
            plain_s += plain_pass("plain1")?.1;
        }
    }
    let store = store.expect("two traced rounds ran");

    // Every replayed payload must equal the plain result and, when the
    // workload left its store, the system under test's own entry.
    let sut = match plan.sut_store {
        Some(p) => {
            Some(CacheStore::open(p, CELL_SCHEMA_VERSION).map_err(|e| format!("open store: {e}"))?)
        }
        None => None,
    };
    for (i, cell) in cells.iter().enumerate() {
        if traced[i].0 != plain[i] {
            errors.push(format!(
                "replayed {} differs from the library's result",
                cell.label()
            ));
        }
        if let Some(sut) = &sut {
            // Through the decode path: the stored cell must decode and
            // re-encode to the library's result.
            let (stored, _) = traced_cell(rec, sut, *cell, &scale);
            if stored != plain[i] {
                errors.push(format!(
                    "{} differs from the system under test's stored cell",
                    cell.label()
                ));
            }
        }
    }

    // Simulator inputs, re-generated per app cell outside the simulator.
    let mut layer: [Vec<f64>; 4] = Default::default();
    let (mut accesses, mut blocks) = (0u64, 0u64);
    for (cell, (_, run)) in cells.iter().zip(&traced) {
        let (Cell::App(kind, profile), Some(run)) = (cell, run) else {
            continue;
        };
        let inputs = sim_inputs(*kind, profile, &scale, run.result.transfer.blocks());
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        layer[0].push(ms(inputs.trace));
        layer[1].push(ms(inputs.values));
        layer[2].push(ms(inputs.transfer));
        if let Some(&total) = rec
            .durations_ms_labeled("sim.system_run", &cell.label())
            .first()
        {
            layer[3].push(total - ms(inputs.trace) - ms(inputs.values) - ms(inputs.transfer));
        }
        accesses += inputs.accesses;
        blocks += inputs.blocks;
    }

    // serve-mixed: the sweep's cells again, beside probe-sized cells
    // under their own fair-scheduling group, as the server runs them.
    if plan.probes {
        std::thread::scope(|s| {
            let prober = s.spawn(|| {
                let _group = desc_exec::install_group(Some(desc_exec::Group::new("probe", 1)));
                let probe = Scale {
                    apps: 1,
                    ..Scale::tiny()
                };
                let probe_cells = self::cells(&probe);
                for round in 0..4u64 {
                    let probe = Scale {
                        seed: plan.seed.wrapping_add(round),
                        ..probe
                    };
                    let opened = Instant::now();
                    desc_exec::run_labeled("cells", probe_cells.len(), POOL, |i| {
                        rec.record("exec.queue_wait", "probe", opened, opened.elapsed());
                        let t = Instant::now();
                        black_box(probe_cells[i].plain(&probe));
                        rec.record("exec.run", "probe", t, t.elapsed());
                    });
                }
            });
            let _group = desc_exec::install_group(Some(desc_exec::Group::new("sweep", 1)));
            desc_exec::run_labeled("cells", cells.len(), POOL, |i| {
                black_box(cells[i].plain(&scale))
            });
            prober.join().expect("probe replay panicked");
        });
    }

    // serve-warm: lookups against the pre-filled store, its hot tier
    // given the same share of the replay's cells as serve's budget is
    // of the whole sweep set.
    let mut stats = store.stats();
    let mut merge = |w: desc_cache::CacheStats| {
        stats.hits_memory += w.hits_memory;
        stats.hits_disk += w.hits_disk;
        stats.misses += w.misses;
        stats.stores += w.stores;
        stats.evictions += w.evictions;
    };
    if let Some(sut) = &sut {
        merge(sut.stats());
    }
    if let (Some((budget, passes)), Some(sut)) = (plan.warm, &sut) {
        let share = cells.len() as f64 / sut.manifest_cells().max(1) as f64;
        let warm = CacheStore::open(plan.sut_store.expect("sut store"), CELL_SCHEMA_VERSION)
            .map_err(|e| format!("open store: {e}"))?
            .with_mem_budget(((budget as f64 * share) as u64).max(1));
        for _ in 0..passes {
            let opened = Instant::now();
            let same = desc_exec::run_labeled("cells", cells.len(), POOL, |i| {
                rec.record("exec.queue_wait", "warm", opened, opened.elapsed());
                let t = Instant::now();
                let (payload, _) = traced_cell(rec, &warm, cells[i], &scale);
                rec.record("exec.run", "warm", t, t.elapsed());
                payload == plain[i]
            });
            if same.contains(&false) {
                errors.push("a warm lookup decoded to a different cell".to_owned());
            }
        }
        merge(warm.stats());
    }
    let exec_after = desc_exec::stats();

    let cell_ms = rec.durations_ms("experiments.cell");
    let write_ms: f64 = rec
        .durations_ms("cache.encode")
        .iter()
        .chain(&rec.durations_ms("cache.store"))
        .sum();
    let cell_total: f64 = cell_ms.iter().sum();
    let lookups = stats.hits() + stats.misses;
    let waits_label = if plan.probes {
        "probe"
    } else if plan.warm.is_some() {
        "warm"
    } else {
        "sweep"
    };
    let waits = rec.durations_ms_labeled("exec.queue_wait", waits_label);
    let runs = rec.durations_ms_labeled("exec.run", waits_label);
    let metrics = vec![
        ("experiments.cells", cell_ms.len() as f64, "count"),
        ("experiments.cell_p50_ms", med(&cell_ms), "ms"),
        ("workloads.trace_ms", med(&layer[0]), "ms"),
        ("workloads.values_ms", med(&layer[1]), "ms"),
        ("workloads.accesses", accesses as f64, "count"),
        (
            "sim.system_run_ms",
            med(&rec.durations_ms("sim.system_run")),
            "ms",
        ),
        (
            "sim.snuca_run_ms",
            med(&rec.durations_ms("sim.snuca_run")),
            "ms",
        ),
        ("sim.self_est_ms", med(&layer[3]), "ms"),
        ("core.transfer_many_ms", med(&layer[2]), "ms"),
        ("core.blocks", blocks as f64, "count"),
        (
            "cacti.energy_for_ms",
            med(&rec.durations_ms("cacti.energy_for")),
            "ms",
        ),
        (
            "mcpat.roll_up_ms",
            med(&rec.durations_ms("mcpat.roll_up")),
            "ms",
        ),
        ("cache.key_ms", med(&rec.durations_ms("cache.key")), "ms"),
        (
            "cache.lookup_ms",
            med(&rec.durations_ms("cache.lookup")),
            "ms",
        ),
        (
            "cache.decode_ms",
            med(&rec.durations_ms("cache.decode")),
            "ms",
        ),
        (
            "cache.encode_ms",
            med(&rec.durations_ms("cache.encode")),
            "ms",
        ),
        (
            "cache.store_ms",
            med(&rec.durations_ms("cache.store")),
            "ms",
        ),
        ("cache.hits_memory", stats.hits_memory as f64, "count"),
        ("cache.hits_disk", stats.hits_disk as f64, "count"),
        ("cache.misses", stats.misses as f64, "count"),
        ("cache.stores", stats.stores as f64, "count"),
        ("cache.evictions", stats.evictions as f64, "count"),
        (
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                stats.hits() as f64 / lookups as f64
            },
            "ratio",
        ),
        (
            "cache.write_share_pct",
            if cell_total > 0.0 {
                100.0 * write_ms / cell_total
            } else {
                0.0
            },
            "%",
        ),
        ("exec.queue_wait_p50_ms", med(&waits), "ms"),
        (
            "exec.queue_wait_p90_ms",
            percentile_or_zero(&waits, 0.9),
            "ms",
        ),
        ("exec.run_p50_ms", med(&runs), "ms"),
        (
            "exec.tasks",
            (exec_after.tasks_executed - exec_before.tasks_executed) as f64,
            "count",
        ),
        (
            "exec.tasks_helped",
            (exec_after.tasks_helped - exec_before.tasks_helped) as f64,
            "count",
        ),
        (
            "exec.cap_rejections",
            (exec_after.cap_rejections - exec_before.cap_rejections) as f64,
            "count",
        ),
        (
            "trace.overhead_pct",
            100.0 * (traced_s - plain_s) / plain_s,
            "%",
        ),
    ];
    Ok(Layers {
        metrics,
        attempted: cells.len() as u64,
        errors,
    })
}
