//! Cell-level memoization: content addresses for sweep cells, the
//! compact binary cell-result codecs, and the process-wide store
//! handle installed by `repro --cache-dir`.
//!
//! A *cell* is one `(scheme, machine config, app profile, seed,
//! accesses)` simulation — the unit [`crate::common::run_matrix`]
//! schedules. Its content address ([`app_key`] / [`snuca_key`]) hashes
//! every input that can change the result and **nothing that cannot**:
//! `Scale::jobs` and `SimConfig::shards` are concurrency caps with a
//! bit-identical-results contract, so they are excluded (shards is
//! zeroed in the fingerprinted config copy) and a cell computed under
//! `--jobs 8 --shards 4` serves a later `--jobs 1` run.
//!
//! Scheme constructors take parameters (`wires`,
//! [`ChunkSize`](desc_core::ChunkSize),
//! [`SkipMode`](desc_core::schemes::SkipMode), sync-strobe ablation)
//! that `TransferScheme::name` does not expose, so every keyed call
//! site supplies a `scheme_id` string spelling out the constructor
//! arguments; the key also folds in `name()` and the wire budget as a
//! cross-check.
//!
//! Payloads are encoded with the fixed-field-order codecs below
//! ([`encode_app_run`] / [`encode_snuca`]); floats travel as exact bit
//! patterns, so a warm hit is bitwise identical to the cold compute.
//! Any change to a result struct or to key derivation must bump
//! [`CELL_SCHEMA_VERSION`] — old entries then read as version
//! mismatches and recompute, never as wrong figures.

use crate::common::{AppRun, Scale};
use desc_cache::{CacheStore, CellKey, CodecError, Decoder, Encoder, KeyHasher};
use desc_cacti::cache::CacheActivity;
use desc_cacti::EnergyBreakdown;
use desc_core::{CostSummary, TransferCost, TransferScheme};
use desc_mcpat::ProcessorEnergy;
use desc_sim::snuca::SnucaResult;
use desc_sim::{SimConfig, SimResult};
use desc_workloads::BenchmarkProfile;
use std::sync::{Arc, Mutex};

/// Version of the cell payload schema (codec field order **and** key
/// derivation). Bump on any change to either; stale entries are then
/// counted as `version_mismatches` and recomputed.
pub const CELL_SCHEMA_VERSION: u32 = 1;

static STORE: Mutex<Option<Arc<CacheStore>>> = Mutex::new(None);

/// Installs (or with `None`, removes) the process-wide cell store that
/// [`crate::common::run_custom_keyed`] consults. `repro` installs one
/// when `--cache-dir` is given.
pub fn install(store: Option<Arc<CacheStore>>) {
    *STORE.lock().expect("cache store handle poisoned") = store;
}

/// The installed store, if any.
#[must_use]
pub fn active() -> Option<Arc<CacheStore>> {
    STORE.lock().expect("cache store handle poisoned").clone()
}

/// Hashes the parts of a cell spec shared by both simulators: the
/// scheme identity and the normalised machine config. `shards` is
/// zeroed (concurrency cap, not an input) and `bus_width_bits` is set
/// to the scheme's wire budget exactly as the run paths do, so the
/// fingerprint matches the config the simulation actually sees.
fn write_common(
    h: &mut KeyHasher,
    scheme_id: &str,
    scheme: &dyn TransferScheme,
    config: &SimConfig,
    profile: &BenchmarkProfile,
    seed: u64,
    accesses: usize,
) {
    h.write_u32(CELL_SCHEMA_VERSION);
    h.write_str(scheme_id);
    h.write_str(scheme.name());
    h.write_u64(scheme.wires().total() as u64);
    let mut cfg = *config;
    cfg.shards = 0;
    cfg.l2.bus_width_bits = scheme.wires().total();
    h.write_str(&format!("{cfg:?}"));
    h.write_str(&format!("{profile:?}"));
    h.write_u64(seed);
    h.write_u64(accesses as u64);
}

/// Content address of one UCA app cell (the
/// [`crate::common::run_custom_keyed`] pipeline).
#[must_use]
pub fn app_key(
    scheme_id: &str,
    scheme: &dyn TransferScheme,
    config: &SimConfig,
    profile: &BenchmarkProfile,
    scale: &Scale,
    static_overhead: f64,
) -> CellKey {
    let mut h = KeyHasher::new("app");
    write_common(&mut h, scheme_id, scheme, config, profile, scale.seed, scale.accesses);
    h.write_f64_bits(static_overhead);
    h.finish()
}

/// Content address of one S-NUCA-1 cell (one
/// [`desc_sim::SnucaSim::run`] call), shared by fig. 23 and fig. 24.
#[must_use]
pub fn snuca_key(
    scheme_id: &str,
    scheme: &dyn TransferScheme,
    config: &SimConfig,
    profile: &BenchmarkProfile,
    seed: u64,
    accesses: usize,
) -> CellKey {
    let mut h = KeyHasher::new("snuca");
    write_common(&mut h, scheme_id, scheme, config, profile, seed, accesses);
    h.finish()
}

fn put_transfer(e: &mut Encoder, t: &CostSummary) {
    let total = t.total();
    e.put_u64(total.data_transitions);
    e.put_u64(total.control_transitions);
    e.put_u64(total.sync_transitions);
    e.put_u64(total.cycles);
    e.put_u64(total.latency_cycles);
    e.put_u64(t.blocks());
    e.put_u64(t.max_cycles());
}

fn get_transfer(d: &mut Decoder) -> Result<CostSummary, CodecError> {
    let total = TransferCost {
        data_transitions: d.u64()?,
        control_transitions: d.u64()?,
        sync_transitions: d.u64()?,
        cycles: d.u64()?,
        latency_cycles: d.u64()?,
    };
    let blocks = d.u64()?;
    let max_cycles = d.u64()?;
    Ok(CostSummary::from_parts(total, blocks, max_cycles))
}

fn put_energy(e: &mut Encoder, b: &EnergyBreakdown) {
    e.put_f64(b.static_j);
    e.put_f64(b.array_dynamic_j);
    e.put_f64(b.htree_dynamic_j);
}

fn get_energy(d: &mut Decoder) -> Result<EnergyBreakdown, CodecError> {
    Ok(EnergyBreakdown {
        static_j: d.f64()?,
        array_dynamic_j: d.f64()?,
        htree_dynamic_j: d.f64()?,
    })
}

/// Serializes an [`AppRun`] into the cell payload format (fixed field
/// order, floats as exact bit patterns).
#[must_use]
pub fn encode_app_run(run: &AppRun) -> Vec<u8> {
    let mut e = Encoder::new();
    let r = &run.result;
    e.put_u64(r.accesses);
    e.put_u64(r.hits);
    e.put_u64(r.misses);
    e.put_u64(r.writebacks);
    e.put_u64(r.invalidations);
    e.put_f64(r.avg_hit_latency_cycles);
    e.put_f64(r.avg_access_latency_cycles);
    e.put_u64(r.exec_cycles);
    e.put_f64(r.exec_time_s);
    e.put_u64(r.instructions);
    e.put_u64(r.activity.htree_transitions);
    e.put_u64(r.activity.array_reads);
    e.put_u64(r.activity.array_writes);
    e.put_u64(r.activity.tag_lookups);
    e.put_f64(r.activity.elapsed_s);
    put_transfer(&mut e, &r.transfer);
    put_energy(&mut e, &run.l2);
    e.put_f64(run.processor.core_j);
    e.put_f64(run.processor.l1_j);
    put_energy(&mut e, &run.processor.l2);
    e.put_f64(run.processor.dram_j);
    e.into_bytes()
}

/// Inverse of [`encode_app_run`].
///
/// # Errors
///
/// Fails on truncated or trailing bytes — the store layer then counts
/// the entry corrupt and the cell recomputes.
pub fn decode_app_run(bytes: &[u8]) -> Result<AppRun, CodecError> {
    let mut d = Decoder::new(bytes);
    let result = SimResult {
        accesses: d.u64()?,
        hits: d.u64()?,
        misses: d.u64()?,
        writebacks: d.u64()?,
        invalidations: d.u64()?,
        avg_hit_latency_cycles: d.f64()?,
        avg_access_latency_cycles: d.f64()?,
        exec_cycles: d.u64()?,
        exec_time_s: d.f64()?,
        instructions: d.u64()?,
        activity: CacheActivity {
            htree_transitions: d.u64()?,
            array_reads: d.u64()?,
            array_writes: d.u64()?,
            tag_lookups: d.u64()?,
            elapsed_s: d.f64()?,
        },
        transfer: get_transfer(&mut d)?,
    };
    let l2 = get_energy(&mut d)?;
    let processor = ProcessorEnergy {
        core_j: d.f64()?,
        l1_j: d.f64()?,
        l2: get_energy(&mut d)?,
        dram_j: d.f64()?,
    };
    d.finish()?;
    Ok(AppRun { result, l2, processor })
}

/// Serializes a [`SnucaResult`] into the cell payload format.
#[must_use]
pub fn encode_snuca(r: &SnucaResult) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(r.accesses);
    e.put_u64(r.misses);
    e.put_u64(r.exec_cycles);
    e.put_f64(r.exec_time_s);
    e.put_f64(r.wire_energy_j);
    e.put_f64(r.array_energy_j);
    e.put_f64(r.static_energy_j);
    e.put_f64(r.avg_hit_latency_cycles);
    e.into_bytes()
}

/// Inverse of [`encode_snuca`].
///
/// # Errors
///
/// Fails on truncated or trailing bytes.
pub fn decode_snuca(bytes: &[u8]) -> Result<SnucaResult, CodecError> {
    let mut d = Decoder::new(bytes);
    let r = SnucaResult {
        accesses: d.u64()?,
        misses: d.u64()?,
        exec_cycles: d.u64()?,
        exec_time_s: d.f64()?,
        wire_energy_j: d.f64()?,
        array_energy_j: d.f64()?,
        static_energy_j: d.f64()?,
        avg_hit_latency_cycles: d.f64()?,
    };
    d.finish()?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_app, scheme_static_overhead};
    use desc_core::schemes::SchemeKind;
    use desc_workloads::BenchmarkId;

    fn sample_run() -> AppRun {
        run_app(
            SchemeKind::ZeroSkippedDesc,
            &BenchmarkId::Radix.profile(),
            &Scale::tiny(),
        )
    }

    fn assert_bitwise_equal(a: &AppRun, b: &AppRun) {
        // Float fields must round-trip *bitwise*, not just approximately.
        assert_eq!(encode_app_run(a), encode_app_run(b));
    }

    #[test]
    fn app_run_round_trips_bitwise() {
        let run = sample_run();
        let bytes = encode_app_run(&run);
        let back = decode_app_run(&bytes).expect("decode");
        assert_bitwise_equal(&run, &back);
        assert_eq!(run.result.accesses, back.result.accesses);
        assert_eq!(run.result.transfer.blocks(), back.result.transfer.blocks());
        assert_eq!(
            run.result.transfer.total(),
            back.result.transfer.total(),
        );
        assert_eq!(run.l2, back.l2);
        assert_eq!(run.processor, back.processor);
    }

    #[test]
    fn app_run_decode_rejects_truncation_and_trailing_bytes() {
        let bytes = encode_app_run(&sample_run());
        assert!(decode_app_run(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_app_run(&longer).is_err());
    }

    #[test]
    fn snuca_round_trips_bitwise() {
        let r = SnucaResult {
            accesses: 11,
            misses: 3,
            exec_cycles: 1234,
            exec_time_s: 0.125,
            wire_energy_j: 1.0e-9,
            array_energy_j: 2.5e-9,
            static_energy_j: 0.1 + 0.2, // deliberately non-representable
            avg_hit_latency_cycles: 17.75,
        };
        let back = decode_snuca(&encode_snuca(&r)).expect("decode");
        assert_eq!(encode_snuca(&r), encode_snuca(&back));
        assert_eq!(r.static_energy_j.to_bits(), back.static_energy_j.to_bits());
    }

    #[test]
    fn keys_ignore_concurrency_but_see_every_input() {
        let kind = SchemeKind::ZeroSkippedDesc;
        let scheme = kind.build_paper_config();
        let cfg = SimConfig::paper_multithreaded();
        let profile = BenchmarkId::Radix.profile();
        let overhead = scheme_static_overhead(kind);
        let base = Scale::tiny();
        let key = |scale: &Scale, id: &str, ov: f64| {
            app_key(id, scheme.as_ref(), &cfg, &profile, scale, ov)
        };
        let k = key(&base, "paper:ZeroSkippedDesc", overhead);
        // jobs/shards are concurrency caps, not inputs.
        assert_eq!(k, key(&base.with_jobs(8).with_shards(4), "paper:ZeroSkippedDesc", overhead));
        // Every real input changes the key.
        let mut reseeded = base;
        reseeded.seed = 999;
        assert_ne!(k, key(&reseeded, "paper:ZeroSkippedDesc", overhead));
        let mut rescaled = base;
        rescaled.accesses += 1;
        assert_ne!(k, key(&rescaled, "paper:ZeroSkippedDesc", overhead));
        assert_ne!(k, key(&base, "paper:ZeroSkippedDesc:variant", overhead));
        assert_ne!(k, key(&base, "paper:ZeroSkippedDesc", 1.0));
        let mut other_cfg = cfg;
        other_cfg.l2.banks *= 2;
        assert_ne!(
            k,
            app_key("paper:ZeroSkippedDesc", scheme.as_ref(), &other_cfg, &profile, &base, overhead)
        );
        // Same spec under the snuca domain is a different address.
        assert_ne!(
            (k.hi, k.lo),
            {
                let s = snuca_key(
                    "paper:ZeroSkippedDesc",
                    scheme.as_ref(),
                    &cfg,
                    &profile,
                    base.seed,
                    base.accesses,
                );
                (s.hi, s.lo)
            }
        );
    }

    #[test]
    fn install_and_active_round_trip() {
        // Serialized with other store users via the handle itself.
        let store = Arc::new(CacheStore::in_memory(CELL_SCHEMA_VERSION));
        install(Some(Arc::clone(&store)));
        assert!(active().is_some());
        install(None);
    }
}
