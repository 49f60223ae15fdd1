//! S-NUCA-1 system simulation (paper §5.5, Figs. 23/24).
//!
//! 128 banks with private, statically-routed 128-bit channels: access
//! latency and wire energy depend on the bank, there is no shared
//! H-tree trunk, and bank-level parallelism is abundant. Each bank's
//! channel keeps its own wire state, so transfer schemes are
//! instantiated per bank.
//!
//! # Bank-sharded execution
//!
//! The S-NUCA organisation is the ideal case for the bank-sharded
//! decomposition used by [`crate::system::SystemSim`], because the
//! serial model *already* gives every bank a private channel (its own
//! [`TransferScheme`] replica) and a private value stream: there is no
//! shared wire state to replicate, so the per-bank decomposition is
//! exact by construction. One simulation cell always decomposes into
//! one partition per bank — each owning the bank's directory slice
//! ([`crate::cache::SetAssocCache::bank_slice`]), channel replica
//! ([`TransferScheme::clone_box`]), value stream
//! (`mix_seed(seed, bank)`), and port schedule — and the partitions run
//! serially or on up to [`crate::config::SimConfig::shards`] worker
//! threads. The only cross-bank coupling, DRAM channel contention, is
//! reconciled at a deterministic epoch barrier: partitions emit miss
//! requests with issue timestamps, and the requests are replayed
//! through one shared [`Dram`] ordered by
//! `(issue / dram_epoch_cycles, program index)`. Results are therefore
//! **bit-identical for any shard count**.

use crate::bank::{home_bank, BankScheduler};
use crate::batch::{ChannelBatch, FLUSH_CAP};
use crate::cache::{CacheOutcome, SetAssocCache};
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::shard::run_parts;
use desc_cacti::snuca::SnucaModel;
use desc_core::TransferScheme;
use desc_workloads::{Access, BenchmarkProfile};
use std::sync::Mutex;

/// Result of an S-NUCA-1 run.
#[derive(Clone, Debug)]
pub struct SnucaResult {
    /// L2 accesses simulated.
    pub accesses: u64,
    /// L2 misses.
    pub misses: u64,
    /// Execution time in cycles.
    pub exec_cycles: u64,
    /// Execution time in seconds.
    pub exec_time_s: f64,
    /// Wire switching energy on the bank channels in joules.
    pub wire_energy_j: f64,
    /// Array + tag dynamic energy in joules.
    pub array_energy_j: f64,
    /// Leakage energy in joules.
    pub static_energy_j: f64,
    /// Mean intrinsic hit latency in cycles.
    pub avg_hit_latency_cycles: f64,
}

impl SnucaResult {
    /// Total L2 energy in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.wire_energy_j + self.array_energy_j + self.static_energy_j
    }
}

/// Per-bank array delay: S-NUCA banks are 64 KB, much faster than the
/// UCA's 1 MB banks — a fixed 3-cycle array access.
const ARRAY_CYCLES: u64 = 3;

/// One bank partition's output. Every field merges
/// order-independently (sums, maxima, histogram absorbs), so the
/// reduction over partitions is deterministic for any shard count.
struct PartitionOut {
    wire_energy_j: f64,
    array_energy_j: f64,
    hits: u64,
    misses: u64,
    hit_latency_sum: u64,
    /// Queue + intrinsic latency over the partition's accesses; the
    /// DRAM share of miss latency is added at the epoch barrier.
    latency_sum: u64,
    horizon: u64,
    transitions: u64,
    /// Miss requests for the shared DRAM, exchanged at the barrier.
    events: Vec<MissEvent>,
    hit_latency_hist: desc_telemetry::LocalHistogram,
}

/// An access whose bookkeeping is deferred until its channel's batch
/// drains: the S-NUCA energy sums are `f64` accumulations whose order
/// must match the per-access scalar loop bit for bit, so *everything*
/// except the directory lookup and the value-stream draws replays at
/// drain time, in program order.
struct PendingAccess {
    idx: u32,
    addr: u64,
    bank: usize,
    miss: bool,
    writeback: bool,
}

/// A cross-bank DRAM request exchanged at the epoch barrier.
struct MissEvent {
    /// Global program-order index — the within-epoch order.
    idx: u64,
    addr: u64,
    /// Cycle the request reaches DRAM (bank start + array + wire).
    issue: u64,
    /// Requester arrival time, subtracted from the DRAM completion to
    /// yield the access's memory latency share.
    arrival: u64,
}

/// A configured S-NUCA-1 simulation.
///
/// The same `SnucaSim` can run different transfer schemes; each run
/// replays the identical trace and per-bank block-content streams, so
/// scheme comparisons are paired.
pub struct SnucaSim {
    config: SimConfig,
    profile: BenchmarkProfile,
    seed: u64,
}

impl SnucaSim {
    /// Creates an S-NUCA-1 simulation of `profile`.
    #[must_use]
    pub fn new(config: SimConfig, profile: BenchmarkProfile, seed: u64) -> Self {
        Self { config, profile, seed }
    }

    /// Runs `accesses` accesses through `scheme` and returns the
    /// measured result.
    ///
    /// `scheme` supplies the configuration — each of the 128 bank
    /// channels gets its own power-on replica via
    /// [`TransferScheme::clone_box`], because S-NUCA channels have
    /// independent wire state. The cell always decomposes into one
    /// partition per bank, executed on up to
    /// [`SimConfig::shards`] worker threads (see the module docs);
    /// the result is bit-identical for any shard count.
    ///
    /// # Examples
    ///
    /// ```
    /// use desc_core::schemes::SchemeKind;
    /// use desc_sim::{SimConfig, SnucaSim};
    /// use desc_workloads::BenchmarkId;
    ///
    /// let mut cfg = SimConfig::paper_multithreaded();
    /// cfg.shards = 2; // worker threads; the result does not depend on this
    /// let sim = SnucaSim::new(cfg, BenchmarkId::Ocean.profile(), 2013);
    /// let r = sim.run(SchemeKind::ZeroSkippedDesc.build_paper_config(), 2_000);
    /// assert_eq!(r.accesses, 2_000);
    /// assert!(r.wire_energy_j > 0.0 && r.exec_time_s > 0.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is zero.
    pub fn run(&self, scheme: Box<dyn TransferScheme>, accesses: usize) -> SnucaResult {
        assert!(accesses > 0, "simulate at least one access");
        let cfg = &self.config;
        let model = SnucaModel::paper_default();
        let banks_n = model.banks();
        let is_desc = scheme.name().contains("DESC");
        let iface = if is_desc { cfg.desc_interface_cycles } else { 0 };
        let block_bytes = cfg.l2.block_bytes as u64;
        let cache_model = desc_cacti::CacheModel::new(cfg.l2);

        // One partition per bank whenever the geometry decomposes
        // (power-of-two bank count no larger than the set count — the
        // paper's 128-bank / 8192-set configuration always does);
        // otherwise a single partition simulates all banks. Either
        // way the partition count is fixed by the configuration, never
        // by `shards`, so results are shard-count invariant.
        let capacity_blocks = cfg.l2.capacity_bytes / cfg.l2.block_bytes;
        let set_count = capacity_blocks / cfg.l2.associativity;
        let parts = if banks_n.is_power_of_two() && banks_n <= set_count { banks_n } else { 1 };
        let threads = cfg.shards.max(1);

        // The trace is generated once (one sequential RNG stream) and
        // bucketed by owning partition *during* generation: with 128
        // bank partitions, the old shared-trace-plus-`owns()`-filter
        // approach re-scanned the full trace 128 times per cell, which
        // dominated S-NUCA wall-clock. Warmup (directory only — no
        // transfers, no energy) brings the directory to steady state.
        let warmup = (2 * capacity_blocks).max(accesses);
        assert!(accesses < u32::MAX as usize, "measured window exceeds u32 program indices");
        let mut trace_gen = self.profile.trace(self.seed);
        let mut warm_parts: Vec<Vec<Access>> =
            (0..parts).map(|_| Vec::with_capacity(warmup / parts + warmup / 16 + 8)).collect();
        let mut meas_parts: Vec<Vec<(u32, Access)>> =
            (0..parts).map(|_| Vec::with_capacity(accesses / parts + accesses / 16 + 8)).collect();
        for i in 0..warmup + accesses {
            let a = trace_gen.next_access();
            let p = home_bank(a.addr, block_bytes, banks_n) % parts;
            if i < warmup {
                warm_parts[p].push(a);
            } else {
                meas_parts[p].push(((i - warmup) as u32, a));
            }
        }

        // One channel replica per bank, cloned up front on this thread
        // (`clone_box` borrows the template); each partition takes its
        // owned banks' replicas.
        let replicas: Vec<Mutex<Option<Box<dyn TransferScheme>>>> = (0..banks_n)
            .map(|_| {
                let mut replica = scheme.clone_box();
                replica.reset();
                Mutex::new(Some(replica))
            })
            .collect();

        let telemetry = desc_telemetry::enabled();

        let apki = self.profile.l2_apki;
        let cores = self.profile.cores as f64;
        let base_cpa = 1000.0 / (apki * cores * self.profile.base_ipc);

        // ---- Per-bank phase: directory, transfers, bank timing. -----
        // Partition `p` owns banks `b` with `b % parts == p` (exactly
        // bank `p` in the decomposed case): its directory slice, the
        // banks' channel replicas and value streams, and the banks'
        // port schedules. Partitions share no mutable state; the merge
        // below is a deterministic reduction in fixed bank order.
        let outs: Vec<PartitionOut> = run_parts(parts, threads, |p| {
            let mut l2 = SetAssocCache::bank_slice(
                cfg.l2.capacity_bytes,
                cfg.l2.block_bytes,
                cfg.l2.associativity,
                parts,
                p,
            );
            // Owned bank `b` lives at index `b / parts` (b ≡ p mod parts).
            let mut channels: Vec<(Box<dyn TransferScheme>, desc_workloads::ValueStream)> =
                (p..banks_n)
                    .step_by(parts)
                    .map(|b| {
                        let replica = replicas[b]
                            .lock()
                            .expect("replica mutex poisoned")
                            .take()
                            .expect("each bank's replica is taken once");
                        (replica, self.profile.value_stream_for_bank(self.seed, b))
                    })
                    .collect();
            let mut sched = BankScheduler::new(banks_n);

            for &Access { addr, write, core } in &warm_parts[p] {
                let _ = l2.access(addr, write, core);
            }

            let mut out = PartitionOut {
                wire_energy_j: 0.0,
                array_energy_j: 0.0,
                hits: 0,
                misses: 0,
                hit_latency_sum: 0,
                latency_sum: 0,
                horizon: 0,
                transitions: 0,
                events: Vec::new(),
                hit_latency_hist: desc_telemetry::LocalHistogram::new(),
            };
            // Transfers are batched per channel; the queued accesses
            // replay in program order at drain time, so the f64 energy
            // accumulation order — and with it every result bit — is
            // identical to the per-access scalar loop.
            let mut batches: Vec<ChannelBatch> =
                (0..channels.len()).map(|_| ChannelBatch::new(cfg.l2.block_bytes)).collect();
            let mut pending: Vec<PendingAccess> = Vec::with_capacity(FLUSH_CAP);

            let drain = |channels: &mut [(Box<dyn TransferScheme>, desc_workloads::ValueStream)],
                         batches: &mut [ChannelBatch],
                         pending: &mut Vec<PendingAccess>,
                         sched: &mut BankScheduler,
                         out: &mut PartitionOut| {
                if pending.is_empty() {
                    return;
                }
                for (ch, batch) in batches.iter_mut().enumerate() {
                    if batch.queued() > 0 {
                        batch.encode(channels[ch].0.as_mut());
                    }
                }
                for pa in pending.drain(..) {
                    let bank = pa.bank;
                    let wire_lat = model.bank_latency_cycles(bank);
                    let arrival = (f64::from(pa.idx) * base_cpa) as u64;
                    out.array_energy_j += cache_model.tag_access_energy();

                    // (occupancy cycles, effective latency cycles) —
                    // the effective window (Fig. 21) makes the
                    // requester-visible latency shorter than the
                    // port-occupancy window.
                    let take = |out: &mut PartitionOut, batch: &mut ChannelBatch| -> (u64, u64) {
                        let cost = batch.next_cost();
                        let transitions = cost.total_transitions();
                        out.transitions += transitions;
                        out.wire_energy_j +=
                            transitions as f64 * model.bank_energy_per_transition(bank);
                        (cost.cycles, cost.latency())
                    };

                    let batch = &mut batches[bank / parts];
                    if pa.miss {
                        out.misses += 1;
                        let (fill, fill_lat) = take(out, batch);
                        out.array_energy_j += cache_model.array_write_energy();
                        let mut service = ARRAY_CYCLES + fill;
                        if pa.writeback {
                            service += take(out, batch).0;
                            out.array_energy_j += cache_model.array_read_energy();
                        }
                        let (start, queue) = sched.schedule(bank, arrival, service);
                        out.events.push(MissEvent {
                            idx: u64::from(pa.idx),
                            addr: pa.addr,
                            issue: start + ARRAY_CYCLES + wire_lat,
                            arrival,
                        });
                        // The DRAM share (completion − arrival) is
                        // added at the epoch barrier below.
                        out.latency_sum += queue + fill_lat + iface;
                    } else {
                        out.hits += 1;
                        let (cycles, lat) = take(out, batch);
                        out.array_energy_j += cache_model.array_read_energy();
                        let latency = ARRAY_CYCLES + wire_lat + lat + iface;
                        out.hit_latency_sum += latency;
                        if telemetry {
                            out.hit_latency_hist.record(latency);
                        }
                        let (_, queue) = sched.schedule(bank, arrival, ARRAY_CYCLES + cycles);
                        out.latency_sum += latency + queue;
                    }
                }
            };

            let mut queued_blocks = 0usize;
            for &(i, Access { addr, write, core }) in &meas_parts[p] {
                let bank = home_bank(addr, block_bytes, banks_n);
                // Queue the access's block(s) — the stream's scratch
                // block is copied into the slab, so the draw order and
                // bytes are identical to per-access transfers.
                let (miss, writeback) = match l2.access(addr, write, core) {
                    CacheOutcome::Hit => (false, false),
                    CacheOutcome::Miss { writeback } => (true, writeback),
                };
                let (_, values) = &mut channels[bank / parts];
                let batch = &mut batches[bank / parts];
                batch.push(values.next_block_ref());
                queued_blocks += 1;
                if miss && writeback {
                    batch.push(values.next_block_ref());
                    queued_blocks += 1;
                }
                pending.push(PendingAccess { idx: i, addr, bank, miss, writeback });
                if queued_blocks >= FLUSH_CAP {
                    drain(&mut channels, &mut batches, &mut pending, &mut sched, &mut out);
                    queued_blocks = 0;
                }
            }
            drain(&mut channels, &mut batches, &mut pending, &mut sched, &mut out);
            out.horizon = sched.horizon();
            out
        });

        // ---- Epoch barrier: shared DRAM replay. ---------------------
        // Cross-bank DRAM channel contention is the one coupling the
        // partitions cannot resolve alone. Requests are ordered by
        // (issue epoch, program order) — a pure function of the
        // per-partition outputs, hence identical for any shard count —
        // and replayed through one shared DRAM.
        let epoch_cycles = cfg.dram_epoch_cycles.max(1);
        let mut events: Vec<MissEvent> = Vec::new();
        let mut outs = outs;
        for out in &mut outs {
            events.append(&mut out.events);
        }
        events.sort_unstable_by_key(|e| (e.issue / epoch_cycles, e.idx));
        let mut dram =
            Dram::new(cfg.dram_channels, cfg.dram_latency_cycles, cfg.dram_occupancy_cycles);
        let mut dram_latency_sum = 0u64;
        for e in &events {
            let done = dram.access(e.addr, e.issue);
            dram_latency_sum += done - e.arrival;
        }

        // ---- Deterministic merge, fixed bank order. -----------------
        let mut wire_energy_j = 0.0f64;
        let mut array_energy_j = 0.0f64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut hit_latency_sum = 0u64;
        let mut latency_sum = dram_latency_sum;
        let mut transitions = 0u64;
        let mut hit_latency_hist = desc_telemetry::LocalHistogram::new();
        let mut horizon = 0u64;
        for out in &outs {
            wire_energy_j += out.wire_energy_j;
            array_energy_j += out.array_energy_j;
            hits += out.hits;
            misses += out.misses;
            hit_latency_sum += out.hit_latency_sum;
            latency_sum += out.latency_sum;
            transitions += out.transitions;
            horizon = horizon.max(out.horizon);
            hit_latency_hist.absorb(&out.hit_latency_hist);
        }

        let base_cycles = (accesses as f64 * base_cpa).ceil() as u64;
        let stall = (latency_sum as f64 * cfg.core.exposure() / cores) as u64;
        let exec_cycles = (base_cycles + stall).max(horizon);
        let exec_time_s = exec_cycles as f64 * cfg.l2.tech.cycle_s();
        let static_energy_j = cache_model.leakage_power() * exec_time_s;

        if telemetry {
            desc_telemetry::counter!("sim.snuca.accesses").add(accesses as u64);
            desc_telemetry::counter!("sim.snuca.hits").add(hits);
            desc_telemetry::counter!("sim.snuca.misses").add(misses);
            desc_telemetry::counter!("sim.snuca.wire_transitions").add(transitions);
            desc_telemetry::counter!("sim.snuca.dram.accesses").add(dram.accesses());
            desc_telemetry::counter!("sim.snuca.dram.row_hits").add(dram.row_hits());
            hit_latency_hist
                .flush_into(desc_telemetry::histogram!("sim.snuca.hit_latency_cycles"));
            desc_telemetry::counter!("sim.snuca.runs").incr();
        }

        SnucaResult {
            accesses: accesses as u64,
            misses,
            exec_cycles,
            exec_time_s,
            wire_energy_j,
            array_energy_j,
            static_energy_j,
            avg_hit_latency_cycles: if hits > 0 {
                hit_latency_sum as f64 / hits as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desc_core::schemes::SchemeKind;
    use desc_workloads::BenchmarkId;

    fn run(kind: SchemeKind, n: usize) -> SnucaResult {
        let cfg = SimConfig::paper_multithreaded();
        let sim = SnucaSim::new(cfg, BenchmarkId::Ocean.profile(), 11);
        sim.run(kind.build_paper_config(), n)
    }

    #[test]
    fn desc_reduces_snuca_wire_energy() {
        // Paper Fig. 24: zero-skipped DESC improves S-NUCA-1 cache
        // energy by ≈1.6×.
        let bin = run(SchemeKind::ConventionalBinary, 8_000);
        let desc = run(SchemeKind::ZeroSkippedDesc, 8_000);
        assert!(
            desc.wire_energy_j < 0.8 * bin.wire_energy_j,
            "DESC {:.3e} vs binary {:.3e}",
            desc.wire_energy_j,
            bin.wire_energy_j
        );
    }

    #[test]
    fn desc_snuca_execution_penalty_is_small() {
        // Paper Fig. 23: ≈1% execution-time penalty.
        let bin = run(SchemeKind::ConventionalBinary, 8_000);
        let desc = run(SchemeKind::ZeroSkippedDesc, 8_000);
        let overhead = desc.exec_time_s / bin.exec_time_s - 1.0;
        assert!(overhead < 0.05, "S-NUCA overhead {overhead:.3}");
    }

    #[test]
    fn hit_latency_sits_in_the_3_to_13_cycle_band_plus_transfer() {
        let bin = run(SchemeKind::ConventionalBinary, 6_000);
        // array 3 + wire 3..13 + 4 beats (128-bit port → 512/128).
        assert!(
            bin.avg_hit_latency_cycles > 8.0 && bin.avg_hit_latency_cycles < 25.0,
            "hit latency {:.1}",
            bin.avg_hit_latency_cycles
        );
    }

    #[test]
    fn energy_components_are_positive() {
        let r = run(SchemeKind::ZeroSkippedDesc, 4_000);
        assert!(r.wire_energy_j > 0.0);
        assert!(r.array_energy_j > 0.0);
        assert!(r.static_energy_j > 0.0);
        assert!(r.total_energy_j() > r.wire_energy_j);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(SchemeKind::ZeroSkippedDesc, 3_000);
        let b = run(SchemeKind::ZeroSkippedDesc, 3_000);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert!((a.wire_energy_j - b.wire_energy_j).abs() < 1e-18);
    }

    #[test]
    fn shard_count_never_changes_results() {
        // The decomposition unit is the bank — all 128 of them, fixed
        // by the S-NUCA configuration — and `shards` only picks the
        // worker-thread count, so results must be bit-identical for
        // any shard count, including with a stateful last-value
        // scheme whose wire state evolves per channel.
        desc_exec::configure(4);
        for (kind, seed) in [
            (SchemeKind::ZeroSkippedDesc, 2013u64),
            (SchemeKind::LastValueSkippedDesc, 99),
        ] {
            let serial = {
                let mut cfg = SimConfig::paper_multithreaded();
                cfg.shards = 1;
                SnucaSim::new(cfg, BenchmarkId::Ocean.profile(), seed)
                    .run(kind.build_paper_config(), 5_000)
            };
            for shards in [2, 8, 32] {
                let mut cfg = SimConfig::paper_multithreaded();
                cfg.shards = shards;
                let sharded = SnucaSim::new(cfg, BenchmarkId::Ocean.profile(), seed)
                    .run(kind.build_paper_config(), 5_000);
                assert_eq!(serial.misses, sharded.misses, "shards={shards}");
                assert_eq!(serial.exec_cycles, sharded.exec_cycles, "shards={shards}");
                assert_eq!(
                    serial.wire_energy_j.to_bits(),
                    sharded.wire_energy_j.to_bits(),
                    "shards={shards}"
                );
                assert_eq!(
                    serial.array_energy_j.to_bits(),
                    sharded.array_energy_j.to_bits(),
                    "shards={shards}"
                );
                assert_eq!(
                    serial.avg_hit_latency_cycles.to_bits(),
                    sharded.avg_hit_latency_cycles.to_bits(),
                    "shards={shards}"
                );
            }
        }
    }
}
