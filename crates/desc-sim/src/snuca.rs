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
//! The cell splits into bank partitions through the skeleton it shares
//! with [`crate::system::SystemSim`] (`shard.rs`, DESIGN.md §10). The
//! serial model *already* gives every bank a private channel (its own
//! [`TransferScheme`] replica) and a private value stream, so there is
//! no shared wire state to replicate and the decomposition is exact by
//! construction. Partition `p` owns the banks `b ≡ p (mod parts)`:
//! their outcome stream (what their directory slice decided, shared
//! by every scheme run on the same cell input), channel replicas,
//! value streams and port schedules — exactly bank `p` for the
//! paper's 128-bank / 8192-set L2, all banks when the set count is
//! below the bank count. The only cross-bank coupling, DRAM channel
//! contention, is reconciled at the epoch barrier, whose completions
//! add `completion − arrival` to the latency sum. Results are
//! therefore **bit-identical for any shard count**.
//!
//! A partition's pass encodes first — the skeleton draws and encodes
//! every block each of its bank channels moves — and then accounts in
//! one program-order loop, so the `f64` energy sums accumulate in the
//! per-access order whatever the channel count.
//!
//! What is particular to this organisation: per-bank wire latency and
//! energy, bank timing scheduled inside that loop, and a single timing
//! pass at the base arrival rate.

use crate::bank::BankScheduler;
use crate::cache::CacheOutcome;
use crate::config::SimConfig;
use crate::shard::{replay_dram, Cell, MissEvent, Outcome};
use desc_cacti::snuca::SnucaModel;
use desc_cacti::CacheModel;
use desc_core::TransferScheme;
use desc_workloads::BenchmarkProfile;

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

/// One bank partition: the channel replicas it takes on entry (one
/// per owned bank), then its output. Every output field merges
/// order-independently (sums, maxima, histogram absorbs), so the
/// reduction over partitions is deterministic for any shard count.
#[derive(Default)]
struct PartitionOut {
    replicas: Vec<Box<dyn TransferScheme>>,
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
    /// Miss requests for the shared DRAM, carrying their requester's
    /// arrival cycle.
    events: Vec<MissEvent<u64>>,
    hit_latency_hist: desc_telemetry::LocalHistogram,
}

/// A configured S-NUCA-1 simulation.
///
/// The same `SnucaSim` can run different transfer schemes; each run
/// shares one outcome stream and draws the identical per-bank
/// block-content streams, so scheme comparisons are paired.
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
    /// independent wire state. The bank partitions run on up to
    /// [`SimConfig::shards`] pool threads (see the module docs); the
    /// result is bit-identical for any shard count.
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
        let cfg = &self.config;
        let model = SnucaModel::paper_default();
        let cell = Cell::new(cfg, model.banks(), &self.profile, self.seed, accesses);
        let (banks, parts, base_cpa) = (cell.banks, cell.parts, cell.base_cpa);
        let is_desc = scheme.name().contains("DESC");
        let iface = if is_desc { cfg.desc_interface_cycles } else { 0 };
        let cache_model = CacheModel::new(cfg.l2);
        let telemetry = desc_telemetry::enabled();

        // ---- Per-bank phase: outcomes, transfers, bank timing. ------
        // Partitions share no mutable state; the merge below is a
        // deterministic reduction in fixed bank order.
        let mut outs: Vec<PartitionOut> = (0..parts)
            .map(|_| PartitionOut {
                replicas: Cell::replicas(scheme.as_ref(), banks / parts),
                ..PartitionOut::default()
            })
            .collect();
        cell.run(&mut outs, |p, out| {
            // Owned bank `b` is channel `b / parts` (b ≡ p mod parts).
            let mut costs = cell.costs(p, std::mem::take(&mut out.replicas));
            let mut sched = BankScheduler::new(banks);
            // (occupancy cycles, effective latency cycles) of the next
            // block on `bank`'s channel — the effective window
            // (Fig. 21) makes the requester-visible latency shorter
            // than the port-occupancy window.
            let mut take = |out: &mut PartitionOut, bank: usize| -> (u64, u64) {
                let cost = costs[bank / parts].next().expect("one cost per block moved");
                let transitions = cost.total_transitions();
                out.transitions += transitions;
                out.wire_energy_j += transitions as f64 * model.bank_energy_per_transition(bank);
                (cost.cycles, cost.latency())
            };

            // One program-order loop, so the f64 energy sums accumulate
            // in per-access order.
            for &Outcome { addr, idx, result, .. } in cell.stream(p) {
                let bank = cell.bank(addr);
                let wire_lat = model.bank_latency_cycles(bank);
                let arrival = (f64::from(idx) * base_cpa) as u64;
                out.array_energy_j += cache_model.tag_access_energy();
                match result {
                    CacheOutcome::Miss { writeback } => {
                        out.misses += 1;
                        let (fill, fill_lat) = take(out, bank);
                        out.array_energy_j += cache_model.array_write_energy();
                        let mut service = ARRAY_CYCLES + fill;
                        if writeback {
                            service += take(out, bank).0;
                            out.array_energy_j += cache_model.array_read_energy();
                        }
                        let (start, queue) = sched.schedule(bank, arrival, service);
                        out.events.push(MissEvent {
                            idx: u64::from(idx),
                            addr,
                            issue: start + ARRAY_CYCLES + wire_lat,
                            route: arrival,
                        });
                        // The DRAM share (completion − arrival) is added
                        // at the epoch barrier below.
                        out.latency_sum += queue + fill_lat + iface;
                    }
                    CacheOutcome::Hit => {
                        out.hits += 1;
                        let (cycles, lat) = take(out, bank);
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
            }
            out.horizon = sched.horizon();
        });

        // ---- Epoch barrier: shared DRAM replay. ---------------------
        let mut events = Vec::new();
        for out in &mut outs {
            events.append(&mut out.events);
        }
        let mut dram_latency_sum = 0u64;
        let dram = replay_dram(cfg, &mut events, |e, done| dram_latency_sum += done - e.route);

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

        let exec_cycles = cell.exec_cycles(latency_sum, horizon);
        let exec_time_s = exec_cycles as f64 * cfg.l2.tech.cycle_s();
        let static_energy_j = cache_model.leakage_power() * exec_time_s;

        if telemetry {
            desc_telemetry::counter!("sim.snuca.accesses").add(accesses as u64);
            desc_telemetry::counter!("sim.snuca.hits").add(hits);
            desc_telemetry::counter!("sim.snuca.misses").add(misses);
            desc_telemetry::counter!("sim.snuca.wire_transitions").add(transitions);
            desc_telemetry::counter!("sim.snuca.dram.accesses").add(dram.accesses());
            desc_telemetry::counter!("sim.snuca.dram.row_hits").add(dram.row_hits());
            hit_latency_hist.flush_into(desc_telemetry::histogram!("sim.snuca.hit_latency_cycles"));
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
        // The partition count is fixed by the configuration and
        // `shards` only caps partitions in flight, so results must be
        // bit-identical for any shard count, including with a stateful
        // last-value scheme whose wire state evolves per channel. The
        // 8 MB L2 splits into all 128 bank partitions; the 64 KB 16-way
        // L2 has 64 sets for 128 banks, so it runs as one partition
        // that owns every bank channel.
        desc_exec::configure(4);
        for (capacity_bytes, kind, seed) in [
            (8 << 20, SchemeKind::ZeroSkippedDesc, 2013u64),
            (8 << 20, SchemeKind::LastValueSkippedDesc, 99),
            (64 << 10, SchemeKind::LastValueSkippedDesc, 7),
        ] {
            let serial = {
                let mut cfg = SimConfig::paper_multithreaded();
                cfg.l2.capacity_bytes = capacity_bytes;
                cfg.shards = 1;
                SnucaSim::new(cfg, BenchmarkId::Ocean.profile(), seed)
                    .run(kind.build_paper_config(), 5_000)
            };
            for shards in [2, 8, 32] {
                let mut cfg = SimConfig::paper_multithreaded();
                cfg.l2.capacity_bytes = capacity_bytes;
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
