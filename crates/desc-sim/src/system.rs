//! The top-level system simulation: L2 outcome stream → transfer
//! scheme → bank/DRAM timing → execution time.
//!
//! # Bank-sharded execution
//!
//! The cell splits into L2 bank partitions through the skeleton it
//! shares with [`crate::snuca::SnucaSim`] (`shard.rs`, DESIGN.md §10).
//! The skeleton supplies each partition's outcome stream — what its
//! slice of the cache's sets ([`crate::cache::SetAssocCache::bank_slice`])
//! decided for each of its accesses — which every scheme run on the
//! same cell input shares. Each partition owns one transfer channel (a
//! [`TransferScheme::clone_box`] replica and the value stream of its
//! lowest bank) and its own address bus. Partitions run serially or
//! on the shared pool ([`SimConfig::shards`]) and merge with a
//! deterministic, order-independent reduction in fixed bank order, so
//! **results are bit-identical for any shard count**. Cross-bank DRAM
//! contention is reconciled at the epoch barrier
//! ([`SimConfig::dram_epoch_cycles`]), whose completions route back
//! to `(partition, record)`.
//!
//! What is particular to this machine: per-access H-tree and
//! address-bus bookkeeping, and a timing model iterated three times
//! so bank queueing and DRAM stalls feed back into the access arrival
//! rate.

use crate::bank::BankScheduler;
use crate::batch::FLUSH_CAP;
use crate::cache::CacheOutcome;
use crate::config::SimConfig;
use crate::shard::{replay_dram, Cell, Channel, MissEvent, Outcome};
use desc_cacti::cache::CacheActivity;
use desc_cacti::CacheModel;
use desc_core::wire::Bus;
use desc_core::{CostSummary, TransferCost, TransferScheme};
use desc_workloads::BenchmarkProfile;

/// Everything measured by one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// L2 accesses simulated.
    pub accesses: u64,
    /// L2 hits.
    pub hits: u64,
    /// L2 misses.
    pub misses: u64,
    /// Dirty evictions written back to DRAM.
    pub writebacks: u64,
    /// L1 invalidations from write sharing.
    pub invalidations: u64,
    /// Mean intrinsic L2 hit latency in cycles (array + H-tree +
    /// value-dependent transfer + interface logic) — paper Fig. 21.
    pub avg_hit_latency_cycles: f64,
    /// Mean end-to-end access latency including bank queueing and
    /// DRAM.
    pub avg_access_latency_cycles: f64,
    /// Execution time in cycles.
    pub exec_cycles: u64,
    /// Execution time in seconds.
    pub exec_time_s: f64,
    /// Instructions represented by the simulated access window.
    pub instructions: u64,
    /// Activity counters for energy pricing by `desc-cacti`.
    pub activity: CacheActivity,
    /// Per-block transfer cost statistics.
    pub transfer: CostSummary,
}

impl SimResult {
    /// L2 miss rate.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Per-access record from the functional phase, consumed by the
/// timing phase.
struct AccessRecord {
    /// Program-order index within the measured window (global across
    /// bank partitions — arrivals and DRAM ordering key off it).
    idx: u64,
    addr: u64,
    bank: usize,
    miss: bool,
    /// Bank-port busy time (array + transfers through this bank).
    service: u64,
    /// Intrinsic latency excluding queueing and DRAM.
    base_latency: u64,
}

/// An access whose transfer cost(s) are still queued in the channel's
/// batch; its outcome and all order-insensitive counters were settled
/// when it was enqueued.
struct PendingAccess {
    idx: u32,
    addr: u64,
    bank: usize,
    kind: PendingKind,
}

/// Which transfer costs a pending access consumes at drain time: one
/// for a hit or a clean miss fill, two for a miss with writeback.
enum PendingKind {
    Hit { write: bool },
    Miss { writeback: bool },
}

/// One bank partition's functional phase: the scheme replica it takes
/// on entry, then its output. Every output field merges
/// order-independently (sums / summary merges / histogram absorbs).
#[derive(Default)]
struct PartitionSim {
    replicas: Vec<Box<dyn TransferScheme>>,
    records: Vec<AccessRecord>,
    transfer: CostSummary,
    activity: CacheActivity,
    hits: u64,
    misses: u64,
    writebacks: u64,
    hit_latency_sum: u64,
    hit_latency_hist: desc_telemetry::LocalHistogram,
}

/// One bank partition's timing-pass state: its functional-phase
/// records and buffers allocated once per run and reused across the
/// fixed-point passes — each pass clears and refills them in place
/// instead of reallocating them per partition per pass.
struct PartitionPass {
    records: Vec<AccessRecord>,
    /// Per-bank port occupancy, reset at the start of each pass.
    sched: BankScheduler,
    /// Per-record latency (queue + base; DRAM extra added at the epoch
    /// barrier), parallel to the partition's `records`.
    lat: Vec<u64>,
    /// Miss requests for the shared DRAM, routed back to
    /// `(partition, slot in lat)`.
    misses: Vec<MissEvent<(usize, usize)>>,
    horizon: u64,
    queue_hist: desc_telemetry::LocalHistogram,
    bank_conflicts: u64,
    bank_busy_cycles: u64,
}

/// A configured simulation of one benchmark on one machine.
///
/// The same `SystemSim` can run different transfer schemes; each run
/// shares one outcome stream and draws the identical block-content
/// stream, so scheme comparisons are paired.
pub struct SystemSim {
    config: SimConfig,
    profile: BenchmarkProfile,
    seed: u64,
}

impl SystemSim {
    /// Creates a simulation of `profile` on `config` with a
    /// deterministic `seed`.
    #[must_use]
    pub fn new(config: SimConfig, profile: BenchmarkProfile, seed: u64) -> Self {
        Self { config, profile, seed }
    }

    /// Runs `accesses` L2 accesses through `scheme` and returns the
    /// measured result.
    ///
    /// The cell is decomposed by home bank and the bank partitions are
    /// simulated on up to [`SimConfig::shards`] pool threads (see the
    /// module docs); the result is bit-identical for any shard count.
    /// `scheme` supplies the configuration — each partition's channel
    /// gets its own power-on replica via [`TransferScheme::clone_box`].
    ///
    /// # Examples
    ///
    /// ```
    /// use desc_core::schemes::SchemeKind;
    /// use desc_sim::{SimConfig, SystemSim};
    /// use desc_workloads::BenchmarkId;
    ///
    /// let mut cfg = SimConfig::paper_multithreaded();
    /// cfg.shards = 2; // worker threads; the result does not depend on this
    /// let sim = SystemSim::new(cfg, BenchmarkId::Radix.profile(), 2013);
    /// let r = sim.run(SchemeKind::ZeroSkippedDesc.build_paper_config(), 2_000);
    /// assert_eq!(r.hits + r.misses, r.accesses);
    /// assert!(r.activity.htree_transitions > 0 && r.exec_time_s > 0.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is zero.
    pub fn run(&self, scheme: Box<dyn TransferScheme>, accesses: usize) -> SimResult {
        let cfg = &self.config;
        let cell = Cell::new(cfg, cfg.l2.banks, &self.profile, self.seed, accesses);
        let model = CacheModel::new(cfg.l2);
        let is_desc = scheme.name().contains("DESC");
        let is_last_value = scheme.name().contains("Last Value");
        let iface = if is_desc { cfg.desc_interface_cycles } else { 0 };
        let array = model.array_delay_cycles();
        let tree = model.htree_delay_cycles();
        let miss_detect = model.miss_latency_cycles();
        let lv_penalty = cfg.last_value_write_penalty;

        // Telemetry is checked once per run; the per-access cost when
        // enabled is plain (non-atomic) local-histogram adds, merged
        // into the global registry in fixed bank order at the end.
        let telemetry = desc_telemetry::enabled();

        // ---- Functional phase: outcomes, transfers, transitions. ----
        // Transfers are batched: value-stream blocks accumulate into
        // the channel's slab and are encoded through
        // `TransferScheme::transfer_many` in bounded flushes; the
        // queued accesses then replay in program order against the
        // returned costs, so every result is bit-identical to the
        // per-access scalar path. Each partition drives one channel
        // (shared by all banks when the cell runs as one partition);
        // partitions share no mutable state, so the merge below is
        // deterministic.
        let mut sims: Vec<PartitionSim> = (0..cell.parts)
            .map(|_| PartitionSim {
                replicas: Cell::replicas(scheme.as_ref(), 1),
                ..PartitionSim::default()
            })
            .collect();
        cell.run(&mut sims, |p, out| {
            let stream = cell.stream(p);
            // The records outlive this closure and the channel's
            // buffers do not; allocating the records first keeps them
            // from pinning the heap above the freed buffers (the other
            // order raised `repro --quick --jobs 2 all`'s peak RSS by
            // about 5 MB).
            out.records.reserve(stream.len());
            let mut channels = cell.channels(p, std::mem::take(&mut out.replicas));
            let ch = &mut channels[0];
            let mut addr_bus = Bus::new(48);
            let mut pending: Vec<PendingAccess> = Vec::with_capacity(FLUSH_CAP);

            // Replays the queued accesses against the drained costs in
            // program order — the exact per-access bookkeeping the
            // scalar loop did, just decoupled from encoding.
            let drain =
                |ch: &mut Channel, pending: &mut Vec<PendingAccess>, out: &mut PartitionSim| {
                    if pending.is_empty() {
                        return;
                    }
                    ch.encode();
                    for pa in pending.drain(..) {
                        let take = |out: &mut PartitionSim,
                                    ch: &mut Channel,
                                    write_dir: bool|
                         -> TransferCost {
                            let cost = ch.batch.next_cost();
                            out.transfer.record(cost);
                            let mut transitions = cost.total_transitions();
                            if is_last_value && write_dir {
                                // Last-value skipping broadcasts write data
                                // across subbanks to keep the controller's
                                // last-value table coherent (§5.2): extra
                                // H-tree energy.
                                transitions +=
                                    (cost.data_transitions as f64 * lv_penalty).round() as u64;
                            }
                            out.activity.htree_transitions += transitions;
                            cost
                        };
                        match pa.kind {
                            PendingKind::Hit { write } => {
                                let cost = take(out, ch, write);
                                // Effective latency (Fig. 21 window model);
                                // port occupancy uses the full window.
                                let latency = array + tree + cost.latency() + iface;
                                out.hit_latency_sum += latency;
                                if telemetry {
                                    out.hit_latency_hist.record(latency);
                                }
                                out.records.push(AccessRecord {
                                    idx: u64::from(pa.idx),
                                    addr: pa.addr,
                                    bank: pa.bank,
                                    miss: false,
                                    service: array + cost.cycles,
                                    base_latency: latency,
                                });
                            }
                            PendingKind::Miss { writeback } => {
                                // Fill: one block moves over the H-tree
                                // into the bank (and onward to the
                                // requester).
                                let fill = take(out, ch, true);
                                let mut service = array + fill.cycles;
                                if writeback {
                                    let wb = take(out, ch, false);
                                    service += wb.cycles;
                                }
                                out.records.push(AccessRecord {
                                    idx: u64::from(pa.idx),
                                    addr: pa.addr,
                                    bank: pa.bank,
                                    miss: true,
                                    service,
                                    // DRAM latency is added during the
                                    // timing phase.
                                    base_latency: miss_detect + fill.latency() + iface,
                                });
                            }
                        }
                    }
                };

            for &Outcome { addr, idx: i, write, result } in stream {
                let bank = cell.bank(addr);
                out.activity.tag_lookups += 1;
                let addr_flips = u64::from(addr_bus.drive((addr >> 6) & ((1 << 48) - 1)));
                out.activity.htree_transitions += addr_flips;

                // Queue the access's block(s); counters that don't
                // need the cost are settled here.
                match result {
                    CacheOutcome::Hit => {
                        ch.queue_next();
                        out.hits += 1;
                        if write {
                            out.activity.array_writes += 1;
                        } else {
                            out.activity.array_reads += 1;
                        }
                        pending.push(PendingAccess {
                            idx: i,
                            addr,
                            bank,
                            kind: PendingKind::Hit { write },
                        });
                    }
                    CacheOutcome::Miss { writeback } => {
                        ch.queue_next();
                        out.misses += 1;
                        out.activity.array_writes += 1;
                        if writeback {
                            out.writebacks += 1;
                            ch.queue_next();
                            out.activity.array_reads += 1;
                        }
                        pending.push(PendingAccess {
                            idx: i,
                            addr,
                            bank,
                            kind: PendingKind::Miss { writeback },
                        });
                    }
                }
                if ch.batch.queued() >= FLUSH_CAP {
                    drain(ch, &mut pending, out);
                }
            }
            drain(ch, &mut pending, out);
        });

        // Deterministic functional merge, fixed bank order.
        let mut transfer_stats = CostSummary::new();
        let mut activity = CacheActivity::default();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut writebacks = 0u64;
        let mut hit_latency_sum = 0u64;
        let mut hit_latency_hist = desc_telemetry::LocalHistogram::new();
        for sim in &sims {
            transfer_stats.merge(&sim.transfer);
            activity.htree_transitions += sim.activity.htree_transitions;
            activity.array_reads += sim.activity.array_reads;
            activity.array_writes += sim.activity.array_writes;
            activity.tag_lookups += sim.activity.tag_lookups;
            hits += sim.hits;
            misses += sim.misses;
            writebacks += sim.writebacks;
            hit_latency_sum += sim.hit_latency_sum;
            hit_latency_hist.absorb(&sim.hit_latency_hist);
        }

        // ---- Timing phase: iterate arrivals to a fixed point. -------
        // Each pass: (A) banks advance independently per partition,
        // collecting DRAM requests; (B) the epoch barrier replays them
        // through one shared DRAM, routing channel-contention delays
        // back to their partitions; (C) order-independent merge.
        let mut cpa = cell.base_cpa;
        let mut exec_cycles = 0u64;
        let mut latency_sum = 0u64;
        // Converged-iteration telemetry: re-initialised each pass, so
        // the values merged below reflect the final fixed-point
        // iteration only.
        let mut queue_hist = desc_telemetry::LocalHistogram::new();
        let mut access_latency_hist = desc_telemetry::LocalHistogram::new();
        let mut bank_conflicts = 0u64;
        let mut bank_busy_cycles = 0u64;
        let mut dram_accesses = 0u64;
        let mut dram_row_hits = 0u64;
        // Pass state is allocated once and reused across the three
        // fixed-point passes (and the event buffer across barriers).
        let mut passes: Vec<PartitionPass> = sims
            .into_iter()
            .map(|sim| PartitionPass {
                sched: BankScheduler::new(cell.banks),
                lat: Vec::with_capacity(sim.records.len()),
                records: sim.records,
                misses: Vec::new(),
                horizon: 0,
                queue_hist: desc_telemetry::LocalHistogram::new(),
                bank_conflicts: 0,
                bank_busy_cycles: 0,
            })
            .collect();
        let mut events = Vec::new();
        for _ in 0..3 {
            // (A) Independent bank scheduling per partition.
            cell.run(&mut passes, |p, pass| {
                pass.sched.reset();
                pass.lat.clear();
                pass.misses.clear();
                pass.queue_hist = desc_telemetry::LocalHistogram::new();
                pass.bank_conflicts = 0;
                pass.bank_busy_cycles = 0;
                for (slot, r) in pass.records.iter().enumerate() {
                    let arrival = (r.idx as f64 * cpa) as u64;
                    let (start, queue) = pass.sched.schedule(r.bank, arrival, r.service);
                    pass.lat.push(queue + r.base_latency);
                    if r.miss {
                        pass.misses.push(MissEvent {
                            idx: r.idx,
                            addr: r.addr,
                            issue: start + miss_detect,
                            route: (p, slot),
                        });
                    }
                    if telemetry {
                        pass.queue_hist.record(queue);
                        if queue > 0 {
                            pass.bank_conflicts += 1;
                        }
                        pass.bank_busy_cycles += r.service;
                    }
                }
                pass.horizon = pass.sched.horizon();
            });

            // (B) Epoch barrier.
            for pass in &mut passes {
                events.append(&mut pass.misses);
            }
            let dram = replay_dram(cfg, &mut events, |e, done| {
                let (part, slot) = e.route;
                passes[part].lat[slot] += done - e.issue;
            });
            dram_accesses = dram.accesses();
            dram_row_hits = dram.row_hits();

            // (C) Order-independent merge in fixed bank order.
            latency_sum = passes.iter().map(|p| p.lat.iter().sum::<u64>()).sum();
            if telemetry {
                queue_hist = desc_telemetry::LocalHistogram::new();
                access_latency_hist = desc_telemetry::LocalHistogram::new();
                bank_conflicts = 0;
                bank_busy_cycles = 0;
                for pass in &passes {
                    queue_hist.absorb(&pass.queue_hist);
                    bank_conflicts += pass.bank_conflicts;
                    bank_busy_cycles += pass.bank_busy_cycles;
                    for &lat in &pass.lat {
                        access_latency_hist.record(lat);
                    }
                }
            }
            let horizon = passes.iter().map(|p| p.horizon).max().unwrap_or(0);
            exec_cycles = cell.exec_cycles(latency_sum, horizon);
            cpa = exec_cycles as f64 / accesses as f64;
        }

        let exec_time_s = exec_cycles as f64 * cfg.l2.tech.cycle_s();
        activity.elapsed_s = exec_time_s;

        if telemetry {
            desc_telemetry::counter!("sim.l2.accesses").add(accesses as u64);
            desc_telemetry::counter!("sim.l2.hits").add(hits);
            desc_telemetry::counter!("sim.l2.misses").add(misses);
            desc_telemetry::counter!("sim.l2.writebacks").add(writebacks);
            desc_telemetry::counter!("sim.l2.invalidations").add(cell.invalidations);
            hit_latency_hist.flush_into(desc_telemetry::histogram!("sim.l2.hit_latency_cycles"));
            access_latency_hist
                .flush_into(desc_telemetry::histogram!("sim.l2.access_latency_cycles"));
            queue_hist.flush_into(desc_telemetry::histogram!("sim.bank.queue_cycles"));
            desc_telemetry::counter!("sim.bank.conflicts").add(bank_conflicts);
            desc_telemetry::counter!("sim.bank.busy_cycles").add(bank_busy_cycles);
            desc_telemetry::counter!("sim.dram.accesses").add(dram_accesses);
            desc_telemetry::counter!("sim.dram.row_hits").add(dram_row_hits);
            desc_telemetry::counter!("sim.dram.busy_cycles")
                .add(dram_accesses * cfg.dram_occupancy_cycles);
            desc_telemetry::counter!("sim.runs").incr();
        }

        SimResult {
            accesses: accesses as u64,
            hits,
            misses,
            writebacks,
            invalidations: cell.invalidations,
            avg_hit_latency_cycles: if hits > 0 {
                hit_latency_sum as f64 / hits as f64
            } else {
                0.0
            },
            avg_access_latency_cycles: latency_sum as f64 / accesses as f64,
            exec_cycles,
            exec_time_s,
            instructions: (accesses as f64 * 1000.0 / self.profile.l2_apki) as u64,
            activity,
            transfer: transfer_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desc_core::schemes::SchemeKind;
    use desc_workloads::BenchmarkId;

    fn quick(kind: SchemeKind, bench: BenchmarkId, accesses: usize) -> SimResult {
        let sim = SystemSim::new(SimConfig::paper_multithreaded(), bench.profile(), 7);
        sim.run(kind.build_paper_config(), accesses)
    }

    #[test]
    fn binary_baseline_hit_latency_near_table1() {
        let r = quick(SchemeKind::ConventionalBinary, BenchmarkId::Lu, 8_000);
        assert!(
            (17.0..=21.0).contains(&r.avg_hit_latency_cycles),
            "hit latency {:.1}",
            r.avg_hit_latency_cycles
        );
    }

    #[test]
    fn desc_hit_latency_is_modestly_longer() {
        // Paper Fig. 21: 128-wire zero-skipped DESC adds ≈8 cycles to
        // the 128-wire binary hit; vs 64-wire binary the gap is
        // similar in spirit.
        let bin = quick(SchemeKind::ConventionalBinary, BenchmarkId::Ocean, 8_000);
        let desc = quick(SchemeKind::ZeroSkippedDesc, BenchmarkId::Ocean, 8_000);
        let delta = desc.avg_hit_latency_cycles - bin.avg_hit_latency_cycles;
        assert!((2.0..=16.0).contains(&delta), "hit-latency delta {delta:.1}");
    }

    #[test]
    fn desc_reduces_htree_transitions() {
        let bin = quick(SchemeKind::ConventionalBinary, BenchmarkId::Swim, 10_000);
        let desc = quick(SchemeKind::ZeroSkippedDesc, BenchmarkId::Swim, 10_000);
        assert!(
            (desc.activity.htree_transitions as f64) < 0.8 * bin.activity.htree_transitions as f64,
            "DESC {} vs binary {}",
            desc.activity.htree_transitions,
            bin.activity.htree_transitions
        );
    }

    #[test]
    fn desc_execution_overhead_is_small_on_throughput_cores() {
        // Paper §5.3: <2% execution-time overhead on the multithreaded
        // machine. Allow a little slack for the synthetic workloads.
        let bin = quick(SchemeKind::ConventionalBinary, BenchmarkId::Art, 12_000);
        let desc = quick(SchemeKind::ZeroSkippedDesc, BenchmarkId::Art, 12_000);
        let overhead = desc.exec_time_s / bin.exec_time_s - 1.0;
        assert!(overhead < 0.05, "execution overhead {:.3}", overhead);
        assert!(overhead > -0.02, "DESC should not speed execution up: {overhead:.3}");
    }

    #[test]
    fn ooo_core_is_more_latency_sensitive() {
        let mt_cfg = SimConfig::paper_multithreaded();
        let ooo_cfg = SimConfig::paper_out_of_order();
        let p = BenchmarkId::Mcf.profile();
        let slowdown = |cfg: SimConfig| {
            let bin = SystemSim::new(cfg, p, 3)
                .run(SchemeKind::ConventionalBinary.build_paper_config(), 10_000);
            let desc = SystemSim::new(cfg, p, 3)
                .run(SchemeKind::ZeroSkippedDesc.build_paper_config(), 10_000);
            desc.exec_time_s / bin.exec_time_s
        };
        assert!(slowdown(ooo_cfg) > slowdown(mt_cfg));
    }

    #[test]
    fn miss_rate_tracks_working_set() {
        // LU fits in 8 MB (2 MB footprint) → low miss rate; MCF's
        // 64 MB streaming footprint → high miss rate.
        let lu = quick(SchemeKind::ConventionalBinary, BenchmarkId::Lu, 20_000);
        let sim = SystemSim::new(SimConfig::paper_out_of_order(), BenchmarkId::Mcf.profile(), 7);
        let mcf = sim.run(SchemeKind::ConventionalBinary.build_paper_config(), 20_000);
        assert!(lu.miss_rate() < 0.25, "LU miss rate {:.3}", lu.miss_rate());
        assert!(mcf.miss_rate() > 0.3, "MCF miss rate {:.3}", mcf.miss_rate());
    }

    #[test]
    fn fewer_banks_increase_execution_time() {
        let p = BenchmarkId::Fft.profile();
        let mut one_bank = SimConfig::paper_multithreaded();
        one_bank.l2.banks = 1;
        let base = SystemSim::new(SimConfig::paper_multithreaded(), p, 5)
            .run(SchemeKind::ConventionalBinary.build_paper_config(), 12_000);
        let congested = SystemSim::new(one_bank, p, 5)
            .run(SchemeKind::ConventionalBinary.build_paper_config(), 12_000);
        assert!(
            congested.exec_cycles > base.exec_cycles,
            "1 bank {} !> 8 banks {}",
            congested.exec_cycles,
            base.exec_cycles
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(SchemeKind::LastValueSkippedDesc, BenchmarkId::Cg, 5_000);
        let b = quick(SchemeKind::LastValueSkippedDesc, BenchmarkId::Cg, 5_000);
        assert_eq!(a.activity.htree_transitions, b.activity.htree_transitions);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn shard_count_never_changes_results() {
        // The decomposition unit is the bank, which is fixed by the
        // config; `shards` only caps in-flight partitions on the shared
        // pool. Results must be bit-identical for any shard count, on
        // both machine models and for stateful (last-value) schemes.
        desc_exec::configure(4);
        for (mk, kind, seed) in [
            (
                SimConfig::paper_multithreaded as fn() -> SimConfig,
                SchemeKind::ZeroSkippedDesc,
                2013u64,
            ),
            (SimConfig::paper_out_of_order, SchemeKind::LastValueSkippedDesc, 99),
        ] {
            let serial = {
                let mut cfg = mk();
                cfg.shards = 1;
                SystemSim::new(cfg, BenchmarkId::Ocean.profile(), seed)
                    .run(kind.build_paper_config(), 6_000)
            };
            for shards in [2, 8, 32] {
                let mut cfg = mk();
                cfg.shards = shards;
                let sharded = SystemSim::new(cfg, BenchmarkId::Ocean.profile(), seed)
                    .run(kind.build_paper_config(), 6_000);
                assert_eq!(serial.hits, sharded.hits, "shards={shards}");
                assert_eq!(serial.misses, sharded.misses, "shards={shards}");
                assert_eq!(serial.writebacks, sharded.writebacks, "shards={shards}");
                assert_eq!(serial.exec_cycles, sharded.exec_cycles, "shards={shards}");
                assert_eq!(
                    serial.activity.htree_transitions, sharded.activity.htree_transitions,
                    "shards={shards}"
                );
                assert_eq!(serial.transfer.total(), sharded.transfer.total(), "shards={shards}");
                assert_eq!(
                    serial.avg_access_latency_cycles.to_bits(),
                    sharded.avg_access_latency_cycles.to_bits(),
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_banks_fall_back_to_one_partition() {
        // 3 banks cannot own whole cache sets, so the cell runs as a
        // single partition — still correct and still shard-invariant.
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.banks = 3;
        let serial = SystemSim::new(cfg, BenchmarkId::Fft.profile(), 11)
            .run(SchemeKind::ConventionalBinary.build_paper_config(), 5_000);
        cfg.shards = 4;
        let sharded = SystemSim::new(cfg, BenchmarkId::Fft.profile(), 11)
            .run(SchemeKind::ConventionalBinary.build_paper_config(), 5_000);
        assert_eq!(serial.exec_cycles, sharded.exec_cycles);
        assert_eq!(serial.activity.htree_transitions, sharded.activity.htree_transitions);
        assert!(serial.hits + serial.misses == serial.accesses);
    }

    #[test]
    fn activity_accounts_fills_and_writebacks() {
        let r = quick(SchemeKind::ConventionalBinary, BenchmarkId::Mg, 10_000);
        assert_eq!(r.hits + r.misses, r.accesses);
        assert!(r.writebacks > 0);
        // Every access moves one block (hit serve or miss fill), and
        // every writeback moves one more.
        assert_eq!(r.activity.array_reads + r.activity.array_writes, r.accesses + r.writebacks);
        assert_eq!(r.transfer.blocks(), r.hits + r.misses + r.writebacks);
    }
}
