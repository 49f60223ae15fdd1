//! The cell skeleton shared by [`crate::system::SystemSim`] (the UCA
//! H-tree machine) and [`crate::snuca::SnucaSim`] (S-NUCA-1).
//!
//! One simulation cell splits into independent L2 bank partitions
//! (DESIGN.md §10). This module owns every step of that split that
//! does not depend on the organisation:
//!
//! - the decomposition rule ([`Cell::new`]): one partition per bank
//!   when the bank count is a power of two no larger than the set
//!   count, otherwise one partition for all banks;
//! - the trace, generated once and bucketed per partition into warmup
//!   and measured accesses;
//! - a partition's bootstrap ([`Cell::boot`]): its
//!   [`SetAssocCache::bank_slice`] directory, warmed up;
//! - its bank channels ([`Cell::channels`]): one power-on
//!   [`TransferScheme`] replica each, handed over through the
//!   partition's own state;
//! - the only partition entry point ([`Cell::run`]);
//! - the DRAM epoch barrier ([`replay_dram`]);
//! - the execution-time roll-up ([`Cell::exec_cycles`]).
//!
//! Partitions run on the shared [`desc_exec`] pool with
//! [`SimConfig::shards`] as the region's concurrency cap. `shards` is
//! a *cap*, not a thread count: partitions share the fixed worker set
//! that runs sweep cells, so no simulation ever spawns a thread. With
//! a cap of 1 — or an empty pool (1-CPU machine) — the partitions run
//! serially on the calling thread. Each partition touches only its
//! own state and the partition count is fixed by the configuration,
//! never by `shards`, so results are bit-identical for any cap.

use crate::bank::home_bank;
use crate::batch::ChannelBatch;
use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::dram::Dram;
use desc_core::TransferScheme;
use desc_workloads::{Access, BenchmarkProfile, ValueStream};

/// One simulation cell of `accesses` measured L2 accesses, split into
/// bank partitions. Partition `p` owns the banks `b` with
/// `b % parts == p`.
pub(crate) struct Cell<'a> {
    cfg: &'a SimConfig,
    profile: &'a BenchmarkProfile,
    seed: u64,
    /// Banks of the simulated organisation.
    pub banks: usize,
    /// Partition count: `banks` when the geometry decomposes, else 1.
    pub parts: usize,
    /// Core cycles per access before any L2 stall.
    pub base_cpa: f64,
    base_cycles: u64,
    warm: Vec<Vec<Access>>,
    meas: Vec<Vec<(u32, Access)>>,
}

impl<'a> Cell<'a> {
    /// Decomposes a cell of `accesses` accesses of `profile` over
    /// `banks` banks and buckets its trace.
    ///
    /// Set index and bank id are both low block-address bits, so a
    /// power-of-two bank count no larger than the set count gives each
    /// bank whole sets. Any other shape runs as one partition, which
    /// is still shard-count invariant.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is zero or does not fit a `u32` program
    /// index.
    pub(crate) fn new(
        cfg: &'a SimConfig,
        banks: usize,
        profile: &'a BenchmarkProfile,
        seed: u64,
        accesses: usize,
    ) -> Self {
        assert!(accesses > 0, "simulate at least one access");
        assert!(accesses < u32::MAX as usize, "measured window exceeds u32 program indices");
        let capacity_blocks = cfg.l2.capacity_bytes / cfg.l2.block_bytes;
        let set_count = capacity_blocks / cfg.l2.associativity;
        let parts = if banks.is_power_of_two() && banks <= set_count { banks } else { 1 };

        // The trace is one sequential RNG stream, bucketed by owning
        // partition as it is generated, so the functional phase
        // touches every access once. Warmup brings the directory to
        // steady state so measurements exclude cold-start compulsory
        // misses (the paper runs applications to completion; we
        // measure a steady-state window); it touches the directory
        // only — no transfers, no energy.
        let warmup = (2 * capacity_blocks).max(accesses);
        let block_bytes = cfg.l2.block_bytes as u64;
        let mut trace = profile.trace(seed);
        let mut warm: Vec<Vec<Access>> =
            (0..parts).map(|_| Vec::with_capacity(warmup / parts + warmup / 16 + 8)).collect();
        let mut meas: Vec<Vec<(u32, Access)>> =
            (0..parts).map(|_| Vec::with_capacity(accesses / parts + accesses / 16 + 8)).collect();
        for i in 0..warmup + accesses {
            let a = trace.next_access();
            let p = home_bank(a.addr, block_bytes, banks) % parts;
            if i < warmup {
                warm[p].push(a);
            } else {
                meas[p].push(((i - warmup) as u32, a));
            }
        }

        let base_cpa = 1000.0 / (profile.l2_apki * profile.cores as f64 * profile.base_ipc);
        let base_cycles = (accesses as f64 * base_cpa).ceil() as u64;
        Self { cfg, profile, seed, banks, parts, base_cpa, base_cycles, warm, meas }
    }

    /// Home bank of `addr`.
    pub(crate) fn bank(&self, addr: u64) -> usize {
        home_bank(addr, self.cfg.l2.block_bytes as u64, self.banks)
    }

    /// Bootstraps partition `p`: its directory slice after warmup, and
    /// its measured accesses with their global program indices, in
    /// program order.
    pub(crate) fn boot(&self, p: usize) -> (SetAssocCache, &[(u32, Access)]) {
        let l2 = &self.cfg.l2;
        let mut dir = SetAssocCache::bank_slice(
            l2.capacity_bytes,
            l2.block_bytes,
            l2.associativity,
            self.parts,
            p,
        );
        for &Access { addr, write, core } in &self.warm[p] {
            let _ = dir.access(addr, write, core);
        }
        (dir, &self.meas[p])
    }

    /// `n` power-on replicas of `scheme`, cloned on the calling thread
    /// (`clone_box` borrows the template) for a partition's state to
    /// hand to [`Cell::channels`].
    pub(crate) fn replicas(scheme: &dyn TransferScheme, n: usize) -> Vec<Box<dyn TransferScheme>> {
        (0..n)
            .map(|_| {
                let mut replica = scheme.clone_box();
                replica.reset();
                replica
            })
            .collect()
    }

    /// Partition `p`'s channels: replica `k` drives bank
    /// `p + k·parts` and draws that bank's value stream.
    pub(crate) fn channels(
        &self,
        p: usize,
        replicas: Vec<Box<dyn TransferScheme>>,
    ) -> Vec<Channel> {
        replicas
            .into_iter()
            .zip((p..).step_by(self.parts))
            .map(|(scheme, bank)| Channel {
                scheme,
                values: self.profile.value_stream_for_bank(self.seed, bank),
                batch: ChannelBatch::new(self.cfg.l2.block_bytes),
            })
            .collect()
    }

    /// Runs `part_fn(p, &mut states[p])` for every partition with at
    /// most [`SimConfig::shards`] in flight on the shared pool.
    ///
    /// On the execution timeline this is a `"parts"` region (queue
    /// wait and run time per partition task, see
    /// `desc_exec::utilization`) and, when telemetry is enabled, one
    /// `"partition"` span per partition (label `p<n>`) on whichever
    /// pool thread ran it.
    pub(crate) fn run<S, F>(&self, states: &mut [S], part_fn: F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        desc_exec::run_mut_labeled("parts", states, self.cfg.shards.max(1), |p, s| {
            let _span = desc_telemetry::enabled()
                .then(|| desc_telemetry::span("partition", format!("p{p}")));
            part_fn(p, s);
        });
    }

    /// Execution time in cycles: the core's base cycles plus the
    /// exposed share of `latency_sum` per core, and never less than
    /// the busiest bank's `horizon`.
    pub(crate) fn exec_cycles(&self, latency_sum: u64, horizon: u64) -> u64 {
        let cores = self.profile.cores as f64;
        let stall = (latency_sum as f64 * self.cfg.core.exposure() / cores) as u64;
        (self.base_cycles + stall).max(horizon)
    }
}

/// One bank channel of a partition: its scheme replica (wire state is
/// per channel), the bank's value stream and the batch of blocks
/// awaiting encode.
pub(crate) struct Channel {
    scheme: Box<dyn TransferScheme>,
    values: ValueStream,
    pub batch: ChannelBatch,
}

impl Channel {
    /// Draws the next block of the value stream into the batch — the
    /// stream's scratch block is copied into the slab, so the draw
    /// order and bytes are identical to per-access transfers.
    pub(crate) fn queue_next(&mut self) {
        self.batch.push(self.values.next_block_ref());
    }

    /// Encodes the queued blocks through the channel's scheme.
    pub(crate) fn encode(&mut self) {
        self.batch.encode(self.scheme.as_mut());
    }
}

/// A DRAM request a partition emits for the epoch barrier. `route`
/// says where its completion goes back to.
pub(crate) struct MissEvent<R> {
    /// Global program-order index — the within-epoch order.
    pub idx: u64,
    pub addr: u64,
    /// Cycle the request reaches DRAM.
    pub issue: u64,
    pub route: R,
}

/// The epoch barrier: cross-bank DRAM channel contention is the one
/// coupling partitions cannot resolve alone. The requests in `events`
/// are ordered by `(issue / dram_epoch_cycles, program index)` — a
/// pure function of the per-partition outputs, hence identical for any
/// shard count — and replayed through one shared [`Dram`];
/// `complete(event, completion_cycle)` routes each result back.
/// Leaves `events` empty for reuse and returns the DRAM for its
/// counters.
pub(crate) fn replay_dram<R>(
    cfg: &SimConfig,
    events: &mut Vec<MissEvent<R>>,
    mut complete: impl FnMut(&MissEvent<R>, u64),
) -> Dram {
    let epoch_cycles = cfg.dram_epoch_cycles.max(1);
    events.sort_unstable_by_key(|e| (e.issue / epoch_cycles, e.idx));
    let mut dram = Dram::new(cfg.dram_channels, cfg.dram_latency_cycles, cfg.dram_occupancy_cycles);
    for e in events.drain(..) {
        let done = dram.access(e.addr, e.issue);
        complete(&e, done);
    }
    dram
}

#[cfg(test)]
mod tests {
    use super::*;
    use desc_workloads::BenchmarkId;

    #[test]
    fn run_reuses_state_in_partition_order_for_any_cap() {
        desc_exec::configure(4);
        let profile = BenchmarkId::Fft.profile();
        let expect: Vec<u64> = (0..8).map(|p| 600 + 3 * p).collect();
        for shards in [1, 2, 3, 8, 32] {
            let cfg = SimConfig { shards, ..SimConfig::paper_multithreaded() };
            let cell = Cell::new(&cfg, cfg.l2.banks, &profile, 1, 64);
            assert_eq!(cell.parts, 8);
            let mut states = vec![0u64; cell.parts];
            for pass in 1..=3u64 {
                cell.run(&mut states, |p, s| *s += pass * 100 + p as u64);
            }
            assert_eq!(states, expect, "shards={shards}");
        }
    }

    #[test]
    fn trace_buckets_partition_every_access_by_home_bank() {
        let cfg = SimConfig::paper_multithreaded();
        let profile = BenchmarkId::Ocean.profile();
        let cell = Cell::new(&cfg, cfg.l2.banks, &profile, 7, 3_000);
        let mut seen = Vec::new();
        for p in 0..cell.parts {
            let (_, accesses) = cell.boot(p);
            assert!(accesses.windows(2).all(|w| w[0].0 < w[1].0), "program order in p{p}");
            assert!(accesses.iter().all(|(_, a)| cell.bank(a.addr) % cell.parts == p));
            seen.extend(accesses.iter().map(|&(i, _)| i));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..3_000).collect::<Vec<u32>>());
    }

    #[test]
    fn dram_replay_orders_by_epoch_then_program_index() {
        let cfg = SimConfig { dram_epoch_cycles: 100, ..SimConfig::paper_multithreaded() };
        let ev = |idx, issue| MissEvent { idx, addr: idx * 4096, issue, route: idx };
        let mut events = vec![ev(3, 250), ev(0, 150), ev(2, 10), ev(1, 120)];
        let mut order = Vec::new();
        let dram = replay_dram(&cfg, &mut events, |e, done| {
            assert!(done > e.issue);
            order.push(e.route);
        });
        assert_eq!(order, [2, 0, 1, 3]);
        assert_eq!(dram.accesses(), 4);
        assert!(events.is_empty());
    }
}
