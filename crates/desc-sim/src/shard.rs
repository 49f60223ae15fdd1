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
//! - the cell's scheme-independent half, its per-partition outcome
//!   streams ([`Cell::stream`]): the trace, generated once and
//!   bucketed per partition, replayed through the partition's warmed
//!   [`SetAssocCache::bank_slice`] directory;
//! - the outcome-stream memo, which computes those streams once for
//!   every scheme that runs the same cell;
//! - a partition's bank channels ([`Cell::channels`]): one power-on
//!   [`TransferScheme`] replica each, handed over through the
//!   partition's own state;
//! - the only partition entry point ([`Cell::run`]);
//! - the DRAM epoch barrier ([`replay_dram`]);
//! - the execution-time roll-up ([`Cell::exec_cycles`]).
//!
//! # The outcome-stream memo
//!
//! Which accesses hit, miss or write back depends on the trace and the
//! directory geometry only, never on the scheme, the bus width, the
//! core model or the DRAM, so a sweep that runs one cell under several
//! schemes shares one outcome stream. The memo is the workspace's one
//! bounded single-flight memo ([`desc_cache::memo::Memo`], the cell
//! store's hot tier too), keyed by exactly the functional inputs
//! (`StreamKey`) and holding at most [`MEMO_BYTES`] of streams under
//! LRU eviction: concurrent demanders of one key compute it once, a
//! waiting follower polls [`desc_exec::check_cancelled`], and a leader
//! that unwinds hands the key to a waiter. The leader's compute is a
//! `"streams"` span on the execution timeline. The memo lives only in
//! memory: a stream is worth nothing without the per-scheme passes,
//! whose results the cell cache already stores.
//!
//! A cell that reuses a stream records the trace tally
//! (`workloads.accesses_generated`) the leader's generator recorded,
//! so a cell's metric delta does not depend on who computed its
//! stream.
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
use crate::cache::{CacheOutcome, SetAssocCache};
use crate::config::SimConfig;
use crate::dram::Dram;
use desc_cache::memo::{Claim, Memo};
use desc_core::TransferScheme;
use desc_workloads::{Access, BenchmarkId, BenchmarkProfile, ValueStream};
use std::sync::{Arc, OnceLock};

/// Byte budget of the outcome-stream memo: 32 quick-scale cells
/// (4 000 accesses of 16 bytes) or six full-scale ones, enough to
/// cover the schemes a sweep runs over one input in a row.
const MEMO_BYTES: u64 = 2 << 20;

/// One measured access of an outcome stream: what the directory
/// decided, and everything the per-scheme passes read besides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// Block-aligned address.
    pub addr: u64,
    /// Global program-order index in the measured window.
    pub idx: u32,
    pub write: bool,
    pub result: CacheOutcome,
}

const _: () = assert!(std::mem::size_of::<Outcome>() == 16);

/// A partition's outcome stream: its measured accesses in program
/// order, and the L1 invalidations its directory counted after warmup.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Stream {
    pub outcomes: Vec<Outcome>,
    pub invalidations: u64,
}

/// The functional inputs of a cell: everything its outcome streams
/// depend on and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct StreamKey {
    bench: BenchmarkId,
    cores: usize,
    working_set_bytes: usize,
    hot_set_bytes: usize,
    hot_fraction: u64,
    write_fraction: u64,
    seed: u64,
    accesses: usize,
    capacity_bytes: usize,
    block_bytes: usize,
    associativity: usize,
    banks: usize,
}

impl StreamKey {
    fn new(
        cfg: &SimConfig,
        banks: usize,
        profile: &BenchmarkProfile,
        seed: u64,
        accesses: usize,
    ) -> Self {
        Self {
            bench: profile.id,
            cores: profile.cores,
            working_set_bytes: profile.working_set_bytes,
            hot_set_bytes: profile.hot_set_bytes,
            hot_fraction: profile.hot_fraction.to_bits(),
            write_fraction: profile.write_fraction.to_bits(),
            seed,
            accesses,
            capacity_bytes: cfg.l2.capacity_bytes,
            block_bytes: cfg.l2.block_bytes,
            associativity: cfg.l2.associativity,
            banks,
        }
    }
}

fn stream_memo() -> &'static Memo<StreamKey, Vec<Stream>> {
    static MEMO: OnceLock<Memo<StreamKey, Vec<Stream>>> = OnceLock::new();
    MEMO.get_or_init(|| Memo::new(MEMO_BYTES))
}

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
    streams: Arc<Vec<Stream>>,
}

impl<'a> Cell<'a> {
    /// Decomposes a cell of `accesses` accesses of `profile` over
    /// `banks` banks and takes its outcome streams from the memo,
    /// computing them if no earlier cell did.
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
        // Warmup brings the directory to steady state so measurements
        // exclude cold-start compulsory misses (the paper runs
        // applications to completion; we measure a steady-state
        // window); it touches the directory only — no transfers, no
        // energy.
        let warmup = (2 * capacity_blocks).max(accesses);

        let key = StreamKey::new(cfg, banks, profile, seed, accesses);
        let streams = match stream_memo().claim(key, &mut desc_exec::check_cancelled) {
            Claim::Ready(streams) | Claim::Shared(streams) => {
                if desc_telemetry::enabled() {
                    desc_telemetry::counter!("workloads.accesses_generated")
                        .add((warmup + accesses) as u64);
                }
                streams
            }
            Claim::Lead(lease) => {
                let streams = {
                    let _span = desc_telemetry::span("streams", profile.name);
                    Arc::new(outcome_streams(cfg, banks, parts, profile, seed, warmup, accesses))
                };
                lease.publish(Arc::clone(&streams), stream_bytes(&streams));
                streams
            }
        };

        let base_cpa = 1000.0 / (profile.l2_apki * profile.cores as f64 * profile.base_ipc);
        let base_cycles = (accesses as f64 * base_cpa).ceil() as u64;
        Self { cfg, profile, seed, banks, parts, base_cpa, base_cycles, streams }
    }

    /// Home bank of `addr`.
    pub(crate) fn bank(&self, addr: u64) -> usize {
        home_bank(addr, self.cfg.l2.block_bytes as u64, self.banks)
    }

    /// Partition `p`'s outcome stream.
    pub(crate) fn stream(&self, p: usize) -> &Stream {
        &self.streams[p]
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
    pub(crate) fn run<S, F>(&self, states: &mut [S], part_fn: F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        run_parts(self.cfg, states, part_fn);
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

/// Runs `part_fn(p, &mut states[p])` for every partition with at most
/// [`SimConfig::shards`] in flight on the shared pool.
///
/// On the execution timeline this is a `"parts"` region (queue wait
/// and run time per partition task, see `desc_exec::utilization`)
/// and, when telemetry is enabled, one `"partition"` span per
/// partition (label `p<n>`) on whichever pool thread ran it.
fn run_parts<S, F>(cfg: &SimConfig, states: &mut [S], part_fn: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    desc_exec::run_mut_labeled("parts", states, cfg.shards.max(1), |p, s| {
        let _span =
            desc_telemetry::enabled().then(|| desc_telemetry::span("partition", format!("p{p}")));
        part_fn(p, s);
    });
}

/// Computes a cell's outcome streams: the trace, one sequential RNG
/// stream bucketed by owning partition as it is generated, replayed
/// per partition through its warmed directory slice.
fn outcome_streams(
    cfg: &SimConfig,
    banks: usize,
    parts: usize,
    profile: &BenchmarkProfile,
    seed: u64,
    warmup: usize,
    accesses: usize,
) -> Vec<Stream> {
    let l2 = &cfg.l2;
    // A partition's share of `n` accesses is about `n / parts`, give
    // or take a few times its square root; the slack covers that
    // without reserving a multiple of the trace across 128 buckets.
    let share = |n: usize| n / parts + n / (16 * parts) + 64;
    let mut trace = profile.trace(seed);
    let mut warm: Vec<Vec<Access>> =
        (0..parts).map(|_| Vec::with_capacity(share(warmup))).collect();
    let mut meas: Vec<Vec<(u32, Access)>> =
        (0..parts).map(|_| Vec::with_capacity(share(accesses))).collect();
    for i in 0..warmup + accesses {
        let a = trace.next_access();
        let p = home_bank(a.addr, l2.block_bytes as u64, banks) % parts;
        if i < warmup {
            warm[p].push(a);
        } else {
            meas[p].push(((i - warmup) as u32, a));
        }
    }
    // Dropping the generator records its `workloads.accesses_generated`
    // tally in the leading cell's metrics; reusers record it in
    // `Cell::new`.
    drop(trace);

    let mut streams: Vec<Stream> = (0..parts).map(|_| Stream::default()).collect();
    run_parts(cfg, &mut streams, |p, stream| {
        let mut dir = SetAssocCache::bank_slice(
            l2.capacity_bytes,
            l2.block_bytes,
            l2.associativity,
            parts,
            p,
        );
        for &Access { addr, write, core } in &warm[p] {
            let _ = dir.access(addr, write, core);
        }
        let at_warmup = dir.invalidations();
        stream.outcomes = meas[p]
            .iter()
            .map(|&(idx, Access { addr, write, core })| Outcome {
                addr,
                idx,
                write,
                result: dir.access(addr, write, core),
            })
            .collect();
        stream.invalidations = dir.invalidations() - at_warmup;
    });
    streams
}

/// Heap bytes of a cell's outcome streams, as the memo budgets them.
fn stream_bytes(streams: &[Stream]) -> u64 {
    streams
        .iter()
        .map(|s| {
            (std::mem::size_of::<Stream>() + s.outcomes.capacity() * std::mem::size_of::<Outcome>())
                as u64
        })
        .sum()
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
    fn outcome_streams_partition_every_access_by_home_bank() {
        let cfg = SimConfig::paper_multithreaded();
        let profile = BenchmarkId::Ocean.profile();
        let cell = Cell::new(&cfg, cfg.l2.banks, &profile, 7, 3_000);
        let mut seen = Vec::new();
        for p in 0..cell.parts {
            let outcomes = &cell.stream(p).outcomes;
            assert!(outcomes.windows(2).all(|w| w[0].idx < w[1].idx), "program order in p{p}");
            assert!(outcomes.iter().all(|o| cell.bank(o.addr) % cell.parts == p));
            seen.extend(outcomes.iter().map(|o| o.idx));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..3_000).collect::<Vec<u32>>());
    }

    /// A 256 KB L2 keeps the 2 × capacity warmup short.
    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_multithreaded();
        cfg.l2.capacity_bytes = 256 << 10;
        cfg
    }

    fn fresh_streams(
        cfg: &SimConfig,
        banks: usize,
        profile: &BenchmarkProfile,
        seed: u64,
    ) -> Vec<Stream> {
        let capacity_blocks = cfg.l2.capacity_bytes / cfg.l2.block_bytes;
        let set_count = capacity_blocks / cfg.l2.associativity;
        let parts = if banks.is_power_of_two() && banks <= set_count { banks } else { 1 };
        let warmup = (2 * capacity_blocks).max(2_000);
        outcome_streams(cfg, banks, parts, profile, seed, warmup, 2_000)
    }

    #[test]
    fn partitioned_streams_match_one_full_directory() {
        // The bank slices see exactly the accesses the full cache
        // routes to their sets, so their outcomes are the full
        // directory's.
        let cfg = small_cfg();
        let profile = BenchmarkId::Mg.profile();
        let streams = fresh_streams(&cfg, cfg.l2.banks, &profile, 5);
        assert_eq!(streams.len(), cfg.l2.banks);
        let mut merged: Vec<Outcome> = streams.iter().flat_map(|s| s.outcomes.clone()).collect();
        merged.sort_unstable_by_key(|o| o.idx);

        let l2 = &cfg.l2;
        let mut full = SetAssocCache::new(l2.capacity_bytes, l2.block_bytes, l2.associativity);
        let mut trace = profile.trace(5);
        let warmup = 2 * l2.capacity_bytes / l2.block_bytes;
        for a in trace.take(warmup) {
            let _ = full.access(a.addr, a.write, a.core);
        }
        let at_warmup = full.invalidations();
        let expect: Vec<Outcome> = (0..2_000)
            .map(|idx| {
                let a = trace.next_access();
                Outcome {
                    addr: a.addr,
                    idx,
                    write: a.write,
                    result: full.access(a.addr, a.write, a.core),
                }
            })
            .collect();
        assert_eq!(merged, expect);
        let invalidations: u64 = streams.iter().map(|s| s.invalidations).sum();
        assert_eq!(invalidations, full.invalidations() - at_warmup);
        assert!(expect.iter().any(|o| o.result == CacheOutcome::Miss { writeback: true }));
    }

    #[test]
    fn stream_key_covers_every_functional_input_and_nothing_else() {
        let cfg = small_cfg();
        let profile = BenchmarkId::Radix.profile();
        let banks = cfg.l2.banks;
        let key = |cfg: &SimConfig, banks, profile: &BenchmarkProfile, seed, accesses| {
            StreamKey::new(cfg, banks, profile, seed, accesses)
        };
        let base = key(&cfg, banks, &profile, 3, 2_000);
        let base_streams = fresh_streams(&cfg, banks, &profile, 3);

        // Every keyed input moves the key, and the stream with it.
        let profiles: [(&str, BenchmarkProfile); 6] = [
            ("id", BenchmarkProfile { id: BenchmarkId::Lu, ..profile }),
            ("cores", BenchmarkProfile { cores: 4, ..profile }),
            (
                "working_set_bytes",
                BenchmarkProfile { working_set_bytes: profile.working_set_bytes / 2, ..profile },
            ),
            (
                "hot_set_bytes",
                BenchmarkProfile { hot_set_bytes: profile.hot_set_bytes / 2, ..profile },
            ),
            (
                "hot_fraction",
                BenchmarkProfile { hot_fraction: profile.hot_fraction / 2.0, ..profile },
            ),
            (
                "write_fraction",
                BenchmarkProfile { write_fraction: profile.write_fraction / 2.0, ..profile },
            ),
        ];
        for (what, p) in &profiles {
            assert_ne!(key(&cfg, banks, p, 3, 2_000), base, "{what}");
            if *what != "id" {
                // The id only names the trace; its shape lives in the
                // other fields.
                assert_ne!(fresh_streams(&cfg, banks, p, 3), base_streams, "{what}");
            }
        }
        assert_ne!(key(&cfg, banks, &profile, 4, 2_000), base, "seed");
        assert_ne!(fresh_streams(&cfg, banks, &profile, 4), base_streams, "seed");
        assert_ne!(key(&cfg, banks, &profile, 3, 2_001), base, "accesses");
        assert_ne!(key(&cfg, 4, &profile, 3, 2_000), base, "banks");
        assert_ne!(fresh_streams(&cfg, 4, &profile, 3), base_streams, "banks");
        let geometries: [(&str, SimConfig); 3] = {
            let mut capacity = cfg;
            capacity.l2.capacity_bytes *= 2;
            let mut block = cfg;
            block.l2.block_bytes = 128;
            let mut ways = cfg;
            ways.l2.associativity = 8;
            [("capacity_bytes", capacity), ("block_bytes", block), ("associativity", ways)]
        };
        for (what, c) in &geometries {
            assert_ne!(key(c, banks, &profile, 3, 2_000), base, "{what}");
            assert_ne!(fresh_streams(c, banks, &profile, 3), base_streams, "{what}");
        }

        // What only the per-scheme passes read is not in the key.
        let mut others = vec![
            SimConfig::paper_out_of_order(),
            SimConfig { dram_channels: 4, ..SimConfig::default() },
            SimConfig { dram_latency_cycles: 300, ..SimConfig::default() },
            SimConfig { dram_occupancy_cycles: 48, ..SimConfig::default() },
            SimConfig { dram_epoch_cycles: 64, ..SimConfig::default() },
            SimConfig { desc_interface_cycles: 9, ..SimConfig::default() },
            SimConfig { last_value_write_penalty: 0.0, ..SimConfig::default() },
            SimConfig { shards: 8, ..SimConfig::default() },
        ];
        let mut bus = SimConfig::default();
        bus.l2.bus_width_bits = 128;
        others.push(bus);
        for mut other in others {
            other.l2.capacity_bytes = cfg.l2.capacity_bytes;
            assert_eq!(key(&other, banks, &profile, 3, 2_000), base, "{other:?}");
        }
        // Nor are the profile's timing and content fields.
        let timing = BenchmarkProfile { l2_apki: 99.0, base_ipc: 0.1, ..profile };
        assert_eq!(key(&cfg, banks, &profile, 3, 2_000), key(&cfg, banks, &timing, 3, 2_000));
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
