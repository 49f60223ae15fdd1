//! Property tests for the simulator substrates, on the seeded harness
//! `desc_core::rng::check_property`.

use desc_core::rng::check_property;
use desc_sim::bank::BankScheduler;
use desc_sim::cache::CacheOutcome;
use desc_sim::dram::Dram;
use desc_sim::SetAssocCache;

const CASES: u64 = 256;

/// Bank scheduling: starts never precede arrivals, a bank starts a
/// request as soon as both it and the request are ready (never
/// overlapping, never idling), queueing is exactly the difference, and
/// the horizon covers every grant.
#[test]
fn bank_scheduler_is_work_conserving() {
    check_property("bank_scheduler_is_work_conserving", CASES, |rng| {
        let mut banks = BankScheduler::new(8);
        let mut free_at = [0u64; 8];
        let mut last_end = 0u64;
        for _ in 0..rng.gen_range(1usize..200) {
            let (arrival, service) = (rng.gen_range(0u64..1000), rng.gen_range(1u64..50));
            let bank = rng.gen_range(0usize..8);
            let (start, queue) = banks.schedule(bank, arrival, service);
            assert!(start >= arrival, "bank {bank} started at {start} before {arrival}");
            assert_eq!(start, arrival.max(free_at[bank]), "bank {bank}");
            free_at[bank] = start + service;
            assert_eq!(queue, start - arrival);
            last_end = last_end.max(start + service);
        }
        assert_eq!(banks.horizon(), last_end);
    });
}

/// DRAM completions are causal and row hits never slower than
/// row misses.
#[test]
fn dram_is_causal() {
    check_property("dram_is_causal", CASES, |rng| {
        let mut dram = Dram::new(2, 120, 24);
        let mut now = 0u64;
        for _ in 0..rng.gen_range(1usize..200) {
            let addr = rng.gen_range(0u64..(1 << 24));
            let done = dram.access(addr & !63, now);
            assert!(done >= now + 72, "row hits still cost 60% of latency");
            // Worst case: every request queues behind every earlier one
            // on the same channel.
            assert!(done <= now + 200 * 24 + 120);
            now += 3;
        }
    });
}

/// A naive reference directory: per set, a recency list of resident
/// blocks (least recent first) with their dirty bit and sharer set.
struct ReferenceLru {
    sets: Vec<Vec<RefLine>>,
    ways: usize,
    block_bytes: u64,
    invalidations: u64,
}

#[derive(Clone, Copy)]
struct RefLine {
    block: u64,
    dirty: bool,
    sharers: u32,
}

impl ReferenceLru {
    fn new(sets: usize, ways: usize, block_bytes: u64) -> Self {
        Self { sets: vec![Vec::new(); sets], ways, block_bytes, invalidations: 0 }
    }

    fn access(&mut self, addr: u64, write: bool, core: u8) -> CacheOutcome {
        let block = addr / self.block_bytes;
        let index = (block % self.sets.len() as u64) as usize;
        let set = &mut self.sets[index];
        if let Some(i) = set.iter().position(|l| l.block == block) {
            let mut line = set.remove(i);
            if write {
                self.invalidations += u64::from((line.sharers & !(1 << core)).count_ones());
                line.dirty = true;
                line.sharers = 1 << core;
            } else {
                line.sharers |= 1 << core;
            }
            set.push(line);
            return CacheOutcome::Hit;
        }
        let writeback = set.len() == self.ways && set.remove(0).dirty;
        set.push(RefLine { block, dirty: write, sharers: 1 << core });
        CacheOutcome::Miss { writeback }
    }
}

/// The directory is true LRU, write-back and allocate-on-miss: access
/// by access, the full directory and every bank slice decide hit, miss
/// and miss-with-writeback exactly as a naive per-set recency list
/// does, and count the same L1 invalidations.
#[test]
fn cache_matches_a_reference_lru() {
    // Outcomes seen over all cases: each kind must occur, or the
    // comparison proves nothing about it.
    let mut seen = [0u64; 4];
    check_property("cache_matches_a_reference_lru", CASES, |rng| {
        let block_bytes = 32u64 << rng.gen_range(0u32..3);
        let ways = 1usize << rng.gen_range(0u32..4);
        let sets = 1usize << rng.gen_range(0u32..7);
        let capacity = block_bytes as usize * ways * sets;
        let banks = 1usize << rng.gen_range(0..=sets.trailing_zeros());
        let mut full = SetAssocCache::new(capacity, block_bytes as usize, ways);
        let mut slices: Vec<SetAssocCache> = (0..banks)
            .map(|b| SetAssocCache::bank_slice(capacity, block_bytes as usize, ways, banks, b))
            .collect();
        let mut reference = ReferenceLru::new(sets, ways, block_bytes);
        // A footprint of one to four capacities, half the accesses on
        // its first eighth so that sets see hits as well as evictions.
        let footprint = (capacity * rng.gen_range(1usize..5)) as u64;
        for i in 0..rng.gen_range(1usize..600) {
            let span = if rng.gen_bool(0.5) { footprint / 8 + 1 } else { footprint };
            let addr = rng.gen_range(0..span);
            let write = rng.gen_bool(0.3);
            let core = rng.gen_range(0u8..=4);
            let expect = reference.access(addr, write, core);
            assert_eq!(full.access(addr, write, core), expect, "access {i} at {addr:#x}");
            let bank = ((addr / block_bytes) % banks as u64) as usize;
            assert_eq!(slices[bank].access(addr, write, core), expect, "slice {bank}, access {i}");
            assert_eq!(full.invalidations(), reference.invalidations, "access {i}");
            seen[match expect {
                CacheOutcome::Hit => 0,
                CacheOutcome::Miss { writeback: false } => 1,
                CacheOutcome::Miss { writeback: true } => 2,
            }] += 1;
        }
        let sliced: u64 = slices.iter().map(SetAssocCache::invalidations).sum();
        assert_eq!(sliced, reference.invalidations);
        seen[3] += reference.invalidations;
    });
    assert!(seen.iter().all(|&n| n > 0), "hits, clean misses, writebacks, invalidations: {seen:?}");
}
