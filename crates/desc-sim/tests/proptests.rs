//! Property tests for the simulator substrates, on the seeded harness
//! `desc_core::rng::check_property`.

use desc_core::rng::check_property;
use desc_sim::bank::BankScheduler;
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

/// The cache directory conserves accesses: every access is a hit
/// or a miss, and a set never holds duplicate tags.
#[test]
fn cache_conserves_accesses() {
    check_property("cache_conserves_accesses", CASES, |rng| {
        let accesses: Vec<(u64, bool)> = (0..rng.gen_range(1usize..500))
            .map(|_| (rng.gen_range(0u64..(1 << 16)), rng.gen()))
            .collect();
        let mut cache = SetAssocCache::new(4096, 64, 4);
        let (mut hits, mut misses) = (0u64, 0u64);
        for &(addr, write) in &accesses {
            if cache.access(addr & !63, write, 0).is_hit() {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert_eq!(hits + misses, accesses.len() as u64);
        // Re-touching the most recent block always hits.
        let (addr, _) = accesses.last().expect("at least one access");
        assert!(cache.access(addr & !63, false, 0).is_hit());
    });
}
