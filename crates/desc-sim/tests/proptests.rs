//! Property-based tests for the simulator substrates.

// Gated: compiled only with `--features proptest`, which requires
// network access to fetch the `proptest` crate (see Cargo.toml).
#![cfg(feature = "proptest")]

use desc_sim::bank::BankScheduler;
use desc_sim::dram::Dram;
use desc_sim::SetAssocCache;
use proptest::prelude::*;

proptest! {
    /// Bank scheduling: starts never precede arrivals, queueing is
    /// exactly the difference, and the horizon covers every grant.
    #[test]
    fn bank_scheduler_is_work_conserving(
        requests in prop::collection::vec((0u64..1000, 1u64..50, 0usize..8), 1..200),
    ) {
        let mut banks = BankScheduler::new(8);
        let mut last_end = 0u64;
        for (arrival, service, bank) in requests {
            let (start, queue) = banks.schedule(bank, arrival, service);
            prop_assert!(start >= arrival);
            prop_assert_eq!(queue, start - arrival);
            last_end = last_end.max(start + service);
        }
        prop_assert_eq!(banks.horizon(), last_end);
    }

    /// DRAM completions are causal and row hits never slower than
    /// row misses.
    #[test]
    fn dram_is_causal(
        addrs in prop::collection::vec(0u64..(1 << 24), 1..200),
    ) {
        let mut dram = Dram::new(2, 120, 24);
        let mut now = 0u64;
        for addr in addrs {
            let done = dram.access(addr & !63, now);
            prop_assert!(done >= now + 72, "row hits still cost 60% of latency");
            // Worst case: every request queues behind every earlier one
            // on the same channel.
            prop_assert!(done <= now + 200 * 24 + 120);
            now += 3;
        }
    }

    /// The cache directory conserves accesses: every access is a hit
    /// or a miss, and a set never holds duplicate tags.
    #[test]
    fn cache_conserves_accesses(
        accesses in prop::collection::vec((0u64..(1 << 16), any::<bool>()), 1..500),
    ) {
        let mut cache = SetAssocCache::new(4096, 64, 4);
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (addr, write) in &accesses {
            if cache.access(addr & !63, *write, 0).is_hit() {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        prop_assert_eq!(hits + misses, accesses.len() as u64);
        // Re-touching the most recent block always hits.
        if let Some((addr, _)) = accesses.last() {
            prop_assert!(cache.access(addr & !63, false, 0).is_hit());
        }
    }
}
