//! Set-associative cache directory with true-LRU replacement.
//!
//! Tags only — block *contents* are modelled statistically by
//! `desc-workloads` value streams, so the directory tracks presence,
//! dirtiness, and sharers, which is all the timing and activity model
//! needs.

/// Result of a cache lookup-and-update.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The block was present.
    Hit,
    /// The block was absent; no dirty block was displaced.
    Miss {
        /// Whether the fill displaced a dirty block that must be
        /// written back.
        writeback: bool,
    },
}

impl CacheOutcome {
    /// True on hit.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp: higher = more recent.
    stamp: u64,
    /// Bitmap of cores that touched the block since the last write.
    sharers: u32,
}

/// A set-associative, write-back, allocate-on-miss cache directory.
///
/// # Examples
///
/// ```
/// use desc_sim::SetAssocCache;
///
/// let mut l2 = SetAssocCache::new(8 << 20, 64, 16);
/// assert!(!l2.access(0x1000, false, 0).is_hit()); // cold miss
/// assert!(l2.access(0x1000, false, 0).is_hit());  // now resident
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    /// All lines in one flat allocation, `ways` consecutive entries
    /// per set — the directory is scanned on every simulated access,
    /// so contiguity (and not re-allocating per bank slice) matters.
    lines: Vec<Line>,
    ways: usize,
    set_shift: u32,
    /// Mask over the *global* set index (full-cache set count − 1),
    /// even for a bank slice.
    set_mask: u64,
    /// log2 of the global set count — where the tag begins.
    tag_shift: u32,
    /// log2 of the bank count for a bank slice (0 for a full cache):
    /// with block-interleaved banking the low `slice_shift` bits of the
    /// global set index equal the bank id, so shifting them out yields
    /// the local set index.
    slice_shift: u32,
    clock: u64,
    invalidations: u64,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `block_bytes` blocks
    /// and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not
    /// a power-of-two multiple of `block_bytes × ways`).
    #[must_use]
    pub fn new(capacity_bytes: usize, block_bytes: usize, ways: usize) -> Self {
        let set_count = Self::checked_set_count(capacity_bytes, block_bytes, ways);
        Self {
            lines: vec![Line::default(); set_count * ways],
            ways,
            set_shift: block_bytes.trailing_zeros(),
            set_mask: (set_count - 1) as u64,
            tag_shift: set_count.trailing_zeros(),
            slice_shift: 0,
            clock: 0,
            invalidations: 0,
        }
    }

    /// Validates the geometry and returns the full-cache set count.
    fn checked_set_count(capacity_bytes: usize, block_bytes: usize, ways: usize) -> usize {
        assert!(capacity_bytes > 0 && block_bytes > 0 && ways > 0, "degenerate geometry");
        let blocks = capacity_bytes / block_bytes;
        assert!(blocks >= ways, "capacity below one set");
        let set_count = blocks / ways;
        assert!(set_count.is_power_of_two(), "set count {set_count} must be a power of two");
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        set_count
    }

    /// Creates the directory slice owned by one bank of a
    /// block-interleaved banked cache.
    ///
    /// With `bank_of(addr) = block % banks` and `set = block % sets`,
    /// any power-of-two `banks ≤ sets` makes the bank id exactly the
    /// low bits of the set index, so the cache's sets partition cleanly
    /// across banks: this slice holds the `sets / banks` sets whose
    /// index is ≡ `bank (mod banks)` and sees exactly the accesses the
    /// full cache would route to them. Simulating every bank's slice
    /// independently therefore reproduces the full cache's hit/miss/
    /// victim decisions — the basis of bank-sharded simulation.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`SetAssocCache::new`]), if
    /// `banks` is not a power of two, if `banks` exceeds the set count,
    /// or if `bank >= banks`.
    #[must_use]
    pub fn bank_slice(
        capacity_bytes: usize,
        block_bytes: usize,
        ways: usize,
        banks: usize,
        bank: usize,
    ) -> Self {
        // The slice allocates only its own sets — a 128-bank S-NUCA
        // run builds 128 slices per cell, so constructing (and then
        // discarding) the full directory here would dominate setup.
        let set_count = Self::checked_set_count(capacity_bytes, block_bytes, ways);
        assert!(banks.is_power_of_two(), "bank count {banks} must be a power of two");
        assert!(banks <= set_count, "bank count {banks} exceeds set count {set_count}");
        assert!(bank < banks, "bank {bank} out of range");
        Self {
            lines: vec![Line::default(); (set_count / banks) * ways],
            ways,
            set_shift: block_bytes.trailing_zeros(),
            set_mask: (set_count - 1) as u64,
            tag_shift: set_count.trailing_zeros(),
            slice_shift: banks.trailing_zeros(),
            clock: 0,
            invalidations: 0,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.lines.len() / self.ways
    }

    /// Looks up `addr`, allocating on miss (LRU victim), marking dirty
    /// on write, and tracking sharers for invalidation statistics.
    pub fn access(&mut self, addr: u64, write: bool, core: u8) -> CacheOutcome {
        self.clock += 1;
        let block = addr >> self.set_shift;
        let set_index = ((block & self.set_mask) >> self.slice_shift) as usize;
        let tag = block >> self.tag_shift;
        let base = set_index * self.ways;
        let set = &mut self.lines[base..base + self.ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.stamp = self.clock;
            if write {
                // A write by one core invalidates other sharers' L1
                // copies (MESI-style upgrade).
                let others = line.sharers & !(1 << core);
                if others != 0 {
                    self.invalidations += u64::from(others.count_ones());
                }
                line.dirty = true;
                line.sharers = 1 << core;
            } else {
                line.sharers |= 1 << core;
            }
            return CacheOutcome::Hit;
        }

        // Miss: evict LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("sets are non-empty");
        let writeback = victim.valid && victim.dirty;
        *victim = Line { tag, valid: true, dirty: write, stamp: self.clock, sharers: 1 << core };
        CacheOutcome::Miss { writeback }
    }

    /// L1 invalidation messages generated by write sharing so far.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_geometry() {
        let l2 = SetAssocCache::new(8 << 20, 64, 16);
        assert_eq!(l2.set_count(), 8192);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, 2-set cache: fill one set with A and B, touch A, add
        // C → B must be evicted.
        let mut c = SetAssocCache::new(256, 64, 2); // 2 sets × 2 ways
        let a = 0x000;
        let b = 0x100; // same set as A (set bit = bit 6)
        let c3 = 0x200;
        assert!(!c.access(a, false, 0).is_hit());
        assert!(!c.access(b, false, 0).is_hit());
        assert!(c.access(a, false, 0).is_hit());
        assert!(!c.access(c3, false, 0).is_hit()); // evicts B
        assert!(c.access(a, false, 0).is_hit());
        assert!(!c.access(b, false, 0).is_hit()); // B was the victim
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = SetAssocCache::new(128, 64, 1); // direct-mapped, 2 sets
        assert!(!c.access(0x000, true, 0).is_hit());
        match c.access(0x100, false, 0) {
            CacheOutcome::Miss { writeback } => assert!(writeback),
            CacheOutcome::Hit => panic!("conflicting block must miss"),
        }
        // The replacement was clean, so the next eviction is clean.
        match c.access(0x200, false, 0) {
            CacheOutcome::Miss { writeback } => assert!(!writeback),
            CacheOutcome::Hit => panic!("conflicting block must miss"),
        }
    }

    #[test]
    fn write_sharing_counts_invalidations() {
        let mut c = SetAssocCache::new(8 << 20, 64, 16);
        c.access(0x40, false, 0);
        c.access(0x40, false, 1);
        c.access(0x40, false, 2);
        assert_eq!(c.invalidations(), 0);
        c.access(0x40, true, 3); // invalidates cores 0–2
        assert_eq!(c.invalidations(), 3);
        c.access(0x40, true, 3); // sole owner: nothing to invalidate
        assert_eq!(c.invalidations(), 3);
    }

    #[test]
    fn working_set_beyond_capacity_misses() {
        let mut c = SetAssocCache::new(4096, 64, 4);
        // Stream 4× the capacity twice: second pass still misses.
        let blocks = 4 * 4096 / 64;
        for pass in 0..2 {
            let mut misses = 0;
            for b in 0..blocks {
                if !c.access((b * 64) as u64, false, 0).is_hit() {
                    misses += 1;
                }
            }
            assert_eq!(misses, blocks, "pass {pass}");
        }
    }

    #[test]
    fn resident_set_hits_after_warmup() {
        let mut c = SetAssocCache::new(8192, 64, 4);
        for b in 0..64u64 {
            c.access(b * 64, false, 0);
        }
        let hits = (0..64u64).filter(|b| c.access(b * 64, false, 0).is_hit()).count();
        assert_eq!(hits, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(3 * 64 * 4, 64, 4);
    }

    #[test]
    fn bank_slices_reproduce_the_full_cache_exactly() {
        // Drive a mixed read/write stream through the full cache and
        // through per-bank slices; every outcome must match and the
        // invalidation counts must sum. This is the exactness argument
        // behind bank-sharded simulation: sets partition by bank, and
        // LRU stamps only ever compare within one set.
        let (capacity, block, ways, banks) = (16 << 10, 64, 4, 4);
        let mut full = SetAssocCache::new(capacity, block, ways);
        let mut slices: Vec<SetAssocCache> = (0..banks)
            .map(|b| SetAssocCache::bank_slice(capacity, block, ways, banks, b))
            .collect();

        let mut state = 42u64;
        for i in 0..20_000u64 {
            // Cheap LCG over a footprint 4× the capacity.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (state >> 16) % (4 * capacity as u64);
            let write = state.is_multiple_of(3);
            let core = (state % 4) as u8;
            let bank = ((addr / block as u64) % banks as u64) as usize;
            let expect = full.access(addr, write, core);
            let got = slices[bank].access(addr, write, core);
            assert_eq!(got, expect, "access {i} addr {addr:#x} bank {bank}");
        }
        let sliced: u64 = slices.iter().map(SetAssocCache::invalidations).sum();
        assert_eq!(sliced, full.invalidations());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bank_slice_rejects_non_power_of_two_banks() {
        let _ = SetAssocCache::bank_slice(8 << 20, 64, 16, 3, 0);
    }
}
