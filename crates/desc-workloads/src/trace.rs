//! L2 access-trace generation.
//!
//! Each benchmark produces a deterministic stream of post-L1 cache
//! accesses: a mix of revisits to a *hot set* (which an 8 MB L2
//! retains) and strided streaming over the full working set (which
//! misses once the footprint exceeds the cache). Sequential runs model
//! spatial locality; per-core address-space interleaving models the
//! Niagara-like machine's eight cores sharing the L2.

use crate::profile::BenchmarkProfile;
use desc_core::rng::Rng64;

/// One L2 access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Block-aligned physical address.
    pub addr: u64,
    /// Write (store / writeback) vs read.
    pub write: bool,
    /// Issuing core (0 for single-threaded workloads).
    pub core: u8,
}

/// Deterministic generator of [`Access`] streams for a benchmark.
///
/// # Examples
///
/// ```
/// use desc_workloads::BenchmarkId;
///
/// let profile = BenchmarkId::Radix.profile();
/// let mut gen = profile.trace(1);
/// let a = gen.next_access();
/// assert_eq!(a.addr % 64, 0, "accesses are block aligned");
/// assert!((a.core as usize) < profile.cores);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    rng: Rng64,
    cores: usize,
    hot_blocks: u64,
    total_blocks: u64,
    hot_fraction: f64,
    write_fraction: f64,
    /// Per-core streaming cursor (sequential-run position).
    cursors: Vec<u64>,
    /// Remaining length of the current sequential run per core.
    run_left: Vec<u32>,
    /// Accesses drawn since creation; flushed to the
    /// `workloads.accesses_generated` counter once, on drop, instead of
    /// taking an atomic add per access.
    pending_accesses: u64,
}

const BLOCK: u64 = 64;

impl TraceGenerator {
    /// Creates a generator for `profile` with a deterministic `seed`.
    #[must_use]
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        let rng = Rng64::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
        let total_blocks = (profile.working_set_bytes as u64 / BLOCK).max(1);
        let hot_blocks = (profile.hot_set_bytes as u64 / BLOCK).clamp(1, total_blocks);
        Self {
            rng,
            cores: profile.cores,
            hot_blocks,
            total_blocks,
            hot_fraction: profile.hot_fraction,
            write_fraction: profile.write_fraction,
            cursors: vec![0; profile.cores],
            run_left: vec![0; profile.cores],
            pending_accesses: 0,
        }
    }

    /// Draws the next access.
    pub fn next_access(&mut self) -> Access {
        let core = self.rng.gen_range(0..self.cores);
        let write = self.rng.gen::<f64>() < self.write_fraction;
        let addr = if self.rng.gen::<f64>() < self.hot_fraction {
            // Hot-set revisit: uniform over the resident subset, offset
            // per core so cores share some blocks but not all.
            let b = self.rng.gen_range(0..self.hot_blocks);
            let core_shift = (core as u64) * (self.hot_blocks / (2 * self.cores as u64 + 1));
            ((b + core_shift) % self.total_blocks) * BLOCK
        } else {
            // Streaming: sequential runs over the full working set.
            if self.run_left[core] == 0 {
                self.run_left[core] = self.rng.gen_range(4u32..32);
                self.cursors[core] = self.rng.gen_range(0..self.total_blocks);
            }
            self.run_left[core] -= 1;
            let b = self.cursors[core];
            self.cursors[core] = (self.cursors[core] + 1) % self.total_blocks;
            b * BLOCK
        };
        self.pending_accesses += 1;
        Access { addr, write, core: core as u8 }
    }

    /// Convenience: materialise `n` accesses.
    pub fn take(&mut self, n: usize) -> Vec<Access> {
        (0..n).map(|_| self.next_access()).collect()
    }
}

impl Clone for TraceGenerator {
    /// Clones the generator state; the clone starts its own telemetry
    /// tally so drawn accesses are never double-counted.
    fn clone(&self) -> Self {
        Self {
            rng: self.rng.clone(),
            cores: self.cores,
            hot_blocks: self.hot_blocks,
            total_blocks: self.total_blocks,
            hot_fraction: self.hot_fraction,
            write_fraction: self.write_fraction,
            cursors: self.cursors.clone(),
            run_left: self.run_left.clone(),
            pending_accesses: 0,
        }
    }
}

impl Drop for TraceGenerator {
    fn drop(&mut self) {
        if self.pending_accesses > 0 && desc_telemetry::enabled() {
            desc_telemetry::counter!("workloads.accesses_generated").add(self.pending_accesses);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::profile::BenchmarkId;
    use std::collections::HashSet;

    #[test]
    fn deterministic_given_seed() {
        let p = BenchmarkId::Ocean.profile();
        let a: Vec<_> = p.trace(9).take(256);
        let b: Vec<_> = p.trace(9).take(256);
        assert_eq!(a, b);
    }

    #[test]
    fn addresses_stay_within_working_set() {
        let p = BenchmarkId::Lu.profile();
        let mut gen = p.trace(1);
        for _ in 0..10_000 {
            let a = gen.next_access();
            assert!(a.addr < p.working_set_bytes as u64);
            assert_eq!(a.addr % 64, 0);
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let p = BenchmarkId::Radix.profile(); // write_fraction 0.5
        let mut gen = p.trace(3);
        let writes = (0..20_000).filter(|_| gen.next_access().write).count();
        let f = writes as f64 / 20_000.0;
        assert!((f - p.write_fraction).abs() < 0.03, "write fraction {f:.3}");
    }

    #[test]
    fn all_cores_issue_accesses() {
        let p = BenchmarkId::Fft.profile();
        let mut gen = p.trace(5);
        let cores: HashSet<u8> = (0..4000).map(|_| gen.next_access().core).collect();
        assert_eq!(cores.len(), 8);
    }

    #[test]
    fn hot_set_dominates_for_cache_resident_apps() {
        // LU's hot fraction is 0.92: most accesses revisit a 2 MB set.
        let p = BenchmarkId::Lu.profile();
        let mut gen = p.trace(7);
        let unique: HashSet<u64> = (0..50_000).map(|_| gen.next_access().addr).collect();
        // Footprint touched is far below the full working set would
        // imply for uniform traffic.
        assert!(unique.len() < 40_000, "unique blocks {}", unique.len());
    }

    #[test]
    fn streaming_apps_touch_wide_footprints() {
        let p = BenchmarkId::Mcf.profile(); // hot fraction 0.40
        let mut gen = p.trace(7);
        let unique: HashSet<u64> = (0..50_000).map(|_| gen.next_access().addr).collect();
        assert!(unique.len() > 10_000, "unique blocks {}", unique.len());
    }

    #[test]
    fn sequential_runs_exist() {
        let p = BenchmarkId::Swim.profile();
        let mut gen = p.trace(11);
        let accesses = gen.take(5_000);
        let sequential = accesses.windows(2).filter(|w| w[1].addr == w[0].addr + 64).count();
        assert!(sequential > 50, "sequential pairs {sequential}");
    }
}
