//! Simulation parameters (paper Table 1).

use desc_cacti::CacheConfig;

/// Core timing model: how much of the L2 access latency reaches
/// execution time.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CoreModel {
    /// Niagara-like fine-grained multithreading: 8 in-order cores with
    /// 4 hardware contexts each. A stalled context's latency is almost
    /// always hidden by the other contexts, so only a small fraction
    /// of each L2 access's latency is exposed.
    Throughput {
        /// Cores sharing the L2.
        cores: usize,
        /// Hardware contexts per core.
        contexts: usize,
        /// Fraction of per-access L2 latency exposed to execution time
        /// (calibrated so DESC's ≈8-cycle hit-latency increase costs
        /// <2% execution time, §5.3).
        exposure: f64,
    },
    /// 4-issue out-of-order core with a 128-entry ROB (§5.8): the ROB
    /// overlaps some latency, but a large fraction is exposed.
    OutOfOrder {
        /// Reorder-buffer entries.
        rob: usize,
        /// Fraction of per-access L2 latency exposed (calibrated so
        /// DESC costs ≈6% on SPEC 2006, Fig. 30).
        exposure: f64,
    },
}

impl CoreModel {
    /// Number of cores issuing accesses.
    #[must_use]
    pub fn cores(&self) -> usize {
        match self {
            CoreModel::Throughput { cores, .. } => *cores,
            CoreModel::OutOfOrder { .. } => 1,
        }
    }

    /// Exposed fraction of L2 latency.
    #[must_use]
    pub fn exposure(&self) -> f64 {
        match self {
            CoreModel::Throughput { exposure, .. } | CoreModel::OutOfOrder { exposure, .. } => {
                *exposure
            }
        }
    }
}

/// Full system configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// L2 organisation and devices.
    pub l2: CacheConfig,
    /// Core timing model.
    pub core: CoreModel,
    /// DRAM channels (Table 1: two DDR3-1066 channels).
    pub dram_channels: usize,
    /// DRAM access latency in core cycles (row activate + CAS + bus,
    /// ≈37 ns at 3.2 GHz).
    pub dram_latency_cycles: u64,
    /// Core cycles a 64-byte line occupies one DRAM channel
    /// (64 B / 8.5 GB s⁻¹ ≈ 7.5 ns ≈ 24 cycles).
    pub dram_occupancy_cycles: u64,
    /// Extra round-trip logic latency of a DESC interface pair in
    /// cycles (synthesis §5.1: 625 ps ≈ 2 cycles at 3.2 GHz).
    pub desc_interface_cycles: u64,
    /// Relative extra H-tree energy on *write* transitions under
    /// last-value-skipped DESC, which must broadcast writes across
    /// subbanks to keep the controller's last-value table coherent
    /// (§5.2). 0.0 for every other scheme.
    pub last_value_write_penalty: f64,
    /// Worker threads simulating one cell's L2 bank partitions (the
    /// intra-cell shard knob, `repro --shards`), honoured by both
    /// [`crate::system::SystemSim`] and [`crate::snuca::SnucaSim`].
    ///
    /// The simulation always decomposes a cell by home bank and merges
    /// per-bank results with a deterministic, order-independent
    /// reduction, so every result is **bit-identical for any value** —
    /// this knob only caps how many bank partitions run at once on the
    /// shared `desc-exec` pool. 1 (the default) runs them serially on
    /// the calling thread.
    pub shards: usize,
    /// Epoch length in cycles for the epoch-barrier reduction of
    /// cross-bank DRAM traffic: bank partitions advance independently
    /// within an epoch and their DRAM requests are exchanged and
    /// ordered `(epoch, program-order)` at epoch boundaries. Smaller
    /// epochs order DRAM contention closer to pure program order;
    /// larger epochs weight issue-time order more. Does not affect
    /// shard-count invariance.
    pub dram_epoch_cycles: u64,
}

impl SimConfig {
    /// The Table 1 multithreaded system: 8 in-order cores × 4
    /// contexts, 8 MB 16-way L2, two DDR3-1066 channels.
    #[must_use]
    pub fn paper_multithreaded() -> Self {
        Self {
            l2: CacheConfig::paper_baseline(),
            core: CoreModel::Throughput { cores: 8, contexts: 4, exposure: 0.24 },
            dram_channels: 2,
            dram_latency_cycles: 120,
            dram_occupancy_cycles: 24,
            desc_interface_cycles: 2,
            last_value_write_penalty: 0.5,
            shards: 1,
            dram_epoch_cycles: 2048,
        }
    }

    /// The Table 1 single-threaded system: one 4-issue out-of-order
    /// core with a 128-entry ROB.
    #[must_use]
    pub fn paper_out_of_order() -> Self {
        Self {
            core: CoreModel::OutOfOrder { rob: 128, exposure: 0.55 },
            ..Self::paper_multithreaded()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_multithreaded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let mt = SimConfig::paper_multithreaded();
        assert_eq!(mt.core.cores(), 8);
        assert_eq!(mt.l2.capacity_bytes, 8 << 20);
        assert_eq!(mt.l2.associativity, 16);
        assert_eq!(mt.dram_channels, 2);

        let ooo = SimConfig::paper_out_of_order();
        assert_eq!(ooo.core.cores(), 1);
        assert!(matches!(ooo.core, CoreModel::OutOfOrder { rob: 128, .. }));
    }

    #[test]
    fn throughput_cores_hide_more_latency_than_ooo() {
        let mt = SimConfig::paper_multithreaded();
        let ooo = SimConfig::paper_out_of_order();
        assert!(mt.core.exposure() < ooo.core.exposure());
    }
}
