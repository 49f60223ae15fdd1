//! # desc-mcpat
//!
//! A processor-level power roll-up standing in for McPAT (paper §4:
//! "Using McPAT, we estimate the overall processor power with and
//! without DESC at the L2 cache").
//!
//! The paper uses McPAT for exactly one purpose: converting L2 energy
//! changes into *total processor* energy changes (Figs. 1, 14, 19).
//! That conversion is governed by a single anchor — the L2 accounts
//! for ≈15% of processor energy on the baseline configuration — so
//! this crate models the rest of the chip as per-instruction core
//! energy, per-access L1 energy, and per-core leakage, with constants
//! chosen to land the anchor. Absolute wattage is *not* calibrated to
//! any real silicon (neither is the paper's, which reports everything
//! normalised); the ratios are what matter.
//!
//! ```
//! use desc_mcpat::{ProcessorConfig, ProcessorEnergy};
//! use desc_cacti::EnergyBreakdown;
//!
//! let cfg = ProcessorConfig::niagara_like();
//! let l2 = EnergyBreakdown { static_j: 2e-3, array_dynamic_j: 1e-3, htree_dynamic_j: 12e-3 };
//! let e = cfg.roll_up(1_000_000_000, 0.05, l2, 5_000_000);
//! let f = e.l2_fraction();
//! assert!(f > 0.0 && f < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use desc_cacti::EnergyBreakdown;
use std::fmt;

/// Per-component energy constants for a processor class.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProcessorConfig {
    /// Number of cores.
    pub cores: usize,
    /// Core pipeline energy per committed instruction in joules
    /// (fetch/decode/execute/register files).
    pub core_j_per_instruction: f64,
    /// L1 (I+D) energy per L1 access in joules.
    pub l1_j_per_access: f64,
    /// L1 accesses per instruction (instruction fetch + data).
    pub l1_accesses_per_instruction: f64,
    /// Core + L1 leakage per core in watts (low-leakage cores, as the
    /// paper's LSTP-biased design space implies).
    pub core_leakage_w: f64,
    /// DRAM energy per 64-byte access in joules. Reported separately;
    /// *not* part of processor energy (McPAT models the chip).
    pub dram_j_per_access: f64,
}

impl ProcessorConfig {
    /// The Table 1 multithreaded machine: 8 in-order cores, 4 contexts
    /// each. Constants are set so the 8 MB LSTP L2 lands at ≈15% of
    /// processor energy on the parallel suite (paper Fig. 1).
    #[must_use]
    pub fn niagara_like() -> Self {
        Self {
            cores: 8,
            core_j_per_instruction: 7.3e-12,
            l1_j_per_access: 0.85e-12,
            l1_accesses_per_instruction: 1.3,
            core_leakage_w: 2.7e-3,
            dram_j_per_access: 20e-9,
        }
    }

    /// The Table 1 single-threaded machine: one 4-issue out-of-order
    /// core (wider structures → much higher per-instruction energy).
    #[must_use]
    pub fn out_of_order() -> Self {
        Self {
            cores: 1,
            core_j_per_instruction: 50e-12,
            l1_j_per_access: 1.2e-12,
            l1_accesses_per_instruction: 1.4,
            core_leakage_w: 8.3e-3,
            dram_j_per_access: 20e-9,
        }
    }

    /// Rolls up processor energy for a simulated interval.
    ///
    /// * `instructions` — committed instructions in the interval,
    /// * `exec_time_s` — wall-clock duration,
    /// * `l2` — the L2's energy breakdown (from `desc-cacti`),
    /// * `dram_accesses` — L2 misses + writebacks reaching DRAM.
    #[must_use]
    pub fn roll_up(
        &self,
        instructions: u64,
        exec_time_s: f64,
        l2: EnergyBreakdown,
        dram_accesses: u64,
    ) -> ProcessorEnergy {
        let core_dynamic = instructions as f64 * self.core_j_per_instruction;
        let l1 = instructions as f64 * self.l1_accesses_per_instruction * self.l1_j_per_access;
        let core_static = self.cores as f64 * self.core_leakage_w * exec_time_s;
        ProcessorEnergy {
            core_j: core_dynamic + core_static,
            l1_j: l1,
            l2,
            dram_j: dram_accesses as f64 * self.dram_j_per_access,
        }
    }
}

/// Energy of one simulated interval, by component.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProcessorEnergy {
    /// Core pipelines (dynamic + leakage).
    pub core_j: f64,
    /// L1 instruction + data caches.
    pub l1_j: f64,
    /// The shared L2 (static / array / H-tree split preserved).
    pub l2: EnergyBreakdown,
    /// Off-chip DRAM (not counted in processor totals).
    pub dram_j: f64,
}

impl ProcessorEnergy {
    /// Total on-chip processor energy (cores + L1s + L2).
    #[must_use]
    pub fn processor_total_j(&self) -> f64 {
        self.core_j + self.l1_j + self.l2.total()
    }

    /// Fraction of processor energy spent in the L2 (paper Fig. 1).
    #[must_use]
    pub fn l2_fraction(&self) -> f64 {
        self.l2.total() / self.processor_total_j()
    }

    /// Energy of everything except the L2 (the paper's Fig. 19 "Other
    /// Hardware Units" bar).
    #[must_use]
    pub fn other_units_j(&self) -> f64 {
        self.core_j + self.l1_j
    }
}

impl fmt::Display for ProcessorEnergy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3e} J processor ({:.1}% L2), {:.3e} J DRAM",
            self.processor_total_j(),
            100.0 * self.l2_fraction(),
            self.dram_j
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2_sample() -> EnergyBreakdown {
        // Representative of the baseline L2 over a 50 ms window at
        // ~300M accesses/s: mostly H-tree.
        EnergyBreakdown { static_j: 0.27e-3, array_dynamic_j: 0.12e-3, htree_dynamic_j: 1.5e-3 }
    }

    #[test]
    fn niagara_l2_fraction_is_near_15_percent() {
        // Paper Fig. 1 geomean anchor. 50 ms of 8 cores at 3.2 GHz and
        // IPC ≈ 0.9 → ~1.15e9 instructions.
        let e =
            ProcessorConfig::niagara_like().roll_up(1_150_000_000, 0.05, l2_sample(), 4_000_000);
        let f = e.l2_fraction();
        assert!((0.10..=0.22).contains(&f), "L2 fraction {f:.3}, paper ≈0.15");
    }

    #[test]
    fn halving_l2_energy_saves_roughly_its_share() {
        // Paper Fig. 19 arithmetic: 1.81× L2 reduction at a 15% share
        // → ≈7% total processor savings.
        let cfg = ProcessorConfig::niagara_like();
        let base = cfg.roll_up(1_150_000_000, 0.05, l2_sample(), 4_000_000);
        let mut reduced = l2_sample();
        reduced.htree_dynamic_j /= 2.4; // what zero-skip DESC does
        let better = cfg.roll_up(1_150_000_000, 0.05, reduced, 4_000_000);
        let saving = 1.0 - better.processor_total_j() / base.processor_total_j();
        assert!((0.03..=0.13).contains(&saving), "processor saving {saving:.3}, paper ≈0.07");
    }

    #[test]
    fn ooo_core_dwarfs_l2_share() {
        let e = ProcessorConfig::out_of_order().roll_up(200_000_000, 0.05, l2_sample(), 4_000_000);
        assert!(e.l2_fraction() < 0.25);
        assert!(e.core_j > e.l1_j);
    }

    #[test]
    fn dram_not_in_processor_total() {
        let cfg = ProcessorConfig::niagara_like();
        let a = cfg.roll_up(1_000_000, 0.001, l2_sample(), 0);
        let b = cfg.roll_up(1_000_000, 0.001, l2_sample(), 1_000_000);
        assert!((a.processor_total_j() - b.processor_total_j()).abs() < 1e-15);
        assert!(b.dram_j > a.dram_j);
    }

    #[test]
    fn components_decompose() {
        let e = ProcessorConfig::niagara_like().roll_up(1_000_000, 0.001, l2_sample(), 10);
        assert!(
            (e.processor_total_j() - e.other_units_j() - e.l2.total()).abs()
                < 1e-12 * e.processor_total_j()
        );
        assert!(format!("{e}").contains("processor"));
    }
}
