//! Whole-cache roll-up: the five CACTI quantities as functions of the
//! cache organisation (paper §4.1).

use crate::geometry::Floorplan;
use crate::tech::{DeviceType, TechParams};
use crate::wire::{Signaling, WireModel};
use std::fmt;

/// Organisation of a banked SRAM cache.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Number of independently accessible banks.
    pub banks: usize,
    /// Data-bus width in wires (the paper sweeps 8–512).
    pub bus_width_bits: usize,
    /// Cache block size in bytes (Table 1: 64).
    pub block_bytes: usize,
    /// Set associativity (Table 1: 16).
    pub associativity: usize,
    /// Device class of the SRAM cells.
    pub cell_device: DeviceType,
    /// Device class of the peripheral circuitry (decoders, sense amps,
    /// H-tree repeaters).
    pub periphery_device: DeviceType,
    /// Process constants.
    pub tech: TechParams,
    /// Electrical signaling style of the H-tree wires.
    pub signaling: Signaling,
}

impl CacheConfig {
    /// The paper's most energy-efficient baseline (§4.1): 8 MB, 8
    /// banks, 64-bit data bus, LSTP cells and periphery.
    #[must_use]
    pub fn paper_baseline() -> Self {
        Self {
            capacity_bytes: 8 << 20,
            banks: 8,
            bus_width_bits: 64,
            block_bytes: 64,
            associativity: 16,
            cell_device: DeviceType::Lstp,
            periphery_device: DeviceType::Lstp,
            tech: TechParams::nm22(),
            signaling: Signaling::FullSwing,
        }
    }

    /// Address + control wires accompanying the data bus (sent in
    /// plain binary even under DESC, §3.2.1).
    #[must_use]
    pub fn address_control_wires(&self) -> usize {
        48
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// Per-access and per-second cost factors of a cache organisation.
///
/// # Examples
///
/// ```
/// use desc_cacti::{CacheConfig, CacheModel, DeviceType};
///
/// let lstp = CacheModel::new(CacheConfig::paper_baseline());
/// let hp = CacheModel::new(CacheConfig {
///     cell_device: DeviceType::Hp,
///     periphery_device: DeviceType::Hp,
///     ..CacheConfig::paper_baseline()
/// });
/// // HP arrays are faster but leak orders of magnitude more.
/// assert!(hp.hit_latency_cycles() < lstp.hit_latency_cycles());
/// assert!(hp.leakage_power() > 50.0 * lstp.leakage_power());
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CacheModel {
    config: CacheConfig,
    floorplan: Floorplan,
    data_path: WireModel,
}

impl CacheModel {
    /// Builds the model for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero capacity, banks
    /// or widths).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.block_bytes > 0, "block size must be positive");
        assert!(config.associativity > 0, "associativity must be positive");
        let floorplan = Floorplan::new(
            &config.tech,
            config.capacity_bytes,
            config.banks,
            config.bus_width_bits,
        );
        let data_path = WireModel::with_signaling(
            &config.tech,
            floorplan.htree_path_mm(),
            config.periphery_device,
            config.signaling,
        );
        Self { config, floorplan, data_path }
    }

    /// The configuration this model was built from.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The floorplan underlying the model.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Energy of one transition on one H-tree wire over the full
    /// controller ↔ mat path, in joules. **This is the quantity DESC
    /// reduces.**
    #[must_use]
    pub fn htree_energy_per_transition(&self) -> f64 {
        self.data_path.energy_per_transition()
    }

    /// Array energy per block read in joules: row decode (periphery)
    /// plus bitline/senseamp swing for every bit of the block (cells).
    #[must_use]
    pub fn array_read_energy(&self) -> f64 {
        let decode = 5e-12 * self.config.periphery_device.dynamic_energy_factor();
        let bitlines = self.config.block_bytes as f64
            * 8.0
            * 20e-15
            * self.config.cell_device.dynamic_energy_factor();
        decode + bitlines
    }

    /// Array energy per block write in joules (full bitline swing:
    /// ≈1.2× a read).
    #[must_use]
    pub fn array_write_energy(&self) -> f64 {
        self.array_read_energy() * 1.2
    }

    /// Tag-array energy per lookup in joules.
    #[must_use]
    pub fn tag_access_energy(&self) -> f64 {
        2e-12 * self.config.periphery_device.dynamic_energy_factor()
    }

    /// Total leakage power in watts: cells + peripheral circuitry +
    /// H-tree repeaters for the data, address and control wires.
    #[must_use]
    pub fn leakage_power(&self) -> f64 {
        let bits = self.config.capacity_bytes as f64 * 8.0;
        let cells = bits * self.config.cell_device.cell_leakage_w_per_bit();
        // Peripheral area = everything that is not cells.
        let cell_area_um2 = bits * self.config.tech.cell_area_um2;
        let periphery_area_um2 = (self.floorplan.area_mm2() * 1e6 - cell_area_um2).max(0.0);
        let periphery =
            periphery_area_um2 * self.config.periphery_device.periphery_leakage_w_per_um2();
        let wires = self.config.bus_width_bits + self.config.address_control_wires();
        let repeaters = self.floorplan.total_tree_mm_per_wire()
            * wires as f64
            * 60.0
            * self.config.periphery_device.periphery_leakage_w_per_um2();
        cells + periphery + repeaters
    }

    /// Cache area in mm².
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        self.floorplan.area_mm2()
    }

    /// Array (decode + wordline + bitline + sense) delay in cycles for
    /// a data access, before any interconnect or serialization.
    #[must_use]
    pub fn array_delay_cycles(&self) -> u64 {
        // HP array delay ≈ 22.3 ps × (bank bits)^0.25 — calibrated so a
        // 1 MB LSTP bank takes ≈2.4 ns (paper Table 1 latencies).
        let t_hp_s = 22.3e-12 * self.floorplan.bank_bits().powf(0.25);
        let device = 0.5 * self.config.cell_device.delay_factor()
            + 0.5 * self.config.periphery_device.delay_factor();
        ((t_hp_s * device) / self.config.tech.cycle_s()).ceil().max(1.0) as u64
    }

    /// One-way H-tree flight time in cycles.
    #[must_use]
    pub fn htree_delay_cycles(&self) -> u64 {
        self.data_path.delay_cycles(&self.config.tech)
    }

    /// Bus beats to move one block over the data bus in plain binary.
    #[must_use]
    pub fn binary_transfer_cycles(&self) -> u64 {
        (self.config.block_bytes * 8).div_ceil(self.config.bus_width_bits) as u64
    }

    /// L2 hit latency in cycles with conventional binary transfer:
    /// array access + tree flight + block serialization. For the
    /// paper baseline this lands on Table 1's 19 cycles.
    #[must_use]
    pub fn hit_latency_cycles(&self) -> u64 {
        self.array_delay_cycles() + self.htree_delay_cycles() + self.binary_transfer_cycles()
    }

    /// Hit latency with the block-transfer serialization replaced by a
    /// caller-supplied cycle count (how DESC and the baselines plug
    /// their own transfer latencies in), plus any interface logic
    /// delay in cycles.
    #[must_use]
    pub fn hit_latency_with_transfer(&self, transfer_cycles: u64, interface_cycles: u64) -> u64 {
        self.array_delay_cycles() + self.htree_delay_cycles() + transfer_cycles + interface_cycles
    }

    /// Miss-detection latency in cycles (tag path only; Table 1: 12).
    #[must_use]
    pub fn miss_latency_cycles(&self) -> u64 {
        self.array_delay_cycles() + self.htree_delay_cycles() + 1
    }
}

/// Energy of a simulated interval, split the way the paper's Fig. 2 /
/// Fig. 18 split it.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct EnergyBreakdown {
    /// Leakage energy in joules.
    pub static_j: f64,
    /// Array + tag dynamic energy in joules ("other dynamic").
    pub array_dynamic_j: f64,
    /// H-tree switching energy in joules.
    pub htree_dynamic_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.static_j + self.array_dynamic_j + self.htree_dynamic_j
    }

    /// Fraction contributed by the H-tree.
    #[must_use]
    pub fn htree_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.htree_dynamic_j / self.total()
        }
    }

    /// Fraction contributed by leakage.
    #[must_use]
    pub fn static_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.static_j / self.total()
        }
    }

    /// Element-wise sum.
    #[must_use]
    pub fn combined(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            static_j: self.static_j + other.static_j,
            array_dynamic_j: self.array_dynamic_j + other.array_dynamic_j,
            htree_dynamic_j: self.htree_dynamic_j + other.htree_dynamic_j,
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3e} J (static {:.0}%, array {:.0}%, H-tree {:.0}%)",
            self.total(),
            100.0 * self.static_fraction(),
            100.0 * self.array_dynamic_j / self.total().max(f64::MIN_POSITIVE),
            100.0 * self.htree_fraction()
        )
    }
}

/// Activity counts accumulated by a simulation, to be priced by a
/// [`CacheModel`].
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CacheActivity {
    /// Wire transitions on the data H-tree (full-path, summed over
    /// wires).
    pub htree_transitions: u64,
    /// Block reads served by the arrays.
    pub array_reads: u64,
    /// Block writes into the arrays.
    pub array_writes: u64,
    /// Tag lookups.
    pub tag_lookups: u64,
    /// Simulated wall-clock time in seconds.
    pub elapsed_s: f64,
}

impl CacheModel {
    /// Prices a simulated interval's activity.
    #[must_use]
    pub fn energy_for(&self, activity: &CacheActivity) -> EnergyBreakdown {
        EnergyBreakdown {
            static_j: self.leakage_power() * activity.elapsed_s,
            array_dynamic_j: activity.array_reads as f64 * self.array_read_energy()
                + activity.array_writes as f64 * self.array_write_energy()
                + activity.tag_lookups as f64 * self.tag_access_energy(),
            htree_dynamic_j: activity.htree_transitions as f64 * self.htree_energy_per_transition(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_hit_latency_matches_table1() {
        let m = CacheModel::new(CacheConfig::paper_baseline());
        let hit = m.hit_latency_cycles();
        assert!((17..=21).contains(&hit), "hit latency {hit} cycles, Table 1 says 19");
        let miss = m.miss_latency_cycles();
        assert!((10..=14).contains(&miss), "miss latency {miss} cycles, Table 1 says 12");
    }

    #[test]
    fn htree_transition_energy_is_subpicojoule_to_picojoule() {
        let m = CacheModel::new(CacheConfig::paper_baseline());
        let e = m.htree_energy_per_transition();
        assert!(e > 0.2e-12 && e < 3e-12, "H-tree energy {e:e} J/transition");
    }

    #[test]
    fn lstp_htree_dominates_under_representative_activity() {
        // Paper Fig. 2: with LSTP devices the H-tree is ~80% of L2
        // energy. Representative activity: 2.5e8 accesses/s for 1 s,
        // ~160 data + 10 address transitions per access.
        let m = CacheModel::new(CacheConfig::paper_baseline());
        let accesses = 250_000_000u64;
        let breakdown = m.energy_for(&CacheActivity {
            htree_transitions: accesses * 170,
            array_reads: accesses,
            array_writes: accesses / 4,
            tag_lookups: accesses,
            elapsed_s: 1.0,
        });
        let f = breakdown.htree_fraction();
        assert!((0.65..=0.9).contains(&f), "H-tree fraction {f:.2}, paper says ~0.8");
        let s = breakdown.static_fraction();
        assert!((0.02..=0.30).contains(&s), "static fraction {s:.2}");
    }

    #[test]
    fn hp_everything_is_leakage_dominated() {
        let m = CacheModel::new(CacheConfig {
            cell_device: DeviceType::Hp,
            periphery_device: DeviceType::Hp,
            ..CacheConfig::paper_baseline()
        });
        let accesses = 250_000_000u64;
        let b = m.energy_for(&CacheActivity {
            htree_transitions: accesses * 170,
            array_reads: accesses,
            array_writes: accesses / 4,
            tag_lookups: accesses,
            elapsed_s: 1.0,
        });
        assert!(b.static_fraction() > 0.8, "HP static fraction {:.2}", b.static_fraction());
    }

    #[test]
    fn leakage_scales_with_capacity() {
        let small = CacheModel::new(CacheConfig {
            capacity_bytes: 512 << 10,
            ..CacheConfig::paper_baseline()
        });
        let big = CacheModel::new(CacheConfig {
            capacity_bytes: 64 << 20,
            ..CacheConfig::paper_baseline()
        });
        assert!(big.leakage_power() > 20.0 * small.leakage_power());
    }

    #[test]
    fn wider_bus_fewer_beats() {
        let narrow =
            CacheModel::new(CacheConfig { bus_width_bits: 64, ..CacheConfig::paper_baseline() });
        let wide =
            CacheModel::new(CacheConfig { bus_width_bits: 512, ..CacheConfig::paper_baseline() });
        assert_eq!(narrow.binary_transfer_cycles(), 8);
        assert_eq!(wide.binary_transfer_cycles(), 1);
        assert!(wide.hit_latency_cycles() < narrow.hit_latency_cycles());
    }

    #[test]
    fn hit_latency_with_transfer_substitutes_serialization() {
        let m = CacheModel::new(CacheConfig::paper_baseline());
        let base = m.hit_latency_cycles();
        let desc = m.hit_latency_with_transfer(12, 2);
        // DESC at 128 wires: window ≈ 12 cycles + 2 interface cycles
        // vs 8 binary beats → a handful of extra cycles.
        assert!(desc > base);
        assert!(desc - base <= 10);
    }

    #[test]
    fn more_banks_add_leakage_and_area() {
        let few = CacheModel::new(CacheConfig { banks: 8, ..CacheConfig::paper_baseline() });
        let many = CacheModel::new(CacheConfig { banks: 64, ..CacheConfig::paper_baseline() });
        assert!(many.area_mm2() > few.area_mm2());
        assert!(many.leakage_power() > few.leakage_power());
    }

    #[test]
    fn energy_breakdown_combines() {
        let a = EnergyBreakdown { static_j: 1.0, array_dynamic_j: 2.0, htree_dynamic_j: 3.0 };
        let b = EnergyBreakdown { static_j: 0.5, array_dynamic_j: 0.5, htree_dynamic_j: 0.5 };
        let c = a.combined(&b);
        assert!((c.total() - 7.5).abs() < 1e-12);
        assert!(format!("{c}").contains("J"));
    }

    #[test]
    fn snapshot_quantities_are_positive_across_sweeps() {
        for banks in [1usize, 2, 4, 8, 16, 32, 64] {
            for width in [8usize, 32, 64, 128, 256, 512] {
                let m = CacheModel::new(CacheConfig {
                    banks,
                    bus_width_bits: width,
                    ..CacheConfig::paper_baseline()
                });
                assert!(m.htree_energy_per_transition() > 0.0);
                assert!(m.leakage_power() > 0.0);
                assert!(m.hit_latency_cycles() >= 3);
            }
        }
    }
}
