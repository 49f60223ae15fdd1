//! S-NUCA-1 organisation (Kim, Burger & Keckler \[8\]; paper §5.5).
//!
//! 128 banks, each with a private statically-routed 128-bit port to the
//! cache controller (no switches), so access latency and wire energy
//! depend on the bank's physical distance: the paper quotes bank
//! latencies of 3–13 core cycles.

use crate::cache::CacheConfig;
use crate::geometry::Floorplan;
use crate::wire::WireModel;

/// An S-NUCA-1 cache: per-bank private channels with
/// distance-dependent latency and energy.
///
/// # Examples
///
/// ```
/// use desc_cacti::snuca::SnucaModel;
///
/// let m = SnucaModel::paper_default();
/// assert_eq!(m.banks(), 128);
/// assert_eq!(m.bank_latency_cycles(0), 3);    // nearest bank
/// assert_eq!(m.bank_latency_cycles(127), 13); // farthest bank
/// ```
#[derive(Clone, Debug)]
pub struct SnucaModel {
    config: CacheConfig,
    floorplan: Floorplan,
    bank_wires: Vec<WireModel>,
}

impl SnucaModel {
    /// The paper's S-NUCA-1 configuration: 8 MB, 128 banks, 128-bit
    /// ports, LSTP devices.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(CacheConfig { banks: 128, bus_width_bits: 128, ..CacheConfig::paper_baseline() })
    }

    /// Builds an S-NUCA-1 model from a cache configuration whose
    /// `banks` are laid out in a grid around the controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than 2 banks.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.banks >= 2, "S-NUCA needs multiple banks");
        let floorplan = Floorplan::new(
            &config.tech,
            config.capacity_bytes,
            config.banks,
            config.bus_width_bits,
        );
        // Banks sorted by distance: bank k sits at a routed distance
        // interpolated between the nearest corner of the array and the
        // farthest (≈ the die diagonal).
        let near = 0.15 * floorplan.area_mm2().sqrt();
        let far = 1.4 * floorplan.area_mm2().sqrt();
        let bank_wires = (0..config.banks)
            .map(|k| {
                let t = k as f64 / (config.banks - 1) as f64;
                let len = near + t * (far - near);
                WireModel::new(&config.tech, len, config.periphery_device)
            })
            .collect();
        Self { config, floorplan, bank_wires }
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.config.banks
    }

    /// The underlying configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Wire latency to `bank` in cycles, mapped onto the paper's 3–13
    /// cycle range by distance order.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_latency_cycles(&self, bank: usize) -> u64 {
        assert!(bank < self.config.banks, "bank {bank} out of range");
        let t = bank as f64 / (self.config.banks - 1) as f64;
        (3.0 + t * 10.0).round() as u64
    }

    /// Per-transition wire energy for `bank`'s private channel in
    /// joules.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_energy_per_transition(&self, bank: usize) -> f64 {
        assert!(bank < self.config.banks, "bank {bank} out of range");
        self.bank_wires[bank].energy_per_transition()
    }

    /// Mean per-transition energy across banks (uniform bank usage).
    #[must_use]
    pub fn mean_energy_per_transition(&self) -> f64 {
        self.bank_wires.iter().map(WireModel::energy_per_transition).sum::<f64>()
            / self.config.banks as f64
    }

    /// Mean bank latency in cycles (uniform bank usage).
    #[must_use]
    pub fn mean_latency_cycles(&self) -> f64 {
        (0..self.config.banks).map(|b| self.bank_latency_cycles(b) as f64).sum::<f64>()
            / self.config.banks as f64
    }

    /// Total area in mm².
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        self.floorplan.area_mm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_range_matches_paper() {
        let m = SnucaModel::paper_default();
        assert_eq!(m.bank_latency_cycles(0), 3);
        assert_eq!(m.bank_latency_cycles(127), 13);
        for b in 0..128 {
            let l = m.bank_latency_cycles(b);
            assert!((3..=13).contains(&l));
        }
    }

    #[test]
    fn energy_grows_with_distance() {
        let m = SnucaModel::paper_default();
        assert!(m.bank_energy_per_transition(127) > 3.0 * m.bank_energy_per_transition(0));
    }

    #[test]
    fn mean_statistics_are_interior() {
        let m = SnucaModel::paper_default();
        let mean_e = m.mean_energy_per_transition();
        assert!(mean_e > m.bank_energy_per_transition(0));
        assert!(mean_e < m.bank_energy_per_transition(127));
        let mean_l = m.mean_latency_cycles();
        assert!(mean_l > 3.0 && mean_l < 13.0);
    }

    #[test]
    fn mean_wire_energy_comparable_to_uca_htree() {
        use crate::cache::CacheModel;
        // Sanity: S-NUCA private channels average out near the UCA
        // H-tree path energy (same die, different routing).
        let snuca = SnucaModel::paper_default();
        let uca = CacheModel::new(CacheConfig::paper_baseline());
        let ratio = snuca.mean_energy_per_transition() / uca.htree_energy_per_transition();
        assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio:.2}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_index_validated() {
        let m = SnucaModel::paper_default();
        let _ = m.bank_latency_cycles(128);
    }
}
