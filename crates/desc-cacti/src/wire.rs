//! Repeated global-wire model for the cache H-trees.

use crate::tech::{DeviceType, TechParams};

/// Electrical signaling style of the interconnect wires.
///
/// The paper (§2) notes that activity-reduction techniques like DESC
/// compose with low-swing signaling (Zhang & Rabaey \[7\], Udipi et
/// al. \[2\]): the swing scales the energy of *every* transition, the
/// encoding scales *how many* transitions there are.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Signaling {
    /// Conventional full-swing repeated wires.
    #[default]
    FullSwing,
    /// Reduced-swing differential wires: transition energy is
    /// `C·V_dd·V_swing` plus a fixed receiver sense cost, at the price
    /// of extra receiver latency.
    LowSwing {
        /// Signal swing in volts (typically 0.1–0.3 V at 22 nm).
        swing_v: f64,
    },
}

impl Signaling {
    /// A representative low-swing configuration (0.2 V swing).
    #[must_use]
    pub fn low_swing_default() -> Self {
        Signaling::LowSwing { swing_v: 0.2 }
    }
}

/// A repeated wire of a given length driven by periphery devices of a
/// given class.
///
/// # Examples
///
/// ```
/// use desc_cacti::{DeviceType, TechParams, WireModel};
///
/// let tech = TechParams::nm22();
/// let wire = WireModel::new(&tech, 4.0, DeviceType::Lstp);
/// // A 4 mm H-tree path costs on the order of a picojoule per flip.
/// assert!(wire.energy_per_transition() > 0.1e-12);
/// assert!(wire.energy_per_transition() < 10e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WireModel {
    length_mm: f64,
    energy_per_transition_j: f64,
    delay_s: f64,
    leakage_w: f64,
}

impl WireModel {
    /// Builds a wire of `length_mm` millimetres with `periphery`-class
    /// repeaters.
    ///
    /// # Panics
    ///
    /// Panics if `length_mm` is not positive and finite.
    #[must_use]
    pub fn new(tech: &TechParams, length_mm: f64, periphery: DeviceType) -> Self {
        Self::with_signaling(tech, length_mm, periphery, Signaling::FullSwing)
    }

    /// Builds a wire with an explicit [`Signaling`] style.
    ///
    /// # Panics
    ///
    /// Panics if `length_mm` is not positive and finite, or if a
    /// low-swing voltage is not within (0, V_dd].
    #[must_use]
    pub fn with_signaling(
        tech: &TechParams,
        length_mm: f64,
        periphery: DeviceType,
        signaling: Signaling,
    ) -> Self {
        assert!(
            length_mm.is_finite() && length_mm > 0.0,
            "wire length {length_mm} must be positive"
        );
        // Switching energy: wire + repeater capacitance, scaled by the
        // periphery device's energy factor.
        let full_swing_j =
            tech.wire_energy_j_per_mm() * length_mm * periphery.dynamic_energy_factor();
        // Repeated-wire delay is linear in length; slower devices make
        // slower repeaters.
        let mut delay_s = tech.wire_delay_s_per_mm * length_mm * periphery.delay_factor();
        let energy_per_transition_j = match signaling {
            Signaling::FullSwing => full_swing_j,
            Signaling::LowSwing { swing_v } => {
                assert!(
                    swing_v > 0.0 && swing_v <= tech.vdd,
                    "swing {swing_v} V outside (0, {}]",
                    tech.vdd
                );
                // C·V_dd·V_swing on the wire plus a ~50 fJ sense
                // amplifier per traversal.
                delay_s += 100e-12; // receiver sense latency
                full_swing_j * (swing_v / tech.vdd) + 50e-15
            }
        };
        // Repeater leakage: modelled as periphery area of ~60 µm² per
        // millimetre of repeated wire.
        let leakage_w = periphery.periphery_leakage_w_per_um2() * 60.0 * length_mm;
        Self { length_mm, energy_per_transition_j, delay_s, leakage_w }
    }

    /// Wire length in millimetres.
    #[must_use]
    pub fn length_mm(&self) -> f64 {
        self.length_mm
    }

    /// Energy of one full-path transition in joules.
    #[must_use]
    pub fn energy_per_transition(&self) -> f64 {
        self.energy_per_transition_j
    }

    /// End-to-end propagation delay in seconds.
    #[must_use]
    pub fn delay(&self) -> f64 {
        self.delay_s
    }

    /// Propagation delay in whole clock cycles (rounded up, minimum 1).
    #[must_use]
    pub fn delay_cycles(&self, tech: &TechParams) -> u64 {
        (self.delay_s / tech.cycle_s()).ceil().max(1.0) as u64
    }

    /// Repeater leakage power in watts (per wire).
    #[must_use]
    pub fn leakage(&self) -> f64 {
        self.leakage_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_linearly_with_length() {
        let tech = TechParams::nm22();
        let short = WireModel::new(&tech, 1.0, DeviceType::Lstp);
        let long = WireModel::new(&tech, 4.0, DeviceType::Lstp);
        let ratio = long.energy_per_transition() / short.energy_per_transition();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lstp_repeaters_are_slower_but_leak_less() {
        let tech = TechParams::nm22();
        let hp = WireModel::new(&tech, 4.0, DeviceType::Hp);
        let lstp = WireModel::new(&tech, 4.0, DeviceType::Lstp);
        assert!(lstp.delay() > hp.delay());
        assert!(lstp.leakage() < hp.leakage());
    }

    #[test]
    fn delay_cycles_rounds_up_and_is_at_least_one() {
        let tech = TechParams::nm22();
        let tiny = WireModel::new(&tech, 0.1, DeviceType::Hp);
        assert_eq!(tiny.delay_cycles(&tech), 1);
        let big = WireModel::new(&tech, 8.0, DeviceType::Lstp);
        assert!(big.delay_cycles(&tech) >= 5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_length_rejected() {
        let tech = TechParams::nm22();
        let _ = WireModel::new(&tech, 0.0, DeviceType::Hp);
    }
}

#[cfg(test)]
mod signaling_tests {
    use super::*;

    #[test]
    fn low_swing_cuts_transition_energy_severalfold() {
        let tech = TechParams::nm22();
        let full = WireModel::new(&tech, 4.0, DeviceType::Lstp);
        let low =
            WireModel::with_signaling(&tech, 4.0, DeviceType::Lstp, Signaling::low_swing_default());
        let ratio = full.energy_per_transition() / low.energy_per_transition();
        assert!(ratio > 2.5 && ratio < 6.0, "low-swing ratio {ratio:.2}");
        // But the receiver adds latency.
        assert!(low.delay() > full.delay());
    }

    #[test]
    fn default_signaling_is_full_swing() {
        assert_eq!(Signaling::default(), Signaling::FullSwing);
        let tech = TechParams::nm22();
        let a = WireModel::new(&tech, 2.0, DeviceType::Hp);
        let b = WireModel::with_signaling(&tech, 2.0, DeviceType::Hp, Signaling::FullSwing);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn excessive_swing_rejected() {
        let tech = TechParams::nm22();
        let _ = WireModel::with_signaling(
            &tech,
            2.0,
            DeviceType::Hp,
            Signaling::LowSwing { swing_v: 2.0 },
        );
    }
}
