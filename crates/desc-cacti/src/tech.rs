//! ITRS device classes and 22 nm technology constants.
//!
//! The paper explores ITRS high-performance (HP), low-operating-power
//! (LOP) and low-standby-power (LSTP) devices for the SRAM cells and
//! the peripheral circuitry independently (§4.1, Fig. 14). The
//! constants below are first-order values from the CACTI 6.5 / ITRS
//! era at 22 nm and 350 K (the paper's Table 1 temperature), chosen so
//! the qualitative orderings the paper relies on hold:
//!
//! * leakage: HP ≫ LOP ≫ LSTP (orders of magnitude),
//! * speed: HP ≈ 2× faster array access than LSTP (paper footnote 3),
//! * switching energy: comparable across classes (slightly higher for
//!   HP due to larger transistors).

use std::fmt;

/// An ITRS device class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceType {
    /// High performance: fastest, leakiest.
    Hp,
    /// Low operating power: moderate speed and leakage.
    Lop,
    /// Low standby power: slowest, minimal leakage — the paper's
    /// choice for energy-efficient last-level caches.
    Lstp,
}

impl DeviceType {
    /// All classes in the paper's Fig. 14 sweep order.
    pub const ALL: [DeviceType; 3] = [DeviceType::Hp, DeviceType::Lop, DeviceType::Lstp];

    /// Short uppercase label as used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DeviceType::Hp => "HP",
            DeviceType::Lop => "LOP",
            DeviceType::Lstp => "LSTP",
        }
    }

    /// Leakage power per SRAM bit in watts (cell array, 350 K).
    ///
    /// LSTP cells leak ~0.04 nW/bit; HP cells several hundred times
    /// more (the paper cites "two orders of magnitude" savings from
    /// low-leakage techniques \[27\]).
    #[must_use]
    pub fn cell_leakage_w_per_bit(self) -> f64 {
        match self {
            DeviceType::Hp => 10e-9,
            DeviceType::Lop => 0.67e-9,
            DeviceType::Lstp => 0.04e-9,
        }
    }

    /// Leakage power per µm² of peripheral circuitry in watts
    /// (decoders, sense amplifiers, H-tree repeaters).
    #[must_use]
    pub fn periphery_leakage_w_per_um2(self) -> f64 {
        match self {
            DeviceType::Hp => 40e-9,
            DeviceType::Lop => 1.33e-9,
            DeviceType::Lstp => 0.17e-9,
        }
    }

    /// Relative array access delay (HP = 1).
    ///
    /// The paper's footnote 3: HP devices give ≈2× faster access time
    /// than LSTP.
    #[must_use]
    pub fn delay_factor(self) -> f64 {
        match self {
            DeviceType::Hp => 1.0,
            DeviceType::Lop => 1.4,
            DeviceType::Lstp => 2.0,
        }
    }

    /// Relative dynamic switching energy (LSTP = 1). HP transistors
    /// are larger (more capacitance); LOP runs at reduced voltage.
    #[must_use]
    pub fn dynamic_energy_factor(self) -> f64 {
        match self {
            DeviceType::Hp => 1.25,
            DeviceType::Lop => 0.85,
            DeviceType::Lstp => 1.0,
        }
    }
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Process-level constants at the paper's 22 nm node (Table 3) plus
/// the Table 1 clock.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TechParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// SRAM cell area in µm² (22 nm tri-gate era, ≈0.1 µm²).
    pub cell_area_um2: f64,
    /// Wire capacitance per millimetre in farads (global/semi-global
    /// H-tree wires with repeater loading folded in).
    pub wire_cap_f_per_mm: f64,
    /// Repeated-wire signal velocity in seconds per millimetre (HP
    /// repeaters; scaled by the periphery delay factor).
    pub wire_delay_s_per_mm: f64,
    /// Core clock frequency in hertz (Table 1: 3.2 GHz).
    pub clock_hz: f64,
    /// Fraction of a bank's footprint that is SRAM cells (array
    /// efficiency); the rest is decoders, sense amps and wiring.
    pub array_efficiency: f64,
}

impl TechParams {
    /// The paper's 22 nm / 3.2 GHz configuration.
    #[must_use]
    pub fn nm22() -> Self {
        Self {
            vdd: 0.83,
            cell_area_um2: 0.1,
            wire_cap_f_per_mm: 0.50e-12,
            wire_delay_s_per_mm: 110e-12,
            clock_hz: 3.2e9,
            array_efficiency: 0.5,
        }
    }

    /// Clock cycle time in seconds.
    #[must_use]
    pub fn cycle_s(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Energy per wire transition per millimetre of H-tree in joules:
    /// full-swing C·V² switching (the ½ is absorbed by the driver's
    /// internal dissipation, the CACTI convention), including repeater
    /// input capacitance.
    #[must_use]
    pub fn wire_energy_j_per_mm(&self) -> f64 {
        self.wire_cap_f_per_mm * self.vdd * self.vdd
    }
}

impl Default for TechParams {
    fn default() -> Self {
        Self::nm22()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_ordering_spans_orders_of_magnitude() {
        let hp = DeviceType::Hp.cell_leakage_w_per_bit();
        let lop = DeviceType::Lop.cell_leakage_w_per_bit();
        let lstp = DeviceType::Lstp.cell_leakage_w_per_bit();
        assert!(hp > 10.0 * lop);
        assert!(lop > 10.0 * lstp);
        assert!(hp / lstp >= 100.0, "paper: two orders of magnitude");
    }

    #[test]
    fn hp_is_twice_as_fast_as_lstp() {
        assert!(
            (DeviceType::Lstp.delay_factor() / DeviceType::Hp.delay_factor() - 2.0).abs() < 1e-9
        );
    }

    #[test]
    fn wire_energy_is_subpicojoule_per_mm() {
        let t = TechParams::nm22();
        let e = t.wire_energy_j_per_mm();
        assert!(e > 0.05e-12 && e < 1e-12, "unphysical wire energy {e:e}");
    }

    #[test]
    fn cycle_time_matches_clock() {
        let t = TechParams::nm22();
        assert!((t.cycle_s() - 0.3125e-9).abs() < 1e-15);
    }

    #[test]
    fn labels_round_trip() {
        for d in DeviceType::ALL {
            assert_eq!(format!("{d}"), d.label());
        }
    }

    #[test]
    fn periphery_leakage_ordering() {
        assert!(
            DeviceType::Hp.periphery_leakage_w_per_um2()
                > DeviceType::Lop.periphery_leakage_w_per_um2()
        );
        assert!(
            DeviceType::Lop.periphery_leakage_w_per_um2()
                > DeviceType::Lstp.periphery_leakage_w_per_um2()
        );
    }
}
