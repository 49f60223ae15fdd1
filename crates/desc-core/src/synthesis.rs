//! Synthesis-style area / power / delay estimates for the DESC
//! transmitter and receiver (paper §4.3, Fig. 17, Table 3).
//!
//! The paper implements DESC in Verilog and synthesizes it with Cadence
//! RTL Compiler on FreePDK45, scaling the results to 22 nm. Neither
//! tool exists here, so this module substitutes a transparent
//! gate-count estimator: each building block (chunk registers,
//! comparators, counters, toggle generators/detectors) is expressed in
//! NAND2-equivalent gates, and technology constants convert gate counts
//! into area, peak power, and critical-path delay. The constants are
//! calibrated so the paper's 128-chunk interface lands on its published
//! figures (≈2120 µm², 46 mW peak, 625 ps added round-trip delay); the
//! *model* then extrapolates to other chunk counts and chunk sizes for
//! the sensitivity studies.

use crate::chunk::ChunkSize;
use std::fmt;

/// Technology parameters from the paper's Table 3.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TechNode {
    /// Feature size in nanometres.
    pub feature_nm: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Fanout-of-4 inverter delay in picoseconds.
    pub fo4_ps: f64,
}

impl TechNode {
    /// 45 nm (FreePDK45): 1.1 V, FO4 = 20.25 ps.
    pub const NM45: TechNode = TechNode { feature_nm: 45.0, vdd: 1.1, fo4_ps: 20.25 };

    /// 22 nm (ITRS): 0.83 V, FO4 = 11.75 ps.
    pub const NM22: TechNode = TechNode { feature_nm: 22.0, vdd: 0.83, fo4_ps: 11.75 };

    /// NAND2-equivalent layout area at this node in µm².
    ///
    /// Calibrated so a 45 nm NAND2 is ≈1.0 µm² (typical of FreePDK45
    /// standard cells) and scales with the square of feature size.
    #[must_use]
    pub fn gate_area_um2(&self) -> f64 {
        1.0 * (self.feature_nm / 45.0).powi(2)
    }

    /// Switching energy per NAND2-equivalent toggle in femtojoules,
    /// including local wiring load. Scales as C·V² with C ∝ feature
    /// size; ≈8 fJ at 45 nm / 1.1 V (standard cell plus routed load).
    #[must_use]
    pub fn gate_energy_fj(&self) -> f64 {
        8.0 * (self.feature_nm / 45.0) * (self.vdd / 1.1).powi(2)
    }
}

/// A synthesized-block estimate.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SynthesisEstimate {
    /// Layout area in µm².
    pub area_um2: f64,
    /// Peak dynamic power in milliwatts (all gates switching at the
    /// design activity factor at the target clock).
    pub peak_power_mw: f64,
    /// Critical-path (logic) delay in nanoseconds.
    pub delay_ns: f64,
}

impl SynthesisEstimate {
    fn add(self, other: SynthesisEstimate) -> SynthesisEstimate {
        SynthesisEstimate {
            area_um2: self.area_um2 + other.area_um2,
            peak_power_mw: self.peak_power_mw + other.peak_power_mw,
            delay_ns: self.delay_ns + other.delay_ns,
        }
    }
}

impl fmt::Display for SynthesisEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} µm², {:.1} mW peak, {:.3} ns",
            self.area_um2, self.peak_power_mw, self.delay_ns
        )
    }
}

/// Gate-count model of a DESC interface (paper Fig. 6: chunk
/// transmitters with comparators and FIFO registers, a shared counter,
/// toggle generators; chunk receivers with registers, a counter and
/// toggle detectors).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DescInterfaceModel {
    /// Number of chunks handled per block (paper: 128).
    pub chunks: usize,
    /// Chunk width (paper: 4 bits).
    pub chunk_size: ChunkSize,
    /// Target technology.
    pub node: TechNode,
    /// Clock frequency in GHz for peak-power accounting (paper: 3.2).
    pub clock_ghz: f64,
}

/// NAND2-equivalent gate counts for standard blocks.
const GATES_PER_FF: f64 = 6.0;
const GATES_PER_COMPARATOR_BIT: f64 = 2.5;
const GATES_PER_COUNTER_BIT: f64 = 3.0;
const GATES_PER_TOGGLE_GEN: f64 = 8.0;
const GATES_PER_TOGGLE_DET: f64 = 4.0;
/// Shared control (FSM, ready/skip logic) per interface side.
const CONTROL_GATES: f64 = 200.0;
/// Fraction of gates switching simultaneously at peak (worst case: all
/// comparators firing and every register loading in the same cycle).
const PEAK_ACTIVITY: f64 = 0.7;
/// Critical-path depth in FO4 per interface side (counter increment →
/// comparator → toggle generator, plus register setup).
const PATH_DEPTH_FO4: f64 = 26.0;

impl DescInterfaceModel {
    /// The paper's synthesized configuration: 128 chunks × 4 bits at
    /// 22 nm (scaled from 45 nm), 3.2 GHz clock.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            chunks: 128,
            chunk_size: ChunkSize::PAPER_DEFAULT,
            node: TechNode::NM22,
            clock_ghz: 3.2,
        }
    }

    fn estimate_from_gates(&self, gates: f64) -> SynthesisEstimate {
        let area_um2 = gates * self.node.gate_area_um2();
        let peak_power_mw =
            gates * PEAK_ACTIVITY * self.node.gate_energy_fj() * self.clock_ghz * 1e-3; // fJ × GHz = µW; ×1e-3 → mW
        let delay_ns = PATH_DEPTH_FO4 * self.node.fo4_ps * 1e-3;
        SynthesisEstimate { area_um2, peak_power_mw, delay_ns }
    }

    /// Transmitter gate count: per-chunk value registers and
    /// comparators, one toggle generator per data wire plus the
    /// reset/skip and sync generators, a chunk-size counter, and
    /// control.
    #[must_use]
    pub fn transmitter_gates(&self) -> f64 {
        let bits = self.chunks as f64 * f64::from(self.chunk_size.bits());
        let registers = bits * GATES_PER_FF;
        let comparators = bits * GATES_PER_COMPARATOR_BIT;
        let counter = f64::from(self.chunk_size.bits()) * GATES_PER_COUNTER_BIT;
        let toggles = (self.chunks as f64 + 2.0) * GATES_PER_TOGGLE_GEN;
        registers + comparators + counter + toggles + CONTROL_GATES
    }

    /// Receiver gate count: per-chunk capture registers, one toggle
    /// detector per wire, a counter, and control.
    #[must_use]
    pub fn receiver_gates(&self) -> f64 {
        let bits = self.chunks as f64 * f64::from(self.chunk_size.bits());
        let registers = bits * GATES_PER_FF;
        let counter = f64::from(self.chunk_size.bits()) * GATES_PER_COUNTER_BIT;
        let detectors = (self.chunks as f64 + 2.0) * GATES_PER_TOGGLE_DET;
        registers + counter + detectors + CONTROL_GATES
    }

    /// Synthesis estimate for the transmitter.
    #[must_use]
    pub fn transmitter(&self) -> SynthesisEstimate {
        self.estimate_from_gates(self.transmitter_gates())
    }

    /// Synthesis estimate for the receiver.
    #[must_use]
    pub fn receiver(&self) -> SynthesisEstimate {
        self.estimate_from_gates(self.receiver_gates())
    }

    /// Combined transmitter + receiver estimate (the "DESC interface"
    /// of Fig. 17; delays add because the paper reports the added
    /// round-trip latency of the pair).
    #[must_use]
    pub fn interface(&self) -> SynthesisEstimate {
        self.transmitter().add(self.receiver())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn within(actual: f64, target: f64, tolerance: f64) -> bool {
        (actual - target).abs() <= target * tolerance
    }

    /// Paper §5.1: the synthesized interface occupies ≈2120 µm², peaks
    /// at ≈46 mW, and adds ≈625 ps of logic delay.
    #[test]
    fn paper_figures_reproduced_within_tolerance() {
        let m = DescInterfaceModel::paper_default();
        let i = m.interface();
        assert!(within(i.area_um2, 2120.0, 0.25), "area {:.0} µm² vs 2120", i.area_um2);
        assert!(within(i.peak_power_mw, 46.0, 0.25), "power {:.1} mW vs 46", i.peak_power_mw);
        assert!(within(i.delay_ns, 0.625, 0.25), "delay {:.3} ns vs 0.625", i.delay_ns);
    }

    #[test]
    fn transmitter_larger_than_receiver() {
        // Fig. 17: the transmitter dominates (comparators + generators).
        let m = DescInterfaceModel::paper_default();
        assert!(m.transmitter().area_um2 > m.receiver().area_um2);
        assert!(m.transmitter().peak_power_mw > m.receiver().peak_power_mw);
    }

    #[test]
    fn area_scales_with_chunk_count() {
        let small = DescInterfaceModel { chunks: 16, ..DescInterfaceModel::paper_default() };
        let large = DescInterfaceModel::paper_default();
        let ratio = large.interface().area_um2 / small.interface().area_um2;
        assert!(ratio > 5.0 && ratio < 8.5, "unexpected scaling ratio {ratio:.2}");
    }

    #[test]
    fn node_scaling_shrinks_area_and_power() {
        let nm22 = DescInterfaceModel::paper_default();
        let nm45 = DescInterfaceModel { node: TechNode::NM45, ..nm22 };
        assert!(nm45.interface().area_um2 > 3.0 * nm22.interface().area_um2);
        assert!(nm45.interface().peak_power_mw > nm22.interface().peak_power_mw);
        assert!(nm45.interface().delay_ns > nm22.interface().delay_ns);
    }

    #[test]
    fn display_formats_all_fields() {
        let s = DescInterfaceModel::paper_default().interface();
        let text = format!("{s}");
        assert!(text.contains("µm²") && text.contains("mW") && text.contains("ns"));
    }
}
