//! Cache floorplanning: bank organisation, area, and H-tree lengths
//! (paper Fig. 7: main, horizontal and vertical H-trees).

use crate::tech::TechParams;

/// Floorplan of a banked cache.
///
/// The model is square-root floorplanning: SRAM bits occupy
/// `bits × cell_area / efficiency`; every bank adds a fixed overhead
/// footprint (decoders, sense amplifiers, port wiring, and — when DESC
/// is used — the transmitter/receiver interfaces); banks tile a square
/// die region. The data H-tree path to a mat is the main-tree route
/// from the cache controller into the bank grid plus the in-bank
/// (horizontal + vertical) tree.
///
/// # Examples
///
/// ```
/// use desc_cacti::geometry::Floorplan;
/// use desc_cacti::TechParams;
///
/// let f = Floorplan::new(&TechParams::nm22(), 8 << 20, 8, 64);
/// assert!(f.area_mm2() > 10.0 && f.area_mm2() < 30.0);
/// assert!(f.htree_path_mm() > 1.0 && f.htree_path_mm() < 8.0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Floorplan {
    capacity_bytes: usize,
    banks: usize,
    area_mm2: f64,
    bank_area_mm2: f64,
    main_tree_mm: f64,
    bank_tree_mm: f64,
}

/// Fixed per-bank overhead footprint in mm² (decoders, sense
/// amplifiers, bank I/O). This is what makes very high bank counts
/// area- and energy-inefficient (paper Fig. 25).
const BANK_OVERHEAD_MM2: f64 = 0.2;

/// Additional area per data-bus wire in mm² (routing tracks over the
/// array).
const WIRE_TRACK_MM2: f64 = 0.002;

impl Floorplan {
    /// Builds a floorplan for `capacity_bytes` of SRAM in `banks`
    /// banks with a `bus_width_bits`-wire data bus.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    #[must_use]
    pub fn new(
        tech: &TechParams,
        capacity_bytes: usize,
        banks: usize,
        bus_width_bits: usize,
    ) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        assert!(banks > 0, "bank count must be positive");
        assert!(bus_width_bits > 0, "bus width must be positive");
        let bits = capacity_bytes as f64 * 8.0;
        let array_mm2 = bits * tech.cell_area_um2 * 1e-6 / tech.array_efficiency;
        let area_mm2 =
            array_mm2 + banks as f64 * BANK_OVERHEAD_MM2 + bus_width_bits as f64 * WIRE_TRACK_MM2;
        let bank_area_mm2 = area_mm2 / banks as f64;
        // Main tree: controller at the die edge to a bank's corner.
        // More banks deepen the tree slightly (extra branch levels).
        let main_tree_mm = 0.5 * area_mm2.sqrt() * (1.0 + (banks as f64).log2() / 8.0);
        // In-bank horizontal + vertical trees to reach a mat.
        let bank_tree_mm = 0.7 * bank_area_mm2.sqrt();
        Self { capacity_bytes, banks, area_mm2, bank_area_mm2, main_tree_mm, bank_tree_mm }
    }

    /// Total die area of the cache in mm².
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        self.area_mm2
    }

    /// Area of one bank in mm².
    #[must_use]
    pub fn bank_area_mm2(&self) -> f64 {
        self.bank_area_mm2
    }

    /// One-way data-path length from the cache controller to a mat in
    /// millimetres (main tree + in-bank trees).
    #[must_use]
    pub fn htree_path_mm(&self) -> f64 {
        self.main_tree_mm + self.bank_tree_mm
    }

    /// Main-tree (controller → bank) portion of the path.
    #[must_use]
    pub fn main_tree_mm(&self) -> f64 {
        self.main_tree_mm
    }

    /// In-bank (horizontal + vertical tree) portion of the path.
    #[must_use]
    pub fn bank_tree_mm(&self) -> f64 {
        self.bank_tree_mm
    }

    /// Total routed wire length of the whole data H-tree per bus wire,
    /// in millimetres — used for repeater leakage accounting. An
    /// H-tree that reaches `banks` bank positions has total length
    /// ≈ 3·√area (sum over branch levels), largely independent of the
    /// branch count.
    #[must_use]
    pub fn total_tree_mm_per_wire(&self) -> f64 {
        3.0 * self.area_mm2.sqrt()
    }

    /// Bits per bank.
    #[must_use]
    pub fn bank_bits(&self) -> f64 {
        self.capacity_bytes as f64 * 8.0 / self.banks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> TechParams {
        TechParams::nm22()
    }

    #[test]
    fn paper_baseline_area_is_plausible() {
        // 8 MB at 22 nm: roughly 13–20 mm² including overheads.
        let f = Floorplan::new(&tech(), 8 << 20, 8, 64);
        assert!(f.area_mm2() > 13.0 && f.area_mm2() < 20.0, "area {}", f.area_mm2());
    }

    #[test]
    fn area_grows_with_capacity() {
        let small = Floorplan::new(&tech(), 512 << 10, 8, 64);
        let big = Floorplan::new(&tech(), 64 << 20, 8, 64);
        assert!(big.area_mm2() > 10.0 * small.area_mm2());
    }

    #[test]
    fn more_banks_cost_overhead_area() {
        let few = Floorplan::new(&tech(), 8 << 20, 2, 64);
        let many = Floorplan::new(&tech(), 8 << 20, 64, 64);
        assert!(many.area_mm2() > few.area_mm2() + 10.0);
    }

    #[test]
    fn htree_path_shrinks_within_bank_as_banks_grow() {
        let few = Floorplan::new(&tech(), 8 << 20, 2, 64);
        let many = Floorplan::new(&tech(), 8 << 20, 32, 64);
        assert!(many.bank_tree_mm() < few.bank_tree_mm());
        assert!(many.main_tree_mm() > few.main_tree_mm());
    }

    #[test]
    fn path_decomposes() {
        let f = Floorplan::new(&tech(), 8 << 20, 8, 64);
        assert!((f.htree_path_mm() - f.main_tree_mm() - f.bank_tree_mm()).abs() < 1e-12);
    }

    #[test]
    fn bank_bits_partition_capacity() {
        let f = Floorplan::new(&tech(), 8 << 20, 16, 64);
        assert!((f.bank_bits() - (8.0 * (8 << 20) as f64 / 16.0)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "bank count")]
    fn zero_banks_rejected() {
        let _ = Floorplan::new(&tech(), 8 << 20, 0, 64);
    }
}
