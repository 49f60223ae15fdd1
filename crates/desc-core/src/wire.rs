//! Per-wire toggle state and exact transition accounting.
//!
//! All of the paper's energy results are functions of the number of
//! state transitions on each class of interconnect wire, so this module
//! is deliberately boring and exact: a [`Wire`] remembers its logic
//! level and counts every flip; a [`Bus`] is an ordered set of wires
//! driven with multi-bit values.

/// The role a wire plays, used to attribute transitions to the right
/// hardware when costing a transfer (paper Figs. 3, 6, 10).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WireClass {
    /// A data wire of the bus (chunk strobes in DESC, data bits in
    /// binary encoding).
    Data,
    /// The shared reset / skip strobe wire (DESC).
    ResetSkip,
    /// The synchronization strobe carrying clock information (DESC on
    /// asynchronous caches, §3.1 "Synchronization").
    Sync,
    /// Per-segment control wires of the baseline schemes (bus-invert
    /// polarity wires, zero-indicator wires, encoded mode wires).
    Control,
}

/// A single wire with persistent logic state and a transition counter.
///
/// # Examples
///
/// ```
/// use desc_core::wire::Wire;
///
/// let mut w = Wire::new();
/// w.drive(true);
/// w.drive(true);  // no transition: level unchanged
/// w.toggle();
/// assert_eq!(w.transitions(), 2);
/// assert_eq!(w.level(), false);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Wire {
    level: bool,
    transitions: u64,
}

impl Wire {
    /// A new wire holding logic zero (the paper's examples assume all
    /// wires hold zeroes before the first transmission).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current logic level.
    #[must_use]
    pub fn level(&self) -> bool {
        self.level
    }

    /// Total transitions since construction (or the last
    /// [`Wire::clear_transitions`]).
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Drives the wire to `level`, counting a transition if it changes.
    /// Returns `true` if a transition occurred.
    pub fn drive(&mut self, level: bool) -> bool {
        if self.level != level {
            self.level = level;
            self.transitions += 1;
            true
        } else {
            false
        }
    }

    /// Inverts the wire level (always one transition).
    pub fn toggle(&mut self) {
        self.level = !self.level;
        self.transitions += 1;
    }

    /// Toggles the wire `n` times in one step — state-identical to `n`
    /// [`Wire::toggle`] calls, but O(1). The batched DESC path uses
    /// this for the sync strobe, which toggles once per cycle.
    pub fn toggle_n(&mut self, n: u64) {
        self.level ^= n & 1 == 1;
        self.transitions += n;
    }

    /// Writes back the result of a batch kernel that tracked this
    /// wire's activity externally: sets the level and adds `n` recorded
    /// transitions — state-identical to replaying them one at a time.
    pub(crate) fn apply_batch(&mut self, level: bool, n: u64) {
        self.level = level;
        self.transitions += n;
    }

    /// Resets the transition counter without touching the level, so
    /// per-block costs can be read from long-lived wire state.
    pub fn clear_transitions(&mut self) {
        self.transitions = 0;
    }
}

/// An ordered group of wires driven with multi-bit values.
///
/// Bit `k` of a driven value goes to wire `k`.
///
/// # Examples
///
/// ```
/// use desc_core::wire::Bus;
///
/// let mut bus = Bus::new(8);
/// let flips = bus.drive(0b0101_0011);
/// assert_eq!(flips, 4); // paper Fig. 3-a: 4 bit-flips from all-zero
/// assert_eq!(bus.drive(0b0101_0011), 0);
/// assert_eq!(bus.transitions(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bus {
    width: usize,
    /// Current logic levels, wire `k` → bit `k` — one word instead of a
    /// `Vec<Wire>`, so a drive is an `xor` + `count_ones` over the whole
    /// bus rather than a per-wire loop.
    levels: u64,
    transitions: u64,
}

impl Bus {
    /// Creates a bus of `width` wires, all at logic zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0 && width <= 64, "bus width {width} out of range (1–64)");
        Self { width, levels: 0, transitions: 0 }
    }

    /// Bus width in wires.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current value on the bus (wire `k` → bit `k`).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.levels
    }

    /// Drives all wires with `value`, returning the number of wires that
    /// flipped. Bits of `value` above the bus width must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `value` has bits set beyond the bus width.
    pub fn drive(&mut self, value: u64) -> u32 {
        if self.width < 64 {
            assert!(value >> self.width == 0, "value {value:#x} exceeds {}-wire bus", self.width);
        }
        let flips = (self.levels ^ value).count_ones();
        self.levels = value;
        self.transitions += u64::from(flips);
        flips
    }

    /// Drives the bus with the bitwise complement of `value` within the
    /// bus width (used by bus-invert coding). Returns flips.
    pub fn drive_inverted(&mut self, value: u64) -> u32 {
        let mask = if self.width == 64 { u64::MAX } else { (1u64 << self.width) - 1 };
        self.drive(!value & mask)
    }

    /// Flips that driving `value` *would* cost, without driving.
    #[must_use]
    pub fn flips_to(&self, value: u64) -> u32 {
        (self.levels ^ value).count_ones()
    }

    /// Total transitions across all wires.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Clears the transition counter without touching the levels.
    pub fn clear_transitions(&mut self) {
        self.transitions = 0;
    }
}

/// Per-wire toggle counts for a batched kernel that sees each beat's
/// toggles as one mask per 64-bit lane.
///
/// The mask has one bit per wire, at the low bit of that wire's
/// `field_bits`-wide field (1 for a binary bus, the chunk width for
/// DESC). [`ToggleTally::add`] spreads it into byte counters, one byte
/// per wire, in `8 / field_bits` accumulator words per lane: three
/// operations per accumulator instead of one increment per toggled
/// wire. A byte counts at most 255 toggles, so [`ToggleTally::tick`]
/// flushes every accumulator into the exact `u64` counts once 255
/// beats have passed since the last flush.
#[derive(Clone, Debug)]
pub(crate) struct ToggleTally {
    field_bits: usize,
    /// Accumulator words per lane (`8 / field_bits`).
    group: usize,
    acc: Vec<u64>,
    counts: Vec<u64>,
    /// Beats added since the last flush.
    pending: u32,
}

/// One counter bit per byte.
const BYTE_LSBS: u64 = 0x0101_0101_0101_0101;

impl ToggleTally {
    /// A zeroed tally for `lanes` 64-bit lanes of `field_bits`-wide
    /// fields; `field_bits` must divide 8.
    pub(crate) fn new(lanes: usize, field_bits: usize) -> Self {
        debug_assert!(8 % field_bits == 0, "field width {field_bits} must divide 8");
        let group = 8 / field_bits;
        Self {
            field_bits,
            group,
            acc: vec![0; lanes * group],
            counts: vec![0; lanes * 64 / field_bits],
            pending: 0,
        }
    }

    /// Counts one toggle for every field of `lane` whose low bit is set
    /// in `toggled`.
    #[inline]
    pub(crate) fn add(&mut self, lane: usize, toggled: u64) {
        let acc = &mut self.acc[lane * self.group..(lane + 1) * self.group];
        for (g, a) in acc.iter_mut().enumerate() {
            *a += (toggled >> (g * self.field_bits)) & BYTE_LSBS;
        }
    }

    /// Marks the end of one beat, in which every lane was added at most
    /// once; flushes before any byte counter can overflow.
    #[inline]
    pub(crate) fn tick(&mut self) {
        self.pending += 1;
        if self.pending == 255 {
            self.flush();
        }
    }

    /// Moves every byte counter into the exact counts.
    fn flush(&mut self) {
        let per_lane = 64 / self.field_bits;
        for (k, a) in self.acc.iter_mut().enumerate() {
            let (lane, g) = (k / self.group, k % self.group);
            let base = lane * per_lane + g;
            for byte in 0..8 {
                self.counts[base + byte * self.group] += (*a >> (8 * byte)) & 0xFF;
            }
            *a = 0;
        }
        self.pending = 0;
    }

    /// The exact toggle count of every field, lane by lane (field `f`
    /// of lane `l` at index `l * 64 / field_bits + f`).
    pub(crate) fn finish(mut self) -> Vec<u64> {
        self.flush();
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_counts_only_real_transitions() {
        let mut w = Wire::new();
        assert!(!w.level());
        assert!(w.drive(true));
        assert!(!w.drive(true));
        assert!(w.drive(false));
        assert_eq!(w.transitions(), 2);
        w.clear_transitions();
        assert_eq!(w.transitions(), 0);
        assert!(!w.level());
    }

    #[test]
    fn toggle_always_transitions() {
        let mut w = Wire::new();
        w.toggle();
        w.toggle();
        w.toggle();
        assert_eq!(w.transitions(), 3);
        assert!(w.level());
    }

    #[test]
    fn toggle_n_matches_repeated_toggles() {
        for n in [0u64, 1, 2, 7, 100] {
            let mut a = Wire::new();
            a.drive(true);
            let mut b = a;
            a.toggle_n(n);
            for _ in 0..n {
                b.toggle();
            }
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn bus_drive_counts_hamming_flips() {
        let mut bus = Bus::new(8);
        assert_eq!(bus.drive(0xFF), 8);
        assert_eq!(bus.drive(0x0F), 4);
        assert_eq!(bus.transitions(), 12);
    }

    #[test]
    fn bus_value_reflects_levels() {
        let mut bus = Bus::new(4);
        bus.drive(0b1010);
        assert_eq!(bus.value(), 0b1010);
    }

    #[test]
    fn flips_to_predicts_drive() {
        let mut bus = Bus::new(16);
        bus.drive(0xABCD);
        let predicted = bus.flips_to(0x1234);
        assert_eq!(bus.drive(0x1234), predicted);
    }

    #[test]
    fn drive_inverted_complements_within_width() {
        let mut bus = Bus::new(4);
        bus.drive_inverted(0b0011);
        assert_eq!(bus.value(), 0b1100);
    }

    #[test]
    fn full_width_bus_accepts_any_value() {
        let mut bus = Bus::new(64);
        assert_eq!(bus.drive(u64::MAX), 64);
        assert_eq!(bus.value(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn bus_rejects_oversized_values() {
        let mut bus = Bus::new(4);
        bus.drive(0x10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bus_rejects_zero_width() {
        let _ = Bus::new(0);
    }

    #[test]
    fn toggle_tally_counts_exactly_across_flushes() {
        for field_bits in [1usize, 2, 4, 8] {
            let fields = 2 * 64 / field_bits;
            let mut tally = ToggleTally::new(2, field_bits);
            let mut expected = vec![0u64; fields];
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            // 600 beats: two overflow-avoiding flushes plus a tail.
            for _ in 0..600 {
                for lane in 0..2 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let mut toggled = 0u64;
                    for f in 0..64 / field_bits {
                        if (state >> f) & 1 == 1 {
                            toggled |= 1 << (f * field_bits);
                            expected[lane * 64 / field_bits + f] += 1;
                        }
                    }
                    tally.add(lane, toggled);
                }
                tally.tick();
            }
            assert_eq!(tally.finish(), expected, "field_bits {field_bits}");
        }
    }
}
