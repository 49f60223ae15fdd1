//! Bus-invert coding (Stan & Burleson \[15\]) and the paper's two
//! zero-skipping extensions of it (§4.1).
//!
//! Classic bus-invert adds one *invert* wire per `segment_bits`-wide
//! bus segment; a segment is transmitted complemented whenever that
//! costs fewer flips, bounding flips at `S/2 + 1` per segment per beat.
//!
//! The paper strengthens this baseline in two ways before comparing
//! against DESC:
//!
//! * **Zero-skipped bus invert (sparse)** adds a second per-segment wire
//!   signalling "this segment is zero — ignore the data wires", saving
//!   all data flips for zero segments at the cost of extra wires.
//! * **Encoded zero-skipped bus invert (dense)** replaces the
//!   per-segment control wires by a single binary *mode word* encoding
//!   each segment's transfer mode (non-inverted / inverted / skipped),
//!   reducing wires but causing mode-word switching.

use crate::block::{Block, BlockSlab};
use crate::cost::{TransferCost, WireBudget};
use crate::scheme::TransferScheme;
use crate::wire::{Bus, Wire};

/// Shared segmented-bus plumbing for the bus-invert family.
#[derive(Clone, Debug)]
struct SegmentedBus {
    segments: Vec<Bus>,
    segment_bits: usize,
    width: usize,
}

impl SegmentedBus {
    fn new(width: usize, segment_bits: usize) -> Self {
        assert!(width > 0, "bus width must be positive");
        assert!(
            (1..=64).contains(&segment_bits),
            "segment size {segment_bits} out of range (1–64)"
        );
        assert!(
            width.is_multiple_of(segment_bits),
            "segment size {segment_bits} must divide bus width {width}"
        );
        Self { segments: vec![Bus::new(segment_bits); width / segment_bits], segment_bits, width }
    }

    fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn beats(&self, block: &Block) -> usize {
        block.bit_len().div_ceil(self.width)
    }

    /// Extracts the raw value for segment `s` of beat `beat` as one
    /// word read (bits past the block's end read zero).
    fn value_at(&self, block: &Block, beat: usize, s: usize) -> u64 {
        block.word_bits(beat * self.width + s * self.segment_bits, self.segment_bits)
    }

    /// [`SegmentedBus::value_at`] reading straight from slab words.
    fn value_at_slab(&self, slab: &BlockSlab, b: usize, beat: usize, s: usize) -> u64 {
        slab.word_bits(b, beat * self.width + s * self.segment_bits, self.segment_bits)
    }

    fn mask(&self) -> u64 {
        if self.segment_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.segment_bits) - 1
        }
    }

    fn reset(&mut self) {
        let n = self.segments.len();
        self.segments = vec![Bus::new(self.segment_bits); n];
    }
}

/// Classic bus-invert coding with one invert wire per segment.
///
/// Per beat and segment the transmitter picks the polarity (plain or
/// complemented) that minimises total flips *including* the invert
/// wire — the stateful generalisation of the classic "invert when the
/// Hamming distance exceeds S/2" rule.
///
/// # Examples
///
/// ```
/// use desc_core::{Block, TransferScheme, schemes::BusInvertScheme};
///
/// let mut s = BusInvertScheme::new(8, 8);
/// // 0xFF from all-zero wires: plain costs 8 flips, inverted costs
/// // 0 data flips + 1 invert-wire flip.
/// let cost = s.transfer(&Block::from_bytes(&[0xFF]));
/// assert_eq!(cost.data_transitions, 0);
/// assert_eq!(cost.control_transitions, 1);
/// ```
#[derive(Clone, Debug)]
pub struct BusInvertScheme {
    bus: SegmentedBus,
    invert: Vec<Wire>,
}

impl BusInvertScheme {
    /// Creates bus-invert coding over a `width`-wire bus with
    /// `segment_bits`-wide independently-inverted segments.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `segment_bits` is invalid (see
    /// [`BusInvertScheme`] docs) or `segment_bits` does not divide
    /// `width`.
    #[must_use]
    pub fn new(width: usize, segment_bits: usize) -> Self {
        let bus = SegmentedBus::new(width, segment_bits);
        let n = bus.segment_count();
        Self { bus, invert: vec![Wire::new(); n] }
    }

    /// The segment size in bits.
    #[must_use]
    pub fn segment_bits(&self) -> usize {
        self.bus.segment_bits
    }

    /// Drives one segment for one beat with the cheaper polarity
    /// (counting the invert wire's own flip).
    fn drive_segment(
        seg: &mut Bus,
        inv: &mut Wire,
        value: u64,
        mask: u64,
        data: &mut u64,
        control: &mut u64,
    ) {
        let plain_cost = seg.flips_to(value) + u32::from(inv.level());
        let inverted_cost = seg.flips_to(!value & mask) + u32::from(!inv.level());
        if inverted_cost < plain_cost {
            *data += u64::from(seg.drive(!value & mask));
            if inv.drive(true) {
                *control += 1;
            }
        } else {
            *data += u64::from(seg.drive(value));
            if inv.drive(false) {
                *control += 1;
            }
        }
    }
}

impl TransferScheme for BusInvertScheme {
    fn name(&self) -> &'static str {
        "Bus Invert Coding"
    }

    fn wires(&self) -> WireBudget {
        WireBudget { data_wires: self.bus.width, control_wires: self.invert.len(), sync_wires: 0 }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let beats = self.bus.beats(block);
        let mask = self.bus.mask();
        let mut data = 0u64;
        let mut control = 0u64;
        for beat in 0..beats {
            for s in 0..self.bus.segment_count() {
                let value = self.bus.value_at(block, beat, s);
                Self::drive_segment(
                    &mut self.bus.segments[s],
                    &mut self.invert[s],
                    value,
                    mask,
                    &mut data,
                    &mut control,
                );
            }
        }
        TransferCost {
            data_transitions: data,
            control_transitions: control,
            sync_transitions: 0,
            latency_cycles: 0,
            cycles: beats as u64,
        }
    }

    /// Batched kernel: segment values come straight out of the slab's
    /// packed words; the polarity decision and word-packed bus drives
    /// are identical to the scalar path.
    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        let beats = slab.bit_len().div_ceil(self.bus.width);
        let mask = self.bus.mask();
        costs.reserve(slab.len());
        for b in 0..slab.len() {
            let mut data = 0u64;
            let mut control = 0u64;
            for beat in 0..beats {
                for s in 0..self.bus.segment_count() {
                    let value = self.bus.value_at_slab(slab, b, beat, s);
                    Self::drive_segment(
                        &mut self.bus.segments[s],
                        &mut self.invert[s],
                        value,
                        mask,
                        &mut data,
                        &mut control,
                    );
                }
            }
            costs.push(TransferCost {
                data_transitions: data,
                control_transitions: control,
                sync_transitions: 0,
                latency_cycles: 0,
                cycles: beats as u64,
            });
        }
    }

    fn reset(&mut self) {
        self.bus.reset();
        self.invert = vec![Wire::new(); self.invert.len()];
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

/// Bus-invert coding plus a per-segment zero-skip wire (the paper's
/// sparse variant, §4.1).
///
/// Each segment has three transfer modes: non-inverted, inverted, or
/// *skipped* (only legal when the value is zero: the skip wire is
/// asserted and the data wires are left holding their previous value).
/// The transmitter picks the cheapest legal mode per segment counting
/// all three wire groups — matching the paper, which "takes into
/// account the flips that would occur on the extra wires when deciding
/// the best encoding scheme for each segment".
#[derive(Clone, Debug)]
pub struct ZeroSkipBusInvertScheme {
    bus: SegmentedBus,
    invert: Vec<Wire>,
    skip: Vec<Wire>,
}

impl ZeroSkipBusInvertScheme {
    /// Creates the sparse zero-skipped bus-invert scheme.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BusInvertScheme::new`].
    #[must_use]
    pub fn new(width: usize, segment_bits: usize) -> Self {
        let bus = SegmentedBus::new(width, segment_bits);
        let n = bus.segment_count();
        Self { bus, invert: vec![Wire::new(); n], skip: vec![Wire::new(); n] }
    }

    /// The segment size in bits.
    #[must_use]
    pub fn segment_bits(&self) -> usize {
        self.bus.segment_bits
    }
}

impl TransferScheme for ZeroSkipBusInvertScheme {
    fn name(&self) -> &'static str {
        "Zero Skipped Bus Invert"
    }

    fn wires(&self) -> WireBudget {
        WireBudget {
            data_wires: self.bus.width,
            control_wires: self.invert.len() + self.skip.len(),
            sync_wires: 0,
        }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let beats = self.bus.beats(block);
        let mask = self.bus.mask();
        let mut data = 0u64;
        let mut control = 0u64;
        for beat in 0..beats {
            for s in 0..self.bus.segment_count() {
                let value = self.bus.value_at(block, beat, s);
                let seg = &mut self.bus.segments[s];
                let inv = &mut self.invert[s];
                let skip = &mut self.skip[s];

                // Cost of each legal mode, counting every wire group.
                let plain = seg.flips_to(value) + u32::from(inv.level()) + u32::from(skip.level());
                let inverted =
                    seg.flips_to(!value & mask) + u32::from(!inv.level()) + u32::from(skip.level());
                let zero_skip = if value == 0 {
                    // Data and invert wires untouched; skip wire raised.
                    Some(u32::from(!skip.level()))
                } else {
                    None
                };

                let best_regular = plain.min(inverted);
                match zero_skip {
                    Some(z) if z < best_regular => {
                        if skip.drive(true) {
                            control += 1;
                        }
                    }
                    _ => {
                        if skip.drive(false) {
                            control += 1;
                        }
                        if inverted < plain {
                            data += u64::from(seg.drive(!value & mask));
                            if inv.drive(true) {
                                control += 1;
                            }
                        } else {
                            data += u64::from(seg.drive(value));
                            if inv.drive(false) {
                                control += 1;
                            }
                        }
                    }
                }
            }
        }
        TransferCost {
            data_transitions: data,
            control_transitions: control,
            sync_transitions: 0,
            latency_cycles: 0,
            cycles: beats as u64,
        }
    }

    fn reset(&mut self) {
        self.bus.reset();
        let n = self.invert.len();
        self.invert = vec![Wire::new(); n];
        self.skip = vec![Wire::new(); n];
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

/// Bus-invert + zero skipping with a dense encoded mode word (the
/// paper's "denser representation", §4.1).
///
/// Per beat, each segment's mode (0 = non-inverted, 1 = inverted,
/// 2 = skipped-zero) is chosen greedily to minimise data-wire flips;
/// the mode vector is then packed base-3 into a binary *mode word*
/// transmitted over `ceil(segments · log2 3)` shared control wires.
/// This saves wires relative to the sparse variant but the mode word
/// itself switches — the trade-off Fig. 15 explores.
#[derive(Clone, Debug)]
pub struct EncodedZeroSkipBusInvertScheme {
    bus: SegmentedBus,
    mode_bus: Bus,
}

/// Number of wires needed to carry a base-3 mode vector for `segments`
/// segments in binary.
fn mode_word_wires(segments: usize) -> usize {
    // ceil(segments * log2(3)); computed exactly via 3^segments.
    let mut combos = 1u128;
    for _ in 0..segments {
        combos = combos.saturating_mul(3);
    }
    (128 - (combos - 1).leading_zeros()) as usize
}

impl EncodedZeroSkipBusInvertScheme {
    /// Creates the dense encoded variant.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BusInvertScheme::new`], or
    /// if the mode word would not fit in 64 wires (more than 40
    /// segments).
    #[must_use]
    pub fn new(width: usize, segment_bits: usize) -> Self {
        let bus = SegmentedBus::new(width, segment_bits);
        let wires = mode_word_wires(bus.segment_count());
        assert!(wires <= 64, "mode word of {wires} wires exceeds the 64-wire encoder limit");
        Self { bus, mode_bus: Bus::new(wires) }
    }

    /// The segment size in bits.
    #[must_use]
    pub fn segment_bits(&self) -> usize {
        self.bus.segment_bits
    }
}

impl TransferScheme for EncodedZeroSkipBusInvertScheme {
    fn name(&self) -> &'static str {
        "Encoded Zero Skipped Bus Invert"
    }

    fn wires(&self) -> WireBudget {
        WireBudget {
            data_wires: self.bus.width,
            control_wires: self.mode_bus.width(),
            sync_wires: 0,
        }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let beats = self.bus.beats(block);
        let mask = self.bus.mask();
        let mut data = 0u64;
        let mut control = 0u64;
        for beat in 0..beats {
            let mut mode_word = 0u64;
            let mut radix = 1u64;
            for s in 0..self.bus.segment_count() {
                let value = self.bus.value_at(block, beat, s);
                let seg = &mut self.bus.segments[s];
                let mode;
                if value == 0 {
                    mode = 2; // skipped: data wires untouched
                } else if seg.flips_to(!value & mask) < seg.flips_to(value) {
                    mode = 1;
                    data += u64::from(seg.drive(!value & mask));
                } else {
                    mode = 0;
                    data += u64::from(seg.drive(value));
                }
                mode_word += mode * radix;
                radix *= 3;
            }
            control += u64::from(self.mode_bus.drive(mode_word));
        }
        TransferCost {
            data_transitions: data,
            control_transitions: control,
            sync_transitions: 0,
            latency_cycles: 0,
            cycles: beats as u64,
        }
    }

    fn reset(&mut self) {
        self.bus.reset();
        self.mode_bus = Bus::new(self.mode_bus.width());
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::BinaryScheme;

    fn flips_for(scheme: &mut dyn TransferScheme, blocks: &[Block]) -> u64 {
        blocks.iter().map(|b| scheme.transfer(b).total_transitions()).sum()
    }

    #[test]
    fn bic_bounds_flips_at_half_plus_one() {
        // Random-ish beats over one 8-bit segment: flips per beat must
        // never exceed S/2 + 1 = 5.
        let mut s = BusInvertScheme::new(8, 8);
        for byte in [0xFFu8, 0x00, 0xAA, 0x55, 0x0F, 0xF0, 0x3C, 0xC3] {
            let cost = s.transfer(&Block::from_bytes(&[byte]));
            assert!(
                cost.total_transitions() <= 5,
                "byte {byte:#x} cost {} > 5",
                cost.total_transitions()
            );
        }
    }

    #[test]
    fn bic_never_beats_binary_by_less_than_zero() {
        // On any block sequence BIC total flips <= binary total flips
        // + segments (the invert wires can cost at most their own
        // settle); with the greedy decision BIC <= binary always.
        let blocks: Vec<Block> =
            (0..16u8).map(|i| Block::from_bytes(&[i.wrapping_mul(37); 64])).collect();
        let bic = flips_for(&mut BusInvertScheme::new(64, 32), &blocks);
        let bin = flips_for(&mut BinaryScheme::new(64), &blocks);
        assert!(bic <= bin, "BIC {bic} > binary {bin}");
    }

    #[test]
    fn bic_inverts_dense_transitions() {
        let mut s = BusInvertScheme::new(8, 8);
        s.transfer(&Block::from_bytes(&[0x00]));
        // 0x00 → 0xFF: plain 8 flips, inverted 0 data + 1 invert.
        let cost = s.transfer(&Block::from_bytes(&[0xFF]));
        assert_eq!(cost.data_transitions, 0);
        assert_eq!(cost.control_transitions, 1);
    }

    #[test]
    fn zs_bic_skips_zero_segments() {
        let mut s = ZeroSkipBusInvertScheme::new(8, 8);
        s.transfer(&Block::from_bytes(&[0xFF])); // inverted: wires stay 0, inv=1
                                                 // Zero byte: cheaper to raise skip (1 flip) than drive zeros.
        let cost = s.transfer(&Block::from_bytes(&[0x00]));
        assert!(cost.total_transitions() <= 1, "cost {cost}");
    }

    #[test]
    fn zs_bic_beats_plain_bic_on_zero_heavy_streams() {
        // Alternate a dense pattern with null blocks: plain BIC pays
        // the full swing both ways, ZS-BIC parks the data wires and
        // toggles only the skip wires.
        let pattern = Block::from_bytes(&[0xA5; 64]);
        let null = Block::zeroed(64);
        let mut stream = Vec::new();
        for _ in 0..8 {
            stream.push(pattern.clone());
            stream.push(null.clone());
        }
        let zs = flips_for(&mut ZeroSkipBusInvertScheme::new(64, 32), &stream);
        let bic = flips_for(&mut BusInvertScheme::new(64, 32), &stream);
        assert!(zs * 4 < bic, "ZS-BIC {zs} not ≪ BIC {bic}");
    }

    #[test]
    fn encoded_variant_uses_fewer_wires_than_sparse() {
        let sparse = ZeroSkipBusInvertScheme::new(64, 8);
        let dense = EncodedZeroSkipBusInvertScheme::new(64, 8);
        assert!(dense.wires().control_wires < sparse.wires().control_wires);
        // 8 segments → ceil(8·log2 3) = 13 mode wires.
        assert_eq!(dense.wires().control_wires, 13);
    }

    #[test]
    fn mode_word_wires_exact() {
        assert_eq!(mode_word_wires(1), 2); // 3 combos → 2 bits
        assert_eq!(mode_word_wires(2), 4); // 9 combos → 4 bits
        assert_eq!(mode_word_wires(4), 7); // 81 combos → 7 bits
        assert_eq!(mode_word_wires(8), 13); // 6561 → 13 bits
    }

    #[test]
    fn encoded_zero_block_costs_only_mode_switching() {
        let mut s = EncodedZeroSkipBusInvertScheme::new(64, 16);
        let c1 = s.transfer(&Block::zeroed(64));
        assert_eq!(c1.data_transitions, 0);
        // Second zero block: mode word unchanged → fully free.
        let c2 = s.transfer(&Block::zeroed(64));
        assert_eq!(c2.total_transitions(), 0);
    }

    #[test]
    fn all_variants_report_binary_beat_latency() {
        let block = Block::zeroed(64);
        assert_eq!(BusInvertScheme::new(64, 32).transfer(&block).cycles, 8);
        assert_eq!(ZeroSkipBusInvertScheme::new(64, 32).transfer(&block).cycles, 8);
        assert_eq!(EncodedZeroSkipBusInvertScheme::new(64, 16).transfer(&block).cycles, 8);
    }

    #[test]
    fn reset_restores_determinism() {
        let block = Block::from_bytes(&[0xE7; 64]);
        let mut s = ZeroSkipBusInvertScheme::new(64, 16);
        let first = s.transfer(&block);
        s.reset();
        assert_eq!(s.transfer(&block), first);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn segment_must_divide_width() {
        let _ = BusInvertScheme::new(64, 48);
    }
}
