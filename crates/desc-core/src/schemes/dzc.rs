//! Dynamic zero compression (Villa, Zhang & Asanović \[12\]) applied to
//! the cache data bus.
//!
//! Each `segment_bits`-wide slice of the bus gets one *zero-indicator*
//! wire. When a segment's value is zero the indicator is asserted and
//! the data wires are left undriven (they hold their previous level);
//! otherwise the indicator is deasserted and the value is driven in
//! plain binary. The paper sweeps the segment size from 4 to 64 bits
//! (Fig. 15) and uses the best configuration (8-bit) as a baseline.

use crate::block::{Block, BlockSlab};
use crate::cost::{TransferCost, WireBudget};
use crate::scheme::TransferScheme;
use crate::wire::{Bus, Wire};

/// Dynamic zero compression over a segmented bus.
///
/// # Examples
///
/// ```
/// use desc_core::{Block, TransferScheme, schemes::DzcScheme};
///
/// let mut s = DzcScheme::new(64, 8);
/// // An all-zero block costs only the indicator assertions.
/// let cost = s.transfer(&Block::zeroed(64));
/// assert_eq!(cost.data_transitions, 0);
/// assert_eq!(cost.control_transitions, 8); // 8 indicators rise once
/// ```
#[derive(Clone, Debug)]
pub struct DzcScheme {
    segments: Vec<Bus>,
    indicators: Vec<Wire>,
    segment_bits: usize,
    width: usize,
}

impl DzcScheme {
    /// Creates a DZC scheme over a `width`-wire bus with
    /// `segment_bits`-wide zero-detect segments.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `segment_bits` is zero, if `segment_bits`
    /// exceeds 64, or if `segment_bits` does not divide `width`.
    #[must_use]
    pub fn new(width: usize, segment_bits: usize) -> Self {
        assert!(width > 0, "bus width must be positive");
        assert!(
            (1..=64).contains(&segment_bits),
            "segment size {segment_bits} out of range (1–64)"
        );
        assert!(
            width.is_multiple_of(segment_bits),
            "segment size {segment_bits} must divide bus width {width}"
        );
        let n = width / segment_bits;
        Self {
            segments: vec![Bus::new(segment_bits); n],
            indicators: vec![Wire::new(); n],
            segment_bits,
            width,
        }
    }

    /// The data-bus width in wires.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The segment size in bits.
    #[must_use]
    pub fn segment_bits(&self) -> usize {
        self.segment_bits
    }

    /// Drives one segment for one beat: zero values assert the
    /// indicator and freeze the data wires; non-zero values deassert it
    /// and drive plain binary. Returns the data flips.
    fn drive_segment(seg: &mut Bus, ind: &mut Wire, value: u64, control: &mut u64) -> u32 {
        if value == 0 {
            if ind.drive(true) {
                *control += 1;
            }
            0
        } else {
            if ind.drive(false) {
                *control += 1;
            }
            seg.drive(value)
        }
    }
}

impl TransferScheme for DzcScheme {
    fn name(&self) -> &'static str {
        "Dynamic Zero Compression"
    }

    fn wires(&self) -> WireBudget {
        WireBudget { data_wires: self.width, control_wires: self.indicators.len(), sync_wires: 0 }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let beats = block.bit_len().div_ceil(self.width);
        let mut data = 0u64;
        let mut control = 0u64;
        for beat in 0..beats {
            for (s, (seg, ind)) in self.segments.iter_mut().zip(&mut self.indicators).enumerate() {
                let base = beat * self.width + s * self.segment_bits;
                // Whole-segment extraction (bits past the block's end
                // read zero, exactly like the undriven bus).
                let value = block.word_bits(base, self.segment_bits);
                data += u64::from(Self::drive_segment(seg, ind, value, &mut control));
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
    /// packed words, skipping the per-block scratch copy of the
    /// default loop. Wire state updates are already O(1) per segment
    /// (word-packed [`Bus`]), so they run in place.
    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        let beats = slab.bit_len().div_ceil(self.width);
        costs.reserve(slab.len());
        for b in 0..slab.len() {
            let mut data = 0u64;
            let mut control = 0u64;
            for beat in 0..beats {
                for (s, (seg, ind)) in
                    self.segments.iter_mut().zip(&mut self.indicators).enumerate()
                {
                    let base = beat * self.width + s * self.segment_bits;
                    let value = slab.word_bits(b, base, self.segment_bits);
                    data += u64::from(Self::drive_segment(seg, ind, value, &mut control));
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
        let n = self.segments.len();
        self.segments = vec![Bus::new(self.segment_bits); n];
        self.indicators = vec![Wire::new(); n];
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_blocks_cost_only_indicators() {
        let mut s = DzcScheme::new(64, 8);
        let first = s.transfer(&Block::zeroed(64));
        assert_eq!(first.data_transitions, 0);
        assert_eq!(first.control_transitions, 8);
        // Indicators stay asserted: a second zero block is free.
        let second = s.transfer(&Block::zeroed(64));
        assert_eq!(second.total_transitions(), 0);
    }

    #[test]
    fn nonzero_segments_pay_binary_cost_plus_indicator() {
        let mut s = DzcScheme::new(8, 8);
        let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
        // 4 data flips (as binary), indicator stays deasserted (no flip).
        assert_eq!(cost.data_transitions, 4);
        assert_eq!(cost.control_transitions, 0);
    }

    #[test]
    fn zero_segment_freezes_data_wires() {
        let mut s = DzcScheme::new(8, 8);
        s.transfer(&Block::from_bytes(&[0xFF]));
        // Zero byte: data wires keep holding 0xFF, only indicator flips.
        let cost = s.transfer(&Block::from_bytes(&[0x00]));
        assert_eq!(cost.data_transitions, 0);
        assert_eq!(cost.control_transitions, 1);
        // Returning to 0xFF costs nothing on data (wires never moved)
        // but the indicator falls.
        let back = s.transfer(&Block::from_bytes(&[0xFF]));
        assert_eq!(back.data_transitions, 0);
        assert_eq!(back.control_transitions, 1);
    }

    #[test]
    fn sparse_block_is_much_cheaper_than_binary() {
        use crate::schemes::BinaryScheme;
        let mut bytes = [0u8; 64];
        bytes[7] = 0xAB;
        let block = Block::from_bytes(&bytes);
        // Alternate with a dense block to create binary switching.
        let dense = Block::from_bytes(&[0xFF; 64]);

        let mut dzc = DzcScheme::new(64, 8);
        let mut bin = BinaryScheme::new(64);
        let mut dzc_total = 0;
        let mut bin_total = 0;
        for _ in 0..4 {
            dzc_total += dzc.transfer(&block).total_transitions();
            dzc_total += dzc.transfer(&dense).total_transitions();
            bin_total += bin.transfer(&block).total_transitions();
            bin_total += bin.transfer(&dense).total_transitions();
        }
        assert!(dzc_total < bin_total, "DZC {dzc_total} !< binary {bin_total}");
    }

    #[test]
    fn cycles_match_binary_beats() {
        let mut s = DzcScheme::new(64, 8);
        assert_eq!(s.transfer(&Block::zeroed(64)).cycles, 8);
    }

    #[test]
    fn paper_segment_sweep_configs_construct() {
        for seg in [4, 8, 16, 32, 64] {
            let s = DzcScheme::new(64, seg);
            assert_eq!(s.wires().control_wires, 64 / seg);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn segment_must_divide_width() {
        let _ = DzcScheme::new(64, 24);
    }
}
