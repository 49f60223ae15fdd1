//! Conventional binary (parallel) transfer — the paper's baseline.
//!
//! The batched kernel keeps the wire levels in packed `u64` lanes and
//! counts per-wire flips in lane accumulators (byte counters flushed
//! every 255 beats), so [`BinaryScheme::wire_transitions`] stays exact
//! without a per-wire increment on every flip.

use std::fmt;

use crate::block::{bits_of_words, Block, BlockSlab};
use crate::cost::{TransferCost, WireBudget};
use crate::scheme::TransferScheme;
use crate::swar::low_mask;
use crate::wire::{ToggleTally, Wire};

/// Conventional binary encoding: the block is driven over `width` data
/// wires in `ceil(bits / width)` bus beats, one bit per wire per beat
/// (paper Fig. 3-a).
///
/// Transitions are counted against the *persistent* wire state, so
/// transferring two similar blocks back-to-back is cheaper than two
/// dissimilar ones — exactly the data-dependence DESC eliminates.
///
/// # Examples
///
/// ```
/// use desc_core::{Block, TransferScheme, schemes::BinaryScheme};
///
/// // Paper Fig. 3-a: one byte over 8 wires starting from all-zero
/// // wires costs 4 bit-flips in 1 cycle.
/// let mut s = BinaryScheme::new(8);
/// let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
/// assert_eq!(cost.data_transitions, 4);
/// assert_eq!(cost.cycles, 1);
/// ```
#[derive(Clone)]
pub struct BinaryScheme {
    wires: Vec<Wire>,
    /// The batched kernel's per-wire flip counts, kept so a batch does
    /// not allocate. Scratch, not state: left out of `Debug`.
    tally: ToggleTally,
}

impl fmt::Debug for BinaryScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryScheme").field("wires", &self.wires).finish()
    }
}

impl BinaryScheme {
    /// Creates a binary scheme over `width` data wires.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "bus width must be positive");
        Self { wires: vec![Wire::new(); width], tally: ToggleTally::default() }
    }

    /// The bus width in wires.
    #[must_use]
    pub fn width(&self) -> usize {
        self.wires.len()
    }

    /// Cumulative transitions per data wire since construction or the
    /// last [`TransferScheme::reset`] — input for activity-balance
    /// analysis ([`crate::analysis`]).
    ///
    /// [`TransferScheme::reset`]: crate::TransferScheme::reset
    #[must_use]
    pub fn wire_transitions(&self) -> Vec<u64> {
        self.wires.iter().map(crate::wire::Wire::transitions).collect()
    }
}

impl TransferScheme for BinaryScheme {
    fn name(&self) -> &'static str {
        "Conventional Binary"
    }

    fn wires(&self) -> WireBudget {
        WireBudget { data_wires: self.wires.len(), control_wires: 0, sync_wires: 0 }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let width = self.wires.len();
        let beats = block.bit_len().div_ceil(width);
        let mut flips = 0u64;
        for beat in 0..beats {
            for (k, wire) in self.wires.iter_mut().enumerate() {
                let i = beat * width + k;
                // Bits past the block's end leave the wire unchanged
                // (the bus simply is not driven there).
                if i < block.bit_len() && wire.drive(block.bit(i)) {
                    flips += 1;
                }
            }
        }
        TransferCost {
            data_transitions: flips,
            control_transitions: 0,
            sync_transitions: 0,
            latency_cycles: 0,
            cycles: beats as u64,
        }
    }

    /// Batched kernel: wire levels live in packed `u64` lanes for the
    /// whole slab, so each bus beat is one `xor` + `count_ones` per
    /// lane instead of a per-bit `Wire::drive` loop. Each lane's flip
    /// mask goes into per-wire lane accumulators (`ToggleTally`: byte
    /// counters, flushed every 255 beats), and the `Wire` states are
    /// written back once at the end — bit-identical to the scalar loop.
    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        if slab.is_empty() {
            return;
        }
        let width = self.wires.len();
        let bit_len = slab.bit_len();
        let beats = bit_len.div_ceil(width);
        let lanes = width.div_ceil(64);
        let mut levels = vec![0u64; lanes];
        for (k, w) in self.wires.iter().enumerate() {
            if w.level() {
                levels[k / 64] |= 1 << (k % 64);
            }
        }
        self.tally.reset(lanes, 1);
        costs.reserve(slab.len());
        for i in 0..slab.len() {
            let words = slab.block_words(i);
            let mut flips_total = 0u64;
            for beat in 0..beats {
                let base = beat * width;
                // Bits past the block's end leave their wires unchanged
                // (the bus simply is not driven there), so the final
                // beat only drives the first `driven` wires.
                let driven = (bit_len - base).min(width);
                for (l, level) in levels.iter_mut().enumerate().take(driven.div_ceil(64)) {
                    let lane_driven = (driven - l * 64).min(64);
                    let value = bits_of_words(words, base + l * 64, lane_driven);
                    let flips = (*level ^ value) & low_mask(lane_driven);
                    flips_total += u64::from(flips.count_ones());
                    *level ^= flips;
                    self.tally.add(l, flips);
                }
                self.tally.tick();
            }
            costs.push(TransferCost {
                data_transitions: flips_total,
                control_transitions: 0,
                sync_transitions: 0,
                latency_cycles: 0,
                cycles: beats as u64,
            });
        }
        for ((k, w), &n) in self.wires.iter_mut().enumerate().zip(self.tally.finish()) {
            w.apply_batch(levels[k / 64] >> (k % 64) & 1 == 1, n);
        }
    }

    fn reset(&mut self) {
        self.wires = vec![Wire::new(); self.wires.len()];
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_example() {
        let mut s = BinaryScheme::new(8);
        let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
        assert_eq!(cost.data_transitions, 4);
        assert_eq!(cost.cycles, 1);
        assert_eq!(cost.control_transitions, 0);
        assert_eq!(cost.sync_transitions, 0);
    }

    #[test]
    fn beats_scale_with_width() {
        let block = Block::from_bytes(&[0xFF; 64]); // 512 bits
        assert_eq!(BinaryScheme::new(64).transfer(&block).cycles, 8);
        assert_eq!(BinaryScheme::new(128).transfer(&block).cycles, 4);
        assert_eq!(BinaryScheme::new(512).transfer(&block).cycles, 1);
    }

    #[test]
    fn identical_block_resend_costs_only_intra_block_activity() {
        // A block whose beats are all identical: resending flips nothing.
        let mut s = BinaryScheme::new(64);
        let block = Block::from_bytes(&[0xA5; 64]);
        let first = s.transfer(&block);
        assert!(first.data_transitions > 0);
        let second = s.transfer(&block);
        assert_eq!(second.data_transitions, 0);
    }

    #[test]
    fn all_ones_then_zero_block_flips_every_wire_twice() {
        let mut s = BinaryScheme::new(512);
        let ones = Block::from_bytes(&[0xFF; 64]);
        let zeros = Block::from_bytes(&[0x00; 64]);
        assert_eq!(s.transfer(&ones).data_transitions, 512);
        assert_eq!(s.transfer(&zeros).data_transitions, 512);
    }

    #[test]
    fn intra_block_transitions_counted_per_beat() {
        // 8-wire bus, two beats: 0xFF then 0x00 → 8 + 8 flips.
        let mut s = BinaryScheme::new(8);
        let block = Block::from_bytes(&[0xFF, 0x00]);
        let cost = s.transfer(&block);
        assert_eq!(cost.data_transitions, 16);
        assert_eq!(cost.cycles, 2);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut s = BinaryScheme::new(8);
        let block = Block::from_bytes(&[0xFF]);
        let first = s.transfer(&block);
        s.reset();
        assert_eq!(s.transfer(&block), first);
    }

    #[test]
    fn width_not_dividing_block_pads_final_beat() {
        // 24-bit block over 16 wires: 2 beats, final beat half-driven.
        let mut s = BinaryScheme::new(16);
        let block = Block::from_bytes(&[0xFF, 0xFF, 0xFF]);
        let cost = s.transfer(&block);
        assert_eq!(cost.cycles, 2);
        // Beat 0 flips 16 wires; beat 1 drives wires 0..8 (already 1) → 0 flips.
        assert_eq!(cost.data_transitions, 16);
    }
}
