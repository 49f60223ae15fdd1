//! Bit-serial transfer (paper Fig. 3-b) — included for the illustrative
//! comparison, not as an evaluation baseline.

use crate::block::Block;
use crate::cost::{TransferCost, WireBudget};
use crate::scheme::TransferScheme;
use crate::wire::Wire;

/// Bit-serial transfer over a single data wire: one bit per cycle,
/// MSB-first (the order paper Fig. 3-b illustrates).
///
/// # Examples
///
/// ```
/// use desc_core::{Block, TransferScheme, schemes::SerialScheme};
///
/// // Paper Fig. 3-b: the byte 01010011 sent serially costs 5 bit-flips
/// // in 8 cycles (wire initially zero).
/// let mut s = SerialScheme::new();
/// let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
/// assert_eq!(cost.data_transitions, 5);
/// assert_eq!(cost.cycles, 8);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SerialScheme {
    wire: Wire,
}

impl SerialScheme {
    /// Creates a serial scheme with the wire at logic zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl TransferScheme for SerialScheme {
    fn name(&self) -> &'static str {
        "Bit Serial"
    }

    fn wires(&self) -> WireBudget {
        WireBudget { data_wires: 1, control_wires: 0, sync_wires: 0 }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let mut flips = 0u64;
        for i in (0..block.bit_len()).rev() {
            if self.wire.drive(block.bit(i)) {
                flips += 1;
            }
        }
        TransferCost {
            data_transitions: flips,
            control_transitions: 0,
            sync_transitions: 0,
            latency_cycles: 0,
            cycles: block.bit_len() as u64,
        }
    }

    fn reset(&mut self) {
        self.wire = Wire::new();
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 3 byte, MSB-first (0,1,0,1,0,0,1,1): 5 level changes
    /// from an all-zero wire — the figure's count.
    #[test]
    fn fig3b_example() {
        let mut s = SerialScheme::new();
        let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
        assert_eq!(cost.data_transitions, 5);
        assert_eq!(cost.cycles, 8);
    }

    #[test]
    fn alternating_bits_flip_every_cycle() {
        let mut s = SerialScheme::new();
        // 0b10101010 MSB-first = 1,0,1,0,1,0,1,0 → 8 transitions.
        let cost = s.transfer(&Block::from_bytes(&[0b1010_1010]));
        assert_eq!(cost.data_transitions, 8);
    }

    #[test]
    fn constant_bits_flip_at_most_once() {
        let mut s = SerialScheme::new();
        assert_eq!(s.transfer(&Block::from_bytes(&[0xFF])).data_transitions, 1);
        assert_eq!(s.transfer(&Block::from_bytes(&[0xFF])).data_transitions, 0);
    }

    #[test]
    fn wire_state_persists_between_blocks() {
        let mut s = SerialScheme::new();
        s.transfer(&Block::from_bytes(&[0x01])); // MSB-first: ends with wire = 1
                                                 // Next block starts MSB-first with a leading 1: free.
        let cost = s.transfer(&Block::from_bytes(&[0x80]));
        assert_eq!(cost.data_transitions, 1); // only the 1→0 after the MSB
    }

    #[test]
    fn reset_clears_wire() {
        let mut s = SerialScheme::new();
        s.transfer(&Block::from_bytes(&[0xFF]));
        s.reset();
        assert_eq!(s.transfer(&Block::from_bytes(&[0xFF])).data_transitions, 1);
    }
}
