//! A [`TransferScheme`] adapter that extends every block with SECDED
//! parity before handing it to an inner scheme — the transfer-cost
//! side of the paper's Figs. 28/29 (execution time and L2 energy under
//! ECC for various wires-per-segment configurations).
//!
//! The paper's W-S notation means W data wires with the Hamming code
//! applied to S-bit segments; the parity bits travel on extra wires
//! (9 extra for (137,128), §3.2.3).
//!
//! The extended block is the data bytes followed by each segment's
//! parity bits (Hamming bits at increasing powers of two, then the
//! overall bit), segment after segment, zero-padded to a whole byte.
//! The parity comes from [`SecdedCode`]'s word-parallel coverage table,
//! 64 data bits at a time. [`TransferScheme::transfer_many`] extends a
//! whole slab into one reused extended slab and hands it to the inner
//! scheme's batched kernel in a single call; `transfer` is the
//! per-block path, and both cost every block identically.

use crate::secded::SecdedCode;
use desc_core::cost::{TransferCost, WireBudget};
use desc_core::{Block, BlockSlab, TransferScheme};

/// Wraps an inner transfer scheme so every block is transferred with
/// its SECDED parity appended.
///
/// # Examples
///
/// ```
/// use desc_core::schemes::BinaryScheme;
/// use desc_core::{Block, TransferScheme};
/// use desc_ecc::{scheme::SecdedScheme, SecdedCode};
///
/// // The paper's 64-64 binary configuration: 64 data + 8 parity wires,
/// // (72,64) per 64-bit word.
/// let mut s = SecdedScheme::new(BinaryScheme::new(72), SecdedCode::c72_64(), 8);
/// let cost = s.transfer(&Block::from_bytes(&[0xA5; 64]));
/// assert_eq!(cost.cycles, 8); // 576 bits over 72 wires
/// ```
#[derive(Clone, Debug)]
pub struct SecdedScheme<S> {
    inner: S,
    code: SecdedCode,
    segments: usize,
    /// `transfer_many`'s reused buffers: one data block copied out of
    /// the slab, its extension, and the extended slab.
    data: Block,
    extended: Block,
    extended_slab: BlockSlab,
}

impl<S: TransferScheme> SecdedScheme<S> {
    /// Wraps `inner` with `code` applied to `segments` equal segments
    /// of each block.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    #[must_use]
    pub fn new(inner: S, code: SecdedCode, segments: usize) -> Self {
        assert!(segments > 0, "at least one ECC segment required");
        let data_bytes = (segments * code.data_bits()).div_ceil(8);
        let extended_bytes = data_bytes + (segments * code.parity_bits()).div_ceil(8);
        Self {
            inner,
            code,
            segments,
            data: Block::zeroed(data_bytes),
            extended: Block::zeroed(extended_bytes),
            extended_slab: BlockSlab::new(extended_bytes),
        }
    }

    /// Extends `block` with its parity bits (zero-padded to a whole
    /// byte).
    ///
    /// # Panics
    ///
    /// Panics if the block does not divide into `segments` segments of
    /// `code.data_bits()` bits.
    #[must_use]
    pub fn extend_with_parity(&self, block: &Block) -> Block {
        self.check_split(block.bit_len());
        let mut bytes = Vec::with_capacity(self.extended.byte_len());
        bytes.extend_from_slice(block.as_bytes());
        bytes.resize(self.extended.byte_len(), 0);
        let mut extended = Block::from_vec(bytes);
        write_parity(&self.code, self.segments, block, &mut extended);
        extended
    }

    /// Asserts that a block of `bit_len` bits splits into the scheme's
    /// segments.
    fn check_split(&self, bit_len: usize) {
        assert_eq!(
            bit_len,
            self.segments * self.code.data_bits(),
            "block of {} bits does not split into {} × {}-bit ECC segments",
            bit_len,
            self.segments,
            self.code.data_bits()
        );
    }

    /// Adds `blocks` extended blocks to the `ecc.scheme.*` counters.
    fn count(&self, blocks: usize) {
        if desc_telemetry::enabled() {
            desc_telemetry::counter!("ecc.scheme.blocks").add(blocks as u64);
            desc_telemetry::counter!("ecc.scheme.parity_bits")
                .add((blocks * self.segments * self.code.parity_bits()) as u64);
        }
    }
}

/// Writes the parity of every segment of `data` after its data bits in
/// `extended`, whose leading bytes already hold `data`.
fn write_parity(code: &SecdedCode, segments: usize, data: &Block, extended: &mut Block) {
    let width = code.parity_bits();
    for s in 0..segments {
        let base = s * code.data_bits();
        let parity = code.parity(|start, w| data.word_bits(base + start, w));
        let at = data.bit_len() + s * width;
        for piece in (0..width).step_by(16) {
            let bits = (width - piece).min(16);
            extended.set_bits(at + piece, bits, (parity >> piece) as u16);
        }
    }
}

impl<S: TransferScheme + Clone + 'static> TransferScheme for SecdedScheme<S> {
    fn name(&self) -> &'static str {
        // Static names keep the trait simple; the wires()/cost tell the
        // rest. Distinguish DESC for the simulator's interface-delay
        // logic by delegating to the inner scheme's name.
        self.inner.name()
    }

    fn wires(&self) -> WireBudget {
        self.inner.wires()
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let extended = self.extend_with_parity(block);
        self.count(1);
        self.inner.transfer(&extended)
    }

    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        if slab.is_empty() {
            return;
        }
        self.check_split(slab.bit_len());
        let data_bytes = slab.byte_len();
        self.extended_slab.clear();
        for i in 0..slab.len() {
            slab.copy_block_into(i, &mut self.data);
            self.extended.as_bytes_mut()[..data_bytes].copy_from_slice(self.data.as_bytes());
            // The parity bits are rewritten in full and the padding
            // bits are never written, so no clearing is needed.
            write_parity(&self.code, self.segments, &self.data, &mut self.extended);
            self.extended_slab.push(&self.extended);
        }
        self.count(slab.len());
        self.inner.transfer_many(&self.extended_slab, costs);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desc_core::schemes::{BinaryScheme, DescScheme, SkipMode};
    use desc_core::ChunkSize;

    fn sample() -> Block {
        Block::from_bytes(&(0..64).map(|i| (i * 37 + 1) as u8).collect::<Vec<_>>())
    }

    #[test]
    fn extension_sizes_match_paper_codes() {
        let s72 = SecdedScheme::new(BinaryScheme::new(72), SecdedCode::c72_64(), 8);
        assert_eq!(s72.extend_with_parity(&sample()).byte_len(), 72); // 512+64 bits

        let s137 = SecdedScheme::new(BinaryScheme::new(137), SecdedCode::c137_128(), 4);
        assert_eq!(s137.extend_with_parity(&sample()).byte_len(), 69); // 512+36 → padded
    }

    #[test]
    fn parity_bits_are_really_there() {
        // An all-zero block has all-zero parity; a dense block does not.
        let s = SecdedScheme::new(BinaryScheme::new(72), SecdedCode::c72_64(), 8);
        let zero_ext = s.extend_with_parity(&Block::zeroed(64));
        assert!(zero_ext.is_null());
        let dense_ext = s.extend_with_parity(&Block::from_bytes(&[0x7F; 64]));
        let parity_tail = &dense_ext.as_bytes()[64..];
        assert!(parity_tail.iter().any(|&b| b != 0), "dense data must set parity bits");
    }

    #[test]
    fn binary_ecc_cost_matches_wire_math() {
        let mut s = SecdedScheme::new(BinaryScheme::new(72), SecdedCode::c72_64(), 8);
        assert_eq!(s.transfer(&sample()).cycles, 8); // 576/72
        let mut wide = SecdedScheme::new(BinaryScheme::new(137), SecdedCode::c137_128(), 4);
        assert_eq!(wide.transfer(&sample()).cycles, 5); // ceil(552/137)
    }

    #[test]
    fn desc_ecc_single_round_with_enough_wires() {
        // 128-64 DESC: 144 chunks over 144 wires, one round.
        let mut s = SecdedScheme::new(
            DescScheme::new(144, ChunkSize::new(4).expect("valid"), SkipMode::Zero)
                .without_sync_strobe(),
            SecdedCode::c72_64(),
            8,
        );
        let cost = s.transfer(&sample());
        assert!(cost.cycles <= 15, "one window expected, got {} cycles", cost.cycles);
        // Data strobes ≤ 144 chunks.
        assert!(cost.data_transitions <= 144);
    }

    #[test]
    fn ecc_transfer_costs_more_than_unprotected() {
        let block = sample();
        let mut plain = DescScheme::new(128, ChunkSize::new(4).expect("valid"), SkipMode::Zero);
        let mut ecc = SecdedScheme::new(
            DescScheme::new(144, ChunkSize::new(4).expect("valid"), SkipMode::Zero),
            SecdedCode::c72_64(),
            8,
        );
        assert!(ecc.transfer(&block).data_transitions >= plain.transfer(&block).data_transitions);
    }

    #[test]
    fn reset_propagates() {
        let block = sample();
        let mut s = SecdedScheme::new(BinaryScheme::new(72), SecdedCode::c72_64(), 8);
        let first = s.transfer(&block);
        s.reset();
        assert_eq!(s.transfer(&block), first);
    }
}
