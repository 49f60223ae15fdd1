//! The paper's interleaved ECC layout for DESC (Fig. 9).
//!
//! A cache block is partitioned into `S` equal data segments, each
//! protected by its own SECDED code. Chunks are then formed *across*
//! segments: data chunk `i` carries bit `i` of segment 0, bit `i` of
//! segment 1, …; parity chunk `j` likewise carries parity bit `j` of
//! every segment. A transfer error at chunk granularity (one toggle →
//! up to `S` wrong bits) therefore lands at most one wrong bit in each
//! segment's codeword, which SECDED corrects; two chunk errors land at
//! most two per segment, which SECDED detects.
//!
//! With the paper's numbers: a 512-bit block, four 128-bit segments,
//! (137,128) codes, chunk width 4 = number of segments, 9 parity
//! chunks on 9 extra wires.

use crate::secded::{DecodeOutcome, SecdedCode};
use desc_core::{Block, ChunkSize, Chunks};
use std::fmt;

/// A cache block encoded into DESC chunks with interleaved SECDED
/// protection.
///
/// # Examples
///
/// ```
/// use desc_core::Block;
/// use desc_ecc::InterleavedBlock;
///
/// let block = Block::from_bytes(&[0x5A; 64]);
/// let mut encoded = InterleavedBlock::encode_paper(&block);
///
/// // A chunk-granularity transfer error (one DESC toggle gone wrong
/// // corrupts a whole chunk — up to 4 bits at once):
/// encoded.corrupt_chunk(17, 0b1111);
///
/// let decoded = encoded.decode();
/// assert!(decoded.usable());
/// assert_eq!(decoded.block, block);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterleavedBlock {
    code: SecdedCode,
    segments: usize,
    /// Chunk values, data chunks first then parity chunks; each chunk
    /// holds one bit per segment (bit `s` of a chunk belongs to
    /// segment `s`).
    chunks: Vec<u16>,
    data_chunks: usize,
    block_bytes: usize,
}

/// Outcome of decoding an [`InterleavedBlock`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InterleavedDecode {
    /// The reconstructed block (valid only when [`Self::usable`]).
    pub block: Block,
    /// Per-segment SECDED outcomes.
    pub outcomes: Vec<DecodeOutcome>,
}

impl InterleavedDecode {
    /// True when every segment decoded cleanly or with a corrected
    /// single error.
    #[must_use]
    pub fn usable(&self) -> bool {
        self.outcomes.iter().all(DecodeOutcome::is_usable)
    }

    /// Number of segments that required a correction.
    #[must_use]
    pub fn corrections(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_corrected()).count()
    }

    /// True when any segment reported an uncorrectable double error.
    #[must_use]
    pub fn detected_double_error(&self) -> bool {
        !self.usable()
    }
}

impl InterleavedBlock {
    /// Encodes `block` with the paper's configuration: four 128-bit
    /// segments under (137,128) SECDED, 4-bit chunks.
    ///
    /// # Panics
    ///
    /// Panics if the block is not 64 bytes.
    #[must_use]
    pub fn encode_paper(block: &Block) -> Self {
        Self::encode(block, 4, SecdedCode::c137_128())
    }

    /// Encodes `block` into `segments` interleaved SECDED codewords.
    ///
    /// # Panics
    ///
    /// Panics if the block's bits do not divide evenly into `segments`
    /// segments of `code.data_bits()` bits each.
    #[must_use]
    pub fn encode(block: &Block, segments: usize, code: SecdedCode) -> Self {
        assert!(segments > 0 && segments <= 16, "segment count {segments} out of range");
        assert_eq!(
            block.bit_len(),
            segments * code.data_bits(),
            "block of {} bits does not split into {segments} × {} segments",
            block.bit_len(),
            code.data_bits()
        );
        let seg_bytes = code.data_bits().div_ceil(8);
        // Segment s = contiguous slice of the block (paper: four
        // 128-bit data segments).
        let codewords: Vec<Vec<bool>> = (0..segments)
            .map(|s| {
                let mut data = vec![0u8; seg_bytes];
                for b in 0..code.data_bits() {
                    let i = s * code.data_bits() + b;
                    if block.bit(i) {
                        data[b / 8] |= 1 << (b % 8);
                    }
                }
                code.encode(&data)
            })
            .collect();

        // Chunk j (j < codeword_bits) carries codeword bit j of every
        // segment: bit s of the chunk = segment s's codeword bit j.
        // Data bits come first in transmission order, then parity
        // positions, so the wire layout matches Fig. 9 (parity chunks
        // on dedicated extra wires). We transmit codeword positions in
        // a fixed order: data positions ascending, then parity
        // positions ascending, then the overall parity.
        let order = Self::position_order(&code);
        let chunks: Vec<u16> = order
            .iter()
            .map(|&pos| {
                let mut v = 0u16;
                for (s, cw) in codewords.iter().enumerate() {
                    if cw[pos] {
                        v |= 1 << s;
                    }
                }
                v
            })
            .collect();
        let data_chunks = code.data_bits();
        Self { code, segments, chunks, data_chunks, block_bytes: block.byte_len() }
    }

    /// Transmission order of codeword positions: data positions first
    /// (ascending), then Hamming parity positions, then the overall
    /// parity at index 0.
    fn position_order(code: &SecdedCode) -> Vec<usize> {
        let n = code.codeword_bits() - 1;
        let mut data: Vec<usize> = (1..=n).filter(|p| !p.is_power_of_two()).collect();
        let parity: Vec<usize> = (1..=n).filter(|p| p.is_power_of_two()).collect();
        data.extend(parity);
        data.push(0);
        data
    }

    /// All chunk values in transmission order (data chunks, then
    /// parity chunks) — feed these to a DESC [`TransferScheme`] to cost
    /// the protected transfer.
    ///
    /// [`TransferScheme`]: desc_core::TransferScheme
    #[must_use]
    pub fn chunks(&self) -> &[u16] {
        &self.chunks
    }

    /// Number of data chunks (before the parity chunks).
    #[must_use]
    pub fn data_chunk_count(&self) -> usize {
        self.data_chunks
    }

    /// Number of parity chunks (the paper's "extra wires": 9 for
    /// (137,128)).
    #[must_use]
    pub fn parity_chunk_count(&self) -> usize {
        self.chunks.len() - self.data_chunks
    }

    /// The encoded payload as a [`Chunks`] value for transfer costing.
    ///
    /// # Panics
    ///
    /// Panics if the segment count exceeds 8 (chunk values would not
    /// fit the 8-bit chunk-size limit).
    #[must_use]
    pub fn as_chunks(&self) -> Chunks {
        let bits = u8::try_from(self.segments).expect("segment count fits u8");
        let size = ChunkSize::new(bits).expect("1–8 segments make a valid chunk size");
        Chunks::from_values(size, self.chunks.clone())
    }

    /// Corrupts chunk `index` by XOR-ing `mask` into its value — the
    /// model of a DESC transfer error, which garbles one chunk (up to
    /// one bit per segment).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `mask` has bits beyond the
    /// segment count.
    pub fn corrupt_chunk(&mut self, index: usize, mask: u16) {
        assert!(index < self.chunks.len(), "chunk index {index} out of range");
        assert!(mask >> self.segments == 0, "mask {mask:#x} exceeds {} segments", self.segments);
        self.chunks[index] ^= mask;
    }

    /// Decodes the chunks back into a block, correcting per-segment
    /// single errors.
    #[must_use]
    pub fn decode(&self) -> InterleavedDecode {
        let order = Self::position_order(&self.code);
        let mut outcomes = Vec::with_capacity(self.segments);
        let mut block = Block::zeroed(self.block_bytes);
        for s in 0..self.segments {
            let mut cw = vec![false; self.code.codeword_bits()];
            for (j, &pos) in order.iter().enumerate() {
                cw[pos] = (self.chunks[j] >> s) & 1 == 1;
            }
            let outcome = self.code.decode(&mut cw);
            let data = self.code.extract_data(&cw);
            for b in 0..self.code.data_bits() {
                let bit = (data[b / 8] >> (b % 8)) & 1 == 1;
                block.set_bit(s * self.code.data_bits() + b, bit);
            }
            outcomes.push(outcome);
        }
        let decoded = InterleavedDecode { block, outcomes };
        if desc_telemetry::enabled() {
            desc_telemetry::counter!("ecc.interleave.decodes").incr();
            desc_telemetry::counter!("ecc.interleave.corrected_segments")
                .add(decoded.corrections() as u64);
            if decoded.detected_double_error() {
                desc_telemetry::counter!("ecc.interleave.uncorrectable").incr();
            }
        }
        decoded
    }
}

impl fmt::Display for InterleavedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} interleaved, {} data + {} parity chunks",
            self.segments,
            self.code,
            self.data_chunk_count(),
            self.parity_chunk_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        let bytes: Vec<u8> = (0..64).map(|i| (i * 73 + 11) as u8).collect();
        Block::from_bytes(&bytes)
    }

    #[test]
    fn paper_layout_dimensions() {
        let e = InterleavedBlock::encode_paper(&sample_block());
        assert_eq!(e.data_chunk_count(), 128);
        assert_eq!(e.parity_chunk_count(), 9); // the paper's 9 extra wires
        assert_eq!(e.chunks().len(), 137);
    }

    #[test]
    fn clean_roundtrip() {
        let block = sample_block();
        let e = InterleavedBlock::encode_paper(&block);
        let d = e.decode();
        assert!(d.usable());
        assert_eq!(d.corrections(), 0);
        assert_eq!(d.block, block);
    }

    #[test]
    fn any_single_chunk_corruption_is_corrected() {
        // The paper's guarantee: one bad chunk = ≤1 bit per segment.
        let block = sample_block();
        let clean = InterleavedBlock::encode_paper(&block);
        for index in 0..clean.chunks().len() {
            let mut e = clean.clone();
            e.corrupt_chunk(index, 0b1111); // worst case: all 4 bits
            let d = e.decode();
            assert!(d.usable(), "chunk {index} not corrected");
            assert_eq!(d.block, block, "chunk {index} data mismatch");
            assert_eq!(d.corrections(), 4, "chunk {index} corrections");
        }
    }

    #[test]
    fn partial_chunk_corruption_corrects_affected_segments_only() {
        let block = sample_block();
        let mut e = InterleavedBlock::encode_paper(&block);
        e.corrupt_chunk(42, 0b0101); // segments 0 and 2
        let d = e.decode();
        assert!(d.usable());
        assert_eq!(d.corrections(), 2);
        assert_eq!(d.block, block);
    }

    #[test]
    fn two_chunk_corruptions_are_detected() {
        // Two bad chunks = ≤2 bits per segment → every affected
        // segment must report a double error (never silently
        // miscorrect into clean).
        let block = sample_block();
        let mut e = InterleavedBlock::encode_paper(&block);
        e.corrupt_chunk(10, 0b1111);
        e.corrupt_chunk(99, 0b1111);
        let d = e.decode();
        assert!(d.detected_double_error());
        assert_eq!(d.outcomes.iter().filter(|o| **o == DecodeOutcome::DoubleError).count(), 4);
    }

    #[test]
    fn two_chunk_corruptions_disjoint_segments_still_corrected() {
        // If the two bad chunks hit different segments, each segment
        // sees one error and everything corrects.
        let block = sample_block();
        let mut e = InterleavedBlock::encode_paper(&block);
        e.corrupt_chunk(10, 0b0011); // segments 0,1
        e.corrupt_chunk(99, 0b1100); // segments 2,3
        let d = e.decode();
        assert!(d.usable());
        assert_eq!(d.corrections(), 4);
        assert_eq!(d.block, block);
    }

    #[test]
    fn parity_chunk_corruption_also_corrected() {
        let block = sample_block();
        let mut e = InterleavedBlock::encode_paper(&block);
        let parity_index = e.data_chunk_count() + 3;
        e.corrupt_chunk(parity_index, 0b1111);
        let d = e.decode();
        assert!(d.usable());
        assert_eq!(d.block, block);
    }

    #[test]
    fn alternative_geometry_72_64() {
        // 64-byte block as eight 64-bit segments under (72,64) — the
        // other Fig. 28/29 configuration.
        let block = sample_block();
        let e = InterleavedBlock::encode(&block, 8, SecdedCode::c72_64());
        assert_eq!(e.data_chunk_count(), 64);
        assert_eq!(e.parity_chunk_count(), 8);
        let mut bad = e.clone();
        bad.corrupt_chunk(20, 0xFF);
        let d = bad.decode();
        assert!(d.usable());
        assert_eq!(d.block, block);
    }

    #[test]
    fn as_chunks_is_transfer_ready() {
        let e = InterleavedBlock::encode_paper(&sample_block());
        let chunks = e.as_chunks();
        assert_eq!(chunks.size().bits(), 4);
        assert_eq!(chunks.len(), 137);
    }

    #[test]
    #[should_panic(expected = "does not split")]
    fn wrong_block_size_rejected() {
        let _ = InterleavedBlock::encode(&Block::zeroed(60), 4, SecdedCode::c137_128());
    }

    #[test]
    fn display_mentions_geometry() {
        let e = InterleavedBlock::encode_paper(&sample_block());
        let s = format!("{e}");
        assert!(s.contains("(137,128)"));
        assert!(s.contains("128 data"));
    }
}
