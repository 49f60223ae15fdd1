//! Cache-block containers.
//!
//! A [`Block`] is the unit of data every [`TransferScheme`] moves across
//! the interconnect: a fixed-width bit string, 512 bits (64 bytes) for
//! the paper's L2 configuration, but any byte length is supported so the
//! chunk-size and bus-width sweeps (paper Figs. 22 and 26) can reuse the
//! same machinery.
//!
//! [`TransferScheme`]: crate::scheme::TransferScheme

use std::fmt;

/// The paper's cache-block size in bytes (Table 1: 64 B blocks).
pub const PAPER_BLOCK_BYTES: usize = 64;

/// A fixed-width bit string transferred over the cache interconnect.
///
/// Bits are numbered LSB-first within each byte: bit `i` of the block is
/// bit `i % 8` of byte `i / 8`. The ordering only has to be applied
/// consistently by encoders and decoders; all schemes in this crate use
/// this one.
///
/// # Examples
///
/// ```
/// use desc_core::Block;
///
/// let block = Block::from_bytes(&[0b0101_0011, 0xFF]);
/// assert_eq!(block.bit(0), true);   // LSB of byte 0
/// assert_eq!(block.bit(2), false);
/// assert_eq!(block.bit_len(), 16);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    bytes: Vec<u8>,
}

impl Block {
    /// Creates an all-zero block of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        assert!(len > 0, "a block must contain at least one byte");
        Self { bytes: vec![0; len] }
    }

    /// Creates a block by copying `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(!bytes.is_empty(), "a block must contain at least one byte");
        Self { bytes: bytes.to_vec() }
    }

    /// Creates a block that takes ownership of `bytes` (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty.
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        assert!(!bytes.is_empty(), "a block must contain at least one byte");
        Self { bytes }
    }

    /// Creates a block from little-endian `u64` words (convenient for
    /// synthetic workload generators).
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    #[must_use]
    pub fn from_words(words: &[u64]) -> Self {
        assert!(!words.is_empty(), "a block must contain at least one word");
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        Self { bytes }
    }

    /// The block contents as bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The block contents as mutable bytes, for callers that refill a
    /// block in place (e.g. a value stream reusing one scratch block
    /// instead of allocating per draw).
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Length in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Length in bits.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Returns bit `i` (LSB-first within each byte).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bit_len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.bit_len(), "bit index {i} out of range");
        (self.bytes[i / 8] >> (i % 8)) & 1 == 1
    }

    /// Sets bit `i` (LSB-first within each byte).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bit_len()`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(i < self.bit_len(), "bit index {i} out of range");
        let mask = 1u8 << (i % 8);
        if value {
            self.bytes[i / 8] |= mask;
        } else {
            self.bytes[i / 8] &= !mask;
        }
    }

    /// Extracts `width` bits starting at bit `start` as a little-endian
    /// integer. Bits past the end of the block read as zero, which gives
    /// chunk sizes that do not divide the block width a well-defined
    /// zero-padded final chunk.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 16.
    #[must_use]
    pub fn bits(&self, start: usize, width: usize) -> u16 {
        assert!(width > 0 && width <= 16, "bit field width {width} out of range");
        // A ≤16-bit field at any bit offset spans at most three bytes
        // (7 + 16 = 23 bits); gather them and shift once.
        let first = start / 8;
        let shift = start % 8;
        let mut acc = 0u32;
        if let Some(tail) = self.bytes.get(first..) {
            for (k, &b) in tail.iter().take(3).enumerate() {
                acc |= u32::from(b) << (8 * k);
            }
        }
        let mask = if width == 16 { 0xFFFF } else { (1u32 << width) - 1 };
        ((acc >> shift) & mask) as u16
    }

    /// Writes `width` bits of `value` starting at bit `start`; bits past
    /// the end of the block are ignored (the mirror of [`Block::bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 16.
    pub fn set_bits(&mut self, start: usize, width: usize, value: u16) {
        assert!(width > 0 && width <= 16, "bit field width {width} out of range");
        let mask = if width == 16 { 0xFFFF } else { (1u32 << width) - 1 };
        let first = start / 8;
        let shift = start % 8;
        let field_mask = mask << shift;
        let field = (u32::from(value) & mask) << shift;
        for k in 0..3 {
            if let Some(b) = self.bytes.get_mut(first + k) {
                let bm = (field_mask >> (8 * k)) as u8;
                *b = (*b & !bm) | (field >> (8 * k)) as u8;
            }
        }
    }

    /// True if every bit of the block is zero (a *null block*; the paper
    /// notes DESC "has mechanisms that exploit null and redundant
    /// blocks").
    #[must_use]
    pub fn is_null(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }

    /// The number of 64-bit words needed to hold this block
    /// (`byte_len` rounded up to a multiple of 8).
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.bytes.len().div_ceil(8)
    }

    /// Returns 64-bit word `i` of the block, read little-endian; bytes
    /// past the end of the block read as zero (the word-level twin of
    /// [`Block::bits`]' zero padding).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.word_len()`.
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        assert!(i < self.word_len(), "word index {i} out of range");
        let start = i * 8;
        let mut raw = [0u8; 8];
        let tail = &self.bytes[start..self.bytes.len().min(start + 8)];
        raw[..tail.len()].copy_from_slice(tail);
        u64::from_le_bytes(raw)
    }

    /// Extracts `width` bits starting at bit `start` as a little-endian
    /// integer — the wide cousin of [`Block::bits`] for whole-segment
    /// extraction (a 64-wire beat in one call instead of 64 `bit`
    /// calls). Bits past the end of the block read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    #[must_use]
    pub fn word_bits(&self, start: usize, width: usize) -> u64 {
        assert!(width > 0 && width <= 64, "bit field width {width} out of range");
        // A ≤64-bit field at any bit offset spans at most nine bytes.
        let first = start / 8;
        let shift = start % 8;
        let mut acc = 0u128;
        if let Some(tail) = self.bytes.get(first..) {
            for (k, &b) in tail.iter().take(9).enumerate() {
                acc |= u128::from(b) << (8 * k);
            }
        }
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        ((acc >> shift) as u64) & mask
    }

    /// Number of bit positions at which `self` and `other` differ.
    ///
    /// Folds eight bytes at a time (`xor` + `count_ones` over `u64`
    /// lanes) with a byte-wise tail for lengths that are not a multiple
    /// of eight.
    ///
    /// # Panics
    ///
    /// Panics if the blocks have different lengths.
    #[must_use]
    pub fn hamming_distance(&self, other: &Block) -> u32 {
        assert_eq!(
            self.byte_len(),
            other.byte_len(),
            "hamming distance requires equal-length blocks"
        );
        let mut a = self.bytes.chunks_exact(8);
        let mut b = other.bytes.chunks_exact(8);
        let mut total = 0u32;
        for (wa, wb) in (&mut a).zip(&mut b) {
            let x = u64::from_le_bytes(wa.try_into().expect("8-byte chunk"))
                ^ u64::from_le_bytes(wb.try_into().expect("8-byte chunk"));
            total += x.count_ones();
        }
        total
            + a.remainder()
                .iter()
                .zip(b.remainder())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum::<u32>()
    }
}

/// Extracts `width ≤ 64` bits starting at `start` from a zero-padded
/// little-endian word slice — the slab-side twin of
/// [`Block::word_bits`]: bits past the end of the slice read as zero.
/// The batched kernels read their beats, rounds and lanes through it.
#[inline]
#[must_use]
pub(crate) fn bits_of_words(words: &[u64], start: usize, width: usize) -> u64 {
    debug_assert!(width > 0 && width <= 64);
    let w = start / 64;
    let shift = start % 64;
    let lo = words.get(w).copied().unwrap_or(0) >> shift;
    let acc = if shift > 0 && shift + width > 64 {
        lo | (words.get(w + 1).copied().unwrap_or(0) << (64 - shift))
    } else {
        lo
    };
    if width == 64 {
        acc
    } else {
        acc & ((1u64 << width) - 1)
    }
}

/// A packed batch of equal-length blocks in 8-byte-aligned storage.
///
/// The slab is the unit the batched transfer path moves: blocks are
/// stored back to back as little-endian `u64` words (each block padded
/// to a whole number of words, padding bits zero), so batched encoders
/// can run `xor`/`count_ones` lane math directly on `[u64]` slices
/// without touching byte-granular accessors.
///
/// # Examples
///
/// ```
/// use desc_core::{Block, BlockSlab};
///
/// let mut slab = BlockSlab::new(64);
/// slab.push(&Block::default());
/// assert_eq!(slab.len(), 1);
/// assert_eq!(slab.block_words(0).len(), 8);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BlockSlab {
    byte_len: usize,
    words_per_block: usize,
    words: Vec<u64>,
}

impl BlockSlab {
    /// Creates an empty slab for blocks of `byte_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `byte_len` is zero.
    #[must_use]
    pub fn new(byte_len: usize) -> Self {
        assert!(byte_len > 0, "a block must contain at least one byte");
        Self { byte_len, words_per_block: byte_len.div_ceil(8), words: Vec::new() }
    }

    /// Creates an empty slab with room for `blocks` blocks of
    /// `byte_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `byte_len` is zero.
    #[must_use]
    pub fn with_capacity(byte_len: usize, blocks: usize) -> Self {
        let mut slab = Self::new(byte_len);
        slab.words.reserve(blocks * slab.words_per_block);
        slab
    }

    /// Byte length of every block in the slab.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }

    /// Bit length of every block in the slab.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.byte_len * 8
    }

    /// Words of storage per block (`byte_len` rounded up to whole
    /// 8-byte words).
    #[must_use]
    pub fn words_per_block(&self) -> usize {
        self.words_per_block
    }

    /// Number of blocks currently in the slab.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len() / self.words_per_block
    }

    /// True when the slab holds no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Removes all blocks, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Appends a copy of `block` to the slab.
    ///
    /// # Panics
    ///
    /// Panics if the block's byte length differs from the slab's.
    pub fn push(&mut self, block: &Block) {
        assert_eq!(block.byte_len(), self.byte_len, "slab holds {}-byte blocks", self.byte_len);
        let bytes = block.as_bytes();
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            self.words.push(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut raw = [0u8; 8];
            raw[..rem.len()].copy_from_slice(rem);
            self.words.push(u64::from_le_bytes(raw));
        }
    }

    /// The packed little-endian words of block `i` (padding bits, if
    /// any, are zero).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn block_words(&self, i: usize) -> &[u64] {
        assert!(i < self.len(), "block index {i} out of range");
        &self.words[i * self.words_per_block..(i + 1) * self.words_per_block]
    }

    /// Extracts `width ≤ 16` bits of block `i` starting at bit `start`
    /// — bit-identical to [`Block::bits`] on the corresponding block,
    /// including zero reads past the end.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `width` is zero or greater
    /// than 16.
    #[must_use]
    pub fn bits(&self, i: usize, start: usize, width: usize) -> u16 {
        assert!(width > 0 && width <= 16, "bit field width {width} out of range");
        bits_of_words(self.block_words(i), start, width) as u16
    }

    /// Extracts `width ≤ 64` bits of block `i` starting at bit `start`
    /// — bit-identical to [`Block::word_bits`] on the corresponding
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `width` is zero or greater
    /// than 64.
    #[must_use]
    pub fn word_bits(&self, i: usize, start: usize, width: usize) -> u64 {
        assert!(width > 0 && width <= 64, "bit field width {width} out of range");
        bits_of_words(self.block_words(i), start, width)
    }

    /// Copies block `i` into `out` (which must have the slab's byte
    /// length) — the scalar-fallback bridge from slab storage back to
    /// a [`Block`] without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `out` has a different length.
    pub fn copy_block_into(&self, i: usize, out: &mut Block) {
        assert_eq!(out.byte_len(), self.byte_len, "slab holds {}-byte blocks", self.byte_len);
        let words = self.block_words(i);
        let bytes = out.as_bytes_mut();
        let mut chunks = bytes.chunks_exact_mut(8);
        let mut w = 0usize;
        for dst in &mut chunks {
            dst.copy_from_slice(&words[w].to_le_bytes());
            w += 1;
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let raw = words[w].to_le_bytes();
            rem.copy_from_slice(&raw[..rem.len()]);
        }
    }

    /// Block `i` as an owned [`Block`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get_block(&self, i: usize) -> Block {
        let mut out = Block::zeroed(self.byte_len);
        self.copy_block_into(i, &mut out);
        out
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({} B:", self.bytes.len())?;
        for b in self.bytes.iter().take(8) {
            write!(f, " {b:02x}")?;
        }
        if self.bytes.len() > 8 {
            write!(f, " …")?;
        }
        write!(f, ")")
    }
}

impl Default for Block {
    /// An all-zero 64-byte block (the paper's block size).
    fn default() -> Self {
        Self::zeroed(PAPER_BLOCK_BYTES)
    }
}

impl From<&[u8]> for Block {
    fn from(bytes: &[u8]) -> Self {
        Self::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_block_is_null() {
        let b = Block::zeroed(64);
        assert!(b.is_null());
        assert_eq!(b.bit_len(), 512);
    }

    #[test]
    fn default_block_matches_paper_size() {
        assert_eq!(Block::default().byte_len(), PAPER_BLOCK_BYTES);
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut b = Block::zeroed(2);
        b.set_bit(3, true);
        b.set_bit(11, true);
        assert!(b.bit(3));
        assert!(b.bit(11));
        assert!(!b.bit(4));
        b.set_bit(3, false);
        assert!(!b.bit(3));
        assert_eq!(b.as_bytes(), &[0b0000_0000, 0b0000_1000]);
    }

    #[test]
    fn bits_reads_lsb_first() {
        let b = Block::from_bytes(&[0b0101_0011]);
        assert_eq!(b.bits(0, 4), 0b0011);
        assert_eq!(b.bits(4, 4), 0b0101);
        assert_eq!(b.bits(0, 8), 0b0101_0011);
    }

    #[test]
    fn bits_past_end_read_zero() {
        let b = Block::from_bytes(&[0xFF]);
        assert_eq!(b.bits(6, 4), 0b0011); // two real bits + two padded zeros
    }

    #[test]
    fn set_bits_roundtrip() {
        let mut b = Block::zeroed(2);
        b.set_bits(5, 7, 0b101_1010);
        assert_eq!(b.bits(5, 7), 0b101_1010);
    }

    #[test]
    fn as_bytes_mut_refills_in_place() {
        let mut b = Block::zeroed(2);
        b.as_bytes_mut().copy_from_slice(&[0xAB, 0xCD]);
        assert_eq!(b.as_bytes(), &[0xAB, 0xCD]);
    }

    #[test]
    fn from_words_little_endian() {
        let b = Block::from_words(&[0x0102_0304_0506_0708]);
        assert_eq!(b.as_bytes()[0], 0x08);
        assert_eq!(b.as_bytes()[7], 0x01);
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a = Block::from_bytes(&[0b1111_0000, 0x00]);
        let b = Block::from_bytes(&[0b0000_0000, 0x01]);
        assert_eq!(a.hamming_distance(&b), 5);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn hamming_distance_rejects_mismatched_lengths() {
        let a = Block::zeroed(8);
        let b = Block::zeroed(16);
        let _ = a.hamming_distance(&b);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn empty_block_rejected() {
        let _ = Block::from_bytes(&[]);
    }

    #[test]
    fn debug_is_nonempty_and_truncated() {
        let b = Block::zeroed(64);
        let s = format!("{b:?}");
        assert!(s.contains("64 B"));
        assert!(s.contains('…'));
    }

    #[test]
    fn word_reads_little_endian_with_zero_padding() {
        let b = Block::from_bytes(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0xAA]);
        assert_eq!(b.word_len(), 2);
        assert_eq!(b.word(0), 0x0102_0304_0506_0708);
        assert_eq!(b.word(1), 0xAA); // seven padded zero bytes
    }

    #[test]
    fn word_bits_matches_bits_on_all_offsets() {
        let b = Block::from_bytes(&[0x31, 0x41, 0x59, 0x26, 0x53, 0x58, 0x97, 0x93, 0x23]);
        for start in 0..b.bit_len() {
            for width in 1..=16 {
                assert_eq!(
                    b.word_bits(start, width),
                    u64::from(b.bits(start, width)),
                    "start {start} width {width}"
                );
            }
        }
        // Wide fields spanning a word boundary.
        assert_eq!(b.word_bits(0, 64), b.word(0));
        assert_eq!(b.word_bits(4, 64), (b.word(0) >> 4) | (b.word(1) << 60));
    }

    #[test]
    fn hamming_distance_word_fold_matches_bytewise() {
        // Lengths that exercise the u64 lanes and the byte tail.
        for len in [1usize, 7, 8, 9, 15, 16, 63, 64] {
            let a_bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let b_bytes: Vec<u8> = (0..len).map(|i| (i * 91 + 3) as u8).collect();
            let a = Block::from_bytes(&a_bytes);
            let b = Block::from_bytes(&b_bytes);
            let expected: u32 =
                a_bytes.iter().zip(&b_bytes).map(|(x, y)| (x ^ y).count_ones()).sum();
            assert_eq!(a.hamming_distance(&b), expected, "len {len}");
        }
    }

    #[test]
    fn slab_roundtrips_blocks() {
        for len in [1usize, 7, 8, 9, 64] {
            let mut slab = BlockSlab::with_capacity(len, 3);
            let blocks: Vec<Block> = (0..3u8)
                .map(|k| Block::from_vec((0..len).map(|i| (i as u8).wrapping_mul(k + 1)).collect()))
                .collect();
            for b in &blocks {
                slab.push(b);
            }
            assert_eq!(slab.len(), 3);
            assert_eq!(slab.byte_len(), len);
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(&slab.get_block(i), b, "len {len} block {i}");
                for w in 0..b.word_len() {
                    assert_eq!(slab.block_words(i)[w], b.word(w));
                }
            }
            slab.clear();
            assert!(slab.is_empty());
        }
    }

    #[test]
    fn slab_bits_match_block_bits() {
        let bytes: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(73).wrapping_add(5)).collect();
        let block = Block::from_bytes(&bytes);
        let mut slab = BlockSlab::new(64);
        slab.push(&block);
        for width in [1usize, 3, 4, 7, 8, 13, 16] {
            for start in (0..block.bit_len()).step_by(width) {
                assert_eq!(
                    slab.bits(0, start, width),
                    block.bits(start, width),
                    "start {start} width {width}"
                );
            }
        }
        for width in [17usize, 32, 48, 64] {
            for start in (0..block.bit_len()).step_by(31) {
                assert_eq!(
                    slab.word_bits(0, start, width),
                    block.word_bits(start, width),
                    "start {start} width {width}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "slab holds 8-byte blocks")]
    fn slab_rejects_mismatched_block_length() {
        let mut slab = BlockSlab::new(8);
        slab.push(&Block::zeroed(16));
    }
}
