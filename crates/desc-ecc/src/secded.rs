//! Generic SECDED Hamming construction (extended Hamming code).
//!
//! The classic layout: codeword positions are numbered from 1; parity
//! bits sit at the power-of-two positions and cover every position
//! whose index has the corresponding bit set; an overall parity bit
//! (position 0) extends single-error correction to double-error
//! detection. The paper uses the (72,64) and (137,128) instances
//! (Slayman \[22\]).
//!
//! The codec is word-parallel. [`SecdedCode::new`] builds the code's
//! coverage table once: for each Hamming parity bit, the mask of data
//! bits it covers, one `u64` per 64 data bits. A parity bit is then
//! the popcount parity of `data & mask`, so encoding, decoding's
//! syndrome and [`SecdedScheme`]'s parity extension all run through one
//! routine over whole words instead of one bit at a time.
//!
//! [`SecdedScheme`]: crate::scheme::SecdedScheme

use std::fmt;
use std::sync::Arc;

/// A SECDED (extended Hamming) code over `data_bits` data bits.
///
/// # Examples
///
/// ```
/// use desc_ecc::SecdedCode;
///
/// let code = SecdedCode::c72_64();
/// assert_eq!(code.data_bits(), 64);
/// assert_eq!(code.codeword_bits(), 72);
///
/// let data = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04];
/// let mut cw = code.encode(&data);
/// cw[17] = !cw[17]; // single-bit upset
/// let decoded = code.decode(&mut cw);
/// assert!(decoded.is_corrected());
/// assert_eq!(code.extract_data(&cw), data);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SecdedCode {
    data_bits: usize,
    hamming_parity_bits: usize,
    /// The coverage table, built once per code and shared by clones:
    /// `coverage[j * hamming_parity_bits + k]` masks the bits of data
    /// word `j` (data bits `64j..64j+64`) that Hamming parity bit `k`
    /// (codeword position `2^k`) covers.
    coverage: Arc<[u64]>,
}

/// Result of decoding a (possibly corrupted) codeword.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeOutcome {
    /// The codeword was consistent.
    Clean,
    /// A single-bit error was found and corrected in place; the payload
    /// is the corrupted codeword index.
    Corrected(usize),
    /// Two bit errors were detected; the data is not trustworthy.
    DoubleError,
}

impl DecodeOutcome {
    /// True for [`DecodeOutcome::Clean`] and
    /// [`DecodeOutcome::Corrected`] — the data is usable.
    #[must_use]
    pub fn is_usable(&self) -> bool {
        !matches!(self, DecodeOutcome::DoubleError)
    }

    /// True only for [`DecodeOutcome::Corrected`].
    #[must_use]
    pub fn is_corrected(&self) -> bool {
        matches!(self, DecodeOutcome::Corrected(_))
    }
}

impl fmt::Display for DecodeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeOutcome::Clean => write!(f, "clean"),
            DecodeOutcome::Corrected(i) => write!(f, "corrected bit {i}"),
            DecodeOutcome::DoubleError => write!(f, "double error detected"),
        }
    }
}

impl SecdedCode {
    /// Builds a SECDED code for `data_bits` data bits, with its
    /// coverage table.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is zero.
    #[must_use]
    pub fn new(data_bits: usize) -> Self {
        assert!(data_bits > 0, "a code needs at least one data bit");
        let mut r = 1usize;
        while (1usize << r) < data_bits + r + 1 {
            r += 1;
        }
        // Data bits fill the non-power-of-two positions 3, 5, 6, 7, 9, …
        // in order; parity bit k covers those whose index has bit k set.
        let mut coverage = vec![0u64; data_bits.div_ceil(64) * r];
        let mut pos = 2usize;
        for di in 0..data_bits {
            pos += 1;
            if pos.is_power_of_two() {
                pos += 1;
            }
            for k in (0..r).filter(|k| pos >> k & 1 == 1) {
                coverage[di / 64 * r + k] |= 1 << (di % 64);
            }
        }
        Self { data_bits, hamming_parity_bits: r, coverage: coverage.into() }
    }

    /// The paper's (72,64) Hamming code protecting 64-bit words.
    #[must_use]
    pub fn c72_64() -> Self {
        let c = Self::new(64);
        debug_assert_eq!(c.codeword_bits(), 72);
        c
    }

    /// The paper's (137,128) Hamming code protecting 128-bit segments.
    #[must_use]
    pub fn c137_128() -> Self {
        let c = Self::new(128);
        debug_assert_eq!(c.codeword_bits(), 137);
        c
    }

    /// Number of protected data bits.
    #[must_use]
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Number of parity bits including the overall (DED) parity.
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.hamming_parity_bits + 1
    }

    /// Total codeword length in bits.
    #[must_use]
    pub fn codeword_bits(&self) -> usize {
        self.data_bits + self.parity_bits()
    }

    /// Hamming codeword length excluding the overall parity
    /// (positions 1..=n in the classic numbering).
    fn hamming_len(&self) -> usize {
        self.data_bits + self.hamming_parity_bits
    }

    /// The code's one parity routine. `word(start, width)` returns data
    /// bits `start..start + width` (LSB first, `width ≤ 64`; bits above
    /// `width` are ignored); it is called once per 64 data bits, with
    /// `start` a multiple of 64. Returns the parity bits in
    /// transmission order: Hamming parity bit `k` (position `2^k`) in
    /// bit `k`, then the overall (DED) parity in bit
    /// `parity_bits() - 1`. Every group has even parity.
    pub(crate) fn parity(&self, mut word: impl FnMut(usize, usize) -> u64) -> u64 {
        let r = self.hamming_parity_bits;
        let mut hamming = 0u64;
        let mut ones = 0u32;
        for (j, masks) in self.coverage.chunks_exact(r).enumerate() {
            let start = 64 * j;
            let width = (self.data_bits - start).min(64);
            let w = word(start, width) & low_bits(width);
            ones ^= w.count_ones() & 1;
            for (k, &mask) in masks.iter().enumerate() {
                hamming ^= u64::from((w & mask).count_ones() & 1) << k;
            }
        }
        let overall = (ones ^ hamming.count_ones()) & 1;
        hamming | u64::from(overall) << r
    }

    /// The data bits of `codeword`, packed LSB-first into 64-bit words.
    fn data_words(&self, codeword: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; self.data_bits.div_ceil(64)];
        let positions = (1..=self.hamming_len()).filter(|p| !p.is_power_of_two());
        for (di, pos) in positions.enumerate() {
            words[di / 64] |= u64::from(codeword[pos]) << (di % 64);
        }
        words
    }

    /// Encodes `data` (little-endian bit order, `data_bits` bits) into
    /// a codeword laid out as `[overall parity, position 1, position 2,
    /// …]`.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than `data_bits` bits.
    #[must_use]
    pub fn encode(&self, data: &[u8]) -> Vec<bool> {
        assert!(
            data.len() * 8 >= self.data_bits,
            "need {} data bits, got {}",
            self.data_bits,
            data.len() * 8
        );
        let parity = self.parity(|start, _| le_word(data, start));
        let mut word = Vec::with_capacity(self.codeword_bits());
        word.push(parity >> self.hamming_parity_bits & 1 == 1);
        let (mut k, mut di) = (0usize, 0usize);
        for pos in 1..=self.hamming_len() {
            if pos.is_power_of_two() {
                word.push(parity >> k & 1 == 1);
                k += 1;
            } else {
                word.push(data[di / 8] >> (di % 8) & 1 == 1);
                di += 1;
            }
        }
        word
    }

    /// Decodes `codeword` in place, correcting a single-bit error if
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if `codeword` has the wrong length.
    pub fn decode(&self, codeword: &mut [bool]) -> DecodeOutcome {
        assert_eq!(
            codeword.len(),
            self.codeword_bits(),
            "codeword length mismatch for ({},{})",
            self.codeword_bits(),
            self.data_bits
        );
        let n = self.hamming_len();
        // Syndrome bit k: the parity recomputed from the received data
        // differs from the received parity bit at position 2^k.
        let data = self.data_words(codeword);
        let parity = self.parity(|start, _| data[start / 64]);
        let syndrome = (0..self.hamming_parity_bits)
            .filter(|&k| (parity >> k & 1 == 1) != codeword[1 << k])
            .fold(0usize, |s, k| s | 1 << k);
        let overall = codeword.iter().filter(|&&b| b).count() % 2 == 1;

        let outcome = match (syndrome, overall) {
            (0, false) => DecodeOutcome::Clean,
            (0, true) => {
                // The overall parity bit itself flipped.
                codeword[0] = !codeword[0];
                DecodeOutcome::Corrected(0)
            }
            (s, true) if s <= n => {
                codeword[s] = !codeword[s];
                DecodeOutcome::Corrected(s)
            }
            // Non-zero syndrome with clean overall parity, or a
            // syndrome pointing outside the codeword: double error.
            _ => DecodeOutcome::DoubleError,
        };
        if desc_telemetry::enabled() {
            desc_telemetry::counter!("ecc.secded.decodes").incr();
            match outcome {
                DecodeOutcome::Clean => desc_telemetry::counter!("ecc.secded.clean").incr(),
                DecodeOutcome::Corrected(_) => {
                    desc_telemetry::counter!("ecc.secded.corrected").incr();
                }
                DecodeOutcome::DoubleError => {
                    desc_telemetry::counter!("ecc.secded.uncorrectable").incr();
                }
            }
        }
        outcome
    }

    /// Extracts the data bits from a (corrected) codeword, packed
    /// little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `codeword` has the wrong length.
    #[must_use]
    pub fn extract_data(&self, codeword: &[bool]) -> Vec<u8> {
        assert_eq!(codeword.len(), self.codeword_bits(), "codeword length mismatch");
        let words = self.data_words(codeword);
        words.iter().flat_map(|w| w.to_le_bytes()).take(self.data_bits.div_ceil(8)).collect()
    }
}

/// The low `width ≤ 64` bits set.
fn low_bits(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// The 64 bits of `bytes` from the byte-aligned bit `start`, read
/// little-endian; bytes past the end read as zero.
fn le_word(bytes: &[u8], start: usize) -> u64 {
    let tail = bytes.iter().skip(start / 8).take(8);
    tail.enumerate().fold(0, |w, (k, &b)| w | u64::from(b) << (8 * k))
}

impl fmt::Debug for SecdedCode {
    // The coverage table is derived from `data_bits`; leave it out.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecdedCode")
            .field("data_bits", &self.data_bits)
            .field("hamming_parity_bits", &self.hamming_parity_bits)
            .finish()
    }
}

impl fmt::Display for SecdedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{}) SECDED", self.codeword_bits(), self.data_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_code_dimensions() {
        let c72 = SecdedCode::c72_64();
        assert_eq!((c72.codeword_bits(), c72.data_bits(), c72.parity_bits()), (72, 64, 8));
        let c137 = SecdedCode::c137_128();
        assert_eq!((c137.codeword_bits(), c137.data_bits(), c137.parity_bits()), (137, 128, 9));
    }

    #[test]
    fn clean_roundtrip() {
        let code = SecdedCode::c72_64();
        let data = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0];
        let mut cw = code.encode(&data);
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Clean);
        assert_eq!(code.extract_data(&cw), data);
    }

    #[test]
    fn every_single_bit_error_corrected_72_64() {
        let code = SecdedCode::c72_64();
        let data = [0xA5, 0x00, 0xFF, 0x3C, 0x81, 0x7E, 0x55, 0xAA];
        let clean = code.encode(&data);
        for i in 0..code.codeword_bits() {
            let mut cw = clean.clone();
            cw[i] = !cw[i];
            let outcome = code.decode(&mut cw);
            assert_eq!(outcome, DecodeOutcome::Corrected(i), "bit {i}");
            assert_eq!(code.extract_data(&cw), data, "bit {i} data");
        }
    }

    #[test]
    fn every_single_bit_error_corrected_137_128() {
        let code = SecdedCode::c137_128();
        let data: Vec<u8> = (0..16).map(|i| (i * 17 + 3) as u8).collect();
        let clean = code.encode(&data);
        for i in 0..code.codeword_bits() {
            let mut cw = clean.clone();
            cw[i] = !cw[i];
            assert!(code.decode(&mut cw).is_corrected(), "bit {i}");
            assert_eq!(code.extract_data(&cw), data, "bit {i} data");
        }
    }

    #[test]
    fn all_double_bit_errors_detected_small_code() {
        // Exhaustive over a small instance: every 2-bit error pattern
        // must report DoubleError (never miscorrect silently into
        // Clean).
        let code = SecdedCode::new(8);
        let data = [0b1100_0101u8];
        let clean = code.encode(&data);
        let n = code.codeword_bits();
        for i in 0..n {
            for j in (i + 1)..n {
                let mut cw = clean.clone();
                cw[i] = !cw[i];
                cw[j] = !cw[j];
                assert_eq!(code.decode(&mut cw), DecodeOutcome::DoubleError, "bits {i},{j}");
            }
        }
    }

    #[test]
    fn double_bit_errors_detected_72_64_sampled() {
        let code = SecdedCode::c72_64();
        let data = [0x0F, 0xF0, 0x55, 0xAA, 0x00, 0xFF, 0x42, 0x24];
        let clean = code.encode(&data);
        for (i, j) in [(0, 1), (0, 71), (3, 7), (12, 40), (64, 70), (33, 34)] {
            let mut cw = clean.clone();
            cw[i] = !cw[i];
            cw[j] = !cw[j];
            assert_eq!(code.decode(&mut cw), DecodeOutcome::DoubleError, "bits {i},{j}");
        }
    }

    #[test]
    fn all_zero_and_all_one_data_encode() {
        let code = SecdedCode::c137_128();
        for byte in [0x00u8, 0xFF] {
            let data = vec![byte; 16];
            let mut cw = code.encode(&data);
            assert_eq!(code.decode(&mut cw), DecodeOutcome::Clean);
            assert_eq!(code.extract_data(&cw), data);
        }
    }

    #[test]
    fn outcome_helpers() {
        assert!(DecodeOutcome::Clean.is_usable());
        assert!(DecodeOutcome::Corrected(3).is_usable());
        assert!(DecodeOutcome::Corrected(3).is_corrected());
        assert!(!DecodeOutcome::DoubleError.is_usable());
        assert!(format!("{}", DecodeOutcome::Corrected(5)).contains('5'));
    }

    #[test]
    fn code_display() {
        assert_eq!(format!("{}", SecdedCode::c72_64()), "(72,64) SECDED");
        assert_eq!(format!("{}", SecdedCode::c137_128()), "(137,128) SECDED");
    }

    #[test]
    fn generic_sizes_follow_hamming_bound() {
        for (k, expected_total) in [(4, 8), (8, 13), (16, 22), (32, 39), (64, 72), (128, 137)] {
            let c = SecdedCode::new(k);
            assert_eq!(c.codeword_bits(), expected_total, "k={k}");
        }
    }
}
