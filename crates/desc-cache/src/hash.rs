//! In-tree deterministic hashing for cache keys.
//!
//! Rust's `std::hash` deliberately randomizes and does not promise
//! stability across processes or releases, so cache keys are derived
//! with an in-tree SipHash-2-4 (the workspace is hermetic — no
//! external hash crates). Two independent fixed-key SipHash instances
//! run over the same byte stream to produce a 128-bit [`CellKey`]:
//! at ~10⁴ distinct cells per full sweep, accidental collisions are
//! out of reach, and content addressing only has to defend against
//! accidents — the cache directory is trusted local state, not an
//! adversarial input.
//!
//! [`KeyHasher`] is the typed front end: every write is
//! **length-prefixed or fixed-width**, so field boundaries cannot
//! alias (`("ab", "c")` and `("a", "bc")` hash differently), and a
//! leading domain string separates key families (`"app"` cells can
//! never collide with `"snuca"` cells).

/// 128-bit content-address of one cell computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// High 64 bits (first SipHash instance).
    pub hi: u64,
    /// Low 64 bits (second SipHash instance).
    pub lo: u64,
}

impl CellKey {
    /// Fixed-width lowercase hex form, 32 chars — used for object
    /// file names.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`CellKey::hex`] form back; `None` unless the input
    /// is exactly 32 lowercase/uppercase hex chars.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self { hi, lo })
    }
}

/// SipHash-2-4 over an incremental byte stream with a caller-chosen
/// 128-bit key. Matches the reference implementation (verified by the
/// paper's test vectors in this module's tests).
#[derive(Debug, Clone)]
pub struct SipHasher24 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Pending input bytes (< 8) not yet compressed.
    buf: [u8; 8],
    buf_len: usize,
    /// Total bytes written, mod 256 — folded into the final block.
    len: u64,
}

impl SipHasher24 {
    /// A hasher keyed by `(k0, k1)`.
    #[must_use]
    pub fn new(k0: u64, k1: u64) -> Self {
        Self {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            buf: [0; 8],
            buf_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.round();
        self.v0 ^= m;
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        if self.buf_len > 0 {
            let take = rest.len().min(8 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 8 {
                return;
            }
            let m = u64::from_le_bytes(self.buf);
            self.compress(m);
            self.buf_len = 0;
        }
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.compress(m);
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finalizes (without consuming the hasher state it clones, so
    /// callers can keep writing).
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut s = self.clone();
        let mut last = [0u8; 8];
        last[..s.buf_len].copy_from_slice(&s.buf[..s.buf_len]);
        last[7] = (s.len & 0xff) as u8;
        let m = u64::from_le_bytes(last);
        s.compress(m);
        s.v2 ^= 0xff;
        s.round();
        s.round();
        s.round();
        s.round();
        s.v0 ^ s.v1 ^ s.v2 ^ s.v3
    }
}

/// The two fixed key pairs behind every [`CellKey`]. Arbitrary but
/// frozen: changing them invalidates every existing cache directory,
/// exactly like bumping the cell schema version.
const KEY_A: (u64, u64) = (0x6465_7363_2d63_6163, 0x6865_2f6b_6579_2f41); // "desc-cache/key/A"
const KEY_B: (u64, u64) = (0x6465_7363_2d63_6163, 0x6865_2f6b_6579_2f42); // "desc-cache/key/B"

/// Typed, field-separated front end over two [`SipHasher24`]s.
///
/// Every write is length-prefixed (byte strings) or fixed-width
/// (integers / float bit patterns), so adjacent fields can never
/// alias. Create one per key derivation with a domain string.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: SipHasher24,
    b: SipHasher24,
}

impl KeyHasher {
    /// A fresh hasher for the key family `domain` (e.g. `"app"`).
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut h =
            Self { a: SipHasher24::new(KEY_A.0, KEY_A.1), b: SipHasher24::new(KEY_B.0, KEY_B.1) };
        h.write_str(domain);
        h
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
    }

    /// Writes a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Writes a fixed-width little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes a fixed-width little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Writes an `f64` as its exact IEEE-754 bit pattern (no rounding,
    /// `-0.0` ≠ `0.0`, every NaN payload distinct — bitwise identity
    /// is the contract, same as the codec).
    pub fn write_f64_bits(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The 128-bit key for everything written so far.
    #[must_use]
    pub fn finish(&self) -> CellKey {
        CellKey { hi: self.a.finish(), lo: self.b.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First entries of the SipHash-2-4 64-bit reference vectors
    /// (key `0x0706050403020100, 0x0f0e0d0c0b0a0908`, message
    /// `[0, 1, 2, ...]` of increasing length).
    #[test]
    fn siphash24_reference_vectors() {
        let expected: [u64; 3] =
            [0x726f_db47_dd0e_0e31, 0x74f8_39c5_93dc_67fd, 0x0d6c_8009_d9a9_4f5a];
        for (len, want) in expected.iter().enumerate() {
            let msg: Vec<u8> = (0..len as u8).collect();
            let mut h = SipHasher24::new(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
            h.write(&msg);
            assert_eq!(h.finish(), *want, "vector for {len}-byte message");
        }
    }

    #[test]
    fn split_writes_match_one_shot() {
        let msg: Vec<u8> = (0..=41).collect();
        let mut whole = SipHasher24::new(1, 2);
        whole.write(&msg);
        for split in [1, 3, 7, 8, 9, 20] {
            let mut parts = SipHasher24::new(1, 2);
            for chunk in msg.chunks(split) {
                parts.write(chunk);
            }
            assert_eq!(parts.finish(), whole.finish(), "split at {split}");
        }
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        let mut ab_c = KeyHasher::new("t");
        ab_c.write_str("ab");
        ab_c.write_str("c");
        let mut a_bc = KeyHasher::new("t");
        a_bc.write_str("a");
        a_bc.write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn domains_separate_key_families() {
        let mut app = KeyHasher::new("app");
        app.write_u64(7);
        let mut snuca = KeyHasher::new("snuca");
        snuca.write_u64(7);
        assert_ne!(app.finish(), snuca.finish());
    }

    #[test]
    fn float_bit_patterns_are_distinguished() {
        let mut pos = KeyHasher::new("t");
        pos.write_f64_bits(0.0);
        let mut neg = KeyHasher::new("t");
        neg.write_f64_bits(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }

    #[test]
    fn hex_round_trips() {
        let key = CellKey { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };
        let hex = key.hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(CellKey::from_hex(&hex), Some(key));
        assert_eq!(CellKey::from_hex("zz"), None);
        assert_eq!(CellKey::from_hex(&hex[..31]), None);
    }

    #[test]
    fn determinism_across_instances() {
        let build = || {
            let mut h = KeyHasher::new("app");
            h.write_str("paper:ZeroSkippedDesc");
            h.write_u64(2013);
            h.write_u32(4000);
            h.write_f64_bits(1.03);
            h.finish()
        };
        assert_eq!(build(), build());
    }
}
