//! Compact in-tree binary codec for cached cell entries.
//!
//! All integers are fixed-width little-endian; floats are IEEE-754
//! bit patterns (`f64::to_bits`), so decode(encode(x)) is **bitwise**
//! identity — the property the warm-cache byte-identical-CSV contract
//! rests on. Byte strings are `u32` length-prefixed.
//!
//! On-disk entry layout (everything the store writes per cell):
//!
//! ```text
//! magic    b"DCC1"                      4 bytes
//! version  u32   cell-schema version
//! key      u64 hi, u64 lo              echo of the content address
//! flags    u8    bit0 = has metric delta
//! payload  u32 len + bytes             cell result (caller-defined)
//! delta    u32 len + bytes             metric snapshot, iff flags bit0
//! check    u64                         SipHash-2-4 of all prior bytes
//! ```
//!
//! The version field makes invalidation explicit: a decoder only
//! accepts its own version ([`CodecError::Version`] otherwise, which
//! the store maps to recompute-and-overwrite, never a wrong figure).
//! The key echo catches objects renamed or copied to the wrong
//! address; the trailing checksum catches truncation and bit rot —
//! relevant because a killed `repro` must never poison its rerun
//! (writes are also temp-file + rename, so a torn write is unreachable
//! short of filesystem corruption).

use crate::hash::{CellKey, SipHasher24};
use desc_telemetry::{MetricValue, Snapshot, HISTOGRAM_BUCKETS};

/// Magic prefix of every cache object file.
pub const ENTRY_MAGIC: [u8; 4] = *b"DCC1";

/// Fixed SipHash-2-4 key for the entry checksum (integrity only, not
/// authentication — the cache directory is trusted local state).
const CHECK_KEY: (u64, u64) = (0x6465_7363_2d63_6163, 0x6865_2f63_6865_636b); // "desc-cache/check"

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the field being read required.
    Truncated,
    /// Leading magic was not [`ENTRY_MAGIC`].
    BadMagic,
    /// Entry was written under a different cell-schema version.
    Version {
        /// Version found in the entry header.
        found: u32,
        /// Version this store expects.
        expected: u32,
    },
    /// Entry header's key echo disagrees with the requested address.
    KeyMismatch,
    /// Trailing checksum disagrees with the content.
    Checksum,
    /// Structurally invalid content (bad tag, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "truncated entry"),
            Self::BadMagic => write!(f, "bad entry magic"),
            Self::Version { found, expected } => {
                write!(f, "cell-schema version {found} (expected {expected})")
            }
            Self::KeyMismatch => write!(f, "entry key does not match its address"),
            Self::Checksum => write!(f, "entry checksum mismatch"),
            Self::Malformed(what) => write!(f, "malformed entry: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte writer with fixed-width primitive encodings.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u32` length prefix and the raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("chunk under 4 GiB"));
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based reader matching [`Encoder`]'s encodings.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Reads from the start of `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.data.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Malformed("non-UTF-8 string"))
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = SipHasher24::new(CHECK_KEY.0, CHECK_KEY.1);
    h.write(bytes);
    h.finish()
}

/// Serializes one store entry: the cell payload plus its optional
/// captured metric delta, framed with version, key echo, and
/// checksum.
#[must_use]
pub fn encode_entry(
    version: u32,
    key: &CellKey,
    payload: &[u8],
    delta: Option<&Snapshot>,
) -> Vec<u8> {
    let mut e = Encoder::new();
    e.buf.extend_from_slice(&ENTRY_MAGIC);
    e.put_u32(version);
    e.put_u64(key.hi);
    e.put_u64(key.lo);
    e.put_u8(u8::from(delta.is_some()));
    e.put_bytes(payload);
    if let Some(delta) = delta {
        e.put_bytes(&encode_snapshot(delta));
    }
    let mut buf = e.into_bytes();
    let check = checksum(&buf);
    buf.extend_from_slice(&check.to_le_bytes());
    buf
}

/// A decoded store entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The cell result bytes (caller-defined encoding).
    pub payload: Vec<u8>,
    /// Captured metric delta, when the entry was written with
    /// telemetry enabled.
    pub delta: Option<Snapshot>,
}

impl Entry {
    /// Approximate resident size of this entry in bytes, used by the
    /// store's hot-tier byte budget. Deliberately an estimate (heap
    /// payload + a fixed-cost model of the delta snapshot + container
    /// overhead): the budget bounds memory *order*, it is not an
    /// allocator audit.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let payload = self.payload.len() as u64;
        let delta = self.delta.as_ref().map_or(0, |snapshot| {
            snapshot
                .metrics
                .iter()
                .map(|(name, value)| {
                    let value_bytes = match value {
                        MetricValue::Counter(_) | MetricValue::Gauge(_) => 8,
                        MetricValue::Histogram { .. } => 16 + 8 * HISTOGRAM_BUCKETS as u64,
                    };
                    name.len() as u64 + 48 + value_bytes
                })
                .sum()
        });
        payload + delta + 96
    }
}

/// Decodes and fully validates one store entry addressed by `key`.
///
/// # Errors
///
/// Any [`CodecError`]; [`CodecError::Version`] specifically marks a
/// structurally sound entry from another schema version (counted
/// separately by the store, recomputed either way).
pub fn decode_entry(bytes: &[u8], version: u32, key: &CellKey) -> Result<Entry, CodecError> {
    // Checksum first: a truncated or corrupted file must not surface
    // as a version or key error.
    if bytes.len() < ENTRY_MAGIC.len() + 8 {
        return Err(CodecError::Truncated);
    }
    let (content, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum"));
    if checksum(content) != stored {
        return Err(CodecError::Checksum);
    }
    let mut d = Decoder::new(content);
    if d.take(4)? != ENTRY_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let found = d.u32()?;
    if found != version {
        return Err(CodecError::Version { found, expected: version });
    }
    let (hi, lo) = (d.u64()?, d.u64()?);
    if (CellKey { hi, lo }) != *key {
        return Err(CodecError::KeyMismatch);
    }
    let flags = d.u8()?;
    if flags > 1 {
        return Err(CodecError::Malformed("unknown flags"));
    }
    let payload = d.bytes()?.to_vec();
    let delta = if flags & 1 == 1 { Some(decode_snapshot(d.bytes()?)?) } else { None };
    d.finish()?;
    Ok(Entry { payload, delta })
}

const TAG_COUNTER: u8 = 0;
const TAG_GAUGE: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;

/// Serializes a metric snapshot (the captured per-cell delta).
/// Histogram buckets are sparse `(index, count)` pairs.
#[must_use]
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(u32::try_from(snap.metrics.len()).expect("metric count fits u32"));
    for (name, value) in &snap.metrics {
        e.put_str(name);
        match value {
            MetricValue::Counter(v) => {
                e.put_u8(TAG_COUNTER);
                e.put_u64(*v);
            }
            MetricValue::Gauge(v) => {
                e.put_u8(TAG_GAUGE);
                e.put_u64(*v);
            }
            MetricValue::Histogram { count, sum, buckets } => {
                e.put_u8(TAG_HISTOGRAM);
                e.put_u64(*count);
                e.put_u64(*sum);
                let nonzero = buckets.iter().filter(|&&n| n != 0).count();
                e.put_u32(u32::try_from(nonzero).expect("bucket count fits u32"));
                for (i, &n) in buckets.iter().enumerate() {
                    if n != 0 {
                        e.put_u8(u8::try_from(i).expect("bucket index fits u8"));
                        e.put_u64(n);
                    }
                }
            }
        }
    }
    e.into_bytes()
}

/// Decodes a metric snapshot written by [`encode_snapshot`].
///
/// # Errors
///
/// Any [`CodecError`] on truncated or structurally invalid input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, CodecError> {
    let mut d = Decoder::new(bytes);
    let n = d.u32()? as usize;
    let mut metrics = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?.to_owned();
        let value = match d.u8()? {
            TAG_COUNTER => MetricValue::Counter(d.u64()?),
            TAG_GAUGE => MetricValue::Gauge(d.u64()?),
            TAG_HISTOGRAM => {
                let count = d.u64()?;
                let sum = d.u64()?;
                let mut buckets = Box::new([0u64; HISTOGRAM_BUCKETS]);
                for _ in 0..d.u32()? {
                    let i = d.u8()? as usize;
                    if i >= HISTOGRAM_BUCKETS {
                        return Err(CodecError::Malformed("bucket index out of range"));
                    }
                    buckets[i] = d.u64()?;
                }
                MetricValue::Histogram { count, sum, buckets }
            }
            _ => return Err(CodecError::Malformed("unknown metric tag")),
        };
        metrics.push((name, value));
    }
    d.finish()?;
    Ok(Snapshot { metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CellKey {
        CellKey { hi: 0xdead_beef_0123_4567, lo: 0x89ab_cdef_7654_3210 }
    }

    fn sample_snapshot() -> Snapshot {
        let mut buckets = Box::new([0u64; HISTOGRAM_BUCKETS]);
        buckets[0] = 2;
        buckets[64] = 1;
        Snapshot {
            metrics: vec![
                ("a.count".to_owned(), MetricValue::Counter(7)),
                ("a.gauge".to_owned(), MetricValue::Gauge(u64::MAX)),
                (
                    "a.hist".to_owned(),
                    MetricValue::Histogram { count: 3, sum: u64::MAX, buckets },
                ),
            ],
        }
    }

    #[test]
    fn primitives_round_trip_bitwise() {
        let mut e = Encoder::new();
        e.put_u8(0xab);
        e.put_u32(u32::MAX);
        e.put_u64(u64::MAX);
        e.put_f64(-0.0);
        e.put_f64(f64::NAN);
        // A payload with no short decimal representation.
        let awkward = f64::from_bits(0x3ff0_7ae1_47ae_147c);
        e.put_f64(awkward);
        e.put_str("ärger");
        e.put_bytes(&[]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u32().unwrap(), u32::MAX);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(d.f64().unwrap().to_bits(), awkward.to_bits());
        assert_eq!(d.str().unwrap(), "ärger");
        assert_eq!(d.bytes().unwrap(), &[] as &[u8]);
        d.finish().unwrap();
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let back = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(back.metrics, snap.metrics);
    }

    #[test]
    fn entry_round_trips_with_and_without_delta() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let with = encode_entry(3, &key(), &payload, Some(&sample_snapshot()));
        let entry = decode_entry(&with, 3, &key()).unwrap();
        assert_eq!(entry.payload, payload);
        assert_eq!(entry.delta.as_ref().map(|d| d.metrics.len()), Some(3));
        let without = encode_entry(3, &key(), &payload, None);
        let entry = decode_entry(&without, 3, &key()).unwrap();
        assert_eq!(entry.payload, payload);
        assert!(entry.delta.is_none());
    }

    #[test]
    fn entry_rejects_version_key_and_corruption() {
        let bytes = encode_entry(1, &key(), b"payload", None);
        assert_eq!(
            decode_entry(&bytes, 2, &key()),
            Err(CodecError::Version { found: 1, expected: 2 })
        );
        let other = CellKey { hi: 1, lo: 2 };
        assert_eq!(decode_entry(&bytes, 1, &other), Err(CodecError::KeyMismatch));
        // Truncation and single-bit corruption both fail the checksum.
        assert!(decode_entry(&bytes[..bytes.len() - 1], 1, &key()).is_err());
        let mut flipped = bytes.clone();
        flipped[ENTRY_MAGIC.len() + 4] ^= 0x40;
        assert!(decode_entry(&flipped, 1, &key()).is_err());
        assert_eq!(decode_entry(&[], 1, &key()), Err(CodecError::Truncated));
    }

    #[test]
    fn snapshot_rejects_malformed_input() {
        assert!(decode_snapshot(&[1, 0, 0]).is_err());
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_str("x");
        e.put_u8(9); // unknown tag
        e.put_u64(0);
        assert_eq!(
            decode_snapshot(&e.into_bytes()),
            Err(CodecError::Malformed("unknown metric tag"))
        );
    }
}
