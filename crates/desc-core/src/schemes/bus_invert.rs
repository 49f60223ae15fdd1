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
//!
//! ## Packed lanes
//!
//! All three schemes keep their wires in [`Lane`]s: 64-bit words that
//! each hold as many whole segments as fit (`64 / segment_bits`), with
//! each segment's invert and skip wire at the bit of the segment's
//! lowest data wire. One beat kernel, [`SegmentedBus::beat`], serves
//! both `transfer` and `transfer_many` and decides every segment of a
//! lane at once:
//!
//! * for power-of-two segment sizes, a SWAR field reduction (parallel
//!   arithmetic on bit fields packed in one `u64`) turns the lane's
//!   flip mask into per-segment popcounts, and each polarity or skip
//!   rule is a field-wise compare against a threshold;
//! * other segment sizes (3, 5, 6, 12, 24, 48, …) decide segment by
//!   segment over the same packed word.
//!
//! Either way the decisions come back as invert and skip masks, from
//! which the new data levels and every flip count follow with a few
//! word operations. The encoded variant packs its base-3 mode word from
//! the same masks.

use crate::block::{bits_of_words, Block, BlockSlab};
use crate::cost::{TransferCost, WireBudget};
use crate::scheme::TransferScheme;
use crate::swar::{even_fields, field_lsbs, low_mask, nonzero_fields};

/// The segment-choice rule of one bus-invert variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Rule {
    /// Plain or inverted, whichever costs fewer flips counting the
    /// invert wire ([`BusInvertScheme`]).
    Invert,
    /// [`Rule::Invert`], or skipped when the value is zero and raising
    /// the skip wire is cheaper still ([`ZeroSkipBusInvertScheme`]).
    ZeroSkip,
    /// Skipped when zero, else the polarity with fewer data flips
    /// ([`EncodedZeroSkipBusInvertScheme`]).
    Encoded,
}

/// One packed lane of a segmented bus: up to 64 data wires holding
/// whole segments, plus each segment's invert and skip wire at the bit
/// position of the segment's lowest data wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Lane {
    levels: u64,
    invert: u64,
    skip: u64,
}

/// The bus-invert family's shared state and kernel: one variant's
/// segment rule over packed lanes.
#[derive(Clone, Debug)]
struct SegmentedBus {
    rule: Rule,
    width: usize,
    segment_bits: usize,
    /// Data wires per full lane: the whole segments that fit in 64.
    lane_bits: usize,
    /// The low bit of every segment field of a full lane.
    lsb: u64,
    lanes: Vec<Lane>,
    /// The mode word on the encoded variant's mode wires (zero for the
    /// other variants).
    mode: u64,
}

impl SegmentedBus {
    fn new(rule: Rule, width: usize, segment_bits: usize) -> Self {
        assert!(width > 0, "bus width must be positive");
        assert!(
            (1..=64).contains(&segment_bits),
            "segment size {segment_bits} out of range (1–64)"
        );
        assert!(
            width.is_multiple_of(segment_bits),
            "segment size {segment_bits} must divide bus width {width}"
        );
        let per_lane = 64 / segment_bits;
        let lane_bits = per_lane * segment_bits;
        let lsb = field_lsbs(segment_bits, per_lane);
        let lanes = vec![Lane::default(); width.div_ceil(lane_bits)];
        Self { rule, width, segment_bits, lane_bits, lsb, lanes, mode: 0 }
    }

    fn segment_count(&self) -> usize {
        self.width / self.segment_bits
    }

    fn reset(&mut self) {
        self.lanes.fill(Lane::default());
        self.mode = 0;
    }

    /// Transfers one block, beat by beat.
    fn transfer(&mut self, block: &Block) -> TransferCost {
        let beats = block.bit_len().div_ceil(self.width);
        let (mut data, mut control) = (0u64, 0u64);
        for n in 0..beats {
            let base = n * self.width;
            let (d, c) = self.beat(|offset, bits| block.word_bits(base + offset, bits));
            data += d;
            control += c;
        }
        beat_cost(data, control, beats)
    }

    /// Transfers every block of `slab`, reading beats straight from its
    /// packed words — cost for cost and state for state
    /// [`SegmentedBus::transfer`] on each block in turn.
    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        let beats = slab.bit_len().div_ceil(self.width);
        costs.reserve(slab.len());
        for b in 0..slab.len() {
            let words = slab.block_words(b);
            let (mut data, mut control) = (0u64, 0u64);
            for n in 0..beats {
                let base = n * self.width;
                let (d, c) = self.beat(|offset, bits| bits_of_words(words, base + offset, bits));
                data += d;
                control += c;
            }
            costs.push(beat_cost(data, control, beats));
        }
    }

    /// Drives one beat: `read(offset, bits)` returns the beat's `bits`
    /// data bits starting `offset` wires into the bus (bits past the
    /// block's end read zero). Every lane is decided under the rule and
    /// driven; returns the data flips and the control flips (invert
    /// and skip wires, or the encoded variant's mode word).
    #[inline]
    fn beat(&mut self, read: impl Fn(usize, usize) -> u64) -> (u64, u64) {
        let (rule, s) = (self.rule, self.segment_bits);
        let (mut data, mut control) = (0u64, 0u64);
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            let offset = l * self.lane_bits;
            let bits = self.lane_bits.min(self.width - offset);
            let value = read(offset, bits);
            let lsb = self.lsb & low_mask(bits);
            let (invert, skip) = if s.is_power_of_two() {
                decide_fields(rule, *lane, value, s, lsb)
            } else {
                decide_each(rule, *lane, value, s, bits / s)
            };
            // A field full of ones wherever the low bit is set (no
            // carries: every product term stays inside its field).
            let ones = low_mask(s);
            let (inv_fill, skip_fill) = (invert.wrapping_mul(ones), skip.wrapping_mul(ones));
            // Skipped segments keep their data wires; the rest are
            // driven with the value in the chosen polarity.
            let levels = (lane.levels & skip_fill) | ((value ^ inv_fill) & !skip_fill);
            data += u64::from((lane.levels ^ levels).count_ones());
            if rule != Rule::Encoded {
                control += u64::from(
                    (lane.invert ^ invert).count_ones() + (lane.skip ^ skip).count_ones(),
                );
            }
            *lane = Lane { levels, invert, skip };
        }
        if rule == Rule::Encoded {
            let mode = self.mode_word();
            control = u64::from((self.mode ^ mode).count_ones());
            self.mode = mode;
        }
        (data, control)
    }

    /// The encoded variant's mode word for the last beat: segment `k`'s
    /// mode (0 plain, 1 inverted, 2 skipped) is its base-3 digit `k`.
    fn mode_word(&self) -> u64 {
        let s = self.segment_bits;
        let per_lane = self.lane_bits / s;
        let mut word = 0u64;
        for (l, lane) in self.lanes.iter().enumerate().rev() {
            let segments = per_lane.min(self.segment_count() - l * per_lane);
            for f in (0..segments).rev() {
                let digit = (lane.invert >> (f * s) & 1) + 2 * (lane.skip >> (f * s) & 1);
                word = word * 3 + digit;
            }
        }
        word
    }
}

/// Per-field popcounts of `x` over power-of-two `s`-bit fields: the
/// first `log2 s` steps of the SWAR popcount, each field ending up
/// holding its own count.
#[inline]
fn field_popcounts(x: u64, s: usize) -> u64 {
    if s == 64 {
        return u64::from(x.count_ones());
    }
    let mut c = x;
    if s >= 2 {
        c -= (c >> 1) & even_fields(1);
    }
    if s >= 4 {
        c = (c & even_fields(2)) + ((c >> 2) & even_fields(2));
    }
    if s >= 8 {
        c = (c + (c >> 4)) & even_fields(4);
    }
    if s >= 16 {
        c = (c + (c >> 8)) & even_fields(8);
    }
    if s >= 32 {
        c = (c + (c >> 16)) & even_fields(16);
    }
    c
}

/// The fields (as a mask of their low bits) in which `p + i >= k`,
/// where `p` holds per-field popcounts of power-of-two `s`-bit fields
/// and `i` is a low-bit mask adding one to the fields it marks.
#[inline]
fn at_least(p: u64, i: u64, k: u64, s: usize, lsb: u64) -> u64 {
    if s >= 4 {
        // p + i <= s + 1 < 2^(s-1), so setting each field's top bit and
        // subtracting k leaves that bit set exactly where p + i >= k,
        // with no borrow across fields (k <= s <= 2^(s-1)).
        let top = lsb << (s - 1);
        ((((p + i) | top) - k * lsb) & top) >> (s - 1)
    } else {
        // 1- and 2-bit fields have no headroom: compare bit by bit
        // (p + i >= k  <=>  p >= k, or i set and p >= k - 1).
        let p_at_least = |k: u64| match k {
            0 => lsb,
            1 => (p | (p >> 1)) & lsb,
            2 if s == 2 => (p >> 1) & lsb,
            _ => 0,
        };
        p_at_least(k) | (i & p_at_least(k.saturating_sub(1)))
    }
}

/// Invert and skip masks for one lane of power-of-two `s`-bit segments,
/// every segment decided at once (see [`decide_each`] for the rules).
#[inline]
fn decide_fields(rule: Rule, lane: Lane, value: u64, s: usize, lsb: u64) -> (u64, u64) {
    let p = field_popcounts(lane.levels ^ value, s);
    let s64 = s as u64;
    // Inverted costs (s - p) + (1 - i) against p + i for plain:
    // invert iff 2(p + i) > s + 1, i.e. p + i >= ceil(s / 2) + 1.
    let polarity = || at_least(p, lane.invert, s64.div_ceil(2) + 1, s, lsb);
    match rule {
        Rule::Invert => (polarity(), 0),
        Rule::ZeroSkip => {
            // A zero segment is skipped when raising (or holding) the
            // skip wire beats both regular modes: always if it is
            // already up, else iff 2 <= p + i <= s - 1.
            let zero = lsb & !nonzero_fields(value, s, lsb);
            let inner =
                at_least(p, lane.invert, 2, s, lsb) & !at_least(p, lane.invert, s64, s, lsb);
            let skip = zero & (lane.skip | inner);
            ((skip & lane.invert) | (!skip & polarity()), skip)
        }
        // Zero segments skip; the rest invert iff 2p > s.
        Rule::Encoded => {
            let nonzero = nonzero_fields(value, s, lsb);
            (nonzero & at_least(p, 0, s64 / 2 + 1, s, lsb), lsb & !nonzero)
        }
    }
}

/// Invert and skip masks for one lane of `segments` `s`-bit segments,
/// decided one segment at a time by comparing the flips of each legal
/// mode — the path for segment sizes that are not powers of two.
fn decide_each(rule: Rule, lane: Lane, value: u64, s: usize, segments: usize) -> (u64, u64) {
    let x = lane.levels ^ value;
    let (mut invert, mut skip) = (0u64, 0u64);
    for f in 0..segments {
        let shift = f * s;
        let p = (x >> shift & low_mask(s)).count_ones();
        let zero = value >> shift & low_mask(s) == 0;
        let i = (lane.invert >> shift & 1) as u32;
        let k = (lane.skip >> shift & 1) as u32;
        // Flips of the plain and inverted modes, counting the data and
        // invert wires (the skip wire costs the same in both).
        let plain = p + i;
        let inverted = s as u32 - p + (1 - i);
        let (inv, skipped) = match rule {
            Rule::Invert => (inverted < plain, false),
            Rule::ZeroSkip if zero && 1 - k < plain.min(inverted) + k => (i == 1, true),
            Rule::ZeroSkip => (inverted < plain, false),
            Rule::Encoded => (!zero && (s as u32 - p) < p, zero),
        };
        invert |= u64::from(inv) << shift;
        skip |= u64::from(skipped) << shift;
    }
    (invert, skip)
}

/// The cost of `beats` binary beats that flipped `data` data wires and
/// `control` control wires.
fn beat_cost(data: u64, control: u64, beats: usize) -> TransferCost {
    TransferCost {
        data_transitions: data,
        control_transitions: control,
        sync_transitions: 0,
        latency_cycles: 0,
        cycles: beats as u64,
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
        Self { bus: SegmentedBus::new(Rule::Invert, width, segment_bits) }
    }

    /// The segment size in bits.
    #[must_use]
    pub fn segment_bits(&self) -> usize {
        self.bus.segment_bits
    }
}

impl TransferScheme for BusInvertScheme {
    fn name(&self) -> &'static str {
        "Bus Invert Coding"
    }

    fn wires(&self) -> WireBudget {
        WireBudget {
            data_wires: self.bus.width,
            control_wires: self.bus.segment_count(),
            sync_wires: 0,
        }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        self.bus.transfer(block)
    }

    /// Batched kernel: the same beat kernel as `transfer`, reading
    /// each lane straight from the slab's packed words.
    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        self.bus.transfer_many(slab, costs);
    }

    fn reset(&mut self) {
        self.bus.reset();
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
}

impl ZeroSkipBusInvertScheme {
    /// Creates the sparse zero-skipped bus-invert scheme.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BusInvertScheme::new`].
    #[must_use]
    pub fn new(width: usize, segment_bits: usize) -> Self {
        Self { bus: SegmentedBus::new(Rule::ZeroSkip, width, segment_bits) }
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
            control_wires: 2 * self.bus.segment_count(),
            sync_wires: 0,
        }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        self.bus.transfer(block)
    }

    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        self.bus.transfer_many(slab, costs);
    }

    fn reset(&mut self) {
        self.bus.reset();
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
        let bus = SegmentedBus::new(Rule::Encoded, width, segment_bits);
        let wires = mode_word_wires(bus.segment_count());
        assert!(wires <= 64, "mode word of {wires} wires exceeds the 64-wire encoder limit");
        Self { bus }
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
            control_wires: mode_word_wires(self.bus.segment_count()),
            sync_wires: 0,
        }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        self.bus.transfer(block)
    }

    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        self.bus.transfer_many(slab, costs);
    }

    fn reset(&mut self) {
        self.bus.reset();
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

    #[test]
    fn debug_form_names_width_and_segment_size() {
        // Cell-key checks tell scheme constructions apart by `Debug`.
        let wide = format!("{:?}", BusInvertScheme::new(64, 32));
        let narrow = format!("{:?}", BusInvertScheme::new(64, 16));
        assert_ne!(wide, narrow);
        assert!(wide.contains("width: 64") && wide.contains("segment_bits: 32"), "{wide}");
        assert!(narrow.contains("segment_bits: 16"), "{narrow}");
    }
}
