//! DESC — data exchange using synchronized counters (paper §3).
//!
//! A block is split into chunks (paper Fig. 4); each chunk travels on
//! its assigned data wire as a *single toggle* whose timing encodes the
//! value. Transfers proceed in `ceil(chunks / wires)` rounds; each round
//! is a time window opened by a toggle on the shared reset/skip wire.
//! With value skipping (§3.3) chunks equal to the skip value stay
//! silent and are filled in at the receiver when the window closes.
//!
//! ## Timing model (documented in DESIGN.md §5)
//!
//! * Without skipping, the counter enumerates `0..2^c`, so a chunk of
//!   value `v` takes `v + 1` cycles (Fig. 5: value 2 → 3 cycles) and
//!   chunks chain per wire without global windows.
//! * With skipping, the skip value is excluded from the count list
//!   (Fig. 10-b), so value `v` strobes at position `v + 1` when
//!   `v < skip` and at position `v` when `v > skip`; a round's window
//!   lasts `max(1, max strobe position)` cycles.
//! * The synchronization strobe toggles once per cycle while the
//!   transfer is active (§3.1: a half-frequency signal sampled on both
//!   edges); its transitions are charged to the scheme.
//!
//! ## Batched kernels
//!
//! `transfer_many` has two kernels, chosen only by the scheme's chunk
//! width and skip mode. Zero skipping with 1-, 2-, 4- or 8-bit chunks
//! (every width Fig. 26 sweeps) is word-parallel: a round is a
//! contiguous bit range of the block, read 64 bits at a time, and SWAR
//! over the chunk fields yields the strobed chunks, their position sum
//! and the window's largest position; per-wire strobes go into lane
//! accumulators that flush before they can overflow. Basic and
//! last-value DESC, and 3-, 5-, 6- and 7-bit chunks, keep the
//! per-chunk kernel.

use std::fmt;

use crate::block::{bits_of_words, Block, BlockSlab};
use crate::chunk::{chunk_values_into, ChunkSize, Chunks, WireAssignment};
use crate::cost::{TransferCost, WireBudget};
use crate::scheme::TransferScheme;
use crate::swar::{even_fields, field_lsbs, nonzero_fields};
use crate::wire::{ToggleTally, Wire};

/// Value-skipping policy for a DESC interface (paper §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SkipMode {
    /// Basic DESC: every chunk toggles its wire.
    None,
    /// Zero skipping: chunks with value 0 stay silent (the paper's best
    /// variant, 1.81× L2 energy).
    #[default]
    Zero,
    /// Last-value skipping: a chunk stays silent when it equals the
    /// previous value transmitted on its wire.
    LastValue,
}

impl SkipMode {
    /// The paper's figure-legend name for the corresponding DESC
    /// variant.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SkipMode::None => "Basic DESC",
            SkipMode::Zero => "Zero Skipped DESC",
            SkipMode::LastValue => "Last Value Skipped DESC",
        }
    }
}

/// Detailed statistics for one DESC block transfer, beyond the plain
/// [`TransferCost`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DescTransferStats {
    /// Chunks whose strobe was elided by value skipping.
    pub skipped_chunks: usize,
    /// Chunks that toggled their wire.
    pub strobed_chunks: usize,
    /// Number of transfer rounds (time windows).
    pub rounds: usize,
}

/// A DESC transmitter/receiver interface over `wires` data wires.
///
/// # Examples
///
/// ```
/// use desc_core::{Block, ChunkSize, TransferScheme};
/// use desc_core::schemes::{DescScheme, SkipMode};
///
/// // Paper Fig. 3-c: one byte over two data wires, 4-bit chunks,
/// // basic DESC — three bit-flips (reset + one per chunk).
/// let mut s = DescScheme::new(2, ChunkSize::new(4).unwrap(), SkipMode::None);
/// let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
/// assert_eq!(cost.data_transitions + cost.control_transitions, 3);
/// ```
#[derive(Clone)]
pub struct DescScheme {
    chunk_size: ChunkSize,
    mode: SkipMode,
    data: Vec<Wire>,
    reset_skip: Wire,
    sync: Wire,
    /// Last chunk value transmitted on each wire (for `LastValue`).
    last_values: Vec<u16>,
    sync_enabled: bool,
    last_stats: DescTransferStats,
    /// The zero-skip kernel's per-wire strobe counts, kept so a batch
    /// does not allocate. Scratch, not state: left out of `Debug`.
    tally: ToggleTally,
}

impl fmt::Debug for DescScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DescScheme")
            .field("chunk_size", &self.chunk_size)
            .field("mode", &self.mode)
            .field("data", &self.data)
            .field("reset_skip", &self.reset_skip)
            .field("sync", &self.sync)
            .field("last_values", &self.last_values)
            .field("sync_enabled", &self.sync_enabled)
            .field("last_stats", &self.last_stats)
            .finish()
    }
}

impl DescScheme {
    /// Creates a DESC interface with `wires` data wires, `chunk_size`
    /// chunks and the given skip mode. The synchronization strobe is
    /// enabled (the paper's asynchronous-cache configuration).
    ///
    /// # Panics
    ///
    /// Panics if `wires` is zero.
    #[must_use]
    pub fn new(wires: usize, chunk_size: ChunkSize, mode: SkipMode) -> Self {
        assert!(wires > 0, "a DESC interface needs at least one data wire");
        Self {
            chunk_size,
            mode,
            data: vec![Wire::new(); wires],
            reset_skip: Wire::new(),
            sync: Wire::new(),
            last_values: vec![0; wires],
            sync_enabled: true,
            last_stats: DescTransferStats::default(),
            tally: ToggleTally::default(),
        }
    }

    /// Disables the synchronization strobe (synchronous-cache
    /// configuration where the clock distribution network is shared).
    #[must_use]
    pub fn without_sync_strobe(mut self) -> Self {
        self.sync_enabled = false;
        self
    }

    /// The configured skip mode.
    #[must_use]
    pub fn skip_mode(&self) -> SkipMode {
        self.mode
    }

    /// The configured chunk size.
    #[must_use]
    pub fn chunk_size(&self) -> ChunkSize {
        self.chunk_size
    }

    /// Number of data wires.
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.data.len()
    }

    /// Cumulative transitions per data wire since construction or the
    /// last [`TransferScheme::reset`] — input for activity-balance
    /// analysis ([`crate::analysis`]).
    ///
    /// [`TransferScheme::reset`]: crate::TransferScheme::reset
    #[must_use]
    pub fn wire_transitions(&self) -> Vec<u64> {
        self.data.iter().map(crate::wire::Wire::transitions).collect()
    }

    /// Statistics for the most recent [`TransferScheme::transfer`] call.
    #[must_use]
    pub fn last_stats(&self) -> DescTransferStats {
        self.last_stats
    }

    /// Transfers a pre-chunked payload (used by the ECC experiments,
    /// where parity chunks extend the data chunks — paper §3.2.3).
    ///
    /// # Panics
    ///
    /// Panics if the chunk size differs from the scheme's.
    pub fn transfer_chunks(&mut self, chunks: &Chunks) -> TransferCost {
        assert_eq!(
            chunks.size(),
            self.chunk_size,
            "chunk size mismatch: payload {} vs scheme {}",
            chunks.size(),
            self.chunk_size
        );
        let assignment = WireAssignment::new(chunks.len(), self.data.len());
        let mut cost = match self.mode {
            SkipMode::None => self.transfer_basic(chunks, &assignment),
            SkipMode::Zero | SkipMode::LastValue => self.transfer_skipped(chunks, &assignment),
        };
        if self.sync_enabled {
            // One strobe edge per active cycle (§3.1).
            for _ in 0..cost.cycles {
                self.sync.toggle();
            }
            cost.sync_transitions = cost.cycles;
        }
        cost
    }

    /// Strobe position of value `v` within a window whose count list
    /// excludes `skip` (1-based; paper Fig. 10-b).
    fn position(v: u16, skip: Option<u16>) -> u64 {
        match skip {
            None => u64::from(v) + 1,
            Some(s) => {
                debug_assert_ne!(v, s, "skipped values have no strobe position");
                if v < s {
                    u64::from(v) + 1
                } else {
                    u64::from(v)
                }
            }
        }
    }

    /// Basic DESC: chunks chain per wire; no shared windows.
    fn transfer_basic(&mut self, chunks: &Chunks, assignment: &WireAssignment) -> TransferCost {
        let mut cycles = 0u64;
        for (w, wire) in self.data.iter_mut().enumerate() {
            let mut wire_time = 0u64;
            for r in 0..assignment.rounds() {
                if let Some(i) = assignment.chunk_at(w, r) {
                    let v = chunks.values()[i];
                    wire_time += Self::position(v, None);
                    wire.toggle();
                    self.last_values[w] = v;
                }
            }
            cycles = cycles.max(wire_time);
        }
        self.reset_skip.toggle();
        self.last_stats = DescTransferStats {
            skipped_chunks: 0,
            strobed_chunks: chunks.len(),
            rounds: assignment.rounds(),
        };
        TransferCost {
            data_transitions: chunks.len() as u64,
            control_transitions: 1,
            sync_transitions: 0, // filled by the caller
            // Basic DESC chains chunks per wire with no shared windows;
            // the block is complete at the slowest wire, so effective
            // latency equals occupancy (sentinel 0 = `cycles`).
            latency_cycles: 0,
            cycles: cycles.max(1),
        }
    }

    /// Skipped DESC: per-round windows delimited by the reset/skip wire.
    ///
    /// Each round boundary costs exactly one reset/skip toggle: a round
    /// that ends with unfilled chunks is closed by a *skip* toggle,
    /// which simultaneously serves as the next round's counter reset
    /// (the paper's receiver already dispatches on "incomplete chunks
    /// pending?" to tell skip from reset, §3.3); a round completed
    /// purely by strobes is followed by a fresh reset toggle. The final
    /// round pays a trailing skip toggle only if it skipped anything.
    fn transfer_skipped(&mut self, chunks: &Chunks, assignment: &WireAssignment) -> TransferCost {
        let mut cost = TransferCost::ZERO;
        let mut stats = DescTransferStats { rounds: assignment.rounds(), ..Default::default() };
        let mut last_round_skipped = false;
        for r in 0..assignment.rounds() {
            // One boundary toggle opens this round (either the previous
            // round's skip toggle, reused, or a fresh reset toggle).
            self.reset_skip.toggle();
            cost.control_transitions += 1;

            let mut max_pos = 0u64;
            let mut pos_sum = 0u64;
            let mut strobed = 0u64;
            let mut any_skipped = false;
            for w in 0..self.data.len() {
                let Some(i) = assignment.chunk_at(w, r) else { continue };
                let v = chunks.values()[i];
                let skip_value = match self.mode {
                    SkipMode::Zero => 0,
                    SkipMode::LastValue => self.last_values[w],
                    SkipMode::None => unreachable!("basic DESC uses transfer_basic"),
                };
                if v == skip_value {
                    any_skipped = true;
                    stats.skipped_chunks += 1;
                } else {
                    self.data[w].toggle();
                    cost.data_transitions += 1;
                    stats.strobed_chunks += 1;
                    strobed += 1;
                    let pos = Self::position(v, Some(skip_value));
                    pos_sum += pos;
                    max_pos = max_pos.max(pos);
                }
                self.last_values[w] = v;
            }
            let window = max_pos.max(1);
            cost.cycles += window;
            // Effective receiver latency (Fig. 21 residual): the formal
            // window closes at the worst strobe position, but the
            // receiver latches each chunk at its own strobe and can
            // forward the block once the late strobes land — on average
            // near the *mean* strobe position, not the max. We model
            // the effective window as the midpoint of mean and max
            // (skip-completed chunks resolve at the closing toggle, so
            // the latency never collapses to the mean alone). Occupancy,
            // queueing and energy still use the full `window`.
            cost.latency_cycles +=
                if strobed == 0 { 1 } else { (pos_sum.div_ceil(strobed) + window).div_ceil(2) };
            last_round_skipped = any_skipped;
        }
        if last_round_skipped {
            // Trailing skip toggle fills the final round's pending
            // chunk receivers with the skip value.
            self.reset_skip.toggle();
            cost.control_transitions += 1;
        }
        self.last_stats = stats;
        cost
    }

    /// The zero-skip kernel for chunk widths that divide 64: each round
    /// is a contiguous bit range of the block (wire `w` carries the
    /// round's chunk `w`), read 64 bits at a time from its own start,
    /// which may sit mid-word. Per 64-bit piece, SWAR over the chunk
    /// fields ([`ChunkFields`]) yields the strobed (non-zero) chunks,
    /// their value sum — a non-zero chunk's strobe position under zero
    /// skipping is its value — and a running field-wise maximum. The
    /// strobed mask goes into per-wire lane accumulators
    /// ([`ToggleTally`]), which flush before a byte counter can
    /// overflow.
    fn transfer_many_zero_skip(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        let wires = self.data.len();
        let c = self.chunk_size.bits() as usize;
        let bit_len = slab.bit_len();
        let n_chunks = self.chunk_size.chunks_for_bits(bit_len);
        let rounds = n_chunks.div_ceil(wires);
        let round_bits = wires * c;
        let fields = ChunkFields::new(c);
        self.tally.reset(round_bits.div_ceil(64), c);
        let mut reset_toggles = 0u64;
        let mut sync_toggles = 0u64;
        costs.reserve(slab.len());
        for b in 0..slab.len() {
            let words = slab.block_words(b);
            let mut cost = TransferCost::ZERO;
            let mut stats = DescTransferStats { rounds, ..Default::default() };
            let mut last_round_skipped = false;
            for r in 0..rounds {
                let start = r * round_bits;
                let bits = round_bits.min(bit_len - start);
                let (mut strobed, mut pos_sum, mut max_acc) = (0u64, 0u64, 0u64);
                for (j, offset) in (0..bits).step_by(64).enumerate() {
                    let x = bits_of_words(words, start + offset, (bits - offset).min(64));
                    let nonzero = fields.nonzero(x);
                    strobed += u64::from(nonzero.count_ones());
                    pos_sum += fields.sum(x);
                    max_acc = fields.max_into(max_acc, x);
                    self.tally.add(j, nonzero);
                }
                self.tally.tick();
                let chunks = (bits / c) as u64;
                stats.strobed_chunks += strobed as usize;
                stats.skipped_chunks += (chunks - strobed) as usize;
                cost.data_transitions += strobed;
                cost.control_transitions += 1;
                let window = fields.max_of(max_acc).max(1);
                cost.cycles += window;
                cost.latency_cycles +=
                    if strobed == 0 { 1 } else { (pos_sum.div_ceil(strobed) + window).div_ceil(2) };
                last_round_skipped = strobed < chunks;
            }
            reset_toggles += rounds as u64;
            if last_round_skipped {
                reset_toggles += 1;
                cost.control_transitions += 1;
            }
            self.last_stats = stats;
            if self.sync_enabled {
                sync_toggles += cost.cycles;
                cost.sync_transitions = cost.cycles;
            }
            costs.push(cost);
        }
        // Each wire's last chunk of the slab's last block is its last
        // value (the per-chunk kernel records it chunk by chunk).
        let words = slab.block_words(slab.len() - 1);
        let last_round = (n_chunks - 1) / wires * wires;
        for (w, last) in self.last_values.iter_mut().enumerate().take(n_chunks) {
            let i = if last_round + w < n_chunks { last_round + w } else { last_round - wires + w };
            *last = bits_of_words(words, i * c, c) as u16;
        }
        for (wire, &n) in self.data.iter_mut().zip(self.tally.finish()) {
            wire.apply_batch(wire.level() ^ (n & 1 == 1), n);
        }
        self.reset_skip
            .apply_batch(self.reset_skip.level() ^ (reset_toggles & 1 == 1), reset_toggles);
        self.sync.toggle_n(sync_toggles);
    }
}

/// SWAR masks for a word of `c`-bit chunk fields, `c` dividing 64.
struct ChunkFields {
    c: usize,
    /// The low bit of every field.
    lsb: u64,
    /// Every other field (fields 0, 2, 4, …), so that a field and its
    /// upper neighbour can be lined up in `2c`-bit fields.
    even: u64,
}

impl ChunkFields {
    fn new(c: usize) -> Self {
        debug_assert!(64 % c == 0);
        Self { c, lsb: field_lsbs(c, 64 / c), even: even_fields(c) }
    }

    /// The non-zero fields of `x`, as a mask of their low bits.
    #[inline]
    fn nonzero(&self, x: u64) -> u64 {
        nonzero_fields(x, self.c, self.lsb)
    }

    /// The sum of the fields of `x`: pairwise folds up to 16-bit fields
    /// (each at most 2040 for 8-bit chunks), then one multiply adds the
    /// four into the top 16 bits.
    #[inline]
    fn sum(&self, x: u64) -> u64 {
        let mut y = x;
        let mut w = self.c;
        while w < 16 {
            let pairs = even_fields(w);
            y = (y & pairs) + ((y >> w) & pairs);
            w *= 2;
        }
        y.wrapping_mul(0x0001_0001_0001_0001) >> 48
    }

    /// Folds the fields of `x` into `acc`, a running field-wise
    /// maximum in `2c`-bit fields (even fields and odd fields of `x`
    /// each line up with them).
    #[inline]
    fn max_into(&self, acc: u64, x: u64) -> u64 {
        let acc = self.wide_max(acc, x & self.even);
        self.wide_max(acc, (x >> self.c) & self.even)
    }

    /// Field-wise maximum of two words of `2c`-bit fields holding
    /// values below `2^c`: each field's top bit is free, so
    /// `(a | top) - b` keeps it set exactly where `a >= b`.
    #[inline]
    fn wide_max(&self, a: u64, b: u64) -> u64 {
        let w = 2 * self.c;
        let wide_lsb = self.lsb & self.even;
        let top = wide_lsb << (w - 1);
        let ge = (((a | top) - b) & top) >> (w - 1);
        let keep_a = ge * ((1u64 << w) - 1);
        (a & keep_a) | (b & !keep_a)
    }

    /// The largest field of a running maximum from
    /// [`ChunkFields::max_into`]: halves folded onto each other.
    fn max_of(&self, acc: u64) -> u64 {
        let mut m = acc;
        let mut span = 64;
        while span > 2 * self.c {
            span /= 2;
            m = self.wide_max(m & ((1u64 << span) - 1), m >> span);
        }
        m
    }
}

impl TransferScheme for DescScheme {
    fn name(&self) -> &'static str {
        self.mode.label()
    }

    fn wires(&self) -> WireBudget {
        WireBudget {
            data_wires: self.data.len(),
            control_wires: 1, // shared reset/skip strobe
            sync_wires: usize::from(self.sync_enabled),
        }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let chunks = Chunks::split(block, self.chunk_size);
        self.transfer_chunks(&chunks)
    }

    /// Batched kernels, cost for cost and state for state identical to
    /// the scalar loop. Zero skipping with a chunk width that divides
    /// 64 (1, 2, 4 or 8 bits) takes the word-parallel kernel
    /// (`DescScheme::transfer_many_zero_skip`). Every other
    /// configuration — basic and last-value DESC, and 3/5/6/7-bit
    /// chunks — takes the per-chunk kernel: chunk values are extracted
    /// straight from the slab's `u64` words into one reused scratch
    /// vector (no per-block `Chunks` allocation) and per-wire strobe
    /// counts accumulate across the whole slab. Both write the wires
    /// back once and advance the sync strobe with a single
    /// [`Wire::toggle_n`] instead of one call per active cycle.
    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        if slab.is_empty() {
            return;
        }
        if self.mode == SkipMode::Zero && 64 % self.chunk_size.bits() == 0 {
            self.transfer_many_zero_skip(slab, costs);
            return;
        }
        let wires = self.data.len();
        let width = self.chunk_size.bits() as usize;
        let n_chunks = self.chunk_size.chunks_for_bits(slab.bit_len());
        let rounds = n_chunks.div_ceil(wires);
        let mut values: Vec<u16> = Vec::with_capacity(n_chunks);
        // Per-wire strobe counts for the whole batch; levels are
        // reconciled at the end (a toggle count fixes both transitions
        // and parity).
        let mut toggles = vec![0u64; wires];
        let mut reset_toggles = 0u64;
        let mut sync_toggles = 0u64;
        // Basic DESC chains chunk durations per wire; scratch is
        // cleared per block.
        let mut wire_time = vec![0u64; wires];
        costs.reserve(slab.len());
        for b in 0..slab.len() {
            values.clear();
            chunk_values_into(slab.block_words(b).iter().copied(), n_chunks, width, &mut values);
            let mut cost = match self.mode {
                SkipMode::None => {
                    wire_time.iter_mut().for_each(|t| *t = 0);
                    for (i, &v) in values.iter().enumerate() {
                        let w = i % wires;
                        wire_time[w] += Self::position(v, None);
                        toggles[w] += 1;
                        self.last_values[w] = v;
                    }
                    reset_toggles += 1;
                    self.last_stats =
                        DescTransferStats { skipped_chunks: 0, strobed_chunks: n_chunks, rounds };
                    let cycles = wire_time.iter().copied().max().unwrap_or(0);
                    TransferCost {
                        data_transitions: n_chunks as u64,
                        control_transitions: 1,
                        sync_transitions: 0,
                        latency_cycles: 0,
                        cycles: cycles.max(1),
                    }
                }
                SkipMode::Zero | SkipMode::LastValue => {
                    let mut cost = TransferCost::ZERO;
                    let mut stats = DescTransferStats { rounds, ..Default::default() };
                    let mut last_round_skipped = false;
                    for r in 0..rounds {
                        reset_toggles += 1;
                        cost.control_transitions += 1;
                        let base = r * wires;
                        let end = (base + wires).min(n_chunks);
                        let mut max_pos = 0u64;
                        let mut pos_sum = 0u64;
                        let mut strobed = 0u64;
                        let mut any_skipped = false;
                        for (w, &v) in values[base..end].iter().enumerate() {
                            let skip_value = match self.mode {
                                SkipMode::Zero => 0,
                                SkipMode::LastValue => self.last_values[w],
                                SkipMode::None => unreachable!("handled above"),
                            };
                            if v == skip_value {
                                any_skipped = true;
                                stats.skipped_chunks += 1;
                            } else {
                                toggles[w] += 1;
                                cost.data_transitions += 1;
                                stats.strobed_chunks += 1;
                                strobed += 1;
                                let pos = Self::position(v, Some(skip_value));
                                pos_sum += pos;
                                max_pos = max_pos.max(pos);
                            }
                            self.last_values[w] = v;
                        }
                        let window = max_pos.max(1);
                        cost.cycles += window;
                        cost.latency_cycles += if strobed == 0 {
                            1
                        } else {
                            (pos_sum.div_ceil(strobed) + window).div_ceil(2)
                        };
                        last_round_skipped = any_skipped;
                    }
                    if last_round_skipped {
                        reset_toggles += 1;
                        cost.control_transitions += 1;
                    }
                    self.last_stats = stats;
                    cost
                }
            };
            if self.sync_enabled {
                sync_toggles += cost.cycles;
                cost.sync_transitions = cost.cycles;
            }
            costs.push(cost);
        }
        for (w, wire) in self.data.iter_mut().enumerate() {
            wire.apply_batch(wire.level() ^ (toggles[w] & 1 == 1), toggles[w]);
        }
        self.reset_skip
            .apply_batch(self.reset_skip.level() ^ (reset_toggles & 1 == 1), reset_toggles);
        self.sync.toggle_n(sync_toggles);
    }

    fn reset(&mut self) {
        let n = self.data.len();
        self.data = vec![Wire::new(); n];
        self.reset_skip = Wire::new();
        self.sync = Wire::new();
        self.last_values = vec![0; n];
        self.last_stats = DescTransferStats::default();
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c4() -> ChunkSize {
        ChunkSize::new(4).unwrap()
    }

    /// Paper Fig. 3-c: the byte 01010011 over two data wires with basic
    /// DESC costs three bit-flips across the reset and data wires.
    #[test]
    fn fig3c_example() {
        let mut s = DescScheme::new(2, c4(), SkipMode::None).without_sync_strobe();
        let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
        assert_eq!(cost.data_transitions, 2);
        assert_eq!(cost.control_transitions, 1);
        assert_eq!(cost.sync_transitions, 0);
        // Chunks 0x3 and 0x5 in parallel: max(3+1, 5+1) = 6 cycles.
        assert_eq!(cost.cycles, 6);
    }

    /// Fig. 21 residual: effective latency sits at the midpoint of the
    /// mean and max strobe positions; occupancy stays at the max.
    #[test]
    fn effective_window_latency_sits_between_mean_and_max() {
        // One round of 4-bit chunks [0x1, 0xF] over two wires
        // (zero-skip): strobe positions 1 and 15 → window (occupancy)
        // 15, mean 8, effective latency ceil((8 + 15) / 2) = 12.
        let mut s = DescScheme::new(2, c4(), SkipMode::Zero).without_sync_strobe();
        let cost = s.transfer(&Block::from_bytes(&[0xF1]));
        assert_eq!(cost.cycles, 15);
        assert_eq!(cost.latency(), 12);

        // All strobes at the same position: latency equals occupancy.
        s.reset();
        let uniform = s.transfer(&Block::from_bytes(&[0xFF]));
        assert_eq!(uniform.cycles, 15);
        assert_eq!(uniform.latency(), 15);

        // All chunks skipped: the 1-cycle round is both window and
        // latency.
        s.reset();
        let skipped = s.transfer(&Block::from_bytes(&[0x00]));
        assert_eq!(skipped.cycles, 1);
        assert_eq!(skipped.latency(), 1);
    }

    /// Paper Fig. 5: two 3-bit chunks (2 then 1) on one wire take
    /// 3 + 2 = 5 cycles.
    #[test]
    fn fig5_example() {
        let mut s =
            DescScheme::new(1, ChunkSize::new(3).unwrap(), SkipMode::None).without_sync_strobe();
        // Values 2 and 1 LSB-first: bits 010 100 → byte 0b00_001_010 = 0x0A.
        let block = Block::from_bytes(&[0b0000_1010]);
        let chunks = Chunks::split(&block, ChunkSize::new(3).unwrap());
        assert_eq!(&chunks.values()[..2], &[2, 1]);
        let cost = s.transfer(&block);
        // 3 chunks total in one byte (last padded 0, +1 cycle).
        assert_eq!(cost.cycles, 3 + 2 + 1);
        assert_eq!(cost.data_transitions, 3);
    }

    /// Paper Fig. 10: chunks (0, 0, 5, 0) on four wires; basic costs
    /// five bit-flips in a 6-cycle window, zero-skipped three bit-flips
    /// in a 5-cycle window.
    #[test]
    fn fig10_basic_vs_zero_skipped() {
        // Build a block holding nibbles 0,0,5,0.
        let mut block = Block::zeroed(2);
        block.set_bits(8, 4, 5);

        let mut basic = DescScheme::new(4, c4(), SkipMode::None).without_sync_strobe();
        let b = basic.transfer(&block);
        assert_eq!(b.total_transitions(), 5);
        assert_eq!(b.cycles, 6);

        let mut zs = DescScheme::new(4, c4(), SkipMode::Zero).without_sync_strobe();
        let z = zs.transfer(&block);
        assert_eq!(z.total_transitions(), 3);
        assert_eq!(z.cycles, 5);
        assert_eq!(zs.last_stats().skipped_chunks, 3);
    }

    #[test]
    fn basic_desc_transitions_independent_of_data() {
        // The headline property: any two blocks cost identical
        // transitions under basic DESC.
        let mut s = DescScheme::new(128, c4(), SkipMode::None);
        let a = s.transfer(&Block::from_bytes(&[0xFF; 64]));
        let b = s.transfer(&Block::from_bytes(&[0x00; 64]));
        let c = s.transfer(&Block::from_bytes(&[0x5A; 64]));
        assert_eq!(a.data_transitions, 128);
        assert_eq!(a.data_transitions, b.data_transitions);
        assert_eq!(b.data_transitions, c.data_transitions);
        assert_eq!(a.control_transitions, 1);
    }

    #[test]
    fn null_block_nearly_free_with_zero_skipping() {
        let mut s = DescScheme::new(128, c4(), SkipMode::Zero).without_sync_strobe();
        let cost = s.transfer(&Block::zeroed(64));
        assert_eq!(cost.data_transitions, 0);
        assert_eq!(cost.control_transitions, 2); // open + close
        assert_eq!(cost.cycles, 1);
    }

    #[test]
    fn last_value_skipping_makes_repeats_free() {
        let mut s = DescScheme::new(128, c4(), SkipMode::LastValue).without_sync_strobe();
        let block = Block::from_bytes(&[0xC3; 64]);
        let first = s.transfer(&block);
        assert!(first.data_transitions > 0);
        let second = s.transfer(&block);
        assert_eq!(second.data_transitions, 0);
        assert_eq!(s.last_stats().skipped_chunks, 128);
    }

    #[test]
    fn multi_round_transfer_uses_windows_per_round() {
        // 128 chunks over 64 wires → 2 rounds.
        let mut s = DescScheme::new(64, c4(), SkipMode::Zero).without_sync_strobe();
        let cost = s.transfer(&Block::from_bytes(&[0xFF; 64]));
        assert_eq!(s.last_stats().rounds, 2);
        // All chunks are 0xF: strobes at position 15 in both rounds.
        assert_eq!(cost.cycles, 30);
        assert_eq!(cost.data_transitions, 128);
        assert_eq!(cost.control_transitions, 2); // one open per round, no skips
    }

    #[test]
    fn skip_value_excluded_from_count_list() {
        // Last-value skip with last=7: value 3 strobes at 4, value 9 at 9.
        assert_eq!(DescScheme::position(3, Some(7)), 4);
        assert_eq!(DescScheme::position(9, Some(7)), 9);
        assert_eq!(DescScheme::position(15, Some(0)), 15);
        assert_eq!(DescScheme::position(15, None), 16);
    }

    #[test]
    fn sync_strobe_toggles_once_per_cycle() {
        let mut s = DescScheme::new(128, c4(), SkipMode::Zero);
        let cost = s.transfer(&Block::from_bytes(&[0x11; 64]));
        assert_eq!(cost.sync_transitions, cost.cycles);
    }

    #[test]
    fn zero_skipped_window_shrinks_versus_basic() {
        // Max chunk value 15 with zero skip strobes at 15 (not 16).
        let block = Block::from_bytes(&[0xFF; 64]);
        let mut zs = DescScheme::new(128, c4(), SkipMode::Zero).without_sync_strobe();
        let mut basic = DescScheme::new(128, c4(), SkipMode::None).without_sync_strobe();
        assert_eq!(zs.transfer(&block).cycles, 15);
        assert_eq!(basic.transfer(&block).cycles, 16);
    }

    #[test]
    fn paper_configuration_wire_budget() {
        let s = DescScheme::new(128, c4(), SkipMode::Zero);
        let w = s.wires();
        assert_eq!(w.data_wires, 128);
        assert_eq!(w.control_wires, 1);
        assert_eq!(w.sync_wires, 1);
        assert_eq!(w.total(), 130);
    }

    #[test]
    fn reset_clears_last_values_and_wires() {
        let mut s = DescScheme::new(8, c4(), SkipMode::LastValue).without_sync_strobe();
        let block = Block::from_bytes(&[0xAB, 0xCD, 0xEF, 0x12]);
        let first = s.transfer(&block);
        s.transfer(&block);
        s.reset();
        assert_eq!(s.transfer(&block), first);
    }

    #[test]
    fn one_bit_chunks_degenerate_correctly() {
        // 1-bit chunks with zero skipping: only set bits strobe, at
        // position 1; every round lasts exactly 1 cycle.
        let mut s =
            DescScheme::new(8, ChunkSize::new(1).unwrap(), SkipMode::Zero).without_sync_strobe();
        let cost = s.transfer(&Block::from_bytes(&[0b0101_0011]));
        assert_eq!(cost.data_transitions, 4);
        assert_eq!(cost.cycles, 1);
    }

    #[test]
    fn eight_bit_chunks_have_long_windows() {
        let mut s =
            DescScheme::new(64, ChunkSize::new(8).unwrap(), SkipMode::Zero).without_sync_strobe();
        let cost = s.transfer(&Block::from_bytes(&[0xFF; 64]));
        // 64 chunks of value 255 on 64 wires: one round, window 255.
        assert_eq!(cost.cycles, 255);
        assert_eq!(cost.data_transitions, 64);
    }
}
