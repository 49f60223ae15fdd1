//! Cycle-stepped DESC transmitter / receiver pair (paper §3.1–3.2).
//!
//! Unlike the analytic cost model in [`crate::schemes::DescScheme`],
//! this module *runs the protocol*: the transmitter side of a [`Link`]
//! toggles wires cycle by cycle, the wires delay the signal by a
//! configurable number of cycles, and the receiver side reconstructs
//! the chunk values purely from the toggles it observes and its own
//! synchronized counter. It
//! exists to (a) prove the encoding round-trips, (b) cross-check the
//! analytic transition/latency model, and (c) print Fig.-5-style signal
//! traces.
//!
//! Because the cache H-tree has equalized transmission delay (paper
//! §3.2.2), a constant wire latency shifts transmit and receive
//! timestamps equally and cancels out of every delay difference — the
//! receiver recovers the same values for any latency, which the tests
//! verify.
//!
//! ## Hot-path design
//!
//! `Link::transfer` is the innermost loop of every throughput
//! measurement, so it is built to do no heap allocation in steady
//! state beyond the decoded [`Block`] it returns:
//!
//! * Waveform capture is **opt-in** via [`TraceCapture`] on
//!   [`LinkConfig`]. With [`TraceCapture::Off`] (the default) no trace
//!   is materialised at all; costs and decoding are unaffected.
//! * When capture is on, [`SignalTrace`] packs each lane into `u64`
//!   words (one bit per cycle) instead of one `bool` per cycle, and
//!   captures **every** data lane.
//! * Event, decode, and last-value buffers live on the [`Link`] and
//!   are reused across transfers.
//! * Chained basic-DESC decoding keeps a per-wire running prefix, so
//!   decoding a block is O(chunks) rather than O(rounds²) per wire.

use crate::block::Block;
use crate::chunk::{ChunkSize, WireAssignment};
use crate::cost::TransferCost;
use crate::schemes::SkipMode;
use std::fmt;

/// Whether a [`Link`] records per-cycle waveforms during transfers.
///
/// Figures that only need transition/cycle counts (which is all of
/// them except the Fig.-5-style waveform plots) should leave this
/// `Off` and pay zero trace cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceCapture {
    /// No waveform is recorded; [`LinkTransfer::trace`] is `None`.
    #[default]
    Off,
    /// Record every lane, bit-packed into `u64` words per cycle.
    Packed,
}

/// Signal levels on the DESC link during one block transfer —
/// directly printable as a Fig.-5-style waveform.
///
/// Levels are stored bit-packed: one `u64` word holds 64 cycles of one
/// lane. All `config.wires` data lanes are captured (earlier versions
/// silently truncated capture to the first 16 lanes).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SignalTrace {
    cycles: usize,
    data_lanes: usize,
    words_per_lane: usize,
    /// Lane-major bitmaps; lane 0 is the reset/skip strobe, lane
    /// `w + 1` is data wire `w`. Bit `c % 64` of word `c / 64` is the
    /// level at cycle `c`.
    bits: Vec<u64>,
}

impl SignalTrace {
    /// An all-low trace of `cycles` cycles over `data_lanes` data
    /// wires (plus the reset/skip lane).
    fn empty(data_lanes: usize, cycles: usize) -> Self {
        let words_per_lane = cycles.div_ceil(64).max(1);
        Self {
            cycles,
            data_lanes,
            words_per_lane,
            bits: vec![0; (data_lanes + 1) * words_per_lane],
        }
    }

    /// Drives one lane high for cycles `start..end`.
    fn set_high(&mut self, lane: usize, start: u64, end: u64) {
        let base = lane * self.words_per_lane;
        let (mut c, end) = (start as usize, (end as usize).min(self.cycles));
        while c < end {
            let word = c / 64;
            let lo = c % 64;
            let hi = 64.min(lo + (end - c));
            let mask = if hi - lo == 64 { u64::MAX } else { ((1u64 << (hi - lo)) - 1) << lo };
            self.bits[base + word] |= mask;
            c += hi - lo;
        }
    }

    /// Number of traced cycles.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Number of captured data lanes (always the link's full wire
    /// count).
    #[must_use]
    pub fn data_lanes(&self) -> usize {
        self.data_lanes
    }

    /// Level of the reset/skip strobe at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is out of range.
    #[must_use]
    pub fn reset_skip_level(&self, cycle: usize) -> bool {
        self.level(0, cycle)
    }

    /// Level of data wire `wire` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` or `cycle` is out of range.
    #[must_use]
    pub fn data_level(&self, wire: usize, cycle: usize) -> bool {
        assert!(wire < self.data_lanes, "data lane {wire} out of range");
        self.level(wire + 1, cycle)
    }

    fn level(&self, lane: usize, cycle: usize) -> bool {
        assert!(cycle < self.cycles, "cycle {cycle} out of range");
        let word = self.bits[lane * self.words_per_lane + cycle / 64];
        (word >> (cycle % 64)) & 1 == 1
    }

    /// Counts level changes across all traced wires (including each
    /// wire's initial transition from its pre-trace level, which the
    /// caller supplies via `initial`).
    #[must_use]
    pub fn transitions(&self, initial_reset: bool, initial_data: &[bool]) -> u64 {
        let mut n = self.lane_edges(0, initial_reset);
        for w in 0..self.data_lanes {
            n += self.lane_edges(w + 1, initial_data.get(w).copied().unwrap_or(false));
        }
        n
    }

    /// Word-at-a-time edge count for one lane: an edge at cycle `c` is
    /// `level[c] != level[c - 1]`, with `level[-1] = initial`.
    fn lane_edges(&self, lane: usize, initial: bool) -> u64 {
        let base = lane * self.words_per_lane;
        let mut carry = u64::from(initial);
        let mut remaining = self.cycles;
        let mut n = 0u64;
        for &word in &self.bits[base..base + self.words_per_lane] {
            if remaining == 0 {
                break;
            }
            let valid = remaining.min(64);
            let mask = if valid == 64 { u64::MAX } else { (1u64 << valid) - 1 };
            let prev = (word << 1) | carry;
            n += u64::from(((word ^ prev) & mask).count_ones());
            carry = word >> 63;
            remaining -= valid;
        }
        n
    }
}

impl fmt::Display for SignalTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lane = |name: &str, l: usize, f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "{name:>12} ")?;
            for c in 0..self.cycles {
                write!(f, "{}", if self.level(l, c) { '▔' } else { '▁' })?;
            }
            writeln!(f)
        };
        lane("reset/skip", 0, f)?;
        for w in 0..self.data_lanes {
            lane(&format!("data[{w}]"), w + 1, f)?;
        }
        Ok(())
    }
}

/// Configuration shared by a transmitter/receiver pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkConfig {
    /// Number of data wires.
    pub wires: usize,
    /// Chunk width.
    pub chunk_size: ChunkSize,
    /// Value-skipping policy.
    pub mode: SkipMode,
    /// Wire propagation latency in cycles (equalized across the
    /// H-tree; must be the same for every wire).
    pub wire_delay: u64,
    /// Whether transfers record a waveform (default: off — the hot
    /// path pays nothing for tracing).
    pub trace: TraceCapture,
}

impl LinkConfig {
    /// The paper's L2 interface: 128 wires, 4-bit chunks, zero
    /// skipping, a representative 2-cycle H-tree latency, and no
    /// waveform capture.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            wires: 128,
            chunk_size: ChunkSize::PAPER_DEFAULT,
            mode: SkipMode::Zero,
            wire_delay: 2,
            trace: TraceCapture::Off,
        }
    }
}

/// One toggle event in flight on a wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Strobe {
    ResetSkip,
    Data(usize),
}

/// A DESC link: transmitter, delayed wires, and receiver, stepped one
/// cycle at a time.
///
/// # Examples
///
/// ```
/// use desc_core::protocol::{Link, LinkConfig, TraceCapture};
/// use desc_core::{Block, ChunkSize, schemes::SkipMode};
///
/// let cfg = LinkConfig {
///     wires: 16,
///     chunk_size: ChunkSize::new(4).unwrap(),
///     mode: SkipMode::Zero,
///     wire_delay: 3,
///     trace: TraceCapture::Off,
/// };
/// let mut link = Link::new(cfg);
/// let block = Block::from_bytes(&[0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0]);
/// let out = link.transfer(&block);
/// assert_eq!(out.decoded, block);
/// assert!(out.trace.is_none()); // capture is off
/// ```
#[derive(Clone, Debug)]
pub struct Link {
    config: LinkConfig,
    /// Transmitter-side last values per wire, for
    /// `SkipMode::LastValue` (shared knowledge: both endpoints track
    /// it from the values exchanged).
    tx_last: Vec<u16>,
    /// Receiver-side last values. Identical to `tx_last` between
    /// transfers; kept separately so a transfer needs no clones.
    rx_last: Vec<u16>,
    // ---- Reusable scratch, so steady-state transfers do not
    // allocate. ----
    /// Chunk values of the block currently being transferred.
    chunk_values: Vec<u16>,
    /// Scheduled toggle events `(cycle, strobe)` in transmitter time.
    events: Vec<(u64, Strobe)>,
    /// Per-chunk decoded values.
    received: Vec<Option<u16>>,
    /// `SkipMode::None` decoding: accumulated `value + 1` prefix per
    /// wire.
    wire_prefix: Vec<u64>,
    /// `SkipMode::None` decoding: chunks already decoded per wire.
    wire_round: Vec<u32>,
}

/// Result of transferring one block across a [`Link`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LinkTransfer {
    /// The block the receiver reconstructed.
    pub decoded: Block,
    /// Waveform as seen at the transmitter side; `None` unless the
    /// link was configured with [`TraceCapture::Packed`].
    pub trace: Option<SignalTrace>,
    /// Exact cost measured from the emitted toggles.
    pub cost: TransferCost,
}

impl Link {
    /// Creates a link in the power-on state.
    ///
    /// # Panics
    ///
    /// Panics if `config.wires` is zero.
    #[must_use]
    pub fn new(config: LinkConfig) -> Self {
        assert!(config.wires > 0, "a link needs at least one data wire");
        Self {
            config,
            tx_last: vec![0; config.wires],
            rx_last: vec![0; config.wires],
            chunk_values: Vec::new(),
            events: Vec::new(),
            received: Vec::new(),
            wire_prefix: vec![0; config.wires],
            wire_round: vec![0; config.wires],
        }
    }

    /// The link configuration.
    #[must_use]
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Strobe position of `v` within a window (1-based), with the skip
    /// value excluded from the count list.
    fn position(v: u16, skip: Option<u16>) -> u64 {
        match skip {
            None => u64::from(v) + 1,
            Some(s) if v < s => u64::from(v) + 1,
            Some(_) => u64::from(v),
        }
    }

    /// Inverse of [`Link::position`]: the value encoded by a strobe at
    /// window position `p`.
    fn value_at(p: u64, skip: Option<u16>) -> u16 {
        match skip {
            None => (p - 1) as u16,
            Some(s) if p <= u64::from(s) => (p - 1) as u16,
            Some(_) => p as u16,
        }
    }

    /// Transfers `block`, running transmitter and receiver cycle by
    /// cycle, and checks nothing but wire toggles crosses the link.
    ///
    /// # Panics
    ///
    /// Panics if the protocol deadlocks (internal bug — bounded by a
    /// watchdog) .
    #[allow(clippy::needless_range_loop)] // wire indices are semantic
    pub fn transfer(&mut self, block: &Block) -> LinkTransfer {
        let width = self.config.chunk_size.bits() as usize;
        let n_chunks = self.config.chunk_size.chunks_for_bits(block.bit_len());
        let wires = self.config.wires;
        // Split into chunks in one streaming pass over the bytes,
        // reusing the scratch buffer (moved out locally to keep the
        // borrow checker happy while `self.events` is pushed to below).
        let mut chunk_values = std::mem::take(&mut self.chunk_values);
        chunk_values.clear();
        chunk_values.reserve(n_chunks);
        {
            let mask = (1u32 << width) - 1;
            let mut acc = 0u32;
            let mut acc_bits = 0usize;
            for &b in block.as_bytes() {
                acc |= u32::from(b) << acc_bits;
                acc_bits += 8;
                while acc_bits >= width {
                    chunk_values.push((acc & mask) as u16);
                    acc >>= width;
                    acc_bits -= width;
                }
            }
            if acc_bits > 0 {
                // Ragged final chunk, zero-padded.
                chunk_values.push((acc & mask) as u16);
            }
            debug_assert_eq!(chunk_values.len(), n_chunks);
        }
        let assignment = WireAssignment::new(n_chunks, wires);
        let rounds = assignment.rounds();

        // ---- Transmitter: schedule toggles per the protocol. --------
        // Events are (cycle, strobe). Cycle numbering starts at 0 for
        // the first reset toggle.
        self.events.clear();
        let mut now = 0u64;
        let mut max_t = 0u64;
        let mut data_transitions = 0u64;
        let mut control_transitions = 0u64;
        match self.config.mode {
            SkipMode::None => {
                self.events.push((now, Strobe::ResetSkip));
                control_transitions += 1;
                // Per-wire chained chunks; each wire advances on its
                // own schedule starting the cycle after reset.
                for w in 0..wires {
                    let mut t = now;
                    let mut i = w;
                    while i < n_chunks {
                        let v = chunk_values[i];
                        t += Self::position(v, None);
                        self.events.push((t, Strobe::Data(w)));
                        data_transitions += 1;
                        self.tx_last[w] = v;
                        i += wires;
                    }
                    max_t = max_t.max(t);
                }
            }
            SkipMode::Zero | SkipMode::LastValue => {
                // The first round opens with a reset toggle; every later
                // round is opened by the single boundary toggle that
                // ended the previous round (a skip toggle doubles as the
                // next round's counter reset — see DESIGN.md §5).
                self.events.push((now, Strobe::ResetSkip));
                control_transitions += 1;
                let last_value_mode = self.config.mode == SkipMode::LastValue;
                for r in 0..rounds {
                    let base = r * wires;
                    let end = (base + wires).min(n_chunks);
                    let mut max_pos = 0u64;
                    let mut any_skipped = false;
                    for i in base..end {
                        let w = i - base;
                        let v = chunk_values[i];
                        let skip = if last_value_mode { self.tx_last[w] } else { 0 };
                        if v == skip {
                            any_skipped = true;
                        } else {
                            let p = Self::position(v, Some(skip));
                            self.events.push((now + p, Strobe::Data(w)));
                            data_transitions += 1;
                            max_pos = max_pos.max(p);
                        }
                        self.tx_last[w] = v;
                    }
                    let window = max_pos.max(1);
                    now += window;
                    // Boundary toggle: needed after every non-final
                    // round, and after the final round only to fill
                    // skipped chunks.
                    if r + 1 < rounds || any_skipped {
                        self.events.push((now, Strobe::ResetSkip));
                        control_transitions += 1;
                    }
                }
                max_t = self.events.last().map_or(0, |&(t, _)| t).max(now);
            }
        }
        // The receiver consumes events in emission order, which is
        // equivalent to time order for this protocol: per lane the
        // toggle times are strictly increasing, rounds are emitted in
        // order, and each round's data strobes precede the boundary
        // toggle that closes it (a data strobe may share its cycle with
        // that boundary toggle — emission order keeps it first, which
        // is the order the receiver's counter logic requires). No sort
        // is needed; the reference decoder in the tests, which *does*
        // sort by time, pins this equivalence down.

        // ---- Receiver: reconstruct values from observed toggles. ----
        // The equalized wire delay shifts every timestamp by the same
        // constant, which cancels out of all delay differences; the
        // receiver therefore decodes in transmitter time directly.
        self.received.clear();
        self.received.resize(n_chunks, None);
        let chunks_in_round = |r: usize| -> usize {
            if r >= rounds {
                0
            } else {
                (n_chunks - r * wires).min(wires)
            }
        };
        match self.config.mode {
            SkipMode::None => {
                // Chained decoding: value = delay since the previous
                // toggle on this wire (or reset) − 1. A per-wire
                // running prefix of decoded `value + 1` spans makes
                // each strobe O(1).
                self.wire_prefix.fill(0);
                self.wire_round.fill(0);
                let mut window_start: Option<u64> = None;
                for &(t, strobe) in &self.events {
                    match strobe {
                        Strobe::ResetSkip => window_start = Some(t),
                        Strobe::Data(w) => {
                            let i = self.wire_round[w] as usize * wires + w;
                            assert!(i < n_chunks, "data strobe with no pending chunk");
                            let start =
                                window_start.expect("reset precedes data") + self.wire_prefix[w];
                            let v = Self::value_at(t - start, None);
                            self.received[i] = Some(v);
                            self.rx_last[w] = v;
                            self.wire_prefix[w] += u64::from(v) + 1;
                            self.wire_round[w] += 1;
                        }
                    }
                }
            }
            SkipMode::Zero | SkipMode::LastValue => {
                let mut round = 0usize;
                let mut pending = chunks_in_round(0);
                let mut window_start: Option<u64> = None;
                for &(t, strobe) in &self.events {
                    match strobe {
                        Strobe::ResetSkip => {
                            if window_start.is_some() && pending > 0 {
                                // Skip command: fill every pending chunk
                                // of the current round with its skip
                                // value.
                                let base = round * wires;
                                let end = (base + wires).min(n_chunks);
                                for i in base..end {
                                    if self.received[i].is_none() {
                                        let w = i - base;
                                        let skip = match self.config.mode {
                                            SkipMode::Zero => 0,
                                            SkipMode::LastValue => self.rx_last[w],
                                            SkipMode::None => unreachable!(
                                                "basic DESC never sends a skip command"
                                            ),
                                        };
                                        self.received[i] = Some(skip);
                                        self.rx_last[w] = skip;
                                    }
                                }
                                round += 1;
                                pending = chunks_in_round(round);
                            }
                            // Every reset/skip toggle also resets the
                            // counter, opening the next window
                            // (dual-purpose toggle).
                            window_start = Some(t);
                        }
                        Strobe::Data(w) => {
                            let i = round * wires + w;
                            assert!(i < n_chunks, "data strobe outside any round");
                            assert!(self.received[i].is_none(), "duplicate strobe on wire {w}");
                            let skip = match self.config.mode {
                                SkipMode::Zero => 0,
                                SkipMode::LastValue => self.rx_last[w],
                                SkipMode::None => unreachable!(),
                            };
                            let p = t - window_start.expect("reset precedes data");
                            let v = Self::value_at(p, Some(skip));
                            self.received[i] = Some(v);
                            self.rx_last[w] = v;
                            pending -= 1;
                            if pending == 0 {
                                // Round completed purely by strobes.
                                round += 1;
                                pending = chunks_in_round(round);
                                window_start = None;
                            }
                        }
                    }
                }
            }
        }
        // Reassemble directly from the decoded chunk values in one
        // streaming pass (for skipped modes a trailing skip toggle was
        // emitted above, so everything must be decoded).
        let byte_len = block.byte_len();
        let mut decoded_bytes = Vec::with_capacity(byte_len + 2);
        let mut acc = 0u32;
        let mut acc_bits = 0usize;
        for v in &self.received {
            let v = v.expect("protocol left a chunk undecoded");
            debug_assert!(v <= self.config.chunk_size.max_value());
            acc |= u32::from(v) << acc_bits;
            acc_bits += width;
            while acc_bits >= 8 {
                decoded_bytes.push(acc as u8);
                acc >>= 8;
                acc_bits -= 8;
            }
        }
        if acc_bits > 0 {
            decoded_bytes.push(acc as u8);
        }
        // Ragged chunk widths can spill a padding byte past the block.
        decoded_bytes.truncate(byte_len);
        debug_assert_eq!(decoded_bytes.len(), byte_len);
        let decoded = Block::from_vec(decoded_bytes);

        // ---- Cost + optional trace (counted during emission). -------
        // Transfer latency: accumulated window lengths for skipped
        // modes, or the time of the last strobe for basic chaining
        // (events are in transmitter time, so no delay correction).
        let cycles = match self.config.mode {
            SkipMode::None => max_t.max(1),
            SkipMode::Zero | SkipMode::LastValue => now.max(1),
        };
        let cost = TransferCost {
            data_transitions,
            control_transitions,
            sync_transitions: 0,
            latency_cycles: 0,
            cycles,
        };

        let trace = match self.config.trace {
            TraceCapture::Off => None,
            TraceCapture::Packed => Some(self.capture_trace(max_t + 1)),
        };

        // Telemetry: one relaxed load when off; all updates are
        // order-independent adds, so totals are identical for any
        // worker count.
        if desc_telemetry::enabled() {
            desc_telemetry::counter!("core.link.transfers").incr();
            desc_telemetry::counter!("core.link.data_transitions").add(data_transitions);
            desc_telemetry::counter!("core.link.control_transitions").add(control_transitions);
            desc_telemetry::counter!("core.link.cycles").add(cycles);
            desc_telemetry::counter!("core.link.rounds").add(rounds as u64);
            desc_telemetry::counter!("core.link.chunks").add(n_chunks as u64);
            match self.config.mode {
                SkipMode::None => {
                    desc_telemetry::counter!("core.link.mode.none.transfers").incr();
                }
                SkipMode::Zero => {
                    desc_telemetry::counter!("core.link.mode.zero.transfers").incr();
                    desc_telemetry::counter!("core.link.skipped_chunks")
                        .add(n_chunks as u64 - data_transitions);
                }
                SkipMode::LastValue => {
                    desc_telemetry::counter!("core.link.mode.last_value.transfers").incr();
                    desc_telemetry::counter!("core.link.skipped_chunks")
                        .add(n_chunks as u64 - data_transitions);
                }
            }
        }

        self.chunk_values = chunk_values;
        LinkTransfer { decoded, trace, cost }
    }

    /// Builds the packed waveform from the (sorted) event list: each
    /// lane is high between its odd- and even-numbered toggles.
    fn capture_trace(&self, total_cycles: u64) -> SignalTrace {
        let mut trace = SignalTrace::empty(self.config.wires, total_cycles as usize);
        let lanes = self.config.wires + 1;
        let mut last_toggle = vec![0u64; lanes];
        let mut level = vec![false; lanes];
        for &(t, s) in &self.events {
            let lane = match s {
                Strobe::ResetSkip => 0,
                Strobe::Data(w) => w + 1,
            };
            if level[lane] {
                trace.set_high(lane, last_toggle[lane], t);
            }
            level[lane] = !level[lane];
            last_toggle[lane] = t;
        }
        for (lane, &high) in level.iter().enumerate() {
            if high {
                trace.set_high(lane, last_toggle[lane], total_cycles);
            }
        }
        trace
    }
}

/// Replays a captured packed waveform through the
/// [`crate::circuits::ToggleDetector`] behavioural model and re-decodes
/// the chunk stream, closing the capture loop: the trace alone (plus
/// the link configuration and each wire's pre-transfer last value,
/// which both endpoints track) carries the full transfer.
///
/// `initial_last` is the per-wire last-value state *before* the traced
/// transfer (all zeros for a fresh link; only consulted in
/// [`SkipMode::LastValue`]). Pass an empty slice for a power-on link.
///
/// # Panics
///
/// Panics if the trace's lane count disagrees with `config.wires`, if
/// `initial_last` is neither empty nor `config.wires` long, or if the
/// waveform is not a well-formed transfer of `n_chunks` chunks.
#[must_use]
pub fn replay_trace(
    trace: &SignalTrace,
    config: &LinkConfig,
    n_chunks: usize,
    initial_last: &[u16],
) -> Vec<u16> {
    use crate::circuits::ToggleDetector;
    let wires = config.wires;
    assert_eq!(trace.data_lanes(), wires, "trace lane count disagrees with config.wires");
    assert!(
        initial_last.is_empty() || initial_last.len() == wires,
        "initial_last must be empty or one entry per wire"
    );
    let mut last: Vec<u16> =
        if initial_last.is_empty() { vec![0; wires] } else { initial_last.to_vec() };

    // ---- Edge recovery: one toggle detector per lane, stepped cycle
    // by cycle over the captured levels (paper Fig. 8-b). Within a
    // cycle, data pulses come before a reset/skip pulse: a data strobe
    // may share its cycle with the boundary toggle that closes its
    // round and must be decoded under the window that toggle closes —
    // the same ordering `Link::transfer` emits.
    let mut reset_detector = ToggleDetector::new();
    let mut data_detectors = vec![ToggleDetector::new(); wires];
    let mut events: Vec<(u64, Strobe)> = Vec::new();
    for c in 0..trace.cycles() {
        for (w, detector) in data_detectors.iter_mut().enumerate() {
            if detector.step(trace.data_level(w, c)) {
                events.push((c as u64, Strobe::Data(w)));
            }
        }
        if reset_detector.step(trace.reset_skip_level(c)) {
            events.push((c as u64, Strobe::ResetSkip));
        }
    }

    // ---- Decode: the same window logic as the receiver half of
    // `Link::transfer`, driven by the recovered pulses.
    let mut received: Vec<Option<u16>> = vec![None; n_chunks];
    match config.mode {
        SkipMode::None => {
            let mut wire_prefix = vec![0u64; wires];
            let mut wire_round = vec![0usize; wires];
            let mut window_start: Option<u64> = None;
            for &(t, strobe) in &events {
                match strobe {
                    Strobe::ResetSkip => window_start = Some(t),
                    Strobe::Data(w) => {
                        let i = wire_round[w] * wires + w;
                        assert!(i < n_chunks, "replayed strobe with no pending chunk");
                        let start = window_start.expect("reset precedes data") + wire_prefix[w];
                        let v = Link::value_at(t - start, None);
                        received[i] = Some(v);
                        wire_prefix[w] += u64::from(v) + 1;
                        wire_round[w] += 1;
                    }
                }
            }
        }
        SkipMode::Zero | SkipMode::LastValue => {
            let rounds = n_chunks.div_ceil(wires);
            let chunks_in_round = |r: usize| -> usize {
                if r >= rounds {
                    0
                } else {
                    (n_chunks - r * wires).min(wires)
                }
            };
            let mut round = 0usize;
            let mut pending = chunks_in_round(0);
            let mut window_start: Option<u64> = None;
            for &(t, strobe) in &events {
                match strobe {
                    Strobe::ResetSkip => {
                        if window_start.is_some() && pending > 0 {
                            let base = round * wires;
                            let end = (base + wires).min(n_chunks);
                            for (w, slot) in received[base..end].iter_mut().enumerate() {
                                if slot.is_none() {
                                    let skip = match config.mode {
                                        SkipMode::Zero => 0,
                                        SkipMode::LastValue => last[w],
                                        SkipMode::None => unreachable!(),
                                    };
                                    *slot = Some(skip);
                                    last[w] = skip;
                                }
                            }
                            round += 1;
                            pending = chunks_in_round(round);
                        }
                        window_start = Some(t);
                    }
                    Strobe::Data(w) => {
                        let i = round * wires + w;
                        assert!(i < n_chunks, "replayed strobe outside any round");
                        assert!(received[i].is_none(), "duplicate replayed strobe on wire {w}");
                        let skip = match config.mode {
                            SkipMode::Zero => 0,
                            SkipMode::LastValue => last[w],
                            SkipMode::None => unreachable!(),
                        };
                        let p = t - window_start.expect("reset precedes data");
                        let v = Link::value_at(p, Some(skip));
                        received[i] = Some(v);
                        last[w] = v;
                        pending -= 1;
                        if pending == 0 {
                            round += 1;
                            pending = chunks_in_round(round);
                            window_start = None;
                        }
                    }
                }
            }
        }
    }
    received.into_iter().map(|v| v.expect("replay left a chunk undecoded")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn cfg(wires: usize, bits: u8, mode: SkipMode, delay: u64) -> LinkConfig {
        LinkConfig {
            wires,
            chunk_size: ChunkSize::new(bits).expect("valid chunk size"),
            mode,
            wire_delay: delay,
            trace: TraceCapture::Packed,
        }
    }

    /// The pre-optimisation decoder, kept verbatim as an oracle: it
    /// re-derives each chained chunk's window start by summing every
    /// previously decoded chunk on the wire (O(rounds²) per wire) and
    /// allocates fresh buffers per transfer.
    mod reference {
        use super::*;
        use crate::chunk::Chunks;

        pub struct ReferenceLink {
            config: LinkConfig,
            last_values: Vec<u16>,
        }

        impl ReferenceLink {
            pub fn new(config: LinkConfig) -> Self {
                Self { config, last_values: vec![0; config.wires] }
            }

            // Kept structurally identical to the pre-optimisation
            // decoder on purpose; indexed loops mirror that code.
            #[allow(clippy::needless_range_loop)]
            pub fn transfer(&mut self, block: &Block) -> (Block, TransferCost) {
                let chunks = Chunks::split(block, self.config.chunk_size);
                let assignment = WireAssignment::new(chunks.len(), self.config.wires);
                let mut events: Vec<(u64, Strobe)> = Vec::new();
                let mut tx_last = self.last_values.clone();
                let mut now = 0u64;
                match self.config.mode {
                    SkipMode::None => {
                        events.push((now, Strobe::ResetSkip));
                        for w in 0..self.config.wires {
                            let mut t = now;
                            for r in 0..assignment.rounds() {
                                if let Some(i) = assignment.chunk_at(w, r) {
                                    let v = chunks.values()[i];
                                    t += Link::position(v, None);
                                    events.push((t, Strobe::Data(w)));
                                    tx_last[w] = v;
                                }
                            }
                        }
                    }
                    SkipMode::Zero | SkipMode::LastValue => {
                        events.push((now, Strobe::ResetSkip));
                        for r in 0..assignment.rounds() {
                            let mut max_pos = 0u64;
                            let mut any_skipped = false;
                            for w in 0..self.config.wires {
                                let Some(i) = assignment.chunk_at(w, r) else { continue };
                                let v = chunks.values()[i];
                                let skip = match self.config.mode {
                                    SkipMode::Zero => 0,
                                    SkipMode::LastValue => tx_last[w],
                                    SkipMode::None => unreachable!(),
                                };
                                if v == skip {
                                    any_skipped = true;
                                } else {
                                    let p = Link::position(v, Some(skip));
                                    events.push((now + p, Strobe::Data(w)));
                                    max_pos = max_pos.max(p);
                                }
                                tx_last[w] = v;
                            }
                            let window = max_pos.max(1);
                            now += window;
                            if r + 1 < assignment.rounds() || any_skipped {
                                events.push((now, Strobe::ResetSkip));
                            }
                        }
                    }
                }
                events.sort_by_key(|&(t, _)| t);

                let mut received: Vec<Option<u16>> = vec![None; chunks.len()];
                let mut rx_last = self.last_values.clone();
                let mut round = 0usize;
                let mut window_start: Option<u64> = None;
                let pending_in_round = |received: &[Option<u16>], round: usize| -> bool {
                    (0..self.config.wires).any(|w| {
                        assignment.chunk_at(w, round).is_some_and(|i| received[i].is_none())
                    })
                };
                for &(t, strobe) in &events {
                    match strobe {
                        Strobe::ResetSkip => {
                            if window_start.is_some() && pending_in_round(&received, round) {
                                for w in 0..self.config.wires {
                                    if let Some(i) = assignment.chunk_at(w, round) {
                                        if received[i].is_none() {
                                            let skip = match self.config.mode {
                                                SkipMode::Zero => 0,
                                                SkipMode::LastValue => rx_last[w],
                                                SkipMode::None => unreachable!(),
                                            };
                                            received[i] = Some(skip);
                                            rx_last[w] = skip;
                                        }
                                    }
                                }
                                round += 1;
                            }
                            window_start = Some(t);
                        }
                        Strobe::Data(w) => match self.config.mode {
                            SkipMode::None => {
                                let r = (0..assignment.rounds())
                                    .find(|&r| {
                                        assignment
                                            .chunk_at(w, r)
                                            .is_some_and(|i| received[i].is_none())
                                    })
                                    .expect("data strobe with no pending chunk");
                                let i = assignment.chunk_at(w, r).expect("checked above");
                                let prev_end: u64 = (0..r)
                                    .map(|rr| {
                                        let ii = assignment.chunk_at(w, rr).expect("earlier round");
                                        u64::from(received[ii].expect("decoded in order")) + 1
                                    })
                                    .sum();
                                let start = window_start.expect("reset precedes data") + prev_end;
                                received[i] = Some(Link::value_at(t - start, None));
                                rx_last[w] = received[i].expect("just set");
                            }
                            SkipMode::Zero | SkipMode::LastValue => {
                                let i = assignment
                                    .chunk_at(w, round)
                                    .expect("data strobe outside any round");
                                let skip = match self.config.mode {
                                    SkipMode::Zero => 0,
                                    SkipMode::LastValue => rx_last[w],
                                    SkipMode::None => unreachable!(),
                                };
                                let p = t - window_start.expect("reset precedes data");
                                received[i] = Some(Link::value_at(p, Some(skip)));
                                rx_last[w] = received[i].expect("just set");
                                if !pending_in_round(&received, round) {
                                    round += 1;
                                    window_start = None;
                                }
                            }
                        },
                    }
                }
                let values: Vec<u16> =
                    received.iter().map(|v| v.expect("protocol left a chunk undecoded")).collect();
                let decoded = Chunks::from_values(self.config.chunk_size, values)
                    .reassemble(block.byte_len());
                let data_transitions =
                    events.iter().filter(|(_, s)| matches!(s, Strobe::Data(_))).count() as u64;
                let control_transitions =
                    events.iter().filter(|(_, s)| matches!(s, Strobe::ResetSkip)).count() as u64;
                let cycles = match self.config.mode {
                    SkipMode::None => events.last().map_or(1, |&(t, _)| t).max(1),
                    SkipMode::Zero | SkipMode::LastValue => now.max(1),
                };
                self.last_values = tx_last;
                (
                    decoded,
                    TransferCost {
                        data_transitions,
                        control_transitions,
                        sync_transitions: 0,
                        latency_cycles: 0,
                        cycles,
                    },
                )
            }
        }
    }

    #[test]
    fn roundtrip_basic_single_wire_fig5() {
        let mut link = Link::new(cfg(1, 3, SkipMode::None, 0));
        let block = Block::from_bytes(&[0b0000_1010]); // chunks 2, 1, 0
        let out = link.transfer(&block);
        assert_eq!(out.decoded, block);
        assert_eq!(out.cost.data_transitions, 3);
        assert_eq!(out.cost.control_transitions, 1);
    }

    #[test]
    fn roundtrip_zero_skip_sparse_block() {
        let mut link = Link::new(cfg(16, 4, SkipMode::Zero, 2));
        let mut bytes = [0u8; 8];
        bytes[3] = 0x70;
        let block = Block::from_bytes(&bytes);
        let out = link.transfer(&block);
        assert_eq!(out.decoded, block);
        // 1 strobe + open + close.
        assert_eq!(out.cost.total_transitions(), 3);
    }

    #[test]
    fn roundtrip_last_value_repeat_blocks() {
        let mut link = Link::new(cfg(8, 4, SkipMode::LastValue, 1));
        let block = Block::from_bytes(&[0x12, 0x34, 0x56, 0x78]);
        let first = link.transfer(&block);
        assert_eq!(first.decoded, block);
        let second = link.transfer(&block);
        assert_eq!(second.decoded, block);
        assert_eq!(second.cost.data_transitions, 0, "repeat should be fully skipped");
    }

    #[test]
    fn wire_delay_cancels_out() {
        // Equalized H-tree delay (paper §3.2.2): decoding is invariant.
        let block = Block::from_bytes(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x00, 0xFF, 0x80]);
        for delay in [0, 1, 5, 19] {
            let mut link = Link::new(cfg(16, 4, SkipMode::Zero, delay));
            assert_eq!(link.transfer(&block).decoded, block, "delay {delay}");
        }
    }

    #[test]
    fn multi_round_roundtrip() {
        // 64 chunks over 16 wires → 4 rounds.
        let mut link = Link::new(cfg(16, 4, SkipMode::Zero, 0));
        let bytes: Vec<u8> = (0..32).map(|i| (i * 41) as u8).collect();
        let block = Block::from_bytes(&bytes);
        let out = link.transfer(&block);
        assert_eq!(out.decoded, block);
    }

    #[test]
    fn trace_renders_waveform() {
        let mut link = Link::new(cfg(2, 4, SkipMode::Zero, 0));
        let out = link.transfer(&Block::from_bytes(&[0x53]));
        let rendered = format!("{}", out.trace.expect("capture on"));
        assert!(rendered.contains("reset/skip"));
        assert!(rendered.contains("data[0]"));
        assert!(rendered.contains('▔'));
    }

    #[test]
    fn trace_transitions_match_cost() {
        let mut link = Link::new(cfg(4, 4, SkipMode::Zero, 0));
        let out = link.transfer(&Block::from_bytes(&[0x53, 0xA0]));
        let counted = out.trace.expect("capture on").transitions(false, &[false; 4]);
        assert_eq!(counted, out.cost.total_transitions());
    }

    #[test]
    fn trace_captures_every_lane() {
        // Earlier versions silently capped the trace at 16 data lanes
        // while toggling all of them; all lanes must be captured now.
        let mut link = Link::new(cfg(128, 4, SkipMode::None, 0));
        let block = Block::from_bytes(&[0xFF; 64]);
        let out = link.transfer(&block);
        let trace = out.trace.expect("capture on");
        assert_eq!(trace.data_lanes(), 128);
        // Basic DESC toggles every wire once per carried chunk: every
        // lane must show at least one high cycle.
        for w in 0..128 {
            let high = (0..trace.cycles()).any(|c| trace.data_level(w, c));
            assert!(high, "lane {w} was not captured");
        }
        // And the packed count agrees with the measured cost.
        assert_eq!(trace.transitions(false, &[false; 128]), out.cost.total_transitions());
    }

    #[test]
    fn capture_off_is_cost_identical_across_modes() {
        // Regression: the trace knob must not affect decoding or cost.
        let mut rng = Rng64::seed_from_u64(0xDE5C);
        for mode in [SkipMode::None, SkipMode::Zero, SkipMode::LastValue] {
            let mut with = Link::new(cfg(16, 4, mode, 2));
            let mut without =
                Link::new(LinkConfig { trace: TraceCapture::Off, ..cfg(16, 4, mode, 2) });
            for _ in 0..32 {
                let bytes: Vec<u8> =
                    (0..64).map(|_| if rng.gen_bool(0.4) { 0 } else { rng.gen::<u8>() }).collect();
                let block = Block::from_bytes(&bytes);
                let a = with.transfer(&block);
                let b = without.transfer(&block);
                assert!(a.trace.is_some() && b.trace.is_none());
                assert_eq!(a.decoded, b.decoded, "{mode:?}");
                assert_eq!(a.cost, b.cost, "{mode:?}");
                assert_eq!(a.decoded, block, "{mode:?}");
            }
        }
    }

    #[test]
    fn equivalent_to_reference_decoder_on_random_streams() {
        // The O(chunks) running-prefix decoder must match the old
        // O(rounds²) reference on randomized block streams, for every
        // mode, including ragged wire counts.
        let mut rng = Rng64::seed_from_u64(2013);
        for mode in [SkipMode::None, SkipMode::Zero, SkipMode::LastValue] {
            for wires in [1usize, 3, 16, 19, 128] {
                let c = cfg(wires, 4, mode, 1);
                let mut link = Link::new(c);
                let mut oracle = reference::ReferenceLink::new(c);
                for _ in 0..24 {
                    let bytes: Vec<u8> = (0..64)
                        .map(|_| if rng.gen_bool(0.35) { 0 } else { rng.gen::<u8>() })
                        .collect();
                    let block = Block::from_bytes(&bytes);
                    let ours = link.transfer(&block);
                    let (ref_decoded, ref_cost) = oracle.transfer(&block);
                    assert_eq!(ours.decoded, ref_decoded, "{mode:?} {wires} wires");
                    assert_eq!(ours.cost, ref_cost, "{mode:?} {wires} wires");
                }
            }
        }
    }

    #[test]
    fn steady_state_reuses_scratch_capacity() {
        // After the first transfer the scratch buffers are warm; later
        // transfers of same-shaped blocks must not need to regrow them.
        let mut link = Link::new(cfg(16, 4, SkipMode::Zero, 0));
        let block = Block::from_bytes(&(0..64).map(|i| i as u8).collect::<Vec<_>>());
        let _ = link.transfer(&block);
        let events_cap = link.events.capacity();
        let received_cap = link.received.capacity();
        for _ in 0..100 {
            let _ = link.transfer(&block);
        }
        assert_eq!(link.events.capacity(), events_cap);
        assert_eq!(link.received.capacity(), received_cap);
    }
}
