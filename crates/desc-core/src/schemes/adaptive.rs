//! Adaptive frequent-value skipping — the extension the paper
//! *considered* in §3.3: "We also considered adaptive techniques for
//! detecting and encoding frequent non-zero chunks at runtime;
//! however, the attainable delay and energy improvements are not
//! appreciable" (because non-zero chunk values are near-uniform,
//! Fig. 12). This module implements the mechanism so that claim can be
//! reproduced as an ablation.
//!
//! Each wire keeps a small frequency table of recently transferred
//! chunk values; the skip value is the current per-wire mode (most
//! frequent value). Transmitter and receiver update identical tables
//! from the values exchanged, so no side channel is needed — exactly
//! like last-value skipping, but with a deeper history.

use crate::block::Block;
use crate::chunk::{ChunkSize, Chunks, WireAssignment};
use crate::cost::{TransferCost, WireBudget};
use crate::scheme::TransferScheme;
use crate::wire::Wire;

/// Per-wire value-frequency tracker with periodic decay, shared by
/// transmitter and receiver.
#[derive(Clone, Debug)]
struct FrequencyTable {
    counts: Vec<u32>,
    updates: u32,
    decay_every: u32,
}

impl FrequencyTable {
    fn new(values: usize, decay_every: u32) -> Self {
        Self { counts: vec![0; values], updates: 0, decay_every }
    }

    fn record(&mut self, value: u16) {
        self.counts[value as usize] += 1;
        self.updates += 1;
        if self.updates >= self.decay_every {
            // Halve everything so the table adapts to phase changes.
            for c in &mut self.counts {
                *c /= 2;
            }
            self.updates = 0;
        }
    }

    /// The current most frequent value (ties break toward zero, the
    /// statically best choice).
    fn mode(&self) -> u16 {
        let mut best = 0usize;
        for (v, &c) in self.counts.iter().enumerate() {
            if c > self.counts[best] {
                best = v;
            }
        }
        best as u16
    }
}

/// DESC with per-wire adaptive skip values.
///
/// # Examples
///
/// ```
/// use desc_core::schemes::AdaptiveDescScheme;
/// use desc_core::{Block, ChunkSize, TransferScheme};
///
/// let mut s = AdaptiveDescScheme::new(128, ChunkSize::new(4).unwrap());
/// // After enough blocks whose chunks are all 0x7, the tables lock on
/// // and the strobes disappear.
/// let block = Block::from_bytes(&[0x77; 64]);
/// for _ in 0..4 { s.transfer(&block); }
/// assert_eq!(s.transfer(&block).data_transitions, 0);
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveDescScheme {
    chunk_size: ChunkSize,
    data: Vec<Wire>,
    reset_skip: Wire,
    sync: Wire,
    tables: Vec<FrequencyTable>,
    sync_enabled: bool,
}

impl AdaptiveDescScheme {
    /// Creates an adaptive interface over `wires` data wires with a
    /// 64-transfer decay period.
    ///
    /// # Panics
    ///
    /// Panics if `wires` is zero.
    #[must_use]
    pub fn new(wires: usize, chunk_size: ChunkSize) -> Self {
        assert!(wires > 0, "a DESC interface needs at least one data wire");
        Self {
            chunk_size,
            data: vec![Wire::new(); wires],
            reset_skip: Wire::new(),
            sync: Wire::new(),
            tables: (0..wires)
                .map(|_| FrequencyTable::new(chunk_size.value_count() as usize, 64))
                .collect(),
            sync_enabled: true,
        }
    }

    /// Disables the synchronization strobe.
    #[must_use]
    pub fn without_sync_strobe(mut self) -> Self {
        self.sync_enabled = false;
        self
    }

    /// Strobe position with `skip` excluded from the count list.
    fn position(v: u16, skip: u16) -> u64 {
        if v < skip {
            u64::from(v) + 1
        } else {
            u64::from(v)
        }
    }
}

impl TransferScheme for AdaptiveDescScheme {
    fn name(&self) -> &'static str {
        "Adaptive Skipped DESC"
    }

    fn wires(&self) -> WireBudget {
        WireBudget {
            data_wires: self.data.len(),
            control_wires: 1,
            sync_wires: usize::from(self.sync_enabled),
        }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let chunks = Chunks::split(block, self.chunk_size);
        let assignment = WireAssignment::new(chunks.len(), self.data.len());
        let mut cost = TransferCost::ZERO;
        let mut last_round_skipped = false;
        for r in 0..assignment.rounds() {
            self.reset_skip.toggle();
            cost.control_transitions += 1;
            let mut max_pos = 0u64;
            let mut pos_sum = 0u64;
            let mut strobed = 0u64;
            let mut any_skipped = false;
            for w in 0..self.data.len() {
                let Some(i) = assignment.chunk_at(w, r) else { continue };
                let v = chunks.values()[i];
                let skip = self.tables[w].mode();
                if v == skip {
                    any_skipped = true;
                } else {
                    self.data[w].toggle();
                    cost.data_transitions += 1;
                    strobed += 1;
                    let pos = Self::position(v, skip);
                    pos_sum += pos;
                    max_pos = max_pos.max(pos);
                }
                self.tables[w].record(v);
            }
            let window = max_pos.max(1);
            cost.cycles += window;
            // Same effective-window latency model as `DescScheme`
            // (midpoint of mean and max strobe position; see
            // `transfer_skipped` there for the rationale).
            cost.latency_cycles +=
                if strobed == 0 { 1 } else { (pos_sum.div_ceil(strobed) + window).div_ceil(2) };
            last_round_skipped = any_skipped;
        }
        if last_round_skipped {
            self.reset_skip.toggle();
            cost.control_transitions += 1;
        }
        if self.sync_enabled {
            for _ in 0..cost.cycles {
                self.sync.toggle();
            }
            cost.sync_transitions = cost.cycles;
        }
        cost
    }

    fn reset(&mut self) {
        let wires = self.data.len();
        self.data = vec![Wire::new(); wires];
        self.reset_skip = Wire::new();
        self.sync = Wire::new();
        self.tables = (0..wires)
            .map(|_| FrequencyTable::new(self.chunk_size.value_count() as usize, 64))
            .collect();
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{DescScheme, SkipMode};

    fn c4() -> ChunkSize {
        ChunkSize::new(4).expect("valid")
    }

    #[test]
    fn cold_tables_behave_like_zero_skipping() {
        // Mode of an empty table is 0, so the first transfer matches
        // zero-skipped DESC exactly.
        let block = Block::from_bytes(&[0x3C; 64]);
        let mut adaptive = AdaptiveDescScheme::new(128, c4()).without_sync_strobe();
        let mut zero = DescScheme::new(128, c4(), SkipMode::Zero).without_sync_strobe();
        assert_eq!(adaptive.transfer(&block), zero.transfer(&block));
    }

    #[test]
    fn tables_lock_onto_a_hot_value() {
        let hot = Block::from_bytes(&[0xBB; 64]);
        let mut s = AdaptiveDescScheme::new(128, c4()).without_sync_strobe();
        let first = s.transfer(&hot);
        assert_eq!(first.data_transitions, 128);
        for _ in 0..3 {
            s.transfer(&hot);
        }
        assert_eq!(s.transfer(&hot).data_transitions, 0);
    }

    #[test]
    fn decay_lets_tables_adapt_to_phase_changes() {
        let phase_a = Block::from_bytes(&[0x11; 64]);
        let phase_b = Block::from_bytes(&[0x99; 64]);
        let mut s = AdaptiveDescScheme::new(128, c4()).without_sync_strobe();
        for _ in 0..80 {
            s.transfer(&phase_a);
        }
        // Switch phases: after enough transfers + decay, B dominates.
        let mut last = u64::MAX;
        for _ in 0..200 {
            last = s.transfer(&phase_b).data_transitions;
        }
        assert_eq!(last, 0, "tables failed to re-adapt");
    }

    /// The paper's §3.3 finding: on realistic near-uniform non-zero
    /// values, adaptive skipping is *not appreciably* better than
    /// plain zero skipping.
    #[test]
    fn adaptive_gains_are_marginal_on_uniform_values() {
        use crate::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(3);
        let mut adaptive = AdaptiveDescScheme::new(128, c4()).without_sync_strobe();
        let mut zero = DescScheme::new(128, c4(), SkipMode::Zero).without_sync_strobe();
        let mut a_total = 0u64;
        let mut z_total = 0u64;
        for _ in 0..400 {
            // 30% zero chunks, uniform non-zero (Fig. 12's shape).
            let mut bytes = [0u8; 64];
            for nibble in 0..128 {
                let v: u8 = if rng.gen::<f64>() < 0.3 { 0 } else { rng.gen_range(1u8..16) };
                bytes[nibble / 2] |= v << ((nibble % 2) * 4);
            }
            let block = Block::from_bytes(&bytes);
            a_total += adaptive.transfer(&block).total_transitions();
            z_total += zero.transfer(&block).total_transitions();
        }
        let ratio = a_total as f64 / z_total as f64;
        assert!(
            (0.93..=1.07).contains(&ratio),
            "adaptive/zero ratio {ratio:.3} — the paper expects ≈1"
        );
    }

    #[test]
    fn reset_clears_adaptation() {
        let hot = Block::from_bytes(&[0x44; 64]);
        let mut s = AdaptiveDescScheme::new(64, c4()).without_sync_strobe();
        let first = s.transfer(&hot);
        for _ in 0..5 {
            s.transfer(&hot);
        }
        s.reset();
        assert_eq!(s.transfer(&hot), first);
    }
}
