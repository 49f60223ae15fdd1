//! Slab batching for the simulators' transfer hot path.
//!
//! Both simulators drive every L2 block movement through a real
//! [`TransferScheme`]; per-access `transfer` calls dominated their
//! profiles. Instead, value-stream blocks accumulate into a per-channel
//! [`BlockSlab`] and are encoded in bounded flushes through
//! [`TransferScheme::transfer_many`], whose kernels are bit-identical
//! to the scalar path (pinned by `desc-core`'s slab-equivalence suite).
//! The queued accesses are then replayed in program order against the
//! returned costs, so every downstream accumulation — cost summaries,
//! f64 energy sums, bank schedules, DRAM events — happens in exactly
//! the order the per-access code produced.

use desc_core::{Block, BlockSlab, TransferCost, TransferScheme};

/// Queued blocks per partition before a drain is forced. Bounds the
/// slab and cost buffers to a few tens of KiB per channel while still
/// amortizing dispatch and telemetry over hundreds of blocks.
pub(crate) const FLUSH_CAP: usize = 256;

/// One transfer channel's batch state: the slab of blocks awaiting
/// encode and the costs of the last drain, consumed in FIFO order.
pub(crate) struct ChannelBatch {
    slab: BlockSlab,
    costs: Vec<TransferCost>,
    cursor: usize,
}

impl ChannelBatch {
    pub(crate) fn new(block_bytes: usize) -> Self {
        Self {
            slab: BlockSlab::with_capacity(block_bytes, FLUSH_CAP),
            costs: Vec::with_capacity(FLUSH_CAP),
            cursor: 0,
        }
    }

    /// Queues one block (copied into the slab — the caller may reuse
    /// the source buffer immediately).
    pub(crate) fn push(&mut self, block: &Block) {
        self.slab.push(block);
    }

    /// Blocks queued since the last [`ChannelBatch::encode`].
    pub(crate) fn queued(&self) -> usize {
        self.slab.len()
    }

    /// Encodes the queued slab through `scheme`, refilling the cost
    /// queue.
    pub(crate) fn encode(&mut self, scheme: &mut dyn TransferScheme) {
        debug_assert_eq!(self.cursor, self.costs.len(), "unconsumed costs at encode");
        self.costs.clear();
        self.cursor = 0;
        scheme.transfer_many(&self.slab, &mut self.costs);
        self.slab.clear();
    }

    /// Pops the next cost in queue order.
    pub(crate) fn next_cost(&mut self) -> TransferCost {
        let cost = self.costs[self.cursor];
        self.cursor += 1;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desc_core::schemes::{DescScheme, SkipMode};
    use desc_core::ChunkSize;

    #[test]
    fn costs_come_back_in_queue_order_across_drains() {
        let mut scalar = DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::LastValue);
        let mut batched = scalar.clone();
        let mut batch = ChannelBatch::new(64);
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for round in 0..3u8 {
            for k in 0..10u8 {
                let block = Block::from_bytes(&[round.wrapping_mul(31) ^ k; 64]);
                expected.push(scalar.transfer(&block));
                batch.push(&block);
            }
            batch.encode(&mut batched);
            for _ in 0..10 {
                got.push(batch.next_cost());
            }
        }
        assert_eq!(expected, got);
    }

    #[test]
    fn batch_costs_match_the_reference_loop() {
        let mut a = DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero);
        let mut b = a.clone();
        let mut fast = ChannelBatch::new(64);
        let mut slab = BlockSlab::with_capacity(64, 20);
        for k in 0..20u8 {
            let block = Block::from_bytes(&[k; 64]);
            fast.push(&block);
            slab.push(&block);
        }
        fast.encode(&mut a);
        let mut reference = Vec::new();
        desc_core::transfer_each(&mut b, &slab, &mut reference);
        assert_eq!(reference.len(), 20);
        for cost in reference {
            assert_eq!(fast.next_cost(), cost);
        }
    }
}
