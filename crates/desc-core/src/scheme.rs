//! The [`TransferScheme`] abstraction shared by DESC and all baselines.

use crate::block::{Block, BlockSlab};
use crate::cost::{TransferCost, WireBudget};

/// A data-transfer scheme for moving cache blocks across an
/// interconnect.
///
/// Implementations are *stateful*: physical wires retain their logic
/// level between blocks (transition counts depend on it), and
/// last-value-skipped DESC additionally remembers the previous chunk
/// values per wire. Feed a scheme the same block stream a real cache
/// would see and it reports exact per-block costs.
///
/// # Examples
///
/// ```
/// use desc_core::{Block, TransferScheme, schemes::BinaryScheme};
///
/// let mut scheme = BinaryScheme::new(64);
/// let block = Block::from_bytes(&[0xFF; 64]);
/// let first = scheme.transfer(&block);
/// let again = scheme.transfer(&block);
/// // Re-sending an identical block flips far fewer wires.
/// assert!(again.data_transitions < first.data_transitions);
/// ```
/// Schemes are `Send` so drivers can replicate one per L2 bank (via
/// [`TransferScheme::clone_box`]) and simulate the banks on worker
/// threads; every implementation is plain owned data. Their `Debug`
/// form spells out every constructor argument, so two differently
/// built schemes never print alike.
pub trait TransferScheme: Send + std::fmt::Debug {
    /// Human-readable scheme name, matching the paper's figure legends
    /// (e.g. `"Zero Skipped DESC"`).
    fn name(&self) -> &'static str;

    /// The wire resources this scheme occupies.
    fn wires(&self) -> WireBudget;

    /// Transfers one block, mutating wire state, and returns its exact
    /// cost.
    ///
    /// # Panics
    ///
    /// Implementations panic if `block` is incompatible with the
    /// scheme's configuration (e.g. fewer bits than one bus beat).
    fn transfer(&mut self, block: &Block) -> TransferCost;

    /// Transfers every block of `slab` in order, appending one cost per
    /// block to `costs` — the batched entry point the simulators feed.
    ///
    /// The contract is *bit-identical equivalence*: the appended costs
    /// and the final wire/counter state must match what `slab.len()`
    /// sequential [`TransferScheme::transfer`] calls would produce. The
    /// default implementation is exactly that loop (through a scratch
    /// block, so it allocates once per call, not per block); schemes
    /// with word-level kernels override it to amortize per-block
    /// dispatch and run `u64`-lane toggle math (see
    /// [`transfer_each`] for the reference loop).
    ///
    /// # Panics
    ///
    /// Implementations panic if the slab's blocks are incompatible with
    /// the scheme's configuration.
    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        transfer_each(self, slab, costs);
    }

    /// Returns all wires and remembered values to the power-on state
    /// (all zeroes), as at the start of a simulation.
    fn reset(&mut self);

    /// Clones this scheme into a fresh boxed trait object.
    ///
    /// Bank-sharded simulation gives every L2 bank its own channel (and
    /// therefore its own wire state); drivers that accept a
    /// `Box<dyn TransferScheme>` use this to replicate the configured
    /// scheme once per bank. Replicas carry the source's configuration
    /// *and* current wire state — call [`TransferScheme::reset`] on the
    /// clone for a power-on copy.
    fn clone_box(&self) -> Box<dyn TransferScheme>;
}

/// The scalar reference loop: transfers every block of `slab` through
/// [`TransferScheme::transfer`] one at a time via a single scratch
/// block. This is the default [`TransferScheme::transfer_many`] body
/// and the oracle the slab-equivalence suite compares batched kernels
/// against.
pub fn transfer_each<S: TransferScheme + ?Sized>(
    scheme: &mut S,
    slab: &BlockSlab,
    costs: &mut Vec<TransferCost>,
) {
    if slab.is_empty() {
        return;
    }
    let mut scratch = Block::zeroed(slab.byte_len());
    costs.reserve(slab.len());
    for i in 0..slab.len() {
        slab.copy_block_into(i, &mut scratch);
        costs.push(scheme.transfer(&scratch));
    }
}

/// Blanket impl so `Box<dyn TransferScheme>` and `&mut S` both work in
/// generic drivers. `transfer_many` is forwarded explicitly — the
/// default loop here would hide the inner scheme's batched kernel.
impl<S: TransferScheme + ?Sized> TransferScheme for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn wires(&self) -> WireBudget {
        (**self).wires()
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        (**self).transfer(block)
    }

    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        (**self).transfer_many(slab, costs)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        (**self).clone_box()
    }
}

impl<S: TransferScheme + ?Sized> TransferScheme for &mut S {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn wires(&self) -> WireBudget {
        (**self).wires()
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        (**self).transfer(block)
    }

    fn transfer_many(&mut self, slab: &BlockSlab, costs: &mut Vec<TransferCost>) {
        (**self).transfer_many(slab, costs)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        (**self).clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::BinaryScheme;

    #[test]
    fn trait_objects_and_references_delegate() {
        let mut boxed: Box<dyn TransferScheme> = Box::new(BinaryScheme::new(8));
        assert_eq!(boxed.name(), "Conventional Binary");
        let block = Block::from_bytes(&[0xAA; 8]);
        let c = boxed.transfer(&block);
        assert!(c.data_transitions > 0);
        boxed.reset();
        // After reset the same block costs the same again.
        assert_eq!(boxed.transfer(&block), c);

        let mut concrete = BinaryScheme::new(8);
        let via_ref: &mut dyn TransferScheme = &mut concrete;
        assert_eq!(via_ref.wires().data_wires, 8);
    }

    #[test]
    fn clone_box_replicates_configuration_and_state() {
        let mut original: Box<dyn TransferScheme> = Box::new(BinaryScheme::new(8));
        let block = Block::from_bytes(&[0x5A; 8]);
        let first = original.transfer(&block);

        // A clone carries the mutated wire state: re-sending the same
        // block is cheap on both.
        let mut copy = original.clone_box();
        assert_eq!(copy.name(), original.name());
        assert_eq!(copy.wires(), original.wires());
        assert_eq!(copy.transfer(&block), original.transfer(&block));

        // After reset the clone behaves like a power-on instance.
        copy.reset();
        assert_eq!(copy.transfer(&block), first);
    }
}
