//! Property-based tests for the DESC codecs and baselines.
//!
//! These pin down the paper's *invariants* over randomized inputs:
//! the protocol round-trips for every block, basic DESC's transition
//! count is data-independent, the cycle-stepped protocol agrees with
//! the analytic cost model, and bus-invert respects its flip bound.

// Gated: compiled only with `--features proptest`, which requires
// network access to fetch the `proptest` crate (see Cargo.toml).
#![cfg(feature = "proptest")]

use desc_core::protocol::{Link, LinkConfig, TraceCapture};
use desc_core::schemes::{
    BinaryScheme, BusInvertScheme, DescScheme, DzcScheme, EncodedZeroSkipBusInvertScheme, SkipMode,
    ZeroSkipBusInvertScheme,
};
use desc_core::{Block, BlockSlab, ChunkSize, Chunks, TransferScheme};
use proptest::prelude::*;

/// Arbitrary blocks of 1–64 bytes with a bias toward zero bytes (the
/// workload statistic DESC exploits).
fn arb_block() -> impl Strategy<Value = Block> {
    prop::collection::vec(prop_oneof![3 => Just(0u8), 5 => any::<u8>()], 1..=64)
        .prop_map(|bytes| Block::from_bytes(&bytes))
}

/// Blocks of exactly 64 bytes (the paper's L2 block size).
fn arb_cache_block() -> impl Strategy<Value = Block> {
    prop::collection::vec(prop_oneof![3 => Just(0u8), 5 => any::<u8>()], 64)
        .prop_map(|bytes| Block::from_bytes(&bytes))
}

fn arb_mode() -> impl Strategy<Value = SkipMode> {
    prop_oneof![Just(SkipMode::None), Just(SkipMode::Zero), Just(SkipMode::LastValue)]
}

proptest! {
    /// decode(encode(x)) == x for every block, chunk size, wire count,
    /// skip mode and wire delay.
    #[test]
    fn protocol_roundtrips(
        block in arb_block(),
        chunk_bits in 1u8..=8,
        wires in 1usize..=32,
        mode in arb_mode(),
        delay in 0u64..8,
    ) {
        let cfg = LinkConfig {
            wires,
            chunk_size: ChunkSize::new(chunk_bits).expect("valid"),
            mode,
            wire_delay: delay,
            trace: TraceCapture::Off,
        };
        let mut link = Link::new(cfg);
        let out = link.transfer(&block);
        prop_assert_eq!(out.decoded, block);
    }

    /// Round-trip still holds over *sequences* of blocks (last-value
    /// skipping carries state across transfers).
    #[test]
    fn protocol_roundtrips_across_streams(
        blocks in prop::collection::vec(arb_cache_block(), 1..6),
        mode in arb_mode(),
    ) {
        let cfg = LinkConfig {
            wires: 16,
            chunk_size: ChunkSize::new(4).expect("valid"),
            mode,
            wire_delay: 2,
            trace: TraceCapture::Off,
        };
        let mut link = Link::new(cfg);
        for block in &blocks {
            let out = link.transfer(block);
            prop_assert_eq!(&out.decoded, block);
        }
    }

    /// The cycle-stepped protocol and the analytic scheme report
    /// identical transitions and cycles on identical block streams.
    #[test]
    fn protocol_matches_analytic_model(
        blocks in prop::collection::vec(arb_cache_block(), 1..5),
        mode in arb_mode(),
        wires in prop_oneof![Just(8usize), Just(16), Just(32), Just(64), Just(128)],
    ) {
        let chunk = ChunkSize::new(4).expect("valid");
        let mut link = Link::new(LinkConfig {
            wires,
            chunk_size: chunk,
            mode,
            wire_delay: 0,
            trace: TraceCapture::Off,
        });
        let mut analytic = DescScheme::new(wires, chunk, mode).without_sync_strobe();
        for block in &blocks {
            let proto = link.transfer(block).cost;
            let model = analytic.transfer(block);
            prop_assert_eq!(proto.data_transitions, model.data_transitions);
            prop_assert_eq!(proto.control_transitions, model.control_transitions);
            prop_assert_eq!(proto.cycles, model.cycles);
        }
    }

    /// Basic DESC: transitions are exactly `chunks + 1` regardless of
    /// block content — the paper's core claim.
    #[test]
    fn basic_desc_transitions_are_data_independent(block in arb_cache_block()) {
        let chunk = ChunkSize::new(4).expect("valid");
        let mut s = DescScheme::new(128, chunk, SkipMode::None).without_sync_strobe();
        let cost = s.transfer(&block);
        prop_assert_eq!(cost.data_transitions, 128);
        prop_assert_eq!(cost.control_transitions, 1);
    }

    /// Zero-skipped DESC data transitions equal the number of non-zero
    /// chunks exactly.
    #[test]
    fn zero_skip_strobes_equal_nonzero_chunks(block in arb_cache_block()) {
        let chunk = ChunkSize::new(4).expect("valid");
        let nonzero = Chunks::split(&block, chunk)
            .values()
            .iter()
            .filter(|&&v| v != 0)
            .count() as u64;
        let mut s = DescScheme::new(128, chunk, SkipMode::Zero).without_sync_strobe();
        prop_assert_eq!(s.transfer(&block).data_transitions, nonzero);
    }

    /// Chunk split/reassemble round-trips for every chunk size.
    #[test]
    fn chunks_roundtrip(block in arb_block(), chunk_bits in 1u8..=8) {
        let size = ChunkSize::new(chunk_bits).expect("valid");
        let chunks = Chunks::split(&block, size);
        prop_assert_eq!(chunks.reassemble(block.byte_len()), block);
    }

    /// Bus-invert coding never exceeds S/2 + 1 flips per segment per
    /// beat — the bound from Stan & Burleson.
    #[test]
    fn bus_invert_respects_flip_bound(blocks in prop::collection::vec(arb_cache_block(), 1..6)) {
        let mut s = BusInvertScheme::new(64, 32);
        for block in &blocks {
            let cost = s.transfer(block);
            let beats = 512 / 64;
            let segments = 64 / 32;
            let bound = (beats * segments * (32 / 2 + 1)) as u64;
            prop_assert!(cost.total_transitions() <= bound);
        }
    }

    /// Every scheme is deterministic: reset + replay gives identical
    /// costs.
    #[test]
    fn schemes_are_deterministic(blocks in prop::collection::vec(arb_cache_block(), 1..4)) {
        let mut schemes: Vec<Box<dyn TransferScheme>> = vec![
            Box::new(BinaryScheme::new(64)),
            Box::new(DzcScheme::new(64, 8)),
            Box::new(BusInvertScheme::new(64, 32)),
            Box::new(ZeroSkipBusInvertScheme::new(64, 32)),
            Box::new(EncodedZeroSkipBusInvertScheme::new(64, 16)),
            Box::new(DescScheme::new(128, ChunkSize::new(4).expect("valid"), SkipMode::Zero)),
            Box::new(DescScheme::new(128, ChunkSize::new(4).expect("valid"), SkipMode::LastValue)),
        ];
        for s in &mut schemes {
            let first: Vec<_> = blocks.iter().map(|b| s.transfer(b)).collect();
            s.reset();
            let second: Vec<_> = blocks.iter().map(|b| s.transfer(b)).collect();
            prop_assert_eq!(first, second);
        }
    }

    /// DESC latency is bounded by rounds × max window and is at least
    /// one cycle per round.
    #[test]
    fn desc_latency_bounds(block in arb_cache_block(), mode in arb_mode()) {
        let chunk = ChunkSize::new(4).expect("valid");
        for wires in [32usize, 64, 128] {
            let mut s = DescScheme::new(wires, chunk, mode).without_sync_strobe();
            let cost = s.transfer(&block);
            let rounds = 128usize.div_ceil(wires) as u64;
            let max_window = match mode {
                SkipMode::None => 16,
                _ => 15,
            };
            prop_assert!(cost.cycles >= rounds, "cycles {} < rounds {rounds}", cost.cycles);
            prop_assert!(
                cost.cycles <= rounds * max_window,
                "cycles {} > {rounds} × {max_window}", cost.cycles
            );
        }
    }

    /// Batched `transfer_many` is bit-identical to sequential scalar
    /// `transfer` calls for every scheme: same per-block costs, and the
    /// same persistent state (checked with a probe transfer afterwards).
    #[test]
    fn transfer_many_matches_sequential_transfers(
        blocks in prop::collection::vec(arb_cache_block(), 1..12),
        probe in arb_cache_block(),
    ) {
        let schemes: Vec<Box<dyn TransferScheme>> = vec![
            Box::new(BinaryScheme::new(64)),
            Box::new(DzcScheme::new(64, 8)),
            Box::new(BusInvertScheme::new(64, 32)),
            Box::new(ZeroSkipBusInvertScheme::new(64, 32)),
            Box::new(EncodedZeroSkipBusInvertScheme::new(64, 16)),
            Box::new(DescScheme::new(128, ChunkSize::new(4).expect("valid"), SkipMode::None)),
            Box::new(DescScheme::new(128, ChunkSize::new(4).expect("valid"), SkipMode::Zero)),
            Box::new(DescScheme::new(128, ChunkSize::new(4).expect("valid"), SkipMode::LastValue)),
        ];
        let mut slab = BlockSlab::with_capacity(64, blocks.len());
        for block in &blocks {
            slab.push(block);
        }
        for scalar in schemes {
            let mut scalar = scalar;
            let mut batched = scalar.clone_box();
            let expected: Vec<_> = blocks.iter().map(|b| scalar.transfer(b)).collect();
            let mut got = Vec::new();
            batched.transfer_many(&slab, &mut got);
            prop_assert_eq!(&expected, &got, "costs diverged for {}", scalar.name());
            prop_assert_eq!(
                scalar.transfer(&probe),
                batched.transfer(&probe),
                "state diverged for {}", scalar.name()
            );
        }
    }

    /// Last-value skipping dominates zero skipping in strobe count on
    /// streams of repeated blocks.
    #[test]
    fn last_value_skip_exploits_repeats(block in arb_cache_block(), repeats in 2usize..5) {
        let chunk = ChunkSize::new(4).expect("valid");
        let mut lv = DescScheme::new(128, chunk, SkipMode::LastValue).without_sync_strobe();
        let mut total_after_first = 0;
        for i in 0..repeats {
            let cost = lv.transfer(&block);
            if i > 0 {
                total_after_first += cost.data_transitions;
            }
        }
        prop_assert_eq!(total_after_first, 0);
    }
}
