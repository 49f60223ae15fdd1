//! Property tests for the DESC codecs and baselines, on the seeded
//! harness `desc_core::rng::check_property`.
//!
//! These pin down the paper's *invariants* over randomized inputs:
//! the protocol round-trips for every block, basic DESC's transition
//! count is data-independent, the cycle-stepped protocol agrees with
//! the analytic cost model and its batched kernels, and bus-invert
//! respects its flip bound.

use desc_core::protocol::{Link, LinkConfig, TraceCapture};
use desc_core::rng::{check_property, Rng64};
use desc_core::schemes::{
    BinaryScheme, BusInvertScheme, DescScheme, DzcScheme, EncodedZeroSkipBusInvertScheme, SkipMode,
    ZeroSkipBusInvertScheme,
};
use desc_core::{Block, BlockSlab, ChunkSize, Chunks, TransferScheme};

const CASES: u64 = 256;

const MODES: [SkipMode; 3] = [SkipMode::None, SkipMode::Zero, SkipMode::LastValue];

/// `len` bytes with a bias toward zero bytes (3 in 8 are forced to
/// zero: the workload statistic DESC exploits).
fn zero_biased(rng: &mut Rng64, len: usize) -> Block {
    Block::from_vec(
        (0..len).map(|_| if rng.gen_range(0u8..8) < 3 { 0 } else { rng.gen() }).collect(),
    )
}

/// A zero-biased block of 1–64 bytes.
fn arb_block(rng: &mut Rng64) -> Block {
    let len = rng.gen_range(1usize..=64);
    zero_biased(rng, len)
}

/// A zero-biased block of exactly 64 bytes (the paper's L2 block).
fn arb_cache_block(rng: &mut Rng64) -> Block {
    zero_biased(rng, 64)
}

fn arb_cache_blocks(rng: &mut Rng64, n: std::ops::Range<usize>) -> Vec<Block> {
    let n = rng.gen_range(n);
    (0..n).map(|_| arb_cache_block(rng)).collect()
}

fn arb_mode(rng: &mut Rng64) -> SkipMode {
    MODES[rng.gen_range(0usize..3)]
}

fn chunk(bits: u8) -> ChunkSize {
    ChunkSize::new(bits).expect("valid chunk width")
}

fn link(wires: usize, chunk_size: ChunkSize, mode: SkipMode, wire_delay: u64) -> Link {
    Link::new(LinkConfig { wires, chunk_size, mode, wire_delay, trace: TraceCapture::Off })
}

/// decode(encode(x)) == x for every block, chunk size, wire count,
/// skip mode and wire delay.
#[test]
fn protocol_roundtrips() {
    check_property("protocol_roundtrips", CASES, |rng| {
        let block = arb_block(rng);
        let bits = rng.gen_range(1u8..=8);
        let wires = rng.gen_range(1usize..=32);
        let mode = arb_mode(rng);
        let delay = rng.gen_range(0u64..8);
        let out = link(wires, chunk(bits), mode, delay).transfer(&block);
        assert_eq!(out.decoded, block, "{wires} wires, {bits}-bit chunks, {mode:?}, delay {delay}");
    });
}

/// Round-trip still holds over *sequences* of blocks (last-value
/// skipping carries state across transfers).
#[test]
fn protocol_roundtrips_across_streams() {
    check_property("protocol_roundtrips_across_streams", CASES, |rng| {
        let blocks = arb_cache_blocks(rng, 1..6);
        let mode = arb_mode(rng);
        let mut link = link(16, chunk(4), mode, 2);
        for block in &blocks {
            assert_eq!(&link.transfer(block).decoded, block, "{mode:?}");
        }
    });
}

/// The cycle-stepped [`Link`] is the oracle for every DESC kernel: on
/// the same block stream, the scalar `transfer` and the batched
/// `transfer_many` of [`DescScheme`] report the link's data and
/// control transitions and cycles, one sync edge per cycle, and, after
/// the slab, per-wire transition totals that add up to the link's
/// data strobes.
///
/// The sweep covers 1–8-bit chunks (the word-parallel zero-skip kernel
/// at 1/2/4/8 bits, the per-chunk kernel elsewhere and for the other
/// modes), 8–256 wires including widths that leave a partial round or
/// straddle 64-bit words, every skip mode, and zero-biased blocks of
/// which every fifth repeats its predecessor (last-value skipping's
/// case) and every tenth is all zero (every chunk skipped).
#[test]
fn protocol_matches_analytic_model() {
    const WIRES: [usize; 10] = [8, 13, 16, 24, 37, 64, 100, 128, 130, 256];
    const BLOCKS: usize = 40;
    check_property("protocol_matches_analytic_model", 1, |rng| {
        for bits in 1u8..=8 {
            for wires in WIRES {
                for mode in MODES {
                    let label = format!("{wires} wires, {bits}-bit chunks, {mode:?}");
                    let mut link = link(wires, chunk(bits), mode, 0);
                    let mut scalar = DescScheme::new(wires, chunk(bits), mode);
                    let mut batched = scalar.clone();
                    let mut slab = BlockSlab::with_capacity(64, BLOCKS);
                    let mut strobes = 0;
                    let mut block = arb_cache_block(rng);
                    let mut expected = Vec::with_capacity(BLOCKS);
                    for i in 0..BLOCKS {
                        match i % 10 {
                            4 | 9 => {} // repeat the previous block
                            7 => block = Block::zeroed(64),
                            _ => block = arb_cache_block(rng),
                        }
                        let proto = link.transfer(&block);
                        assert_eq!(proto.decoded, block, "{label}: block {i} decoded wrong");
                        let model = scalar.transfer(&block);
                        assert_eq!(
                            (model.data_transitions, model.control_transitions, model.cycles),
                            (
                                proto.cost.data_transitions,
                                proto.cost.control_transitions,
                                proto.cost.cycles
                            ),
                            "{label}: scalar transfer diverged from the link at block {i}"
                        );
                        assert_eq!(model.sync_transitions, model.cycles, "{label}: block {i}");
                        strobes += proto.cost.data_transitions;
                        expected.push(model);
                        slab.push(&block);
                    }
                    let mut got = Vec::new();
                    batched.transfer_many(&slab, &mut got);
                    for (i, (want, got)) in expected.iter().zip(&got).enumerate() {
                        assert_eq!(want, got, "{label}: transfer_many diverged at block {i}");
                    }
                    assert_eq!(got.len(), BLOCKS, "{label}: one cost per block");
                    let per_wire: u64 = batched.wire_transitions().iter().sum();
                    assert_eq!(per_wire, strobes, "{label}: per-wire totals vs link strobes");
                    assert_eq!(
                        format!("{scalar:?}"),
                        format!("{batched:?}"),
                        "{label}: state after the slab diverged"
                    );
                    // Persistent state (last values, wire levels) must
                    // leave all three in the same place; the probe's
                    // length is drawn, so ragged blocks are costed too.
                    let probe = arb_block(rng);
                    let proto = link.transfer(&probe).cost;
                    for (who, model) in
                        [("scalar", scalar.transfer(&probe)), ("batched", batched.transfer(&probe))]
                    {
                        assert_eq!(
                            (model.data_transitions, model.control_transitions, model.cycles),
                            (proto.data_transitions, proto.control_transitions, proto.cycles),
                            "{label}: {who} probe after the slab diverged from the link"
                        );
                    }
                }
            }
        }
    });
}

/// Basic DESC: transitions are exactly `chunks + 1` regardless of
/// block content — the paper's core claim.
#[test]
fn basic_desc_transitions_are_data_independent() {
    check_property("basic_desc_transitions_are_data_independent", CASES, |rng| {
        let block = arb_cache_block(rng);
        let mut s = DescScheme::new(128, chunk(4), SkipMode::None).without_sync_strobe();
        let cost = s.transfer(&block);
        assert_eq!(cost.data_transitions, 128);
        assert_eq!(cost.control_transitions, 1);
    });
}

/// Zero-skipped DESC data transitions equal the number of non-zero
/// chunks exactly.
#[test]
fn zero_skip_strobes_equal_nonzero_chunks() {
    check_property("zero_skip_strobes_equal_nonzero_chunks", CASES, |rng| {
        let block = arb_cache_block(rng);
        let nonzero =
            Chunks::split(&block, chunk(4)).values().iter().filter(|&&v| v != 0).count() as u64;
        let mut s = DescScheme::new(128, chunk(4), SkipMode::Zero).without_sync_strobe();
        assert_eq!(s.transfer(&block).data_transitions, nonzero);
    });
}

/// Chunk split/reassemble round-trips for every chunk size.
#[test]
fn chunks_roundtrip() {
    check_property("chunks_roundtrip", CASES, |rng| {
        let block = arb_block(rng);
        let size = chunk(rng.gen_range(1u8..=8));
        assert_eq!(Chunks::split(&block, size).reassemble(block.byte_len()), block, "{size}");
    });
}

/// Bus-invert coding never exceeds S/2 + 1 flips per segment per
/// beat — the bound from Stan & Burleson.
#[test]
fn bus_invert_respects_flip_bound() {
    check_property("bus_invert_respects_flip_bound", CASES, |rng| {
        let mut s = BusInvertScheme::new(64, 32);
        let (beats, segments) = (512 / 64, 64 / 32);
        let bound = (beats * segments * (32 / 2 + 1)) as u64;
        for block in &arb_cache_blocks(rng, 1..6) {
            assert!(s.transfer(block).total_transitions() <= bound);
        }
    });
}

/// Every scheme is deterministic: reset + replay gives identical
/// costs.
#[test]
fn schemes_are_deterministic() {
    check_property("schemes_are_deterministic", CASES, |rng| {
        let blocks = arb_cache_blocks(rng, 1..4);
        let mut schemes: Vec<Box<dyn TransferScheme>> = vec![
            Box::new(BinaryScheme::new(64)),
            Box::new(DzcScheme::new(64, 8)),
            Box::new(BusInvertScheme::new(64, 32)),
            Box::new(ZeroSkipBusInvertScheme::new(64, 32)),
            Box::new(EncodedZeroSkipBusInvertScheme::new(64, 16)),
            Box::new(DescScheme::new(128, chunk(4), SkipMode::Zero)),
            Box::new(DescScheme::new(128, chunk(4), SkipMode::LastValue)),
        ];
        for s in &mut schemes {
            let first: Vec<_> = blocks.iter().map(|b| s.transfer(b)).collect();
            s.reset();
            let second: Vec<_> = blocks.iter().map(|b| s.transfer(b)).collect();
            assert_eq!(first, second, "{}", s.name());
        }
    });
}

/// DESC latency is bounded by rounds × max window and is at least
/// one cycle per round.
#[test]
fn desc_latency_bounds() {
    check_property("desc_latency_bounds", CASES, |rng| {
        let block = arb_cache_block(rng);
        let mode = arb_mode(rng);
        for wires in [32usize, 64, 128] {
            let cost =
                DescScheme::new(wires, chunk(4), mode).without_sync_strobe().transfer(&block);
            let rounds = 128usize.div_ceil(wires) as u64;
            let max_window = if mode == SkipMode::None { 16 } else { 15 };
            assert!(cost.cycles >= rounds, "cycles {} < rounds {rounds}", cost.cycles);
            assert!(
                cost.cycles <= rounds * max_window,
                "cycles {} > {rounds} × {max_window}",
                cost.cycles
            );
        }
    });
}

/// Last-value skipping strobes nothing on a repeated block.
#[test]
fn last_value_skip_exploits_repeats() {
    check_property("last_value_skip_exploits_repeats", CASES, |rng| {
        let block = arb_cache_block(rng);
        let repeats = rng.gen_range(2usize..5);
        let mut lv = DescScheme::new(128, chunk(4), SkipMode::LastValue).without_sync_strobe();
        lv.transfer(&block);
        for _ in 1..repeats {
            assert_eq!(lv.transfer(&block).data_transitions, 0);
        }
    });
}
