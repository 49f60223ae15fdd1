//! Slab-equivalence suite: `TransferScheme::transfer_many` must be
//! bit-identical to N sequential `transfer` calls — same per-block
//! [`TransferCost`]s, same aggregate [`CostSummary`], and the same
//! final wire/counter state — for every scheme, across odd slab sizes
//! and both chunk geometries.
//!
//! Two instances of the same scheme are fed the same deterministic
//! zero-biased block stream, one scalar and one batched; afterwards a
//! probe block checks that the persistent state (wire levels,
//! last-value memories) also landed in the same place.

use desc_core::rng::Rng64;
use desc_core::schemes::{
    AdaptiveDescScheme, BinaryScheme, BusInvertScheme, DescScheme, DzcScheme,
    EncodedZeroSkipBusInvertScheme, SchemeKind, SerialScheme, SkipMode, ZeroSkipBusInvertScheme,
};
use desc_core::{transfer_each, Block, BlockSlab, ChunkSize, CostSummary, TransferScheme};

/// The slab sizes the suite sweeps (deliberately odd: 1 block, a
/// partial round, a power of two, and a four-digit batch).
const SLAB_SIZES: [usize; 4] = [1, 7, 64, 1000];

/// A deterministic zero-biased block (the workload statistic the
/// skipping schemes exploit — all-random bytes would leave the skip
/// paths untested).
fn random_block(rng: &mut Rng64, byte_len: usize) -> Block {
    Block::from_vec(
        (0..byte_len).map(|_| if rng.gen::<u8>() < 96 { 0 } else { rng.gen::<u8>() }).collect(),
    )
}

/// Feeds `n` blocks through `scalar` one at a time and through
/// `batched` as one slab, then asserts cost-for-cost and
/// state-for-state equivalence.
fn assert_equivalent(
    label: &str,
    mut scalar: Box<dyn TransferScheme>,
    mut batched: Box<dyn TransferScheme>,
    byte_len: usize,
    n: usize,
    seed: u64,
) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut slab = BlockSlab::with_capacity(byte_len, n);
    let mut scalar_costs = Vec::with_capacity(n);
    for _ in 0..n {
        let block = random_block(&mut rng, byte_len);
        scalar_costs.push(scalar.transfer(&block));
        slab.push(&block);
    }
    let mut batched_costs = Vec::new();
    batched.transfer_many(&slab, &mut batched_costs);
    assert_eq!(batched_costs.len(), n, "{label}: one cost per block");
    for (i, (s, b)) in scalar_costs.iter().zip(&batched_costs).enumerate() {
        assert_eq!(s, b, "{label}: cost diverged at block {i} of {n}");
    }

    let mut scalar_summary = CostSummary::new();
    let mut batched_summary = CostSummary::new();
    for (s, b) in scalar_costs.iter().zip(&batched_costs) {
        scalar_summary.record(*s);
        batched_summary.record(*b);
    }
    assert_eq!(
        (scalar_summary.total(), scalar_summary.blocks(), scalar_summary.max_cycles()),
        (batched_summary.total(), batched_summary.blocks(), batched_summary.max_cycles()),
        "{label}: summary diverged"
    );

    // Probe: persistent state (wire levels, last-value memories) must
    // match, so one more identical block costs the same on both sides.
    let probe = random_block(&mut rng, byte_len);
    assert_eq!(
        scalar.transfer(&probe),
        batched.transfer(&probe),
        "{label}: post-batch state diverged"
    );
}

fn check_paper_config(kind: SchemeKind, n: usize, seed: u64) {
    assert_equivalent(
        kind.label(),
        kind.build_paper_config(),
        kind.build_paper_config(),
        64,
        n,
        seed,
    );
}

#[test]
fn all_eight_schemes_paper_configs() {
    for (k, kind) in SchemeKind::ALL.into_iter().enumerate() {
        for (s, n) in SLAB_SIZES.into_iter().enumerate() {
            // 1000-block slabs only on the smallest sweep position to
            // keep the suite fast; every scheme still sees it.
            check_paper_config(kind, n, (k * 10 + s) as u64);
        }
    }
}

/// Second chunk geometry: 64 wires × 8-bit chunks for DESC (the other
/// end of the paper's §5.6.2 sweep), mismatched widths for the
/// segmented baselines, and a bus width that is not a multiple of 64
/// for conventional binary (exercises the partial top lane).
#[test]
fn alternate_chunk_geometries() {
    let c8 = ChunkSize::new(8).unwrap();
    let c3 = ChunkSize::new(3).unwrap();
    for &n in &SLAB_SIZES {
        for mode in [SkipMode::None, SkipMode::Zero, SkipMode::LastValue] {
            assert_equivalent(
                "desc 64w/8b",
                Box::new(DescScheme::new(64, c8, mode)),
                Box::new(DescScheme::new(64, c8, mode)),
                64,
                n,
                n as u64 + 1,
            );
            // 3-bit chunks straddle word boundaries in the extractor.
            assert_equivalent(
                "desc 48w/3b",
                Box::new(DescScheme::new(48, c3, mode)),
                Box::new(DescScheme::new(48, c3, mode)),
                64,
                n,
                n as u64 + 2,
            );
        }
        assert_equivalent(
            "binary 48w",
            Box::new(BinaryScheme::new(48)),
            Box::new(BinaryScheme::new(48)),
            64,
            n,
            n as u64 + 3,
        );
        assert_equivalent(
            "binary 96w",
            Box::new(BinaryScheme::new(96)),
            Box::new(BinaryScheme::new(96)),
            64,
            n,
            n as u64 + 4,
        );
        assert_equivalent(
            "dzc 64w/4b",
            Box::new(DzcScheme::new(64, 4)),
            Box::new(DzcScheme::new(64, 4)),
            64,
            n,
            n as u64 + 5,
        );
        assert_equivalent(
            "bus-invert 64w/16b",
            Box::new(BusInvertScheme::new(64, 16)),
            Box::new(BusInvertScheme::new(64, 16)),
            64,
            n,
            n as u64 + 6,
        );
        assert_equivalent(
            "zs-bic 64w/16b",
            Box::new(ZeroSkipBusInvertScheme::new(64, 16)),
            Box::new(ZeroSkipBusInvertScheme::new(64, 16)),
            64,
            n,
            n as u64 + 7,
        );
        assert_equivalent(
            "encoded zs-bic 64w/16b",
            Box::new(EncodedZeroSkipBusInvertScheme::new(64, 16)),
            Box::new(EncodedZeroSkipBusInvertScheme::new(64, 16)),
            64,
            n,
            n as u64 + 8,
        );
        assert_equivalent(
            "serial",
            Box::new(SerialScheme::new()),
            Box::new(SerialScheme::new()),
            64,
            n,
            n as u64 + 9,
        );
        assert_equivalent(
            "adaptive desc",
            Box::new(AdaptiveDescScheme::new(128, ChunkSize::PAPER_DEFAULT)),
            Box::new(AdaptiveDescScheme::new(128, ChunkSize::PAPER_DEFAULT)),
            64,
            n,
            n as u64 + 10,
        );
    }
}

/// Block lengths that do not fill whole words (slab padding) must stay
/// equivalent too.
#[test]
fn ragged_block_lengths() {
    for byte_len in [1usize, 9, 23] {
        for &n in &[7usize, 64] {
            assert_equivalent(
                "binary ragged",
                Box::new(BinaryScheme::new(16)),
                Box::new(BinaryScheme::new(16)),
                byte_len,
                n,
                byte_len as u64,
            );
            assert_equivalent(
                "desc ragged",
                Box::new(DescScheme::new(8, ChunkSize::PAPER_DEFAULT, SkipMode::Zero)),
                Box::new(DescScheme::new(8, ChunkSize::PAPER_DEFAULT, SkipMode::Zero)),
                byte_len,
                n,
                byte_len as u64 + 100,
            );
        }
    }
}

/// `transfer_each` (the documented reference loop) must itself match
/// sequential scalar calls — it is the oracle the batched kernels are
/// held to, so it cannot drift either.
#[test]
fn transfer_each_is_the_scalar_loop() {
    let mut rng = Rng64::seed_from_u64(99);
    let mut slab = BlockSlab::new(64);
    let mut scalar = DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero);
    let mut reference = scalar.clone();
    let mut expected = Vec::new();
    for _ in 0..32 {
        let block = random_block(&mut rng, 64);
        expected.push(scalar.transfer(&block));
        slab.push(&block);
    }
    let mut got = Vec::new();
    transfer_each(&mut reference, &slab, &mut got);
    assert_eq!(expected, got);
}

/// DESC per-wire activity (the analysis-layer input) must also match
/// after a batched run, not just the aggregate costs.
#[test]
fn per_wire_transitions_match_after_batch() {
    let mut rng = Rng64::seed_from_u64(7);
    let mut slab = BlockSlab::new(64);
    let mut scalar = DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero);
    let mut batched = scalar.clone();
    for _ in 0..64 {
        let block = random_block(&mut rng, 64);
        scalar.transfer(&block);
        slab.push(&block);
    }
    let mut costs = Vec::new();
    batched.transfer_many(&slab, &mut costs);
    assert_eq!(scalar.wire_transitions(), batched.wire_transitions());
    assert_eq!(scalar.last_stats(), batched.last_stats());

    let mut bin_scalar = BinaryScheme::new(64);
    let mut bin_batched = bin_scalar.clone();
    for i in 0..slab.len() {
        bin_scalar.transfer(&slab.get_block(i));
    }
    costs.clear();
    bin_batched.transfer_many(&slab, &mut costs);
    assert_eq!(bin_scalar.wire_transitions(), bin_batched.wire_transitions());
}
