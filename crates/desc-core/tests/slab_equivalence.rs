//! Slab-equivalence suite: `TransferScheme::transfer_many` must be
//! bit-identical to N sequential `transfer` calls — same per-block
//! [`TransferCost`]s, same aggregate [`CostSummary`], and the same
//! final wire/counter state — for every scheme, across odd slab sizes,
//! block lengths, data densities and both chunk geometries.
//!
//! Three instances of the same configuration are fed the same
//! deterministic block stream: a reference fed one block at a time, the
//! scheme under test fed one block at a time, and a clone of it fed the
//! whole slab at once. For the bus-invert family the reference is the
//! per-segment oracle below (one `Bus` and one `Wire` per segment, the
//! decision code the library's packed lanes replaced); for every other
//! scheme it is a second copy of the scheme itself. Afterwards the two
//! copies of the scheme under test must print the same state (wire
//! levels and transition counters, last-value memories, last-transfer
//! statistics), and a probe block checks that all three landed in the
//! same place.

use desc_core::cost::WireBudget;
use desc_core::rng::Rng64;
use desc_core::schemes::{
    AdaptiveDescScheme, BinaryScheme, BusInvertScheme, DescScheme, DzcScheme,
    EncodedZeroSkipBusInvertScheme, SchemeKind, SerialScheme, SkipMode, ZeroSkipBusInvertScheme,
};
use desc_core::wire::{Bus, Wire};
use desc_core::{
    transfer_each, Block, BlockSlab, ChunkSize, CostSummary, TransferCost, TransferScheme,
};

/// The slab sizes the suite sweeps (deliberately odd: 1 block, a
/// partial round, a power of two, and a four-digit batch).
const SLAB_SIZES: [usize; 4] = [1, 7, 64, 1000];

/// Block lengths for the kernel sweeps: the paper's 64-byte line, one
/// that leaves a partial final beat or round on most geometries, and
/// one that ends mid-word.
const BLOCK_BYTES: [usize; 3] = [64, 72, 9];

/// The data densities the kernel sweeps feed.
#[derive(Clone, Copy, Debug)]
enum Data {
    /// Every byte zero (every skip path taken).
    AllZero,
    /// The workload statistic the skipping schemes exploit: about 38 %
    /// of bytes zero.
    ZeroBiased,
    /// Uniform random bytes (skips rare, inversions common).
    Dense,
}

const DATA: [Data; 3] = [Data::AllZero, Data::ZeroBiased, Data::Dense];

/// A deterministic block of the given density.
fn block_of(rng: &mut Rng64, byte_len: usize, data: Data) -> Block {
    Block::from_vec(
        (0..byte_len)
            .map(|_| match data {
                Data::AllZero => 0,
                Data::ZeroBiased => {
                    if rng.gen::<u8>() < 96 {
                        0
                    } else {
                        rng.gen::<u8>()
                    }
                }
                Data::Dense => rng.gen::<u8>(),
            })
            .collect(),
    )
}

/// A deterministic zero-biased block (all-random bytes would leave the
/// skip paths untested).
fn random_block(rng: &mut Rng64, byte_len: usize) -> Block {
    block_of(rng, byte_len, Data::ZeroBiased)
}

/// Feeds `n` zero-biased blocks through `scalar` one at a time and
/// through `batched` as one slab, then asserts cost-for-cost and
/// state-for-state equivalence.
fn assert_equivalent(
    label: &str,
    scalar: Box<dyn TransferScheme>,
    batched: Box<dyn TransferScheme>,
    byte_len: usize,
    n: usize,
    seed: u64,
) {
    assert_matches_reference(label, scalar, batched, byte_len, n, seed, Data::ZeroBiased);
}

/// The suite's one harness: `reference` and a copy of `scheme` take the
/// blocks one `transfer` at a time, `scheme` takes them as one
/// `transfer_many` slab; every cost, the summary, the two copies'
/// printed state and a probe transfer must agree.
fn assert_matches_reference(
    label: &str,
    mut reference: Box<dyn TransferScheme>,
    mut batched: Box<dyn TransferScheme>,
    byte_len: usize,
    n: usize,
    seed: u64,
    data: Data,
) {
    let label = format!("{label} ({byte_len} B, {n} blocks, {data:?})");
    let mut scalar = batched.clone_box();
    let mut rng = Rng64::seed_from_u64(seed);
    let mut slab = BlockSlab::with_capacity(byte_len, n);
    let mut scalar_costs = Vec::with_capacity(n);
    for i in 0..n {
        let block = block_of(&mut rng, byte_len, data);
        let expected = reference.transfer(&block);
        let got = scalar.transfer(&block);
        assert_eq!(expected, got, "{label}: scalar cost diverged at block {i} of {n}");
        scalar_costs.push(got);
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
    // Per-wire transition counters, last-value memories and last-stats
    // are all in the printed state.
    assert_eq!(format!("{scalar:?}"), format!("{batched:?}"), "{label}: state diverged");

    // Probe: persistent state (wire levels, last-value memories) must
    // match, so one more identical block costs the same everywhere.
    let probe = block_of(&mut rng, byte_len, Data::Dense);
    let expected = reference.transfer(&probe);
    assert_eq!(expected, scalar.transfer(&probe), "{label}: post-run scalar state diverged");
    assert_eq!(expected, batched.transfer(&probe), "{label}: post-batch state diverged");
}

/// Runs one configuration over every block length, density and slab
/// size of the kernel sweeps (four-digit slabs on 64-byte blocks only,
/// to keep the suite fast).
fn sweep(
    label: &str,
    make: impl Fn() -> Box<dyn TransferScheme>,
    oracle: impl Fn() -> Box<dyn TransferScheme>,
) {
    let mut seed = 0u64;
    for byte_len in BLOCK_BYTES {
        for data in DATA {
            for n in SLAB_SIZES {
                if n == 1000 && byte_len != 64 {
                    continue;
                }
                seed += 1;
                assert_matches_reference(label, oracle(), make(), byte_len, n, seed, data);
            }
        }
    }
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

/// DESC and binary per-wire activity (the analysis-layer input) and
/// DESC's last-transfer statistics must also match after a batched
/// run, not just the aggregate costs — on every word-parallel kernel
/// geometry.
#[test]
fn per_wire_transitions_match_after_batch() {
    for data in DATA {
        let mut rng = Rng64::seed_from_u64(7);
        let mut slab = BlockSlab::new(64);
        for _ in 0..600 {
            slab.push(&block_of(&mut rng, 64, data));
        }
        let mut costs = Vec::new();
        for bits in [1u8, 2, 4, 8] {
            for wires in [48usize, 128] {
                let mut scalar =
                    DescScheme::new(wires, ChunkSize::new(bits).unwrap(), SkipMode::Zero);
                let mut batched = scalar.clone();
                for i in 0..slab.len() {
                    scalar.transfer(&slab.get_block(i));
                }
                costs.clear();
                batched.transfer_many(&slab, &mut costs);
                let label = format!("desc {wires}w/{bits}b {data:?}");
                assert_eq!(scalar.wire_transitions(), batched.wire_transitions(), "{label}");
                assert_eq!(scalar.last_stats(), batched.last_stats(), "{label}");
            }
        }
        for wires in [48usize, 64, 96, 128] {
            let mut bin_scalar = BinaryScheme::new(wires);
            let mut bin_batched = bin_scalar.clone();
            for i in 0..slab.len() {
                bin_scalar.transfer(&slab.get_block(i));
            }
            costs.clear();
            bin_batched.transfer_many(&slab, &mut costs);
            assert_eq!(
                bin_scalar.wire_transitions(),
                bin_batched.wire_transitions(),
                "binary {wires}w {data:?}"
            );
        }
    }
}

// ---- Bus-invert oracle: the per-segment decision code -------------
//
// One `Bus` per segment and one `Wire` per invert/skip wire, deciding
// each segment by comparing the flips of its legal modes. The library
// decides whole packed lanes at once; these are the rules it must
// reproduce.

/// Per-segment wire state of the oracle.
#[derive(Clone, Debug)]
struct OracleBus {
    segments: Vec<Bus>,
    invert: Vec<Wire>,
    skip: Vec<Wire>,
    segment_bits: usize,
    width: usize,
}

impl OracleBus {
    fn new(width: usize, segment_bits: usize) -> Self {
        let n = width / segment_bits;
        Self {
            segments: vec![Bus::new(segment_bits); n],
            invert: vec![Wire::new(); n],
            skip: vec![Wire::new(); n],
            segment_bits,
            width,
        }
    }

    fn mask(&self) -> u64 {
        if self.segment_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.segment_bits) - 1
        }
    }

    fn value_at(&self, block: &Block, beat: usize, s: usize) -> u64 {
        block.word_bits(beat * self.width + s * self.segment_bits, self.segment_bits)
    }
}

/// Which bus-invert variant an [`Oracle`] runs.
#[derive(Clone, Copy, Debug)]
enum Variant {
    Invert,
    ZeroSkip,
    Encoded,
}

#[derive(Clone, Debug)]
struct Oracle {
    variant: Variant,
    bus: OracleBus,
    mode_bus: Bus,
}

impl Oracle {
    fn new(variant: Variant, width: usize, segment_bits: usize) -> Self {
        let segments = width / segment_bits;
        // ceil(segments * log2 3) mode wires.
        let mut combos = 1u128;
        for _ in 0..segments {
            combos = combos.saturating_mul(3);
        }
        // (Only the encoded variant drives it, at most 40 segments.)
        let mode_wires = ((128 - (combos - 1).leading_zeros()) as usize).min(64);
        Self { variant, bus: OracleBus::new(width, segment_bits), mode_bus: Bus::new(mode_wires) }
    }

    /// Classic bus invert: the cheaper polarity, counting the invert
    /// wire's own flip.
    fn drive_invert(&mut self, s: usize, value: u64, data: &mut u64, control: &mut u64) {
        let mask = self.bus.mask();
        let seg = &mut self.bus.segments[s];
        let inv = &mut self.bus.invert[s];
        let plain_cost = seg.flips_to(value) + u32::from(inv.level());
        let inverted_cost = seg.flips_to(!value & mask) + u32::from(!inv.level());
        if inverted_cost < plain_cost {
            *data += u64::from(seg.drive(!value & mask));
            *control += u64::from(inv.drive(true));
        } else {
            *data += u64::from(seg.drive(value));
            *control += u64::from(inv.drive(false));
        }
    }

    /// Zero-skipped bus invert: the cheapest legal mode counting all
    /// three wire groups.
    fn drive_zero_skip(&mut self, s: usize, value: u64, data: &mut u64, control: &mut u64) {
        let mask = self.bus.mask();
        let seg = &mut self.bus.segments[s];
        let inv = &mut self.bus.invert[s];
        let skip = &mut self.bus.skip[s];
        let plain = seg.flips_to(value) + u32::from(inv.level()) + u32::from(skip.level());
        let inverted =
            seg.flips_to(!value & mask) + u32::from(!inv.level()) + u32::from(skip.level());
        let zero_skip = (value == 0).then(|| u32::from(!skip.level()));
        match zero_skip {
            Some(z) if z < plain.min(inverted) => *control += u64::from(skip.drive(true)),
            _ => {
                *control += u64::from(skip.drive(false));
                if inverted < plain {
                    *data += u64::from(seg.drive(!value & mask));
                    *control += u64::from(inv.drive(true));
                } else {
                    *data += u64::from(seg.drive(value));
                    *control += u64::from(inv.drive(false));
                }
            }
        }
    }

    /// Encoded variant: this segment's base-3 mode digit.
    fn drive_encoded(&mut self, s: usize, value: u64, data: &mut u64) -> u64 {
        let mask = self.bus.mask();
        let seg = &mut self.bus.segments[s];
        if value == 0 {
            2
        } else if seg.flips_to(!value & mask) < seg.flips_to(value) {
            *data += u64::from(seg.drive(!value & mask));
            1
        } else {
            *data += u64::from(seg.drive(value));
            0
        }
    }
}

impl TransferScheme for Oracle {
    fn name(&self) -> &'static str {
        "per-segment bus-invert oracle"
    }

    fn wires(&self) -> WireBudget {
        WireBudget { data_wires: self.bus.width, control_wires: 0, sync_wires: 0 }
    }

    fn transfer(&mut self, block: &Block) -> TransferCost {
        let beats = block.bit_len().div_ceil(self.bus.width);
        let (mut data, mut control) = (0u64, 0u64);
        for beat in 0..beats {
            let mut mode_word = 0u64;
            let mut radix = 1u64;
            for s in 0..self.bus.segments.len() {
                let value = self.bus.value_at(block, beat, s);
                match self.variant {
                    Variant::Invert => self.drive_invert(s, value, &mut data, &mut control),
                    Variant::ZeroSkip => self.drive_zero_skip(s, value, &mut data, &mut control),
                    Variant::Encoded => {
                        mode_word += self.drive_encoded(s, value, &mut data) * radix;
                        radix = radix.wrapping_mul(3);
                    }
                }
            }
            if let Variant::Encoded = self.variant {
                control += u64::from(self.mode_bus.drive(mode_word));
            }
        }
        TransferCost {
            data_transitions: data,
            control_transitions: control,
            sync_transitions: 0,
            latency_cycles: 0,
            cycles: beats as u64,
        }
    }

    fn reset(&mut self) {
        *self = Self::new(self.variant, self.bus.width, self.bus.segment_bits);
    }

    fn clone_box(&self) -> Box<dyn TransferScheme> {
        Box::new(self.clone())
    }
}

/// The bus-invert geometries the kernel sweep covers: every
/// power-of-two segment of a 64-wire bus, a partial lane (48/16), a
/// segment size that is not a power of two (24/3), a one-segment 8-wire
/// bus and two lanes (128/32).
const BUS_INVERT_GEOMETRIES: [(usize, usize); 11] = [
    (64, 64),
    (64, 32),
    (64, 16),
    (64, 8),
    (64, 4),
    (64, 2),
    (64, 1),
    (8, 8),
    (48, 16),
    (24, 3),
    (128, 32),
];

#[test]
fn bus_invert_family_matches_the_per_segment_oracle() {
    for (width, seg) in BUS_INVERT_GEOMETRIES {
        sweep(
            &format!("bic {width}w/{seg}b"),
            || Box::new(BusInvertScheme::new(width, seg)),
            || Box::new(Oracle::new(Variant::Invert, width, seg)),
        );
        sweep(
            &format!("zs-bic {width}w/{seg}b"),
            || Box::new(ZeroSkipBusInvertScheme::new(width, seg)),
            || Box::new(Oracle::new(Variant::ZeroSkip, width, seg)),
        );
        // The encoded mode word holds at most 40 segments.
        if width / seg <= 40 {
            sweep(
                &format!("ezs-bic {width}w/{seg}b"),
                || Box::new(EncodedZeroSkipBusInvertScheme::new(width, seg)),
                || Box::new(Oracle::new(Variant::Encoded, width, seg)),
            );
        }
    }
}

/// Zero-skipped DESC at every chunk width that divides 64 (the
/// word-parallel kernel; rounds of 48 and 144 wires start mid-word), and
/// the geometries left to the per-chunk kernel: 138 wires at 4 bits and
/// 3-bit chunks.
#[test]
fn zero_skip_desc_kernels_match_the_scalar_path() {
    let mut geometries: Vec<(usize, u8)> = Vec::new();
    for bits in [1u8, 2, 4, 8] {
        for wires in [16usize, 32, 48, 64, 128, 144, 256] {
            geometries.push((wires, bits));
        }
    }
    geometries.extend([(138, 4), (48, 3), (128, 3)]);
    for (wires, bits) in geometries {
        let c = ChunkSize::new(bits).unwrap();
        sweep(
            &format!("zs-desc {wires}w/{bits}b"),
            || Box::new(DescScheme::new(wires, c, SkipMode::Zero)),
            || Box::new(DescScheme::new(wires, c, SkipMode::Zero)),
        );
    }
}

#[test]
fn binary_kernel_matches_the_scalar_path() {
    for wires in [48usize, 64, 96, 128] {
        sweep(
            &format!("binary {wires}w"),
            || Box::new(BinaryScheme::new(wires)),
            || Box::new(BinaryScheme::new(wires)),
        );
    }
}
