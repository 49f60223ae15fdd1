//! ECC slab-equivalence suite: the word-parallel SECDED parity equals
//! the bit-level Hamming construction, and
//! `SecdedScheme::transfer_many` is bit-identical to N sequential
//! `transfer` calls — same per-block costs, same wire state after the
//! batch, same `ecc.scheme.*` counter totals — for the four Fig. 28
//! configurations.

use desc_core::schemes::{BinaryScheme, DescScheme, SkipMode};
use desc_core::{transfer_each, Block, BlockSlab, ChunkSize, TransferScheme};
use desc_ecc::scheme::SecdedScheme;
use desc_ecc::SecdedCode;
use desc_workloads::BenchmarkId;
use std::sync::Mutex;

/// The slab sizes of `desc-core`'s slab-equivalence suite.
const SLAB_SIZES: [usize; 4] = [1, 7, 64, 1000];

/// Every size of `generic_sizes_follow_hamming_bound`, plus sizes whose
/// last data word is partial or whose segments straddle bytes.
const DATA_BITS: [usize; 11] = [4, 8, 16, 32, 64, 128, 1, 13, 65, 200, 512];

/// The ECC scheme counters are process-wide, so the tests that move
/// them run one at a time.
static COUNTERS: Mutex<()> = Mutex::new(());

/// The bit-level reference: data at the non-power-of-two positions,
/// each Hamming parity bit as an explicit loop over the positions it
/// covers, then the overall parity over everything else.
fn reference_encode(data_bits: usize, data: &[u8]) -> Vec<bool> {
    let mut r = 1usize;
    while (1usize << r) < data_bits + r + 1 {
        r += 1;
    }
    let n = data_bits + r;
    let mut word = vec![false; n + 1];
    let mut di = 0usize;
    for (pos, slot) in word.iter_mut().enumerate().skip(1) {
        if !pos.is_power_of_two() {
            *slot = (data[di / 8] >> (di % 8)) & 1 == 1;
            di += 1;
        }
    }
    for j in 0..r {
        let p = 1usize << j;
        word[p] = (1..=n).filter(|&pos| pos != p && pos & p != 0 && word[pos]).count() % 2 == 1;
    }
    word[0] = word[1..].iter().filter(|&&b| b).count() % 2 == 1;
    word
}

/// The bit-level reference extension: the data bits, then each
/// segment's parity (powers of two ascending, then the overall bit),
/// one `set_bit` at a time.
fn reference_extend(code: &SecdedCode, segments: usize, block: &Block) -> Block {
    let d = code.data_bits();
    let width = code.parity_bits();
    let mut extended = Block::zeroed(block.byte_len() + (segments * width).div_ceil(8));
    for i in 0..block.bit_len() {
        extended.set_bit(i, block.bit(i));
    }
    for s in 0..segments {
        let mut data = vec![0u8; d.div_ceil(8)];
        for b in 0..d {
            if block.bit(s * d + b) {
                data[b / 8] |= 1 << (b % 8);
            }
        }
        let codeword = reference_encode(d, &data);
        let n = code.codeword_bits() - 1;
        let positions = (1..=n).filter(|p| p.is_power_of_two()).chain([0]);
        for (k, pos) in positions.enumerate() {
            extended.set_bit(block.bit_len() + s * width + k, codeword[pos]);
        }
    }
    extended
}

/// Test data of `bytes` bytes: value-stream blocks (cycled), all-zero,
/// all-one, and every single-bit pattern of the first `bits` bits.
fn corpus(bytes: usize, bits: usize) -> Vec<Vec<u8>> {
    let mut stream = BenchmarkId::Ocean.profile().value_stream(2013);
    let mut out: Vec<Vec<u8>> = (0..32)
        .map(|_| stream.next_block().as_bytes().iter().copied().cycle().take(bytes).collect())
        .collect();
    out.push(vec![0x00; bytes]);
    out.push(vec![0xFF; bytes]);
    for i in 0..bits {
        let mut one = vec![0u8; bytes];
        one[i / 8] |= 1 << (i % 8);
        out.push(one);
    }
    out
}

#[test]
fn word_parallel_encode_equals_the_bit_level_reference() {
    for d in DATA_BITS {
        let code = SecdedCode::new(d);
        for data in corpus(d.div_ceil(8), d) {
            let expected = reference_encode(d, &data);
            assert_eq!(code.encode(&data), expected, "k={d} data={data:02x?}");
        }
    }
}

#[test]
fn decode_corrects_every_single_bit_error_of_a_reference_codeword() {
    for d in DATA_BITS {
        let code = SecdedCode::new(d);
        for mut data in corpus(d.div_ceil(8), 0) {
            let clean = reference_encode(d, &data);
            // Only the code's data bits come back out.
            if d % 8 != 0 {
                data[d / 8] &= (1 << (d % 8)) - 1;
            }
            let mut cw = clean.clone();
            assert_eq!(code.decode(&mut cw), desc_ecc::DecodeOutcome::Clean, "k={d}");
            for i in 0..clean.len() {
                let mut cw = clean.clone();
                cw[i] = !cw[i];
                assert_eq!(code.decode(&mut cw), desc_ecc::DecodeOutcome::Corrected(i), "k={d}");
                assert_eq!(cw, clean, "k={d} bit {i}");
                assert_eq!(&code.extract_data(&cw)[..], &data[..], "k={d} bit {i}");
            }
        }
    }
}

#[test]
fn parity_extension_equals_the_bit_level_reference() {
    // (code, segments): the paper's two codes over a 64-byte block,
    // sub-word segments, and segments that straddle byte boundaries.
    let cases = [
        (SecdedCode::c72_64(), 8),
        (SecdedCode::c137_128(), 4),
        (SecdedCode::new(32), 16),
        (SecdedCode::new(8), 64),
        (SecdedCode::new(4), 128),
        (SecdedCode::new(13), 8),
        (SecdedCode::new(200), 1),
        (SecdedCode::new(512), 1),
    ];
    for (code, segments) in cases {
        let bits = code.data_bits() * segments;
        let scheme = SecdedScheme::new(BinaryScheme::new(64), code.clone(), segments);
        for data in corpus(bits / 8, bits) {
            let block = Block::from_vec(data);
            assert_eq!(
                scheme.extend_with_parity(&block),
                reference_extend(&code, segments, &block),
                "{code} × {segments}"
            );
        }
    }
}

/// `fig28::build_config`'s constructions of the four W-S
/// configurations, in paper order.
fn fig28_configs() -> Vec<(&'static str, Box<dyn TransferScheme>)> {
    let c4 = ChunkSize::PAPER_DEFAULT;
    vec![
        (
            "64-64 Binary",
            Box::new(SecdedScheme::new(BinaryScheme::new(72), SecdedCode::c72_64(), 8)),
        ),
        (
            "128-128 Binary",
            Box::new(SecdedScheme::new(BinaryScheme::new(137), SecdedCode::c137_128(), 4)),
        ),
        (
            "128-64 DESC",
            Box::new(SecdedScheme::new(
                DescScheme::new(144, c4, SkipMode::Zero),
                SecdedCode::c72_64(),
                8,
            )),
        ),
        (
            "128-128 DESC",
            Box::new(SecdedScheme::new(
                DescScheme::new(138, c4, SkipMode::Zero),
                SecdedCode::c137_128(),
                4,
            )),
        ),
    ]
}

/// `n` value-stream blocks (every fifth one null, so the zero-skipping
/// paths see whole null blocks too) and one further probe block.
fn blocks(n: usize, seed: u64) -> (BlockSlab, Block) {
    let mut stream = BenchmarkId::Ocean.profile().value_stream(seed);
    let mut slab = BlockSlab::with_capacity(64, n);
    for i in 0..n {
        let block = if i % 5 == 4 { Block::zeroed(64) } else { stream.next_block() };
        slab.push(&block);
    }
    (slab, stream.next_block())
}

/// Transfers `slab` through the scalar loop on one instance and the
/// batched path on another, and asserts equal costs and equal wire
/// state afterwards.
fn both_paths(
    label: &str,
    scalar: &mut dyn TransferScheme,
    batched: &mut dyn TransferScheme,
    slab: &BlockSlab,
    probe: &Block,
) {
    let mut each = Vec::new();
    transfer_each(scalar, slab, &mut each);
    let mut many = Vec::new();
    batched.transfer_many(slab, &mut many);
    assert_eq!(many.len(), slab.len(), "{label}: one cost per block");
    assert_eq!(each, many, "{label}: costs diverged");
    // The wire state after the batch: one more identical block costs
    // the same on both sides.
    assert_eq!(scalar.transfer(probe), batched.transfer(probe), "{label}: state diverged");
}

#[test]
fn transfer_many_equals_transfer_each_for_the_fig28_configs() {
    let _serial = COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for (s, n) in SLAB_SIZES.into_iter().enumerate() {
        for ((label, mut scalar), (_, mut batched)) in
            fig28_configs().into_iter().zip(fig28_configs())
        {
            let label = format!("{label}, slab of {n}");
            let (slab, probe) = blocks(n, 2013 + s as u64);
            both_paths(&label, &mut *scalar, &mut *batched, &slab, &probe);
            // A second slab continues from the state the first left.
            let (slab, probe) = blocks(n, 4099 + s as u64);
            both_paths(&label, &mut *scalar, &mut *batched, &slab, &probe);
        }
    }
}

#[test]
fn scheme_counters_match_between_the_paths() {
    let _serial = COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let read = |name: &str| desc_telemetry::global().snapshot().counter(name).unwrap_or(0);
    let totals = || (read("ecc.scheme.blocks"), read("ecc.scheme.parity_bits"));
    desc_telemetry::set_enabled(true);
    let (slab, _) = blocks(64, 7);
    for ((label, mut scalar), (_, mut batched)) in fig28_configs().into_iter().zip(fig28_configs())
    {
        let start = totals();
        transfer_each(&mut *scalar, &slab, &mut Vec::new());
        let mid = totals();
        batched.transfer_many(&slab, &mut Vec::new());
        let end = totals();
        let each = (mid.0 - start.0, mid.1 - start.1);
        let many = (end.0 - mid.0, end.1 - mid.1);
        assert_eq!(each, many, "{label}");
        assert_eq!(each.0, 64, "{label}");
        // 8 × (72,64) or 4 × (137,128) segments per 64-byte block.
        let per_block =
            if label.starts_with("64-64") || label.starts_with("128-64") { 64 } else { 36 };
        assert_eq!(each.1, 64 * per_block, "{label}");
    }
    desc_telemetry::set_enabled(false);
}
