//! Property tests for the SECDED codes and the interleaved layout, on
//! the seeded harness `desc_core::rng::check_property`.

use desc_core::rng::{check_property, Rng64};
use desc_core::Block;
use desc_ecc::{DecodeOutcome, InterleavedBlock, SecdedCode};

const CASES: u64 = 256;

fn bytes(rng: &mut Rng64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen()).collect()
}

/// Two distinct indices below `n`.
fn distinct_pair(rng: &mut Rng64, n: usize) -> (usize, usize) {
    let i = rng.gen_range(0..n);
    let j = rng.gen_range(0..n - 1);
    (i, if j >= i { j + 1 } else { j })
}

/// Clean encode/decode round-trips for arbitrary data under both
/// paper codes.
#[test]
fn secded_roundtrip() {
    check_property("secded_roundtrip", CASES, |rng| {
        let data = bytes(rng, 16);
        for code in [SecdedCode::c72_64(), SecdedCode::c137_128()] {
            let needed = code.data_bits() / 8;
            let mut cw = code.encode(&data[..needed]);
            assert_eq!(code.decode(&mut cw), DecodeOutcome::Clean, "{code}");
            assert_eq!(code.extract_data(&cw), &data[..needed], "{code}");
        }
    });
}

/// Every single-bit flip is corrected back to the original data.
#[test]
fn secded_corrects_any_single_flip() {
    // Every flip position per case, so fewer cases.
    check_property("secded_corrects_any_single_flip", 64, |rng| {
        let data = bytes(rng, 16);
        let code = SecdedCode::c137_128();
        let clean = code.encode(&data);
        for i in 0..code.codeword_bits() {
            let mut cw = clean.clone();
            cw[i] = !cw[i];
            assert!(code.decode(&mut cw).is_corrected(), "flip {i}");
            assert_eq!(code.extract_data(&cw), data, "flip {i}");
        }
    });
}

/// Every double-bit flip is reported, never silently accepted.
#[test]
fn secded_detects_any_double_flip() {
    check_property("secded_detects_any_double_flip", CASES, |rng| {
        let data = bytes(rng, 8);
        let code = SecdedCode::c72_64();
        let (i, j) = distinct_pair(rng, code.codeword_bits());
        let mut cw = code.encode(&data);
        cw[i] = !cw[i];
        cw[j] = !cw[j];
        assert_eq!(code.decode(&mut cw), DecodeOutcome::DoubleError, "flips {i} and {j}");
    });
}

/// Interleaved layout round-trips and survives any single-chunk
/// corruption with any non-zero mask.
#[test]
fn interleave_corrects_any_chunk_fault() {
    check_property("interleave_corrects_any_chunk_fault", CASES, |rng| {
        let block = Block::from_vec(bytes(rng, 64));
        let mut e = InterleavedBlock::encode_paper(&block);
        let idx = rng.gen_range(0..e.chunks().len());
        let mask = rng.gen_range(1u16..16);
        e.corrupt_chunk(idx, mask);
        let d = e.decode();
        assert!(d.usable(), "chunk {idx} mask {mask:#x}");
        assert_eq!(d.block, block, "chunk {idx} mask {mask:#x}");
    });
}

/// Two chunk faults are either corrected correctly (disjoint
/// segments) or flagged — never a silent wrong answer.
#[test]
fn interleave_never_silently_wrong_on_double_faults() {
    check_property("interleave_never_silently_wrong_on_double_faults", CASES, |rng| {
        let block = Block::from_vec(bytes(rng, 64));
        let mut e = InterleavedBlock::encode_paper(&block);
        let (i, j) = distinct_pair(rng, e.chunks().len());
        let (m1, m2) = (rng.gen_range(1u16..16), rng.gen_range(1u16..16));
        e.corrupt_chunk(i, m1);
        e.corrupt_chunk(j, m2);
        let d = e.decode();
        if d.usable() {
            assert_eq!(d.block, block, "chunks {i}/{j}, masks {m1:#x}/{m2:#x}");
        }
    });
}
