//! Regression test for the SignalTrace replay hook: a captured packed
//! waveform, fed back through the toggle-detector circuit models, must
//! re-decode to exactly the chunks that were transferred.

use desc_core::protocol::{replay_trace, Link, LinkConfig, TraceCapture};
use desc_core::rng::Rng64;
use desc_core::schemes::SkipMode;
use desc_core::{Block, ChunkSize, Chunks};

fn random_block(rng: &mut Rng64, bytes: usize) -> Block {
    let mut data = vec![0u8; bytes];
    for b in &mut data {
        // Mix of zero and non-zero bytes so skip paths are exercised.
        *b = if rng.gen_bool(0.4) { 0 } else { (rng.next_u64() & 0xFF) as u8 };
    }
    Block::from_vec(data)
}

fn check_mode(mode: SkipMode, wires: usize, bits: u8, seed: u64) {
    let chunk_size = ChunkSize::new(bits).expect("valid chunk size");
    let config = LinkConfig { wires, chunk_size, mode, wire_delay: 2, trace: TraceCapture::Packed };
    let mut link = Link::new(config);
    let mut rng = Rng64::seed_from_u64(seed);
    // Per-wire last-value state before each transfer (power-on: zeros);
    // both endpoints track this, so the replayer may assume it too.
    let mut last = vec![0u16; wires];
    for transfer in 0..8 {
        let block = random_block(&mut rng, 64);
        let expected = Chunks::split(&block, chunk_size);
        let out = link.transfer(&block);
        assert_eq!(out.decoded, block, "link decode failed (mode {mode:?})");
        let trace = out.trace.as_ref().expect("capture was requested");

        let replayed = replay_trace(trace, &config, expected.len(), &last);
        assert_eq!(
            replayed,
            expected.values(),
            "replayed chunks diverge (mode {mode:?}, transfer {transfer})"
        );
        let reassembled = Chunks::from_values(chunk_size, replayed).reassemble(block.byte_len());
        assert_eq!(reassembled, block, "replayed block diverges (mode {mode:?})");

        for (i, &v) in expected.values().iter().enumerate() {
            last[i % wires] = v;
        }
    }
}

#[test]
fn replay_matches_basic_desc() {
    check_mode(SkipMode::None, 16, 4, 0xDE5C_0001);
}

#[test]
fn replay_matches_zero_skip() {
    check_mode(SkipMode::Zero, 16, 4, 0xDE5C_0002);
}

#[test]
fn replay_matches_last_value_skip() {
    check_mode(SkipMode::LastValue, 16, 4, 0xDE5C_0003);
}

#[test]
fn replay_covers_ragged_and_narrow_links() {
    // Non-power-of-two wire counts and 2-bit chunks produce ragged
    // rounds; the paper's 128-wire interface is the wide extreme.
    check_mode(SkipMode::Zero, 7, 2, 0xDE5C_0004);
    check_mode(SkipMode::LastValue, 3, 8, 0xDE5C_0005);
    check_mode(SkipMode::None, 128, 4, 0xDE5C_0006);
}

#[test]
fn replay_power_on_accepts_empty_last() {
    let config = LinkConfig {
        wires: 8,
        chunk_size: ChunkSize::new(4).expect("valid chunk size"),
        mode: SkipMode::LastValue,
        wire_delay: 0,
        trace: TraceCapture::Packed,
    };
    let mut link = Link::new(config);
    let block = Block::from_bytes(&[0xA5; 64]);
    let out = link.transfer(&block);
    let trace = out.trace.expect("capture was requested");
    let expected = Chunks::split(&block, config.chunk_size);
    // An empty slice means "power-on state" (all zeros).
    let replayed = replay_trace(&trace, &config, expected.len(), &[]);
    assert_eq!(replayed, expected.values());
}
