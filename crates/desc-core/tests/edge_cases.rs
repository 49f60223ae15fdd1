//! Edge-case integration tests for the codecs: degenerate geometries,
//! extreme chunk sizes, and long-running wire-state consistency.

use desc_core::protocol::{Link, LinkConfig, TraceCapture};
use desc_core::schemes::{
    BinaryScheme, BusInvertScheme, DescScheme, DzcScheme, SchemeKind, SkipMode,
};
use desc_core::{Block, ChunkSize, TransferScheme};

#[test]
fn one_wire_desc_serializes_every_chunk() {
    // 128 chunks over a single wire: 128 rounds.
    let mut s = DescScheme::new(1, ChunkSize::PAPER_DEFAULT, SkipMode::Zero).without_sync_strobe();
    let block = Block::from_bytes(&[0xFF; 64]);
    let cost = s.transfer(&block);
    assert_eq!(cost.data_transitions, 128);
    assert_eq!(cost.cycles, 128 * 15); // every window runs to position 15
    assert_eq!(cost.control_transitions, 128); // one boundary per round
}

#[test]
fn one_wire_link_still_decodes() {
    let cfg = LinkConfig {
        wires: 1,
        chunk_size: ChunkSize::new(4).expect("valid"),
        mode: SkipMode::Zero,
        wire_delay: 1,
        trace: TraceCapture::Off,
    };
    let mut link = Link::new(cfg);
    let block = Block::from_bytes(&[0x5A, 0x00, 0xFF, 0x13]);
    assert_eq!(link.transfer(&block).decoded, block);
}

#[test]
fn more_wires_than_chunks_is_fine() {
    // 8 chunks on 128 wires: 120 wires stay idle.
    let mut s =
        DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero).without_sync_strobe();
    let block = Block::from_bytes(&[0x21, 0x43, 0x65, 0x87]);
    let cost = s.transfer(&block);
    assert_eq!(cost.data_transitions, 8);
    let cfg = LinkConfig {
        wires: 128,
        chunk_size: ChunkSize::new(4).expect("valid"),
        mode: SkipMode::Zero,
        wire_delay: 0,
        trace: TraceCapture::Off,
    };
    assert_eq!(Link::new(cfg).transfer(&block).decoded, block);
}

#[test]
fn single_byte_blocks_work_for_every_scheme() {
    let block = Block::from_bytes(&[0xA7]);
    for kind in SchemeKind::ALL {
        let mut s = kind.build_paper_config();
        let cost = s.transfer(&block);
        assert!(cost.cycles >= 1, "{kind}");
    }
}

#[test]
fn large_blocks_scale_linearly_for_basic_desc() {
    // A 4 KB "block" (e.g. a DMA burst) has exactly bits/4 strobes.
    let big = Block::from_bytes(&vec![0x3C; 4096]);
    let mut s =
        DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::None).without_sync_strobe();
    let cost = s.transfer(&big);
    assert_eq!(cost.data_transitions, 4096 * 2);
}

#[test]
fn wire_state_survives_ten_thousand_transfers() {
    // Accumulated wire state must never corrupt costs: the same block
    // sent an even number of times returns all wires to their start
    // level, so the pattern repeats exactly.
    let a = Block::from_bytes(&[0x0F; 64]);
    let b = Block::from_bytes(&[0xF0; 64]);
    let mut s = BinaryScheme::new(64);
    // The very first transfer starts from all-zero wires; steady state
    // begins with the second period.
    let _cold_start = (s.transfer(&a), s.transfer(&b));
    let steady = (s.transfer(&a), s.transfer(&b));
    for _ in 0..9_998 {
        let pair = (s.transfer(&a), s.transfer(&b));
        assert_eq!(pair, steady);
    }
}

#[test]
fn dzc_and_bic_agree_with_binary_when_they_choose_plain_mode() {
    // For a value whose Hamming distance is small and non-zero, both
    // DZC and BIC transmit plain binary: identical data flips.
    let mut bin = BinaryScheme::new(8);
    let mut dzc = DzcScheme::new(8, 8);
    let mut bic = BusInvertScheme::new(8, 8);
    let block = Block::from_bytes(&[0b0000_0011]); // 2 flips from zero
    assert_eq!(bin.transfer(&block).data_transitions, 2);
    assert_eq!(dzc.transfer(&block).data_transitions, 2);
    assert_eq!(bic.transfer(&block).data_transitions, 2);
}

#[test]
fn all_skip_modes_handle_alternating_extremes() {
    let ones = Block::from_bytes(&[0xFF; 64]);
    let zeros = Block::zeroed(64);
    for mode in [SkipMode::None, SkipMode::Zero, SkipMode::LastValue] {
        let mut s = DescScheme::new(128, ChunkSize::PAPER_DEFAULT, mode).without_sync_strobe();
        for i in 0..64 {
            let cost = s.transfer(if i % 2 == 0 { &ones } else { &zeros });
            assert!(cost.cycles >= 1, "{mode:?} iteration {i}");
            assert!(cost.data_transitions <= 128, "{mode:?} iteration {i}");
        }
    }
}

#[test]
fn eight_bit_chunks_roundtrip_through_the_protocol() {
    let cfg = LinkConfig {
        wires: 16,
        chunk_size: ChunkSize::new(8).expect("valid"),
        mode: SkipMode::Zero,
        wire_delay: 2,
        trace: TraceCapture::Off,
    };
    let mut link = Link::new(cfg);
    let block = Block::from_bytes(&(0..64).map(|i| (255 - i) as u8).collect::<Vec<_>>());
    let out = link.transfer(&block);
    assert_eq!(out.decoded, block);
    // 64 chunks over 16 wires → 4 rounds, windows up to 255 cycles.
    assert!(out.cost.cycles <= 4 * 255);
}

#[test]
fn three_bit_chunks_with_ragged_final_chunk() {
    // 512 bits / 3 = 170.67 → 171 chunks, the last padded; the padding
    // must round-trip as zero.
    let cfg = LinkConfig {
        wires: 19, // 171 = 9 × 19 exactly
        chunk_size: ChunkSize::new(3).expect("valid"),
        mode: SkipMode::LastValue,
        wire_delay: 1,
        trace: TraceCapture::Off,
    };
    let mut link = Link::new(cfg);
    let block = Block::from_bytes(&(0..64).map(|i| (i * 89 + 3) as u8).collect::<Vec<_>>());
    assert_eq!(link.transfer(&block).decoded, block);
}
