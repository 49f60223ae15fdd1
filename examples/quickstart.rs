//! Quickstart: encode one cache block with every transfer scheme and
//! watch DESC decouple wire activity from data content.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use desc::core::protocol::{Link, LinkConfig, TraceCapture};
use desc::core::schemes::{SchemeKind, SkipMode};
use desc::core::{Block, ChunkSize, TransferScheme};

fn main() {
    // A realistic L2 block: sparse integers (mostly zero bytes).
    let mut bytes = [0u8; 64];
    bytes[0] = 0xDE;
    bytes[1] = 0x07;
    bytes[24] = 0x51;
    bytes[40] = 0x03;
    let sparse = Block::from_bytes(&bytes);
    // And a dense one: random-looking floating-point data.
    let dense_bytes: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(97) ^ 0x5A) as u8).collect();
    let dense = Block::from_bytes(&dense_bytes);

    println!("Transfer cost of a sparse block, then a dense block:\n");
    println!("{:<32} {:>8} {:>8} {:>8} {:>8}", "scheme", "flips#1", "cyc#1", "flips#2", "cyc#2");
    for kind in SchemeKind::ALL {
        let mut scheme = kind.build_paper_config();
        let a = scheme.transfer(&sparse);
        let b = scheme.transfer(&dense);
        println!(
            "{:<32} {:>8} {:>8} {:>8} {:>8}",
            kind.label(),
            a.total_transitions(),
            a.cycles,
            b.total_transitions(),
            b.cycles
        );
    }

    // The protocol layer really round-trips: decode from toggles only.
    let cfg = LinkConfig {
        wires: 16,
        chunk_size: ChunkSize::new(4).expect("valid chunk size"),
        mode: SkipMode::Zero,
        wire_delay: 2,
        trace: TraceCapture::Off,
    };
    let mut link = Link::new(cfg);
    let out = link.transfer(&sparse);
    assert_eq!(out.decoded, sparse);
    println!("\nCycle-stepped DESC link decoded the sparse block correctly");
    println!(
        "({} transitions in {} cycles across 16 data wires).",
        out.cost.total_transitions(),
        out.cost.cycles
    );
}
