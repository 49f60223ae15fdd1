//! `bench_transfers` — dependency-free throughput harness for the
//! cycle-stepped DESC link hot path.
//!
//! ```text
//! cargo run --release -p desc-bench --bin bench_transfers [-- OUTPUT.json]
//! ```
//!
//! Measures steady-state `Link::transfer` throughput (transfers/sec
//! and payload bytes/sec) for each skip mode on the paper's 128-wire,
//! 4-bit-chunk link carrying Ocean-profile 64-byte blocks, and writes
//! `BENCH_link.json` recording both the frozen pre-optimisation
//! baseline and the current numbers side by side. The file is
//! append-mode: `results` holds the latest run and `history` keeps a
//! time series of every run (see `desc_bench::append_history`).
//!
//! Two further axes ride along:
//!
//! * **batch** — scalar-vs-batched speedup per analytic scheme at slab
//!   sizes 1/16/256: per-block `TransferScheme::transfer` calls against
//!   one `TransferScheme::transfer_many` over the same blocks. The
//!   rows cover the paper configurations plus the word-parallel
//!   kernels: Fig. 15's bus-invert family at wide and narrow segments,
//!   zero-skipped DESC at Fig. 26's 1-, 2- and 8-bit chunks, and a
//!   64-wire binary bus. Each row first checks that both paths return
//!   the same costs over the whole pool and exits 1 if not. The
//!   cycle-stepped `Link` has no batched entry; it is measured only by
//!   the scalar rows above.
//! * **micro** — `Block::hamming_distance`'s u64 word fold against a
//!   byte-at-a-time reference loop.
//!
//! Timing uses `std::time::Instant` only: each measurement is warmed
//! up and then timed over several repetitions, keeping the best (least
//! scheduler-disturbed) repetition.

use desc_bench::{best_rate, Harness};
use desc_core::protocol::{Link, LinkConfig, TraceCapture};
use desc_core::schemes::{
    BinaryScheme, BusInvertScheme, DescScheme, DzcScheme, EncodedZeroSkipBusInvertScheme, SkipMode,
    ZeroSkipBusInvertScheme,
};
use desc_core::{Block, BlockSlab, ChunkSize, TransferCost, TransferScheme};
use desc_telemetry::Json;
use desc_workloads::BenchmarkId;
use std::hint::black_box;

/// Pre-optimisation throughput on this harness's exact workload
/// (recorded before the hot-path rework: `Vec<bool>` traces always
/// captured, per-transfer allocations, O(rounds²) chained decode).
const BASELINE: [(SkipMode, f64); 3] =
    [(SkipMode::None, 106_796.0), (SkipMode::Zero, 104_566.0), (SkipMode::LastValue, 98_700.0)];

const BLOCK_BYTES: f64 = 64.0;
const POOL: usize = 256;
const TRANSFERS_PER_REP: usize = 16_000;
/// Blocks moved per repetition on the batch axis (scalar and batched
/// sides move the same count, so the rates compare directly).
const BATCH_BLOCKS_PER_REP: usize = 8_192;
const BATCH_SIZES: [usize; 3] = [1, 16, 256];
const REPS: usize = 5;

fn mode_name(mode: SkipMode) -> &'static str {
    match mode {
        SkipMode::None => "basic",
        SkipMode::Zero => "zero_skip",
        SkipMode::LastValue => "last_value_skip",
    }
}

fn bench_mode(mode: SkipMode, blocks: &[Block]) -> f64 {
    let mut link = Link::new(LinkConfig {
        wires: 128,
        chunk_size: ChunkSize::PAPER_DEFAULT,
        mode,
        wire_delay: 2,
        trace: TraceCapture::Off,
    });
    // Warmup: fault in the pool and let the scratch buffers size
    // themselves.
    for b in blocks {
        black_box(link.transfer(b).cost.cycles);
    }
    let mut i = 0usize;
    best_rate(TRANSFERS_PER_REP, REPS, || {
        black_box(link.transfer(&blocks[i % blocks.len()]).cost.cycles);
        i += 1;
    })
}

/// Packs the pool into slabs of `batch` blocks each.
fn slabs_of(blocks: &[Block], batch: usize) -> Vec<BlockSlab> {
    blocks
        .chunks(batch)
        .map(|chunk| {
            let mut slab = BlockSlab::with_capacity(blocks[0].byte_len(), chunk.len());
            for b in chunk {
                slab.push(b);
            }
            slab
        })
        .collect()
}

/// Times a fresh `scheme()`'s per-block `transfer` against another's
/// `transfer_many` per slab of `batch` blocks over the same pool, then
/// prints and records the row (scalar and batched blocks/sec).
///
/// First feeds the whole pool both ways from power-on and exits the
/// process with status 1 if any block's cost differs, so a kernel that
/// drifts from its scalar path fails the run instead of being timed.
fn batch_row(
    harness: &mut Harness,
    mode: &str,
    batch: usize,
    blocks: &[Block],
    scheme: &dyn Fn() -> Box<dyn TransferScheme>,
) {
    let slabs = slabs_of(blocks, batch);
    let mut s = scheme();
    let mut b = scheme();
    let expected: Vec<TransferCost> = blocks.iter().map(|blk| s.transfer(blk)).collect();
    let mut got = Vec::with_capacity(blocks.len());
    for slab in &slabs {
        b.transfer_many(slab, &mut got);
    }
    if expected != got {
        eprintln!(
            "bench_transfers: {mode} batch {batch}: transfer_many costs differ from transfer"
        );
        std::process::exit(1);
    }

    let mut i = 0usize;
    let scalar = best_rate(BATCH_BLOCKS_PER_REP, REPS, || {
        black_box(s.transfer(&blocks[i % blocks.len()]).cycles);
        i += 1;
    });
    let mut costs: Vec<TransferCost> = Vec::with_capacity(batch);
    let mut k = 0usize;
    let iters = (BATCH_BLOCKS_PER_REP / batch).max(1);
    let batched = best_rate(iters, REPS, || {
        costs.clear();
        b.transfer_many(&slabs[k % slabs.len()], &mut costs);
        black_box(costs.len());
        k += 1;
    }) * batch as f64;

    let speedup = batched / scalar;
    println!("{mode:<20} {batch:>6} {scalar:>16.0} {batched:>17.0} {speedup:>7.2}x");
    harness.push(
        Json::obj()
            .with("mode", Json::Str(mode.to_owned()))
            .with("batch", Json::UInt(batch as u64))
            .with("scalar_blocks_per_sec", Json::Num((scalar * 10.0).round() / 10.0))
            .with("batched_blocks_per_sec", Json::Num((batched * 10.0).round() / 10.0))
            .with("batch_speedup", Json::Num((speedup * 1000.0).round() / 1000.0)),
    );
}

/// Byte-at-a-time Hamming distance — the pre-word-fold reference the
/// micro row compares [`Block::hamming_distance`] against.
fn hamming_bytewise(a: &Block, b: &Block) -> u32 {
    a.as_bytes().iter().zip(b.as_bytes()).map(|(x, y)| (x ^ y).count_ones()).sum()
}

fn main() {
    let mut harness = Harness::from_args("link_transfers", "BENCH_link.json");
    let mut stream = BenchmarkId::Ocean.profile().value_stream(2013);
    let blocks: Vec<Block> = (0..POOL).map(|_| stream.next_block()).collect();

    println!(
        "{:<16} {:>14} {:>14} {:>16} {:>8}",
        "mode", "baseline t/s", "current t/s", "current bytes/s", "speedup"
    );
    for &(mode, baseline_tps) in &BASELINE {
        let tps = bench_mode(mode, &blocks);
        let speedup = tps / baseline_tps;
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>16.0} {:>7.2}x",
            mode_name(mode),
            baseline_tps,
            tps,
            tps * BLOCK_BYTES,
            speedup
        );
        harness.push(
            Json::obj()
                .with("mode", Json::Str(mode_name(mode).to_owned()))
                .with("baseline_transfers_per_sec", Json::UInt(baseline_tps as u64))
                .with("baseline_bytes_per_sec", Json::UInt((baseline_tps * BLOCK_BYTES) as u64))
                .with("current_transfers_per_sec", Json::Num((tps * 10.0).round() / 10.0))
                .with("current_bytes_per_sec", Json::Num((tps * BLOCK_BYTES * 10.0).round() / 10.0))
                .with("speedup", Json::Num((speedup * 1000.0).round() / 1000.0)),
        );
    }

    // ---- Batch axis: scalar vs transfer_many per analytic scheme. ---
    println!(
        "\n{:<20} {:>6} {:>16} {:>17} {:>8}",
        "mode", "batch", "scalar blk/s", "batched blk/s", "speedup"
    );
    let chunk = |bits| ChunkSize::new(bits).expect("valid chunk width");
    for &batch in &BATCH_SIZES {
        let mut row = |mode: &str, scheme: &dyn Fn() -> Box<dyn TransferScheme>| {
            batch_row(&mut harness, mode, batch, &blocks, scheme);
        };
        row("conventional_binary", &|| Box::new(BinaryScheme::new(128)));
        row("dzc", &|| Box::new(DzcScheme::new(128, 8)));
        row("bus_invert", &|| Box::new(BusInvertScheme::new(128, 32)));
        row("zero_skip_analytic", &|| {
            Box::new(DescScheme::new(128, ChunkSize::PAPER_DEFAULT, SkipMode::Zero))
        });
        // Fig. 15's bus-invert family, wide and narrow segments.
        row("zs_bic_64w_32b", &|| Box::new(ZeroSkipBusInvertScheme::new(64, 32)));
        row("ezs_bic_64w_16b", &|| Box::new(EncodedZeroSkipBusInvertScheme::new(64, 16)));
        row("bic_64w_4b", &|| Box::new(BusInvertScheme::new(64, 4)));
        row("zs_bic_64w_4b", &|| Box::new(ZeroSkipBusInvertScheme::new(64, 4)));
        // Fig. 26's chunk widths on the word-parallel DESC kernel.
        for bits in [1, 2, 8] {
            row(&format!("zero_skip_128w_{bits}b"), &|| {
                Box::new(DescScheme::new(128, chunk(bits), SkipMode::Zero))
            });
        }
        row("binary_64w", &|| Box::new(BinaryScheme::new(64)));
    }

    // ---- Micro: hamming distance, byte loop vs u64 word fold. -------
    let pairs: Vec<(&Block, &Block)> =
        (0..blocks.len()).map(|i| (&blocks[i], &blocks[(i + 1) % blocks.len()])).collect();
    let mut i = 0usize;
    let bytewise = best_rate(BATCH_BLOCKS_PER_REP, REPS, || {
        let (a, b) = pairs[i % pairs.len()];
        black_box(hamming_bytewise(a, b));
        i += 1;
    });
    let mut i = 0usize;
    let folded = best_rate(BATCH_BLOCKS_PER_REP, REPS, || {
        let (a, b) = pairs[i % pairs.len()];
        black_box(a.hamming_distance(b));
        i += 1;
    });
    let speedup = folded / bytewise;
    println!(
        "\nhamming_distance     bytewise {bytewise:>14.0}/s  word-fold {folded:>14.0}/s  {speedup:>5.2}x"
    );
    harness.push(
        Json::obj()
            .with("micro", Json::Str("hamming_distance".to_owned()))
            .with("bytewise_per_sec", Json::Num((bytewise * 10.0).round() / 10.0))
            .with("word_fold_per_sec", Json::Num((folded * 10.0).round() / 10.0))
            .with("speedup", Json::Num((speedup * 1000.0).round() / 1000.0)),
    );

    let config = Json::obj()
        .with("wires", Json::UInt(128))
        .with("chunk_bits", Json::UInt(4))
        .with("wire_delay", Json::UInt(2))
        .with("block_bytes", Json::UInt(BLOCK_BYTES as u64))
        .with("workload", Json::Str("ocean value stream, seed 2013".to_owned()))
        .with("transfers_per_rep", Json::UInt(TRANSFERS_PER_REP as u64))
        .with("batch_blocks_per_rep", Json::UInt(BATCH_BLOCKS_PER_REP as u64))
        .with("batch_sizes", Json::Arr(BATCH_SIZES.iter().map(|&b| Json::UInt(b as u64)).collect()))
        .with("reps", Json::UInt(REPS as u64));
    harness.finish(config);
}
