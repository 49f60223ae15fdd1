//! `bench_codecs` — throughput harness for the ECC codec hot paths.
//!
//! ```text
//! cargo run --release -p desc-bench --bin bench_codecs [-- OUTPUT.json]
//! ```
//!
//! Measures SECDED encode and decode rates for the paper's (72,64) and
//! (137,128) codes, the full chunk-interleaved encode → corrupt →
//! correct round trip on 64-byte blocks, and the SECDED transfer
//! scheme of each Fig. 28 configuration in blocks/s through the scalar
//! `transfer_each` loop and through `transfer_many` on slabs of
//! [`SLAB`] blocks. Each scheme row first checks that the two paths
//! return equal costs and exits with status 1 if they do not. The
//! numbers are appended to `BENCH_ecc.json` in the shared history
//! format (latest run in `results`, every run in `history`).

use desc_bench::{best_rate, Harness};
use desc_core::{transfer_each, Block, BlockSlab, TransferScheme};
use desc_ecc::{InterleavedBlock, SecdedCode};
use desc_experiments::figures::fig28;
use desc_telemetry::Json;
use desc_workloads::BenchmarkId;
use std::hint::black_box;

const ITERS: usize = 20_000;
const REPS: usize = 5;
const POOL: usize = 256;
/// Blocks per `transfer_many` call in the scheme rows.
const SLAB: usize = 256;
/// Slabs per repetition in the scheme rows.
const SLAB_ITERS: usize = 40;

fn bench_secded(code: &SecdedCode, data: &[Vec<u8>]) -> (f64, f64) {
    // Warmup + corpus of clean codewords for the decode side.
    let codewords: Vec<Vec<bool>> = data.iter().map(|d| code.encode(d)).collect();
    let encode_rate = best_rate(ITERS, REPS, {
        let mut i = 0;
        move || {
            black_box(code.encode(&data[i % data.len()]));
            i += 1;
        }
    });
    let mut scratch = codewords.clone();
    let decode_rate = best_rate(ITERS, REPS, {
        let mut i = 0;
        move || {
            let w = &mut scratch[i % POOL];
            black_box(code.decode(w).is_usable());
            i += 1;
        }
    });
    (encode_rate, decode_rate)
}

/// Blocks/s of `name`'s scheme through `transfer_each` and through
/// `transfer_many`, after checking that both paths cost `slab` alike.
fn bench_scheme(name: &str, slab: &BlockSlab) -> (f64, f64) {
    let (mut scalar, mut batched) = (fig28::build_config(name), fig28::build_config(name));
    let (mut each, mut many) = (Vec::new(), Vec::new());
    transfer_each(&mut scalar, slab, &mut each);
    batched.transfer_many(slab, &mut many);
    if each != many {
        eprintln!("bench_codecs: {name}: transfer_many costs differ from transfer_each");
        std::process::exit(1);
    }
    let mut costs = Vec::with_capacity(SLAB);
    let each_rate = SLAB as f64
        * best_rate(SLAB_ITERS, REPS, || {
            costs.clear();
            transfer_each(&mut scalar, slab, &mut costs);
            black_box(&costs);
        });
    let many_rate = SLAB as f64
        * best_rate(SLAB_ITERS, REPS, || {
            costs.clear();
            batched.transfer_many(slab, &mut costs);
            black_box(&costs);
        });
    (each_rate, many_rate)
}

fn main() {
    let mut harness = Harness::from_args("ecc_codecs", "BENCH_ecc.json");
    let mut stream = BenchmarkId::Ocean.profile().value_stream(2013);
    let blocks: Vec<Block> = (0..POOL).map(|_| stream.next_block()).collect();

    let mut slab = BlockSlab::with_capacity(64, SLAB);
    for block in blocks.iter().cycle().take(SLAB) {
        slab.push(block);
    }
    println!("{:<28} {:>16}", "codec", "ops/sec");
    let mut record = |name: &str, rate: f64| {
        println!("{name:<28} {rate:>16.0}");
        harness.push(
            Json::obj()
                .with("codec", Json::Str(name.to_owned()))
                .with("ops_per_sec", Json::Num(rate.round())),
        );
    };

    for (label, code, seg_bytes) in
        [("secded_72_64", SecdedCode::c72_64(), 8), ("secded_137_128", SecdedCode::c137_128(), 16)]
    {
        let data: Vec<Vec<u8>> =
            blocks.iter().map(|b| b.as_bytes()[..seg_bytes].to_vec()).collect();
        let (enc, dec) = bench_secded(&code, &data);
        record(&format!("{label}_encode"), enc);
        record(&format!("{label}_decode"), dec);
    }

    // Full interleaved path: encode a block into chunk-interleaved
    // codewords, flip one chunk bit, and correct it back.
    let interleave_rate = best_rate(ITERS / 4, REPS, {
        let mut i = 0;
        move || {
            let mut cw = InterleavedBlock::encode_paper(&blocks[i % POOL]);
            cw.corrupt_chunk(i % cw.chunks().len(), 1);
            black_box(cw.decode().usable());
            i += 1;
        }
    });
    record("interleave_paper_roundtrip", interleave_rate);

    // The Fig. 28 SECDED schemes, one slab of the value-stream blocks
    // per call, through both paths.
    for name in fig28::CONFIGS {
        let (each, many) = bench_scheme(name, &slab);
        println!("secded_scheme {name:<15} {each:>16.0} {many:>16.0}  (blocks/s: each, many)");
        harness.push(
            Json::obj()
                .with("codec", Json::Str(format!("secded_scheme {name}")))
                .with("slab", Json::UInt(SLAB as u64))
                .with("transfer_each_blocks_per_sec", Json::Num(each.round()))
                .with("transfer_many_blocks_per_sec", Json::Num(many.round())),
        );
    }

    let config = Json::obj()
        .with("block_bytes", Json::UInt(64))
        .with("workload", Json::Str("ocean value stream, seed 2013".to_owned()))
        .with("iters", Json::UInt(ITERS as u64))
        .with("reps", Json::UInt(REPS as u64));
    harness.finish(config);
}
