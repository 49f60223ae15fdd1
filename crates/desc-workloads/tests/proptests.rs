//! Property tests for the workload generators, on the seeded harness
//! `desc_core::rng::check_property`. Every property runs on all 24
//! benchmark profiles; only the seeds are drawn.

use desc_core::rng::check_property;
use desc_workloads::values::{Archetype, ValueModel};
use desc_workloads::{parallel_suite, spec_suite, BenchmarkProfile, ChunkStats};

/// The 16 parallel and 8 SPEC profiles.
fn all_profiles() -> Vec<BenchmarkProfile> {
    parallel_suite().into_iter().chain(spec_suite()).collect()
}

/// Every benchmark's value stream is deterministic in the seed and
/// produces 64-byte blocks.
#[test]
fn value_streams_are_deterministic() {
    check_property("value_streams_are_deterministic", 8, |rng| {
        for p in all_profiles() {
            let seed = rng.gen_range(0u64..1000);
            let mut a = p.value_stream(seed);
            let mut b = p.value_stream(seed);
            for _ in 0..8 {
                let block = a.next_block();
                assert_eq!(block.byte_len(), 64, "{} seed {seed}", p.name);
                assert_eq!(block, b.next_block(), "{} seed {seed}", p.name);
            }
        }
    });
}

/// Traces are block-aligned, in-range, and deterministic.
#[test]
fn traces_are_well_formed() {
    check_property("traces_are_well_formed", 8, |rng| {
        for p in all_profiles() {
            let seed = rng.gen_range(0u64..1000);
            let mut gen = p.trace(seed);
            for _ in 0..256 {
                let a = gen.next_access();
                assert_eq!(a.addr % 64, 0, "{} seed {seed}", p.name);
                assert!(a.addr < p.working_set_bytes as u64, "{} seed {seed}", p.name);
                assert!((a.core as usize) < p.cores, "{} seed {seed}", p.name);
            }
        }
    });
}

/// Chunk statistics are proper distributions for every app.
#[test]
fn chunk_stats_are_distributions() {
    for p in all_profiles() {
        let stats = ChunkStats::measure_stream(&mut p.value_stream(5), 150);
        let sum: f64 = stats.frequencies().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{}", p.name);
        assert!((0.0..=1.0).contains(&stats.zero_fraction()), "{}", p.name);
        assert!((0.0..=1.0).contains(&stats.repeat_fraction()), "{}", p.name);
        assert_eq!(stats.total_chunks(), 150 * 128, "{}", p.name);
    }
}

/// A single-archetype model produces blocks of that archetype's
/// character: null blocks are null, text is printable.
#[test]
fn pure_archetypes_behave() {
    let null_only = ValueModel {
        null: 1.0,
        sparse_int: 0.0,
        small_int: 0.0,
        dense_fp: 0.0,
        text: 0.0,
        pointer: 0.0,
        near_repeat: 0.0,
    };
    let text_only = ValueModel { null: 0.0, text: 1.0, ..null_only };
    check_property("pure_archetypes_behave", 256, |rng| {
        let seed = rng.gen_range(0u64..500);
        assert!(null_only.stream(seed).next_block().is_null(), "seed {seed}");
        let block = text_only.stream(seed).next_block();
        assert!(block.as_bytes().iter().all(|b| (0x20..0x7F).contains(b)), "seed {seed}");
    });
    let _ = Archetype::Null; // the enum is part of the public API
}

#[test]
fn every_profile_is_reachable_and_distinct() {
    let all = all_profiles();
    assert_eq!(all.len(), 24);
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            assert_ne!(a.name, b.name);
        }
    }
}
