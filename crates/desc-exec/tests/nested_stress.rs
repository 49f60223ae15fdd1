//! Nested-submission stress: many outer "cell" tasks each opening an
//! inner "partition" region, all sharing a pool configured to exactly
//! two units of concurrency (one worker thread + the caller). This is
//! the shape `run_matrix` × `SystemSim` produces in practice; the test
//! must neither deadlock nor perturb results.
//!
//! Lives in its own integration-test binary so no other test can have
//! raised the process-wide pool target above 2.

#[test]
fn many_cells_times_many_partitions_on_a_two_thread_pool() {
    desc_exec::configure(2);
    assert!(desc_exec::stats().workers >= 1, "pool must have a real worker");

    let expect: Vec<u64> =
        (0..48u64).map(|c| (0..32u64).map(|p| c * 1_000 + p * p).sum::<u64>()).collect();

    for round in 0..10 {
        let got = desc_exec::run_labeled("region", 48, 4, |c| {
            let c = c as u64;
            desc_exec::run_labeled("region", 32, 4, |p| {
                let p = p as u64;
                // A little real work so claims interleave across threads.
                let mut acc = 0u64;
                for k in 0..200 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
                c * 1_000 + p * p
            })
            .into_iter()
            .sum::<u64>()
        });
        assert_eq!(got, expect, "round {round}");
    }
}
