//! Small, dependency-free deterministic PRNG for workload synthesis,
//! fault injection, and randomized tests.
//!
//! The repository builds hermetically offline, so instead of the
//! `rand` crate every consumer uses [`Rng64`]: a xoshiro256** core
//! seeded through SplitMix64 (the seeding procedure recommended by the
//! xoshiro authors). The API mirrors the tiny slice of `rand` this
//! workspace uses — `seed_from_u64`, `gen`, `gen_range`, `gen_bool` —
//! so the streams are deterministic per seed and stable across
//! platforms and releases of this repository.
//!
//! These generators are for *simulation reproducibility*, not
//! cryptography.
//!
//! # Examples
//!
//! ```
//! use desc_core::rng::Rng64;
//!
//! let mut a = Rng64::seed_from_u64(2013);
//! let mut b = Rng64::seed_from_u64(2013);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let d: f64 = a.gen();
//! assert!((0.0..1.0).contains(&d));
//! let v = a.gen_range(10u32..20);
//! assert!((10..20).contains(&v));
//! ```

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion and available directly for cheap stateless
/// hashing of seeds into independent stream identifiers.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a base seed with a stream identifier into an independent
/// derived seed.
///
/// Used wherever one logical seed must fan out into several
/// statistically independent streams — e.g. bank-sharded simulation
/// derives each bank's value-stream seed from `(scale.seed, bank_id)`.
/// Two SplitMix64 steps decorrelate even adjacent `(seed, stream)`
/// pairs; the result is stable across platforms and releases.
///
/// # Examples
///
/// ```
/// use desc_core::rng::mix_seed;
///
/// assert_eq!(mix_seed(2013, 3), mix_seed(2013, 3));
/// assert_ne!(mix_seed(2013, 3), mix_seed(2013, 4));
/// assert_ne!(mix_seed(2013, 3), mix_seed(2014, 3));
/// ```
#[must_use]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let first = splitmix64(&mut state);
    first ^ splitmix64(&mut state)
}

/// Runs `property` on `cases` seeded inputs: the workspace's property
/// test harness. Case `i` draws from an [`Rng64`] seeded with
/// `mix_seed(hash(name), i)`, so the cases are fixed and rerunning the
/// test replays a failure. There is no shrinking.
///
/// # Panics
///
/// Panics, naming the property, the case index and its seed, when
/// `property` panics on any case.
#[doc(hidden)]
pub fn check_property(name: &str, cases: u64, mut property: impl FnMut(&mut Rng64)) {
    let base = name_hash(name);
    for case in 0..cases {
        let seed = mix_seed(base, case);
        let mut rng = Rng64::seed_from_u64(seed);
        let run = std::panic::AssertUnwindSafe(|| property(&mut rng));
        if let Err(cause) = std::panic::catch_unwind(run) {
            let why = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("property `{name}` failed at case {case} (seed {seed:#018x}): {why}");
        }
    }
}

/// FNV-1a of a property name: each property draws its own inputs.
fn name_hash(name: &str) -> u64 {
    name.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// A deterministic xoshiro256** generator.
///
/// Same seed → same stream, on every platform, forever. See the module
/// docs for the API contract.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { s }
    }

    /// The next 64 uniformly distributed bits (xoshiro256**).
    #[allow(clippy::should_implement_trait)] // no Iterator: infinite, primitive
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draws a uniform value of type `T` (see [`SampleValue`] for the
    /// supported types and their distributions).
    pub fn gen<T: SampleValue>(&mut self) -> T {
        T::sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Draws a uniform value from a half-open (`a..b`) or inclusive
    /// (`a..=b`) integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform `u64` below `bound` via the widening-multiply method.
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        (((u128::from(self.next_u64())) * u128::from(bound)) >> 64) as u64
    }
}

/// Types [`Rng64::gen`] can produce.
pub trait SampleValue {
    /// Draws one value from `rng`.
    fn sample(rng: &mut Rng64) -> Self;
}

impl SampleValue for u64 {
    fn sample(rng: &mut Rng64) -> Self {
        rng.next_u64()
    }
}

impl SampleValue for u32 {
    fn sample(rng: &mut Rng64) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleValue for u16 {
    fn sample(rng: &mut Rng64) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl SampleValue for u8 {
    fn sample(rng: &mut Rng64) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl SampleValue for bool {
    fn sample(rng: &mut Rng64) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Uniform in `[0, 1)` with 53 bits of precision.
impl SampleValue for f64 {
    fn sample(rng: &mut Rng64) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`Rng64::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one value from `rng` uniformly over the range.
    fn sample(self, rng: &mut Rng64) -> Self::Output;
}

macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng64) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = u64::from(self.end - self.start);
                self.start + rng.bounded(span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = u64::from(hi - lo);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded(span + 1) as $t
            }
        }
    )*};
}

impl_unsigned_range!(u8, u16, u32, u64);

macro_rules! impl_signed_range {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng64) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add(rng.bounded(u64::from(span)) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as $u).wrapping_sub(lo as $u);
                lo.wrapping_add(rng.bounded(u64::from(span) + 1) as $t)
            }
        }
    )*};
}

impl_signed_range!(i8 as u8, i16 as u16, i32 as u32, i64 as u64);

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng64) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = (self.end - self.start) as u64;
        self.start + rng.bounded(span) as usize
    }
}

impl SampleRange for RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng64) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + rng.bounded((hi - lo) as u64 + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_splitmix64() {
        // First outputs for seed 0, from the reference implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        let mut c = Rng64::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..10_000 {
            let a = rng.gen_range(3u32..17);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(0usize..1);
            assert_eq!(b, 0);
            let c = rng.gen_range(1i32..=2);
            assert!((1..=2).contains(&c));
            let d = rng.gen_range(0x20u8..0x7F);
            assert!((0x20..0x7F).contains(&d));
        }
    }

    #[test]
    fn f64_is_uniform_unit_interval() {
        let mut rng = Rng64::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean:.4}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng64::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "fraction {f:.4}");
    }

    #[test]
    fn bounded_covers_full_range() {
        let mut rng = Rng64::seed_from_u64(17);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn failing_property_names_itself_its_case_and_its_seed() {
        let fail_at_case_2 = || {
            let mut calls = 0;
            let run = std::panic::AssertUnwindSafe(|| {
                check_property("fails on its third case", 5, |_| {
                    calls += 1;
                    assert!(calls < 3, "boom");
                });
            });
            *std::panic::catch_unwind(run)
                .expect_err("a failing property must panic")
                .downcast::<String>()
                .expect("the harness panics with a formatted message")
        };
        let first = fail_at_case_2();
        let seed = mix_seed(name_hash("fails on its third case"), 2);
        assert_eq!(
            first,
            format!(
                "property `fails on its third case` failed at case 2 (seed {seed:#018x}): boom"
            )
        );
        assert_eq!(first, fail_at_case_2(), "a rerun must replay the same seed");
        // Passing properties run every case.
        let mut cases = 0;
        check_property("passes", 7, |_| cases += 1);
        assert_eq!(cases, 7);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng64::seed_from_u64(1).gen_range(5u32..5);
    }
}
