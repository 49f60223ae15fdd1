//! The paper's application suite (Table 2) as statistical benchmark
//! profiles.

use crate::trace::TraceGenerator;
use crate::values::{ValueModel, ValueStream};
use std::fmt;

/// Benchmark suites of Table 2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// Phoenix MapReduce workloads.
    Phoenix,
    /// NAS OpenMP parallel benchmarks.
    NasOpenMp,
    /// SPEC OpenMP (MinneSpec-Large inputs).
    SpecOpenMp,
    /// SPLASH-2 shared-memory benchmarks.
    Splash2,
    /// SPEC CPU2006 integer.
    SpecInt2006,
    /// SPEC CPU2006 floating point.
    SpecFp2006,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::Phoenix => "Phoenix",
            Suite::NasOpenMp => "NAS OpenMP",
            Suite::SpecOpenMp => "SPEC OpenMP",
            Suite::Splash2 => "SPLASH-2",
            Suite::SpecInt2006 => "SPECint 2006",
            Suite::SpecFp2006 => "SPECfp 2006",
        };
        f.write_str(s)
    }
}

/// The 24 applications evaluated by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant names are the benchmark names
pub enum BenchmarkId {
    Art,
    Barnes,
    Cg,
    Cholesky,
    Equake,
    Fft,
    Ft,
    Linear,
    Lu,
    Mg,
    Ocean,
    Radix,
    RayTrace,
    Swim,
    WaterNSquared,
    WaterSpatial,
    Bzip2,
    Mcf,
    Omnetpp,
    Sjeng,
    Lbm,
    Milc,
    Namd,
    Soplex,
}

/// Statistical model of one application.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BenchmarkProfile {
    /// Which benchmark this is.
    pub id: BenchmarkId,
    /// Display name matching the paper's figures.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// Input set (Table 2).
    pub input: &'static str,
    /// Simulated cores issuing the workload (8 for parallel apps on
    /// the Niagara-like machine, 1 for SPEC 2006).
    pub cores: usize,
    /// L2 accesses per kilo-instruction (memory intensity).
    pub l2_apki: f64,
    /// Total working-set footprint in bytes — determines how much of
    /// the trace misses in an 8 MB L2.
    pub working_set_bytes: usize,
    /// Bytes of the hot subset that fits in the L2 and is revisited.
    pub hot_set_bytes: usize,
    /// Probability that an access targets the hot subset.
    pub hot_fraction: f64,
    /// Fraction of L2 accesses that are writes.
    pub write_fraction: f64,
    /// Baseline per-core IPC when the L2 is ideal.
    pub base_ipc: f64,
    /// Content model for transferred blocks.
    pub values: ValueModel,
}

impl BenchmarkProfile {
    /// A deterministic stream of block contents for this benchmark.
    #[must_use]
    pub fn value_stream(&self, seed: u64) -> ValueStream {
        // Mix the benchmark identity into the seed so different apps
        // with the same seed do not produce identical streams.
        self.values.stream(seed ^ (self.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A deterministic stream of block contents for one L2 bank of
    /// this benchmark.
    ///
    /// Bank-sharded simulation gives every bank its own value stream so
    /// banks can be simulated independently; the per-bank seed is
    /// derived from `(seed, bank)` via [`desc_core::rng::mix_seed`], so
    /// the streams are independent of each other and of how many worker
    /// threads simulate them.
    #[must_use]
    pub fn value_stream_for_bank(&self, seed: u64, bank: usize) -> ValueStream {
        self.value_stream(desc_core::rng::mix_seed(seed, bank as u64))
    }

    /// A deterministic access-trace generator for this benchmark.
    #[must_use]
    pub fn trace(&self, seed: u64) -> TraceGenerator {
        TraceGenerator::new(self, seed)
    }
}

impl BenchmarkId {
    /// The sixteen parallel applications, in the paper's figure order.
    pub const PARALLEL: [BenchmarkId; 16] = [
        BenchmarkId::Art,
        BenchmarkId::Barnes,
        BenchmarkId::Cg,
        BenchmarkId::Cholesky,
        BenchmarkId::Equake,
        BenchmarkId::Fft,
        BenchmarkId::Ft,
        BenchmarkId::Linear,
        BenchmarkId::Lu,
        BenchmarkId::Mg,
        BenchmarkId::Ocean,
        BenchmarkId::Radix,
        BenchmarkId::RayTrace,
        BenchmarkId::Swim,
        BenchmarkId::WaterNSquared,
        BenchmarkId::WaterSpatial,
    ];

    /// The eight SPEC CPU2006 applications (§5.8).
    pub const SPEC: [BenchmarkId; 8] = [
        BenchmarkId::Bzip2,
        BenchmarkId::Lbm,
        BenchmarkId::Mcf,
        BenchmarkId::Milc,
        BenchmarkId::Namd,
        BenchmarkId::Omnetpp,
        BenchmarkId::Sjeng,
        BenchmarkId::Soplex,
    ];

    /// The profile for this benchmark.
    #[must_use]
    pub fn profile(self) -> BenchmarkProfile {
        use BenchmarkId as B;
        use Suite as S;
        let vm = |null, sparse_int, small_int, dense_fp, text, pointer, near_repeat| ValueModel {
            null,
            sparse_int,
            small_int,
            dense_fp,
            text,
            pointer,
            near_repeat,
        };
        let mb = |x: usize| x << 20;
        let p = |id, name, suite, input, l2_apki, ws, hot, hot_fraction, write_fraction, values| {
            BenchmarkProfile {
                id,
                name,
                suite,
                input,
                cores: 8,
                l2_apki,
                working_set_bytes: ws,
                hot_set_bytes: hot,
                hot_fraction,
                write_fraction,
                base_ipc: 0.9,
                values,
            }
        };
        match self {
            B::Art => p(
                self,
                "Art",
                S::SpecOpenMp,
                "MinneSpec-Large",
                7.3,
                mb(16),
                mb(3),
                0.62,
                0.30,
                vm(0.05, 0.05, 0.10, 0.45, 0.0, 0.05, 0.30),
            ),
            B::Barnes => p(
                self,
                "Barnes",
                S::Splash2,
                "16K Particles",
                4.0,
                mb(8),
                mb(4),
                0.75,
                0.30,
                vm(0.05, 0.05, 0.05, 0.45, 0.0, 0.15, 0.25),
            ),
            B::Cg => p(
                self,
                "CG",
                S::NasOpenMp,
                "Class A",
                7.3,
                mb(24),
                mb(4),
                0.58,
                0.20,
                vm(0.10, 0.17, 0.08, 0.40, 0.0, 0.0, 0.22),
            ),
            B::Cholesky => p(
                self,
                "Cholesky",
                S::Splash2,
                "tk 15.0",
                5.3,
                mb(8),
                mb(4),
                0.70,
                0.35,
                vm(0.10, 0.14, 0.05, 0.44, 0.0, 0.05, 0.20),
            ),
            B::Equake => p(
                self,
                "Equake",
                S::SpecOpenMp,
                "MinneSpec-Large",
                6.0,
                mb(16),
                mb(4),
                0.60,
                0.30,
                vm(0.05, 0.05, 0.05, 0.55, 0.0, 0.05, 0.25),
            ),
            B::Fft => p(
                self,
                "FFT",
                S::Splash2,
                "1M points",
                6.7,
                mb(48),
                mb(5),
                0.60,
                0.45,
                vm(0.02, 0.03, 0.05, 0.70, 0.0, 0.0, 0.20),
            ),
            B::Ft => p(
                self,
                "FT",
                S::NasOpenMp,
                "Class A",
                6.7,
                mb(40),
                mb(5),
                0.60,
                0.45,
                vm(0.02, 0.03, 0.05, 0.65, 0.0, 0.0, 0.25),
            ),
            B::Linear => p(
                self,
                "Linear",
                S::Phoenix,
                "50MB key file",
                7.3,
                mb(50),
                mb(3),
                0.60,
                0.15,
                vm(0.08, 0.07, 0.20, 0.10, 0.16, 0.0, 0.37),
            ),
            B::Lu => p(
                self,
                "LU",
                S::Splash2,
                "512×512 matrix, 16×16 blocks",
                4.7,
                mb(2),
                mb(2),
                0.92,
                0.40,
                vm(0.08, 0.08, 0.06, 0.48, 0.0, 0.0, 0.30),
            ),
            B::Mg => p(
                self,
                "MG",
                S::NasOpenMp,
                "Class A",
                6.7,
                mb(32),
                mb(5),
                0.62,
                0.35,
                vm(0.10, 0.11, 0.08, 0.45, 0.0, 0.0, 0.25),
            ),
            B::Ocean => p(
                self,
                "Ocean",
                S::Splash2,
                "514×514 ocean",
                6.7,
                mb(30),
                mb(5),
                0.58,
                0.40,
                vm(0.08, 0.07, 0.05, 0.50, 0.0, 0.0, 0.30),
            ),
            B::Radix => p(
                self,
                "Radix",
                S::Splash2,
                "2M integers",
                8.7,
                mb(16),
                mb(3),
                0.50,
                0.50,
                vm(0.08, 0.08, 0.30, 0.14, 0.0, 0.06, 0.32),
            ),
            B::RayTrace => p(
                self,
                "RayTrace",
                S::Splash2,
                "car",
                5.0,
                mb(16),
                mb(5),
                0.68,
                0.15,
                vm(0.04, 0.06, 0.08, 0.26, 0.0, 0.30, 0.25),
            ),
            B::Swim => p(
                self,
                "Swim",
                S::SpecOpenMp,
                "MinneSpec-Large",
                6.7,
                mb(32),
                mb(5),
                0.62,
                0.40,
                vm(0.05, 0.05, 0.05, 0.55, 0.0, 0.0, 0.30),
            ),
            B::WaterNSquared => p(
                self,
                "Water-NSquared",
                S::Splash2,
                "512 molecules",
                3.3,
                mb(4),
                mb(3),
                0.88,
                0.30,
                vm(0.05, 0.05, 0.08, 0.50, 0.0, 0.07, 0.25),
            ),
            B::WaterSpatial => p(
                self,
                "Water-Spatial",
                S::Splash2,
                "512 molecules",
                3.3,
                mb(4),
                mb(3),
                0.88,
                0.30,
                vm(0.05, 0.05, 0.08, 0.48, 0.0, 0.09, 0.25),
            ),
            // ---- single-threaded SPEC CPU2006 (§5.8) ----------------
            B::Bzip2 => BenchmarkProfile {
                id: self,
                name: "BZIP2",
                suite: S::SpecInt2006,
                input: "reference",
                cores: 1,
                l2_apki: 8.0,
                working_set_bytes: mb(16),
                hot_set_bytes: mb(4),
                hot_fraction: 0.72,
                write_fraction: 0.35,
                base_ipc: 1.6,
                values: vm(0.05, 0.05, 0.35, 0.0, 0.20, 0.05, 0.30),
            },
            B::Mcf => BenchmarkProfile {
                id: self,
                name: "MCF",
                suite: S::SpecInt2006,
                input: "reference",
                cores: 1,
                l2_apki: 40.0,
                working_set_bytes: mb(64),
                hot_set_bytes: mb(5),
                hot_fraction: 0.40,
                write_fraction: 0.25,
                base_ipc: 0.8,
                values: vm(0.10, 0.15, 0.15, 0.0, 0.0, 0.30, 0.30),
            },
            B::Omnetpp => BenchmarkProfile {
                id: self,
                name: "OMNETPP",
                suite: S::SpecInt2006,
                input: "reference",
                cores: 1,
                l2_apki: 22.0,
                working_set_bytes: mb(40),
                hot_set_bytes: mb(5),
                hot_fraction: 0.55,
                write_fraction: 0.30,
                base_ipc: 1.0,
                values: vm(0.08, 0.10, 0.12, 0.05, 0.05, 0.30, 0.30),
            },
            B::Sjeng => BenchmarkProfile {
                id: self,
                name: "SJENG",
                suite: S::SpecInt2006,
                input: "reference",
                cores: 1,
                l2_apki: 5.0,
                working_set_bytes: mb(4),
                hot_set_bytes: mb(3),
                hot_fraction: 0.90,
                write_fraction: 0.30,
                base_ipc: 1.8,
                values: vm(0.05, 0.10, 0.40, 0.0, 0.0, 0.15, 0.30),
            },
            B::Lbm => BenchmarkProfile {
                id: self,
                name: "LBM",
                suite: S::SpecFp2006,
                input: "reference",
                cores: 1,
                l2_apki: 30.0,
                working_set_bytes: mb(64),
                hot_set_bytes: mb(4),
                hot_fraction: 0.35,
                write_fraction: 0.50,
                base_ipc: 1.2,
                values: vm(0.03, 0.02, 0.05, 0.60, 0.0, 0.0, 0.30),
            },
            B::Milc => BenchmarkProfile {
                id: self,
                name: "MILC",
                suite: S::SpecFp2006,
                input: "reference",
                cores: 1,
                l2_apki: 26.0,
                working_set_bytes: mb(48),
                hot_set_bytes: mb(4),
                hot_fraction: 0.40,
                write_fraction: 0.40,
                base_ipc: 1.1,
                values: vm(0.03, 0.05, 0.07, 0.55, 0.0, 0.0, 0.30),
            },
            B::Namd => BenchmarkProfile {
                id: self,
                name: "NAMD",
                suite: S::SpecFp2006,
                input: "reference",
                cores: 1,
                l2_apki: 6.0,
                working_set_bytes: mb(8),
                hot_set_bytes: mb(5),
                hot_fraction: 0.85,
                write_fraction: 0.30,
                base_ipc: 1.8,
                values: vm(0.05, 0.05, 0.05, 0.55, 0.0, 0.05, 0.25),
            },
            B::Soplex => BenchmarkProfile {
                id: self,
                name: "SOPLEX",
                suite: S::SpecFp2006,
                input: "reference",
                cores: 1,
                l2_apki: 24.0,
                working_set_bytes: mb(32),
                hot_set_bytes: mb(5),
                hot_fraction: 0.50,
                write_fraction: 0.25,
                base_ipc: 1.0,
                values: vm(0.12, 0.18, 0.10, 0.35, 0.0, 0.0, 0.25),
            },
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.profile().name)
    }
}

/// The sixteen parallel benchmark profiles, in figure order.
#[must_use]
pub fn parallel_suite() -> Vec<BenchmarkProfile> {
    BenchmarkId::PARALLEL.iter().map(|b| b.profile()).collect()
}

/// The eight SPEC CPU2006 profiles, in Fig. 30 order.
#[must_use]
pub fn spec_suite() -> Vec<BenchmarkProfile> {
    BenchmarkId::SPEC.iter().map(|b| b.profile()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_paper_sizes() {
        assert_eq!(parallel_suite().len(), 16);
        assert_eq!(spec_suite().len(), 8);
    }

    #[test]
    fn parallel_apps_run_on_eight_cores_spec_on_one() {
        assert!(parallel_suite().iter().all(|p| p.cores == 8));
        assert!(spec_suite().iter().all(|p| p.cores == 1));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> =
            parallel_suite().iter().chain(spec_suite().iter()).map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn profiles_are_physically_sensible() {
        for p in parallel_suite().into_iter().chain(spec_suite()) {
            assert!(p.l2_apki > 0.0 && p.l2_apki < 100.0, "{}", p.name);
            assert!(p.hot_set_bytes <= p.working_set_bytes, "{}", p.name);
            assert!((0.0..=1.0).contains(&p.hot_fraction), "{}", p.name);
            assert!((0.0..=1.0).contains(&p.write_fraction), "{}", p.name);
            assert!(p.base_ipc > 0.0 && p.base_ipc <= 4.0, "{}", p.name);
        }
    }

    #[test]
    fn value_streams_differ_across_benchmarks() {
        let mut fft = BenchmarkId::Fft.profile().value_stream(1);
        let mut radix = BenchmarkId::Radix.profile().value_stream(1);
        let same = (0..16).filter(|_| fft.next_block() == radix.next_block()).count();
        assert!(same < 8);
    }

    #[test]
    fn table2_inputs_match_paper() {
        assert_eq!(BenchmarkId::Linear.profile().input, "50MB key file");
        assert_eq!(BenchmarkId::Barnes.profile().input, "16K Particles");
        assert_eq!(BenchmarkId::Radix.profile().input, "2M integers");
        assert_eq!(BenchmarkId::Mcf.profile().input, "reference");
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(format!("{}", BenchmarkId::WaterNSquared), "Water-NSquared");
        assert_eq!(format!("{}", BenchmarkId::Cg), "CG");
    }
}
