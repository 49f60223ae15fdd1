//! Chunk-statistics measurement (paper Figs. 12 and 13).
//!
//! Given a stream of transferred blocks, measure the distribution of
//! 4-bit chunk values and the fraction of chunks that repeat the
//! previous value on their wire (under the paper's 128-wire, one
//! chunk-per-wire assignment).

use crate::values::ValueStream;
use desc_core::{Block, ChunkSize, Chunks};

/// Aggregated chunk statistics over a block stream.
///
/// # Examples
///
/// ```
/// use desc_workloads::{BenchmarkId, ChunkStats};
///
/// let p = BenchmarkId::Cg.profile();
/// let stats = ChunkStats::measure_stream(&mut p.value_stream(1), 500);
/// assert!(stats.zero_fraction() > 0.1);
/// assert!(stats.histogram().iter().sum::<u64>() > 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChunkStats {
    histogram: [u64; 16],
    repeats: u64,
    total: u64,
    previous: Option<Vec<u16>>,
}

impl ChunkStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transferred block (4-bit chunks, chunk `i` on wire
    /// `i` as in the paper's 128-wire interface).
    pub fn record(&mut self, block: &Block) {
        let chunks = Chunks::split(block, ChunkSize::PAPER_DEFAULT);
        let values = chunks.values();
        if let Some(prev) = &self.previous {
            self.repeats +=
                values.iter().zip(prev).filter(|(now, before)| now == before).count() as u64;
        } else {
            // The first block compares against all-zero wires.
            self.repeats += values.iter().filter(|&&v| v == 0).count() as u64;
        }
        for &v in values {
            self.histogram[v as usize] += 1;
            self.total += 1;
        }
        self.previous = Some(values.to_vec());
    }

    /// Measures `blocks` consecutive blocks from a value stream.
    #[must_use]
    pub fn measure_stream(stream: &mut ValueStream, blocks: usize) -> Self {
        let mut stats = Self::new();
        for _ in 0..blocks {
            stats.record(&stream.next_block());
        }
        stats
    }

    /// Chunk-value histogram (index = 4-bit value), as in Fig. 12.
    #[must_use]
    pub fn histogram(&self) -> &[u64; 16] {
        &self.histogram
    }

    /// Normalised frequency of each chunk value.
    #[must_use]
    pub fn frequencies(&self) -> [f64; 16] {
        let mut f = [0.0; 16];
        if self.total > 0 {
            for (i, &n) in self.histogram.iter().enumerate() {
                f[i] = n as f64 / self.total as f64;
            }
        }
        f
    }

    /// Fraction of zero chunks (Fig. 12 reports ≈31% on average).
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.histogram[0] as f64 / self.total as f64
        }
    }

    /// Fraction of chunks equal to the previous chunk on their wire
    /// (Fig. 13 reports ≈39% on average).
    #[must_use]
    pub fn repeat_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.repeats as f64 / self.total as f64
        }
    }

    /// Total chunks recorded.
    #[must_use]
    pub fn total_chunks(&self) -> u64 {
        self.total
    }
}

/// Geometric mean of a slice of positive numbers.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty slice");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean requires positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{parallel_suite, BenchmarkId};

    #[test]
    fn histogram_sums_to_total() {
        let p = BenchmarkId::Art.profile();
        let stats = ChunkStats::measure_stream(&mut p.value_stream(2), 200);
        assert_eq!(stats.histogram().iter().sum::<u64>(), stats.total_chunks());
        assert_eq!(stats.total_chunks(), 200 * 128);
        let freq_sum: f64 = stats.frequencies().iter().sum();
        assert!((freq_sum - 1.0).abs() < 1e-9);
    }

    /// The calibration target behind paper Fig. 12: across the 16
    /// parallel apps, ~31% of transferred chunks are zero.
    #[test]
    fn suite_zero_fraction_matches_fig12() {
        let fractions: Vec<f64> = parallel_suite()
            .iter()
            .map(|p| {
                ChunkStats::measure_stream(&mut p.value_stream(33), 600).zero_fraction().max(1e-6)
            })
            .collect();
        let g = geomean(&fractions);
        assert!((0.22..=0.40).contains(&g), "suite zero-chunk geomean {g:.3}, paper ≈0.31");
    }

    /// The calibration target behind paper Fig. 13: ~39% of chunks
    /// repeat the previous value on their wire.
    #[test]
    fn suite_repeat_fraction_matches_fig13() {
        let fractions: Vec<f64> = parallel_suite()
            .iter()
            .map(|p| {
                ChunkStats::measure_stream(&mut p.value_stream(34), 600).repeat_fraction().max(1e-6)
            })
            .collect();
        let g = geomean(&fractions);
        assert!((0.30..=0.52).contains(&g), "suite repeat geomean {g:.3}, paper ≈0.39");
    }

    #[test]
    fn zero_heavy_apps_exceed_fp_apps() {
        let cg = ChunkStats::measure_stream(&mut BenchmarkId::Cg.profile().value_stream(8), 400);
        let fft = ChunkStats::measure_stream(&mut BenchmarkId::Fft.profile().value_stream(8), 400);
        assert!(cg.zero_fraction() > fft.zero_fraction());
    }

    #[test]
    fn first_block_counts_zero_wires_as_repeats() {
        let mut stats = ChunkStats::new();
        stats.record(&desc_core::Block::zeroed(64));
        assert_eq!(stats.repeat_fraction(), 1.0);
    }

    #[test]
    fn geomean_of_constants_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }
}
