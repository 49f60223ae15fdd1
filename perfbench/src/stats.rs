//! Order statistics, output digests and the committed golden digests.

use desc_telemetry::Json;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// [`percentile`], or 0 for a layer the run never called.
pub fn percentile_or_zero(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, q)
    }
}

/// Samples needed beyond a reported p90: a tail estimate from fewer
/// is noise, so such a run fails instead of reporting a number.
pub const TAIL_SAMPLES: usize = 10;

/// The p90 of `samples`, or an error when fewer than [`TAIL_SAMPLES`]
/// samples lie beyond it.
pub fn p90_guarded(samples: &[f64], what: &str) -> Result<f64, String> {
    let rank = (0.9 * samples.len() as f64).ceil() as usize;
    let beyond = samples.len().saturating_sub(rank);
    if samples.is_empty() || beyond < TAIL_SAMPLES {
        return Err(format!(
            "{what}: {} samples leave {beyond} beyond p90; need {TAIL_SAMPLES}",
            samples.len()
        ));
    }
    Ok(percentile(samples, 0.9))
}

/// 64-bit FNV-1a, the digest of every checked output.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ("ab", "c") and ("a", "bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of a report's deterministic `metrics` block: the operational
/// `pool.` / `cache.` / `serve.` families are dropped, as in the
/// repository's warm == cold == served contract.
pub fn metrics_digest(report: &Json) -> Result<u64, String> {
    let Some(Json::Obj(pairs)) = report.get("metrics") else {
        return Err("report has no metrics object".to_owned());
    };
    let mut kept: Vec<&(String, Json)> = pairs
        .iter()
        .filter(|(k, _)| {
            !["pool.", "cache.", "serve."]
                .iter()
                .any(|p| k.starts_with(p))
        })
        .collect();
    if kept.is_empty() {
        return Err("report metrics are empty after filtering".to_owned());
    }
    kept.sort_by(|a, b| a.0.cmp(&b.0));
    let rendered: Vec<String> = kept
        .iter()
        .map(|(k, v)| format!("{k}={}", v.to_pretty()))
        .collect();
    let parts: Vec<&[u8]> = rendered.iter().map(String::as_bytes).collect();
    Ok(fnv1a(&parts))
}

/// Digests of HEAD's outputs, one `<seed> <artifact> <hex>` per line
/// (see README.md for how to regenerate them).
const GOLDEN: &str = include_str!("../golden.txt");

/// The committed digest of `artifact` for `seed`, if there is one.
pub fn golden(seed: u64, artifact: &str) -> Option<u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            let s = f.next()?.parse::<u64>().ok()?;
            let a = f.next()?;
            let d = u64::from_str_radix(f.next()?, 16).ok()?;
            (s == seed && a == artifact).then_some(d)
        })
}

/// Outcome of comparing one output against the committed goldens.
#[derive(Debug, Default)]
pub struct Digests {
    /// Every digest computed, as `(artifact, digest)`, for the result
    /// stanza (and for regenerating `golden.txt`).
    pub seen: Vec<(String, u64)>,
    /// Wrong outputs: golden and cross-check mismatches.
    pub mismatches: Vec<String>,
}

impl Digests {
    /// Records `digest` for `artifact` and checks it against the golden
    /// for `seed`, when one is committed; returns the mismatch, if any.
    #[must_use]
    pub fn check(&mut self, seed: u64, artifact: &str, digest: u64) -> Option<String> {
        self.seen.push((artifact.to_owned(), digest));
        let expected = golden(seed, artifact).filter(|&g| g != digest)?;
        Some(format!(
            "{artifact}: {digest:016x} != golden {expected:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(p90_guarded(&s, "x"), Ok(90.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(p90_guarded(&s, "x").is_err());
    }

    #[test]
    fn metrics_digest_ignores_operational_families_and_order() {
        let a = Json::obj().with(
            "metrics",
            Json::obj()
                .with("sim.runs", Json::UInt(3))
                .with("cache.hits", Json::UInt(1)),
        );
        let b = Json::obj().with(
            "metrics",
            Json::obj()
                .with("pool.workers", Json::UInt(2))
                .with("sim.runs", Json::UInt(3)),
        );
        assert_eq!(metrics_digest(&a), metrics_digest(&b));
        let c = Json::obj().with("metrics", Json::obj().with("sim.runs", Json::UInt(4)));
        assert_ne!(metrics_digest(&a), metrics_digest(&c));
    }
}
