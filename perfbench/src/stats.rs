//! Percentiles that refuse to extrapolate.

use std::fmt;

/// Samples beyond a percentile the helper insists on.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub pct: f64,
    /// Samples given.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} over {} samples has {} beyond it; at least {MIN_BEYOND} are needed",
            self.pct, self.samples, self.beyond
        )
    }
}

/// The nearest-rank `pct`-th percentile (`0 < pct < 100`) of `samples`,
/// refused unless at least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, TooFewSamples> {
    assert!(pct > 0.0 && pct < 100.0, "percentile {pct} outside (0, 100)");
    let n = samples.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { pct, samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a non-empty sample, for per-layer summaries (which
/// report a median over however many requests ran the stage); `0.0`
/// for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        // p90 of 99 samples sits at rank 90: only 9 beyond.
        let err = percentile(&ramp(99), 90.0).unwrap_err();
        assert_eq!((err.samples, err.beyond), (99, 9));
        assert!(err.to_string().contains("at least 10"), "{err}");
        // 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0), Ok(180.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
