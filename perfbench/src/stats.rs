//! Order statistics for the benchmark's samples.
//!
//! Percentiles use the nearest-rank rule on the sorted sample: the `q`
//! percentile of `n` samples is the `ceil(q * n)`-th smallest. A percentile
//! is *supported* when at least [`MIN_BEYOND`] samples lie strictly above
//! its rank, so a tail figure never rests on a handful of points.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (in `0..=1`) among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `q` of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// Median (nearest-rank 50th percentile), `0.0` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Percentile `q`, `0.0` for an empty sample (a layer the workload never
/// reached reports zero rather than failing the run).
pub fn pct(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// Whether percentile `q` of `n` samples leaves at least [`MIN_BEYOND`]
/// samples beyond its rank.
pub fn supported(q: f64, n: usize) -> bool {
    n > 0 && n - rank(q, n) >= MIN_BEYOND
}

/// The highest of `candidates` that `n` samples support, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().filter(|&q| supported(q, n)).max_by(f64::total_cmp)
}

/// Arithmetic mean, `0.0` for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert!(supported(0.99, 1000));
        assert!(!supported(0.99, 999));
        // p90 needs 100 samples, p50 needs 20.
        assert!(supported(0.9, 100));
        assert!(!supported(0.9, 99));
        assert!(supported(0.5, 20));
        assert!(!supported(0.5, 19));
        assert!(!supported(0.5, 0));
    }

    #[test]
    fn highest_supported_picks_the_deepest_tail() {
        let qs = [0.5, 0.9, 0.99];
        assert_eq!(highest_supported(5000, &qs), Some(0.99));
        assert_eq!(highest_supported(500, &qs), Some(0.9));
        assert_eq!(highest_supported(40, &qs), Some(0.5));
        assert_eq!(highest_supported(12, &qs), None);
    }
}
