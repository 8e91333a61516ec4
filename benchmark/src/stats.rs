//! Exact percentiles on raw samples, and medians of repeated measures.
//!
//! The store's `LatencyHistogram` buckets are about 20 % wide, too coarse
//! for a 10 % regression bound, so the benchmark keeps every sample.

/// Samples a percentile must leave beyond itself before it is compared
/// between commits (choosing-metrics section 1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u32], p: f64) -> Option<u32> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank, `ceil(p·n)` clamped to `1..=n`. The epsilon
/// keeps a product such as `0.99 × 1000` from rounding up past 990.
fn rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n))
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile
/// `p`. A percentile that fails this is printed but marked
/// non-comparable.
pub fn supported(n: usize, p: f64) -> bool {
    rank(n, p).is_some_and(|r| n - r >= MIN_BEYOND)
}

/// Median of repeated measures (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    /// The definition, spelled out: smallest `x` with `count(≤ x) ≥ p·n`.
    fn reference(samples: &[u32], p: f64) -> u32 {
        let mut candidates: Vec<u32> = samples.to_vec();
        candidates.sort_unstable();
        *candidates
            .iter()
            .find(|&&x| {
                samples.iter().filter(|&&s| s <= x).count() as f64
                    >= p * samples.len() as f64 - 1e-9
            })
            .unwrap()
    }

    #[test]
    fn percentiles_match_the_sorted_reference() {
        let mut rng = SplitMix64::new(5);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut samples: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 500) as u32).collect();
            let raw = samples.clone();
            samples.sort_unstable();
            for p in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile(&samples, p),
                    Some(reference(&raw, p)),
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn known_ranks() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supported(0, 0.5));
        assert!(!supported(19, 0.5)); // rank 10 leaves 9
        assert!(supported(20, 0.5)); // rank 10 leaves 10
        assert!(!supported(999, 0.99)); // rank 990 leaves 9
        assert!(supported(1000, 0.99)); // rank 990 leaves 10
        assert!(!supported(9_999, 0.999));
        assert!(supported(10_000, 0.999));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
