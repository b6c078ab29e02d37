//! Order statistics for latency samples.
//!
//! A timing is reported as its median plus a tail percentile, and a
//! tail is only trustworthy when enough samples lie beyond it: with
//! fewer than [`MIN_BEYOND`] samples above the cut, the "p90" is one
//! or two unlucky runs, not a tail. [`tail`] therefore refuses to
//! report a percentile its sample count does not support.

/// Samples that must lie strictly beyond a tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q).saturating_sub(1)]
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q` percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Sorts a sample vector ascending (total order; no NaNs expected).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample vector (`0.0` for none).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    percentile(&sorted(v.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond it; 99 leave 9.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail(&ramp(100), 0.9), Some(90.0));
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail(&ramp(99), 0.9), None);
        // p95 needs 200.
        assert_eq!(tail(&ramp(199), 0.95), None);
        assert_eq!(tail(&ramp(200), 0.95), Some(190.0));
        // The median is a tail like any other, and 20 samples support it.
        assert_eq!(tail(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
