//! Small statistics helpers used across BlameIt.
//!
//! The quantile family is layered for the columnar hot path: callers
//! that hold sorted data (the expected-RTT learner's window, threshold
//! calibration's per-group samples, the columnar store's runs) go
//! straight to [`quantile_sorted`]/[`median_sorted`], which are
//! branch-free kernels over the sorted run — no per-call copy, no
//! re-sort. [`quantile`] remains the convenience wrapper that sorts a
//! copy once and delegates. In debug builds [`quantile_sorted`]
//! asserts its input really is sorted, so a caller that skips the sort
//! fails loudly in tests instead of silently reporting a garbage
//! quantile.

/// Mean of a slice; `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(mean_run(xs))
    }
}

/// Mean kernel over a non-empty run: one sequential pass, no
/// branches. The accumulation order is slice order, which is what
/// makes it bit-compatible with the legacy per-record upsert (both
/// fold the stream left-to-right).
///
/// # Panics
/// Debug-asserts the run is non-empty (release: returns NaN on empty
/// input rather than branching).
pub fn mean_run(run: &[f64]) -> f64 {
    debug_assert!(!run.is_empty(), "mean of empty run");
    run.iter().sum::<f64>() / run.len() as f64
}

/// Median of a slice (average of middle pair for even lengths);
/// `None` for empty input. Does not require sorted input.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Median kernel over an already-sorted run.
///
/// # Panics
/// Panics if the slice is empty; debug-asserts sortedness.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    quantile_sorted(sorted, 0.5)
}

/// Quantile via linear interpolation on a sorted copy; `q` in
/// `[0, 1]`. `None` for empty input.
///
/// Callers that already hold sorted data (or can sort in place once
/// and query many quantiles) should use [`quantile_sorted`] directly —
/// this wrapper pays a copy and a sort on every call.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Some(quantile_sorted(&v, q))
}

/// Quantile kernel over an already-sorted run (linear interpolation).
///
/// Branch-free on the hot path: the interpolation index pair is
/// computed arithmetically (`hi = lo + (frac > 0)`), with no
/// length-one special case and no `ceil` call — bit-identical to the
/// branching formulation for every input, including single-element
/// and all-equal runs (when `frac == 0` the formula reduces to
/// `x·1.0 + x·0.0`, which is exactly `x` for every finite `x`
/// including `-0.0`).
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or the slice is empty.
/// Debug-asserts the input is sorted — the guard that catches callers
/// routing unsorted data here to dodge [`quantile`]'s sort.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    assert!(!sorted.is_empty(), "quantile of empty slice");
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "quantile_sorted called with unsorted input"
    );
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = lo + usize::from(frac > 0.0);
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Sample variance (n − 1 denominator); `None` for fewer than 2 points.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Evaluation points of an empirical CDF: returns `(x, F(x))` pairs at
/// each distinct sorted sample, suitable for printing figure series.
pub fn ecdf(xs: &[f64]) -> Vec<(f64, f64)> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (i, x) in v.iter().enumerate() {
        let f = (i + 1) as f64 / n;
        match out.last_mut() {
            Some((lx, lf)) if *lx == *x => *lf = f,
            _ => out.push((*x, f)),
        }
    }
    out
}

/// Fraction of samples satisfying a predicate.
pub fn fraction<T>(xs: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|x| pred(x)).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert!((quantile(&xs, 0.25).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_bad_q() {
        quantile(&[1.0], 1.5);
    }

    // The check is a debug assertion: release builds compile it out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unsorted input")]
    fn quantile_sorted_flags_unsorted_input_in_debug() {
        // The satellite fix: callers routing unsorted data through the
        // sorted kernel must fail loudly under debug assertions.
        quantile_sorted(&[3.0, 1.0, 2.0], 0.5);
    }

    /// The pre-columnar branching formulation, kept as the oracle the
    /// branch-free kernel is tested against.
    fn quantile_sorted_branching(sorted: &[f64], q: f64) -> f64 {
        if sorted.len() == 1 {
            return sorted[0];
        }
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    #[test]
    fn branch_free_quantile_matches_reference_on_adversarial_inputs() {
        let adversarial: &[&[f64]] = &[
            &[0.0],
            &[-0.0],
            &[7.0],
            &[5.0, 5.0, 5.0, 5.0],
            &[-0.0, 0.0],
            // NaN-free float-bit extremes: subnormals, min/max
            // magnitudes, signed zeros, infinities excluded (kernel
            // contract is finite samples, matching RTT data).
            &[
                f64::MIN,
                -1.0,
                -f64::MIN_POSITIVE,
                -0.0,
                0.0,
                5e-324,
                f64::MIN_POSITIVE,
                1.0,
                f64::MAX,
            ],
            &[1e16, 1e16 + 2.0, 1e16 + 4.0],
            &[-300.0, -7.5, 0.25, 19.0, 21.0, 1e9],
        ];
        for xs in adversarial {
            for i in 0..=100u32 {
                let q = f64::from(i) / 100.0;
                let fast = quantile_sorted(xs, q);
                let slow = quantile_sorted_branching(xs, q);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "q={q} xs={xs:?}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn branch_free_quantile_matches_reference_on_random_runs() {
        use blameit_topology::testkit;
        testkit::check("stats::quantile_branch_free", 128, |rng| {
            let n = 1 + rng.below(200) as usize;
            let mut xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
            xs.sort_by(|a, b| a.total_cmp(b));
            let q = rng.f64();
            assert_eq!(
                quantile_sorted(&xs, q).to_bits(),
                quantile_sorted_branching(&xs, q).to_bits()
            );
        });
    }

    #[test]
    fn quantile_on_unsorted_duplicates_equals_sorted_kernel() {
        // `quantile` must behave exactly as sort-then-kernel, even
        // with heavy duplication.
        let xs: [f64; 7] = [4.0, 1.0, 4.0, 4.0, 2.0, 1.0, 4.0];
        let mut sorted = xs;
        sorted.sort_by(|a, b| a.total_cmp(b));
        for i in 0..=10u32 {
            let q = f64::from(i) / 10.0;
            assert_eq!(
                quantile(&xs, q).unwrap().to_bits(),
                quantile_sorted(&sorted, q).to_bits()
            );
        }
    }

    #[test]
    fn mean_run_matches_mean() {
        assert_eq!(mean_run(&[2.0, 4.0]), 3.0);
        assert_eq!(mean(&[1e16, 1.0, 1.0]), Some(mean_run(&[1e16, 1.0, 1.0])));
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn variance_basic() {
        assert_eq!(variance(&[1.0]), None);
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((v - 4.571428).abs() < 1e-4);
    }

    #[test]
    fn ecdf_steps() {
        let pts = ecdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 0.25));
        assert_eq!(pts[1], (2.0, 0.75));
        assert_eq!(pts[2], (3.0, 1.0));
        assert!(ecdf(&[]).is_empty());
    }

    #[test]
    fn fraction_basic() {
        assert_eq!(fraction(&[1, 2, 3, 4], |x| *x % 2 == 0), 0.5);
        assert_eq!(fraction::<i32>(&[], |_| true), 0.0);
    }
}
