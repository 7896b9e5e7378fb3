//! Order statistics for the harness: medians, quartile spreads, and a
//! percentile that refuses to answer beyond what its sample supports.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measured at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of the way in from the good end of `values`:
/// the fourth-fastest of 15 reps, the eleventh-quickest of 41 set-ups.
///
/// Interference on a shared host only ever makes a rep slower, so a
/// timed quantity has a hard fast edge and a long slow tail: the edge is
/// the code, the tail is the neighbours. A median follows the tail once
/// half of a run is disturbed, which on this host happens for minutes at
/// a time; the best quartile still reads the edge when three quarters of
/// the run were, and — unlike the single best sample — sits where the
/// samples are dense, so it does not jump in quiet spells either.
pub fn best_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[(v.len() - 1) / 4]
}

/// The value `share` of the way in from the low end of `values`.
pub fn low_quantile(values: &[f64], share: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * share) as usize]
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, so the spreads
/// printed here are the spreads the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Not clamped: like Python, tiny samples extrapolate.
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// samples or a zero median).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A percentile together with the sample count that backs it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted slice, or
/// `None` when fewer than ten samples lie beyond the rank — a tail
/// percentile resting on a handful of points is noise, not a metric.
/// The median only needs one sample.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> Option<Percentile> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if p > 50.0 && beyond < 10 {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1] as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn low_quantile_counts_in_from_the_low_end() {
        let v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(low_quantile(&v, 0.02), 2.0);
        assert_eq!(low_quantile(&v, 0.0), 0.0);
        assert_eq!(low_quantile(&[7.0], 0.02), 7.0);
    }

    #[test]
    fn best_quartile_sits_a_quarter_in_from_the_good_end() {
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(best_quartile(&v, true), 12.0);
        assert_eq!(best_quartile(&v, false), 4.0);
        let v: Vec<f64> = (1..=41).map(f64::from).collect();
        assert_eq!(best_quartile(&v, false), 11.0);
        assert_eq!(best_quartile(&[3.0, 9.0, 4.0], true), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let v: Vec<u32> = (1..=1000).collect();
        let p50 = percentile_sorted(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples), (500.0, 1000));
        assert_eq!(percentile_sorted(&v, 99.0).unwrap().value, 990.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u32> = (1..=100).collect();
        // p90 of 100 leaves exactly ten beyond; p99 leaves one.
        assert_eq!(percentile_sorted(&v, 90.0).unwrap().value, 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), None);
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&[7], 50.0).unwrap().value, 7.0);
    }
}
