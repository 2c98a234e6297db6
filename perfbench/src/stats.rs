//! Order statistics for the benchmark's samples.
//!
//! Percentiles use the nearest-rank rule on sorted samples, so every
//! reported figure is a value that was actually measured. A percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it; a run
//! that collected fewer fails instead of printing an unsupported tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`-th percentile among `n` samples:
/// `ceil(permille · n / 1000)`, at least 1. Integer math, so `p90` of 100
/// samples is rank 90 exactly.
pub fn rank(n: usize, permille: u32) -> usize {
    assert!(permille <= 1000, "percentile {permille}‰ is above 100%");
    (n * permille as usize).div_ceil(1000).max(1)
}

/// Samples strictly beyond the nearest-rank `permille`-th percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// Whether `n` samples support reporting the `permille`-th percentile.
pub fn supported(n: usize, permille: u32) -> bool {
    n > 0 && beyond(n, permille) >= MIN_BEYOND
}

/// Fewest samples that support the `permille`-th percentile.
pub fn min_samples(permille: u32) -> usize {
    (1..)
        .find(|&n| supported(n, permille))
        .expect("some n supports it")
}

/// Nearest-rank `permille`-th percentile of `samples` (any order).
///
/// # Errors
///
/// Names the percentile and the shortfall when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], permille: u32) -> Result<f64, String> {
    if !supported(samples.len(), permille) {
        return Err(format!(
            "p{} needs {} samples ({MIN_BEYOND} beyond it), got {}",
            f64::from(permille) / 10.0,
            min_samples(permille),
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(sorted.len(), permille) - 1])
}

/// Median of `samples` (any order, at least one), averaging the two middle
/// values of an even count — the figure repeated set-ups report.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First, second and third quartile with the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)` — the spread rule the
/// benchmark's steadiness is judged by. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// The highest of p99, p95 and p90 that `n` samples support.
pub fn top_tail(n: usize) -> Option<u32> {
    [990, 950, 900].into_iter().find(|&p| supported(n, p))
}

/// `median [q1, q3] pNN (n)` of `samples` for the run log: every printed
/// figure comes with its spread and the highest tail the samples support.
pub fn summary(samples: &[f64]) -> String {
    match samples.len() {
        0 => "no samples".to_string(),
        1 => format!("{:.4} (n=1)", samples[0]),
        n => {
            let [q1, q2, q3] = quartiles(samples);
            let tail = top_tail(n).map_or(String::new(), |p| {
                let v = percentile(samples, p).expect("top_tail is supported");
                format!(" p{} {v:.4}", p / 10)
            });
            format!("median {q2:.4} [q1 {q1:.4}, q3 {q3:.4}]{tail} (n={n})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_uses_exact_integer_ranks() {
        assert_eq!(rank(100, 900), 90);
        assert_eq!(rank(100, 990), 99);
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(rank(7, 500), 4);
        assert_eq!(rank(1, 500), 1);
        assert_eq!(rank(3, 0), 1);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(min_samples(500), 20);
        assert_eq!(min_samples(900), 100);
        assert_eq!(min_samples(950), 200);
        assert_eq!(min_samples(990), 1000);
        assert!(!supported(99, 900));
        assert!(supported(100, 900));
        assert!(!supported(999, 990));
        assert!(supported(1000, 990));
        assert!(!supported(0, 500));
        assert_eq!(top_tail(1000), Some(990));
        assert_eq!(top_tail(999), Some(950));
        assert_eq!(top_tail(100), Some(900));
        assert_eq!(top_tail(99), None);
    }

    #[test]
    fn percentile_reports_a_measured_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 500).unwrap(), 50.0);
        assert_eq!(percentile(&samples, 900).unwrap(), 90.0);
        let err = percentile(&samples, 990).unwrap_err();
        assert!(err.contains("p99 needs 1000 samples"), "{err}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // Two samples extrapolate past the ends, as Python does:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
