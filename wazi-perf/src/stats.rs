//! The harness's own arithmetic: percentiles, medians, spreads.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest pooled calls a run needs before its p99 may be reported.
pub const MIN_CALLS: usize = 1_000;

/// Nearest-rank percentile of an ascending slice, refused (`None`) when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    let at = rank.max(1) - 1;
    (at < sorted.len() && sorted.len() - 1 - at >= MIN_BEYOND).then(|| sorted[at])
}

/// Splits trials with `calls[i]` calls each into runs of consecutive trials
/// that each pool at least [`MIN_CALLS`]; a short tail joins the last run.
/// Fewer than [`MIN_CALLS`] calls in all give no group.
pub fn call_groups(calls: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut groups = Vec::new();
    let (mut start, mut pooled) = (0, 0);
    for (i, &n) in calls.iter().enumerate() {
        pooled += n;
        let rest: usize = calls[i + 1..].iter().sum();
        if pooled >= MIN_CALLS && (rest == 0 || rest >= MIN_CALLS) {
            groups.push(start..i + 1);
            (start, pooled) = (i + 1, 0);
        }
    }
    groups
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max - min) / median` of the values: how far apart a run's trials lie.
pub fn spread_share(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// By what share of `first` the value `second` is worse; negative when it is
/// better.
pub fn worse_by(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_refused_without_ten_samples_beyond() {
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        assert_eq!(percentile(&thousand, 0.50), Some(500));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10));
        assert_eq!(percentile(&twenty, 0.55), None);
    }

    #[test]
    fn trials_group_until_a_p99_is_allowed() {
        assert_eq!(call_groups(&[7000, 7000, 7000]), vec![0..1, 1..2, 2..3]);
        assert_eq!(call_groups(&[150; 9]), vec![0..9]);
        assert_eq!(call_groups(&[600, 600, 600, 600, 600]), vec![0..2, 2..5]);
        assert_eq!(call_groups(&[150; 6]), Vec::<std::ops::Range<usize>>::new());
    }

    #[test]
    fn median_of_trials() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn spread_and_direction() {
        assert_eq!(spread_share(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(worse_by(100.0, 110.0, true), 0.1);
        assert_eq!(worse_by(100.0, 110.0, false), -0.1);
        assert_eq!(worse_by(100.0, 90.0, false), 0.1);
    }
}
