//! Sample statistics: medians and the percentile rule.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail is too thin to mean anything.
pub const MIN_TAIL: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
/// `NaN` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL`] samples rank above it.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_rule_leaves_at_least_ten_samples_beyond_the_tail() {
        for n in 1..=600usize {
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            for q in [0.5, 0.9, 0.95, 0.99] {
                if let Some(p) = percentile(&samples, q) {
                    let beyond = samples.iter().filter(|&&x| x > p).count();
                    assert!(beyond >= MIN_TAIL, "n={n} q={q}: only {beyond} beyond {p}");
                }
            }
        }
        // The boundary itself: p95 needs 200 samples, p50 needs 20.
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(189.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(9.0));
    }
}
