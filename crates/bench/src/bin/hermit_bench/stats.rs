//! Percentiles with the sample-count rule: a percentile is reported only when
//! at least ten samples lie beyond it, so p99 needs 1000 samples.

/// Samples that must lie beyond a reported percentile.
const BEYOND: f64 = 10.0;

/// Nearest-rank quantile of an ascending slice; `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`quantile`], withheld unless the sample supports it.
pub fn supported_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let beyond = (1.0 - q).min(q) * sorted.len() as f64;
    if beyond < BEYOND {
        return None;
    }
    quantile(sorted, q)
}

/// The value a quarter of the way in from the *better* end of `values`: the
/// upper quartile when higher is better, the lower one otherwise. This is how
/// per-slice figures are combined (see `run::SLICE_NS`): interference on a
/// shared machine only ever makes a slice worse, so the better quarter of the
/// slices says what the code does when left alone, and says it more steadily
/// than the median. Stalls the code causes itself are what the p99 and
/// per-step metrics are for.
pub fn better_quartile(values: &mut [f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let from_best = (values.len() - 1) / 4;
    values[if higher_is_better { values.len() - 1 - from_best } else { from_best }]
}

/// Median of a few repeated measurements (the set-ups of one run).
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), Some(50));
        assert_eq!(quantile(&s, 0.99), Some(99));
        assert_eq!(quantile(&s, 1.0), Some(100));
        assert_eq!(quantile(&s, 0.0), Some(1));
        assert_eq!(quantile(&[7], 0.25), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples_and_medians_twenty() {
        let s: Vec<u64> = (0..999).collect();
        assert_eq!(supported_quantile(&s, 0.99), None);
        let s: Vec<u64> = (0..1000).collect();
        assert_eq!(supported_quantile(&s, 0.99), Some(989));
        assert_eq!(supported_quantile(&s[..19], 0.5), None);
        assert_eq!(supported_quantile(&s[..20], 0.5), Some(9));
        // A low percentile is as demanding as its mirror image.
        assert_eq!(supported_quantile(&s[..39], 0.25), None);
        assert_eq!(supported_quantile(&s[..40], 0.25), Some(9));
    }

    #[test]
    fn better_quartile_leans_towards_the_good_end() {
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(better_quartile(&mut v, true), 7.0);
        assert_eq!(better_quartile(&mut v, false), 3.0);
        // Two disturbed slices out of eight do not move it.
        let mut rates = [100.0, 101.0, 40.0, 99.0, 100.0, 55.0, 102.0, 100.0];
        assert_eq!(better_quartile(&mut rates, true), 101.0);
        assert_eq!(better_quartile(&mut [5.0], false), 5.0);
        assert_eq!(better_quartile(&mut [], true), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
