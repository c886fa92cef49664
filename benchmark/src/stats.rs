//! Quantiles over raw samples. Every latency the benchmark reports comes
//! from here, computed on the full list of client-side samples — never
//! from a bucketed histogram.

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples: the value
/// at rank `ceil(q * n)` of the ascending order. `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of unsorted samples (nearest rank), `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The nearest-rank `q` quantile of every full window: `samples` are
/// `(due offset in seconds, value)` in due order, cut into consecutive
/// windows of `window` seconds; windows holding fewer than `min_samples`
/// are left out.
pub fn window_quantiles(
    samples: &[(f64, f64)],
    q: f64,
    window: f64,
    min_samples: usize,
) -> Vec<f64> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < samples.len() {
        let index = (samples[start].0 / window).floor();
        let len = samples[start..].iter().take_while(|s| (s.0 / window).floor() == index).count();
        if len >= min_samples {
            let values: Vec<f64> = samples[start..start + len].iter().map(|s| s.1).collect();
            out.extend(quantile(&values, q));
        }
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn windows_are_cut_by_due_time_and_short_ones_dropped() {
        // Five one-second windows of 100 samples, the third stalled at 1000,
        // then a short tail window of 10.
        let samples: Vec<(f64, f64)> = (0..510)
            .map(|i| {
                (i as f64 / 100.0, if (200..300).contains(&i) { 1000.0 } else { (i % 100) as f64 })
            })
            .collect();
        assert_eq!(
            window_quantiles(&samples, 0.99, 1.0, 100),
            vec![98.0, 98.0, 1000.0, 98.0, 98.0]
        );
        assert_eq!(median(&window_quantiles(&samples, 0.99, 1.0, 100)), 98.0);
        assert_eq!(window_quantiles(&samples, 0.99, 1.0, 101), Vec::<f64>::new());
    }
}
