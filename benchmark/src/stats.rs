//! Order statistics over latency samples.

/// A p95 is reported only with at least this many samples, so that ten or
/// more lie beyond it; below that it is "unavailable", never a number.
pub const P95_MIN_SAMPLES: usize = 200;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn p95(sorted: &[f64]) -> Option<f64> {
    (sorted.len() >= P95_MIN_SAMPLES).then(|| percentile(sorted, 95.0))
}

/// Median of unsorted values (mean of the middle two for an even count).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // 10 samples: the median is the 5th, p95 the 10th
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 50.0), 5.0);
        assert_eq!(percentile(&t, 95.0), 10.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(p95(&short), None);
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        // rank ceil(0.95 * 200) = 190 -> value 189, ten samples beyond it
        assert_eq!(p95(&enough), Some(189.0));
        assert_eq!(enough.iter().filter(|&&v| v > 189.0).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
