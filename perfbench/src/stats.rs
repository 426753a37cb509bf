//! Order statistics over raw samples.
//!
//! Every reported percentile is read off the sorted samples (nearest rank),
//! never interpolated, and a tail percentile is only reported when the
//! sample supports it: at least [`TAIL_BEYOND`] samples must lie beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `[0, 1]` among `n` samples. The
/// epsilon keeps products like `0.999 * 10000` from rounding up a rank.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile `q` in `[0, 1]` of already sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(q, sorted.len()) - 1])
}

/// Sorts a copy of `values` (NaN-free by construction of every caller).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of unsorted samples.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(values), 0.5)
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
pub fn beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(nearest_rank(pct / 100.0, n))
}

/// The highest of the standard percentiles (p99.9, p99, p95, p90, p50) not
/// above `pct` that keeps at least [`TAIL_BEYOND`] samples beyond it, as
/// `(percentile, value)`: p99.9 needs 10 000 samples, p99 1 000, p95 200,
/// p90 100 and p50 20. `None` when even the median is unsupported.
pub fn tail_at_most(values: &[f64], pct: f64) -> Option<(f64, f64)> {
    let s = sorted(values);
    for p in [99.9, 99.0, 95.0, 90.0, 50.0] {
        if p <= pct && beyond(s.len(), p) >= TAIL_BEYOND {
            return quantile_sorted(&s, p / 100.0).map(|v| (p, v));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(10);
        assert_eq!(quantile_sorted(&v, 0.5), Some(5.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(10.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(tail_at_most(&ramp(200), 99.9), Some((95.0, 190.0)));
        // One sample short of p95: the rule falls back to p90.
        assert_eq!(tail_at_most(&ramp(199), 99.9).map(|t| t.0), Some(90.0));
    }

    #[test]
    fn highest_supported_tail_grows_with_the_sample() {
        assert_eq!(tail_at_most(&ramp(19), 99.9), None);
        assert_eq!(tail_at_most(&ramp(20), 99.9), Some((50.0, 10.0)));
        assert_eq!(tail_at_most(&ramp(100), 99.9).map(|t| t.0), Some(90.0));
        assert_eq!(tail_at_most(&ramp(110), 90.0), Some((90.0, 99.0)));
        assert_eq!(tail_at_most(&ramp(1000), 99.9), Some((99.0, 990.0)));
        assert_eq!(tail_at_most(&ramp(10_000), 99.9).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn capped_tail_never_exceeds_the_request() {
        assert_eq!(tail_at_most(&ramp(10_000), 99.0), Some((99.0, 9900.0)));
        assert_eq!(tail_at_most(&ramp(500), 99.0).map(|t| t.0), Some(95.0));
        assert_eq!(tail_at_most(&ramp(5), 99.0), None);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail_at_most(&v, 99.9), Some((95.0, 190.0)));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }
}
