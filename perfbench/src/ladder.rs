//! The rate ladder behind `max_rps`: the highest offered rate whose tail
//! latency stays within the limit with no failed request.
//!
//! Rungs are searched, not swept: starting from a fraction of the measured
//! closed-loop capacity, the rate grows geometrically until a rung misses,
//! then bisects (geometrically) between the highest pass and the lowest
//! miss. A rung on which the generator itself ran late is marked
//! generator-limited: it neither passes nor fails, and the search does not
//! go above it, because beyond that point the harness, not the server, is
//! what would be measured.

use crate::stats;

/// How a rung ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Tail within the limit and every request answered in time.
    Pass,
    /// A request failed or the tail missed the limit.
    Fail,
    /// The generator sent late; the rung measures the harness.
    GeneratorLimited,
}

/// One measured rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests scheduled.
    pub requests: usize,
    /// Requests failed, refused, unsent or answered after the deadline.
    pub failed: usize,
    /// The tail percentile used (highest supported, at most p99).
    pub tail_pct: f64,
    /// Latency at that percentile, ms (`NAN` if unsupported).
    pub tail_ms: f64,
    /// p99 (nearest rank) of the generator's own send lag, ms.
    pub lag_p99_ms: f64,
    /// The rung's verdict.
    pub verdict: Verdict,
}

/// Classifies a rung from its answered latencies (ms), failure count and
/// send lags (ms).
pub fn classify(
    rate: f64,
    latencies_ms: &[f64],
    failed: usize,
    lags_ms: &[f64],
    limit_ms: f64,
    lag_limit_ms: f64,
) -> Rung {
    let (tail_pct, tail_ms) = stats::tail_at_most(latencies_ms, 99.0).unwrap_or((100.0, f64::NAN));
    let tail_ms = if tail_ms.is_nan() {
        // Too few samples for any supported percentile: use the maximum.
        stats::sorted(latencies_ms)
            .last()
            .copied()
            .unwrap_or(f64::NAN)
    } else {
        tail_ms
    };
    let lag_p99_ms = stats::quantile_sorted(&stats::sorted(lags_ms), 0.99).unwrap_or(0.0);
    let verdict = if lag_p99_ms > lag_limit_ms {
        Verdict::GeneratorLimited
    } else if failed > 0 || tail_ms.is_nan() || tail_ms > limit_ms {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    Rung {
        rate,
        requests: latencies_ms.len() + failed,
        failed,
        tail_pct,
        tail_ms,
        lag_p99_ms,
        verdict,
    }
}

/// Searches for the highest passing rate with at most `max_rungs` rungs,
/// starting at `start` requests/s, stopping early once the bracket between
/// the highest pass and the lowest non-pass is within `resolution` (e.g.
/// 0.03 for 3%). Returns the highest passing rate (0 when none passed)
/// and every rung in the order run.
pub fn search(
    start: f64,
    max_rungs: usize,
    resolution: f64,
    mut eval: impl FnMut(f64) -> Rung,
) -> (f64, Vec<Rung>) {
    let mut rungs = Vec::new();
    let mut lo: Option<f64> = None;
    let mut hi: Option<f64> = None;
    let mut rate = start.max(1.0);
    while rungs.len() < max_rungs {
        let rung = eval(rate);
        let verdict = rung.verdict;
        rungs.push(rung);
        match verdict {
            Verdict::Pass => lo = Some(lo.map_or(rate, |l: f64| l.max(rate))),
            Verdict::Fail | Verdict::GeneratorLimited => {
                hi = Some(hi.map_or(rate, |h: f64| h.min(rate)))
            }
        }
        rate = match (lo, hi) {
            (Some(l), Some(h)) if h / l <= 1.0 + resolution => break,
            (Some(l), Some(h)) => (l * h).sqrt(),
            (Some(l), None) => l * 2.0,
            (None, Some(h)) if h <= 1.0 => break,
            (None, Some(h)) => (h / 2.0).max(1.0),
            (None, None) => unreachable!("a rung was just classified"),
        };
    }
    (lo.unwrap_or(0.0), rungs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server: answers within `base_ms` below `capacity`,
    /// misses the limit above it.
    fn synthetic(capacity: f64, lag_from: f64) -> impl FnMut(f64) -> Rung {
        move |rate| {
            let lat = if rate <= capacity { 5.0 } else { 500.0 };
            let lags = if rate >= lag_from {
                vec![20.0; 100]
            } else {
                vec![0.1; 100]
            };
            classify(rate, &vec![lat; 1000], 0, &lags, 50.0, 5.0)
        }
    }

    #[test]
    fn converges_on_the_knee_from_below() {
        let (max, rungs) = search(100.0, 30, 0.02, synthetic(1234.0, f64::INFINITY));
        assert!(max <= 1234.0 && max > 1234.0 / 1.021, "{}", max);
        assert!(rungs.len() < 30);
        assert!(rungs
            .iter()
            .all(|r| (r.verdict == Verdict::Pass) == (r.rate <= 1234.0)));
    }

    #[test]
    fn converges_on_the_knee_from_above() {
        let (max, _) = search(5000.0, 30, 0.02, synthetic(300.0, f64::INFINITY));
        assert!(max <= 300.0 && max > 300.0 / 1.021, "{}", max);
    }

    #[test]
    fn nothing_passing_reports_zero() {
        let (max, rungs) = search(8.0, 10, 0.02, synthetic(0.5, f64::INFINITY));
        assert_eq!(max, 0.0);
        assert_eq!(rungs.last().unwrap().rate, 1.0);
    }

    #[test]
    fn generator_limited_rungs_cap_the_search() {
        let (max, rungs) = search(100.0, 30, 0.02, synthetic(10_000.0, 800.0));
        assert!(max < 800.0 && max > 800.0 / 1.021, "{}", max);
        assert!(rungs.iter().any(|r| r.verdict == Verdict::GeneratorLimited));
        assert!(rungs
            .iter()
            .filter(|r| r.verdict == Verdict::GeneratorLimited)
            .all(|r| r.rate >= 800.0));
    }

    #[test]
    fn any_failure_fails_the_rung() {
        let r = classify(10.0, &vec![1.0; 1000], 1, &[0.0], 50.0, 5.0);
        assert_eq!(r.verdict, Verdict::Fail);
        assert_eq!(r.requests, 1001);
        // With 1000 answered requests the tail is a true p99.
        let r = classify(10.0, &vec![1.0; 1000], 0, &[0.0], 50.0, 5.0);
        assert_eq!((r.verdict, r.tail_pct), (Verdict::Pass, 99.0));
        // With 150 the highest supported percentile is p90.
        let r = classify(10.0, &vec![1.0; 150], 0, &[0.0], 50.0, 5.0);
        assert_eq!(r.tail_pct, 90.0);
    }
}
