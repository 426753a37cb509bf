//! Bench-history trend and step-regression analysis.
//!
//! `BENCH_HISTORY.jsonl` accumulates one flat JSON object per bench run —
//! the `bench` binary and `emod-load --history` both append to it. Each
//! line carries a `bench` phase name (`measure`, `train`, `serve`, `load`;
//! older lines also `canary`, a removed phase), a `schema` version, and
//! that run's numeric results.
//! This module turns the file into per-`(bench, metric)` series (file
//! order == time order), fits a linear trendline to each, and flags
//! **step regressions** with a windowed mean-shift test: the mean of the
//! last `window` runs against the mean of the `window` runs before them,
//! tripping when the relative shift exceeds a threshold *in the bad
//! direction* for that metric. A gradual drift tilts the trendline
//! without tripping the gate; a step (a bad merge) moves the whole
//! trailing window at once and does.
//!
//! Only metrics with a known good direction are judged (see
//! [`metric_direction`]); run metadata (`mode`, `threads`, `seed`, …) is
//! ignored. `emod-trace bench` drives this and exits 1 when any series
//! regresses, so CI can gate on committed baselines.

use emod_serve::Json;
use std::collections::BTreeMap;

/// Compact value formatting for the report table: 3 significant-ish
/// decimals for small magnitudes, thousands kept readable.
fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        return format!("{}", v);
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{:.0}", v)
    } else if a >= 1.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.4}", v)
    }
}

/// Default trailing-window size for the mean-shift test.
pub const DEFAULT_WINDOW: usize = 3;

/// Default relative-shift threshold (percent) before a step counts as a
/// regression.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (wall times, latencies, error rates).
    LowerIsBetter,
    /// Larger is better (speedups, throughputs).
    HigherIsBetter,
}

/// The good direction for a history metric, or `None` for fields that are
/// metadata rather than results (those are never judged).
pub fn metric_direction(metric: &str) -> Option<Direction> {
    const LOWER: &[&str] = &[
        "wall_s",
        "p50_ms",
        "p90_ms",
        "p99_ms",
        "p999_ms",
        "error_rate",
        "overload_rate",
    ];
    const HIGHER: &[&str] = &[
        "speedup",
        "predictions_per_sec",
        "minst_per_sec",
        "throughput_rps",
    ];
    // Prefix match so variants like `wall_s_par` /
    // `predictions_per_sec_seq` inherit their base metric's direction.
    if LOWER.iter().any(|p| metric.starts_with(p)) {
        return Some(Direction::LowerIsBetter);
    }
    if HIGHER.iter().any(|p| metric.starts_with(p)) {
        return Some(Direction::HigherIsBetter);
    }
    None
}

/// One `(bench, metric)` series extracted from the history file.
#[derive(Debug, Clone)]
pub struct Series {
    /// The bench phase (`measure`, `load`, …).
    pub bench: String,
    /// The metric field name.
    pub metric: String,
    /// Which way it should move.
    pub direction: Direction,
    /// Values in file (= time) order.
    pub values: Vec<f64>,
}

/// Linear-trend summary of a series.
#[derive(Debug, Clone, Copy)]
pub struct Trend {
    /// Least-squares slope per run.
    pub slope: f64,
    /// Mean value over the whole series.
    pub mean: f64,
}

/// The mean-shift verdict for one series.
#[derive(Debug, Clone)]
pub struct StepVerdict {
    /// The series' bench phase.
    pub bench: String,
    /// The series' metric.
    pub metric: String,
    /// Which way the metric should move.
    pub direction: Direction,
    /// Mean of the `window` runs before the trailing window.
    pub before: f64,
    /// Mean of the trailing `window` runs.
    pub after: f64,
    /// Relative shift in percent, signed (positive = value went up).
    pub shift_pct: f64,
    /// Whether the shift exceeds the threshold in the bad direction.
    pub regressed: bool,
    /// Linear trend over the full series.
    pub trend: Trend,
    /// Total runs in the series.
    pub runs: usize,
}

/// Parsed history: the judged series plus parse diagnostics.
#[derive(Debug, Default)]
pub struct History {
    /// All judged series, keyed by `(bench, metric)` in sorted order.
    pub series: Vec<Series>,
    /// Lines that failed to parse as JSON objects.
    pub bad_lines: usize,
    /// Total history entries parsed.
    pub entries: usize,
}

/// Parses a `BENCH_HISTORY.jsonl` text into per-`(bench, metric)` series.
/// Unparseable lines are counted, not fatal — the history file is
/// append-only across many tool versions and ages.
pub fn parse_history(text: &str) -> History {
    let mut out = History::default();
    let mut map: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(Json::Obj(pairs)) = Json::parse(line) else {
            out.bad_lines += 1;
            continue;
        };
        out.entries += 1;
        let bench = pairs
            .iter()
            .find(|(k, _)| k == "bench")
            .and_then(|(_, v)| v.as_str())
            .unwrap_or("unknown")
            .to_string();
        for (key, value) in &pairs {
            if metric_direction(key).is_none() {
                continue;
            }
            if let Some(v) = value.as_f64() {
                if v.is_finite() {
                    map.entry((bench.clone(), key.clone())).or_default().push(v);
                }
            }
        }
    }
    out.series = map
        .into_iter()
        .map(|((bench, metric), values)| Series {
            direction: metric_direction(&metric).expect("only judged metrics are collected"),
            bench,
            metric,
            values,
        })
        .collect();
    out
}

/// Least-squares slope and mean of a series.
pub fn trend(values: &[f64]) -> Trend {
    let n = values.len() as f64;
    if values.is_empty() {
        return Trend {
            slope: 0.0,
            mean: 0.0,
        };
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = values.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, v) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (v - mean_y);
        den += dx * dx;
    }
    Trend {
        slope: if den > 0.0 { num / den } else { 0.0 },
        mean: mean_y,
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Judges one series with the windowed mean-shift test. Returns `None`
/// when the series is too short to form two full windows — an unjudgeable
/// series never trips the gate.
pub fn judge_series(s: &Series, window: usize, threshold_pct: f64) -> Option<StepVerdict> {
    let w = window.max(1);
    if s.values.len() < 2 * w {
        return None;
    }
    let after = mean(&s.values[s.values.len() - w..]);
    let before = mean(&s.values[s.values.len() - 2 * w..s.values.len() - w]);
    let shift_pct = if before.abs() > f64::EPSILON {
        (after - before) / before.abs() * 100.0
    } else if after.abs() > f64::EPSILON {
        // From zero to nonzero: treat as an unbounded shift in the sign
        // of the new value.
        100.0 * after.signum()
    } else {
        0.0
    };
    let bad = match s.direction {
        Direction::LowerIsBetter => shift_pct > threshold_pct,
        Direction::HigherIsBetter => shift_pct < -threshold_pct,
    };
    Some(StepVerdict {
        bench: s.bench.clone(),
        metric: s.metric.clone(),
        direction: s.direction,
        before,
        after,
        shift_pct,
        regressed: bad,
        trend: trend(&s.values),
        runs: s.values.len(),
    })
}

/// Judges every series in the history.
pub fn judge_history(h: &History, window: usize, threshold_pct: f64) -> Vec<StepVerdict> {
    h.series
        .iter()
        .filter_map(|s| judge_series(s, window, threshold_pct))
        .collect()
}

/// Renders the human report: one row per judged series, regressions
/// flagged, short series listed as unjudged.
pub fn render_bench_report(
    h: &History,
    verdicts: &[StepVerdict],
    window: usize,
    threshold_pct: f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bench history: {} entr{} ({} series, window {}, threshold {}%)\n",
        h.entries,
        if h.entries == 1 { "y" } else { "ies" },
        h.series.len(),
        window,
        threshold_pct
    ));
    if h.bad_lines > 0 {
        out.push_str(&format!(
            "  warning: {} unparseable line(s) skipped\n",
            h.bad_lines
        ));
    }
    out.push_str(&format!(
        "{:<10} {:<26} {:>5} {:>10} {:>10} {:>9}  {:>10}  verdict\n",
        "bench", "metric", "runs", "before", "after", "shift", "slope/run"
    ));
    for v in verdicts {
        out.push_str(&format!(
            "{:<10} {:<26} {:>5} {:>10} {:>10} {:>8.1}%  {:>10}  {}\n",
            v.bench,
            v.metric,
            v.runs,
            fmt_val(v.before),
            fmt_val(v.after),
            v.shift_pct,
            fmt_val(v.trend.slope),
            if v.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    let unjudged: Vec<&Series> = h
        .series
        .iter()
        .filter(|s| s.values.len() < 2 * window.max(1))
        .collect();
    if !unjudged.is_empty() {
        out.push_str(&format!(
            "  {} series with fewer than {} runs not judged: {}\n",
            unjudged.len(),
            2 * window.max(1),
            unjudged
                .iter()
                .map(|s| format!("{}/{}", s.bench, s.metric))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let regressions = verdicts.iter().filter(|v| v.regressed).count();
    if regressions > 0 {
        out.push_str(&format!("{} step regression(s) detected\n", regressions));
    } else {
        out.push_str("no step regressions\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(bench: &str, p99: f64, rps: f64) -> String {
        format!(
            "{{\"schema\":2,\"bench\":\"{}\",\"p99_ms\":{},\"throughput_rps\":{}}}",
            bench, p99, rps
        )
    }

    #[test]
    fn directions_cover_the_report_fields() {
        assert_eq!(
            metric_direction("wall_s_par"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(metric_direction("p999_ms"), Some(Direction::LowerIsBetter));
        assert_eq!(metric_direction("speedup"), Some(Direction::HigherIsBetter));
        assert_eq!(
            metric_direction("minst_per_sec_seq"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            metric_direction("throughput_rps"),
            Some(Direction::HigherIsBetter)
        );
        // Metadata never judged.
        assert_eq!(metric_direction("threads"), None);
        assert_eq!(metric_direction("seed"), None);
        assert_eq!(metric_direction("schema"), None);
    }

    #[test]
    fn parse_survives_mixed_ages_and_garbage() {
        let text = format!(
            "{}\nnot json at all\n{}\n{{\"bench\":\"measure\",\"speedup\":3.1}}\n",
            line("load", 5.0, 900.0),
            line("load", 6.0, 880.0)
        );
        let h = parse_history(&text);
        assert_eq!(h.entries, 3);
        assert_eq!(h.bad_lines, 1);
        let p99 = h
            .series
            .iter()
            .find(|s| s.bench == "load" && s.metric == "p99_ms")
            .unwrap();
        assert_eq!(p99.values, vec![5.0, 6.0]);
        assert!(h
            .series
            .iter()
            .any(|s| s.bench == "measure" && s.metric == "speedup"));
    }

    #[test]
    fn injected_p99_step_trips_the_gate() {
        // Six flat runs then a 3-run step from 5ms to 20ms.
        let mut text = String::new();
        for _ in 0..6 {
            text.push_str(&line("load", 5.0, 1000.0));
            text.push('\n');
        }
        for _ in 0..3 {
            text.push_str(&line("load", 20.0, 1000.0));
            text.push('\n');
        }
        let h = parse_history(&text);
        let verdicts = judge_history(&h, DEFAULT_WINDOW, DEFAULT_THRESHOLD_PCT);
        let p99 = verdicts
            .iter()
            .find(|v| v.metric == "p99_ms")
            .expect("p99 judged");
        assert!(p99.regressed, "300% p99 step must regress: {:?}", p99);
        assert!(p99.shift_pct > 250.0);
        let rps = verdicts
            .iter()
            .find(|v| v.metric == "throughput_rps")
            .unwrap();
        assert!(!rps.regressed, "flat throughput must not regress");
    }

    #[test]
    fn flat_with_noise_does_not_trip() {
        // ±8% noise around 10ms / 1000rps: inside the 25% threshold.
        let wiggle = [10.2, 9.4, 10.8, 9.7, 10.1, 9.3, 10.6, 9.9];
        let mut text = String::new();
        for (i, p99) in wiggle.iter().enumerate() {
            text.push_str(&line("load", *p99, 1000.0 + (i % 3) as f64 * 40.0));
            text.push('\n');
        }
        let h = parse_history(&text);
        let verdicts = judge_history(&h, DEFAULT_WINDOW, DEFAULT_THRESHOLD_PCT);
        assert!(!verdicts.is_empty());
        assert!(
            verdicts.iter().all(|v| !v.regressed),
            "noise tripped the gate: {:?}",
            verdicts
        );
    }

    #[test]
    fn throughput_drop_regresses_and_rise_does_not() {
        let mut text = String::new();
        for rps in [1000.0, 1010.0, 990.0, 1005.0, 600.0, 590.0, 610.0] {
            text.push_str(&line("load", 5.0, rps));
            text.push('\n');
        }
        let h = parse_history(&text);
        let verdicts = judge_history(&h, 3, 25.0);
        let rps = verdicts
            .iter()
            .find(|v| v.metric == "throughput_rps")
            .unwrap();
        assert!(rps.regressed, "40% throughput drop must regress");
        assert!(rps.shift_pct < -25.0);

        // The mirror image — a big *improvement* — is not a regression.
        let mut text = String::new();
        for rps in [600.0, 590.0, 610.0, 605.0, 1000.0, 1010.0, 990.0] {
            text.push_str(&line("load", 5.0, rps));
            text.push('\n');
        }
        let h = parse_history(&text);
        let verdicts = judge_history(&h, 3, 25.0);
        let rps = verdicts
            .iter()
            .find(|v| v.metric == "throughput_rps")
            .unwrap();
        assert!(!rps.regressed, "an improvement is not a regression");
    }

    #[test]
    fn short_series_are_unjudged_not_failed() {
        let text = format!(
            "{}\n{}\n",
            line("load", 5.0, 1000.0),
            line("load", 50.0, 100.0)
        );
        let h = parse_history(&text);
        assert!(judge_history(&h, 3, 25.0).is_empty());
        let report = render_bench_report(&h, &[], 3, 25.0);
        assert!(report.contains("not judged"));
        assert!(report.contains("no step regressions"));
    }

    #[test]
    fn trend_slope_matches_a_straight_line() {
        let t = trend(&[1.0, 2.0, 3.0, 4.0]);
        assert!((t.slope - 1.0).abs() < 1e-12);
        assert!((t.mean - 2.5).abs() < 1e-12);
        assert_eq!(trend(&[]).slope, 0.0);
    }
}
