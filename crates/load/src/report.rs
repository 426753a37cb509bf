//! Load-run summaries: a deterministic section CI can compare bytewise
//! across server thread counts, a `"measured"` section holding everything
//! timing-dependent, and a one-line flattened record for
//! `BENCH_HISTORY.jsonl` trend tracking.

use crate::runner::{LoadResult, Outcome, Sample};
use crate::schedule::{CommandKind, LoadConfig, ScheduledRequest};
use emod_serve::Json;
use std::io::Write;
use std::path::Path;

/// History-record schema version written by this crate.
pub const HISTORY_SCHEMA: u64 = 2;

/// Nearest-rank quantile over an ascending-sorted slice (the same
/// convention as `emod-trace`'s span aggregation): `None` when empty.
pub fn sorted_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// p50/p90/p99/p99.9 plus mean/max of a latency series, in milliseconds.
/// Exact (computed from every raw sample), unlike the log-bucketed
/// `emod-telemetry` histograms that track the same series for scraping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile — the tail the open-loop harness exists to see.
    pub p999: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Worst sample.
    pub max: f64,
}

/// Computes [`Quantiles`] from microsecond samples, reported in ms.
pub fn quantiles_ms(us: &[f64]) -> Option<Quantiles> {
    if us.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| sorted_quantile(&sorted, p).expect("non-empty") / 1000.0;
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64 / 1000.0;
    Some(Quantiles {
        p50: q(0.50),
        p90: q(0.90),
        p99: q(0.99),
        p999: q(0.999),
        mean,
        max: sorted.last().copied().expect("non-empty") / 1000.0,
    })
}

fn quantiles_json(q: Option<Quantiles>) -> Json {
    match q {
        None => Json::Null,
        Some(q) => Json::obj(vec![
            ("p50", q.p50.into()),
            ("p90", q.p90.into()),
            ("p99", q.p99.into()),
            ("p999", q.p999.into()),
            ("mean", q.mean.into()),
            ("max", q.max.into()),
        ]),
    }
}

/// Outcome tallies over a run's samples.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// `"ok": true` replies.
    pub ok: u64,
    /// Error replies plus transport failures.
    pub errors: u64,
}

impl Tally {
    /// Counts outcomes across `samples`.
    pub fn of(samples: &[Sample]) -> Tally {
        let mut t = Tally::default();
        for s in samples {
            match &s.outcome {
                Outcome::Ok => t.ok += 1,
                Outcome::Error(_) | Outcome::Transport => t.errors += 1,
            }
        }
        t
    }
}

fn per_command_counts(schedule: &[ScheduledRequest]) -> Vec<(String, Json)> {
    CommandKind::ALL
        .iter()
        .filter_map(|kind| {
            let n = schedule.iter().filter(|r| r.kind == *kind).count();
            (n > 0).then(|| (kind.as_str().to_string(), Json::from(n)))
        })
        .collect()
}

/// Builds the full summary document. Every field before `"measured"` is a
/// pure function of the config and schedule — byte-identical across runs
/// and across any server `EMOD_THREADS` — while `"measured"` holds the
/// wall-clock observables (throughput, latency quantiles, outcome counts).
pub fn build_report(
    cfg: &LoadConfig,
    schedule: &[ScheduledRequest],
    digest: &str,
    result: &LoadResult,
) -> Json {
    let tally = Tally::of(&result.samples);
    let total = result.samples.len() as f64;
    let latency: Vec<f64> = result.samples.iter().map(|s| s.latency_us).collect();
    let service: Vec<f64> = result.samples.iter().map(|s| s.service_us).collect();
    let rate = |n: u64| if total > 0.0 { n as f64 / total } else { 0.0 };
    let measured = Json::obj(vec![
        ("wall_s", result.wall_s.into()),
        ("throughput_rps", (total / result.wall_s.max(1e-9)).into()),
        ("completed", result.samples.len().into()),
        ("ok", tally.ok.into()),
        ("errors", tally.errors.into()),
        ("error_rate", rate(tally.errors).into()),
        ("latency_ms", quantiles_json(quantiles_ms(&latency))),
        ("service_ms", quantiles_json(quantiles_ms(&service))),
    ]);
    Json::obj(vec![
        ("schema", HISTORY_SCHEMA.into()),
        ("bench", cfg.bench_label.as_str().into()),
        ("arrivals", cfg.arrival.as_str().into()),
        ("rate_rps", cfg.rate.into()),
        ("duration_s", cfg.duration_s.into()),
        ("connections", cfg.connections.into()),
        ("seed", cfg.seed.into()),
        ("mix", cfg.mix.spec().into()),
        ("workload", cfg.workload.as_str().into()),
        ("batch", cfg.batch.into()),
        ("requests", schedule.len().into()),
        ("per_command", Json::Obj(per_command_counts(schedule))),
        ("schedule_digest", digest.into()),
        ("measured", measured),
    ])
}

/// Flattens a report into the single-line record `emod-trace bench`
/// consumes: run identity plus the trend metrics (throughput, p50/p99/
/// p99.9, error rate).
pub fn history_line(report: &Json) -> String {
    let m = report.get("measured");
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    let lat = |k: &str| num(m.and_then(|m| m.get("latency_ms")).and_then(|l| l.get(k)));
    Json::obj(vec![
        ("schema", HISTORY_SCHEMA.into()),
        (
            "bench",
            report
                .get("bench")
                .and_then(Json::as_str)
                .unwrap_or("load")
                .into(),
        ),
        (
            "arrivals",
            report
                .get("arrivals")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .into(),
        ),
        ("rate_rps", num(report.get("rate_rps")).into()),
        ("connections", num(report.get("connections")).into()),
        ("seed", num(report.get("seed")).into()),
        ("requests", num(report.get("requests")).into()),
        ("wall_s", num(m.and_then(|m| m.get("wall_s"))).into()),
        (
            "throughput_rps",
            num(m.and_then(|m| m.get("throughput_rps"))).into(),
        ),
        ("p50_ms", lat("p50").into()),
        ("p90_ms", lat("p90").into()),
        ("p99_ms", lat("p99").into()),
        ("p999_ms", lat("p999").into()),
        (
            "error_rate",
            num(m.and_then(|m| m.get("error_rate"))).into(),
        ),
    ])
    .to_string()
}

/// Appends `line` (one JSON object) to the history file at `path`,
/// creating it if needed.
///
/// # Errors
///
/// Propagates file I/O failures as a message.
pub fn append_history(path: &Path, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {:?}: {}", path, e))?;
    writeln!(f, "{}", line).map_err(|e| format!("cannot append to {:?}: {}", path, e))
}

/// Pretty-prints a report with one top-level key per line (stable order,
/// diff-friendly) — the `--out` file format.
pub fn render_pretty(report: &Json) -> String {
    match report {
        Json::Obj(pairs) => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("  {}: {}", Json::Str(k.clone()), v))
                .collect();
            format!("{{\n{}\n}}\n", body.join(",\n"))
        }
        other => format!("{}\n", other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{build_schedule, schedule_digest, Arrival, CommandMix};

    fn fake_result(schedule: &[ScheduledRequest]) -> LoadResult {
        let samples = schedule
            .iter()
            .enumerate()
            .map(|(i, r)| Sample {
                index: i,
                kind: r.kind,
                intended_us: r.at_us,
                latency_us: 1000.0 + i as f64,
                service_us: 500.0,
                outcome: if i % 10 == 9 {
                    Outcome::Error("internal_error".into())
                } else {
                    Outcome::Ok
                },
            })
            .collect();
        LoadResult {
            samples,
            wall_s: 1.0,
        }
    }

    fn cfg() -> LoadConfig {
        LoadConfig {
            rate: 50.0,
            duration_s: 1.0,
            seed: 7,
            arrival: Arrival::Fixed,
            mix: CommandMix::parse("predict=3,explain=1").unwrap(),
            ..LoadConfig::default()
        }
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let us: Vec<f64> = (1..=1000).map(|i| i as f64 * 1000.0).collect();
        let q = quantiles_ms(&us).unwrap();
        assert_eq!(q.p50, 500.0);
        assert_eq!(q.p90, 900.0);
        assert_eq!(q.p99, 990.0);
        assert_eq!(q.p999, 999.0);
        assert_eq!(q.max, 1000.0);
        assert!(quantiles_ms(&[]).is_none());
    }

    #[test]
    fn deterministic_section_is_stable_and_measured_is_separate() {
        let c = cfg();
        let s = build_schedule(&c);
        let digest = schedule_digest(&s);
        let a = build_report(&c, &s, &digest, &fake_result(&s));
        let b = build_report(&c, &s, &digest, &fake_result(&s));
        assert_eq!(a.to_string(), b.to_string());
        // "measured" must be the last top-level key so a CI filter can strip
        // it and compare the rest bytewise.
        match &a {
            Json::Obj(pairs) => assert_eq!(pairs.last().unwrap().0, "measured"),
            _ => panic!("report must be an object"),
        }
        assert!(a.get("schedule_digest").is_some());
        assert_eq!(a.get("bench").and_then(Json::as_str), Some("load"));
    }

    #[test]
    fn history_line_is_one_parseable_object_with_trend_metrics() {
        let c = cfg();
        let s = build_schedule(&c);
        let report = build_report(&c, &s, &schedule_digest(&s), &fake_result(&s));
        let line = history_line(&report);
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("load"));
        for key in ["throughput_rps", "p99_ms", "p999_ms", "error_rate"] {
            assert!(v.get(key).and_then(Json::as_f64).is_some(), "{}", key);
        }
    }

    #[test]
    fn append_history_appends_lines() {
        let dir = std::env::temp_dir().join(format!("emod-load-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_HISTORY.jsonl");
        append_history(&path, "{\"a\":1}").unwrap();
        append_history(&path, "{\"a\":2}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
