//! Serving SLO tracking: targets, rolling windows, and burn rates.
//!
//! Two targets, both environment-driven and optional:
//!
//! * `EMOD_SLO_P99_MS` — the latency objective: at most 1% of requests may
//!   take longer than this many milliseconds (i.e. "p99 under the
//!   target").
//! * `EMOD_SLO_AVAIL` — the availability objective as a success fraction
//!   in `(0, 1)`, e.g. `0.999` allows one failed request per thousand.
//!
//! A [`SloTracker`] keeps the last `EMOD_SLO_WINDOW` requests (command,
//! latency from arrival, outcome) in a bounded ring and distills them into a
//! [`SloSnapshot`]: the window's error and over-target fractions, the two
//! **burn rates**, and rolling per-command latency percentiles. A burn
//! rate is budget consumption speed — the fraction of the window that
//! violated the objective divided by the fraction the objective allows —
//! so `1.0` means the error budget is being consumed exactly as fast as it
//! accrues, below `1.0` is sustainable, and a sustained `10.0` eats a
//! month of budget in three days. The serve layer publishes snapshots as
//! `serve.slo.*` gauges (scraped via `metrics`) and as the `slo` section
//! of `stats`/`health`.
//!
//! Tracking is always on (the window costs a few KiB); the burn rates are
//! `None` until the corresponding target is configured.

use crate::json::Json;
use std::collections::VecDeque;

/// Default rolling-window size when `EMOD_SLO_WINDOW` is unset.
pub const DEFAULT_SLO_WINDOW: usize = 512;

/// The latency objective's implied budget: 1% of requests may exceed the
/// p99 target.
pub const P99_BUDGET_FRACTION: f64 = 0.01;

/// SLO targets and window size.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// `EMOD_SLO_P99_MS`: p99 handler-latency target in milliseconds.
    pub p99_target_ms: Option<f64>,
    /// `EMOD_SLO_AVAIL`: availability target as a fraction in `(0, 1)`.
    pub availability_target: Option<f64>,
    /// `EMOD_SLO_WINDOW`: rolling request-count window.
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            p99_target_ms: None,
            availability_target: None,
            window: DEFAULT_SLO_WINDOW,
        }
    }
}

impl SloConfig {
    /// Reads the targets from the environment (unparseable or out-of-range
    /// values are ignored, per the config-reference contract).
    pub fn from_env() -> SloConfig {
        let num = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|s| s.trim().parse::<f64>().ok())
        };
        SloConfig {
            p99_target_ms: num("EMOD_SLO_P99_MS").filter(|v| *v > 0.0),
            availability_target: num("EMOD_SLO_AVAIL").filter(|v| *v > 0.0 && *v < 1.0),
            window: std::env::var("EMOD_SLO_WINDOW")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_SLO_WINDOW),
        }
    }
}

/// Availability burn rate: the window's error fraction over the error
/// budget `1 - target`. `0.0` when the window is clean; `f64::INFINITY`
/// for a degenerate zero budget with errors present.
pub fn availability_burn_rate(error_fraction: f64, availability_target: f64) -> f64 {
    let budget = 1.0 - availability_target;
    if budget <= 0.0 {
        return if error_fraction > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
    }
    (error_fraction / budget).max(0.0)
}

/// Latency burn rate: the fraction of the window over the p99 target,
/// divided by the 1% of requests the objective lets exceed it.
pub fn latency_burn_rate(over_target_fraction: f64) -> f64 {
    (over_target_fraction / P99_BUDGET_FRACTION).max(0.0)
}

#[derive(Debug, Clone, Copy)]
struct ReqSample {
    cmd: &'static str,
    latency_ms: f64,
    ok: bool,
}

/// Bounded ring of recent request outcomes feeding [`SloSnapshot`]s.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    ring: VecDeque<ReqSample>,
}

/// Rolling latency percentiles for one command within the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandWindow {
    /// Requests for this command still inside the window.
    pub count: usize,
    /// Median request latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile request latency, ms (nearest rank over the window).
    pub p99_ms: f64,
}

/// One distilled view of the rolling window.
#[derive(Debug, Clone)]
pub struct SloSnapshot {
    /// Configured window capacity.
    pub window: usize,
    /// Requests currently inside the window.
    pub requests: usize,
    /// Fraction of windowed requests that answered with an error.
    pub error_fraction: f64,
    /// Fraction over the p99 target (`None` without a target).
    pub over_p99_fraction: Option<f64>,
    /// Availability burn rate (`None` without a target).
    pub availability_burn: Option<f64>,
    /// Latency burn rate (`None` without a target).
    pub latency_burn: Option<f64>,
    /// The configured p99 target, echoed for scrapers.
    pub p99_target_ms: Option<f64>,
    /// The configured availability target, echoed for scrapers.
    pub availability_target: Option<f64>,
    /// Rolling per-command windows, in first-seen order.
    pub per_command: Vec<(&'static str, CommandWindow)>,
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

impl SloTracker {
    /// A tracker over `cfg`'s window.
    pub fn new(cfg: SloConfig) -> SloTracker {
        let cap = cfg.window.max(1);
        SloTracker {
            cfg,
            ring: VecDeque::with_capacity(cap),
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Records one finished request (latency from arrival, including the
    /// wait for a handler thread), evicting the oldest once the window is
    /// full.
    pub fn record(&mut self, cmd: &'static str, latency_ms: f64, ok: bool) {
        if self.ring.len() == self.cfg.window.max(1) {
            self.ring.pop_front();
        }
        self.ring.push_back(ReqSample {
            cmd,
            latency_ms,
            ok,
        });
    }

    /// Distills the current window.
    pub fn snapshot(&self) -> SloSnapshot {
        let n = self.ring.len();
        let errors = self.ring.iter().filter(|s| !s.ok).count();
        let error_fraction = if n > 0 { errors as f64 / n as f64 } else { 0.0 };
        let over_p99_fraction = self.cfg.p99_target_ms.map(|target| {
            if n == 0 {
                0.0
            } else {
                self.ring.iter().filter(|s| s.latency_ms > target).count() as f64 / n as f64
            }
        });
        let mut per_command: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for s in &self.ring {
            match per_command.iter_mut().find(|(c, _)| *c == s.cmd) {
                Some((_, lats)) => lats.push(s.latency_ms),
                None => per_command.push((s.cmd, vec![s.latency_ms])),
            }
        }
        let per_command = per_command
            .into_iter()
            .map(|(cmd, mut lats)| {
                lats.sort_by(f64::total_cmp);
                (
                    cmd,
                    CommandWindow {
                        count: lats.len(),
                        p50_ms: nearest_rank(&lats, 0.50),
                        p99_ms: nearest_rank(&lats, 0.99),
                    },
                )
            })
            .collect();
        SloSnapshot {
            window: self.cfg.window,
            requests: n,
            error_fraction,
            over_p99_fraction,
            availability_burn: self
                .cfg
                .availability_target
                .map(|t| availability_burn_rate(error_fraction, t)),
            latency_burn: over_p99_fraction.map(latency_burn_rate),
            p99_target_ms: self.cfg.p99_target_ms,
            availability_target: self.cfg.availability_target,
            per_command,
        }
    }
}

impl SloSnapshot {
    /// The `slo` section of `stats` (and, without `rolling`, of `health`).
    pub fn to_json(&self, include_rolling: bool) -> Json {
        let mut fields = vec![
            (
                "p99_target_ms",
                self.p99_target_ms.map_or(Json::Null, Json::Num),
            ),
            (
                "availability_target",
                self.availability_target.map_or(Json::Null, Json::Num),
            ),
            ("window", Json::from(self.window)),
            ("window_requests", Json::from(self.requests)),
            ("error_fraction", Json::Num(self.error_fraction)),
            (
                "over_p99_fraction",
                self.over_p99_fraction.map_or(Json::Null, Json::Num),
            ),
            (
                "availability_burn",
                self.availability_burn.map_or(Json::Null, Json::Num),
            ),
            (
                "latency_burn",
                self.latency_burn.map_or(Json::Null, Json::Num),
            ),
        ];
        if include_rolling {
            let rolling: Vec<(String, Json)> = self
                .per_command
                .iter()
                .map(|(cmd, w)| {
                    (
                        cmd.to_string(),
                        Json::obj(vec![
                            ("count", w.count.into()),
                            ("p50_ms", w.p50_ms.into()),
                            ("p99_ms", w.p99_ms.into()),
                        ]),
                    )
                })
                .collect();
            fields.push(("rolling", Json::Obj(rolling)));
        }
        Json::obj(fields)
    }

    /// Publishes the snapshot as `serve.slo.*` / `serve.rolling.*` gauges
    /// so a `metrics` scrape sees live burn rates and saturation.
    pub fn publish_gauges(&self) {
        use emod_telemetry as telemetry;
        telemetry::gauge_set("serve.slo.window_requests", self.requests as f64);
        telemetry::gauge_set("serve.slo.error_fraction", self.error_fraction);
        if let Some(t) = self.p99_target_ms {
            telemetry::gauge_set("serve.slo.p99_target_ms", t);
        }
        if let Some(t) = self.availability_target {
            telemetry::gauge_set("serve.slo.availability_target", t);
        }
        if let Some(f) = self.over_p99_fraction {
            telemetry::gauge_set("serve.slo.over_p99_fraction", f);
        }
        if let Some(b) = self.availability_burn {
            telemetry::gauge_set("serve.slo.availability_burn", b);
        }
        if let Some(b) = self.latency_burn {
            telemetry::gauge_set("serve.slo.latency_burn", b);
        }
        for (cmd, w) in &self.per_command {
            telemetry::gauge_set(&format!("serve.rolling.p50_ms.{}", cmd), w.p50_ms);
            telemetry::gauge_set(&format!("serve.rolling.p99_ms.{}", cmd), w.p99_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_burn_math() {
        // 0.1% errors against a 99.9% target: burning exactly at budget.
        assert!((availability_burn_rate(0.001, 0.999) - 1.0).abs() < 1e-12);
        // 1% errors against 99.9%: ten times over budget.
        assert!((availability_burn_rate(0.01, 0.999) - 10.0).abs() < 1e-9);
        // Clean window burns nothing.
        assert_eq!(availability_burn_rate(0.0, 0.999), 0.0);
        // Degenerate 100% target: any error is infinite burn.
        assert_eq!(availability_burn_rate(0.5, 1.0), f64::INFINITY);
        assert_eq!(availability_burn_rate(0.0, 1.0), 0.0);
    }

    #[test]
    fn latency_burn_math() {
        // Exactly 1% over target = the p99 objective's full budget.
        assert!((latency_burn_rate(0.01) - 1.0).abs() < 1e-12);
        assert!((latency_burn_rate(0.05) - 5.0).abs() < 1e-12);
        assert_eq!(latency_burn_rate(0.0), 0.0);
    }

    #[test]
    fn tracker_window_evicts_and_snapshots() {
        let mut t = SloTracker::new(SloConfig {
            p99_target_ms: Some(100.0),
            availability_target: Some(0.99),
            window: 10,
        });
        // 20 records; only the last 10 survive. Of those, 2 errors and 1
        // over-target.
        for i in 0..20 {
            let ok = !(i == 15 || i == 18);
            let latency = if i == 19 { 500.0 } else { 10.0 };
            t.record("predict", latency, ok);
        }
        let s = t.snapshot();
        assert_eq!(s.requests, 10);
        assert!((s.error_fraction - 0.2).abs() < 1e-12);
        assert!((s.over_p99_fraction.unwrap() - 0.1).abs() < 1e-12);
        // 20% errors / 1% budget = 20x burn; 10% over / 1% = 10x burn.
        assert!((s.availability_burn.unwrap() - 20.0).abs() < 1e-9);
        assert!((s.latency_burn.unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(s.per_command.len(), 1);
        let (cmd, w) = s.per_command[0];
        assert_eq!(cmd, "predict");
        assert_eq!(w.count, 10);
        assert_eq!(w.p50_ms, 10.0);
        assert_eq!(w.p99_ms, 500.0);
    }

    #[test]
    fn burns_are_none_without_targets() {
        let mut t = SloTracker::new(SloConfig::default());
        t.record("predict", 5.0, true);
        t.record("tune", 50.0, false);
        let s = t.snapshot();
        assert_eq!(s.availability_burn, None);
        assert_eq!(s.latency_burn, None);
        assert_eq!(s.over_p99_fraction, None);
        assert!((s.error_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.per_command.len(), 2);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut t = SloTracker::new(SloConfig {
            p99_target_ms: Some(10.0),
            availability_target: Some(0.999),
            window: 4,
        });
        t.record("predict", 3.0, true);
        let j = t.snapshot().to_json(true);
        assert_eq!(j.get("window").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("window_requests").and_then(Json::as_u64), Some(1));
        assert!(j.get("rolling").and_then(|r| r.get("predict")).is_some());
        let brief = t.snapshot().to_json(false);
        assert!(brief.get("rolling").is_none());
        assert_eq!(
            brief.get("p99_target_ms").and_then(Json::as_f64),
            Some(10.0)
        );
    }

    #[test]
    fn from_env_ignores_nonsense() {
        // Read-only check of defaults (env mutation races other tests).
        let cfg = SloConfig::default();
        assert_eq!(cfg.window, DEFAULT_SLO_WINDOW);
        assert_eq!(cfg.p99_target_ms, None);
        assert_eq!(cfg.availability_target, None);
    }
}
