//! Offline analyzer for `emod-telemetry` JSONL streams (the `emod-trace`
//! binary): per-trace span trees, an aggregate flame-style self-time table
//! per span path, and a diff mode that gates on p50 regressions between
//! two runs.
//!
//! Works on any file written via `EMOD_TELEMETRY` — `repro` runs, the
//! server's access/request stream, or several files merged. The span modes
//! (`tree`, `flame`, `diff`) use `"kind":"span"` records; the `quality`
//! mode distills `"kind":"event"` records (`quality.prediction`,
//! `quality.observation`, `serve.quality_warn`) into a model-quality
//! report. Everything else is skipped (and counted, so truncated or mixed
//! files are visible rather than silent).

use emod_serve::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One span close record from a telemetry JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Close timestamp, microseconds since the process telemetry epoch.
    pub ts_us: f64,
    /// Open timestamp (absent in pre-trace streams).
    pub start_us: Option<f64>,
    /// Full hierarchical span path (`bench.table3/builder.build/…`).
    pub path: String,
    /// Wall time in microseconds.
    pub dur_us: f64,
    /// Trace id (absent for untraced spans and pre-trace streams).
    pub trace_id: Option<String>,
    /// This span's id.
    pub span_id: Option<String>,
    /// The parent span's id within the trace.
    pub parent_id: Option<String>,
}

/// One structured event record from a telemetry JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRec {
    /// Timestamp, microseconds since the process telemetry epoch.
    pub ts_us: f64,
    /// Emitting subsystem (`serve`, `quality`, …).
    pub subsystem: String,
    /// Event name within the subsystem.
    pub name: String,
    /// The structured payload, verbatim.
    pub fields: Json,
}

impl EventRec {
    /// A numeric payload field, if present.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Json::as_f64)
    }

    /// A string payload field, if present.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }
}

/// Parse outcome: spans and events plus counts of what was skipped.
#[derive(Debug, Default)]
pub struct Parsed {
    /// All span records, in file order (close order).
    pub spans: Vec<SpanRec>,
    /// All structured event records, in file order.
    pub events: Vec<EventRec>,
    /// Non-span telemetry records (events, tables) — expected, only some
    /// modes analyze them.
    pub other_records: usize,
    /// Lines that did not parse as JSON objects.
    pub bad_lines: usize,
}

/// Parses telemetry JSONL text, keeping the span and event records.
pub fn parse_jsonl(text: &str) -> Parsed {
    let mut out = Parsed::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = Json::parse(line) else {
            out.bad_lines += 1;
            continue;
        };
        if v.get("kind").and_then(Json::as_str) != Some("span") {
            out.other_records += 1;
            if v.get("kind").and_then(Json::as_str) == Some("event") {
                if let (Some(subsystem), Some(name)) = (
                    v.get("subsystem").and_then(Json::as_str),
                    v.get("name").and_then(Json::as_str),
                ) {
                    out.events.push(EventRec {
                        ts_us: v.get("ts_us").and_then(Json::as_f64).unwrap_or(0.0),
                        subsystem: subsystem.to_string(),
                        name: name.to_string(),
                        fields: v.get("fields").cloned().unwrap_or(Json::Null),
                    });
                }
            }
            continue;
        }
        let (Some(path), Some(dur_us)) = (
            v.get("name").and_then(Json::as_str),
            v.get("dur_us").and_then(Json::as_f64),
        ) else {
            out.bad_lines += 1;
            continue;
        };
        let s = |key: &str| v.get(key).and_then(Json::as_str).map(String::from);
        out.spans.push(SpanRec {
            ts_us: v.get("ts_us").and_then(Json::as_f64).unwrap_or(0.0),
            start_us: v.get("start_us").and_then(Json::as_f64),
            path: path.to_string(),
            dur_us,
            trace_id: s("trace_id"),
            span_id: s("span_id"),
            parent_id: s("parent_id"),
        });
    }
    out
}

/// Aggregate statistics for one span path across a run.
#[derive(Debug, Clone)]
pub struct PathStats {
    /// Number of span instances at this path.
    pub count: usize,
    /// Summed wall time (µs).
    pub total_us: f64,
    /// Summed self time: wall time minus time spent in direct child
    /// paths (µs, clamped at 0 — cross-thread children can outlive their
    /// parent span).
    pub self_us: f64,
    /// All instance durations, sorted ascending (µs).
    durs: Vec<f64>,
}

impl PathStats {
    /// Exact nearest-rank percentile of instance durations, `q` in [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.durs.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1);
        self.durs[rank - 1]
    }
}

/// Aggregates spans by path. Self time is derived from the path hierarchy
/// (`a/b` is a direct child of `a`), so it works even for streams without
/// trace ids.
pub fn aggregate(spans: &[SpanRec]) -> BTreeMap<String, PathStats> {
    let mut stats: BTreeMap<String, PathStats> = BTreeMap::new();
    for s in spans {
        let e = stats.entry(s.path.clone()).or_insert_with(|| PathStats {
            count: 0,
            total_us: 0.0,
            self_us: 0.0,
            durs: Vec::new(),
        });
        e.count += 1;
        e.total_us += s.dur_us;
        e.durs.push(s.dur_us);
    }
    // Self time: total minus the totals of *direct* children.
    let child_totals: HashMap<String, f64> = stats
        .iter()
        .filter_map(|(path, st)| {
            path.rfind('/')
                .map(|cut| (path[..cut].to_string(), st.total_us))
        })
        .fold(HashMap::new(), |mut acc, (parent, total)| {
            *acc.entry(parent).or_insert(0.0) += total;
            acc
        });
    for (path, st) in stats.iter_mut() {
        let children = child_totals.get(path).copied().unwrap_or(0.0);
        st.self_us = (st.total_us - children).max(0.0);
        st.durs.sort_by(f64::total_cmp);
    }
    stats
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.3}ms", us / 1e3)
    } else {
        format!("{:.1}us", us)
    }
}

/// Renders the flame-style table: one row per span path, sorted by summed
/// self time descending.
pub fn render_flame(stats: &BTreeMap<String, PathStats>) -> String {
    let mut rows: Vec<(&String, &PathStats)> = stats.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    let width = rows
        .iter()
        .map(|(p, _)| p.len())
        .max()
        .unwrap_or(4)
        .max("path".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
        "path",
        "count",
        "self",
        "total",
        "p50",
        "p95",
        "max",
        width = width
    );
    for (path, st) in rows {
        let _ = writeln!(
            out,
            "{:<width$}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            path,
            st.count,
            fmt_us(st.self_us),
            fmt_us(st.total_us),
            fmt_us(st.quantile(0.50)),
            fmt_us(st.quantile(0.95)),
            fmt_us(st.quantile(1.0)),
            width = width
        );
    }
    out
}

/// One reconstructed trace: its id and the indices of its spans.
struct Trace<'a> {
    id: &'a str,
    spans: Vec<usize>,
}

/// Renders per-trace span trees (up to `limit` traces, in first-seen
/// order): each trace is one unit of work; indentation follows
/// `parent_id` links, and every row shows total and self time.
pub fn render_trees(spans: &[SpanRec], limit: usize) -> String {
    let mut traces: Vec<Trace> = Vec::new();
    let mut by_id: HashMap<&str, usize> = HashMap::new();
    let mut untraced = 0usize;
    for (i, s) in spans.iter().enumerate() {
        let Some(tid) = s.trace_id.as_deref() else {
            untraced += 1;
            continue;
        };
        let ti = *by_id.entry(tid).or_insert_with(|| {
            traces.push(Trace {
                id: tid,
                spans: Vec::new(),
            });
            traces.len() - 1
        });
        traces[ti].spans.push(i);
    }

    let mut out = String::new();
    if traces.is_empty() {
        let _ = writeln!(
            out,
            "no traced spans found ({} untraced span records) — \
             was this file written before trace contexts existed?",
            untraced
        );
        return out;
    }
    let shown = traces.len().min(limit);
    let _ = writeln!(
        out,
        "{} traces ({} shown), {} untraced spans",
        traces.len(),
        shown,
        untraced
    );
    for trace in traces.iter().take(limit) {
        // Parent links. A span whose parent never closed (or is missing
        // from the file) becomes a root.
        let ids: HashMap<&str, usize> = trace
            .spans
            .iter()
            .filter_map(|&i| spans[i].span_id.as_deref().map(|sid| (sid, i)))
            .collect();
        let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for &i in &trace.spans {
            let parent = spans[i]
                .parent_id
                .as_deref()
                .and_then(|p| ids.get(p).copied());
            match parent {
                Some(p) => children.entry(p).or_default().push(i),
                None => roots.push(i),
            }
        }
        let start = |i: usize| {
            spans[i]
                .start_us
                .unwrap_or(spans[i].ts_us - spans[i].dur_us)
        };
        roots.sort_by(|&a, &b| start(a).total_cmp(&start(b)));
        for v in children.values_mut() {
            v.sort_by(|&a, &b| start(a).total_cmp(&start(b)));
        }
        let total: f64 = roots.iter().map(|&i| spans[i].dur_us).sum();
        let _ = writeln!(
            out,
            "\ntrace {} ({} spans, {})",
            trace.id,
            trace.spans.len(),
            fmt_us(total)
        );
        // Depth-first with explicit stack: (index, depth).
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
        while let Some((i, depth)) = stack.pop() {
            let kids = children.get(&i).cloned().unwrap_or_default();
            let child_time: f64 = kids.iter().map(|&k| spans[k].dur_us).sum();
            let self_us = (spans[i].dur_us - child_time).max(0.0);
            // Show the leaf name; the full path is implied by indentation.
            let name = spans[i]
                .path
                .rsplit('/')
                .next()
                .unwrap_or(spans[i].path.as_str());
            let _ = writeln!(
                out,
                "  {:indent$}{:<name_w$}  total {:>10}  self {:>10}",
                "",
                name,
                fmt_us(spans[i].dur_us),
                fmt_us(self_us),
                indent = depth * 2,
                name_w = 40usize.saturating_sub(depth * 2)
            );
            for &k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    out
}

/// One span path's p50 comparison between two runs.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// The span path.
    pub path: String,
    /// p50 duration in run A (µs).
    pub p50_a: f64,
    /// p50 duration in run B (µs).
    pub p50_b: f64,
    /// Relative change in percent (`(b-a)/a * 100`).
    pub delta_pct: f64,
    /// Whether the change exceeds the regression threshold.
    pub regressed: bool,
}

/// Compares two runs path-by-path: a path **regresses** when its p50 in
/// run B exceeds run A's by more than `threshold_pct` percent. Paths
/// present in only one run are reported but never gate. Returns the rows
/// (worst regression first) — callers gate on `any(regressed)`.
pub fn diff(
    a: &BTreeMap<String, PathStats>,
    b: &BTreeMap<String, PathStats>,
    threshold_pct: f64,
) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    for (path, sa) in a {
        let Some(sb) = b.get(path) else { continue };
        let (p50_a, p50_b) = (sa.quantile(0.5), sb.quantile(0.5));
        let delta_pct = if p50_a > 0.0 {
            (p50_b - p50_a) / p50_a * 100.0
        } else if p50_b > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        rows.push(DiffRow {
            path: path.clone(),
            p50_a,
            p50_b,
            delta_pct,
            regressed: delta_pct > threshold_pct,
        });
    }
    rows.sort_by(|x, y| y.delta_pct.total_cmp(&x.delta_pct));
    rows
}

/// Renders the diff table plus a verdict line; `only_in` names paths that
/// exist in exactly one of the runs (informational).
pub fn render_diff(rows: &[DiffRow], threshold_pct: f64, only_a: usize, only_b: usize) -> String {
    let width = rows
        .iter()
        .map(|r| r.path.len())
        .max()
        .unwrap_or(4)
        .max("path".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<width$}  {:>10}  {:>10}  {:>9}  verdict",
        "path",
        "p50(a)",
        "p50(b)",
        "delta",
        width = width
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<width$}  {:>10}  {:>10}  {:>+8.1}%  {}",
            r.path,
            fmt_us(r.p50_a),
            fmt_us(r.p50_b),
            r.delta_pct,
            if r.regressed { "REGRESSED" } else { "ok" },
            width = width
        );
    }
    let regressions = rows.iter().filter(|r| r.regressed).count();
    let _ = writeln!(
        out,
        "\n{} shared paths, {} only in a, {} only in b; {} regression(s) past {:.0}%",
        rows.len(),
        only_a,
        only_b,
        regressions,
        threshold_pct
    );
    out
}

/// Per-model tallies inside a [`QualityReport`].
#[derive(Debug, Default, Clone)]
pub struct ModelQuality {
    /// `quality.prediction` events for this model id.
    pub predictions: usize,
    /// `quality.observation` events for this model id.
    pub observations: usize,
    /// `serve.quality_warn` events for this model id.
    pub warnings: usize,
}

/// A model-quality report distilled from telemetry events: prediction
/// volume, extrapolation/disagreement distributions, threshold breaches,
/// and shadow-accuracy drift.
#[derive(Debug, Default)]
pub struct QualityReport {
    /// Total `quality.prediction` events.
    pub predictions: usize,
    /// Total `quality.observation` events.
    pub observations: usize,
    /// Extrapolation warnings (`serve.quality_warn`, kind=extrapolation).
    pub warn_extrapolation: usize,
    /// Disagreement warnings (`serve.quality_warn`, kind=disagreement).
    pub warn_disagreement: usize,
    /// Extrapolation scores, sorted ascending.
    pub extrapolation: Vec<f64>,
    /// Disagreement spreads, sorted ascending.
    pub disagreement: Vec<f64>,
    /// Per-observation absolute percentage errors, sorted ascending.
    pub ape: Vec<f64>,
    /// The last reported rolling shadow MAPE, if any observation carried
    /// one.
    pub last_shadow_mape: Option<f64>,
    /// Per-model tallies, keyed by model id.
    pub per_model: BTreeMap<String, ModelQuality>,
}

/// Exact nearest-rank quantile of an ascending-sorted slice.
fn sorted_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Distills the quality-relevant events out of a telemetry stream.
pub fn summarize_quality(events: &[EventRec]) -> QualityReport {
    let mut r = QualityReport::default();
    for e in events {
        match (e.subsystem.as_str(), e.name.as_str()) {
            ("quality", "prediction") => {
                r.predictions += 1;
                if let Some(x) = e.num("extrapolation") {
                    r.extrapolation.push(x);
                }
                if let Some(d) = e.num("disagreement") {
                    r.disagreement.push(d);
                }
                if let Some(model) = e.text("model") {
                    r.per_model
                        .entry(model.to_string())
                        .or_default()
                        .predictions += 1;
                }
            }
            ("quality", "observation") => {
                r.observations += 1;
                if let Some(a) = e.num("ape") {
                    r.ape.push(a);
                }
                if let Some(m) = e.num("shadow_mape") {
                    r.last_shadow_mape = Some(m);
                }
                if let Some(model) = e.text("model") {
                    r.per_model
                        .entry(model.to_string())
                        .or_default()
                        .observations += 1;
                }
            }
            ("serve", "quality_warn") => {
                match e.text("kind") {
                    Some("extrapolation") => r.warn_extrapolation += 1,
                    Some("disagreement") => r.warn_disagreement += 1,
                    _ => {}
                }
                if let Some(model) = e.text("model") {
                    r.per_model.entry(model.to_string()).or_default().warnings += 1;
                }
            }
            _ => {}
        }
    }
    r.extrapolation.sort_by(f64::total_cmp);
    r.disagreement.sort_by(f64::total_cmp);
    r.ape.sort_by(f64::total_cmp);
    r
}

/// Formats a sorted distribution as `p50 … p95 … max …`, or a placeholder
/// when no samples were recorded.
fn dist_line(sorted: &[f64]) -> String {
    match (
        sorted_quantile(sorted, 0.50),
        sorted_quantile(sorted, 0.95),
        sorted.last(),
    ) {
        (Some(p50), Some(p95), Some(max)) => {
            format!("p50 {:.3}  p95 {:.3}  max {:.3}", p50, p95, max)
        }
        _ => "no samples".to_string(),
    }
}

/// Renders the quality report as the `emod-trace quality` text output.
pub fn render_quality(r: &QualityReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "model-quality summary");
    let _ = writeln!(
        out,
        "  predictions:   {} ({} scored for extrapolation, {} with disagreement)",
        r.predictions,
        r.extrapolation.len(),
        r.disagreement.len()
    );
    let _ = writeln!(
        out,
        "  extrapolation: {}  [{} warning(s)]",
        dist_line(&r.extrapolation),
        r.warn_extrapolation
    );
    let _ = writeln!(
        out,
        "  disagreement:  {}  [{} warning(s)]",
        dist_line(&r.disagreement),
        r.warn_disagreement
    );
    let mape = r
        .last_shadow_mape
        .map(|m| format!("rolling MAPE {:.2}%", m))
        .unwrap_or_else(|| "no rolling MAPE yet".to_string());
    let _ = writeln!(
        out,
        "  observations:  {} ({}; per-obs APE {})",
        r.observations,
        mape,
        dist_line(&r.ape)
    );
    if !r.per_model.is_empty() {
        let width = r
            .per_model
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(5)
            .max("model".len());
        let _ = writeln!(
            out,
            "\n  {:<width$}  {:>6}  {:>4}  {:>5}",
            "model",
            "preds",
            "obs",
            "warns",
            width = width
        );
        for (model, mq) in &r.per_model {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>6}  {:>4}  {:>5}",
                model,
                mq.predictions,
                mq.observations,
                mq.warnings,
                width = width
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic two-trace stream: trace 1 is `req → work → ga` nested,
    /// trace 2 a lone request; plus one untraced span and an event line.
    fn fixture() -> String {
        [
            r#"{"ts_us":5,"kind":"event","subsystem":"t","name":"noise","fields":{}}"#,
            r#"{"ts_us":90,"kind":"span","name":"req/work/ga","start_us":20,"dur_us":70,"trace_id":"aaaa000000000001","span_id":"bbbb000000000003","parent_id":"bbbb000000000002"}"#,
            r#"{"ts_us":95,"kind":"span","name":"req/work","start_us":10,"dur_us":85,"trace_id":"aaaa000000000001","span_id":"bbbb000000000002","parent_id":"bbbb000000000001"}"#,
            r#"{"ts_us":100,"kind":"span","name":"req","start_us":0,"dur_us":100,"trace_id":"aaaa000000000001","span_id":"bbbb000000000001"}"#,
            r#"{"ts_us":150,"kind":"span","name":"req","start_us":110,"dur_us":40,"trace_id":"aaaa000000000002","span_id":"bbbb000000000004"}"#,
            r#"{"ts_us":160,"kind":"span","name":"loose","dur_us":5}"#,
            "not json at all",
        ]
        .join("\n")
    }

    #[test]
    fn parses_spans_and_counts_noise() {
        let p = parse_jsonl(&fixture());
        assert_eq!(p.spans.len(), 5);
        assert_eq!(p.other_records, 1);
        assert_eq!(p.bad_lines, 1);
        assert_eq!(p.spans[0].path, "req/work/ga");
        assert_eq!(p.spans[0].parent_id.as_deref(), Some("bbbb000000000002"));
        assert_eq!(p.spans[4].trace_id, None);
    }

    #[test]
    fn aggregate_computes_self_time_from_path_hierarchy() {
        let p = parse_jsonl(&fixture());
        let stats = aggregate(&p.spans);
        // Two "req" instances: 100 + 40 total; direct child "req/work"
        // accounts for 85, so self = 55.
        let req = &stats["req"];
        assert_eq!(req.count, 2);
        assert!((req.total_us - 140.0).abs() < 1e-9);
        assert!((req.self_us - 55.0).abs() < 1e-9);
        // work: 85 total, ga child 70 → 15 self.
        assert!((stats["req/work"].self_us - 15.0).abs() < 1e-9);
        // Leaf: self == total.
        assert!((stats["req/work/ga"].self_us - 70.0).abs() < 1e-9);
        // Percentiles: req durs are [40, 100].
        assert_eq!(req.quantile(0.5), 40.0);
        assert_eq!(req.quantile(1.0), 100.0);

        let flame = render_flame(&stats);
        assert!(flame.contains("req/work/ga"), "{}", flame);
        assert!(flame.lines().count() >= 5, "{}", flame);
    }

    #[test]
    fn tree_groups_by_trace_and_nests_by_parent() {
        let p = parse_jsonl(&fixture());
        let out = render_trees(&p.spans, 10);
        assert!(out.contains("2 traces"), "{}", out);
        assert!(out.contains("1 untraced"), "{}", out);
        assert!(out.contains("trace aaaa000000000001"), "{}", out);
        // Nesting: ga sits two levels under req.
        let ga_line = out.lines().find(|l| l.contains("ga ")).unwrap();
        assert!(ga_line.starts_with("      "), "{:?}", ga_line);
        // Self time of req = 100 - 85 = 15.
        let squash = |l: &str| l.split_whitespace().collect::<Vec<_>>().join(" ");
        let req_line = out
            .lines()
            .map(squash)
            .find(|l| l.starts_with("req ") && l.contains("total 100.0us"))
            .unwrap();
        assert!(req_line.contains("self 15.0us"), "{:?}", req_line);
    }

    /// Shifts every duration in the fixture by `factor` — a synthetic
    /// "slower run".
    fn scaled_fixture(factor: f64) -> String {
        let p = parse_jsonl(&fixture());
        p.spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"ts_us":{},"kind":"span","name":"{}","dur_us":{}}}"#,
                    s.ts_us,
                    s.path,
                    s.dur_us * factor
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn diff_flags_p50_regressions_past_threshold() {
        let a = aggregate(&parse_jsonl(&fixture()).spans);
        let same = diff(&a, &a, 20.0);
        assert!(!same.is_empty());
        assert!(same.iter().all(|r| !r.regressed), "{:?}", same);

        // 2x slower: every path's p50 doubled → +100% > 20%.
        let b = aggregate(&parse_jsonl(&scaled_fixture(2.0)).spans);
        let rows = diff(&a, &b, 20.0);
        assert!(rows.iter().all(|r| r.regressed), "{:?}", rows);
        assert!((rows[0].delta_pct - 100.0).abs() < 1e-9);

        // 10% slower with a 20% gate: not a regression; with a 5% gate it
        // is.
        let c = aggregate(&parse_jsonl(&scaled_fixture(1.1)).spans);
        assert!(diff(&a, &c, 20.0).iter().all(|r| !r.regressed));
        assert!(diff(&a, &c, 5.0).iter().any(|r| r.regressed));

        let report = render_diff(&rows, 20.0, 0, 0);
        assert!(report.contains("REGRESSED"), "{}", report);
        assert!(report.contains("regression(s) past 20%"), "{}", report);
    }

    #[test]
    fn events_are_parsed_alongside_spans() {
        let p = parse_jsonl(&fixture());
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].subsystem, "t");
        assert_eq!(p.events[0].name, "noise");
    }

    /// A synthetic quality stream: two predictions (one past the
    /// extrapolation threshold), one warning, and two observations.
    fn quality_fixture() -> String {
        [
            r#"{"ts_us":1,"kind":"event","subsystem":"quality","name":"prediction","fields":{"model":"m1","prediction":5000.0,"extrapolation":0.8,"disagreement":0.05}}"#,
            r#"{"ts_us":2,"kind":"event","subsystem":"serve","name":"quality_warn","fields":{"kind":"extrapolation","model":"m1","value":4.2,"threshold":3.0}}"#,
            r#"{"ts_us":3,"kind":"event","subsystem":"quality","name":"prediction","fields":{"model":"m1","prediction":9000.0,"extrapolation":4.2,"warn":"extrapolation"}}"#,
            r#"{"ts_us":4,"kind":"event","subsystem":"quality","name":"observation","fields":{"model":"m1","predicted":5000.0,"measured":5250.0,"ape":4.761904761904762,"shadow_mape":4.76}}"#,
            r#"{"ts_us":5,"kind":"event","subsystem":"quality","name":"observation","fields":{"model":"m2","predicted":100.0,"measured":110.0,"ape":9.090909090909092,"shadow_mape":6.93}}"#,
            r#"{"ts_us":6,"kind":"event","subsystem":"serve","name":"access","fields":{"cmd":"predict"}}"#,
        ]
        .join("\n")
    }

    #[test]
    fn quality_summary_distills_events() {
        let p = parse_jsonl(&quality_fixture());
        let r = summarize_quality(&p.events);
        assert_eq!(r.predictions, 2);
        assert_eq!(r.observations, 2);
        assert_eq!(r.warn_extrapolation, 1);
        assert_eq!(r.warn_disagreement, 0);
        assert_eq!(r.extrapolation, vec![0.8, 4.2]);
        assert_eq!(r.disagreement, vec![0.05]);
        assert_eq!(r.last_shadow_mape, Some(6.93));
        assert_eq!(r.per_model["m1"].predictions, 2);
        assert_eq!(r.per_model["m1"].observations, 1);
        assert_eq!(r.per_model["m1"].warnings, 1);
        assert_eq!(r.per_model["m2"].observations, 1);

        let text = render_quality(&r);
        assert!(text.contains("model-quality summary"), "{}", text);
        assert!(text.contains("rolling MAPE 6.93%"), "{}", text);
        assert!(text.contains("[1 warning(s)]"), "{}", text);
        assert!(text.contains("m1"), "{}", text);
    }

    #[test]
    fn quality_summary_of_empty_stream_is_calm() {
        let r = summarize_quality(&[]);
        let text = render_quality(&r);
        assert!(text.contains("no samples"), "{}", text);
        assert!(text.contains("no rolling MAPE yet"), "{}", text);
    }
}
