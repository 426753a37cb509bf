//! `emod-trace` — offline analyzer for `emod-telemetry` JSONL streams.
//!
//! ```text
//! emod-trace tree    <file.jsonl>...  [--limit N]      per-trace span trees
//! emod-trace flame   <file.jsonl>...                   self-time table per span path
//! emod-trace diff    <a.jsonl> <b.jsonl> [--threshold PCT]
//! emod-trace quality <file.jsonl>...                   model-quality summary
//! emod-trace bench   <BENCH_HISTORY.jsonl>... [--window N] [--threshold PCT] [--warn-only]
//! ```
//!
//! `tree` reconstructs each trace (one unit of work: a server request, a
//! bench experiment) from `trace_id`/`parent_id` links and prints the span
//! hierarchy with total and self wall time. `flame` aggregates every span
//! path across the run — where did the time actually go. `diff` compares
//! two runs and **exits 1** when any span path's p50 regressed by more
//! than the threshold (default 20%), so CI can gate on it. `quality`
//! distills the server's `quality.prediction`/`quality.observation`/
//! `quality_warn` events into extrapolation, disagreement, and
//! accuracy-drift summaries per model. `bench` reads `BENCH_HISTORY.jsonl`
//! run history, prints per-metric trendlines, and **exits 1** when a
//! windowed mean-shift finds a step regression in any judged metric
//! (throughput down, p99/wall time up) — the CI gate over committed bench
//! baselines; `--warn-only` reports without failing.
//!
//! Exit codes: 0 clean, 1 diff/bench found a regression, 2 usage/I/O
//! error.

use emod_bench::{history, trace};
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {}", err);
    }
    eprintln!("usage: emod-trace tree    <file.jsonl>... [--limit N]");
    eprintln!("       emod-trace flame   <file.jsonl>...");
    eprintln!("       emod-trace diff    <a.jsonl> <b.jsonl> [--threshold PCT]");
    eprintln!("       emod-trace quality <file.jsonl>...");
    eprintln!(
        "       emod-trace bench   <BENCH_HISTORY.jsonl>... [--window N] [--threshold PCT] [--warn-only]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Prints a report, ignoring EPIPE so `emod-trace … | head` exits quietly
/// instead of panicking when the reader closes early.
fn emit(report: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(report.as_bytes());
}

fn read_spans(path: &str) -> Result<trace::Parsed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {}", path, e))?;
    let parsed = trace::parse_jsonl(&text);
    if parsed.bad_lines > 0 {
        eprintln!(
            "warning: {}: {} unparseable line(s) skipped",
            path, parsed.bad_lines
        );
    }
    Ok(parsed)
}

/// Reads and merges several JSONL files into one span list.
fn read_all(paths: &[String]) -> Result<Vec<trace::SpanRec>, String> {
    let mut spans = Vec::new();
    for p in paths {
        spans.extend(read_spans(p)?.spans);
    }
    Ok(spans)
}

/// Reads and merges several JSONL files into one event list.
fn read_all_events(paths: &[String]) -> Result<Vec<trace::EventRec>, String> {
    let mut events = Vec::new();
    for p in paths {
        events.extend(read_spans(p)?.events);
    }
    Ok(events)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().map(String::as_str) else {
        return usage("missing mode");
    };
    if mode == "--help" || mode == "-h" {
        return usage("");
    }

    // Split trailing options from file operands.
    let mut files: Vec<String> = Vec::new();
    let mut limit = 20usize;
    let mut threshold = if mode == "bench" {
        history::DEFAULT_THRESHOLD_PCT
    } else {
        20.0
    };
    let mut window = history::DEFAULT_WINDOW;
    let mut warn_only = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--limit" => match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(n) => {
                    limit = n;
                    i += 1;
                }
                None => return usage("--limit needs a positive integer"),
            },
            "--threshold" => match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(t) => {
                    threshold = t;
                    i += 1;
                }
                None => return usage("--threshold needs a number (percent)"),
            },
            "--window" => match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => {
                    window = n;
                    i += 1;
                }
                _ => return usage("--window needs a positive integer"),
            },
            "--warn-only" => warn_only = true,
            opt if opt.starts_with("--") => return usage(&format!("unknown option {}", opt)),
            file => files.push(file.to_string()),
        }
        i += 1;
    }

    match mode {
        "tree" => {
            if files.is_empty() {
                return usage("tree needs at least one JSONL file");
            }
            match read_all(&files) {
                Ok(spans) => {
                    emit(&trace::render_trees(&spans, limit));
                    ExitCode::SUCCESS
                }
                Err(e) => usage(&e),
            }
        }
        "flame" => {
            if files.is_empty() {
                return usage("flame needs at least one JSONL file");
            }
            match read_all(&files) {
                Ok(spans) => {
                    if spans.is_empty() {
                        eprintln!("error: no span records found");
                        return ExitCode::from(2);
                    }
                    emit(&trace::render_flame(&trace::aggregate(&spans)));
                    ExitCode::SUCCESS
                }
                Err(e) => usage(&e),
            }
        }
        "diff" => {
            if files.len() != 2 {
                return usage("diff needs exactly two JSONL files");
            }
            let (a, b) = match (read_all(&files[..1]), read_all(&files[1..])) {
                (Ok(a), Ok(b)) => (trace::aggregate(&a), trace::aggregate(&b)),
                (Err(e), _) | (_, Err(e)) => return usage(&e),
            };
            let rows = trace::diff(&a, &b, threshold);
            let only_a = a.keys().filter(|k| !b.contains_key(*k)).count();
            let only_b = b.keys().filter(|k| !a.contains_key(*k)).count();
            emit(&trace::render_diff(&rows, threshold, only_a, only_b));
            if rows.iter().any(|r| r.regressed) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "quality" => {
            if files.is_empty() {
                return usage("quality needs at least one JSONL file");
            }
            match read_all_events(&files) {
                Ok(events) => {
                    emit(&trace::render_quality(&trace::summarize_quality(&events)));
                    ExitCode::SUCCESS
                }
                Err(e) => usage(&e),
            }
        }
        "bench" => {
            if files.is_empty() {
                return usage("bench needs at least one BENCH_HISTORY.jsonl file");
            }
            let mut text = String::new();
            for path in &files {
                match std::fs::read_to_string(path) {
                    Ok(t) => text.push_str(&t),
                    Err(e) => return usage(&format!("cannot read {}: {}", path, e)),
                }
            }
            let h = history::parse_history(&text);
            let verdicts = history::judge_history(&h, window, threshold);
            emit(&history::render_bench_report(
                &h, &verdicts, window, threshold,
            ));
            if verdicts.iter().any(|v| v.regressed) && !warn_only {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        other => usage(&format!("unknown mode {:?}", other)),
    }
}
