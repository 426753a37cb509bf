//! Where a measurement's work runs, read from its trace: each fresh design
//! point compiles inside its own pool task, under a `core.measure.worker`
//! span, and never on the caller thread before the fan-out. The same
//! stream carries every simulation's SMARTS sampling error and one
//! `rel_error_warning` event per simulation above the 1% threshold.
//!
//! Telemetry is process-global, so everything lives in one `#[test]`
//! (this file is its own test binary — no other tests share the process).

use emod_core::builder::BuildConfig;
use emod_core::measure::{BatchRetry, Measurer, Metric, REL_ERROR_WARN_THRESHOLD};
use emod_core::vars::design_space;
use emod_doe::lhs;
use emod_telemetry as telemetry;
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The string value of `"field":"…"` in one JSONL line.
fn str_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let tag = format!("\"{}\":\"", field);
    let start = line.find(&tag)? + tag.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The numeric value of `"field":…` in one JSONL line.
fn num_field(line: &str, field: &str) -> Option<f64> {
    let tag = format!("\"{}\":", field);
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

#[test]
fn compiles_run_inside_pool_tasks() {
    let sink = telemetry::MemorySink::new();
    telemetry::set_sink(Box::new(sink.clone()));

    let w = Workload::by_name("bzip2").unwrap();
    let mut m = Measurer::new(w, InputSet::Train, BuildConfig::quick(1).sample);
    m.set_threads(2);
    let points = lhs(&design_space(), 4, &mut StdRng::seed_from_u64(5));
    let root = telemetry::trace_root("test.measure");
    let results = m.try_measure_metric_batch(&points, Metric::Cycles, &BatchRetry::single());
    drop(root);
    telemetry::flush();
    assert!(results.iter().all(Result::is_ok), "{:?}", results);
    assert_eq!(m.measurement_count(), 4, "four fresh points");

    let lines = sink.lines();
    let spans: Vec<&String> = lines
        .iter()
        .filter(|l| str_field(l, "kind") == Some("span"))
        .collect();
    let workers: Vec<&str> = spans
        .iter()
        .filter(|l| str_field(l, "name").is_some_and(|n| n.ends_with("/core.measure.worker")))
        .filter_map(|l| str_field(l, "span_id"))
        .collect();
    assert_eq!(workers.len(), 2, "one worker span per pool thread");
    let compiles: Vec<&String> = spans
        .iter()
        .copied()
        .filter(|l| str_field(l, "name").is_some_and(|n| n.ends_with("/core.compile_binary")))
        .collect();
    assert_eq!(compiles.len(), 4, "one compile per fresh point");
    for span in compiles {
        let name = str_field(span, "name").unwrap();
        let parent = str_field(span, "parent_id");
        assert!(
            name.ends_with("core.measure.worker/core.compile_binary")
                && parent.is_some_and(|p| workers.contains(&p)),
            "compile ran outside a pool task: {}",
            span
        );
    }

    // Sampling error: every simulation reports it, and exactly the ones
    // above the threshold raise a warning (event and counter).
    let core_events = |name: &str| -> Vec<&String> {
        lines
            .iter()
            .filter(|l| {
                str_field(l, "kind") == Some("event")
                    && str_field(l, "subsystem") == Some("core")
                    && str_field(l, "name") == Some(name)
            })
            .collect()
    };
    let errors: Vec<f64> = core_events("measurement")
        .iter()
        .map(|l| num_field(l, "rel_error").expect("measurement carries rel_error"))
        .collect();
    assert_eq!(errors.len(), 4);
    assert!(
        errors.iter().all(|e| (0.0..1.0).contains(e)),
        "rel_error {:?}",
        errors
    );
    let above = errors
        .iter()
        .filter(|&&e| e > REL_ERROR_WARN_THRESHOLD)
        .count();
    assert_eq!(core_events("rel_error_warning").len(), above);
    assert_eq!(
        telemetry::counter_value("core.measure.rel_error_warnings"),
        above as u64
    );
    telemetry::disable_and_reset();
}
