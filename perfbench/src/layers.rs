//! Metric names, the campaign workloads' runner, and the reduction of a
//! traced run's spans to per-layer metrics.

use crate::campaign::{self, CampaignSpec, ProgramResult, ReplayStats, FAMILIES};
use crate::report::Report;
use crate::spans::{self, Span, Tracer};
use crate::stats::{mean, median};
use crate::{host, Args, SETUP_REPEATS};
use emod_core::measure::Metric;
use emod_serve::artifact::family_slug;
use emod_workloads::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// `throughput_per_s` is design points measured per second on the
/// campaigns and requests answered per second in the closed-loop
/// saturation window on the serve workloads. `p50_ms` and `p95_ms` are
/// per-program campaign times on the campaigns and light-run request
/// latencies on the serve workloads.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("test_mape_pct", "%"),
    ("tuned_speedup", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("compiler.front_ms", "ms"),
    ("compiler.midend_ms", "ms"),
    ("compiler.codegen_ms", "ms"),
    ("compiler.compiles", "count"),
    ("compiler.ir_insts", "count"),
    ("compiler.code_bytes", "bytes"),
    ("workloads.checksum_ms", "ms"),
    ("isa.emu_minst_per_s", "Minst/s"),
    ("uarch.sim_ms", "ms"),
    ("uarch.sims", "count"),
    ("uarch.minst_per_s", "Minst/s"),
    ("uarch.detailed_share", "fraction"),
    ("uarch.rel_error_pct", "%"),
    ("core.measure_ms", "ms"),
    ("core.parallel_eff", "fraction"),
    ("core.binary_cache_hit_share", "fraction"),
    ("doe.lhs_ms", "ms"),
    ("doe.select_ms", "ms"),
    ("doe.log_det", "ln"),
    ("models.fit_ms.linear", "ms"),
    ("models.fit_ms.mars", "ms"),
    ("models.fit_ms.rbf", "ms"),
    ("models.predict_us.linear", "us"),
    ("models.predict_us.mars", "us"),
    ("models.predict_us.rbf", "us"),
    ("models.explain_us", "us"),
    ("search.tune_ms", "ms"),
    ("search.evals", "count"),
    ("quality.extrap_us", "us"),
    ("serve.rtt_us.predict", "us"),
    ("serve.rtt_us.predict_batch", "us"),
    ("serve.rtt_us.explain", "us"),
    ("serve.rtt_us.tune", "us"),
    ("serve.rtt_us.observe", "us"),
    ("serve.handle_us.predict", "us"),
    ("serve.handle_us.predict_batch", "us"),
    ("serve.handle_us.explain", "us"),
    ("serve.handle_us.tune", "us"),
    ("serve.handle_us.observe", "us"),
    ("serve.transport_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.json_write_us", "us"),
    ("serve.resolve_us", "us"),
    ("telemetry.call_ns", "ns"),
    ("load.send_lag_ms", "ms"),
    ("load.sent", "count"),
    ("load.max_rps", "req/s"),
    ("load.generator_limited", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Programs of `campaign_cycles`: a fixed set, so every seed measures the
/// same work. gzip is the cheapest program to simulate, mcf the most
/// memory-bound and bzip2 mid-range; together one pass takes about 12 s
/// on two workers, where all seven take 31–38 s.
pub const CYCLES_PROGRAMS: [&str; 3] = ["164.gzip", "181.mcf", "256.bzip2"];

/// Binaries per program the code-size campaign re-runs on the emulator.
const EMULATED_PER_PROGRAM: usize = 2;

/// Wall time of one campaign pass on the reference host (2 cores), which
/// sizes the pass count: `floor(--seconds / this)`, at least one.
fn nominal_pass_s(metric: Metric) -> f64 {
    match metric {
        Metric::CodeSize => 3.0,
        _ => 12.0,
    }
}

/// The workload's programs in the order the seed draws: cycles runs
/// [`CYCLES_PROGRAMS`], code size all seven programs.
pub fn campaign_programs(metric: Metric, rng: &mut StdRng) -> Vec<&'static Workload> {
    let mut programs: Vec<&'static Workload> = match metric {
        Metric::CodeSize => Workload::all().iter().collect(),
        _ => CYCLES_PROGRAMS
            .iter()
            .map(|n| Workload::by_name(n).expect("bundled program"))
            .collect(),
    };
    for i in (1..programs.len()).rev() {
        programs.swap(i, rng.gen_range(0..=i));
    }
    programs
}

/// Fills `report` with the end-to-end metrics in [`END_TO_END`] order.
pub fn push_end_to_end(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for (name, unit) in END_TO_END {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Fills `report` with the per-layer metrics in [`PER_LAYER`] order.
pub fn push_per_layer(report: &mut Report, values: &BTreeMap<String, f64>) {
    for (name, unit) in PER_LAYER {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Set-ups run in child processes before the timed region; the rest of
/// the [`SETUP_REPEATS`]` - 1` probes run after it, so the samples span
/// the run rather than one moment of the host's load.
pub const PROBES_BEFORE: usize = (SETUP_REPEATS - 1) / 2;

/// Runs `count` set-ups in fresh child processes (set-up work is cached
/// per process) and returns their durations in seconds.
pub fn probe_setups(args: &Args, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for _ in 0..count {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--root")
        .arg(&args.root)
        .arg("--work")
        .arg(&args.work)
        .arg("--setup-probe");
        if let Some(bin) = &args.serve_bin {
            cmd.arg("--serve-bin").arg(bin);
        }
        let res = cmd.output().map_err(|e| format!("set-up probe: {}", e))?;
        let text = String::from_utf8_lossy(&res.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (res.status.success(), secs) {
            (true, Some(s)) => out.push(s),
            _ => {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&res.stderr)
                ))
            }
        }
    }
    Ok(out)
}

/// The `campaign_cycles` / `campaign_codesize` workloads. A run makes
/// `floor(--seconds / nominal pass time)` whole passes (at least one);
/// every pass must produce identical outputs.
pub fn run_campaign(args: &Args) -> Result<Option<Report>, String> {
    let metric = if args.workload == "campaign_cycles" {
        Metric::Cycles
    } else {
        Metric::CodeSize
    };
    let mut order = StdRng::seed_from_u64(args.seed);
    let spec = CampaignSpec {
        programs: campaign_programs(metric, &mut order),
        metric,
        threads: host::nproc(),
    };
    if args.setup_probe {
        let t = Instant::now();
        campaign::setup(&spec.programs);
        println!("setup_s {}", t.elapsed().as_secs_f64());
        return Ok(None);
    }
    let mut setups = if args.trace {
        Vec::new()
    } else {
        probe_setups(args, PROBES_BEFORE)?
    };
    let tracer = args.trace.then(Tracer::new);
    let t = Instant::now();
    match &tracer {
        Some(tr) => campaign::setup_traced(&spec.programs, tr),
        None => campaign::setup(&spec.programs),
    }
    setups.push(t.elapsed().as_secs_f64());

    // The pass count depends on --seconds only, never on measured speed,
    // so every run of a configuration does the same work.
    let pass_count = if tracer.is_some() {
        1
    } else {
        ((args.seconds / nominal_pass_s(metric)).floor() as usize).max(1)
    };
    let mut passes: Vec<(Vec<ProgramResult>, f64)> = Vec::new();
    for i in 0..pass_count {
        let pass_spec = CampaignSpec {
            programs: if i == 0 {
                spec.programs.clone()
            } else {
                campaign_programs(metric, &mut order)
            },
            ..spec.clone()
        };
        passes.push(campaign::run_untraced(&pass_spec)?);
    }
    let peak_rss = host::peak_rss_mib(None).unwrap_or(0.0);

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let all: Vec<&ProgramResult> = passes.iter().flat_map(|(r, _)| r.iter()).collect();
    let points: usize = all.iter().map(|r| r.points()).sum();
    report.attempted = points as u64;
    report.failed = all.iter().map(|r| r.quarantined as u64).sum();
    report.check(
        report.failed == 0,
        format!(
            "{} of {} points measured with the reference checksum",
            points as u64 - report.failed,
            points
        ),
    );
    let finite = all
        .iter()
        .all(|r| r.mape.iter().all(|m| m.is_finite()) && r.o2.is_finite() && r.tuned.is_finite());
    report.check(finite, "every MAPE and check measurement is finite");
    let first = &passes[0].0;
    let repeatable = passes.iter().all(|(rs, _)| {
        rs.iter()
            .all(|r| first.iter().any(|f| f.name == r.name && f.same_outputs(r)))
    });
    report.check(
        repeatable,
        format!("{} passes produce identical outputs", passes.len()),
    );
    if metric == Metric::CodeSize {
        let sample = campaign::sample_train_points(&spec, EMULATED_PER_PROGRAM, args.seed);
        let (checked, bad, _) = campaign::emulate_sample(&spec.programs, &sample, None);
        report.check(
            bad == 0,
            format!(
                "{} sampled binaries return the reference checksum on the emulator ({} wrong)",
                checked, bad
            ),
        );
    }
    for r in first {
        report.notes.push(format!(
            "{:<22} points {:>3}  wall {:>7.3}s  MAPE lin/mars/rbf {:>6.2}/{:>6.2}/{:>6.2}%  -O2/tuned {:.4}",
            r.name,
            r.points(),
            r.wall_s,
            r.mape[0],
            r.mape[1],
            r.mape[2],
            r.o2 / r.tuned
        ));
    }

    if let Some(tracer) = tracer {
        // The same replay without spans, then with them: their wall times
        // give the tracing overhead. The first replay in a process runs
        // 5-10 % slower than the ones after it, so a warm-up replay runs
        // first and its time is dropped.
        let plain_tracer = Tracer::disabled();
        campaign::run_traced(&spec, &plain_tracer);
        let (plain, _, plain_window) = campaign::run_traced(&spec, &plain_tracer);
        let (replayed, stats, window) = campaign::run_traced(&spec, &tracer);
        let same = |rs: &[ProgramResult]| {
            rs.len() == first.len() && rs.iter().zip(first).all(|(a, b)| a.same_outputs(b))
        };
        report.check(
            same(&plain) && same(&replayed) && stats.failures == 0,
            "traced and untraced replays reproduce responses, model bytes and tuned points bit for bit",
        );
        let timing = campaign::time_measurer(&spec, &stats.designs);
        report.check(
            timing.bits == first.iter().map(|r| r.response_bits()).collect::<Vec<_>>(),
            "the shipped Measurer, timed on the replay's designs, returns the same responses",
        );
        let plain_wall = (plain_window.1 - plain_window.0) as f64 / 1e9;
        let traced_wall = (window.1 - window.0) as f64 / 1e9;
        let (_, _, retired) = campaign::emulate_sample(
            &spec.programs,
            &campaign::o2_points(&spec.programs),
            Some(&tracer),
        );
        let spans = tracer.spans();
        let mut values = campaign_layers(&spans, &stats, spec.threads, &retired, timing.wall_s);
        values.insert("telemetry.call_ns".into(), telemetry_call_ns(spec.threads));
        values.insert(
            "trace.overhead_pct".into(),
            100.0 * (traced_wall - plain_wall) / plain_wall,
        );
        report.notes.push(format!(
            "replay {:.3}s untraced, {:.3}s traced; shipped Measurer {:.3}s on the same designs",
            plain_wall, traced_wall, timing.wall_s
        ));
        values.insert(
            "trace.unattributed_pct".into(),
            100.0 * spans::unattributed_share(&spans, window.0, window.1),
        );
        let replay: Vec<Span> = spans
            .iter()
            .filter(|x| x.start_ns >= window.0 && x.end_ns <= window.1)
            .cloned()
            .collect();
        report.notes.extend(self_time_notes(&replay));
        write_spans(args, &tracer);
        push_per_layer(&mut report, &values);
        return Ok(Some(report));
    }

    let n = first.len() as f64;
    let pass_s: Vec<f64> = passes.iter().map(|(_, w)| *w).collect();
    let program_ms = crate::stats::sorted(&all.iter().map(|r| r.wall_s * 1e3).collect::<Vec<_>>());
    setups.extend(probe_setups(args, SETUP_REPEATS - 1 - PROBES_BEFORE)?);
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    e2e.insert(
        "throughput_per_s",
        points as f64 / pass_s.iter().sum::<f64>(),
    );
    e2e.insert(
        "test_mape_pct",
        first.iter().flat_map(|r| r.mape.iter()).sum::<f64>() / (n * FAMILIES.len() as f64),
    );
    e2e.insert(
        "tuned_speedup",
        (first.iter().map(|r| (r.o2 / r.tuned).ln()).sum::<f64>() / n).exp(),
    );
    e2e.insert(
        "p50_ms",
        crate::stats::quantile_sorted(&program_ms, 0.5).unwrap_or(0.0),
    );
    e2e.insert(
        "p95_ms",
        crate::stats::quantile_sorted(&program_ms, 0.95).unwrap_or(0.0),
    );
    e2e.insert("peak_rss_mb", peak_rss);
    report.notes.push(format!(
        "setup_s samples {:?}; pass walls {:?} s",
        setups, pass_s
    ));
    push_end_to_end(&mut report, &e2e);
    Ok(Some(report))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans::durations(spans, name).into_iter().map(ms).collect();
    mean(&d).unwrap_or(0.0)
}

fn sum_ns(spans: &[Span], name: &str) -> u64 {
    spans::durations(spans, name).into_iter().sum()
}

/// Per-layer metrics of a campaign replay (also used for the serve
/// workloads' artifact-building campaign). `measure_wall_s` is the shipped
/// `Measurer`'s wall time on the replay's designs
/// ([`campaign::time_measurer`]).
pub fn campaign_layers(
    spans: &[Span],
    stats: &ReplayStats,
    threads: usize,
    emulated_retired: &[f64],
    measure_wall_s: f64,
) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("compiler.front_ms", mean_ms(spans, "compiler.front"));
    put("compiler.midend_ms", mean_ms(spans, "compiler.midend"));
    put("compiler.codegen_ms", mean_ms(spans, "compiler.codegen"));
    put(
        "compiler.compiles",
        spans::durations(spans, "compiler.midend").len() as f64,
    );
    put("compiler.ir_insts", mean(&stats.ir_insts).unwrap_or(0.0));
    put(
        "compiler.code_bytes",
        mean(&stats.code_bytes).unwrap_or(0.0),
    );
    put(
        "workloads.checksum_ms",
        mean_ms(spans, "workloads.reference_checksum"),
    );
    let emu_ns = sum_ns(spans, "isa.emulate");
    if emu_ns > 0 {
        put(
            "isa.emu_minst_per_s",
            emulated_retired.iter().sum::<f64>() / (emu_ns as f64 / 1e9) / 1e6,
        );
    }
    let sim_ns = sum_ns(spans, "uarch.simulate_sampled");
    let sims = spans::durations(spans, "uarch.simulate_sampled").len();
    put("uarch.sim_ms", mean_ms(spans, "uarch.simulate_sampled"));
    put("uarch.sims", sims as f64);
    let insts: f64 = stats.sim_insts.iter().sum();
    if sim_ns > 0 {
        put("uarch.minst_per_s", insts / (sim_ns as f64 / 1e9) / 1e6);
    }
    if insts > 0.0 {
        put(
            "uarch.detailed_share",
            stats.sim_detailed.iter().sum::<f64>() / insts,
        );
    }
    put(
        "uarch.rel_error_pct",
        100.0 * mean(&stats.rel_error).unwrap_or(0.0),
    );
    if stats.points > 0 {
        put(
            "core.measure_ms",
            measure_wall_s * 1e3 / stats.points as f64,
        );
    }
    // Busy time from the replay's spans, wall time from the shipped
    // Measurer doing the same compiles and simulations.
    let busy = sum_ns(spans, "compiler.midend")
        + sum_ns(spans, "compiler.codegen")
        + sum_ns(spans, "workloads.input")
        + sim_ns;
    if measure_wall_s > 0.0 {
        put(
            "core.parallel_eff",
            busy as f64 / 1e9 / (measure_wall_s * threads as f64),
        );
    }
    let lookups = stats.binary_hits + stats.binary_misses;
    if lookups > 0 {
        put(
            "core.binary_cache_hit_share",
            stats.binary_hits as f64 / lookups as f64,
        );
    }
    put("doe.lhs_ms", mean_ms(spans, "doe.lhs"));
    put("doe.select_ms", mean_ms(spans, "doe.select"));
    put("doe.log_det", mean(&stats.log_det).unwrap_or(0.0));
    for (f, family) in FAMILIES.iter().enumerate() {
        let slug = family_slug(*family);
        let fits: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "models.fit" && s.tag == f as u64)
            .map(|s| ms(s.dur_ns()))
            .collect();
        put(
            &format!("models.fit_ms.{}", slug),
            mean(&fits).unwrap_or(0.0),
        );
        let predicts: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "models.predict" && s.tag == f as u64)
            .map(|s| s.dur_ns() as f64 / 1e3 / stats.test_size.max(1) as f64)
            .collect();
        put(
            &format!("models.predict_us.{}", slug),
            mean(&predicts).unwrap_or(0.0),
        );
    }
    put("search.tune_ms", mean_ms(spans, "search.tune"));
    put("search.evals", mean(&stats.evals).unwrap_or(0.0));
    v
}

/// Mean per-call cost of `counter_add`, `observe` and `event` with
/// recording enabled, with `threads` threads calling concurrently.
pub fn telemetry_call_ns(threads: usize) -> f64 {
    const CALLS: u64 = 20_000;
    emod_telemetry::enable();
    let barrier = std::sync::Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..CALLS {
                        emod_telemetry::counter_add("perfbench.probe.count", 1);
                        emod_telemetry::observe("perfbench.probe.value", (i + t as u64) as f64);
                        emod_telemetry::event("perfbench", "probe", &[("i", i.into())]);
                    }
                    start.elapsed().as_nanos() as f64 / (3 * CALLS) as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("telemetry probe thread"))
            .collect()
    });
    mean(&per_thread).unwrap_or(0.0)
}

/// Self time per layer as note lines, largest first.
pub fn self_time_notes(spans: &[Span]) -> Vec<String> {
    let by_layer = spans::self_time_by_layer(spans);
    let mut rows: Vec<(&str, u64)> = by_layer.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    rows.into_iter()
        .map(|(layer, ns)| format!("self time {:<10} {:>12.3} ms", layer, ms(ns)))
        .collect()
}

/// Writes the spans to `<work>/spans-<workload>-<seed>.jsonl` (best effort).
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let path = args
        .work
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = tracer.write_jsonl(&mut f) {
                eprintln!("perfbench: writing {}: {}", path.display(), e);
            }
        }
        Err(e) => eprintln!("perfbench: creating {}: {}", path.display(), e),
    }
}
