//! `bench` — the parallel-speedup benchmark harness.
//!
//! Times the two phases that `emod-par` fans out — measurement campaigns
//! and model training (the RBF and MARS fits; the GA tuning that follows
//! them runs inline at both worker counts) — at `EMOD_THREADS=1` versus a
//! parallel worker count, and writes one JSON report per phase
//! (`BENCH_measure.json`, `BENCH_train.json`) so every future change has a
//! performance trajectory to move. Each report records the median-of-N
//! wall time for both worker counts, the speedup, measurement throughput
//! (Minst/s) and an `identical` flag asserting the parallel run produced
//! bit-identical results. The speedup is `null` when the host has fewer
//! than two hardware threads: there the parallel run cannot be parallel,
//! so its ratio would measure nothing. Every report opens with a
//! schema-versioned metadata prefix (schema, bench phase, mode, reps,
//! host/worker thread counts) in a stable field order;
//! `--history FILE` additionally appends each report as one flat JSON
//! line — the `BENCH_HISTORY.jsonl` feed that `emod-trace bench` judges
//! for step regressions.
//!
//! ```text
//! cargo run --release -p emod-bench --bin bench -- --quick
//! cargo run --release -p emod-bench --bin bench -- --threads 8 --out bench-out
//! cargo run --release -p emod-bench --bin bench -- --quick --check-speedup 1.5
//! cargo run --release -p emod-bench --bin bench -- --quick --phase train
//! ```
//!
//! `--phase NAME` (repeatable) restricts the run to the named phases
//! (`measure`, `train`).
//!
//! `--check-speedup X` exits non-zero if the measurement-campaign speedup
//! falls below `X` — but only when the host has at least 4 cores and the
//! parallel worker count is at least 4; on smaller hosts (including
//! single-core CI runners) the gate prints a skip note instead, because no
//! scheduler can conjure parallel speedup out of one core.

use emod_core::builder::BuildConfig;
use emod_core::measure::{Measurer, Metric};
use emod_core::model::{ModelFamily, SurrogateModel};
use emod_core::tune::search_flags_surrogate;
use emod_core::vars::design_space;
use emod_doe::lhs;
use emod_models::Dataset;
use emod_uarch::UarchConfig;
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BENCH_SEED: u64 = 4242;

/// Report metadata schema. Bump when field names/semantics change so
/// `emod-trace bench` and history consumers can tell ages apart.
/// Matches `emod_load::report::HISTORY_SCHEMA` — both feed the same
/// `BENCH_HISTORY.jsonl`.
const REPORT_SCHEMA: u64 = 2;

/// Phase names accepted by `--phase`, in run order.
const PHASES: [&str; 2] = ["measure", "train"];

struct Args {
    quick: bool,
    reps: usize,
    threads: usize,
    out: PathBuf,
    history: Option<PathBuf>,
    check_speedup: Option<f64>,
    /// Phases to run (`--phase`, repeatable); empty = all of them.
    phases: Vec<String>,
}

impl Args {
    /// Whether `--phase` selection (empty = everything) includes `name`.
    fn phase_enabled(&self, name: &str) -> bool {
        self.phases.is_empty() || self.phases.iter().any(|p| p == name)
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        reps: 0, // resolved after --quick is known
        threads: emod_par::available_parallelism(),
        out: PathBuf::from("."),
        history: None,
        check_speedup: None,
        phases: Vec::new(),
    };
    let mut reps_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{} needs a value", name)))
        };
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--reps" => {
                args.reps = parse_num(&value("--reps"), "--reps");
                reps_set = true;
            }
            "--threads" => args.threads = parse_num(&value("--threads"), "--threads"),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--history" => args.history = Some(PathBuf::from(value("--history"))),
            "--check-speedup" => {
                let v = value("--check-speedup");
                args.check_speedup = Some(
                    v.parse()
                        .unwrap_or_else(|_| die("--check-speedup needs a number")),
                )
            }
            "--phase" => {
                let v = value("--phase");
                if !PHASES.contains(&v.as_str()) {
                    die(&format!(
                        "unknown phase {:?} (one of: {})",
                        v,
                        PHASES.join(", ")
                    ));
                }
                args.phases.push(v);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench [--quick] [--reps N] [--threads N] [--out DIR] \
                     [--history FILE] [--check-speedup X] [--phase NAME]..."
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {:?} (try --help)", other)),
        }
    }
    if !reps_set {
        args.reps = if args.quick { 3 } else { 5 };
    }
    args.threads = args.threads.max(1);
    args.reps = args.reps.max(1);
    args
}

fn die(msg: &str) -> ! {
    eprintln!("bench: {}", msg);
    std::process::exit(2);
}

fn parse_num(s: &str, name: &str) -> usize {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{} needs a positive integer", name)))
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs `work` `reps` times and returns (median wall seconds, last result).
fn timed<T>(reps: usize, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(work());
        walls.push(start.elapsed().as_secs_f64());
    }
    (median(&mut walls), last.expect("reps >= 1"))
}

/// Formats an f64 as JSON (shortest round-trip form; non-finite → null).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "null".to_string()
    }
}

/// Writes `BENCH_{phase}.json` (pretty, one field per line, stable order)
/// and — when `--history` was given — appends the same fields as one flat
/// JSON line to the history file.
fn write_report(args: &Args, phase: &str, fields: &[(&str, String)]) {
    let dir: &Path = &args.out;
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{}\": {}", k, v))
        .collect();
    let path = dir.join(format!("BENCH_{}.json", phase));
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("cannot write {:?}: {}", path, e)));
    println!("  wrote {}", path.display());
    if let Some(history) = &args.history {
        use std::io::Write;
        let flat: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", k, v))
            .collect();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history)
            .unwrap_or_else(|e| die(&format!("cannot open {:?}: {}", history, e)));
        writeln!(f, "{{{}}}", flat.join(","))
            .unwrap_or_else(|e| die(&format!("cannot append {:?}: {}", history, e)));
        println!("  appended to {}", history.display());
    }
}

/// `wall_seq / wall_par`, or NaN (written as `null`) on a host with fewer
/// than two hardware threads, where the parallel run cannot be parallel.
fn reported_speedup(wall_seq: f64, wall_par: f64) -> f64 {
    let host = emod_par::available_parallelism();
    if host < 2 {
        println!("  speedup not reported: the host has {host} hardware thread(s), need >= 2");
        return f64::NAN;
    }
    wall_seq / wall_par.max(1e-9)
}

/// A speedup for the console: `1.23x`, or `null` when not reported.
fn show_speedup(speedup: f64) -> String {
    if speedup.is_finite() {
        format!("{:.2}x", speedup)
    } else {
        "null".to_string()
    }
}

/// The schema-versioned metadata prefix every report starts with:
/// schema, bench phase, mode, reps, host thread count, worker count — in
/// that order, always, so reports diff cleanly across runs.
fn common_fields(args: &Args, reps: usize, phase: &str) -> Vec<(&'static str, String)> {
    vec![
        ("schema", REPORT_SCHEMA.to_string()),
        ("bench", format!("\"{}\"", phase)),
        (
            "mode",
            format!("\"{}\"", if args.quick { "quick" } else { "full" }),
        ),
        ("reps", reps.to_string()),
        (
            "host_threads",
            emod_par::available_parallelism().to_string(),
        ),
        ("threads", args.threads.to_string()),
    ]
}

/// Phase 1: a cold measurement campaign (compile + SMARTS-simulate a fresh
/// LHS design) at 1 worker vs `threads` workers.
fn bench_measure(args: &Args) -> f64 {
    println!("== measure: campaign fan-out ==");
    let workload = Workload::by_name("gzip").expect("bundled workload");
    let sample = BuildConfig::quick(BENCH_SEED).sample;
    let space = design_space();
    let n_points = if args.quick { 16 } else { 48 };
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let points = lhs(&space, n_points, &mut rng);

    let campaign = |threads: usize| {
        let mut m = Measurer::new(workload, InputSet::Train, sample);
        m.set_threads(threads);
        let values = m.measure_metric_batch(&points, Metric::Cycles);
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        (bits, m.instructions_simulated())
    };
    let (wall_seq, (bits_seq, instructions)) = timed(args.reps, || campaign(1));
    let (wall_par, (bits_par, _)) = timed(args.reps, || campaign(args.threads));
    let speedup = reported_speedup(wall_seq, wall_par);
    let identical = bits_seq == bits_par;
    let minst_seq = instructions as f64 / 1e6 / wall_seq.max(1e-9);
    let minst_par = instructions as f64 / 1e6 / wall_par.max(1e-9);
    println!(
        "  {} points  seq {:.3}s ({:.1} Minst/s)  par×{} {:.3}s ({:.1} Minst/s)  speedup {}  identical {}",
        n_points,
        wall_seq,
        minst_seq,
        args.threads,
        wall_par,
        minst_par,
        show_speedup(speedup),
        identical
    );
    assert!(identical, "parallel campaign diverged from sequential");

    let mut fields = common_fields(args, args.reps, "measure");
    fields.extend([
        ("workload", format!("\"{}\"", workload.name())),
        ("points", n_points.to_string()),
        ("instructions", instructions.to_string()),
        ("wall_s_seq", jnum(wall_seq)),
        ("wall_s_par", jnum(wall_par)),
        ("minst_per_sec_seq", jnum(minst_seq)),
        ("minst_per_sec_par", jnum(minst_par)),
        ("speedup", jnum(speedup)),
        ("identical", identical.to_string()),
    ]);
    write_report(args, "measure", &fields);
    speedup
}

fn model_bytes(model: &SurrogateModel) -> Vec<u8> {
    let mut w = emod_models::Writer::new();
    model.encode(&mut w);
    w.into_bytes()
}

/// Phase 2: RBF fit + MARS fit + GA tuning on a measured dataset, with the
/// two fits' fan-outs steered through the `EMOD_THREADS` env knob. The GA
/// runs inline on both sides, so it adds the same time to each.
fn bench_train(args: &Args) {
    println!("== train: RBF + MARS fan-out (GA inline) ==");
    let workload = Workload::by_name("gzip").expect("bundled workload");
    let sample = BuildConfig::quick(BENCH_SEED).sample;
    let space = design_space();
    let n_points = if args.quick { 30 } else { 80 };
    let mut rng = StdRng::seed_from_u64(BENCH_SEED + 1);
    let points = lhs(&space, n_points, &mut rng);
    let mut m = Measurer::new(workload, InputSet::Train, sample);
    m.set_threads(args.threads);
    let ys = m.measure_metric_batch(&points, Metric::Cycles);
    let xs: Vec<Vec<f64>> = points.iter().map(|p| space.encode(p)).collect();
    let data = Dataset::new(xs, ys).expect("measured dataset is well-formed");

    let train_all = |threads: usize| {
        std::env::set_var(emod_par::THREADS_ENV, threads.to_string());
        let rbf = SurrogateModel::fit(&data, ModelFamily::Rbf).expect("rbf fit");
        let mars = SurrogateModel::fit(&data, ModelFamily::Mars).expect("mars fit");
        let tuned = search_flags_surrogate(&space, &rbf, &UarchConfig::typical(), BENCH_SEED);
        (model_bytes(&rbf), model_bytes(&mars), tuned.point)
    };
    let (wall_seq, out_seq) = timed(args.reps, || train_all(1));
    let (wall_par, out_par) = timed(args.reps, || train_all(args.threads));
    std::env::remove_var(emod_par::THREADS_ENV);
    let speedup = reported_speedup(wall_seq, wall_par);
    let identical = out_seq == out_par;
    println!(
        "  n={}  seq {:.3}s  par×{} {:.3}s  speedup {}  identical {}",
        data.len(),
        wall_seq,
        args.threads,
        wall_par,
        show_speedup(speedup),
        identical
    );
    assert!(identical, "parallel training diverged from sequential");

    let mut fields = common_fields(args, args.reps, "train");
    fields.extend([
        ("workload", format!("\"{}\"", workload.name())),
        ("train_size", data.len().to_string()),
        ("wall_s_seq", jnum(wall_seq)),
        ("wall_s_par", jnum(wall_par)),
        ("speedup", jnum(speedup)),
        ("identical", identical.to_string()),
    ]);
    write_report(args, "train", &fields);
}

fn main() {
    let args = parse_args();
    // Bench hygiene: a leftover checkpoint would turn the second campaign
    // into a cache replay, and an installed fault plan would make wall
    // times meaningless.
    std::env::remove_var("EMOD_CHECKPOINT");
    std::env::remove_var("EMOD_FAULTS");
    std::fs::create_dir_all(&args.out)
        .unwrap_or_else(|e| die(&format!("cannot create {:?}: {}", args.out, e)));
    println!(
        "bench: mode={} reps={} threads={} (host has {})",
        if args.quick { "quick" } else { "full" },
        args.reps,
        args.threads,
        emod_par::available_parallelism()
    );

    let measure_speedup = args.phase_enabled("measure").then(|| bench_measure(&args));
    if args.phase_enabled("train") {
        bench_train(&args);
    }

    if let (Some(min), Some(measure_speedup)) = (args.check_speedup, measure_speedup) {
        let cores = emod_par::available_parallelism();
        if cores >= 4 && args.threads >= 4 {
            if measure_speedup < min {
                eprintln!(
                    "bench: FAIL measurement speedup {:.2}x < required {:.2}x at {} threads",
                    measure_speedup, min, args.threads
                );
                std::process::exit(1);
            }
            println!(
                "bench: speedup gate passed ({:.2}x >= {:.2}x)",
                measure_speedup, min
            );
        } else {
            println!(
                "bench: speedup gate skipped (host has {} core(s), {} worker(s) requested; need >= 4 of each)",
                cores, args.threads
            );
        }
    }
}
