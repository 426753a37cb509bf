//! `bench` — the parallel-speedup benchmark harness.
//!
//! Times the three hot paths that `emod-par` fans out — measurement
//! campaigns, model training (RBF + MARS + GA tuning) and batch
//! prediction — at `EMOD_THREADS=1` versus a parallel worker count, and
//! writes one JSON report per phase (`BENCH_measure.json`,
//! `BENCH_train.json`, `BENCH_serve.json`) so every future change has a
//! performance trajectory to move. Each report records the median-of-N
//! wall time for both worker counts, the speedup, throughput (Minst/s for
//! measurement, predictions/s for serving) and an `identical` flag
//! asserting the parallel run produced bit-identical results. Every
//! report opens with a schema-versioned metadata prefix (schema, bench
//! phase, mode, reps, host/worker thread counts) in a stable field order;
//! `--history FILE` additionally appends each report as one flat JSON
//! line — the `BENCH_HISTORY.jsonl` feed that `emod-trace bench` judges
//! for step regressions.
//!
//! A fourth phase (`BENCH_tier0.json`) times the same campaign untiered
//! versus with tiered measurement enabled, recording the simulation-count
//! reduction and the holdout-MAPE cost of accepting surrogate answers.
//! A fifth phase (`BENCH_canary.json`) drives an in-process server through
//! a live canary rollout — asserting the content-hash router assigns
//! identical lanes at 1 worker and `--threads` workers, timing predict
//! throughput during the split, and counting observations until the
//! shadow gate auto-promotes the canary.
//!
//! ```text
//! cargo run --release -p emod-bench --bin bench -- --quick
//! cargo run --release -p emod-bench --bin bench -- --threads 8 --out bench-out
//! cargo run --release -p emod-bench --bin bench -- --quick --check-speedup 1.5
//! cargo run --release -p emod-bench --bin bench -- --quick --phase canary
//! ```
//!
//! `--phase NAME` (repeatable) restricts the run to the named phases
//! (`measure`, `train`, `serve`, `tier0`, `canary`) — the CI canary-smoke
//! job benches only the rollout path this way.
//!
//! `--check-speedup X` exits non-zero if the measurement-campaign speedup
//! falls below `X` — but only when the host has at least 4 cores and the
//! parallel worker count is at least 4; on smaller hosts (including
//! single-core CI runners) the gate prints a skip note instead, because no
//! scheduler can conjure parallel speedup out of one core.

use emod_compiler::OptConfig;
use emod_core::builder::BuildConfig;
use emod_core::measure::{Measurer, Metric};
use emod_core::model::{ModelFamily, SurrogateModel};
use emod_core::tune::search_flags_surrogate;
use emod_core::vars::{design_space, encode_point};
use emod_core::Tier0Config;
use emod_doe::lhs;
use emod_models::{Dataset, Regressor};
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
const PHASES: [&str; 5] = ["measure", "train", "serve", "tier0", "canary"];

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
    let speedup = wall_seq / wall_par.max(1e-9);
    let identical = bits_seq == bits_par;
    let minst_seq = instructions as f64 / 1e6 / wall_seq.max(1e-9);
    let minst_par = instructions as f64 / 1e6 / wall_par.max(1e-9);
    println!(
        "  {} points  seq {:.3}s ({:.1} Minst/s)  par×{} {:.3}s ({:.1} Minst/s)  speedup {:.2}x  identical {}",
        n_points, wall_seq, minst_seq, args.threads, wall_par, minst_par, speedup, identical
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
/// training fan-outs steered through the `EMOD_THREADS` env knob.
/// `report` is false when the phase only runs to feed `serve` its dataset
/// (a `--phase serve` selection that excluded `train`).
fn bench_train(args: &Args, report: bool) -> Dataset {
    println!("== train: RBF + MARS + GA fan-out ==");
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
    if !report {
        // Only here to supply `serve` its dataset — skip the timed passes.
        return data;
    }

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
    let speedup = wall_seq / wall_par.max(1e-9);
    let identical = out_seq == out_par;
    println!(
        "  n={}  seq {:.3}s  par×{} {:.3}s  speedup {:.2}x  identical {}",
        data.len(),
        wall_seq,
        args.threads,
        wall_par,
        speedup,
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
    data
}

/// Phase 3: batch prediction sharding — the same pool fan-out
/// `emod-serve` uses for `predict_batch` — over a large random batch.
fn bench_serve(args: &Args, data: &Dataset) {
    println!("== serve: predict_batch sharding ==");
    let space = design_space();
    std::env::set_var(emod_par::THREADS_ENV, "1");
    let model = SurrogateModel::fit(data, ModelFamily::Rbf).expect("rbf fit");
    std::env::remove_var(emod_par::THREADS_ENV);
    let n_points = if args.quick { 2_000 } else { 20_000 };
    let mut rng = StdRng::seed_from_u64(BENCH_SEED + 2);
    let batch: Vec<Vec<f64>> = (0..n_points)
        .map(|_| space.encode(&space.random_point(&mut rng)))
        .collect();

    let predict_all = |threads: usize| {
        let pool = emod_par::Pool::new(threads);
        let preds = pool.map(&batch, |_i, x| model.predict(x));
        preds.iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
    };
    let (wall_seq, bits_seq) = timed(args.reps, || predict_all(1));
    let (wall_par, bits_par) = timed(args.reps, || predict_all(args.threads));
    let speedup = wall_seq / wall_par.max(1e-9);
    let identical = bits_seq == bits_par;
    let rate_seq = n_points as f64 / wall_seq.max(1e-9);
    let rate_par = n_points as f64 / wall_par.max(1e-9);
    println!(
        "  {} predictions  seq {:.3}s ({:.0}/s)  par×{} {:.3}s ({:.0}/s)  speedup {:.2}x  identical {}",
        n_points, wall_seq, rate_seq, args.threads, wall_par, rate_par, speedup, identical
    );
    assert!(identical, "parallel prediction diverged from sequential");

    let mut fields = common_fields(args, args.reps, "serve");
    fields.extend([
        ("points", n_points.to_string()),
        ("wall_s_seq", jnum(wall_seq)),
        ("wall_s_par", jnum(wall_par)),
        ("predictions_per_sec_seq", jnum(rate_seq)),
        ("predictions_per_sec_par", jnum(rate_par)),
        ("speedup", jnum(speedup)),
        ("identical", identical.to_string()),
    ]);
    write_report(args, "serve", &fields);
}

/// Design points sweeping three machine axes around the paper's "typical"
/// configuration at -O2, interleaved so consecutive points jump around the
/// grid — the shape of campaign the tier-0 surrogate is built for.
fn uarch_sweep_points() -> Vec<Vec<f64>> {
    let space = design_space();
    let base = encode_point(&OptConfig::o2(), &UarchConfig::typical());
    let axes = ["issue-width", "ruu-size", "memory-latency"]
        .map(|n| space.index_of(n).expect("machine axis"));
    let mut pool = Vec::new();
    for a in space.parameters()[axes[0]].levels() {
        for b in space.parameters()[axes[1]].levels() {
            for c in space.parameters()[axes[2]].levels() {
                let mut p = base.clone();
                p[axes[0]] = a;
                p[axes[1]] = b;
                p[axes[2]] = c;
                pool.push(p);
            }
        }
    }
    let n = pool.len();
    let stride = [37usize, 41, 43, 47]
        .into_iter()
        .find(|s| {
            let (mut x, mut y) = (*s, n);
            while y != 0 {
                (x, y) = (y, x % y);
            }
            x == 1
        })
        .expect("coprime stride");
    (0..n).map(|i| pool[(i * stride) % n].clone()).collect()
}

/// Phase 4: tiered measurement. The same multi-round campaign runs untiered
/// (every point SMARTS-sampled) and tiered (surrogate answers once the
/// router's error bound clears the operating point); the report records the
/// simulation-count reduction, wall-time speedup, and how far the tiered
/// dataset moves a fitted RBF model's holdout MAPE. The bench uses a 15%
/// operating point so the router engages within a bench-sized campaign; the
/// production default (1%, `EMOD_TIER0_ERR_BOUND`) needs campaign-scale
/// training data.
fn bench_tier0(args: &Args) {
    println!("== tier0: tiered measurement routing ==");
    let workload = Workload::by_name("gzip").expect("bundled workload");
    // Denser sampling than the other phases: tier-2 escalation fires when a
    // SMARTS confidence interval exceeds the operating point, so the bench
    // needs CIs that normally sit under the bound (1 in 100 windows
    // measured rather than the quick preset's sparse plan).
    let sample = emod_uarch::SampleConfig {
        window: 500,
        interval: 20,
        warmup: 1000,
        fuel: u64::MAX,
    };
    let space = design_space();
    let pool = uarch_sweep_points();
    let n_campaign = (if args.quick { 96 } else { 156 }).min(pool.len() - 12);
    let round = 6;
    let campaign = &pool[..n_campaign];
    let holdout = &pool[n_campaign..n_campaign + 12];
    let cfg = Tier0Config {
        err_bound: 0.15,
        min_train: 16,
        ..Tier0Config::default()
    };

    let run = |tiered: bool| {
        let mut m = Measurer::new(workload, InputSet::Train, sample);
        m.set_tier0(tiered.then(|| cfg.clone()));
        m.set_threads(1);
        let mut ys = Vec::with_capacity(campaign.len());
        for chunk in campaign.chunks(round) {
            ys.extend(m.measure_metric_batch(chunk, Metric::Cycles));
        }
        (ys, m.measurement_count(), m.tier_counts())
    };
    let (wall_untiered, (ys_untiered, sims_untiered, _)) = timed(args.reps, || run(false));
    let (wall_tiered, (ys_tiered, sims_tiered, tiers)) = timed(args.reps, || run(true));
    let speedup = wall_untiered / wall_tiered.max(1e-9);
    let sim_reduction = sims_untiered as f64 / (sims_tiered.max(1)) as f64;

    // Model-quality cost: fit the same family on each campaign's dataset
    // and score both on untiered SMARTS truth at held-out points.
    let mut truth_m = Measurer::new(workload, InputSet::Train, sample);
    truth_m.set_threads(1);
    let truth: Vec<f64> = holdout
        .iter()
        .map(|p| truth_m.measure_metric(p, Metric::Cycles))
        .collect();
    let mape_of = |ys: &[f64]| {
        let xs: Vec<Vec<f64>> = campaign.iter().map(|p| space.encode(p)).collect();
        let data = Dataset::new(xs, ys.to_vec()).expect("campaign dataset");
        std::env::set_var(emod_par::THREADS_ENV, "1");
        let model = SurrogateModel::fit(&data, ModelFamily::Rbf).expect("rbf fit");
        std::env::remove_var(emod_par::THREADS_ENV);
        let sum: f64 = holdout
            .iter()
            .zip(&truth)
            .map(|(p, y)| (model.predict(&space.encode(p)) - y).abs() / y.abs().max(1e-9))
            .sum();
        100.0 * sum / truth.len() as f64
    };
    let mape_untiered = mape_of(&ys_untiered);
    let mape_tiered = mape_of(&ys_tiered);
    let mape_delta_abs = (mape_tiered - mape_untiered).abs();
    println!(
        "  {} points  untiered {:.3}s / {} sims  tiered {:.3}s / {} sims (tier0 {} / smarts {} / detailed {})",
        n_campaign, wall_untiered, sims_untiered, wall_tiered, sims_tiered, tiers[0], tiers[1], tiers[2]
    );
    println!(
        "  sim reduction {:.2}x  speedup {:.2}x  holdout MAPE untiered {:.2}% tiered {:.2}% (|Δ| {:.2} pts)",
        sim_reduction, speedup, mape_untiered, mape_tiered, mape_delta_abs
    );

    let mut fields = common_fields(args, args.reps, "tier0");
    fields.extend([
        ("workload", format!("\"{}\"", workload.name())),
        ("points", n_campaign.to_string()),
        ("err_bound", jnum(cfg.err_bound)),
        ("sims_untiered", sims_untiered.to_string()),
        ("sims_tiered", sims_tiered.to_string()),
        ("sim_reduction", jnum(sim_reduction)),
        ("tier0_hits", tiers[0].to_string()),
        ("smarts_runs", tiers[1].to_string()),
        ("detailed_promotions", tiers[2].to_string()),
        ("wall_s_untiered", jnum(wall_untiered)),
        ("wall_s_tiered", jnum(wall_tiered)),
        ("speedup", jnum(speedup)),
        ("mape_untiered", jnum(mape_untiered)),
        ("mape_tiered", jnum(mape_tiered)),
        ("mape_delta_abs", jnum(mape_delta_abs)),
    ]);
    write_report(args, "tier0", &fields);
}

/// Phase 5: closed-loop canary rollout over an in-process server. An
/// active model fit on a warped response surface and a candidate version
/// fit on the exact surface serve behind the canary router at 30%
/// traffic; the bench drives the same predict stream through
/// `handle_request` at 1 worker and `--threads` workers, asserting the
/// lane assignment and every prediction are bit-identical (the routing
/// hash is over request content, never scheduling), then feeds ground
/// truth to `observe` until the shadow gate auto-promotes the canary.
/// Records the canary share, predict throughput while the rollout is
/// live, and observations-to-promotion — the serving-continuity numbers
/// for the closed refresh loop.
fn bench_canary(args: &Args) {
    use emod_core::vars::COMPILER_PARAMS;
    use emod_serve::artifact::{ArtifactMeta, ModelArtifact};
    use emod_serve::json::Json;
    use emod_serve::registry::ModelRegistry;
    use emod_serve::rollout::{
        route_hash, routes_to_canary, RolloutConfig, RolloutPhase, RolloutState,
    };
    use emod_serve::server::{handle_request, ServerState};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    println!("== canary: shadow-gated rollout routing ==");
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(BENCH_SEED + 3);
    let train_raw = lhs(&space, 80, &mut rng);
    let xs: Vec<Vec<f64>> = train_raw.iter().map(|p| space.encode(p)).collect();
    let truth = |x: &[f64]| {
        let compiler: f64 = x[..COMPILER_PARAMS].iter().sum();
        let machine: f64 = x[COMPILER_PARAMS..].iter().sum();
        5000.0 + 100.0 * compiler - 10.0 * machine
    };
    let ys_exact: Vec<f64> = xs.iter().map(|x| truth(x)).collect();
    // The active model learned a warped surface; the canary learned the
    // real one, so its shadow MAPE is strictly lower and the gate promotes.
    let ys_warped: Vec<f64> = ys_exact
        .iter()
        .enumerate()
        .map(|(i, y)| y * (1.0 + 0.08 * ((i as f64) * 0.7).sin()))
        .collect();
    let fit_artifact = |ys: &[f64], test_mape: f64| -> ModelArtifact {
        let train = Dataset::new(xs.clone(), ys.to_vec()).expect("canary train set");
        std::env::set_var(emod_par::THREADS_ENV, "1");
        let model = SurrogateModel::fit(&train, ModelFamily::Linear).expect("linear fit");
        std::env::remove_var(emod_par::THREADS_ENV);
        ModelArtifact {
            meta: ArtifactMeta {
                workload: "gzip".into(),
                input_set: "train".into(),
                metric: "cycles".into(),
                family: ModelFamily::Linear,
                scale: "quick".into(),
                seed: BENCH_SEED,
                train_mape: 0.1,
                test_mape,
                train_size: xs.len(),
                test_size: 20,
            },
            space: design_space(),
            model,
            quality: emod_quality::DesignSummary::from_design(&train),
            train: train.clone(),
            test: Dataset::new(xs[..20].to_vec(), ys[..20].to_vec()).expect("canary test set"),
            history: vec![(xs.len(), test_mape)],
        }
    };
    let active = fit_artifact(&ys_warped, 0.2);
    let candidate = fit_artifact(&ys_exact, 0.05);
    let base = active.id();

    let dir = args.out.join("bench-canary-registry");
    let _ = std::fs::remove_dir_all(&dir);
    let registry =
        Arc::new(ModelRegistry::open(&dir).unwrap_or_else(|e| die(&format!("registry: {}", e))));
    registry
        .store(&active)
        .unwrap_or_else(|e| die(&format!("store active: {}", e)));
    registry
        .store_version(&candidate, 1)
        .unwrap_or_else(|e| die(&format!("store canary: {}", e)));
    let mut roll = RolloutState::steady(&base);
    roll.phase = RolloutPhase::Canary;
    roll.canary = Some(1);
    roll.fraction = 0.3;
    roll.record("canary_started", 1, "bench");
    registry
        .save_rollout(&roll)
        .unwrap_or_else(|e| die(&format!("save rollout: {}", e)));
    let cfg = RolloutConfig {
        fraction: roll.fraction,
        seed: BENCH_SEED,
        min_obs: 32,
        improve_margin: 0.0,
        regress_margin: 0.5,
        max_burn: f64::INFINITY,
    };

    let n_requests = if args.quick { 192 } else { 512 };
    let queries = lhs(&space, n_requests, &mut rng);
    let bodies: Vec<String> = queries
        .iter()
        .map(|p| {
            let pt: Vec<String> = p.iter().map(|v| jnum(*v)).collect();
            format!(
                "{{\"cmd\":\"predict\",\"model\":\"{}\",\"point\":[{}]}}",
                base,
                pt.join(",")
            )
        })
        .collect();

    // Predicts don't mutate rollout state, so each pass gets a fresh
    // in-process server over the same on-disk registry.
    let shutdown = Arc::new(AtomicBool::new(false));
    let run_pass = |threads: usize| -> Vec<(String, u64)> {
        std::env::set_var(emod_par::THREADS_ENV, threads.to_string());
        let state = ServerState::new(Arc::clone(&registry), Arc::clone(&shutdown))
            .with_rollout_cfg(cfg.clone());
        let out = bodies
            .iter()
            .map(|body| {
                let (resp, _) = handle_request(&state, body);
                assert_eq!(
                    resp.get("ok"),
                    Some(&Json::Bool(true)),
                    "predict failed during canary: {}",
                    resp
                );
                let lane = resp
                    .get("serving")
                    .and_then(Json::as_str)
                    .expect("canary-tracked predict carries a serving lane")
                    .to_string();
                let bits = resp
                    .get("prediction")
                    .and_then(Json::as_f64)
                    .expect("numeric prediction")
                    .to_bits();
                (lane, bits)
            })
            .collect();
        std::env::remove_var(emod_par::THREADS_ENV);
        out
    };
    let (wall_seq, lanes_seq) = timed(args.reps, || run_pass(1));
    let (wall_par, lanes_par) = timed(args.reps, || run_pass(args.threads));
    let identical = lanes_seq == lanes_par;
    assert!(identical, "canary routing diverged across worker counts");
    // The served lanes must agree with the pure routing function — the
    // determinism contract clients and replays rely on.
    for (q, (lane, _)) in queries.iter().zip(&lanes_seq) {
        let expect = routes_to_canary(
            route_hash(cfg.seed, &base, std::slice::from_ref(q)),
            roll.fraction,
        );
        assert_eq!(lane == "canary", expect, "router disagrees with route_hash");
    }
    let canary_requests = lanes_seq.iter().filter(|(l, _)| l == "canary").count();
    let canary_share = canary_requests as f64 / n_requests as f64;
    let rate = n_requests as f64 / wall_seq.max(1e-9);

    // Shadow gating: feed exact ground truth until the gate promotes.
    let state = ServerState::new(Arc::clone(&registry), Arc::clone(&shutdown))
        .with_rollout_cfg(cfg.clone());
    let mut observes = 0usize;
    let mut promoted = false;
    let gate_start = Instant::now();
    'gate: while observes < 20 * cfg.min_obs {
        for q in &queries {
            let measured = truth(&space.encode(q));
            let pt: Vec<String> = q.iter().map(|v| jnum(*v)).collect();
            let body = format!(
                "{{\"cmd\":\"observe\",\"model\":\"{}\",\"point\":[{}],\"measured\":{}}}",
                base,
                pt.join(","),
                jnum(measured)
            );
            let (resp, _) = handle_request(&state, &body);
            assert_eq!(
                resp.get("ok"),
                Some(&Json::Bool(true)),
                "observe failed during canary: {}",
                resp
            );
            observes += 1;
            let verdict = resp
                .get("rollout")
                .and_then(|r| r.get("verdict"))
                .and_then(Json::as_str);
            match verdict {
                Some("promote") => {
                    promoted = true;
                    break 'gate;
                }
                Some("rollback") => die("shadow gate rolled the bench canary back"),
                _ => {}
            }
        }
    }
    let gate_wall = gate_start.elapsed().as_secs_f64();
    assert!(promoted, "shadow gate never promoted the bench canary");
    let final_state = registry
        .load_rollout(&base)
        .ok()
        .flatten()
        .expect("rollout state persisted");
    assert_eq!(final_state.phase, RolloutPhase::Steady);
    assert_eq!(final_state.active, 1, "promotion made v1 active");

    println!(
        "  {} predicts  canary share {:.1}%  seq {:.3}s ({:.0}/s)  par×{} {:.3}s  identical {}",
        n_requests,
        100.0 * canary_share,
        wall_seq,
        rate,
        args.threads,
        wall_par,
        identical
    );
    println!(
        "  promoted after {} observations in {:.3}s (min_obs {})",
        observes, gate_wall, cfg.min_obs
    );

    let mut fields = common_fields(args, args.reps, "canary");
    fields.extend([
        ("requests", n_requests.to_string()),
        ("canary_fraction", jnum(roll.fraction)),
        ("canary_share", jnum(canary_share)),
        ("wall_s_seq", jnum(wall_seq)),
        ("wall_s_par", jnum(wall_par)),
        ("predictions_per_sec", jnum(rate)),
        ("observes_to_promote", observes.to_string()),
        ("gate_wall_s", jnum(gate_wall)),
        ("identical", identical.to_string()),
        ("promoted", promoted.to_string()),
    ]);
    write_report(args, "canary", &fields);
    let _ = std::fs::remove_dir_all(&dir);
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
    if args.phase_enabled("serve") {
        // serve needs train's measured dataset even when train itself was
        // filtered out of the report.
        let data = bench_train(&args, args.phase_enabled("train"));
        bench_serve(&args, &data);
    } else if args.phase_enabled("train") {
        bench_train(&args, true);
    }
    if args.phase_enabled("tier0") {
        bench_tier0(&args);
    }
    if args.phase_enabled("canary") {
        bench_canary(&args);
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
