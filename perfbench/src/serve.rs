//! The serving workloads: open-loop traffic against the `emod-serve`
//! binary at its defaults.
//!
//! Set-up builds linear, MARS and RBF artifacts for one program from one
//! quick-scale cycles campaign, publishes them to a fresh registry, starts
//! `emod-serve` on it (only the address and registry path are passed;
//! the child's environment is empty) and warms `nproc` connections. The
//! measurement is a light run of [`LIGHT_REQUESTS`] at [`LIGHT_RPS`]
//! (stratified Poisson gaps) followed by a closed-loop saturation window,
//! both from this process over `nproc` connections; traced runs add the
//! open-loop rate ladder ([`crate::ladder`]). The checks run afterwards:
//! wire replies to read commands must be byte-identical to in-process
//! `handle_request` on the same registry, and the served models' accuracy
//! and `tune` answer are measured against the simulator.

use crate::campaign::{self, CampaignSpec, FAMILIES};
use crate::ladder::{self, Rung, Verdict};
use crate::layers::{self, push_end_to_end, push_per_layer};
use crate::load::{self, Planned, Sample};
use crate::report::Report;
use crate::spans::{self, Tracer};
use crate::stats::{self, median};
use crate::{host, Args, DESIGN_SEED, SETUP_REPEATS};
use emod_compiler::OptConfig;
use emod_core::builder::{BuildConfig, ModelBuilder};
use emod_core::measure::{Measurer, Metric};
use emod_core::vars::{design_space, encode_point};
use emod_models::Regressor;
use emod_serve::artifact::family_slug;
use emod_serve::{Json, ModelArtifact, ModelRegistry};
use emod_uarch::UarchConfig;
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Program whose models the registry serves.
pub const SERVE_PROGRAM: &str = "164.gzip";

/// Offered rate of the light run, requests per second.
pub const LIGHT_RPS: f64 = 10.0;

/// Requests in the light run: enough that p95 has 10 samples beyond it.
pub const LIGHT_REQUESTS: usize = 220;

/// Tail-latency limit of a ladder rung, ms: above today's ~44 ms
/// per-message floor, and within the cost of simulating one quick-scale
/// point (46–225 ms), which a model answer exists to avoid.
pub const LIMIT_MS: f64 = 100.0;

/// Grace after a schedule's horizon; later answers count as failed.
pub const GRACE_S: f64 = 0.25;

/// Length of one ladder rung's arrival window, seconds.
const RUNG_S: f64 = 1.0;

/// Rungs the traced run's ladder may use.
const LADDER_RUNGS: usize = 6;

/// Distinct request lines the saturation window cycles through.
const SATURATION_LINES: usize = 2000;

/// Shortest closed-loop saturation window, seconds.
const MIN_SATURATION_S: f64 = 3.0;

/// A rung whose p99 send lag exceeds this is generator-limited.
pub const LAG_LIMIT_MS: f64 = 5.0;

/// Ladder stops once the pass/fail bracket is this tight.
const RESOLUTION: f64 = 0.05;

/// Request kinds, in the order of [`KIND_NAMES`].
const PREDICT: usize = 0;
const PREDICT_BATCH: usize = 1;
const EXPLAIN: usize = 2;
const TUNE: usize = 3;
const OBSERVE: usize = 4;

/// Command name per kind.
pub const KIND_NAMES: [&str; 5] = ["predict", "predict_batch", "explain", "tune", "observe"];

/// Points per `predict_batch` request: `emod-load`'s default batch.
const BATCH_POINTS: usize = 8;

/// The traffic mix of a workload: weight per kind, in [`KIND_NAMES`] order.
///
/// `serve_mix` starts from the one mix the repository records for its own
/// load runs, `predict=8,predict_batch=1,explain=1` (the CI load-smoke and
/// canary-smoke jobs and the guide's open-loop example). To that it adds
/// `tune=1`, the weight `emod-load`'s mixed-schedule test gives `tune`
/// next to `predict=8` (the only recorded mix with `tune`), and one
/// `observe` per `tune`: every tuned setting gets measured and reported
/// back, as the campaign loop measures its tuned flags.
fn mix(workload: &str) -> [u32; 5] {
    match workload {
        "serve_predict" => [1, 0, 0, 0, 0],
        _ => [8, 1, 1, 1, 1],
    }
}

/// Generates request lines from the seed; the server only ever sees these.
struct Traffic {
    rng: StdRng,
    weights: [u32; 5],
    /// Raw test-design points of the served models and their measured
    /// responses (ground truth for `observe`).
    truth: Vec<(Vec<f64>, f64)>,
    selector: String,
}

impl Traffic {
    fn new(seed: u64, workload: &str, truth: Vec<(Vec<f64>, f64)>) -> Traffic {
        Traffic {
            rng: StdRng::seed_from_u64(seed),
            weights: mix(workload),
            truth,
            selector: Workload::by_name(SERVE_PROGRAM)
                .expect("bundled program")
                .name()
                .to_string(),
        }
    }

    fn draw_kind(&mut self) -> usize {
        let total: u32 = self.weights.iter().sum();
        let mut pick = self.rng.gen_range(0..total);
        for (k, w) in self.weights.iter().enumerate() {
            if pick < *w {
                return k;
            }
            pick -= w;
        }
        PREDICT
    }

    fn point(&mut self) -> Json {
        let p = design_space().random_point(&mut self.rng);
        Json::Arr(p.into_iter().map(Json::Num).collect())
    }

    fn line(&mut self, kind: usize) -> String {
        let sel = self.selector.clone();
        let sel = sel.as_str();
        let req = match kind {
            PREDICT | EXPLAIN => Json::obj(vec![
                ("cmd", KIND_NAMES[kind].into()),
                ("workload", sel.into()),
                ("point", self.point()),
            ]),
            PREDICT_BATCH => {
                let points = (0..BATCH_POINTS).map(|_| self.point()).collect();
                Json::obj(vec![
                    ("cmd", "predict_batch".into()),
                    ("workload", sel.into()),
                    ("points", Json::Arr(points)),
                ])
            }
            TUNE => Json::obj(vec![
                ("cmd", "tune".into()),
                ("workload", sel.into()),
                ("family", "rbf".into()),
                ("platform", "typical".into()),
                ("seed", Json::from(self.rng.gen_range(0u64..1 << 20))),
            ]),
            OBSERVE => {
                let (p, y) = self.truth[self.rng.gen_range(0..self.truth.len())].clone();
                Json::obj(vec![
                    ("cmd", "observe".into()),
                    ("workload", sel.into()),
                    ("point", Json::Arr(p.into_iter().map(Json::Num).collect())),
                    ("measured", Json::Num(y)),
                ])
            }
            _ => unreachable!("five request kinds"),
        };
        req.to_string()
    }

    /// A Poisson schedule at `rate` over `horizon_s`.
    fn schedule(&mut self, rate: f64, horizon_s: f64) -> Vec<Planned> {
        let arrivals = load::poisson_arrivals(rate, horizon_s, &mut self.rng);
        self.requests(arrivals)
    }

    /// Exactly `n` stratified arrivals at `rate`
    /// ([`load::stratified_arrivals`]), and their horizon (seconds).
    fn schedule_n(&mut self, rate: f64, n: usize) -> (Vec<Planned>, f64) {
        let arrivals = load::stratified_arrivals(rate, n, &mut self.rng);
        let horizon_s = arrivals.last().map_or(0.0, |&t| t as f64 / 1e6) + 1e-3;
        (self.requests(arrivals), horizon_s)
    }

    fn requests(&mut self, arrivals: Vec<u64>) -> Vec<Planned> {
        arrivals
            .into_iter()
            .map(|at_us| {
                let kind = self.draw_kind();
                Planned {
                    at_us,
                    line: self.line(kind),
                }
            })
            .collect()
    }
}

/// A running `emod-serve` child, stopped and reaped on drop.
struct ServerProc {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    fn start(bin: &Path, registry: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--registry")
            .arg(registry)
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {}", bin.display(), e))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("emod-serve listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
        }
        // Keep draining so the child never blocks on a full pipe.
        let stderr = std::thread::spawn(move || for _ in lines {});
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        proc.addr = addr.ok_or("emod-serve exited before listening")?;
        Ok(proc)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down, waits up to 5 s, then kills it.
    fn stop(&mut self) {
        let _ = raw_request(&self.addr, "{\"cmd\":\"shutdown\"}");
        let until = Instant::now() + Duration::from_secs(5);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One request on a fresh connection, written with a single `write_all`,
/// returning the raw reply line without its newline.
fn raw_request(addr: &str, line: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{}\n", line).as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply.trim_end_matches('\n').to_string())
}

/// What set-up produced.
struct Setup {
    server: ServerProc,
    registry: PathBuf,
    artifacts: Vec<ModelArtifact>,
    seconds: f64,
}

fn serve_spec() -> CampaignSpec {
    CampaignSpec {
        programs: vec![Workload::by_name(SERVE_PROGRAM).expect("bundled program")],
        metric: Metric::Cycles,
        threads: host::nproc(),
    }
}

/// Builds and publishes the artifacts, starts the server, warms it.
/// With a tracer, the first use of the program (parse, reference
/// checksums) is timed as in the campaigns' traced set-up.
fn setup(args: &Args, tag: &str, tracer: Option<&Tracer>) -> Result<Setup, String> {
    let bin = args
        .serve_bin
        .as_ref()
        .ok_or("serve workloads need --serve-bin")?;
    let t = Instant::now();
    if let Some(tracer) = tracer {
        campaign::setup_traced(&serve_spec().programs, tracer);
    }
    let registry = args
        .work
        .join(format!("registry-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&registry);
    let reg = ModelRegistry::open(&registry).map_err(|e| e.to_string())?;
    let spec = serve_spec();
    let w = spec.programs[0];
    let cfg: BuildConfig = spec.build_config();
    let mut builder = ModelBuilder::new(w, InputSet::Train, cfg).with_threads(spec.threads);
    let mut artifacts = Vec::new();
    for family in FAMILIES {
        let built = builder.build(family).map_err(|e| e.to_string())?;
        let art = ModelArtifact::from_built(
            &built,
            InputSet::Train,
            Metric::Cycles,
            "quick",
            DESIGN_SEED,
        );
        reg.store(&art).map_err(|e| e.to_string())?;
        artifacts.push(art);
    }
    let server = ServerProc::start(bin, &registry)?;
    std::thread::scope(|s| {
        for _ in 0..host::nproc() {
            s.spawn(|| {
                let mut c = emod_serve::Client::new(&server.addr);
                let _ = c.request("{\"cmd\":\"health\"}");
            });
        }
    });
    Ok(Setup {
        server,
        registry,
        artifacts,
        seconds: t.elapsed().as_secs_f64(),
    })
}

/// Raw test-design points of the served models with their measured values.
fn ground_truth(art: &ModelArtifact) -> Vec<(Vec<f64>, f64)> {
    art.test
        .points()
        .iter()
        .zip(art.test.responses())
        .map(|(coded, &y)| (art.space.decode(coded), y))
        .collect()
}

/// A light run or ladder rung: `(samples, failed)`.
fn drive(addr: &str, schedule: &[Planned], horizon_s: f64) -> (Vec<Sample>, usize) {
    let samples = load::run(addr, schedule, host::nproc(), horizon_s, GRACE_S);
    let failed = samples.iter().filter(|s| !s.ok).count();
    (samples, failed)
}

fn rung_of(rate: f64, samples: &[Sample]) -> Rung {
    let (lat, failed) = load::latencies_ms(samples);
    let lags: Vec<f64> = samples
        .iter()
        .filter(|s| s.sent)
        .map(|s| s.lag_us / 1e3)
        .collect();
    ladder::classify(rate, &lat, failed, &lags, LIMIT_MS, LAG_LIMIT_MS)
}

/// Saturation throughput: requests answered per second over `secs` with
/// `nproc` connections, each sending its next request as soon as the
/// previous answer arrives. Answers after the window do not count.
fn saturation(addr: &str, traffic: &mut Traffic, secs: f64) -> f64 {
    let lines: Vec<String> = (0..SATURATION_LINES)
        .map(|_| {
            let kind = traffic.draw_kind();
            traffic.line(kind)
        })
        .collect();
    load::closed_loop(addr, &lines, host::nproc(), secs, GRACE_S)
}

/// The `serve_predict` / `serve_mix` workloads.
pub fn run(args: &Args) -> Result<Option<Report>, String> {
    if args.setup_probe {
        let s = setup(args, "probe", None)?;
        let secs = s.seconds;
        drop(s.server);
        let _ = std::fs::remove_dir_all(&s.registry);
        println!("setup_s {}", secs);
        return Ok(None);
    }
    let mut setups = if args.trace {
        Vec::new()
    } else {
        layers::probe_setups(args, layers::PROBES_BEFORE)?
    };
    let tracer = args.trace.then(Tracer::new);
    let s = setup(args, "main", tracer.as_ref())?;
    setups.push(s.seconds);
    let addr = s.server.addr.clone();
    let truth = ground_truth(&s.artifacts[0]);
    let mut traffic = Traffic::new(args.seed, &args.workload, truth);

    // Timed region: the light run, then the closed-loop saturation window
    // for the rest of --seconds.
    let t0 = Instant::now();
    let (light_sched, light_s) = traffic.schedule_n(LIGHT_RPS, LIGHT_REQUESTS);
    let (light, light_failed) = drive(&addr, &light_sched, light_s);
    let saturation_s = (args.seconds - t0.elapsed().as_secs_f64()).max(MIN_SATURATION_S);
    let throughput = saturation(&addr, &mut traffic, saturation_s);
    let measured_s = t0.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mib(Some(s.server.pid())).unwrap_or(0.0);

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.attempted = light.len() as u64;
    report.failed = light_failed as u64;
    report.check(
        light_failed == 0,
        format!(
            "{} light-run requests answered, {} failed",
            light.len() - light_failed,
            light_failed
        ),
    );
    let (lat, _) = load::latencies_ms(&light);
    let light_rung = rung_of(LIGHT_RPS, &light);
    report.notes.push(format!(
        "light run {:.1}s at {} rps: {} requests, p50 {:.3} ms, p{} {:.3} ms, send-lag p99 {:.3} ms",
        light_s,
        LIGHT_RPS,
        light.len(),
        median(&lat).unwrap_or(f64::NAN),
        light_rung.tail_pct,
        light_rung.tail_ms,
        light_rung.lag_p99_ms
    ));
    report.notes.push(format!(
        "saturation {:.1}s closed loop on {} connections: {:.1} req/s; {:.1}s measured in total",
        saturation_s,
        host::nproc(),
        throughput,
        measured_s
    ));
    report.check(throughput > 0.0, "the saturated server answered requests");

    let (identical, compared) = byte_identical(&addr, &s.registry, &mut traffic);
    report.check(
        identical == compared,
        format!(
            "{}/{} sampled read replies byte-identical to in-process handle_request",
            identical, compared
        ),
    );
    let mape = wire_mape(&addr, &s.artifacts);
    let meta_mape: Vec<f64> = s.artifacts.iter().map(|a| a.meta.test_mape).collect();
    let agree = mape.len() == meta_mape.len()
        && mape
            .iter()
            .zip(&meta_mape)
            .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0));
    report.check(
        agree,
        format!(
            "served test MAPE {:?} matches the artifacts' {:?}",
            mape, meta_mape
        ),
    );
    let speedup = served_tune_speedup(&addr);
    report.check(
        speedup.is_some(),
        "served tune answer measured on the simulator",
    );

    if args.trace {
        // The open-loop rate ladder: too few requests per rung at today's
        // rates to bound, so it is a per-layer reading of the traced run.
        let mut sent = light.iter().filter(|x| x.sent).count();
        let (max_rps, rungs) = ladder::search(0.5 * throughput, LADDER_RUNGS, RESOLUTION, |rate| {
            let sched = traffic.schedule(rate, RUNG_S);
            let (samples, _) = drive(&addr, &sched, RUNG_S);
            sent += samples.iter().filter(|x| x.sent).count();
            rung_of(rate, &samples)
        });
        for r in &rungs {
            report.notes.push(format!(
                "rung {:>10.1} rps  {:>6} req  {:>5} failed  p{:<4} {:>10.3} ms  lag p99 {:>8.3} ms  {:?}",
                r.rate, r.requests, r.failed, r.tail_pct, r.tail_ms, r.lag_p99_ms, r.verdict
            ));
        }
        let tracer = tracer.expect("traced runs create a tracer");
        let (mut values, self_times) = traced(args, &s, &addr, &tracer, &mut report)?;
        report.notes.extend(self_times);
        values.insert("load.max_rps".into(), max_rps);
        values.insert(
            "load.send_lag_ms".into(),
            std::iter::once(&light_rung)
                .chain(rungs.iter())
                .map(|r| r.lag_p99_ms)
                .fold(0.0, f64::max),
        );
        values.insert("load.sent".into(), sent as f64);
        values.insert(
            "load.generator_limited".into(),
            rungs
                .iter()
                .filter(|r| r.verdict == Verdict::GeneratorLimited)
                .count() as f64,
        );
        drop(s.server);
        let _ = std::fs::remove_dir_all(&s.registry);
        push_per_layer(&mut report, &values);
        return Ok(Some(report));
    }
    drop(s.server);
    let _ = std::fs::remove_dir_all(&s.registry);
    setups.extend(layers::probe_setups(
        args,
        SETUP_REPEATS - 1 - layers::PROBES_BEFORE,
    )?);

    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    e2e.insert("throughput_per_s", throughput);
    e2e.insert("p50_ms", median(&lat).unwrap_or(0.0));
    e2e.insert(
        "p95_ms",
        stats::tail_at_most(&lat, 95.0).map_or(0.0, |t| t.1),
    );
    e2e.insert("test_mape_pct", stats::mean(&mape).unwrap_or(0.0));
    e2e.insert("tuned_speedup", speedup.unwrap_or(0.0));
    e2e.insert("peak_rss_mb", peak_rss);
    report.notes.push(format!("setup_s samples {:?}", setups));
    push_end_to_end(&mut report, &e2e);
    Ok(Some(report))
}

/// Sends a seeded sample of read requests over the wire and compares each
/// raw reply with in-process `handle_request` on the same registry.
fn byte_identical(addr: &str, registry: &Path, traffic: &mut Traffic) -> (usize, usize) {
    let reg = match ModelRegistry::open(registry) {
        Ok(r) => Arc::new(r),
        Err(_) => return (0, 1),
    };
    let state = emod_serve::server::ServerState::new(reg, Arc::new(AtomicBool::new(false)));
    let kinds = [PREDICT, PREDICT, PREDICT_BATCH, EXPLAIN, EXPLAIN, TUNE];
    let mut same = 0;
    for &k in &kinds {
        let line = traffic.line(k);
        let wire = raw_request(addr, &line);
        let local = emod_serve::server::handle_request(&state, &line)
            .0
            .to_string();
        if wire.as_deref() == Ok(local.as_str()) {
            same += 1;
        } else {
            eprintln!("perfbench: reply mismatch for {}", line);
        }
    }
    (same, kinds.len())
}

/// Test-design MAPE of each served family, from the server's own replies.
fn wire_mape(addr: &str, artifacts: &[ModelArtifact]) -> Vec<f64> {
    let mut out = Vec::new();
    for art in artifacts {
        let truth = ground_truth(art);
        let points: Vec<Json> = art
            .test
            .points()
            .iter()
            .map(|c| Json::Arr(art.space.decode(c).into_iter().map(Json::Num).collect()))
            .collect();
        let req = Json::obj(vec![
            ("cmd", "predict_batch".into()),
            ("model", art.id().into()),
            ("points", Json::Arr(points)),
        ]);
        let reply = raw_request(addr, &req.to_string())
            .ok()
            .and_then(|r| Json::parse(&r).ok());
        let preds: Option<Vec<f64>> = reply
            .as_ref()
            .and_then(|r| r.get("predictions"))
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect());
        match preds {
            Some(p) if p.len() == truth.len() => {
                let ys: Vec<f64> = truth.iter().map(|t| t.1).collect();
                out.push(emod_models::metrics::mape(&p, &ys));
            }
            _ => out.push(f64::NAN),
        }
    }
    out
}

/// Asks the server to tune flags for the typical platform, then measures
/// the answer and `-O2` on the simulator: `-O2` cycles ÷ tuned cycles.
fn served_tune_speedup(addr: &str) -> Option<f64> {
    let w = Workload::by_name(SERVE_PROGRAM)?;
    let req = format!(
        "{{\"cmd\":\"tune\",\"workload\":\"{}\",\"family\":\"rbf\",\"platform\":\"typical\",\"seed\":{}}}",
        w.name(),
        DESIGN_SEED
    );
    let reply = Json::parse(&raw_request(addr, &req).ok()?).ok()?;
    let point: Vec<f64> = reply
        .get("point")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if point.len() != 25 {
        return None;
    }
    let cfg = serve_spec().build_config();
    let mut m = Measurer::new(w, InputSet::Train, cfg.sample);
    m.set_threads(1);
    let typical = UarchConfig::typical();
    let o2 = m
        .try_measure_metric(&encode_point(&OptConfig::o2(), &typical), Metric::Cycles)
        .ok()?;
    let tuned = m.try_measure_metric(&point, Metric::Cycles).ok()?;
    Some(o2 / tuned)
}

/// The traced replay: the set-up campaign through the per-layer functions,
/// fixed request lines closed-loop over the wire (untraced, then traced),
/// the same lines through in-process `handle_request`, and direct timings
/// of the codec, registry, quality, model and GA calls.
fn traced(
    args: &Args,
    s: &Setup,
    addr: &str,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(BTreeMap<String, f64>, Vec<String>), String> {
    let spec = serve_spec();
    let (replayed, stats, _) = campaign::run_traced(&spec, tracer);
    let timing = campaign::time_measurer(&spec, &stats.designs);
    report.check(
        timing.bits
            == replayed
                .iter()
                .map(|r| r.response_bits())
                .collect::<Vec<_>>(),
        "the shipped Measurer, timed on the set-up replay's designs, returns the same responses",
    );
    let (_, _, retired) = campaign::emulate_sample(
        &spec.programs,
        &campaign::o2_points(&spec.programs),
        Some(tracer),
    );
    let mut values = layers::campaign_layers(
        &tracer.spans(),
        &stats,
        spec.threads,
        &retired,
        timing.wall_s,
    );

    let mut traffic = Traffic::new(
        args.seed ^ 0x7ace,
        &args.workload,
        ground_truth(&s.artifacts[0]),
    );
    const PER_KIND: [usize; 5] = [20, 10, 10, 5, 10];
    let lines: Vec<(usize, String)> = (0..KIND_NAMES.len())
        .flat_map(|k| (0..PER_KIND[k]).map(move |_| k))
        .map(|k| (k, traffic.line(k)))
        .collect();
    // Closed loop over one connection: predict untraced first, then every
    // line traced.
    let mut client = emod_serve::Client::new(addr).with_policy(emod_serve::RetryPolicy::none());
    let _ = client.request("{\"cmd\":\"health\"}");
    let mut untraced = Vec::new();
    for (_, line) in lines.iter().filter(|(k, _)| *k == PREDICT) {
        let t = Instant::now();
        let _ = client.request(line);
        untraced.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let window_start = tracer.now_ns();
    let mut rtt: Vec<Vec<f64>> = vec![Vec::new(); KIND_NAMES.len()];
    for (k, line) in &lines {
        let t = Instant::now();
        tracer
            .time("serve.client_request", None, *k as u64, |_| {
                client.request(line)
            })
            .map_err(|e| format!("closed-loop {}: {}", KIND_NAMES[*k], e))?;
        rtt[*k].push(t.elapsed().as_secs_f64() * 1e6);
    }

    // The same lines in-process, telemetry on as the server runs it.
    emod_telemetry::enable();
    let reg = Arc::new(ModelRegistry::open(&s.registry).map_err(|e| e.to_string())?);
    let state =
        emod_serve::server::ServerState::new(Arc::clone(&reg), Arc::new(AtomicBool::new(false)));
    let mut handle: Vec<Vec<f64>> = vec![Vec::new(); KIND_NAMES.len()];
    let mut parse_us = Vec::new();
    let mut write_us = Vec::new();
    for (k, line) in &lines {
        let t = Instant::now();
        let (resp, _) = tracer.time("serve.handle_request", None, *k as u64, |_| {
            emod_serve::server::handle_request(&state, line)
        });
        handle[*k].push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let parsed = tracer.time("serve.json_parse", None, *k as u64, |_| Json::parse(line));
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed.ok());
        let t = Instant::now();
        let text = tracer.time("serve.json_write", None, *k as u64, |_| resp.to_string());
        write_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(text);
    }
    let mut resolve_us = Vec::new();
    let selector = Workload::by_name(SERVE_PROGRAM)
        .expect("bundled program")
        .name();
    for i in 0..20u64 {
        let t = Instant::now();
        tracer.time("serve.resolve", None, i, |_| {
            reg.list().ok().and_then(|ids| {
                ids.into_iter().find_map(|id| {
                    reg.load(&id)
                        .ok()
                        .filter(|a| a.meta.workload.contains(selector))
                })
            })
        });
        resolve_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Direct model, quality and GA calls on the published artifacts.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let queries: Vec<Vec<f64>> = (0..200)
        .map(|_| design_space().random_point(&mut rng))
        .collect();
    let mut explain_us = Vec::new();
    let mut extrap_us = Vec::new();
    for (f, art) in s.artifacts.iter().enumerate() {
        let coded: Vec<Vec<f64>> = queries.iter().map(|q| art.space.encode(q)).collect();
        let t = Instant::now();
        tracer.time("models.predict", None, f as u64, |_| {
            for c in &coded {
                std::hint::black_box(art.model.predict(c));
            }
        });
        values.insert(
            format!("models.predict_us.{}", family_slug(art.meta.family)),
            t.elapsed().as_secs_f64() * 1e6 / coded.len() as f64,
        );
        let t = Instant::now();
        tracer.time("models.explain", None, f as u64, |_| {
            for c in &coded {
                std::hint::black_box(art.model.explain(c));
            }
        });
        explain_us.push(t.elapsed().as_secs_f64() * 1e6 / coded.len() as f64);
        if let Some(summary) = &art.quality {
            let t = Instant::now();
            tracer.time("quality.extrapolation", None, f as u64, |_| {
                for c in &coded {
                    std::hint::black_box(summary.extrapolation(art.train.points(), c));
                }
            });
            extrap_us.push(t.elapsed().as_secs_f64() * 1e6 / coded.len() as f64);
        }
    }
    let rbf = s.artifacts.last().expect("three artifacts");
    let mut tune_ms = Vec::new();
    let mut evals = Vec::new();
    for i in 0..5u64 {
        let t = Instant::now();
        let tuned = tracer.time("search.tune", None, i, |_| {
            emod_core::tune::search_flags_surrogate(
                &rbf.space,
                &rbf.model,
                &UarchConfig::typical(),
                DESIGN_SEED + i,
            )
        });
        tune_ms.push(t.elapsed().as_secs_f64() * 1e3);
        evals.push(tuned.evaluations as f64);
    }
    let window_end = tracer.now_ns();

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    for (k, name) in KIND_NAMES.iter().enumerate() {
        values.insert(format!("serve.rtt_us.{}", name), med(&rtt[k]));
        values.insert(format!("serve.handle_us.{}", name), med(&handle[k]));
    }
    values.insert(
        "serve.transport_us".into(),
        med(&rtt[PREDICT]) - med(&handle[PREDICT]),
    );
    values.insert("serve.json_parse_us".into(), med(&parse_us));
    values.insert("serve.json_write_us".into(), med(&write_us));
    values.insert("serve.resolve_us".into(), med(&resolve_us));
    values.insert(
        "models.explain_us".into(),
        stats::mean(&explain_us).unwrap_or(0.0),
    );
    values.insert(
        "quality.extrap_us".into(),
        stats::mean(&extrap_us).unwrap_or(0.0),
    );
    values.insert("search.tune_ms".into(), med(&tune_ms));
    values.insert("search.evals".into(), stats::mean(&evals).unwrap_or(0.0));
    values.insert(
        "telemetry.call_ns".into(),
        layers::telemetry_call_ns(host::nproc()),
    );
    values.insert(
        "trace.overhead_pct".into(),
        100.0 * (med(&rtt[PREDICT]) - med(&untraced)) / med(&untraced),
    );
    let all = tracer.spans();
    let replay: Vec<spans::Span> = all
        .iter()
        .filter(|x| x.start_ns >= window_start)
        .cloned()
        .collect();
    values.insert(
        "trace.unattributed_pct".into(),
        100.0 * spans::unattributed_share(&replay, window_start, window_end),
    );
    layers::write_spans(args, tracer);
    Ok((values, layers::self_time_notes(&replay)))
}
