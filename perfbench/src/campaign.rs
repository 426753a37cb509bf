//! The campaign workloads: the paper's Figure 1 loop per program.
//!
//! For each program: select a D-optimal train design and an LHS test
//! design over all 25 predictors, measure every point, fit linear, MARS and
//! RBF on the same data, GA-search flags on the RBF model for the typical
//! platform, then measure the tuned flags and `-O2` there.
//!
//! [`run_untraced`] drives the shipped library API (`ModelBuilder`,
//! `Measurer`, `tune`) and is what the end-to-end metrics time.
//! [`run_traced`] replays the same campaign through the public functions
//! underneath — parse, pass pipeline, codegen, SMARTS, LHS, D-optimal
//! selection, fits, GA — with a span around each call. It keeps the
//! library's structure (compiles on the caller thread, simulations fanned
//! over an `emod_par::Pool` of the same width) and must reproduce the
//! untraced run's responses, model bytes and tuned points bit for bit.
//! The replay's batches mirror the `Measurer` only to place the child
//! spans; [`time_measurer`] times the shipped `Measurer` itself on the
//! replay's designs.

use crate::spans::Tracer;
use emod_compiler::{codegen, passes, OptConfig};
use emod_core::builder::{BuildConfig, ModelBuilder};
use emod_core::measure::{BatchRetry, Measurer, Metric};
use emod_core::model::{ModelFamily, SurrogateModel};
use emod_core::tune;
use emod_core::vars::{decode_point, design_space, encode_point};
use emod_doe::{lhs, DOptimal, DesignPoint, ModelSpec};
use emod_isa::{Emulator, Program, INST_BYTES};
use emod_models::{metrics, Dataset, Regressor, Writer};
use emod_uarch::{simulate_sampled, UarchConfig};
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// The three families, in the order every campaign fits them.
pub const FAMILIES: [ModelFamily; 3] = [ModelFamily::Linear, ModelFamily::Mars, ModelFamily::Rbf];

/// Fuel for functional-emulator checks (the bundled programs retire a few
/// million instructions).
const EMU_FUEL: u64 = 2_000_000_000;

/// Retries per failing point: `ModelBuilder`'s default.
const MEASURE_RETRIES: u32 = 2;

/// What one campaign run is asked to do.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Programs, in campaign order.
    pub programs: Vec<&'static Workload>,
    /// Response variable.
    pub metric: Metric,
    /// Measurement workers (pinned to `nproc`).
    pub threads: usize,
}

impl CampaignSpec {
    /// Model-building parameters: the library's quick scale at the fixed
    /// design seed, with the spec's response variable.
    pub fn build_config(&self) -> BuildConfig {
        let mut cfg = BuildConfig::quick(crate::DESIGN_SEED);
        cfg.metric = self.metric;
        cfg
    }
}

/// The observable outputs of one program's campaign: everything the
/// traced replay must reproduce exactly, plus its timings.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramResult {
    /// Program name.
    pub name: &'static str,
    /// Test-design responses, as `f64` bits, in design order.
    pub test_bits: Vec<u64>,
    /// Train-design responses, as `f64` bits, in design order.
    pub train_bits: Vec<u64>,
    /// Encoded fitted models, one per family.
    pub model_bytes: Vec<Vec<u8>>,
    /// Test MAPE per family, percent.
    pub mape: Vec<f64>,
    /// GA-tuned raw design point.
    pub tuned_point: Vec<f64>,
    /// GA evaluations spent.
    pub evaluations: usize,
    /// Measured response at `-O2` on the typical platform.
    pub o2: f64,
    /// Measured response at the tuned flags on the typical platform.
    pub tuned: f64,
    /// Design points dropped after exhausting their retries.
    pub quarantined: usize,
    /// Wall seconds from design selection to the measured tuned result.
    pub wall_s: f64,
}

impl ProgramResult {
    /// Design points measured: train + test + the tuned and `-O2` checks.
    pub fn points(&self) -> usize {
        self.train_bits.len() + self.test_bits.len() + 2
    }

    /// Every measured response as `f64` bits, in [`Designs`] order: test
    /// design, train design, `-O2`, tuned.
    pub fn response_bits(&self) -> Vec<u64> {
        let mut v = self.test_bits.clone();
        v.extend(&self.train_bits);
        v.extend([self.o2.to_bits(), self.tuned.to_bits()]);
        v
    }

    /// The fields the traced replay must reproduce exactly.
    pub fn same_outputs(&self, other: &ProgramResult) -> bool {
        self.name == other.name
            && self.test_bits == other.test_bits
            && self.train_bits == other.train_bits
            && self.model_bytes == other.model_bytes
            && bits(&self.mape) == bits(&other.mape)
            && bits(&self.tuned_point) == bits(&other.tuned_point)
            && self.evaluations == other.evaluations
            && self.o2.to_bits() == other.o2.to_bits()
            && self.tuned.to_bits() == other.tuned.to_bits()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn model_bytes(model: &SurrogateModel) -> Vec<u8> {
    let mut w = Writer::new();
    model.encode(&mut w);
    w.into_bytes()
}

/// The untimed set-up every campaign needs: parse and lower each program
/// and compute its reference checksums (both cached for the process).
pub fn setup(programs: &[&'static Workload]) {
    for w in programs {
        std::hint::black_box(w.module());
        std::hint::black_box(w.reference_checksum(InputSet::Train));
    }
}

/// Set-up with a span around each call, for the traced run. Must be the
/// process's first use of the programs, or the spans time cache hits.
pub fn setup_traced(programs: &[&'static Workload], tracer: &Tracer) {
    for (i, w) in programs.iter().enumerate() {
        tracer.time("compiler.front", None, i as u64, |_| {
            std::hint::black_box(w.module());
        });
        tracer.time("workloads.reference_checksum", None, i as u64, |_| {
            std::hint::black_box(w.reference_checksum(InputSet::Train));
        });
    }
}

/// Runs the campaign through the library API. Returns per-program results
/// (or the first fitting error) and the campaign wall time in seconds.
pub fn run_untraced(spec: &CampaignSpec) -> Result<(Vec<ProgramResult>, f64), String> {
    let typical = UarchConfig::typical();
    let start = Instant::now();
    let mut out = Vec::with_capacity(spec.programs.len());
    for &w in &spec.programs {
        let t0 = Instant::now();
        let mut builder =
            ModelBuilder::new(w, InputSet::Train, spec.build_config()).with_threads(spec.threads);
        let mut built = Vec::with_capacity(FAMILIES.len());
        for family in FAMILIES {
            built.push(
                builder
                    .build(family)
                    .map_err(|e| format!("{}: {:?} fit failed: {}", w.name(), family, e))?,
            );
        }
        let rbf = built.last().expect("three families");
        let tuned = tune::search_flags(rbf, &typical, crate::DESIGN_SEED);
        let m = builder.measurer_mut();
        let mut failed = 0;
        let mut measure =
            |opt: &OptConfig| match m.try_measure_configs_metric(opt, &typical, spec.metric) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("perfbench: {}: check measurement failed: {}", w.name(), e);
                    failed += 1;
                    f64::NAN
                }
            };
        let o2 = measure(&OptConfig::o2());
        let tuned_value = measure(&tuned.config);
        out.push(ProgramResult {
            name: w.name(),
            test_bits: bits(rbf.test.responses()),
            train_bits: bits(rbf.train.responses()),
            model_bytes: built.iter().map(|b| model_bytes(&b.model)).collect(),
            mape: built.iter().map(|b| b.test_mape).collect(),
            tuned_point: tuned.point.clone(),
            evaluations: tuned.evaluations,
            o2,
            tuned: tuned_value,
            quarantined: builder.quarantined_points().len() + failed,
            wall_s: t0.elapsed().as_secs_f64(),
        });
    }
    Ok((out, start.elapsed().as_secs_f64()))
}

/// Per-call facts the traced replay collects beside its spans.
#[derive(Debug, Default, Clone)]
pub struct ReplayStats {
    /// IR instruction counts after the midend, one per compile.
    pub ir_insts: Vec<f64>,
    /// Emitted code bytes, one per compile.
    pub code_bytes: Vec<f64>,
    /// Instructions retired per simulation.
    pub sim_insts: Vec<f64>,
    /// Detailed (non-warming) instructions per simulation.
    pub sim_detailed: Vec<f64>,
    /// SMARTS 3σ relative half-width per simulation.
    pub rel_error: Vec<f64>,
    /// Binary-cache hits and misses in the planning phase.
    pub binary_hits: u64,
    /// Binary-cache misses (= compiles).
    pub binary_misses: u64,
    /// `log det` of each selected train design.
    pub log_det: Vec<f64>,
    /// GA evaluations per search.
    pub evals: Vec<f64>,
    /// Design points measured, for per-point normalisation.
    pub points: usize,
    /// Test-design size (points per `models.predict` span).
    pub test_size: usize,
    /// Checksum mismatches or simulator faults met by the replay.
    pub failures: usize,
    /// The points each program's replay measured, in campaign order.
    pub designs: Vec<Designs>,
}

/// The design points one program's campaign measures.
#[derive(Debug, Clone)]
pub struct Designs {
    /// Test design, in design order.
    pub test: Vec<DesignPoint>,
    /// Train design, in design order.
    pub train: Vec<DesignPoint>,
    /// The `-O2` and GA-tuned points on the typical platform.
    pub checks: Vec<DesignPoint>,
}

/// Replay state for one program: the same two caches the `Measurer`
/// keeps (binaries by compiler configuration, responses by point+metric).
struct Replay<'a> {
    tracer: &'a Tracer,
    w: &'static Workload,
    spec: &'a CampaignSpec,
    cfg: BuildConfig,
    pool: emod_par::Pool,
    binaries: HashMap<Vec<u64>, Program>,
    responses: HashMap<Vec<u64>, f64>,
    stats: &'a mut ReplayStats,
}

fn quantize(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The outcome of one simulation job on a worker.
struct SimOut {
    value: f64,
    insts: u64,
    detailed: u64,
    rel_error: Option<f64>,
    ok: bool,
}

impl Replay<'_> {
    fn compile(&mut self, opt: &OptConfig, parent: u64, tag: u64) -> Program {
        let key = quantize(&opt.to_design_values());
        if let Some(p) = self.binaries.get(&key) {
            self.stats.binary_hits += 1;
            return p.clone();
        }
        self.stats.binary_misses += 1;
        let t = self.tracer;
        let module = t.time("compiler.midend", Some(parent), tag, |_| {
            let mut m = self.w.module().clone();
            passes::run_pipeline(&mut m, opt);
            m
        });
        self.stats.ir_insts.push(module.size() as f64);
        let mut program = t.time("compiler.codegen", Some(parent), tag, |_| {
            codegen::generate(&module, opt).expect("bundled workloads compile at any valid setting")
        });
        self.stats
            .code_bytes
            .push((program.len() as u64 * INST_BYTES) as f64);
        t.time("workloads.input", Some(parent), tag, |_| {
            for (base, bytes) in self.w.input(InputSet::Train) {
                program.add_data(base, bytes);
            }
        });
        self.binaries.insert(key, program.clone());
        program
    }

    /// Measures a batch as the `Measurer` does: plan (cache lookups and
    /// compiles, in order, on this thread), simulate the fresh points on
    /// the pool, merge in design order. `inline` keeps the simulations on
    /// this thread, as the library's single-point path does. The
    /// `core.batch` span only parents the per-layer spans; the `core.*`
    /// metrics time the shipped `Measurer` ([`time_measurer`]).
    fn measure(&mut self, points: &[DesignPoint], inline: bool) -> Vec<f64> {
        let t = self.tracer;
        let metric = self.spec.metric;
        t.time("core.batch", None, points.len() as u64, |batch| {
            enum Plan {
                Ready(f64),
                Job(usize),
            }
            let mut plans = Vec::with_capacity(points.len());
            let mut first_job: HashMap<Vec<u64>, usize> = HashMap::new();
            let mut jobs: Vec<(Vec<u64>, Program, UarchConfig, usize)> = Vec::new();
            for (i, p) in points.iter().enumerate() {
                let (opt, uarch) = decode_point(p);
                let mut key = quantize(&encode_point(&opt, &uarch));
                key.push(metric as u64);
                if let Some(&v) = self.responses.get(&key) {
                    plans.push(Plan::Ready(v));
                } else if let Some(&j) = first_job.get(&key) {
                    plans.push(Plan::Job(j));
                } else {
                    let program = self.compile(&opt, batch, i as u64);
                    first_job.insert(key.clone(), jobs.len());
                    plans.push(Plan::Job(jobs.len()));
                    jobs.push((key, program, uarch, i));
                }
            }
            let sample = self.cfg.sample;
            let expected = self.w.reference_checksum(InputSet::Train);
            let run =
                |(_, program, uarch, i): &(Vec<u64>, Program, UarchConfig, usize)| {
                    if metric == Metric::CodeSize {
                        return SimOut {
                            value: (program.len() as u64 * INST_BYTES) as f64,
                            insts: 0,
                            detailed: 0,
                            rel_error: None,
                            ok: true,
                        };
                    }
                    t.time("uarch.simulate_sampled", Some(batch), *i as u64, |_| {
                        match simulate_sampled(program, uarch, &sample) {
                            Ok(r) => SimOut {
                                value: match metric {
                                    Metric::Energy => r.energy,
                                    _ => r.cycles as f64,
                                },
                                insts: r.instructions,
                                detailed: r.pipe.dispatches,
                                rel_error: Some(r.rel_error),
                                ok: r.exit_value == expected,
                            },
                            Err(_) => SimOut {
                                value: f64::NAN,
                                insts: 0,
                                detailed: 0,
                                rel_error: None,
                                ok: false,
                            },
                        }
                    })
                };
            let outs: Vec<SimOut> = if inline {
                jobs.iter().map(run).collect()
            } else {
                self.pool.map(&jobs, |_, job| run(job))
            };
            let mut values = Vec::with_capacity(jobs.len());
            for ((key, ..), out) in jobs.iter().zip(outs) {
                if !out.ok {
                    self.stats.failures += 1;
                }
                if let Some(e) = out.rel_error {
                    self.stats.sim_insts.push(out.insts as f64);
                    self.stats.sim_detailed.push(out.detailed as f64);
                    self.stats.rel_error.push(e);
                }
                self.responses.insert(key.clone(), out.value);
                values.push(out.value);
            }
            plans
                .into_iter()
                .map(|p| match p {
                    Plan::Ready(v) => v,
                    Plan::Job(j) => values[j],
                })
                .collect()
        })
    }

    fn run(&mut self, index: usize) -> ProgramResult {
        let t = self.tracer;
        let t0 = Instant::now();
        let space = design_space();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let candidates = t.time("doe.lhs", None, index as u64, |_| {
            lhs(&space, self.cfg.candidates, &mut rng)
        });
        let dopt = DOptimal::new(&space, ModelSpec::main_effects());
        let train_points = t.time("doe.select", None, index as u64, |_| {
            dopt.select(&candidates, self.cfg.train_size, &mut rng)
        });
        let log_det = t.time("doe.log_det", None, index as u64, |_| {
            dopt.log_det(&train_points)
        });
        self.stats.log_det.push(log_det);
        let test_points = t.time("doe.lhs", None, index as u64, |_| {
            lhs(&space, self.cfg.test_size, &mut rng)
        });
        self.stats.test_size = test_points.len();
        let mut model_bytes_out = Vec::new();
        let mut mape = Vec::new();
        let mut rbf = None;
        let mut test_ys = Vec::new();
        let mut train_ys = Vec::new();
        for (f, family) in FAMILIES.into_iter().enumerate() {
            // The builder measures the test design, then the train design,
            // for every family; after the first they are cache hits.
            test_ys = self.measure(&test_points, false);
            train_ys = self.measure(&train_points, false);
            let encode = |pts: &[DesignPoint]| pts.iter().map(|p| space.encode(p)).collect();
            let train = Dataset::new(encode(&train_points), train_ys.clone())
                .expect("measured train design forms a dataset");
            let test = Dataset::new(encode(&test_points), test_ys.clone())
                .expect("measured test design forms a dataset");
            let model = t.time("models.fit", None, f as u64, |_| {
                SurrogateModel::fit(&train, family).expect("fit succeeds on a full-rank design")
            });
            let preds = t.time("models.predict", None, f as u64, |_| {
                model.predict_batch(test.points())
            });
            mape.push(metrics::mape(&preds, test.responses()));
            model_bytes_out.push(model_bytes(&model));
            rbf = Some(model);
        }
        let rbf = rbf.expect("three families");
        let typical = UarchConfig::typical();
        let tuned = t.time("search.tune", None, index as u64, |_| {
            tune::search_flags_surrogate(&space, &rbf, &typical, crate::DESIGN_SEED)
        });
        self.stats.evals.push(tuned.evaluations as f64);
        let checks = vec![
            encode_point(&OptConfig::o2(), &typical),
            encode_point(&tuned.config, &typical),
        ];
        let o2 = self.measure(&checks[..1], true)[0];
        let tuned_value = self.measure(&checks[1..], true)[0];
        self.stats.designs.push(Designs {
            test: test_points,
            train: train_points,
            checks,
        });
        let result = ProgramResult {
            name: self.w.name(),
            test_bits: bits(&test_ys),
            train_bits: bits(&train_ys),
            model_bytes: model_bytes_out,
            mape,
            tuned_point: tuned.point,
            evaluations: tuned.evaluations,
            o2,
            tuned: tuned_value,
            quarantined: 0,
            wall_s: t0.elapsed().as_secs_f64(),
        };
        self.stats.points += result.points();
        result
    }
}

/// Replays the campaign through the public per-layer functions with a span
/// around each call. Returns per-program results, replay statistics and
/// the replay's `(start_ns, end_ns)` window on the tracer's clock.
pub fn run_traced(
    spec: &CampaignSpec,
    tracer: &Tracer,
) -> (Vec<ProgramResult>, ReplayStats, (u64, u64)) {
    let mut stats = ReplayStats::default();
    let start = tracer.now_ns();
    let mut out = Vec::new();
    for (i, &w) in spec.programs.iter().enumerate() {
        let mut replay = Replay {
            tracer,
            w,
            spec,
            cfg: spec.build_config(),
            pool: emod_par::Pool::new(spec.threads),
            binaries: HashMap::new(),
            responses: HashMap::new(),
            stats: &mut stats,
        };
        out.push(replay.run(i));
    }
    (out, stats, (start, tracer.now_ns()))
}

/// The shipped `Measurer` timed on the designs a replay measured.
#[derive(Debug, Clone)]
pub struct MeasurerTiming {
    /// Wall seconds spent inside `Measurer` calls, over all programs.
    pub wall_s: f64,
    /// Responses per program as `f64` bits, in [`Designs`] order (a failed
    /// point reads `u64::MAX`).
    pub bits: Vec<Vec<u64>>,
}

/// Measures each program's designs with a fresh `Measurer` at the spec's
/// worker count, as `ModelBuilder` and the campaign call it: the test
/// design and then the train design as batches with the builder's retry
/// policy, then each check point through the single-point path. Only the
/// `Measurer` calls are timed.
pub fn time_measurer(spec: &CampaignSpec, designs: &[Designs]) -> MeasurerTiming {
    let cfg = spec.build_config();
    let retry = BatchRetry::campaign(MEASURE_RETRIES, cfg.seed);
    let mut wall_s = 0.0;
    let mut bits = Vec::with_capacity(designs.len());
    for (&w, d) in spec.programs.iter().zip(designs) {
        let mut m = Measurer::new(w, InputSet::Train, cfg.sample);
        m.set_threads(spec.threads);
        let start = Instant::now();
        let mut out = m.try_measure_metric_batch(&d.test, spec.metric, &retry);
        out.extend(m.try_measure_metric_batch(&d.train, spec.metric, &retry));
        out.extend(
            d.checks
                .iter()
                .map(|p| m.try_measure_metric(p, spec.metric)),
        );
        wall_s += start.elapsed().as_secs_f64();
        bits.push(
            out.into_iter()
                .map(|r| r.map_or(u64::MAX, f64::to_bits))
                .collect(),
        );
    }
    MeasurerTiming { wall_s, bits }
}

/// Runs a seeded sample of binaries on the functional emulator and checks
/// each returns its program's reference checksum. Returns `(checked,
/// mismatched)`; with a tracer, also times each run as `isa.emulate` and
/// returns the retired instruction counts.
pub fn emulate_sample(
    programs: &[&'static Workload],
    points: &[Vec<DesignPoint>],
    tracer: Option<&Tracer>,
) -> (usize, usize, Vec<f64>) {
    let mut checked = 0;
    let mut bad = 0;
    let mut retired = Vec::new();
    for (i, (w, pts)) in programs.iter().zip(points).enumerate() {
        let expected = w.reference_checksum(InputSet::Train);
        for p in pts {
            let (opt, _) = decode_point(p);
            let program = w
                .program(&opt, InputSet::Train)
                .expect("bundled workloads compile at any valid setting");
            let mut emu = Emulator::new(&program);
            let result = match tracer {
                Some(t) => t.time("isa.emulate", None, i as u64, |_| emu.run(EMU_FUEL)),
                None => emu.run(EMU_FUEL),
            };
            checked += 1;
            if result.ok() != Some(expected) {
                bad += 1;
                eprintln!("perfbench: {}: emulated checksum mismatch", w.name());
            }
            retired.push(emu.retired_count() as f64);
        }
    }
    (checked, bad, retired)
}

/// A seeded sample of `per_program` design points for each program, drawn
/// from its own train design (re-derived from the build configuration).
pub fn sample_train_points(
    spec: &CampaignSpec,
    per_program: usize,
    seed: u64,
) -> Vec<Vec<DesignPoint>> {
    let space = design_space();
    let cfg = spec.build_config();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let candidates = lhs(&space, cfg.candidates, &mut rng);
    let train = DOptimal::new(&space, ModelSpec::main_effects()).select(
        &candidates,
        cfg.train_size,
        &mut rng,
    );
    let mut pick = StdRng::seed_from_u64(seed);
    spec.programs
        .iter()
        .map(|_| {
            (0..per_program)
                .map(|_| train[rand::Rng::gen_range(&mut pick, 0..train.len())].clone())
                .collect()
        })
        .collect()
}

/// The `-O2` binary of each program (for the emulator throughput probe).
pub fn o2_points(programs: &[&'static Workload]) -> Vec<Vec<DesignPoint>> {
    let p = encode_point(&OptConfig::o2(), &UarchConfig::typical());
    programs.iter().map(|_| vec![p.clone()]).collect()
}
