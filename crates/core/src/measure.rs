//! Response measurement: compile at a design point's flags, simulate at its
//! microarchitecture, return cycles.
//!
//! Failure handling (DESIGN.md §10): the `try_measure*` methods return a
//! [`MeasureError`] instead of panicking — simulator faults, checksum
//! mismatches, injected faults (probe `sim.run`) and panics inside the
//! measurement stack are all captured. With `EMOD_CHECKPOINT` set, every
//! fresh simulation is streamed to a JSONL checkpoint
//! ([`crate::checkpoint::Checkpoint`]) so a killed campaign resumes
//! bit-identically.
//!
//! One path: every measurement, single-point or batch, runs through
//! [`Measurer::try_measure_configs_metric_batch`], which compiles and
//! simulates each fresh configuration as one task of an [`emod_par::Pool`]
//! sized by `EMOD_THREADS` (see [`Measurer::set_threads`]). Responses,
//! cache contents, checkpoint bytes and measurer statistics are
//! bit-identical at any worker count: cache lookups are planned on the
//! caller thread, the pure compile-and-simulate tasks run on the pool, and
//! results merge back on the caller thread in design order.

use crate::checkpoint::{Checkpoint, CHECKPOINT_ENV};
use crate::vars::{decode_point, encode_point};
use emod_compiler::OptConfig;
use emod_faults as faults;
use emod_isa::Program;
use emod_telemetry as telemetry;
use emod_uarch::{simulate_sampled, CpiStack, PipeStats, SampleConfig, UarchConfig};
use emod_workloads::{InputSet, Workload};
use std::collections::HashMap;
use std::time::Duration;

/// Sampling error above this (the paper's "< 1% error" target, §5) raises a
/// telemetry warning event and increments the warning counter.
pub const REL_ERROR_WARN_THRESHOLD: f64 = 0.01;

/// The response variable being modeled. The paper models execution time but
/// notes (§2.2) that "models can also be built for other metrics such as
/// power consumption or code size".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Execution time in cycles (the paper's response).
    #[default]
    Cycles,
    /// Activity-based energy estimate (see `emod_uarch::op_energy`).
    Energy,
    /// Static code size in bytes.
    CodeSize,
}

impl Metric {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Cycles => "cycles",
            Metric::Energy => "energy",
            Metric::CodeSize => "code-size",
        }
    }
}

/// Why a measurement failed. The campaign layer retries these with backoff
/// and quarantines design points that keep failing (see
/// [`crate::builder::ModelBuilder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// An injected fault fired at the `sim.run` probe.
    Injected(String),
    /// The simulator itself faulted.
    Sim(String),
    /// The binary ran but produced the wrong checksum — a miscompile.
    ChecksumMismatch {
        /// Workload whose output diverged.
        workload: String,
        /// Reference checksum for the input set.
        expected: i64,
        /// Checksum the simulated binary produced.
        actual: i64,
    },
    /// A panic inside the compile/simulate stack, caught at the
    /// measurement boundary.
    Panicked(String),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Injected(msg) => write!(f, "injected fault: {}", msg),
            MeasureError::Sim(msg) => write!(f, "simulation faulted: {}", msg),
            MeasureError::ChecksumMismatch {
                workload,
                expected,
                actual,
            } => write!(
                f,
                "{}: checksum mismatch (expected {:#x}, got {:#x})",
                workload, expected, actual
            ),
            MeasureError::Panicked(msg) => write!(f, "measurement panicked: {}", msg),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Per-point retry policy for the batch measurement methods, mirroring the
/// retry-then-quarantine loop of [`crate::builder::ModelBuilder`]: each
/// failing point is retried with jittered exponential backoff, and the
/// backoff jitter for point `i` is seeded from `seed` and `i` alone so
/// retry behavior is independent of worker interleaving.
#[derive(Debug, Clone, Copy)]
pub struct BatchRetry {
    /// Total attempts per point (clamped to at least 1).
    pub attempts: u32,
    /// Base backoff delay before the second attempt.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Base seed for per-point backoff jitter.
    pub seed: u64,
}

impl BatchRetry {
    /// A single attempt per point: no retries, no backoff.
    pub fn single() -> Self {
        BatchRetry {
            attempts: 1,
            base: Duration::ZERO,
            max: Duration::ZERO,
            seed: 0,
        }
    }

    /// The campaign default: `1 + retries` attempts with 25–250 ms backoff.
    pub fn campaign(retries: u32, seed: u64) -> Self {
        BatchRetry {
            attempts: 1 + retries,
            base: Duration::from_millis(25),
            max: Duration::from_millis(250),
            seed,
        }
    }

    /// The backoff seed for the point at design index `index`.
    fn point_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// The raw outcome of one compile+simulate, before it touches `Measurer`
/// state: produced on worker threads, absorbed on the caller thread in
/// design order so statistics update deterministically.
struct RawMeasurement {
    value: f64,
    /// `None` when nothing was simulated (code-size reads).
    rel_error: Option<f64>,
    instructions: u64,
    windows: u64,
    wall_s: f64,
    /// Mean CPI over detailed phases (0 when nothing was simulated).
    cpi: f64,
    /// Stall breakdown over detailed phases, when one was collected.
    pipe: Option<PipeStats>,
}

/// Pure measurement kernel: simulates `program` on `uarch` and extracts
/// `metric`. No `Measurer` state is read or written, so this is safe to
/// run concurrently for distinct design points.
fn simulate_one(
    workload: &'static Workload,
    set: InputSet,
    program: &Program,
    uarch: &UarchConfig,
    sample: &SampleConfig,
    metric: Metric,
) -> Result<RawMeasurement, MeasureError> {
    if metric == Metric::CodeSize {
        return Ok(RawMeasurement {
            value: (program.len() as u64 * emod_isa::INST_BYTES) as f64,
            rel_error: None,
            instructions: 0,
            windows: 0,
            wall_s: 0.0,
            cpi: 0.0,
            pipe: None,
        });
    }
    let expected = workload.reference_checksum(set);
    let start = std::time::Instant::now();
    let res =
        simulate_sampled(program, uarch, sample).map_err(|e| MeasureError::Sim(e.to_string()))?;
    if res.exit_value != expected {
        return Err(MeasureError::ChecksumMismatch {
            workload: workload.name().to_string(),
            expected,
            actual: res.exit_value,
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(RawMeasurement {
        value: match metric {
            Metric::Cycles => res.cycles as f64,
            Metric::Energy => res.energy,
            Metric::CodeSize => unreachable!("handled above"),
        },
        rel_error: Some(res.rel_error),
        instructions: res.instructions,
        windows: res.windows,
        wall_s,
        cpi: res.cpi,
        pipe: Some(res.pipe),
    })
}

/// Measures execution time (in cycles) at design points for one
/// program/input pair, with caching.
///
/// Each fresh design point compiles its own binary: as the paper notes,
/// "each design point may correspond to a different program binary", and a
/// 25-dimensional design almost never repeats a compiler setting. Full
/// responses are cached per design point and metric, since model families
/// share designs and D-optimal designs may repeat points.
pub struct Measurer {
    workload: &'static Workload,
    set: InputSet,
    sample: SampleConfig,
    responses: HashMap<Vec<u64>, u64>, // f64 value bits, keyed by point+metric
    checkpoint: Option<Checkpoint>,
    measurements: u64,
    instructions_simulated: u64,
    threads: usize,
    /// Aggregate stall breakdown over every detailed phase this process
    /// simulated, for [`Measurer::cpi_stack`].
    pipe_accum: PipeStats,
    /// Dispatch-weighted CPI sum matching `pipe_accum` (Σ cpi·dispatches).
    cpi_weight_sum: f64,
}

impl std::fmt::Debug for Measurer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Measurer")
            .field("workload", &self.workload.name())
            .field("set", &self.set)
            .field("measurements", &self.measurements)
            .finish()
    }
}

fn quantize(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

impl Measurer {
    /// Creates a measurer for a workload/input pair. When `EMOD_CHECKPOINT`
    /// names a directory, a JSONL checkpoint is attached: previously
    /// measured responses seed the cache and fresh ones stream to disk.
    pub fn new(workload: &'static Workload, set: InputSet, sample: SampleConfig) -> Self {
        let mut m = Measurer {
            workload,
            set,
            sample,
            responses: HashMap::new(),
            checkpoint: None,
            measurements: 0,
            instructions_simulated: 0,
            threads: emod_par::threads_from_env(),
            pipe_accum: PipeStats::default(),
            cpi_weight_sum: 0.0,
        };
        if let Ok(dir) = std::env::var(CHECKPOINT_ENV) {
            if !dir.is_empty() {
                m.attach_checkpoint(std::path::Path::new(&dir));
            }
        }
        m
    }

    /// Aggregate CPI-stack decomposition over every detailed phase this
    /// process simulated (dispatch-weighted across measurements). All-zero
    /// until the first simulation.
    pub fn cpi_stack(&self) -> CpiStack {
        let n = self.pipe_accum.dispatches;
        if n == 0 {
            return CpiStack::default();
        }
        CpiStack::from_pipe(&self.pipe_accum, self.cpi_weight_sum / n as f64)
    }

    /// Attaches (or replaces) a measurement checkpoint rooted at `dir`,
    /// seeding the response cache with any entries recovered from a
    /// previous run. Open failures disable checkpointing with a warning —
    /// durability loss must not abort a campaign.
    pub fn attach_checkpoint(&mut self, dir: &std::path::Path) {
        let set_name = format!("{:?}", self.set).to_lowercase();
        match Checkpoint::open(dir, self.workload.name(), &set_name, &self.sample) {
            Ok((ck, entries)) => {
                let loaded = entries.len() as u64;
                for entry in entries {
                    self.responses.insert(entry.key, entry.bits);
                }
                if loaded > 0 {
                    telemetry::counter_add("core.measure.checkpoint.loaded", loaded);
                    telemetry::event(
                        "core",
                        "checkpoint_resumed",
                        &[
                            ("workload", self.workload.name().into()),
                            ("entries", loaded.into()),
                        ],
                    );
                    eprintln!(
                        "emod-core: resumed {} measurement(s) from {}",
                        loaded,
                        ck.path().display()
                    );
                }
                self.checkpoint = Some(ck);
            }
            Err(e) => {
                telemetry::counter_add("core.measure.checkpoint.open_errors", 1);
                eprintln!(
                    "emod-core: cannot open checkpoint under {}: {} (continuing without)",
                    dir.display(),
                    e
                );
            }
        }
    }

    /// Overrides the worker count the measurement pool fans out to. The
    /// default comes from `EMOD_THREADS` (falling back to available
    /// parallelism); `1` runs every task inline on the caller thread.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Responses currently cached (including any loaded from a checkpoint).
    pub fn cached_response_count(&self) -> usize {
        self.responses.len()
    }

    /// The workload being measured.
    pub fn workload(&self) -> &'static Workload {
        self.workload
    }

    /// The input set in use.
    pub fn input_set(&self) -> InputSet {
        self.set
    }

    /// Number of actual (non-cached) simulations performed.
    pub fn measurement_count(&self) -> u64 {
        self.measurements
    }

    /// Total instructions retired across all actual simulations — the
    /// numerator of a campaign's aggregate Minst/s throughput.
    pub fn instructions_simulated(&self) -> u64 {
        self.instructions_simulated
    }

    /// Measures an arbitrary response metric at a raw 25-dimensional design
    /// point; see [`Measurer::try_measure_configs_metric`].
    ///
    /// # Errors
    ///
    /// Returns a [`MeasureError`] on simulator faults, miscompiles, caught
    /// panics, or injected faults.
    pub fn try_measure_metric(
        &mut self,
        point: &[f64],
        metric: Metric,
    ) -> Result<f64, MeasureError> {
        let (opt, uarch) = decode_point(point);
        self.try_measure_configs_metric(&opt, &uarch, metric)
    }

    /// Measures cycles for explicit configurations (used for speedup
    /// evaluations at settings outside the design).
    ///
    /// # Panics
    ///
    /// Panics on measurement failure; see
    /// [`Measurer::try_measure_configs_metric`].
    pub fn measure_configs(&mut self, opt: &OptConfig, uarch: &UarchConfig) -> u64 {
        self.try_measure_configs_metric(opt, uarch, Metric::Cycles)
            .unwrap_or_else(|e| panic!("{}: {}", self.workload.name(), e))
            .round() as u64
    }

    /// Measures an arbitrary metric for explicit configurations: a
    /// one-element batch with a single attempt, which the pool runs inline.
    /// Explicit-configuration measurements (the repro binary's -O2/-O3
    /// baselines) and design-point measurements share one response cache
    /// keyed by the canonical design values plus the metric, so the same
    /// configuration is never simulated twice.
    ///
    /// # Errors
    ///
    /// Returns a [`MeasureError`] on simulator faults, miscompiles, caught
    /// panics, or injected faults. Failed measurements are not cached, so a
    /// retry re-runs the simulation.
    pub fn try_measure_configs_metric(
        &mut self,
        opt: &OptConfig,
        uarch: &UarchConfig,
        metric: Metric,
    ) -> Result<f64, MeasureError> {
        let config = [(opt.clone(), uarch.clone())];
        self.try_measure_configs_metric_batch(&config, metric, &BatchRetry::single())
            .pop()
            .expect("one result per configuration")
    }

    /// Folds a fresh simulation into statistics, the response cache and the
    /// checkpoint.
    fn absorb_and_finish(&mut self, key: &[u64], raw: RawMeasurement, metric: Metric) -> f64 {
        let value = self.absorb(raw, metric);
        self.responses.insert(key.to_vec(), value.to_bits());
        if let Some(ck) = self.checkpoint.as_mut() {
            ck.record(key, value.to_bits());
        }
        value
    }

    /// Folds one raw (freshly simulated) measurement into the measurer's
    /// statistics and telemetry. Called in design order regardless of
    /// worker count, so `measurement_count` and the warning counter evolve
    /// identically at any worker count.
    fn absorb(&mut self, raw: RawMeasurement, metric: Metric) -> f64 {
        let Some(rel_error) = raw.rel_error else {
            return raw.value; // code-size read: no simulation happened
        };
        self.measurements += 1;
        self.instructions_simulated += raw.instructions;
        if let Some(pipe) = &raw.pipe {
            self.pipe_accum.merge(pipe);
            self.cpi_weight_sum += raw.cpi * pipe.dispatches as f64;
        }
        if rel_error > REL_ERROR_WARN_THRESHOLD {
            telemetry::counter_add("core.measure.rel_error_warnings", 1);
            telemetry::event(
                "core",
                "rel_error_warning",
                &[
                    ("workload", self.workload.name().into()),
                    ("rel_error", rel_error.into()),
                    ("threshold", REL_ERROR_WARN_THRESHOLD.into()),
                    ("windows", raw.windows.into()),
                ],
            );
        }
        if telemetry::enabled() {
            let minst_per_sec = raw.instructions as f64 / 1e6 / raw.wall_s.max(1e-9);
            telemetry::counter_add("core.measure.simulations", 1);
            telemetry::observe("core.measure.minst_per_sec", minst_per_sec);
            telemetry::gauge_set("core.measure.last_minst_per_sec", minst_per_sec);
            telemetry::event(
                "core",
                "measurement",
                &[
                    ("workload", self.workload.name().into()),
                    ("metric", metric.name().into()),
                    ("instructions", raw.instructions.into()),
                    ("rel_error", rel_error.into()),
                    ("wall_s", raw.wall_s.into()),
                    ("minst_per_sec", minst_per_sec.into()),
                ],
            );
        }
        raw.value
    }

    /// Measures a batch of raw design points; see
    /// [`Measurer::try_measure_configs_metric_batch`].
    ///
    /// # Errors
    ///
    /// Each slot carries the [`MeasureError`] of its point's final attempt;
    /// failed points are not cached.
    pub fn try_measure_metric_batch(
        &mut self,
        points: &[Vec<f64>],
        metric: Metric,
        retry: &BatchRetry,
    ) -> Vec<Result<f64, MeasureError>> {
        let configs: Vec<(OptConfig, UarchConfig)> =
            points.iter().map(|p| decode_point(p)).collect();
        self.try_measure_configs_metric_batch(&configs, metric, retry)
    }

    /// Infallible [`Measurer::try_measure_metric_batch`] with a single
    /// attempt per point.
    ///
    /// # Panics
    ///
    /// Panics on the first measurement failure (in design order).
    pub fn measure_metric_batch(&mut self, points: &[Vec<f64>], metric: Metric) -> Vec<f64> {
        self.try_measure_metric_batch(points, metric, &BatchRetry::single())
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{}: {}", self.workload.name(), e)))
            .collect()
    }

    /// Measures every `(opt, uarch)` pair, with `retry` attempts each. Every
    /// measurement, single-point or batch, takes this path; responses,
    /// cache contents, checkpoint bytes and measurer statistics are
    /// bit-identical at any worker count.
    ///
    /// Three phases keep that determinism: a plan on the caller thread
    /// resolves response-cache hits and repeats within the batch; the pool
    /// then compiles and simulates each remaining configuration as one task
    /// (inline when there is one task or one worker), retrying it under a
    /// backoff seed derived from its design index; finally results merge
    /// back on the caller thread in first-occurrence order, updating
    /// statistics, the response cache and the checkpoint.
    ///
    /// # Errors
    ///
    /// Each slot carries the [`MeasureError`] of its pair's final attempt;
    /// failed pairs are not cached.
    pub fn try_measure_configs_metric_batch(
        &mut self,
        configs: &[(OptConfig, UarchConfig)],
        metric: Metric,
        retry: &BatchRetry,
    ) -> Vec<Result<f64, MeasureError>> {
        // Phase 1 — plan (caller thread). Resolve cache hits and
        // deduplicate repeats within the batch; each configuration left
        // becomes one job.
        enum Plan {
            Ready(f64),
            Job(usize),
        }
        struct Job<'a> {
            orig_index: usize,
            key: Vec<u64>,
            opt: &'a OptConfig,
            uarch: &'a UarchConfig,
        }
        let mut plans = Vec::with_capacity(configs.len());
        let mut first_job: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut jobs: Vec<Job> = Vec::new();
        for (i, (opt, uarch)) in configs.iter().enumerate() {
            let mut key = quantize(&encode_point(opt, uarch));
            key.push(metric as u64);
            if let Some(&bits) = self.responses.get(&key) {
                telemetry::counter_add("core.measure.response_cache.hits", 1);
                plans.push(Plan::Ready(f64::from_bits(bits)));
            } else if let Some(&j) = first_job.get(&key) {
                telemetry::counter_add("core.measure.response_cache.hits", 1);
                plans.push(Plan::Job(j));
            } else {
                telemetry::counter_add("core.measure.response_cache.misses", 1);
                first_job.insert(key.clone(), jobs.len());
                plans.push(Plan::Job(jobs.len()));
                jobs.push(Job {
                    orig_index: i,
                    key,
                    opt,
                    uarch,
                });
            }
        }

        // Phase 2 — compile and simulate (pool). Each attempt runs behind
        // the `sim.run` fault probe and a panic guard; the probe sits inside
        // the guard so injected `panic` faults are caught exactly like
        // organic ones. Worker spans stitch into the caller's trace via its
        // captured context.
        let attempts = retry.attempts.max(1);
        let workload = self.workload;
        let set = self.set;
        let sample = self.sample;
        let parent = telemetry::current_context();
        let pool = emod_par::Pool::new(self.threads);
        let results: Vec<Result<RawMeasurement, MeasureError>> = pool.map_with(
            &jobs,
            |_worker| {
                parent
                    .as_ref()
                    .map(|ctx| telemetry::span_in("core.measure.worker", ctx))
            },
            |_span, _j, job| {
                faults::retry_with_backoff(
                    attempts,
                    retry.base,
                    retry.max,
                    retry.point_seed(job.orig_index),
                    |_attempt| {
                        faults::catch_panic(|| {
                            faults::inject("sim.run")
                                .map_err(|e| MeasureError::Injected(e.to_string()))?;
                            let program = {
                                let _span = telemetry::span("core.compile_binary");
                                workload
                                    .program(job.opt, set)
                                    .expect("bundled workloads compile at any valid setting")
                            };
                            simulate_one(workload, set, &program, job.uarch, &sample, metric)
                        })
                        .unwrap_or_else(|panic_msg| Err(MeasureError::Panicked(panic_msg)))
                    },
                )
            },
        );

        // Phase 3 — merge (caller thread). Jobs were created in
        // first-occurrence order, so absorbing them in job order updates
        // statistics, the response cache and the checkpoint in design
        // order at any worker count.
        let job_values: Vec<Result<f64, MeasureError>> = jobs
            .iter()
            .zip(results)
            .map(|(job, result)| result.map(|raw| self.absorb_and_finish(&job.key, raw, metric)))
            .collect();
        plans
            .into_iter()
            .map(|plan| match plan {
                Plan::Ready(v) => Ok(v),
                Plan::Job(j) => job_values[j].clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::{design_space, encode_point};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_sample() -> SampleConfig {
        SampleConfig {
            window: 500,
            interval: 100,
            warmup: 1000,
            fuel: u64::MAX,
        }
    }

    #[test]
    fn measures_and_caches() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut m = Measurer::new(w, InputSet::Train, fast_sample());
        let p = encode_point(&OptConfig::o2(), &UarchConfig::typical());
        let c1 = m.try_measure_metric(&p, Metric::Cycles).unwrap();
        let c2 = m.try_measure_metric(&p, Metric::Cycles).unwrap();
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(m.measurement_count(), 1, "second call must hit the cache");
        assert!(c1 > 100_000.0, "cycles {}", c1);
    }

    #[test]
    fn different_flags_different_binaries_same_checksum() {
        let w = Workload::by_name("gzip").unwrap();
        let mut m = Measurer::new(w, InputSet::Train, fast_sample());
        let space = design_space();
        let mut rng = StdRng::seed_from_u64(2);
        // A few random points: the checksum check inside every measurement
        // validates semantic equivalence on each one.
        let points: Vec<Vec<f64>> = (0..3).map(|_| space.random_point(&mut rng)).collect();
        let _ = m.measure_metric_batch(&points, Metric::Cycles);
        assert_eq!(m.measurement_count(), 3);
    }

    #[test]
    fn explicit_config_measurements_hit_the_response_cache() {
        // Explicit-configuration measurements used to bypass the response
        // cache entirely, so every -O2/-O3 baseline in the repro
        // experiments re-simulated.
        let w = Workload::by_name("bzip2").unwrap();
        let mut m = Measurer::new(w, InputSet::Train, fast_sample());
        let opt = OptConfig::o2();
        let uarch = UarchConfig::typical();
        let c1 = m.measure_configs(&opt, &uarch);
        let c2 = m.measure_configs(&opt, &uarch);
        assert_eq!(c1, c2);
        assert_eq!(
            m.measurement_count(),
            1,
            "repeated explicit-config measurement must hit the cache"
        );
        // The raw-point path resolves to the same canonical key: still no
        // second simulation.
        let _ = m.try_measure_metric(&encode_point(&opt, &uarch), Metric::Cycles);
        assert_eq!(m.measurement_count(), 1);
    }

    #[test]
    fn metrics_do_not_collide_in_the_response_cache() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut m = Measurer::new(w, InputSet::Train, fast_sample());
        let p = encode_point(&OptConfig::o2(), &UarchConfig::typical());
        let mut measure = |metric| m.try_measure_metric(&p, metric).unwrap();
        let cycles = measure(Metric::Cycles);
        let energy = measure(Metric::Energy);
        assert_ne!(
            cycles, energy,
            "energy must not read the cycles cache entry"
        );
        // Each metric re-reads its own entry.
        assert_eq!(measure(Metric::Cycles), cycles);
        assert_eq!(measure(Metric::Energy), energy);
        assert_eq!(m.measurement_count(), 2, "one simulation per metric");
    }

    #[test]
    fn code_size_is_not_a_simulation() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut m = Measurer::new(w, InputSet::Train, fast_sample());
        let p = encode_point(&OptConfig::o2(), &UarchConfig::typical());
        let size = m.try_measure_metric(&p, Metric::CodeSize).unwrap();
        assert!(size > 0.0);
        assert_eq!(
            m.measurement_count(),
            0,
            "code size reads the binary, not the simulator"
        );
        assert_eq!(m.instructions_simulated(), 0);
        assert_eq!(m.try_measure_metric(&p, Metric::CodeSize).unwrap(), size);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("emod-measure-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = Workload::by_name("bzip2").unwrap();
        let points = [
            encode_point(&OptConfig::o2(), &UarchConfig::typical()),
            encode_point(&OptConfig::o3(), &UarchConfig::constrained()),
            encode_point(&OptConfig::o0(), &UarchConfig::aggressive()),
        ];
        let mut first = Measurer::new(w, InputSet::Train, fast_sample());
        first.attach_checkpoint(&dir);
        let cold: Vec<f64> = points
            .iter()
            .map(|p| first.try_measure_metric(p, Metric::Cycles).unwrap())
            .collect();
        assert_eq!(first.measurement_count(), 3);
        drop(first);
        // A fresh measurer over the same checkpoint replays the responses
        // without simulating, bit-for-bit.
        let mut resumed = Measurer::new(w, InputSet::Train, fast_sample());
        resumed.attach_checkpoint(&dir);
        assert_eq!(resumed.cached_response_count(), 3);
        for (p, want) in points.iter().zip(&cold) {
            let got = resumed.try_measure_metric(p, Metric::Cycles).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "resume must be bit-identical"
            );
        }
        assert_eq!(resumed.measurement_count(), 0, "no re-simulation on resume");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tiered_checkpoint_lines_are_remeasured_not_replayed() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("emod-measure-tiered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = Workload::by_name("bzip2").unwrap();
        let a = encode_point(&OptConfig::o2(), &UarchConfig::typical());
        let b = encode_point(&OptConfig::o3(), &UarchConfig::constrained());
        let key = |p: &[f64]| {
            let mut k = quantize(p);
            k.push(Metric::Cycles as u64);
            k.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        };
        // A file under this sampling plan's header holding one legacy entry
        // for A and one surrogate (`"tier":0`) entry for B, written by an
        // older build. Both values are deliberately wrong.
        let (ck, _) = Checkpoint::open(&dir, w.name(), "train", &fast_sample()).unwrap();
        let path = ck.path().to_path_buf();
        drop(ck);
        let wrong = 12_345.0f64;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "{{\"key\":[{}],\"bits\":{}}}", key(&a), wrong.to_bits()).unwrap();
        writeln!(
            f,
            "{{\"key\":[{}],\"bits\":{},\"tier\":0}}",
            key(&b),
            wrong.to_bits()
        )
        .unwrap();
        drop(f);

        let mut m = Measurer::new(w, InputSet::Train, fast_sample());
        m.attach_checkpoint(&dir);
        assert_eq!(m.cached_response_count(), 1, "only the legacy line loads");
        assert_eq!(
            m.try_measure_metric(&a, Metric::Cycles).unwrap(),
            wrong,
            "a legacy entry still resumes as stored"
        );
        let truth = Measurer::new(w, InputSet::Train, fast_sample())
            .try_measure_metric(&b, Metric::Cycles)
            .unwrap();
        assert_eq!(
            m.try_measure_metric(&b, Metric::Cycles).unwrap().to_bits(),
            truth.to_bits(),
            "a surrogate entry must be re-simulated, not replayed"
        );
        assert_eq!(m.measurement_count(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn constrained_machine_is_slower_than_aggressive() {
        let w = Workload::by_name("mcf").unwrap();
        let mut m = Measurer::new(w, InputSet::Train, fast_sample());
        let slow = m.measure_configs(&OptConfig::o2(), &UarchConfig::constrained());
        let fast = m.measure_configs(&OptConfig::o2(), &UarchConfig::aggressive());
        assert!(
            slow as f64 > fast as f64 * 1.15,
            "constrained {} vs aggressive {}",
            slow,
            fast
        );
    }
}
