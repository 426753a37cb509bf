//! The iterative model-building loop of the paper's Figure 1.
//!
//! Failure policy (DESIGN.md §10): each design-point measurement is retried
//! with exponential backoff (`EMOD_MEASURE_RETRIES`, default 2 retries)
//! and a point that keeps failing is **quarantined** — dropped from the
//! design with a telemetry event — so one poison point cannot abort a
//! campaign of hundreds.

use crate::measure::{BatchRetry, Measurer, Metric};
use crate::model::{ModelFamily, SurrogateModel};
use crate::vars::design_space;
use emod_doe::{lhs, DOptimal, DesignPoint, ModelSpec, ParameterSpace};
use emod_models::{metrics, Dataset, ModelError, Regressor};
use emod_telemetry as telemetry;
use emod_uarch::SampleConfig;
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Environment variable: retries per failing design-point measurement
/// before the point is quarantined (default 2).
pub const MEASURE_RETRIES_ENV: &str = "EMOD_MEASURE_RETRIES";

/// Model-building parameters: design sizes, iteration policy, sampling.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Initial training-design size (the paper conservatively used 400).
    pub train_size: usize,
    /// Independently generated test-design size (the paper used 100).
    pub test_size: usize,
    /// Candidate-set size for D-optimal selection.
    pub candidates: usize,
    /// Stop once test MAPE falls below this threshold (percent), if set.
    pub target_mape: Option<f64>,
    /// Extra points added per augmentation round (Figure 1's "collect more
    /// data" loop).
    pub augment_step: usize,
    /// Maximum augmentation rounds.
    pub max_rounds: usize,
    /// SMARTS sampling parameters for each measurement.
    pub sample: SampleConfig,
    /// RNG seed (designs and the GA are deterministic given the seed).
    pub seed: u64,
    /// The response variable to model (paper §2.2 allows metrics beyond
    /// execution time).
    pub metric: Metric,
}

impl BuildConfig {
    /// The paper's scale: 400 training points, 100 test points. The
    /// sampling interval is denser than the paper's 1-in-1000 because the
    /// synthetic workloads retire millions rather than billions of
    /// instructions. At 1-in-20 the error against fully detailed
    /// simulation has a median of 0.54% but reaches 6.4% at some points
    /// (DESIGN.md §2).
    pub fn paper(seed: u64) -> Self {
        BuildConfig {
            train_size: 400,
            test_size: 100,
            candidates: 2000,
            target_mape: None,
            augment_step: 50,
            max_rounds: 0,
            sample: SampleConfig {
                window: 1000,
                interval: 20,
                warmup: 2000,
                fuel: u64::MAX,
            },
            seed,
            metric: Metric::Cycles,
        }
    }

    /// Laptop scale: enough points for the paper's qualitative shape at a
    /// small fraction of the simulation cost.
    pub fn reduced(seed: u64) -> Self {
        BuildConfig {
            train_size: 110,
            test_size: 40,
            candidates: 700,
            target_mape: None,
            augment_step: 25,
            max_rounds: 0,
            sample: SampleConfig {
                window: 1000,
                interval: 20,
                warmup: 2000,
                fuel: u64::MAX,
            },
            seed,
            metric: Metric::Cycles,
        }
    }

    /// Smoke-test scale for unit tests and doc examples.
    pub fn quick(seed: u64) -> Self {
        BuildConfig {
            train_size: 30,
            test_size: 12,
            candidates: 200,
            target_mape: None,
            augment_step: 10,
            max_rounds: 0,
            sample: SampleConfig {
                window: 1000,
                interval: 40,
                warmup: 1500,
                fuel: u64::MAX,
            },
            seed,
            metric: Metric::Cycles,
        }
    }
}

/// A model built for one program/input pair, with its designs and accuracy.
#[derive(Debug)]
pub struct BuiltModel {
    /// The fitted surrogate.
    pub model: SurrogateModel,
    /// The parameter space (coded ↔ raw mapping).
    pub space: ParameterSpace,
    /// Training data (coded points, cycle responses).
    pub train: Dataset,
    /// Held-out test data.
    pub test: Dataset,
    /// Average percentage prediction error on the test design — the paper's
    /// Table 3 metric.
    pub test_mape: f64,
    /// `(training size, test MAPE)` after each round, for Figure 5-style
    /// learning curves.
    pub history: Vec<(usize, f64)>,
    /// Name of the workload modeled.
    pub workload: &'static str,
}

impl BuiltModel {
    /// Predicted cycles at a *raw* design point.
    pub fn predict_raw(&self, point: &[f64]) -> f64 {
        self.model.predict(&self.space.encode(point))
    }
}

/// Builds empirical models for one workload/input pair (Figure 1):
/// candidates → D-optimal design → measure → fit → test-error estimate →
/// augment until the accuracy target or round budget is reached.
pub struct ModelBuilder {
    measurer: Measurer,
    config: BuildConfig,
    space: ParameterSpace,
    /// Cached measured designs so multiple families reuse the same data
    /// (exactly how the paper compares the three techniques).
    train_points: Vec<DesignPoint>,
    test_points: Vec<DesignPoint>,
    /// Retries per failing measurement before quarantining the point.
    measure_retries: u32,
    /// Design points dropped after exhausting their retries.
    quarantined_points: Vec<DesignPoint>,
}

impl std::fmt::Debug for ModelBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBuilder")
            .field("measurer", &self.measurer)
            .field("train_points", &self.train_points.len())
            .finish()
    }
}

impl ModelBuilder {
    /// Creates a builder for `workload` on `set`. The per-point retry
    /// budget comes from `EMOD_MEASURE_RETRIES` (default 2).
    pub fn new(workload: &'static Workload, set: InputSet, config: BuildConfig) -> Self {
        let measure_retries = std::env::var(MEASURE_RETRIES_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok())
            .unwrap_or(2);
        ModelBuilder {
            measurer: Measurer::new(workload, set, config.sample),
            space: design_space(),
            config,
            train_points: Vec::new(),
            test_points: Vec::new(),
            measure_retries,
            quarantined_points: Vec::new(),
        }
    }

    /// Overrides the per-point retry budget (tests; production uses
    /// `EMOD_MEASURE_RETRIES`).
    pub fn with_measure_retries(mut self, retries: u32) -> Self {
        self.measure_retries = retries;
        self
    }

    /// Overrides the measurement worker count (tests; production uses
    /// `EMOD_THREADS`). `1` reproduces the sequential execution order.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.measurer.set_threads(threads);
        self
    }

    /// Design points quarantined so far (dropped after exhausting their
    /// retries).
    pub fn quarantined_points(&self) -> &[DesignPoint] {
        &self.quarantined_points
    }

    /// The design space in use.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Mutable access to the measurer (e.g. for baseline measurements that
    /// should share the response cache).
    pub fn measurer_mut(&mut self) -> &mut Measurer {
        &mut self.measurer
    }

    /// Generates (once) the D-optimal training design and the independent
    /// test design.
    fn ensure_designs(&mut self) {
        if !self.train_points.is_empty() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let candidates = lhs(&self.space, self.config.candidates, &mut rng);
        let dopt = DOptimal::new(&self.space, ModelSpec::main_effects());
        self.train_points = dopt.select(&candidates, self.config.train_size, &mut rng);
        // Independent test design: fresh LHS sample (the paper's
        // "independently generated test data set").
        self.test_points = lhs(&self.space, self.config.test_size, &mut rng);
    }

    /// Measures every point — fanned across `EMOD_THREADS` workers via the
    /// measurer's deterministic batch path — retrying failures with backoff
    /// and quarantining points that exhaust their retries. Returns the
    /// dataset of surviving points plus the indices (into `points`) that
    /// were dropped, so callers can prune their design.
    fn measured_dataset(&mut self, points: &[DesignPoint]) -> (Dataset, Vec<usize>) {
        let metric = self.config.metric;
        let attempts = 1 + self.measure_retries;
        let retry = BatchRetry::campaign(self.measure_retries, self.config.seed);
        let outcomes = self
            .measurer
            .try_measure_metric_batch(points, metric, &retry);
        let mut xs = Vec::with_capacity(points.len());
        let mut ys = Vec::with_capacity(points.len());
        let mut dropped = Vec::new();
        for (i, (p, outcome)) in points.iter().zip(outcomes).enumerate() {
            match outcome {
                Ok(y) => {
                    xs.push(self.space.encode(p));
                    ys.push(y);
                }
                Err(e) => {
                    dropped.push(i);
                    self.quarantined_points.push(p.clone());
                    telemetry::counter_add("core.measure.points_quarantined", 1);
                    telemetry::event(
                        "core",
                        "point_quarantined",
                        &[
                            ("workload", self.measurer.workload().name().into()),
                            ("point_index", i.into()),
                            ("attempts", attempts.into()),
                            ("error", e.to_string().as_str().into()),
                        ],
                    );
                    eprintln!(
                        "emod-core: {}: design point {} quarantined after {} attempt(s): {}",
                        self.measurer.workload().name(),
                        i,
                        attempts,
                        e
                    );
                }
            }
        }
        let data = Dataset::new(xs, ys)
            .expect("surviving design points form a well-formed dataset (all quarantined?)");
        (data, dropped)
    }

    /// Removes the points at `dropped` indices (indices into the design as
    /// it was when measured) from a design.
    fn prune(points: &mut Vec<DesignPoint>, dropped: &[usize]) {
        if dropped.is_empty() {
            return;
        }
        let dropped: std::collections::HashSet<usize> = dropped.iter().copied().collect();
        let mut i = 0;
        points.retain(|_| {
            let keep = !dropped.contains(&i);
            i += 1;
            keep
        });
    }

    /// Builds a model of `family`, running the Figure 1 loop.
    ///
    /// # Errors
    ///
    /// Propagates model-fitting failures.
    pub fn build(&mut self, family: ModelFamily) -> Result<BuiltModel, ModelError> {
        let _span = telemetry::span("builder.build");
        self.ensure_designs();
        let test_points = self.test_points.clone();
        let (test, dropped) = self.measured_dataset(&test_points);
        Self::prune(&mut self.test_points, &dropped);
        let mut history = Vec::new();
        let mut round = 0;
        loop {
            let train_points = self.train_points.clone();
            let (train, dropped) = self.measured_dataset(&train_points);
            Self::prune(&mut self.train_points, &dropped);
            let fit_start = std::time::Instant::now();
            let model = {
                let _fit_span = telemetry::span("builder.fit");
                SurrogateModel::fit(&train, family)?
            };
            let fit_s = fit_start.elapsed().as_secs_f64();
            let preds = model.predict_batch(test.points());
            let mape = metrics::mape(&preds, test.responses());
            history.push((train.len(), mape));
            self.record_round(family, round, &train, &test, mape, fit_s, &model);
            let accurate = self.config.target_mape.is_none_or(|target| mape <= target);
            if accurate || round >= self.config.max_rounds {
                return Ok(BuiltModel {
                    model,
                    space: self.space.clone(),
                    train,
                    test,
                    test_mape: mape,
                    history,
                    workload: self.measurer.workload().name(),
                });
            }
            // Figure 1: "collect more data" — augment the D-optimal design.
            round += 1;
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(round as u64));
            let candidates = lhs(&self.space, self.config.candidates, &mut rng);
            let dopt = DOptimal::new(&self.space, ModelSpec::main_effects());
            self.train_points =
                dopt.augment(&self.train_points, &candidates, self.config.augment_step);
        }
    }

    /// Records one model-building round: the Figure 1 trajectory row
    /// (design size → train/test MAPE → fit time) plus a `core`/`builder_round`
    /// event.
    #[allow(clippy::too_many_arguments)]
    fn record_round(
        &self,
        family: ModelFamily,
        round: usize,
        train: &Dataset,
        test: &Dataset,
        test_mape: f64,
        fit_s: f64,
        model: &SurrogateModel,
    ) {
        if !telemetry::enabled() {
            return;
        }
        let train_preds = model.predict_batch(train.points());
        let train_mape = metrics::mape(&train_preds, train.responses());
        let workload = self.measurer.workload().name();
        let shares = self.measurer.cpi_stack().shares();
        telemetry::counter_add("core.builder.rounds", 1);
        telemetry::table_push(
            "builder.rounds",
            format!(
                "{:<22} {:<8} round {}  train n={:<4} train MAPE {:>6.2}%  test n={:<4} test MAPE {:>6.2}%  fit {:.3}s  stalls f/w/e {:.0}/{:.0}/{:.0}%",
                workload,
                family.name(),
                round,
                train.len(),
                train_mape,
                test.len(),
                test_mape,
                fit_s,
                shares.fetch * 100.0,
                shares.window * 100.0,
                shares.exec * 100.0
            ),
        );
        telemetry::event(
            "core",
            "builder_round",
            &[
                ("workload", workload.into()),
                ("family", family.name().into()),
                ("round", round.into()),
                ("train_size", train.len().into()),
                ("train_mape", train_mape.into()),
                ("test_size", test.len().into()),
                ("test_mape", test_mape.into()),
                ("fit_s", fit_s.into()),
                ("stall_fetch_share", shares.fetch.into()),
                ("stall_window_share", shares.window.into()),
                ("stall_exec_share", shares.exec.into()),
            ],
        );
    }

    /// Builds a model on exactly the first `n` training points (after
    /// measuring the full design once) — the Figure 5 learning-curve
    /// experiment.
    ///
    /// # Errors
    ///
    /// Propagates model-fitting failures.
    pub fn build_with_train_subset(
        &mut self,
        family: ModelFamily,
        n: usize,
    ) -> Result<(SurrogateModel, f64), ModelError> {
        self.ensure_designs();
        let test_points = self.test_points.clone();
        let (test, dropped) = self.measured_dataset(&test_points);
        Self::prune(&mut self.test_points, &dropped);
        let train_points: Vec<DesignPoint> = self.train_points.iter().take(n).cloned().collect();
        let (train, dropped) = self.measured_dataset(&train_points);
        Self::prune(&mut self.train_points, &dropped);
        let model = SurrogateModel::fit(&train, family)?;
        let preds = model.predict_batch(test.points());
        let mape = metrics::mape(&preds, test.responses());
        Ok((model, mape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_quick_rbf_model_for_one_workload() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut b = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(17));
        let built = b.build(ModelFamily::Rbf).unwrap();
        assert_eq!(built.train.len(), 30);
        assert_eq!(built.test.len(), 12);
        assert!(built.test_mape.is_finite());
        // Even a quick model should be far better than chance on a smooth
        // response (cycles vary ~5x over the space; a useless model would
        // show >50% error).
        assert!(
            built.test_mape < 60.0,
            "test MAPE {:.1}% looks broken",
            built.test_mape
        );
        // Predictions at raw points are positive cycle counts.
        let p = built.predict_raw(&crate::vars::encode_point(
            &emod_compiler::OptConfig::o2(),
            &emod_uarch::UarchConfig::typical(),
        ));
        assert!(p > 0.0);
    }

    #[test]
    fn families_share_measured_designs() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut b = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(5));
        let _rbf = b.build(ModelFamily::Rbf).unwrap();
        let count_after_first = b.measurer.measurement_count();
        let _lin = b.build(ModelFamily::Linear).unwrap();
        assert_eq!(
            b.measurer.measurement_count(),
            count_after_first,
            "second family must reuse cached responses"
        );
    }

    #[test]
    fn augmentation_rounds_grow_the_design() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut cfg = BuildConfig::quick(11);
        cfg.target_mape = Some(0.0); // unreachable: forces max_rounds
        cfg.max_rounds = 1;
        cfg.augment_step = 5;
        let mut b = ModelBuilder::new(w, InputSet::Train, cfg);
        let built = b.build(ModelFamily::Rbf).unwrap();
        assert_eq!(built.history.len(), 2);
        assert_eq!(built.history[0].0, 30);
        assert_eq!(built.history[1].0, 35);
    }

    #[test]
    fn subset_builds_use_prefixes() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut b = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(7));
        let (_, mape_small) = b.build_with_train_subset(ModelFamily::Rbf, 10).unwrap();
        let (_, mape_full) = b.build_with_train_subset(ModelFamily::Rbf, 30).unwrap();
        assert!(mape_small.is_finite() && mape_full.is_finite());
    }
}
