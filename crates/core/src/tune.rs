//! Model-based search for platform-specific optimization settings
//! (paper §6.3): freeze the microarchitectural parameters at a platform's
//! configuration, then run a genetic algorithm over the compiler flags and
//! heuristics, using the empirical model as a zero-cost performance oracle.

use crate::builder::BuiltModel;
use crate::measure::Measurer;
use crate::vars::{COMPILER_PARAMS, UARCH_PARAMS};
use emod_compiler::OptConfig;
use emod_doe::ParameterSpace;
use emod_models::Regressor;
use emod_search::GaConfig;
use emod_uarch::UarchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three reference platforms of the paper's Table 5.
pub fn reference_configs() -> [(&'static str, UarchConfig); 3] {
    [
        ("constrained", UarchConfig::constrained()),
        ("typical", UarchConfig::typical()),
        ("aggressive", UarchConfig::aggressive()),
    ]
}

/// Result of a model-based flag search.
#[derive(Debug, Clone)]
pub struct TunedSettings {
    /// The prescribed compiler configuration.
    pub config: OptConfig,
    /// The full raw design point (flags + frozen machine).
    pub point: Vec<f64>,
    /// Model-predicted cycles at the chosen settings.
    pub predicted_cycles: f64,
    /// Number of model evaluations the GA spent.
    pub evaluations: usize,
}

/// Searches for the best flag/heuristic settings for `platform` using the
/// model as the objective (the paper's GA: random initial population,
/// fitness = predicted performance, crossover + mutation, elitism).
pub fn search_flags(built: &BuiltModel, platform: &UarchConfig, seed: u64) -> TunedSettings {
    search_flags_surrogate(&built.space, &built.model, platform, seed)
}

/// [`search_flags`] for a standalone surrogate (e.g. a model loaded back
/// from a persisted artifact, where no [`BuiltModel`] exists): freezes the
/// machine half of `space` at `platform` and GA-searches the compiler half
/// against `model`'s predictions.
pub fn search_flags_surrogate(
    space: &ParameterSpace,
    model: &dyn Regressor,
    platform: &UarchConfig,
    seed: u64,
) -> TunedSettings {
    let machine_values = platform.to_design_values();
    let frozen: Vec<(&str, f64)> = space.parameters()[COMPILER_PARAMS..]
        .iter()
        .zip(machine_values.iter())
        .map(|(p, &v)| (p.name(), v))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let result = emod_search::tune_surrogate(
        space,
        model,
        &frozen,
        GaConfig {
            population: 60,
            generations: 40,
            tournament: 3,
            mutation_rate: 0.08,
            elitism: 2,
        },
        &mut rng,
    );
    debug_assert_eq!(result.point.len(), COMPILER_PARAMS + UARCH_PARAMS);
    TunedSettings {
        config: OptConfig::from_design_values(&result.point[..COMPILER_PARAMS]),
        point: result.point,
        predicted_cycles: result.value,
        evaluations: result.evaluations,
    }
}

/// Speedups of tuned settings over a baseline, both predicted by the model
/// and actually measured on the simulator — the paper's Figure 7 pairs.
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// Baseline (`-O2`) measured cycles.
    pub baseline_cycles: u64,
    /// Measured cycles at the tuned settings.
    pub tuned_cycles: u64,
    /// Model-predicted cycles at the tuned settings.
    pub predicted_tuned_cycles: f64,
    /// Measured speedup over the baseline, in percent.
    pub actual_speedup_pct: f64,
    /// Model-predicted speedup over the baseline, in percent.
    pub predicted_speedup_pct: f64,
}

/// Evaluates `tuned` against a baseline compiler setting on `platform`,
/// measuring true cycles with the supplied measurer.
pub fn evaluate_speedup(
    measurer: &mut Measurer,
    tuned: &TunedSettings,
    baseline: &OptConfig,
    platform: &UarchConfig,
) -> SpeedupReport {
    let baseline_cycles = measurer.measure_configs(baseline, platform);
    let tuned_cycles = measurer.measure_configs(&tuned.config, platform);
    let actual = 100.0 * (baseline_cycles as f64 / tuned_cycles as f64 - 1.0);
    let predicted = 100.0 * (baseline_cycles as f64 / tuned.predicted_cycles - 1.0);
    SpeedupReport {
        baseline_cycles,
        tuned_cycles,
        predicted_tuned_cycles: tuned.predicted_cycles,
        actual_speedup_pct: actual,
        predicted_speedup_pct: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildConfig, ModelBuilder};
    use crate::model::ModelFamily;
    use emod_workloads::{InputSet, Workload};

    #[test]
    fn search_freezes_machine_and_returns_valid_flags() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut b = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(21));
        let built = b.build(ModelFamily::Rbf).unwrap();
        let platform = UarchConfig::typical();
        let tuned = search_flags(&built, &platform, 21);
        // The machine half of the returned point equals the platform.
        let machine = &tuned.point[COMPILER_PARAMS..];
        assert_eq!(machine, platform.to_design_values().as_slice());
        // The compiler half decodes to a valid configuration.
        tuned.config.validate().unwrap();
        assert!(tuned.predicted_cycles > 0.0);
        assert!(tuned.evaluations > 1000);
    }

    #[test]
    fn tuned_settings_not_worse_than_o2_by_model() {
        // The GA optimum must be at least as good (by the model) as the
        // model's prediction at -O2 — the GA explores a superset.
        let w = Workload::by_name("bzip2").unwrap();
        let mut b = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(33));
        let built = b.build(ModelFamily::Rbf).unwrap();
        let platform = UarchConfig::typical();
        let tuned = search_flags(&built, &platform, 33);
        let o2_point = crate::vars::encode_point(&emod_compiler::OptConfig::o2(), &platform);
        // Same clamp as the GA objective: tiny smoke-scale models can
        // extrapolate below zero.
        let o2_pred = built.predict_raw(&o2_point).max(1.0);
        assert!(
            tuned.predicted_cycles <= o2_pred + 1e-6,
            "GA {} worse than O2 {}",
            tuned.predicted_cycles,
            o2_pred
        );
    }

    #[test]
    fn evaluate_speedup_computes_consistent_percentages() {
        let w = Workload::by_name("bzip2").unwrap();
        let mut b = ModelBuilder::new(w, InputSet::Train, BuildConfig::quick(55));
        let built = b.build(ModelFamily::Rbf).unwrap();
        let platform = UarchConfig::typical();
        let tuned = search_flags(&built, &platform, 55);
        let report = evaluate_speedup(b.measurer_mut(), &tuned, &OptConfig::o2(), &platform);
        assert!(report.baseline_cycles > 0 && report.tuned_cycles > 0);
        let recomputed = 100.0 * (report.baseline_cycles as f64 / report.tuned_cycles as f64 - 1.0);
        assert!((recomputed - report.actual_speedup_pct).abs() < 1e-9);
    }

    #[test]
    fn reference_configs_match_table5() {
        let configs = reference_configs();
        assert_eq!(configs[0].0, "constrained");
        assert_eq!(configs[1].1.ruu_size, 64);
        assert_eq!(configs[2].1.mem_latency, 150);
    }
}
