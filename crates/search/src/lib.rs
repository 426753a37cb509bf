//! Model-guided design-space search (paper §6.3).
//!
//! Once an empirical model can predict performance "at virtually no
//! computation cost", the remaining problem is optimization over the
//! (combinatorial) space of flag and heuristic settings. The paper uses a
//! genetic algorithm; this crate implements it — [`GeneticSearch`] — along
//! with [`random_search`] and [`hill_climb`] baselines for ablation.
//!
//! The objective is supplied as a closure over *raw* design points, with a
//! fixed-parameter mask so microarchitectural parameters can be frozen while
//! the GA "explores the rest of the design space".
//!
//! # Examples
//!
//! ```
//! use emod_doe::{Parameter, ParameterSpace};
//! use emod_search::{GaConfig, GeneticSearch};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Minimize a simple separable objective over two flags and a threshold.
//! let space = ParameterSpace::new(vec![
//!     Parameter::flag("inline"),
//!     Parameter::flag("unroll"),
//!     Parameter::discrete("max-unroll-times", 4.0, 12.0, 9),
//! ]);
//! let mut rng = StdRng::seed_from_u64(42);
//! let best = GeneticSearch::new(&space, GaConfig::default())
//!     .run(|p| (p[0] - 1.0).abs() + p[1] + (p[2] - 8.0).abs(), &mut rng);
//! assert_eq!(best.point, vec![1.0, 0.0, 8.0]);
//! ```

#![warn(missing_docs)]

use emod_doe::{DesignPoint, ParameterSpace};
use emod_telemetry as telemetry;
use rand::Rng;

/// Result of a search: the best point found and its objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best raw design point.
    pub point: DesignPoint,
    /// Objective value at `point` (lower is better).
    pub value: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
}

/// Configuration for [`GeneticSearch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size per generation.
    pub population: usize,
    /// Number of generations before reporting the best point found.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-gene mutation probability (gene resampled from its levels).
    pub mutation_rate: f64,
    /// Number of elite individuals copied unchanged each generation.
    pub elitism: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 40,
            generations: 30,
            tournament: 3,
            mutation_rate: 0.08,
            elitism: 2,
        }
    }
}

/// Generational genetic algorithm over a [`ParameterSpace`].
///
/// Follows the paper's description: "The GA starts with an initial, randomly
/// generated population of optimization flags and heuristic settings … uses
/// the empirical model to predict performance at all design points in the
/// population … eliminates 'unfit' design points … then uses the usual
/// crossover and mutation operators to create a new generation."
///
/// Parameters can be *frozen* to a fixed value ([`GeneticSearch::freeze`]) —
/// the paper freezes the 11 microarchitectural parameters and searches the
/// 14 compiler parameters.
#[derive(Debug, Clone)]
pub struct GeneticSearch {
    space: ParameterSpace,
    config: GaConfig,
    frozen: Vec<Option<f64>>,
}

impl GeneticSearch {
    /// Creates a search over `space`.
    pub fn new(space: &ParameterSpace, config: GaConfig) -> Self {
        GeneticSearch {
            frozen: vec![None; space.len()],
            space: space.clone(),
            config,
        }
    }

    /// Freezes parameter `name` at `value` for the whole search.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the space or `value` is not one of the
    /// parameter's levels.
    pub fn freeze(mut self, name: &str, value: f64) -> Self {
        let idx = self
            .space
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown parameter {}", name));
        assert!(
            self.space.parameters()[idx].is_valid(value),
            "{} is not a level of {}",
            value,
            name
        );
        self.frozen[idx] = Some(value);
        self
    }

    fn clamp_frozen(&self, point: &mut DesignPoint) {
        for (v, f) in point.iter_mut().zip(&self.frozen) {
            if let Some(fv) = f {
                *v = *fv;
            }
        }
    }

    fn random_individual<R: Rng + ?Sized>(&self, rng: &mut R) -> DesignPoint {
        let mut p = self.space.random_point(rng);
        self.clamp_frozen(&mut p);
        p
    }

    /// Runs the GA, minimizing `objective`. Returns the best point seen at
    /// any time during the run (not merely the final generation).
    pub fn run<R, F>(&self, mut objective: F, rng: &mut R) -> SearchResult
    where
        R: Rng + ?Sized,
        F: FnMut(&[f64]) -> f64,
    {
        let _span = telemetry::span("search.ga");
        let cfg = self.config;
        let mut evaluations = 0usize;
        let mut population: Vec<DesignPoint> = (0..cfg.population.max(2))
            .map(|_| self.random_individual(rng))
            .collect();
        let mut best: Option<(DesignPoint, f64)> = None;

        for gen in 0..cfg.generations {
            let _gen_span = telemetry::span("generation");
            let fitness: Vec<f64> = population.iter().map(|p| objective(p)).collect();
            evaluations += fitness.len();
            // Track the global best.
            for (p, &f) in population.iter().zip(&fitness) {
                if best.as_ref().is_none_or(|(_, bf)| f < *bf) {
                    best = Some((p.clone(), f));
                }
            }
            record_generation(gen, &fitness, best.as_ref().map(|(_, v)| *v));
            // Elitism: carry the best individuals over unchanged.
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));
            let mut next: Vec<DesignPoint> = order
                .iter()
                .take(cfg.elitism.min(population.len()))
                .map(|&i| population[i].clone())
                .collect();
            // Fill the rest by tournament selection + uniform crossover +
            // per-gene mutation.
            while next.len() < population.len() {
                let a = self.tournament_pick(&population, &fitness, rng);
                let b = self.tournament_pick(&population, &fitness, rng);
                let mut child: DesignPoint = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
                    .collect();
                for (i, param) in self.space.parameters().iter().enumerate() {
                    if self.frozen[i].is_none() && rng.gen::<f64>() < cfg.mutation_rate {
                        let levels = param.levels();
                        child[i] = levels[rng.gen_range(0..levels.len())];
                    }
                }
                self.clamp_frozen(&mut child);
                next.push(child);
            }
            population = next;
        }
        // Score the final generation too.
        let fitness: Vec<f64> = population.iter().map(|p| objective(p)).collect();
        evaluations += fitness.len();
        for (p, &f) in population.iter().zip(&fitness) {
            if best.as_ref().is_none_or(|(_, bf)| f < *bf) {
                best = Some((p.clone(), f));
            }
        }
        let (point, value) = best.expect("population is non-empty");
        SearchResult {
            point,
            value,
            evaluations,
        }
    }

    fn tournament_pick<'a, R: Rng + ?Sized>(
        &self,
        population: &'a [DesignPoint],
        fitness: &[f64],
        rng: &mut R,
    ) -> &'a DesignPoint {
        let mut best = rng.gen_range(0..population.len());
        for _ in 1..self.config.tournament.max(1) {
            let c = rng.gen_range(0..population.len());
            if fitness[c] < fitness[best] {
                best = c;
            }
        }
        &population[best]
    }
}

/// Records per-generation GA fitness statistics to the telemetry sink
/// (paper §6.3: the GA's convergence trajectory, i.e. how quickly the
/// predicted-best design point improves as generations pass).
fn record_generation(gen: usize, fitness: &[f64], global_best: Option<f64>) {
    if !telemetry::enabled() || fitness.is_empty() {
        return;
    }
    let gen_best = fitness.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = fitness.iter().sum::<f64>() / fitness.len() as f64;
    telemetry::counter_add("search.ga.generations", 1);
    telemetry::counter_add("search.ga.evaluations", fitness.len() as u64);
    telemetry::observe("search.ga.gen_best_fitness", gen_best);
    telemetry::observe("search.ga.gen_mean_fitness", mean);
    telemetry::event(
        "search",
        "ga_generation",
        &[
            ("generation", telemetry::Value::from(gen as u64)),
            ("population", telemetry::Value::from(fitness.len() as u64)),
            ("best", telemetry::Value::from(gen_best)),
            ("mean", telemetry::Value::from(mean)),
            (
                "global_best",
                telemetry::Value::from(global_best.unwrap_or(gen_best)),
            ),
        ],
    );
}

/// Runs the GA against a fitted surrogate model as the objective: the
/// model predicts the response at each *coded* candidate point and the GA
/// minimizes the prediction. Parameters named in `frozen` are pinned at the
/// given raw values (the paper freezes the microarchitecture and searches
/// the compiler half).
///
/// Predictions are clamped to at least one cycle — small models can
/// extrapolate below zero in far corners of the space, and the clamp keeps
/// the GA from chasing such artifacts.
///
/// # Panics
///
/// Panics if a frozen name is not in the space or its value is not one of
/// the parameter's levels (see [`GeneticSearch::freeze`]).
pub fn tune_surrogate<R: Rng + ?Sized>(
    space: &ParameterSpace,
    model: &dyn emod_models::Regressor,
    frozen: &[(&str, f64)],
    config: GaConfig,
    rng: &mut R,
) -> SearchResult {
    let mut search = GeneticSearch::new(space, config);
    for &(name, value) in frozen {
        search = search.freeze(name, value);
    }
    search.run(|raw| model.predict(&space.encode(raw)).max(1.0), rng)
}

/// Pure random search baseline: evaluates `budget` random points.
pub fn random_search<R, F>(
    space: &ParameterSpace,
    budget: usize,
    mut objective: F,
    rng: &mut R,
) -> SearchResult
where
    R: Rng + ?Sized,
    F: FnMut(&[f64]) -> f64,
{
    assert!(budget > 0, "budget must be positive");
    let mut best: Option<(DesignPoint, f64)> = None;
    for _ in 0..budget {
        let p = space.random_point(rng);
        let f = objective(&p);
        if best.as_ref().is_none_or(|(_, bf)| f < *bf) {
            best = Some((p, f));
        }
    }
    let (point, value) = best.expect("budget > 0");
    SearchResult {
        point,
        value,
        evaluations: budget,
    }
}

/// First-improvement hill climbing baseline with random restarts.
///
/// From a random start, repeatedly moves to the best single-parameter level
/// change; restarts when stuck, until the evaluation `budget` is exhausted.
pub fn hill_climb<R, F>(
    space: &ParameterSpace,
    budget: usize,
    mut objective: F,
    rng: &mut R,
) -> SearchResult
where
    R: Rng + ?Sized,
    F: FnMut(&[f64]) -> f64,
{
    assert!(budget > 0, "budget must be positive");
    let mut evaluations = 0usize;
    let mut best: Option<(DesignPoint, f64)> = None;
    while evaluations < budget {
        let mut current = space.random_point(rng);
        let mut current_val = objective(&current);
        evaluations += 1;
        loop {
            let mut improved = false;
            'outer: for (i, param) in space.parameters().iter().enumerate() {
                for level in param.levels() {
                    if level == current[i] {
                        continue;
                    }
                    if evaluations >= budget {
                        break 'outer;
                    }
                    let mut cand = current.clone();
                    cand[i] = level;
                    let v = objective(&cand);
                    evaluations += 1;
                    if v < current_val {
                        current = cand;
                        current_val = v;
                        improved = true;
                    }
                }
            }
            if !improved || evaluations >= budget {
                break;
            }
        }
        if best.as_ref().is_none_or(|(_, bf)| current_val < *bf) {
            best = Some((current, current_val));
        }
    }
    let (point, value) = best.expect("at least one restart ran");
    SearchResult {
        point,
        value,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emod_doe::Parameter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ParameterSpace {
        ParameterSpace::new(vec![
            Parameter::flag("a"),
            Parameter::flag("b"),
            Parameter::discrete("c", 0.0, 10.0, 11),
            Parameter::log_discrete("d", 8.0, 128.0, 5),
        ])
    }

    /// Objective with a unique optimum at (1, 0, 7, 32).
    fn objective(p: &[f64]) -> f64 {
        (p[0] - 1.0).abs() + p[1] + (p[2] - 7.0).abs() + (p[3].log2() - 5.0).abs()
    }

    #[test]
    fn ga_finds_global_optimum() {
        let mut rng = StdRng::seed_from_u64(7);
        let res = GeneticSearch::new(&space(), GaConfig::default()).run(objective, &mut rng);
        assert_eq!(res.point, vec![1.0, 0.0, 7.0, 32.0]);
        assert_eq!(res.value, 0.0);
    }

    #[test]
    fn ga_result_points_are_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        let res = GeneticSearch::new(&s, GaConfig::default()).run(objective, &mut rng);
        assert!(s.is_valid(&res.point));
    }

    #[test]
    fn freeze_pins_parameter() {
        let mut rng = StdRng::seed_from_u64(5);
        let res = GeneticSearch::new(&space(), GaConfig::default())
            .freeze("c", 2.0)
            .run(objective, &mut rng);
        assert_eq!(res.point[2], 2.0);
        // The rest still optimizes.
        assert_eq!(res.point[0], 1.0);
        assert_eq!(res.point[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn freeze_unknown_panics() {
        let _ = GeneticSearch::new(&space(), GaConfig::default()).freeze("zzz", 1.0);
    }

    #[test]
    #[should_panic(expected = "not a level")]
    fn freeze_invalid_level_panics() {
        let _ = GeneticSearch::new(&space(), GaConfig::default()).freeze("c", 3.7);
    }

    #[test]
    fn ga_beats_random_search_on_budget() {
        // With an equal evaluation budget the GA should usually win (or tie)
        // on a rugged objective.
        let rugged = |p: &[f64]| objective(p) + if (p[2] as i64) % 2 == 0 { 0.7 } else { 0.0 };
        let mut ga_wins = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ga = GeneticSearch::new(&space(), GaConfig::default()).run(rugged, &mut rng);
            let mut rng2 = StdRng::seed_from_u64(seed + 100);
            let rs = random_search(&space(), ga.evaluations, rugged, &mut rng2);
            if ga.value <= rs.value {
                ga_wins += 1;
            }
        }
        assert!(
            ga_wins >= 8,
            "GA won only {}/10 budget-matched runs",
            ga_wins
        );
    }

    #[test]
    fn random_search_respects_budget() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut calls = 0;
        let res = random_search(
            &space(),
            37,
            |p| {
                calls += 1;
                objective(p)
            },
            &mut rng,
        );
        assert_eq!(calls, 37);
        assert_eq!(res.evaluations, 37);
    }

    #[test]
    fn hill_climb_reaches_local_optimum_on_separable() {
        // A separable objective has no local optima for coordinate descent,
        // so hill climbing must find the global optimum given enough budget.
        let mut rng = StdRng::seed_from_u64(2);
        let res = hill_climb(&space(), 500, objective, &mut rng);
        assert_eq!(res.value, 0.0);
    }

    #[test]
    fn tune_surrogate_minimizes_model_and_respects_freeze() {
        // A hand-built "model" over coded points with a unique optimum at
        // raw (1, 0, 0, 8): coded (1, -1, -1, -1).
        struct Bowl;
        impl emod_models::Regressor for Bowl {
            fn predict(&self, x: &[f64]) -> f64 {
                100.0
                    + (x[0] - 1.0).powi(2)
                    + (x[1] + 1.0).powi(2)
                    + (x[2] + 1.0).powi(2)
                    + (x[3] + 1.0).powi(2)
            }
            fn parameter_count(&self) -> usize {
                4
            }
        }
        let s = space();
        let mut rng = StdRng::seed_from_u64(17);
        let res = tune_surrogate(&s, &Bowl, &[("c", 5.0)], GaConfig::default(), &mut rng);
        assert_eq!(res.point[0], 1.0);
        assert_eq!(res.point[1], 0.0);
        assert_eq!(res.point[2], 5.0, "frozen parameter must stay pinned");
        assert_eq!(res.point[3], 8.0);
        assert!(res.value >= 100.0);
    }

    #[test]
    fn tune_surrogate_runs_inline_and_counts_every_prediction() {
        // A `Cell` makes the model `!Sync`: the surrogate GA must accept it
        // and call it on the caller thread, once per reported evaluation.
        struct Counting(std::cell::Cell<usize>);
        impl emod_models::Regressor for Counting {
            fn predict(&self, x: &[f64]) -> f64 {
                self.0.set(self.0.get() + 1);
                x.iter().map(|v| (v + 0.5).powi(2)).sum()
            }
            fn parameter_count(&self) -> usize {
                4
            }
        }
        let model = Counting(std::cell::Cell::new(0));
        let cfg = GaConfig::default();
        let mut rng = StdRng::seed_from_u64(23);
        let res = tune_surrogate(&space(), &model, &[], cfg, &mut rng);
        assert_eq!(res.evaluations, cfg.population * (cfg.generations + 1));
        assert_eq!(res.evaluations, model.0.get());
    }

    #[test]
    fn elitism_makes_best_monotone() {
        // Track the best value after each generation by wrapping the
        // objective: the running minimum may only decrease.
        let mut seen_best = f64::INFINITY;
        let mut violations = 0;
        let mut rng = StdRng::seed_from_u64(11);
        let _ = GeneticSearch::new(&space(), GaConfig::default()).run(
            |p| {
                let v = objective(p);
                if v < seen_best {
                    seen_best = v;
                } else if seen_best == f64::INFINITY {
                    violations += 1;
                }
                v
            },
            &mut rng,
        );
        assert_eq!(violations, 0);
    }
}
