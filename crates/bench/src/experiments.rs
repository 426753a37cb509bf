//! One regeneration routine per table/figure of the paper's evaluation.

use crate::Session;
use emod_compiler::OptConfig;
use emod_core::builder::ModelBuilder;
use emod_core::interpret::{effect_report, EffectReport};
use emod_core::measure::{BatchRetry, Metric};
use emod_core::model::ModelFamily;
use emod_core::tune::{self, reference_configs};
use emod_core::vars;
use emod_models::{Dataset, LinearModel, LinearTerms, Regressor};
use emod_uarch::{simulate_sampled, SampleConfig, UarchConfig};
use emod_workloads::{InputSet, Workload};

/// Table 1: the compiler flags and heuristics considered for modeling.
pub fn table1() {
    println!("Table 1: compiler flags and heuristics");
    println!(
        "{:<4} {:<24} {:>8} {:>8} {:>8}",
        "#", "parameter", "low", "high", "levels"
    );
    for (i, p) in vars::compiler_parameters().iter().enumerate() {
        let levels = p.levels();
        println!(
            "{:<4} {:<24} {:>8} {:>8} {:>8}",
            i + 1,
            p.name(),
            levels[0],
            levels[levels.len() - 1],
            levels.len()
        );
    }
}

/// Table 2: the microarchitectural parameters considered for modeling.
pub fn table2() {
    println!("Table 2: microarchitectural parameters");
    println!(
        "{:<4} {:<18} {:>10} {:>10} {:>8}",
        "#", "parameter", "low", "high", "levels"
    );
    for (i, p) in vars::uarch_parameters().iter().enumerate() {
        let levels = p.levels();
        println!(
            "{:<4} {:<18} {:>10} {:>10} {:>8}",
            i + 15,
            p.name(),
            levels[0],
            levels[levels.len() - 1],
            levels.len()
        );
    }
}

/// Figure 3: execution time of `art` vs `max-unroll-times` × icache size,
/// plus a linear-model approximation for the 8 KB icache column showing the
/// inadequacy of global linear fits.
pub fn fig3() -> Vec<(u32, Vec<u64>)> {
    let w = Workload::by_name("179.art").unwrap();
    let icaches: Vec<u64> = vec![8, 16, 32, 64, 128]
        .into_iter()
        .map(|k| k * 1024)
        .collect();
    let unrolls: Vec<u32> = vec![4, 6, 8, 10, 12];
    let sample = SampleConfig {
        window: 500,
        interval: 60,
        warmup: 1000,
        fuel: u64::MAX,
    };
    println!("Figure 3: art execution time (cycles) vs max-unroll-times x icache");
    print!("{:>8}", "unroll");
    for ic in &icaches {
        print!("{:>12}", format!("il1={}K", ic / 1024));
    }
    println!();
    let mut rows = Vec::new();
    for &u in &unrolls {
        let mut cfg = OptConfig::o2();
        cfg.unroll_loops = true;
        cfg.max_unroll_times = u;
        cfg.max_unrolled_insns = 300;
        let prog = w.program(&cfg, InputSet::Train).unwrap();
        let mut row = Vec::new();
        print!("{:>8}", u);
        for &ic in &icaches {
            let mut ua = UarchConfig::typical();
            ua.il1_size = ic;
            let res = simulate_sampled(&prog, &ua, &sample).unwrap();
            print!("{:>12}", res.cycles);
            row.push(res.cycles);
        }
        println!();
        rows.push((u, row));
    }
    // Linear fit over the 8KB column (coded unroll factor).
    let xs: Vec<Vec<f64>> = unrolls
        .iter()
        .map(|&u| vec![(u as f64 - 8.0) / 4.0])
        .collect();
    let ys: Vec<f64> = rows.iter().map(|(_, r)| r[0] as f64).collect();
    let lin = LinearModel::fit(
        &Dataset::new(xs.clone(), ys.clone()).unwrap(),
        LinearTerms::MainEffects,
    )
    .unwrap();
    println!(
        "linear model, il1=8K: predicted = {:.0} + {:.0} * coded(unroll)",
        lin.intercept(),
        lin.main_effect(0)
    );
    let preds = lin.predict_batch(&xs);
    let mape = emod_models::metrics::mape(&preds, &ys);
    println!(
        "linear fit error over the sweep: {:.1}% (the nonlinearity a global line cannot capture)",
        mape
    );
    rows
}

/// Table 3: average prediction error (MAPE, %) of the three modeling
/// techniques on every workload's held-out test design.
pub fn table3(session: &mut Session) -> Vec<(String, [f64; 3])> {
    println!("Table 3: average prediction error (%) on the test design");
    println!(
        "{:<24} {:>14} {:>10} {:>10}",
        "Benchmark-Input", "Linear model", "MARS", "RBF-RT"
    );
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 3];
    'workloads: for w in Workload::all() {
        let mut row = [0.0f64; 3];
        for (k, family) in ModelFamily::all().into_iter().enumerate() {
            match session.model(w, InputSet::Train, family) {
                Ok(built) => row[k] = built.test_mape,
                Err(e) => {
                    println!("{:<24} skipped ({:?} fit failed: {})", w.name(), family, e);
                    continue 'workloads;
                }
            }
        }
        println!(
            "{:<24} {:>14.2} {:>10.2} {:>10.2}",
            w.name(),
            row[0],
            row[1],
            row[2]
        );
        for k in 0..3 {
            sums[k] += row[k];
        }
        rows.push((w.name().to_string(), row));
    }
    if !rows.is_empty() {
        let n = rows.len() as f64;
        println!(
            "{:<24} {:>14.2} {:>10.2} {:>10.2}",
            "Average",
            sums[0] / n,
            sums[1] / n,
            sums[2] / n
        );
    }
    rows
}

/// One workload's learning curve: `(train size, mean error %, σ)` triples.
pub type LearningCurve = Vec<(usize, f64, f64)>;

/// Figure 5: effect of training-set size on RBF model accuracy (mean ± σ
/// over replicate designs).
pub fn fig5(session: &mut Session) -> Vec<(String, LearningCurve)> {
    let scale = session.scale();
    let sizes = scale.learning_curve_sizes();
    let seeds = scale.replicate_seeds();
    println!(
        "Figure 5: RBF test error (%) vs training-set size  [mean ± sigma over {} designs]",
        seeds.len()
    );
    let mut out = Vec::new();
    for w in Workload::all() {
        let mut series = Vec::new();
        print!("{:<24}", w.name());
        for &n in &sizes {
            let mut errs = Vec::new();
            for &seed in &seeds {
                let mut cfg = scale.build_config(seed);
                cfg.train_size = *sizes.last().unwrap();
                let mut b = ModelBuilder::new(w, InputSet::Train, cfg);
                let (_, mape) = b.build_with_train_subset(ModelFamily::Rbf, n).expect("fit");
                errs.push(mape);
            }
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            let var = errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / errs.len() as f64;
            print!("  n={:<4} {:>6.2}±{:<5.2}", n, mean, var.sqrt());
            series.push((n, mean, var.sqrt()));
        }
        println!();
        out.push((w.name().to_string(), series));
    }
    out
}

/// Figure 6: actual vs RBF-predicted execution times on the test design for
/// the three highest-error programs (art, vortex, mcf).
pub fn fig6(session: &mut Session) -> Vec<(String, Vec<(f64, f64)>)> {
    println!("Figure 6: actual vs predicted execution time (RBF), test design");
    let mut out = Vec::new();
    for name in ["179.art", "255.vortex-lendian1", "181.mcf"] {
        let w = Workload::by_name(name).unwrap();
        let built = match session.model(w, InputSet::Train, ModelFamily::Rbf) {
            Ok(b) => b,
            Err(e) => {
                println!("{:<24} skipped (fit failed: {})", name, e);
                continue;
            }
        };
        let preds = built.model.predict_batch(built.test.points());
        let pairs: Vec<(f64, f64)> = built
            .test
            .responses()
            .iter()
            .zip(&preds)
            .map(|(&a, &p)| (a, p))
            .collect();
        let r2 = emod_models::metrics::r_squared(&preds, built.test.responses());
        println!("{:<24} points={} R²={:.3}", name, pairs.len(), r2);
        for chunk in pairs.chunks(4).take(5) {
            let line: Vec<String> = chunk
                .iter()
                .map(|(a, p)| format!("({:.2}M,{:.2}M)", a / 1e6, p / 1e6))
                .collect();
            println!("    {}", line.join(" "));
        }
        out.push((name.to_string(), pairs));
    }
    out
}

/// Table 4: coefficients of key parameters and interactions inferred from
/// the MARS models (top terms per workload, in millions of cycles).
pub fn table4(session: &mut Session) -> Vec<(String, EffectReport)> {
    println!("Table 4: key parameter/interaction coefficients from MARS models");
    println!("(coefficient = half the response change low→high, in Mcycles)");
    let mut out = Vec::new();
    for w in Workload::all() {
        let built = match session.model(w, InputSet::Train, ModelFamily::Mars) {
            Ok(b) => b,
            Err(e) => {
                println!("{:<24} skipped (fit failed: {})", w.name(), e);
                continue;
            }
        };
        let report = effect_report(built);
        println!(
            "{:<24} constant = {:>10.2} Mcycles",
            w.name(),
            report.constant / 1e6
        );
        // Report terms the model actually found significant (MARS prunes
        // the rest to zero, like the paper's empty Table 4 cells).
        let floor = report.constant.abs() * 1e-4;
        for e in report.top(14) {
            if e.coefficient.abs() > floor {
                println!("    {:<48} {:>10.3}", e.term, e.coefficient / 1e6);
            }
        }
        out.push((w.name().to_string(), report));
    }
    out
}

/// Table 5: the three reference microarchitectural configurations.
pub fn table5() {
    println!("Table 5: reference configurations for model-based search");
    println!(
        "{:<18} {:>12} {:>12} {:>12}",
        "parameter", "constrained", "typical", "aggressive"
    );
    let configs = reference_configs();
    type Field = fn(&UarchConfig) -> u64;
    let rows: [(&str, Field); 11] = [
        ("issue-width", |c| c.issue_width as u64),
        ("bpred-size", |c| c.bpred_size as u64),
        ("ruu-size", |c| c.ruu_size as u64),
        ("il1-size", |c| c.il1_size),
        ("dl1-size", |c| c.dl1_size),
        ("dl1-assoc", |c| c.dl1_assoc as u64),
        ("dl1-latency", |c| c.dl1_latency as u64),
        ("ul2-size", |c| c.ul2_size),
        ("ul2-assoc", |c| c.ul2_assoc as u64),
        ("ul2-latency", |c| c.ul2_latency as u64),
        ("memory-latency", |c| c.mem_latency as u64),
    ];
    for (name, get) in rows {
        println!(
            "{:<18} {:>12} {:>12} {:>12}",
            name,
            get(&configs[0].1),
            get(&configs[1].1),
            get(&configs[2].1)
        );
    }
}

/// Table 6: flag and heuristic settings prescribed by model-based (RBF +
/// GA) search for the three reference configurations, printed in the
/// paper's `constrained/typical/aggressive` format.
pub fn table6(session: &mut Session) -> Vec<(String, [OptConfig; 3])> {
    println!("Table 6: settings prescribed by model-based search (c/t/a)");
    let mut out = Vec::new();
    for w in Workload::all() {
        let mut tuned = Vec::new();
        {
            let built = match session.model(w, InputSet::Train, ModelFamily::Rbf) {
                Ok(b) => b,
                Err(e) => {
                    println!("{:<24} skipped (fit failed: {})", w.name(), e);
                    continue;
                }
            };
            for (k, (_, platform)) in reference_configs().iter().enumerate() {
                tuned.push(tune::search_flags(built, platform, 400 + k as u64).config);
            }
        }
        let fmt_flags = |f: &OptConfig| {
            let v = f.to_design_values();
            v[..9]
                .iter()
                .map(|x| format!("{}", *x as i64))
                .collect::<Vec<_>>()
        };
        let a = fmt_flags(&tuned[0]);
        let b = fmt_flags(&tuned[1]);
        let c = fmt_flags(&tuned[2]);
        let flag_str: Vec<String> = (0..9)
            .map(|i| format!("{}/{}/{}", a[i], b[i], c[i]))
            .collect();
        println!("{:<24} {}", w.name(), flag_str.join(" "));
        println!(
            "    heuristics: {}/{}/{} {}/{}/{} {}/{}/{} {}/{}/{} {}/{}/{}",
            tuned[0].max_inline_insns_auto,
            tuned[1].max_inline_insns_auto,
            tuned[2].max_inline_insns_auto,
            tuned[0].inline_unit_growth,
            tuned[1].inline_unit_growth,
            tuned[2].inline_unit_growth,
            tuned[0].inline_call_cost,
            tuned[1].inline_call_cost,
            tuned[2].inline_call_cost,
            tuned[0].max_unroll_times,
            tuned[1].max_unroll_times,
            tuned[2].max_unroll_times,
            tuned[0].max_unrolled_insns,
            tuned[1].max_unrolled_insns,
            tuned[2].max_unrolled_insns,
        );
        out.push((
            w.name().to_string(),
            [tuned[0].clone(), tuned[1].clone(), tuned[2].clone()],
        ));
    }
    out
}

/// One row of the Figure 7 / Table 7 speedup reports.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// Platform name (constrained/typical/aggressive).
    pub platform: String,
    /// Model-predicted speedup of tuned settings over -O2 (%).
    pub predicted: f64,
    /// Measured speedup of tuned settings over -O2 (%).
    pub actual: f64,
    /// Measured speedup of -O3 over -O2 (%).
    pub o3: f64,
}

/// Figure 7: predicted and actual speedup over -O2 at GA-prescribed
/// settings, with the -O3 bar for comparison, on the `train` input.
pub fn fig7(session: &mut Session) -> Vec<SpeedupRow> {
    println!("Figure 7: speedup over -O2 (train input)");
    println!(
        "{:<24} {:<12} {:>10} {:>10} {:>10}",
        "Benchmark", "platform", "O3 %", "pred %", "actual %"
    );
    speedup_rows(session, InputSet::Train, true)
}

/// Table 7: actual speedups over -O2 when the model is built on the `train`
/// input and the prescribed settings are applied to the `ref` input (the
/// profile-guided scenario).
pub fn table7(session: &mut Session) -> Vec<SpeedupRow> {
    println!("Table 7: profile-guided scenario — tuned on train, run on ref");
    println!("{:<24} {:<12} {:>10}", "Benchmark", "platform", "actual %");
    speedup_rows(session, InputSet::Ref, false)
}

fn speedup_rows(session: &mut Session, eval_set: InputSet, verbose: bool) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for w in Workload::all() {
        for (pk, (pname, platform)) in reference_configs().iter().enumerate() {
            let (tuned, predicted_cycles) = {
                let built = match session.model(w, InputSet::Train, ModelFamily::Rbf) {
                    Ok(b) => b,
                    Err(e) => {
                        println!("{:<24} {:<12} skipped (fit failed: {})", w.name(), pname, e);
                        continue;
                    }
                };
                let t = tune::search_flags(built, platform, 700 + pk as u64);
                let p = t.predicted_cycles;
                (t, p)
            };
            // Measure -O2, the tuned setting and -O3 as one batch on the
            // evaluation input (train for Fig 7, ref for Table 7), sharing
            // the session's response caches.
            let configs = [OptConfig::o2(), tuned.config.clone(), OptConfig::o3()]
                .map(|opt| (opt, platform.clone()));
            let cycles: Vec<f64> = session
                .builder(w, eval_set)
                .measurer_mut()
                .try_measure_configs_metric_batch(&configs, Metric::Cycles, &BatchRetry::single())
                .into_iter()
                .map(|r| r.unwrap_or_else(|e| panic!("{}: {}", w.name(), e)))
                .collect();
            let (o2, tuned_cycles, o3) = (cycles[0], cycles[1], cycles[2]);
            let actual = 100.0 * (o2 / tuned_cycles - 1.0);
            let o3_speedup = 100.0 * (o2 / o3 - 1.0);
            let predicted = 100.0 * (o2 / predicted_cycles - 1.0);
            if verbose {
                println!(
                    "{:<24} {:<12} {:>10.2} {:>10.2} {:>10.2}",
                    w.name(),
                    pname,
                    o3_speedup,
                    predicted,
                    actual
                );
            } else {
                println!("{:<24} {:<12} {:>10.2}", w.name(), pname, actual);
            }
            rows.push(SpeedupRow {
                workload: w.name().to_string(),
                platform: pname.to_string(),
                predicted,
                actual,
                o3: o3_speedup,
            });
        }
    }
    // Per-platform averages, as quoted in the paper's text.
    for (pname, _) in reference_configs() {
        let sel: Vec<&SpeedupRow> = rows.iter().filter(|r| r.platform == pname).collect();
        let avg = sel.iter().map(|r| r.actual).sum::<f64>() / sel.len() as f64;
        println!("average actual speedup on {:<12}: {:>6.2}%", pname, avg);
    }
    rows
}

/// Extension (paper §2.2): models for responses other than execution time —
/// energy and code size — built with the same pipeline.
pub fn ext_metrics(session: &mut Session) {
    use emod_core::builder::ModelBuilder as MB;
    let scale = session.scale();
    println!("Extension (paper §2.2): RBF models for alternative responses");
    println!(
        "{:<24} {:>12} {:>12} {:>12}",
        "Benchmark", "cycles err%", "energy err%", "codesz err%"
    );
    for w in [
        Workload::by_name("256.bzip2-graphic").unwrap(),
        Workload::by_name("179.art").unwrap(),
    ] {
        let mut errs = Vec::new();
        for metric in [Metric::Cycles, Metric::Energy, Metric::CodeSize] {
            let mut cfg = scale.build_config(77);
            cfg.metric = metric;
            let mut b = MB::new(w, InputSet::Train, cfg);
            let built = b.build(ModelFamily::Rbf).expect("fit");
            errs.push(built.test_mape);
        }
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>12.2}",
            w.name(),
            errs[0],
            errs[1],
            errs[2]
        );
    }
    println!("(code size is machine-independent — its response lives entirely in");
    println!(" the 14 compiler parameters, dominated by unroll/inline thresholds)");
}

/// Ablation: D-optimal vs LHS vs random designs at equal size, judged by
/// RBF test error on real measurements (motivates the paper's §3 choice).
pub fn ablation_design(session: &mut Session) {
    use emod_core::vars::design_space;
    use emod_doe::{lhs, DOptimal, ModelSpec};
    use emod_models::{metrics, Dataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let scale = session.scale();
    let w = Workload::by_name("256.bzip2-graphic").unwrap();
    let n = scale.build_config(0).train_size.min(80);
    println!("Ablation: design selection strategy ({} points, bzip2)", n);
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(31);
    let candidates = lhs(&space, 600, &mut rng);
    let dopt = DOptimal::new(&space, ModelSpec::main_effects());
    let designs: Vec<(&str, Vec<Vec<f64>>)> = vec![
        (
            "random",
            (0..n).map(|_| space.random_point(&mut rng)).collect(),
        ),
        ("lhs", lhs(&space, n, &mut rng)),
        ("d-optimal", dopt.select(&candidates, n, &mut rng)),
    ];
    let test_points = lhs(&space, 30, &mut rng);
    let measurer = session.builder(w, InputSet::Train).measurer_mut();
    let test_xs: Vec<Vec<f64>> = test_points.iter().map(|p| space.encode(p)).collect();
    let test_ys = measurer.measure_metric_batch(&test_points, Metric::Cycles);
    println!(
        "{:<12} {:>14} {:>12}",
        "design", "log det(X'X)", "RBF err %"
    );
    for (name, points) in designs {
        let ld = dopt.log_det(&points);
        let measurer = session.builder(w, InputSet::Train).measurer_mut();
        let xs: Vec<Vec<f64>> = points.iter().map(|p| space.encode(p)).collect();
        let ys = measurer.measure_metric_batch(&points, Metric::Cycles);
        let data = Dataset::new(xs, ys).unwrap();
        let model = emod_core::SurrogateModel::fit(&data, ModelFamily::Rbf).expect("fit");
        let preds = model.predict_batch(&test_xs);
        println!(
            "{:<12} {:>14.1} {:>12.2}",
            name,
            ld,
            metrics::mape(&preds, &test_ys)
        );
    }
}

/// Ablation: the GA against random search and hill climbing at an equal
/// model-evaluation budget (§6.3's search choice).
pub fn ablation_search(session: &mut Session) {
    use emod_core::vars::COMPILER_PARAMS;
    use emod_search::{hill_climb, random_search};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    println!("Ablation: search strategy over the model (typical machine)");
    println!(
        "{:<24} {:>12} {:>12} {:>12}",
        "Benchmark", "GA", "random", "hill-climb"
    );
    let platform = UarchConfig::typical();
    let machine_vals = platform.to_design_values();
    for name in ["181.mcf", "256.bzip2-graphic"] {
        let w = Workload::by_name(name).unwrap();
        let built = match session.model(w, InputSet::Train, ModelFamily::Rbf) {
            Ok(b) => b,
            Err(e) => {
                println!("{:<24} skipped (fit failed: {})", name, e);
                continue;
            }
        };
        let space = built.space.clone();
        let tuned = tune::search_flags(built, &platform, 8);
        let budget = tuned.evaluations;
        // Freeze the machine half inside the objective for the baselines.
        let objective = |p: &[f64]| {
            let mut full = p.to_vec();
            for (k, v) in machine_vals.iter().enumerate() {
                full[COMPILER_PARAMS + k] = *v;
            }
            built.model.predict(&space.encode(&full)).max(1.0)
        };
        let mut r1 = StdRng::seed_from_u64(9);
        let rs = random_search(&space, budget, objective, &mut r1);
        let mut r2 = StdRng::seed_from_u64(10);
        let hc = hill_climb(&space, budget, objective, &mut r2);
        println!(
            "{:<24} {:>12.0} {:>12.0} {:>12.0}",
            name, tuned.predicted_cycles, rs.value, hc.value
        );
    }
    println!("(lower predicted cycles is better; equal evaluation budgets)");
}

/// `repro publish`: train every workload × family at the session's scale
/// and persist each as a registry artifact for `emod-serve`.
pub fn publish(session: &mut Session) {
    let root = match session.ensure_registry() {
        Ok(reg) => reg.root().display().to_string(),
        Err(e) => {
            eprintln!("error: cannot open registry: {}", e);
            return;
        }
    };
    println!(
        "publishing artifacts to {} (scale {}, seed {})",
        root,
        session.scale().name(),
        crate::session::SESSION_SEED
    );
    let mut stored = 0usize;
    for w in Workload::all() {
        for family in ModelFamily::all() {
            match session.publish_model(w, InputSet::Train, family) {
                Ok((id, mape)) => {
                    println!("  {:<64} test MAPE {:>6.2}%", id, mape);
                    stored += 1;
                }
                Err(e) => println!(
                    "  {:<24} {:?} skipped (fit failed: {})",
                    w.name(),
                    family,
                    e
                ),
            }
        }
    }
    println!("published {} artifacts", stored);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn static_tables_print() {
        table1();
        table2();
        table5();
    }

    #[test]
    fn quick_table3_shape_holds_for_rbf() {
        let mut s = Session::new(Scale::Quick);
        // One workload at quick scale to keep test time sane.
        let w = Workload::by_name("bzip2").unwrap();
        let rbf = s
            .model(w, InputSet::Train, ModelFamily::Rbf)
            .unwrap()
            .test_mape;
        let lin = s
            .model(w, InputSet::Train, ModelFamily::Linear)
            .unwrap()
            .test_mape;
        assert!(rbf.is_finite() && lin.is_finite());
    }
}
