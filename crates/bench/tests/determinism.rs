//! The determinism contract, asserted end to end: measurement campaigns,
//! model training and GA tuning produce **bit-identical** outputs at
//! `EMOD_THREADS = 1, 2, 8` — responses, measurer statistics, checkpoint
//! bytes, serialized model artifacts (and their serve-side checksums) and
//! tuned design points.
//!
//! Model fits read the worker count from the process-global
//! `EMOD_THREADS`, so every test serializes on one lock and restores the
//! variable before releasing it. The GA runs inline and does not read
//! it; its test stays as a guard against a worker-count dependence.

use emod_core::builder::BuildConfig;
use emod_core::measure::{BatchRetry, Measurer, Metric};
use emod_core::model::{ModelFamily, SurrogateModel};
use emod_core::tune::search_flags_surrogate;
use emod_core::vars::design_space;
use emod_doe::lhs;
use emod_models::{Dataset, Writer};
use emod_serve::artifact::fnv1a64;
use emod_uarch::UarchConfig;
use emod_workloads::{InputSet, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn with_env_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var(emod_par::THREADS_ENV).ok();
    std::env::set_var(emod_par::THREADS_ENV, threads.to_string());
    let out = f();
    match saved {
        Some(v) => std::env::set_var(emod_par::THREADS_ENV, v),
        None => std::env::remove_var(emod_par::THREADS_ENV),
    }
    out
}

/// A small campaign design with in-batch duplicates (D-optimal designs
/// repeat points, so the dedup path must be exercised too).
fn campaign_points() -> Vec<Vec<f64>> {
    let space = design_space();
    let mut rng = StdRng::seed_from_u64(99);
    let mut points = lhs(&space, 10, &mut rng);
    points.push(points[0].clone());
    points.push(points[3].clone());
    points
}

fn run_campaign(threads: usize) -> (Vec<u64>, u64, u64, usize) {
    let w = Workload::by_name("gzip").unwrap();
    let mut m = Measurer::new(w, InputSet::Train, BuildConfig::quick(1).sample);
    m.set_threads(threads);
    let values = m.measure_metric_batch(&campaign_points(), Metric::Cycles);
    (
        values.iter().map(|v| v.to_bits()).collect(),
        m.measurement_count(),
        m.instructions_simulated(),
        m.cached_response_count(),
    )
}

#[test]
fn measurement_campaign_bit_identical_across_worker_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let baseline = run_campaign(1);
    assert_eq!(
        baseline.1, 10,
        "10 distinct points -> 10 simulations (2 duplicates hit the cache)"
    );
    // The duplicated points must echo their originals bit-for-bit.
    assert_eq!(baseline.0[10], baseline.0[0]);
    assert_eq!(baseline.0[11], baseline.0[3]);
    for threads in THREAD_COUNTS {
        let run = run_campaign(threads);
        assert_eq!(run, baseline, "EMOD_THREADS={} diverged", threads);
    }
}

#[test]
fn checkpoint_bytes_identical_across_worker_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let w = Workload::by_name("gzip").unwrap();
    let points = campaign_points();
    let mut baseline: Option<Vec<u8>> = None;
    for threads in THREAD_COUNTS {
        let dir = std::env::temp_dir().join(format!(
            "emod-determinism-ckpt-{}-{}",
            std::process::id(),
            threads
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Measurer::new(w, InputSet::Train, BuildConfig::quick(1).sample);
        m.attach_checkpoint(&dir);
        m.set_threads(threads);
        let _ = m.measure_metric_batch(&points, Metric::Cycles);
        drop(m);
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 1, "one checkpoint file per campaign");
        let bytes = std::fs::read(&files[0]).unwrap();
        match &baseline {
            None => baseline = Some(bytes),
            Some(want) => assert_eq!(
                &bytes, want,
                "checkpoint bytes differ at EMOD_THREADS={}",
                threads
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A smooth synthetic response over 4 coded dimensions — enough structure
/// for RBF centers and MARS hinges to have real selection work to do.
fn training_data() -> Dataset {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut v = 0u32;
    for _ in 0..48 {
        let point: Vec<f64> = (0..4)
            .map(|_| {
                v = v.wrapping_mul(1664525).wrapping_add(1013904223);
                -1.0 + 2.0 * (v >> 8) as f64 / ((1u32 << 24) as f64)
            })
            .collect();
        let y = 5.0 + 2.0 * point[0] + (3.0 * point[1]).sin() + point[2] * point[3];
        xs.push(point);
        ys.push(y);
    }
    Dataset::new(xs, ys).unwrap()
}

fn model_checksum(model: &SurrogateModel) -> (Vec<u8>, u64) {
    let mut w = Writer::new();
    model.encode(&mut w);
    let bytes = w.into_bytes();
    let sum = fnv1a64(&bytes);
    (bytes, sum)
}

#[test]
fn model_artifacts_identical_across_worker_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let data = training_data();
    let mut baseline: Option<Vec<(Vec<u8>, u64)>> = None;
    for threads in THREAD_COUNTS {
        let fitted: Vec<(Vec<u8>, u64)> = with_env_threads(threads, || {
            [ModelFamily::Rbf, ModelFamily::Mars]
                .iter()
                .map(|&family| model_checksum(&SurrogateModel::fit(&data, family).unwrap()))
                .collect()
        });
        match &baseline {
            None => baseline = Some(fitted),
            Some(want) => assert_eq!(
                &fitted, want,
                "model artifact bytes differ at EMOD_THREADS={}",
                threads
            ),
        }
    }
}

#[test]
fn ga_tuning_identical_across_worker_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    // A real campaign model over the full 25-parameter space: measure a
    // small design once, fit an RBF, then GA-tune the compiler half.
    let w = Workload::by_name("gzip").unwrap();
    let space = design_space();
    let mut m = Measurer::new(w, InputSet::Train, BuildConfig::quick(1).sample);
    m.set_threads(8);
    let mut rng = StdRng::seed_from_u64(7);
    let points = lhs(&space, 25, &mut rng);
    let ys = m
        .try_measure_metric_batch(&points, Metric::Cycles, &BatchRetry::single())
        .into_iter()
        .collect::<Result<Vec<f64>, _>>()
        .unwrap();
    let xs: Vec<Vec<f64>> = points.iter().map(|p| space.encode(p)).collect();
    let data = Dataset::new(xs, ys).unwrap();
    let model = with_env_threads(1, || SurrogateModel::fit(&data, ModelFamily::Rbf).unwrap());

    let mut baseline = None;
    for threads in THREAD_COUNTS {
        let tuned = with_env_threads(threads, || {
            search_flags_surrogate(&space, &model, &UarchConfig::typical(), 42)
        });
        let key = (tuned.point.clone(), tuned.predicted_cycles.to_bits());
        match &baseline {
            None => baseline = Some(key),
            Some(want) => {
                assert_eq!(&key, want, "GA tuning differs at EMOD_THREADS={}", threads)
            }
        }
    }
}
