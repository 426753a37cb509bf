//! The serve-side refresh cycle: drain the crash-safe refresh queue,
//! measure the enqueued design points with a [`Measurer`],
//! augment the training design, retrain the model family, and publish the
//! result as a **candidate version** that immediately starts canarying.
//!
//! Every step is deterministic and resumable:
//!
//! * measurements stream into a JSONL checkpoint under the refresh
//!   directory, so a worker killed mid-cycle replays completed points from
//!   the checkpoint and re-simulates only the missing ones — the augmented
//!   design and the retrained artifact come out byte-identical;
//! * queue entries are marked done only after the candidate artifact is
//!   safely on disk, so no measurement request is ever lost;
//! * the rollout state is persisted through the registry's activation
//!   pointer (`registry.activate` probe), so a restarted server resumes
//!   mid-rollout.
//!
//! Failure anywhere — an injected `retrain.fit` fault, a panicking fit, a
//! store or activation error — degrades to the last-known-good state: the
//! rollout returns to `Steady`, a `rolled_back` event is recorded, and the
//! active artifact keeps serving. Fault probes exercised on this path:
//! `retrain.fit`, `registry.store`, `registry.activate`.

use crate::artifact::ModelArtifact;
use crate::registry::ModelRegistry;
use crate::rollout::{RolloutConfig, RolloutPhase, RolloutState};
use emod_core::model::SurrogateModel;
use emod_core::refresh::RefreshQueue;
use emod_core::{BuildConfig, Measurer, Metric};
use emod_faults as faults;
use emod_models::{metrics, Regressor};
use emod_telemetry as telemetry;
use emod_workloads::{InputSet, Workload};
use std::path::Path;

/// What a completed refresh cycle produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshOutcome {
    /// The version number the candidate was published as.
    pub version: u64,
    /// Points measured (or replayed from the checkpoint) this cycle.
    pub measured: usize,
    /// Malformed pending points dropped (wrong dimension / non-finite).
    pub skipped: usize,
    /// Size of the augmented training design.
    pub train_size: usize,
    /// Training MAPE of the retrained model on the augmented design.
    pub train_mape: f64,
    /// Test MAPE of the retrained model on the artifact's held-out set.
    pub test_mape: f64,
    /// The rollout state after the cycle (phase `Canary`).
    pub state: RolloutState,
}

/// Maps an artifact's `scale` name back to the build configuration whose
/// `SampleConfig` produced its measurements, so refresh measurements are
/// taken under the identical simulation regime.
fn sample_config_for(scale: &str, seed: u64) -> BuildConfig {
    match scale {
        "paper" => BuildConfig::paper(seed),
        "quick" => BuildConfig::quick(seed),
        _ => BuildConfig::reduced(seed),
    }
}

fn metric_from_name(name: &str) -> Metric {
    match name {
        "energy" => Metric::Energy,
        "code-size" => Metric::CodeSize,
        _ => Metric::Cycles,
    }
}

fn input_set_from_name(name: &str) -> InputSet {
    if name == "ref" {
        InputSet::Ref
    } else {
        InputSet::Train
    }
}

/// Rolls the state back to `Steady`, recording the failure, and saves it
/// best-effort (a failed save must not mask the original error — serving
/// continues from the in-memory last-known-good either way).
fn abort_cycle(
    registry: &ModelRegistry,
    state: &mut RolloutState,
    version: u64,
    stage: &str,
    reason: &str,
) {
    state.phase = RolloutPhase::Steady;
    state.canary = None;
    state.record("rolled_back", version, &format!("{}: {}", stage, reason));
    telemetry::counter_add("serve.rollout.rollbacks", 1);
    telemetry::event(
        "rollout",
        "rolled_back",
        &[
            ("base", state.base.as_str().into()),
            ("version", (version as f64).into()),
            ("stage", stage.into()),
            ("reason", reason.into()),
        ],
    );
    if let Err(e) = registry.save_rollout(state) {
        eprintln!(
            "emod-serve: could not persist rollback of {}: {}",
            state.base, e
        );
    }
}

/// Runs one full refresh cycle for `base`: measure the queue's pending
/// points, retrain, publish a candidate version, and start its canary.
///
/// `queue_dir` holds both the refresh queue and the measurement
/// checkpoint. `cfg` supplies the canary fraction the new version starts
/// at. The cycle refuses to start unless the rollout is `Steady` — one
/// candidate at a time.
///
/// # Errors
///
/// Returns a message describing the failed step. On any failure after the
/// cycle started, the persisted rollout state is back in `Steady` with a
/// `rolled_back` event — the active artifact keeps serving and the queue
/// retains every unfinished point.
pub fn run_refresh_cycle(
    registry: &ModelRegistry,
    base: &str,
    queue_dir: &Path,
    cfg: &RolloutConfig,
) -> Result<RefreshOutcome, String> {
    let mut state = registry
        .load_rollout(base)
        .map_err(|e| e.to_string())?
        .unwrap_or_else(|| RolloutState::steady(base));
    if state.phase != RolloutPhase::Steady {
        return Err(format!(
            "rollout for {} is {}: finish or roll back before refreshing",
            base,
            state.phase.name()
        ));
    }

    let mut queue = RefreshQueue::open(queue_dir, base).map_err(|e| e.to_string())?;
    let pending = queue.pending();
    if pending.is_empty() {
        return Err(format!("refresh queue for {} is empty", base));
    }

    // Retrain from the *active* version's artifact — its training design is
    // the cumulative one, so refreshes compose.
    let art = registry
        .load_version(base, state.active)
        .map_err(|e| format!("load active artifact: {}", e))?;
    let workload = Workload::all()
        .iter()
        .find(|w| w.name() == art.meta.workload)
        .ok_or_else(|| format!("unknown workload {}", art.meta.workload))?;
    let build = sample_config_for(&art.meta.scale, art.meta.seed);
    let mut measurer = Measurer::new(
        workload,
        input_set_from_name(&art.meta.input_set),
        build.sample,
    );
    measurer.attach_checkpoint(queue_dir);
    let metric = metric_from_name(&art.meta.metric);
    let dim = art.space.len();

    telemetry::counter_add("serve.refresh.cycles", 1);
    let mut measured: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut skipped = 0usize;
    for raw in &pending {
        if raw.len() != dim || raw.iter().any(|v| !v.is_finite()) {
            // A malformed point would fail forever; drop it from the queue
            // rather than poison every future cycle.
            queue.mark_done(raw);
            skipped += 1;
            telemetry::counter_add("serve.refresh.skipped", 1);
            continue;
        }
        match measurer.try_measure_metric(raw, metric) {
            Ok(value) => measured.push((raw.clone(), value)),
            Err(e) => {
                abort_cycle(registry, &mut state, 0, "measure", &e.to_string());
                return Err(format!("measurement failed: {}", e));
            }
        }
    }
    if measured.is_empty() {
        return Err(format!(
            "refresh queue for {} had only malformed points ({} dropped)",
            base, skipped
        ));
    }
    telemetry::counter_add("serve.refresh.measured", measured.len() as u64);

    // Augment the coded training design and retrain the same family.
    let additions: Vec<(Vec<f64>, f64)> = measured
        .iter()
        .map(|(raw, y)| (art.space.encode(raw), *y))
        .collect();
    let augmented = match emod_core::refresh::augment_design(&art.train, &additions) {
        Ok(d) => d,
        Err(e) => {
            abort_cycle(registry, &mut state, 0, "augment", &e.to_string());
            return Err(format!("design augmentation failed: {}", e));
        }
    };
    // The probe sits *inside* catch_panic so an injected `panic:retrain.fit`
    // exercises the same graceful abort as a panicking fit.
    let fit = faults::catch_panic(|| {
        faults::inject("retrain.fit").map_err(|e| e.to_string())?;
        SurrogateModel::fit(&augmented, art.meta.family).map_err(|e| e.to_string())
    })
    .and_then(|r| r);
    let model = match fit {
        Ok(m) => m,
        Err(e) => {
            abort_cycle(registry, &mut state, 0, "retrain", &e);
            return Err(format!("retrain failed: {}", e));
        }
    };

    let train_preds: Vec<f64> = augmented
        .points()
        .iter()
        .map(|p| model.predict(p))
        .collect();
    let train_mape = metrics::mape(&train_preds, augmented.responses());
    let test_preds: Vec<f64> = art.test.points().iter().map(|p| model.predict(p)).collect();
    let test_mape = metrics::mape(&test_preds, art.test.responses());

    let mut meta = art.meta.clone();
    meta.train_mape = train_mape;
    meta.test_mape = test_mape;
    meta.train_size = augmented.len();
    let mut history = art.history.clone();
    history.push((augmented.len(), test_mape));
    let candidate = ModelArtifact {
        meta,
        space: art.space.clone(),
        model,
        quality: emod_quality::DesignSummary::from_design(&augmented),
        train: augmented.clone(),
        test: art.test.clone(),
        history,
    };

    let version = match registry.next_version(base) {
        Ok(v) => v,
        Err(e) => {
            abort_cycle(registry, &mut state, 0, "version", &e.to_string());
            return Err(format!("version allocation failed: {}", e));
        }
    };
    if let Err(e) = registry.store_version(&candidate, version) {
        abort_cycle(registry, &mut state, version, "publish", &e.to_string());
        return Err(format!("candidate publish failed: {}", e));
    }
    // The measurements are inside a durable artifact now — retire the queue
    // entries. (Before this point a rerun replays them from the checkpoint
    // to identical bytes; after it, they must not be re-enqueued.)
    for (raw, _) in &measured {
        queue.mark_done(raw);
    }

    state.phase = RolloutPhase::Candidate;
    state.canary = Some(version);
    state.record("candidate_published", version, "refresh");
    telemetry::event(
        "rollout",
        "candidate_published",
        &[
            ("base", base.into()),
            ("version", (version as f64).into()),
            ("measured", (measured.len() as f64).into()),
            ("train_size", (augmented.len() as f64).into()),
            ("test_mape", test_mape.into()),
        ],
    );
    if let Err(e) = registry.save_rollout(&state) {
        abort_cycle(registry, &mut state, version, "activate", &e.to_string());
        return Err(format!("candidate activation failed: {}", e));
    }

    state.phase = RolloutPhase::Canary;
    state.fraction = cfg.fraction;
    state.record(
        "canary_started",
        version,
        &format!("fraction={}", cfg.fraction),
    );
    telemetry::event(
        "rollout",
        "canary_started",
        &[
            ("base", base.into()),
            ("version", (version as f64).into()),
            ("fraction", cfg.fraction.into()),
        ],
    );
    if let Err(e) = registry.save_rollout(&state) {
        abort_cycle(registry, &mut state, version, "activate", &e.to_string());
        return Err(format!("canary activation failed: {}", e));
    }
    telemetry::counter_add("serve.refresh.candidates", 1);

    Ok(RefreshOutcome {
        version,
        measured: measured.len(),
        skipped,
        train_size: augmented.len(),
        train_mape,
        test_mape,
        state,
    })
}
