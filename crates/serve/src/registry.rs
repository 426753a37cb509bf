//! On-disk model registry: a directory of `<id>.emod` artifact files.
//!
//! The registry root comes from `EMOD_REGISTRY` (default `./registry`).
//! Stores are atomic (temp file + rename), loads go through an in-process
//! cache shared across server worker threads.
//!
//! Corruption policy (DESIGN.md §10): an artifact that no longer decodes
//! is **quarantined** — renamed to `<id>.emod.bad` so the evidence
//! survives for post-mortem — never silently deleted. [`ModelRegistry::load`]
//! quarantines on a failed decode, [`ModelRegistry::gc`] sweeps the whole
//! directory and reports per-file failures in a [`GcReport`], quarantined
//! ids stay listable via [`ModelRegistry::quarantine`], and re-publishing
//! an id clears its `.bad` copy (recovery). Fault probes: `registry.store`,
//! `registry.load`, `registry.activate`.
//!
//! Refresh-produced artifact **versions** live beside the base file as
//! `<base>@v<N>.emod` ([`ModelRegistry::store_version`] /
//! [`ModelRegistry::load_version`] / [`ModelRegistry::versions`]); the
//! activation pointer for a base id — which version is active, which is
//! canarying, which is the rollback target — is a [`RolloutState`] persisted
//! as `<base>.rollout` ([`ModelRegistry::load_rollout`] /
//! [`ModelRegistry::save_rollout`]). `gc` treats every version named by a
//! rollout state as **protected**: it is never quarantined or pruned, even
//! mid-rollout, so auto-rollback always has an intact target.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::rollout::RolloutState;
use emod_faults as faults;
use emod_telemetry as telemetry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Environment variable naming the registry root directory.
pub const REGISTRY_ENV: &str = "EMOD_REGISTRY";

/// Default registry root when `EMOD_REGISTRY` is unset.
pub const DEFAULT_ROOT: &str = "./registry";

/// File extension of artifact files (without the dot).
pub const EXTENSION: &str = "emod";

/// File extension of rollout state files (without the dot).
pub const ROLLOUT_EXTENSION: &str = "rollout";

/// Builds the id a refresh-produced version of `base` is stored under:
/// `<base>@v<N>`. Version 0 is the unversioned base id itself.
pub fn version_id(base: &str, version: u64) -> String {
    if version == 0 {
        base.to_string()
    } else {
        format!("{}@v{}", base, version)
    }
}

/// Splits a versioned id back into `(base, version)`; `None` for plain
/// (unversioned) ids. Base ids never contain `@` (see `ArtifactMeta::id`),
/// so the split is unambiguous.
pub fn split_version(id: &str) -> Option<(&str, u64)> {
    let at = id.rfind("@v")?;
    let version: u64 = id[at + 2..].parse().ok()?;
    Some((&id[..at], version))
}

/// What a [`ModelRegistry::gc`] sweep did: which corrupt artifacts were
/// quarantined, which stale versions were pruned, which ids a live rollout
/// protected, and which moves failed (with the OS error), so callers can
/// surface rather than swallow filesystem trouble.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Ids renamed to `<id>.emod.bad` this sweep.
    pub quarantined: Vec<String>,
    /// Stale version ids (healthy but unreferenced by any rollout) deleted
    /// this sweep.
    pub pruned: Vec<String>,
    /// Ids a rollout state protects (active, in-flight canary, rollback
    /// target) — never quarantined or pruned, even if corrupt.
    pub protected: Vec<String>,
    /// `(id, error)` pairs for corrupt artifacts the sweep failed to move.
    pub failures: Vec<(String, String)>,
}

/// A directory of persisted model artifacts with an in-process load cache.
#[derive(Debug)]
pub struct ModelRegistry {
    root: PathBuf,
    cache: RwLock<HashMap<String, Arc<ModelArtifact>>>,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| ArtifactError::Io(format!("create {}: {}", root.display(), e)))?;
        Ok(ModelRegistry {
            root,
            cache: RwLock::new(HashMap::new()),
        })
    }

    /// Opens the registry named by `EMOD_REGISTRY`, defaulting to
    /// `./registry`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be created.
    pub fn open_env() -> Result<Self, ArtifactError> {
        Self::open(Self::env_root())
    }

    /// The root directory `EMOD_REGISTRY` currently points at.
    pub fn env_root() -> PathBuf {
        std::env::var(REGISTRY_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from(DEFAULT_ROOT))
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, id: &str) -> PathBuf {
        self.root.join(format!("{}.{}", id, EXTENSION))
    }

    fn bad_path_of(&self, id: &str) -> PathBuf {
        self.root.join(format!("{}.{}.bad", id, EXTENSION))
    }

    /// Moves a corrupt artifact aside to `<id>.emod.bad`, keeping the bytes
    /// for post-mortem instead of deleting them.
    fn quarantine_file(&self, id: &str, path: &Path, reason: &str) -> Result<(), String> {
        let bad = self.bad_path_of(id);
        std::fs::rename(path, &bad).map_err(|e| e.to_string())?;
        telemetry::counter_add("serve.registry.quarantined", 1);
        telemetry::event(
            "serve",
            "artifact_quarantined",
            &[("id", id.into()), ("reason", reason.into())],
        );
        eprintln!(
            "emod-serve: quarantined corrupt artifact {} -> {} ({})",
            id,
            bad.display(),
            reason
        );
        Ok(())
    }

    /// Whether an artifact with `id` exists on disk.
    pub fn contains(&self, id: &str) -> bool {
        self.path_of(id).is_file()
    }

    /// Persists `artifact` under its id, atomically (temp file + rename).
    /// Returns the final path.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] on filesystem failure.
    pub fn store(&self, artifact: &ModelArtifact) -> Result<PathBuf, ArtifactError> {
        self.store_as(&artifact.id(), artifact)
    }

    /// Persists `artifact` as version `version` of its base id
    /// (`<base>@v<N>.emod`), atomically. Returns the final path.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] on filesystem failure.
    pub fn store_version(
        &self,
        artifact: &ModelArtifact,
        version: u64,
    ) -> Result<PathBuf, ArtifactError> {
        self.store_as(&version_id(&artifact.id(), version), artifact)
    }

    /// Loads version `version` of `base` (version 0 = the base file
    /// itself), through the cache like [`ModelRegistry::load`].
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] if the version file is missing,
    /// unreadable or does not validate.
    pub fn load_version(
        &self,
        base: &str,
        version: u64,
    ) -> Result<Arc<ModelArtifact>, ArtifactError> {
        self.load(&version_id(base, version))
    }

    /// Version numbers of `base` present on disk, sorted ascending
    /// (excluding the unversioned base file).
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be read.
    pub fn versions(&self, base: &str) -> Result<Vec<u64>, ArtifactError> {
        let mut out: Vec<u64> = self
            .all_ids()?
            .into_iter()
            .filter_map(|id| match split_version(&id) {
                Some((b, v)) if b == base => Some(v),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        Ok(out)
    }

    /// The next unused version number for `base` (max on disk + 1).
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be read.
    pub fn next_version(&self, base: &str) -> Result<u64, ArtifactError> {
        Ok(self.versions(base)?.last().copied().unwrap_or(0) + 1)
    }

    fn store_as(&self, id: &str, artifact: &ModelArtifact) -> Result<PathBuf, ArtifactError> {
        faults::inject("registry.store")
            .map_err(|e| ArtifactError::Io(format!("store {}: {}", id, e)))?;
        let path = self.path_of(id);
        let tmp = self
            .root
            .join(format!(".{}.tmp-{}", id, std::process::id()));
        let bytes = artifact.to_bytes();
        std::fs::write(&tmp, &bytes)
            .map_err(|e| ArtifactError::Io(format!("write {}: {}", tmp.display(), e)))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            ArtifactError::Io(format!("rename to {}: {}", path.display(), e))
        })?;
        telemetry::counter_add("serve.registry.stores", 1);
        // Recovery: a successful re-publish supersedes any quarantined copy
        // of the same id.
        let bad = self.bad_path_of(id);
        if bad.is_file() {
            match std::fs::remove_file(&bad) {
                Ok(()) => {
                    telemetry::counter_add("serve.registry.recovered", 1);
                    telemetry::event("serve", "artifact_recovered", &[("id", id.into())]);
                }
                Err(e) => eprintln!(
                    "emod-serve: could not clear quarantined copy {}: {}",
                    bad.display(),
                    e
                ),
            }
        }
        telemetry::write_or_recover(&self.cache).insert(id.to_string(), Arc::new(artifact.clone()));
        Ok(path)
    }

    /// Loads the artifact with `id`, consulting the in-process cache first.
    /// A file that reads but fails to decode (corrupt, truncated, wrong
    /// version) is quarantined to `<id>.emod.bad` before the error returns.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError`] if the file is missing, unreadable or
    /// does not validate.
    pub fn load(&self, id: &str) -> Result<Arc<ModelArtifact>, ArtifactError> {
        if let Some(hit) = telemetry::read_or_recover(&self.cache).get(id) {
            telemetry::counter_add("serve.registry.cache.hits", 1);
            return Ok(Arc::clone(hit));
        }
        telemetry::counter_add("serve.registry.cache.misses", 1);
        faults::inject("registry.load")
            .map_err(|e| ArtifactError::Io(format!("load {}: {}", id, e)))?;
        let path = self.path_of(id);
        let bytes = std::fs::read(&path)
            .map_err(|e| ArtifactError::Io(format!("read {}: {}", path.display(), e)))?;
        let artifact = match ModelArtifact::from_bytes(&bytes) {
            Ok(a) => Arc::new(a),
            Err(e) => {
                // The bytes were readable but wrong: quarantine so the next
                // publish of this id starts clean and the bad bytes survive
                // for inspection.
                if let Err(qe) = self.quarantine_file(id, &path, &e.to_string()) {
                    eprintln!("emod-serve: could not quarantine {}: {}", id, qe);
                }
                return Err(e);
            }
        };
        telemetry::write_or_recover(&self.cache).insert(id.to_string(), Arc::clone(&artifact));
        Ok(artifact)
    }

    /// Ids of all *base* artifacts on disk, sorted. Refresh-produced
    /// version files (`<base>@v<N>.emod`) are excluded — model selection
    /// resolves base ids and the rollout state decides which version
    /// serves; see [`ModelRegistry::versions`] for the version inventory.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be read.
    pub fn list(&self) -> Result<Vec<String>, ArtifactError> {
        let mut ids: Vec<String> = self
            .all_ids()?
            .into_iter()
            .filter(|id| split_version(id).is_none())
            .collect();
        ids.sort();
        Ok(ids)
    }

    /// Every artifact id on disk — base files and version files alike.
    fn all_ids(&self) -> Result<Vec<String>, ArtifactError> {
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| ArtifactError::Io(format!("read {}: {}", self.root.display(), e)))?;
        for entry in entries {
            let entry = entry.map_err(|e| ArtifactError::Io(format!("read dir entry: {}", e)))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    ids.push(stem.to_string());
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    fn rollout_path(&self, base: &str) -> PathBuf {
        self.root.join(format!("{}.{}", base, ROLLOUT_EXTENSION))
    }

    /// Loads the persisted rollout state for `base`, if any. A state file
    /// that no longer parses is moved aside to `<base>.rollout.bad` and
    /// treated as absent — serving then falls back to the steady state on
    /// the last-known-good base artifact rather than failing.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] only on filesystem read failure
    /// (other than the file not existing).
    pub fn load_rollout(&self, base: &str) -> Result<Option<RolloutState>, ArtifactError> {
        let path = self.rollout_path(base);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ArtifactError::Io(format!("read {}: {}", path.display(), e))),
        };
        let parsed = crate::json::Json::parse(text.trim())
            .map_err(|e| e.to_string())
            .and_then(|v| RolloutState::from_json(&v));
        match parsed {
            Ok(state) => Ok(Some(state)),
            Err(reason) => {
                let bad = path.with_extension(format!("{}.bad", ROLLOUT_EXTENSION));
                let _ = std::fs::rename(&path, &bad);
                telemetry::counter_add("serve.rollout.state_corrupt", 1);
                eprintln!(
                    "emod-serve: corrupt rollout state {} moved to {} ({})",
                    path.display(),
                    bad.display(),
                    reason
                );
                Ok(None)
            }
        }
    }

    /// Persists `state` atomically as `<base>.rollout` — the registry's
    /// activation pointer. Fault probe: `registry.activate` (this is the
    /// write that flips which version serves, so it is the natural place
    /// to inject activation failures).
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] on injected or real filesystem
    /// failure; the previous state file is left intact in that case.
    pub fn save_rollout(&self, state: &RolloutState) -> Result<PathBuf, ArtifactError> {
        faults::inject("registry.activate")
            .map_err(|e| ArtifactError::Io(format!("activate {}: {}", state.base, e)))?;
        let path = self.rollout_path(&state.base);
        let tmp = self.root.join(format!(
            ".{}.rollout.tmp-{}",
            state.base,
            std::process::id()
        ));
        let text = format!("{}\n", state.to_json());
        std::fs::write(&tmp, text)
            .map_err(|e| ArtifactError::Io(format!("write {}: {}", tmp.display(), e)))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            ArtifactError::Io(format!("rename to {}: {}", path.display(), e))
        })?;
        telemetry::counter_add("serve.rollout.state_saves", 1);
        Ok(path)
    }

    /// Base ids that have a persisted rollout state, sorted.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be read.
    pub fn rollouts(&self) -> Result<Vec<String>, ArtifactError> {
        let suffix = format!(".{}", ROLLOUT_EXTENSION);
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| ArtifactError::Io(format!("read {}: {}", self.root.display(), e)))?;
        for entry in entries {
            let entry = entry.map_err(|e| ArtifactError::Io(format!("read dir entry: {}", e)))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(base) = name.strip_suffix(&suffix) {
                if !base.is_empty() && !base.starts_with('.') {
                    ids.push(base.to_string());
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Ids currently quarantined (`<id>.emod.bad` files), sorted.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be read.
    pub fn quarantine(&self) -> Result<Vec<String>, ArtifactError> {
        let suffix = format!(".{}.bad", EXTENSION);
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| ArtifactError::Io(format!("read {}: {}", self.root.display(), e)))?;
        for entry in entries {
            let entry = entry.map_err(|e| ArtifactError::Io(format!("read dir entry: {}", e)))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name.strip_suffix(&suffix) {
                ids.push(id.to_string());
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Sweeps the registry, quarantining artifacts that no longer decode
    /// (corrupt, truncated, unsupported version) to `<id>.emod.bad` and
    /// deleting healthy version files no rollout references any more.
    /// Filesystem failures during the move are reported in the
    /// [`GcReport`], not swallowed.
    ///
    /// Ids a rollout state depends on — the active version, an in-flight
    /// canary, and the rollback target — are **never** collected, not even
    /// when their bytes are corrupt: rollback must always find its target
    /// on disk, and a corrupt active artifact is the operator's call, not
    /// the sweeper's. Protected ids are listed in [`GcReport::protected`].
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be scanned.
    pub fn gc(&self) -> Result<GcReport, ArtifactError> {
        let mut report = GcReport::default();
        // Ids named by any live rollout: the base file plus every version
        // in the active/canary/prev triple.
        let mut protected: HashSet<String> = HashSet::new();
        let mut rollout_bases: HashSet<String> = HashSet::new();
        for base in self.rollouts()? {
            if let Some(state) = self.load_rollout(&base)? {
                rollout_bases.insert(base.clone());
                protected.insert(base.clone());
                for v in state.protected_versions() {
                    protected.insert(version_id(&base, v));
                }
            }
        }
        report.protected = protected.iter().cloned().collect();
        report.protected.sort();
        for id in self.all_ids()? {
            if protected.contains(&id) {
                continue;
            }
            let path = self.path_of(&id);
            let decodes = std::fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| {
                    ModelArtifact::from_bytes(&bytes)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                });
            match decodes {
                Err(reason) => {
                    telemetry::write_or_recover(&self.cache).remove(&id);
                    match self.quarantine_file(&id, &path, &reason) {
                        Ok(()) => {
                            telemetry::counter_add("serve.registry.gc_removed", 1);
                            report.quarantined.push(id);
                        }
                        Err(e) => report.failures.push((id, e)),
                    }
                }
                Ok(()) => {
                    // A healthy version file whose base has a rollout state
                    // but which that state no longer references is stale —
                    // a rolled-back canary or a superseded active. Prune it.
                    let stale = match split_version(&id) {
                        Some((base, _)) => rollout_bases.contains(base),
                        None => false,
                    };
                    if stale {
                        telemetry::write_or_recover(&self.cache).remove(&id);
                        match std::fs::remove_file(&path) {
                            Ok(()) => {
                                telemetry::counter_add("serve.registry.gc_pruned", 1);
                                report.pruned.push(id);
                            }
                            Err(e) => report.failures.push((id, e.to_string())),
                        }
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactMeta, ModelArtifact};
    use emod_core::model::{ModelFamily, SurrogateModel};
    use emod_doe::{Parameter, ParameterSpace};
    use emod_models::Dataset;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_registry() -> (PathBuf, ModelRegistry) {
        let dir = std::env::temp_dir().join(format!(
            "emod-registry-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = ModelRegistry::open(&dir).unwrap();
        (dir, reg)
    }

    fn artifact(seed: u64) -> ModelArtifact {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![-1.0 + i as f64 / 6.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 + x[0]).collect();
        let train = Dataset::new(xs, ys).unwrap();
        let model = SurrogateModel::fit(&train, ModelFamily::Linear).unwrap();
        ModelArtifact {
            meta: ArtifactMeta {
                workload: "181.mcf".into(),
                input_set: "train".into(),
                metric: "cycles".into(),
                family: ModelFamily::Linear,
                scale: "quick".into(),
                seed,
                train_mape: 0.5,
                test_mape: 1.0,
                train_size: 12,
                test_size: 12,
            },
            space: ParameterSpace::new(vec![Parameter::flag("f")]),
            model,
            quality: emod_quality::DesignSummary::from_design(&train),
            train: train_clone(),
            test: train_clone(),
            history: vec![],
        }
    }

    fn train_clone() -> Dataset {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![-1.0 + i as f64 / 6.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 + x[0]).collect();
        Dataset::new(xs, ys).unwrap()
    }

    #[test]
    fn store_list_load_round_trip() {
        let (dir, reg) = temp_registry();
        let art = artifact(1);
        let path = reg.store(&art).unwrap();
        assert!(path.is_file());
        assert_eq!(reg.list().unwrap(), vec![art.id()]);
        assert!(reg.contains(&art.id()));
        let loaded = reg.load(&art.id()).unwrap();
        assert_eq!(loaded.meta, art.meta);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_uses_cache_after_first_read() {
        let (dir, reg) = temp_registry();
        let art = artifact(2);
        reg.store(&art).unwrap();
        // Fresh registry over the same dir: first load misses, second hits
        // the cache — observable because deleting the file doesn't break it.
        let reg2 = ModelRegistry::open(&dir).unwrap();
        let first = reg2.load(&art.id()).unwrap();
        std::fs::remove_file(dir.join(format!("{}.emod", art.id()))).unwrap();
        let second = reg2.load(&art.id()).unwrap();
        assert_eq!(first.meta, second.meta);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_quarantines_corrupt_artifacts_only() {
        let (dir, reg) = temp_registry();
        let good = artifact(3);
        reg.store(&good).unwrap();
        std::fs::write(dir.join("broken.emod"), b"garbage").unwrap();
        let report = reg.gc().unwrap();
        assert_eq!(report.quarantined, vec!["broken".to_string()]);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(reg.list().unwrap(), vec![good.id()]);
        // The bytes survive under .bad and the id stays listable.
        assert!(dir.join("broken.emod.bad").is_file());
        assert_eq!(reg.quarantine().unwrap(), vec!["broken".to_string()]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_load_quarantines_and_republish_recovers() {
        let (dir, reg) = temp_registry();
        let art = artifact(4);
        reg.store(&art).unwrap();
        let path = dir.join(format!("{}.emod", art.id()));
        std::fs::write(&path, b"not an artifact").unwrap();
        // A fresh registry (cold cache) must hit the corrupt bytes.
        let reg2 = ModelRegistry::open(&dir).unwrap();
        assert!(reg2.load(&art.id()).is_err());
        assert!(!path.is_file(), "corrupt file moved aside");
        assert_eq!(reg2.quarantine().unwrap(), vec![art.id()]);
        // Re-publishing the id clears the quarantined copy.
        reg2.store(&art).unwrap();
        assert!(reg2.quarantine().unwrap().is_empty());
        assert_eq!(reg2.load(&art.id()).unwrap().meta, art.meta);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_artifact_is_an_error() {
        let (dir, reg) = temp_registry();
        assert!(matches!(reg.load("no-such"), Err(ArtifactError::Io(_))));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_id_round_trips_and_base_ids_do_not_split() {
        assert_eq!(version_id("m", 0), "m");
        assert_eq!(version_id("m", 3), "m@v3");
        assert_eq!(split_version("m@v3"), Some(("m", 3)));
        assert_eq!(split_version("m"), None);
        assert_eq!(split_version("m@vx"), None);
    }

    #[test]
    fn versions_are_stored_beside_the_base_and_hidden_from_list() {
        let (dir, reg) = temp_registry();
        let art = artifact(10);
        let base = art.id();
        reg.store(&art).unwrap();
        reg.store_version(&art, 1).unwrap();
        reg.store_version(&art, 2).unwrap();
        assert_eq!(reg.versions(&base).unwrap(), vec![1, 2]);
        assert_eq!(reg.next_version(&base).unwrap(), 3);
        // list() shows only the base id; version files stay loadable.
        assert_eq!(reg.list().unwrap(), vec![base.clone()]);
        let v2 = reg.load_version(&base, 2).unwrap();
        assert_eq!(v2.meta, art.meta);
        let v0 = reg.load_version(&base, 0).unwrap();
        assert_eq!(v0.meta, art.meta);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rollout_state_persists_and_reloads() {
        let (dir, reg) = temp_registry();
        let mut st = crate::rollout::RolloutState::steady("some-model");
        st.phase = crate::rollout::RolloutPhase::Canary;
        st.active = 1;
        st.canary = Some(2);
        st.fraction = 0.5;
        st.record("canary_started", 2, "test");
        reg.save_rollout(&st).unwrap();
        assert_eq!(reg.rollouts().unwrap(), vec!["some-model".to_string()]);
        assert_eq!(reg.load_rollout("some-model").unwrap(), Some(st));
        assert_eq!(reg.load_rollout("absent").unwrap(), None);
        // A corrupt state file is moved aside and treated as absent.
        std::fs::write(dir.join("some-model.rollout"), "{broken").unwrap();
        assert_eq!(reg.load_rollout("some-model").unwrap(), None);
        assert!(dir.join("some-model.rollout.bad").is_file());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Satellite regression test: gc during a live rollout must leave the
    /// active version, the in-flight canary, and the rollback target (and
    /// the base file) intact — and still prune genuinely stale versions.
    #[test]
    fn gc_never_collects_active_canary_or_rollback_target() {
        let (dir, reg) = temp_registry();
        let art = artifact(11);
        let base = art.id();
        reg.store(&art).unwrap();
        for v in 1..=4 {
            reg.store_version(&art, v).unwrap();
        }
        // Live mid-rollout: v3 active, v4 canarying, v2 the rollback
        // target; v1 is a long-superseded version.
        let mut st = crate::rollout::RolloutState::steady(&base);
        st.phase = crate::rollout::RolloutPhase::Canary;
        st.active = 3;
        st.canary = Some(4);
        st.prev = Some(2);
        st.fraction = 0.2;
        reg.save_rollout(&st).unwrap();

        let report = reg.gc().unwrap();
        assert_eq!(report.pruned, vec![version_id(&base, 1)]);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        for v in [0u64, 2, 3, 4] {
            assert!(
                reg.load_version(&base, v).is_ok(),
                "version {} must survive gc during a live rollout",
                v
            );
        }
        assert!(reg.load_version(&base, 1).is_err(), "v1 was pruned");
        // Even a *corrupt* protected version is left alone: rollback must
        // find its target file, whatever state it is in.
        let canary_path = dir.join(format!("{}.emod", version_id(&base, 4)));
        std::fs::write(&canary_path, b"corrupt canary").unwrap();
        let report2 = reg.gc().unwrap();
        assert!(report2.quarantined.is_empty(), "{:?}", report2.quarantined);
        assert!(canary_path.is_file(), "protected file untouched");
        assert!(report2.protected.contains(&version_id(&base, 4)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn republish_replaces_the_cached_artifact() {
        let (dir, reg) = temp_registry();
        let mut art = artifact(21);
        reg.store(&art).unwrap();
        // Warm the cache with the first copy.
        assert_eq!(reg.load(&art.id()).unwrap().meta.train_mape, 0.5);
        // Republish under the same id with different metadata: the next
        // load must serve the new copy, not the warm stale one.
        art.meta.train_mape = 9.9;
        reg.store(&art).unwrap();
        assert_eq!(reg.load(&art.id()).unwrap().meta.train_mape, 9.9);
        // A fresh registry over the same directory decodes the new bytes.
        let cold = ModelRegistry::open(&dir).unwrap();
        assert_eq!(cold.load(&art.id()).unwrap().meta.train_mape, 9.9);
        let _ = std::fs::remove_dir_all(dir);
    }
}
