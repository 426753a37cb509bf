//! On-disk model registry: a directory of `<id>.emod` artifact files.
//!
//! The registry root comes from `EMOD_REGISTRY` (default `./registry`).
//! Stores are atomic (temp file + rename), loads go through an in-process
//! cache shared across server worker threads.
//!
//! Corruption policy (DESIGN.md §10): an artifact that no longer decodes
//! is **quarantined** — renamed to `<id>.emod.bad` so the evidence
//! survives for post-mortem — never silently deleted. [`ModelRegistry::load`]
//! quarantines on a failed decode, and re-publishing an id clears its
//! `.bad` copy (recovery). Fault probes: `registry.store`, `registry.load`.
//!
//! Base ids never contain `@` (see `ArtifactMeta::id`), so
//! [`ModelRegistry::list`] skips `.emod` files whose stem does, such as the
//! version files of the removed refresh loop (DESIGN.md §15).

use crate::artifact::{ArtifactError, ModelArtifact};
use emod_faults as faults;
use emod_telemetry as telemetry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Environment variable naming the registry root directory.
pub const REGISTRY_ENV: &str = "EMOD_REGISTRY";

/// Default registry root when `EMOD_REGISTRY` is unset.
pub const DEFAULT_ROOT: &str = "./registry";

/// File extension of artifact files (without the dot).
pub const EXTENSION: &str = "emod";

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
        let id = artifact.id();
        faults::inject("registry.store")
            .map_err(|e| ArtifactError::Io(format!("store {}: {}", id, e)))?;
        let path = self.path_of(&id);
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
        let bad = self.bad_path_of(&id);
        if bad.is_file() {
            match std::fs::remove_file(&bad) {
                Ok(()) => {
                    telemetry::counter_add("serve.registry.recovered", 1);
                    telemetry::event("serve", "artifact_recovered", &[("id", id.as_str().into())]);
                }
                Err(e) => eprintln!(
                    "emod-serve: could not clear quarantined copy {}: {}",
                    bad.display(),
                    e
                ),
            }
        }
        telemetry::write_or_recover(&self.cache).insert(id, Arc::new(artifact.clone()));
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

    /// Ids of all artifacts on disk, sorted. Stems containing `@` are not
    /// artifact ids and are skipped.
    ///
    /// # Errors
    ///
    /// Returns an [`ArtifactError::Io`] if the directory cannot be read.
    pub fn list(&self) -> Result<Vec<String>, ArtifactError> {
        let mut ids = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| ArtifactError::Io(format!("read {}: {}", self.root.display(), e)))?;
        for entry in entries {
            let entry = entry.map_err(|e| ArtifactError::Io(format!("read dir entry: {}", e)))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if !stem.contains('@') {
                        ids.push(stem.to_string());
                    }
                }
            }
        }
        ids.sort();
        Ok(ids)
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
        // A stem with `@` is not an artifact id and is never listed.
        std::fs::write(dir.join(format!("{}@v1.emod", art.id())), b"garbage").unwrap();
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
        // The bytes survive under `.bad` for post-mortem.
        let bad = dir.join(format!("{}.emod.bad", art.id()));
        assert_eq!(std::fs::read(&bad).unwrap(), b"not an artifact");
        assert!(reg2.list().unwrap().is_empty(), "a .bad file is not listed");
        // Re-publishing the id clears the quarantined copy.
        reg2.store(&art).unwrap();
        assert!(!bad.exists());
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
