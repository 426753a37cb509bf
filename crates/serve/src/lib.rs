//! `emod-serve`: persistent model artifacts and a concurrent
//! prediction/tuning server.
//!
//! Two layers, both zero-dependency (std only):
//!
//! * **Artifacts** — [`artifact::ModelArtifact`] is a versioned, checksummed
//!   on-disk serialization of a trained surrogate (model + parameter space +
//!   measured designs + provenance) that predicts bit-identically after a
//!   round trip. [`registry::ModelRegistry`] is a directory of artifacts
//!   keyed by id, rooted at `EMOD_REGISTRY` (default `./registry`).
//! * **Serving** — [`server::Server`] is a TCP server speaking
//!   newline-delimited JSON ([`json::Json`]) with commands `list_models`,
//!   `predict`, `predict_batch`, `tune`, `stats`,
//!   `rollout`/`promote`/`rollback`/`refresh` and `shutdown`. Its
//!   connection front ([`reactor_front`], built on `emod-reactor`, DESIGN.md
//!   §16) is one epoll event loop that multiplexes every connection onto
//!   `--workers` handler threads and answers each connection's requests
//!   in order. epoll makes the server Linux only.
//! * **Closed loop** — [`rollout`] is the canaried rollout state machine
//!   over refresh-produced artifact versions, and [`refresh`] measures
//!   enqueued design points, retrains, and publishes candidates the state
//!   machine then canaries, promotes, or rolls back.

#![warn(missing_docs)]

pub mod artifact;
pub mod client;
pub mod codecs;
pub mod json;
pub mod reactor_front;
pub mod refresh;
pub mod registry;
pub mod rollout;
pub mod server;
pub mod slo;

pub use artifact::{ArtifactError, ArtifactMeta, ModelArtifact, FORMAT_VERSION};
pub use client::{Client, RetryPolicy};
pub use json::Json;
pub use registry::{GcReport, ModelRegistry, REGISTRY_ENV};
pub use rollout::{RolloutConfig, RolloutPhase, RolloutState};
pub use server::Server;
pub use slo::{SloConfig, SloSnapshot, SloTracker};
