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
//!   `predict`, `predict_batch`, `explain`, `tune`, `observe`, `stats`,
//!   `health`, `metrics` and `shutdown`. Its connection front
//!   ([`reactor_front`], built on `emod-reactor`, DESIGN.md §16) is
//!   `--workers` threads that share one one-shot epoll poller; the thread
//!   handed a ready connection runs its requests and answers them in
//!   order. epoll makes the server Linux only.

#![warn(missing_docs)]

pub mod artifact;
pub mod client;
pub mod codecs;
pub mod json;
pub mod reactor_front;
pub mod registry;
pub mod server;

pub use artifact::{ArtifactError, ArtifactMeta, ModelArtifact, FORMAT_VERSION};
pub use client::{Client, RetryPolicy};
pub use json::Json;
pub use registry::{ModelRegistry, REGISTRY_ENV};
pub use server::Server;
