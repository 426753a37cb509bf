//! Microarchitecture-sensitive empirical models for compiler optimizations —
//! the end-to-end pipeline of Vaswani et al. (CGO 2007).
//!
//! The crate ties together the substrates:
//!
//! 1. [`vars`] defines the 25 predictor variables (Tables 1–2) as a
//!    `ParameterSpace` and maps design points to compiler + machine
//!    configurations,
//! 2. [`measure`] compiles a workload at a design point's flags and measures
//!    its execution time on the simulated microarchitecture (with SMARTS
//!    sampling), caching responses,
//! 3. [`builder`] runs the iterative model-building loop of the paper's
//!    Figure 1: D-optimal design → measure → fit → estimate error →
//!    augment,
//! 4. [`interpret`] extracts significance estimates for parameters and
//!    interactions (the paper's Table 4 analysis),
//! 5. [`tune`] searches for 'optimal' flag settings for a frozen
//!    microarchitecture with a model-guided genetic algorithm (§6.3).
//!
//! # Examples
//!
//! Building a small RBF model for one workload and tuning flags for the
//! paper's "typical" machine:
//!
//! ```no_run
//! use emod_core::builder::{BuildConfig, ModelBuilder};
//! use emod_core::model::ModelFamily;
//! use emod_core::tune;
//! use emod_uarch::UarchConfig;
//! use emod_workloads::{InputSet, Workload};
//!
//! let workload = Workload::by_name("181.mcf").unwrap();
//! let mut builder = ModelBuilder::new(workload, InputSet::Train, BuildConfig::quick(7));
//! let built = builder.build(ModelFamily::Rbf).unwrap();
//! println!("test error: {:.1}%", built.test_mape);
//! let tuned = tune::search_flags(&built, &UarchConfig::typical(), 7);
//! println!("suggested flags: {:?}", tuned.config);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod checkpoint;
pub mod interpret;
pub mod measure;
pub mod model;
pub mod tune;
pub mod vars;

pub use builder::{BuildConfig, BuiltModel, ModelBuilder};
pub use checkpoint::{Checkpoint, CheckpointEntry, CHECKPOINT_ENV};
pub use measure::{MeasureError, Measurer, Metric};
pub use model::{ModelFamily, SurrogateModel};
pub use vars::{decode_point, design_space, DesignPointExt};
