//! dnnperf-core: linear-regression-based GPU execution time prediction for
//! DNN workloads — the paper's primary contribution.
//!
//! Four models, in increasing complexity and accuracy (Section 5):
//!
//! * [`E2eModel`] — one regression of end-to-end time on total network FLOPs;
//! * [`LwModel`] — one regression per layer *type* on layer FLOPs;
//! * [`KwModel`] — kernel-level regressions: a learned layer-to-kernel
//!   mapping table, automatic classification of every kernel as input-,
//!   operation- or output-driven (by best R², observation O5), and
//!   clustering of kernels with similar linear behaviour so ~180 kernels
//!   share ~80 regressions;
//! * [`IgkwModel`] — the Inter-GPU extension: per-kernel slopes are
//!   themselves regressed against the reciprocal of GPU memory bandwidth
//!   (O6), so the model can predict GPUs absent from the training set,
//!   including hypothetical ones.
//!
//! All models implement [`Predictor`] and are trained purely from a
//! [`dnnperf_data::Dataset`] — never from the simulator's hidden parameters.
//!
//! A trained [`Workflow`] predicts through [`CompiledPlan`]s held in a
//! [`SharedPlanCache`]: the one plan cache of the workspace — sharded,
//! LRU and memory-budgeted, keyed by `(suite generation, network
//! fingerprint, batch)`. Clones of a suite share it, the
//! [`PredictionOracle`] draws from it, and the `dnnperf-serve` prediction
//! server runs its own instance of it.
//!
//! # Examples
//!
//! ```
//! use dnnperf_core::{E2eModel, Predictor};
//! use dnnperf_data::collect::collect;
//! use dnnperf_dnn::zoo;
//! use dnnperf_gpu::GpuSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nets: Vec<_> = (1..6).map(|w| zoo::mobilenet::mobilenet_v2(w as f64 * 0.25, 1.0)).collect();
//! let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[64]);
//! let model = E2eModel::train(&ds, "A100")?;
//! let t = model.predict_network(&zoo::mobilenet::mobilenet_v2(0.6, 1.0), 64)?;
//! assert!(t > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Predictor-side code must degrade gracefully, never crash: a stray
// `unwrap` would turn a recoverable modelling failure into a panic.
// dnnperf-lint's panic-policy pass verifies this attribute stays in place.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod classify;
pub mod cluster;
pub mod degrade;
pub mod e2e;
pub mod error;
pub mod intergpu;
pub mod kernelwise;
pub mod layerwise;
pub mod mapping;
pub mod model;
pub mod oracle;
pub mod overhead;
mod par;
pub mod persist;
pub mod plan;
pub mod workflow;

pub use cache::{CacheConfig, CacheStats, SharedPlanCache};
pub use classify::{classify_kernels, classify_view, Driver, KernelClassification};
pub use cluster::{cluster_kernels, cluster_view, Clustering};
pub use degrade::{Degradation, GracefulPrediction};
pub use e2e::E2eModel;
pub use error::{PredictError, TrainError};
pub use intergpu::IgkwModel;
pub use kernelwise::{KwModel, LayerCoverage};
pub use layerwise::LwModel;
pub use mapping::{KernelMap, LayerSignature};
pub use model::Predictor;
pub use oracle::{OraclePrediction, OracleSource, PredictionOracle};
pub use overhead::{KwWithOverhead, OverheadModel};
pub use persist::PersistError;
pub use plan::CompiledPlan;
pub use workflow::{TrainOptions, Workflow};
