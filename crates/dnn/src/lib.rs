//! DNN workload representation for dnnperf.
//!
//! This crate plays the role the paper assigns to PyTorch + TorchVision +
//! HuggingFace + the `thop` FLOPs counter: it defines a layer-level IR for
//! inference workloads ([`Layer`], [`Network`]), performs shape inference
//! ([`shape`]), counts theoretical FLOPs / bytes / parameters ([`flops`]), and
//! generates the 646-network model zoo the paper's dataset is built from
//! ([`zoo`]).
//!
//! Everything here is *static* information — exactly what the paper's
//! predictor is allowed to see ("FLOPs and input/output details can be readily
//! obtained by static DNNs analysis without pre-running ... on any hardware").
//!
//! # Examples
//!
//! ```
//! use dnnperf_dnn::zoo;
//!
//! let net = zoo::resnet::resnet50();
//! assert_eq!(net.name(), "ResNet-50");
//! // ~4.1 GFLOPs (multiplications only) per image at 224x224.
//! let gflops = net.total_flops() as f64 / 1e9;
//! assert!(gflops > 3.0 && gflops < 5.0);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod fingerprint;
pub mod flops;
pub mod graph;
pub mod layer;
pub mod shape;
pub mod zoo;

pub use builder::NetworkBuilder;
pub use graph::{Family, Network};
pub use layer::{
    ActivationFn, Conv2d, Embedding, Layer, LayerKind, Linear, MatMul, Pool2d, PoolKind,
};
pub use shape::{ShapeError, TensorShape};
