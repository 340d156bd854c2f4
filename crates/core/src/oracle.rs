//! Plan lookup as a simulation oracle: compiled-plan predictions (with
//! the graceful-degradation ladder's notes) plus an inter-GPU fallback,
//! behind one lookup surface an event-driven simulator can consume.
//!
//! The paper's pitch is that a fast analytical predictor can *drive
//! decisions*, not just produce point estimates. The fleet simulator in
//! `dnnperf-simkit` needs exactly one thing from the prediction stack: a
//! service time for "network `n` at batch `b` on GPU `g`". This module
//! packages that as [`PredictionOracle`]:
//!
//! * GPUs with a trained [`Workflow`] are priced through the compiled
//!   plan ([`CompiledPlan::predict_graceful`]) — bit-identical to
//!   [`Workflow::predict_graceful`], [`Degradation`] notes included, so
//!   the simulator can annotate results whose service times leaned on a
//!   coarser model;
//! * GPUs never profiled fall back to the Inter-GPU Kernel-Wise model
//!   ([`IgkwModel::predict_network_on`]), flagged as
//!   [`OracleSource::Igkw`].
//!
//! Plan lookups go through [`Workflow::plan`], so they draw from the
//! suite's memory-budgeted [`SharedPlanCache`] — the same cache
//! implementation the prediction server uses.
//!
//! The oracle consumes only public model surfaces — compiled plans and
//! IGKW fits — never `dnnperf_gpu::timing`; the oracle-isolation lint
//! pass enforces that boundary for this module and for every simulator
//! built on it.
//!
//! [`CompiledPlan::predict_graceful`]: crate::plan::CompiledPlan::predict_graceful
//! [`SharedPlanCache`]: crate::cache::SharedPlanCache

use crate::degrade::{Degradation, GracefulPrediction};
use crate::error::PredictError;
use crate::intergpu::IgkwModel;
use crate::model::Predictor;
use crate::workflow::Workflow;
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which model family priced an oracle request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleSource {
    /// A compiled plan against a trained single-GPU suite (the ladder's
    /// notes say how much of the time came from coarser rungs).
    CompiledPlan,
    /// The Inter-GPU Kernel-Wise model: the GPU was never profiled.
    Igkw,
}

/// One oracle answer: the predicted seconds, how they were produced, and
/// every degradation note the ladder recorded along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct OraclePrediction {
    /// Predicted service time in seconds.
    pub seconds: f64,
    /// Degradation-ladder notes (empty for full KW coverage and for the
    /// IGKW path, which has no per-layer coverage account).
    pub notes: Vec<Degradation>,
    /// The model family that produced the number.
    pub source: OracleSource,
}

impl OraclePrediction {
    /// Whether any part of the prediction leaned on a coarser model (a
    /// ladder fallback, or the whole-GPU IGKW fallback).
    pub fn is_degraded(&self) -> bool {
        !self.notes.is_empty() || self.source == OracleSource::Igkw
    }
}

/// Service-time oracle over trained suites with an inter-GPU fallback.
/// See the module docs for the design.
#[derive(Default)]
pub struct PredictionOracle {
    suites: BTreeMap<String, Arc<Workflow>>,
    igkw: Option<IgkwModel>,
}

impl PredictionOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        PredictionOracle::default()
    }

    /// Registers the trained suite for one GPU (keyed by the suite's GPU
    /// name as trained). Replaces any previous suite for that GPU.
    pub fn add_suite(&mut self, suite: Arc<Workflow>) {
        self.suites.insert(suite.kw.gpu().to_string(), suite);
    }

    /// Installs the Inter-GPU Kernel-Wise fallback for GPUs without a
    /// trained suite.
    pub fn set_igkw(&mut self, igkw: IgkwModel) {
        self.igkw = Some(igkw);
    }

    /// The trained suite registered for `gpu`, if any.
    pub fn suite_for(&self, gpu: &str) -> Option<&Arc<Workflow>> {
        self.suites.get(gpu)
    }

    /// Whether requests on `gpu` can be priced at all (suite or IGKW).
    pub fn covers(&self, gpu: &str) -> bool {
        self.suites.contains_key(gpu) || self.igkw.is_some()
    }

    /// Number of registered per-GPU suites.
    pub fn num_suites(&self) -> usize {
        self.suites.len()
    }

    /// Prices one request on `gpu`: the compiled plan of the GPU's
    /// trained suite when one is registered (bit-identical to
    /// [`Workflow::predict_graceful`], notes included), otherwise the
    /// IGKW fallback.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::NoModelForGpu`] when neither a suite nor
    /// the IGKW fallback covers `gpu`, and propagates validation or
    /// compilation errors from the underlying predictors.
    pub fn predict(
        &self,
        gpu: &GpuSpec,
        net: &Network,
        batch: usize,
    ) -> Result<OraclePrediction, PredictError> {
        if let Some(suite) = self.suites.get(&gpu.name) {
            let plan = suite.plan(net, batch)?;
            let GracefulPrediction { seconds, notes } = plan.predict_graceful();
            return Ok(OraclePrediction {
                seconds,
                notes,
                source: OracleSource::CompiledPlan,
            });
        }
        if let Some(igkw) = &self.igkw {
            let seconds = igkw.predict_network_on(net, batch, gpu)?;
            return Ok(OraclePrediction {
                seconds,
                notes: Vec::new(),
                source: OracleSource::Igkw,
            });
        }
        Err(PredictError::NoModelForGpu {
            gpu: gpu.name.clone(),
        })
    }
}

impl std::fmt::Debug for PredictionOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionOracle")
            .field("suites", &self.suites.keys().collect::<Vec<_>>())
            .field("igkw", &self.igkw.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;

    fn suite(gpu: &str, nets: &[Network]) -> Arc<Workflow> {
        let spec = GpuSpec::by_name(gpu).unwrap();
        let ds = collect(nets, &[spec], &[32]);
        Arc::new(Workflow::train(&ds, gpu).unwrap())
    }

    fn vgg_only() -> Vec<Network> {
        vec![
            dnnperf_dnn::zoo::vgg::vgg11(),
            dnnperf_dnn::zoo::vgg::vgg13(),
            dnnperf_dnn::zoo::vgg::vgg16(),
        ]
    }

    #[test]
    fn plan_path_is_bit_identical_to_predict_graceful_notes_included() {
        let suite = suite("A100", &vgg_only());
        let mut oracle = PredictionOracle::new();
        oracle.add_suite(Arc::clone(&suite));
        // Out-of-family probe: every ladder rung fires.
        let probe = dnnperf_dnn::zoo::resnet::resnet18();
        let gpu = GpuSpec::by_name("A100").unwrap();
        let got = oracle.predict(&gpu, &probe, 32).unwrap();
        let want = suite.predict_graceful(&probe, 32).unwrap();
        assert_eq!(got.seconds.to_bits(), want.seconds.to_bits());
        assert_eq!(got.notes, want.notes);
        assert_eq!(got.source, OracleSource::CompiledPlan);
        assert!(got.is_degraded());
    }

    #[test]
    fn unprofiled_gpu_falls_back_to_igkw() {
        let nets = vgg_only();
        let train_gpus = [
            GpuSpec::by_name("A100").unwrap(),
            GpuSpec::by_name("A40").unwrap(),
            GpuSpec::by_name("GTX 1080 Ti").unwrap(),
        ];
        let ds = collect(&nets, &train_gpus, &[32]);
        let igkw = IgkwModel::train(&ds, &train_gpus).unwrap();
        let mut oracle = PredictionOracle::new();
        oracle.add_suite(suite("A100", &nets));
        oracle.set_igkw(igkw.clone());

        let titan = GpuSpec::by_name("TITAN RTX").unwrap();
        let got = oracle.predict(&titan, &nets[0], 32).unwrap();
        let want = igkw.predict_network_on(&nets[0], 32, &titan).unwrap();
        assert_eq!(got.seconds.to_bits(), want.to_bits());
        assert_eq!(got.source, OracleSource::Igkw);
        assert!(got.is_degraded());
        assert!(got.notes.is_empty());
    }

    #[test]
    fn uncovered_gpu_is_a_typed_error() {
        let oracle = PredictionOracle::new();
        let gpu = GpuSpec::by_name("A100").unwrap();
        let net = dnnperf_dnn::zoo::resnet::resnet18();
        assert_eq!(
            oracle.predict(&gpu, &net, 8).unwrap_err(),
            PredictError::NoModelForGpu { gpu: "A100".into() }
        );
        assert!(!oracle.covers("A100"));
    }
}
