//! The train-then-predict workflow of the paper's Figure 10: a training
//! dataset goes in, a set of trained analytical models comes out, and new
//! network structures are fed to the models for prediction.

use crate::cache::{CacheConfig, SharedPlanCache};
use crate::cluster::DEFAULT_SLOPE_TOLERANCE;
use crate::e2e::E2eModel;
use crate::error::{PredictError, TrainError};
use crate::kernelwise::KwModel;
use crate::layerwise::LwModel;
use crate::model::Predictor;
use crate::par;
use crate::plan::CompiledPlan;
use dnnperf_data::collect::collect_opts;
use dnnperf_data::{CollectOptions, Dataset};
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide generation counter: every training run (and every
/// in-place invalidation) mints a fresh, never-reused suite generation.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Options for model training (the analogue of
/// [`dnnperf_data::CollectOptions`] for the training side of the
/// pipeline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainOptions {
    /// Worker threads for suite training: one trains E2E and LW beside
    /// KW, the rest run KW's per-kernel classification fits and
    /// per-cluster pooled refits. `0` (the default) means "auto": use
    /// [`std::thread::available_parallelism`]. `1` disables threading.
    /// The trained models are byte-identical for every worker count.
    pub threads: usize,
}

impl TrainOptions {
    /// Serial training (the conservative default of [`Workflow::train`]).
    pub fn serial() -> Self {
        TrainOptions { threads: 1 }
    }

    /// Training on `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        TrainOptions { threads }
    }

    /// Options from the environment: `DNNPERF_THREADS` — worker count;
    /// unparsable or zero means auto.
    pub fn from_env() -> Self {
        let threads = std::env::var("DNNPERF_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        TrainOptions { threads }
    }

    /// The worker count after resolving `0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }
}

/// A trained model suite for one GPU: the three single-GPU models of
/// Section 5.
#[derive(Debug)]
pub struct Workflow {
    /// The End-to-End model.
    pub e2e: E2eModel,
    /// The Layer-Wise model.
    pub lw: LwModel,
    /// The Kernel-Wise model.
    pub kw: KwModel,
    /// Compiled-plan cache for the serving hot path, bounded by
    /// [`CacheConfig::default`]. Clones share it; entries are keyed by
    /// the suite generation, see [`Workflow::invalidate_plans`].
    plans: Arc<SharedPlanCache>,
    /// Suite generation: a process-unique id minted at train time and
    /// re-minted by [`Workflow::invalidate_plans`]. Plan-cache keys carry
    /// it, so a retrained suite can never serve its predecessor's plans.
    generation: AtomicU64,
}

impl Clone for Workflow {
    fn clone(&self) -> Self {
        Workflow {
            e2e: self.e2e.clone(),
            lw: self.lw.clone(),
            kw: self.kw.clone(),
            // Same models, same generation: the ancestor's compiled plans
            // stay valid, so the clone shares its cache and starts warm.
            plans: Arc::clone(&self.plans),
            generation: AtomicU64::new(self.generation()),
        }
    }
}

impl Workflow {
    /// Trains all three single-GPU models on one GPU's measurements.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from the individual models.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::{Predictor, Workflow};
    /// use dnnperf_data::collect::collect;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// # fn main() -> Result<(), dnnperf_core::TrainError> {
    /// let nets = [
    ///     dnnperf_dnn::zoo::resnet::resnet18(),
    ///     dnnperf_dnn::zoo::resnet::resnet34(),
    ///     dnnperf_dnn::zoo::vgg::vgg11(),
    /// ];
    /// let ds = collect(&nets, &[GpuSpec::by_name("V100").unwrap()], &[32]);
    /// let suite = Workflow::train(&ds, "V100")?;
    /// let net = dnnperf_dnn::zoo::resnet::resnet50();
    /// let t = suite.kw.predict_network(&net, 32).unwrap();
    /// assert!(t > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn train(dataset: &Dataset, gpu: &str) -> Result<Self, TrainError> {
        Workflow::train_opts(dataset, gpu, &TrainOptions::serial())
    }

    /// Trains the suite with explicit [`TrainOptions`]: E2E and LW train
    /// beside KW, and the KW model's per-kernel classification fits and
    /// per-cluster pooled refits fan out over the scheduler's
    /// work-stealing pool. The trained suite is byte-identical to
    /// [`Workflow::train`] for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] in serial order: E2E's, then
    /// LW's, then KW's.
    pub fn train_opts(
        dataset: &Dataset,
        gpu: &str,
        opts: &TrainOptions,
    ) -> Result<Self, TrainError> {
        Workflow::train_with_opts(dataset, gpu, dnnperf_linreg::Estimator::Ols, opts)
    }

    /// Trains the suite with an explicit regression estimator for the E2E
    /// and LW models ([`dnnperf_linreg::Estimator::Huber`] bounds the
    /// influence of corrupted measurements that survived collection
    /// hygiene). The KW model's clustered per-kernel fits keep the paper's
    /// least-squares estimator.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from the individual models.
    pub fn train_with(
        dataset: &Dataset,
        gpu: &str,
        estimator: dnnperf_linreg::Estimator,
    ) -> Result<Self, TrainError> {
        Workflow::train_with_opts(dataset, gpu, estimator, &TrainOptions::serial())
    }

    /// [`Workflow::train_with`] plus explicit [`TrainOptions`]. With more
    /// than one worker, E2E and LW train on one side thread while KW
    /// trains on the caller's and fans its fits out over the remaining
    /// workers.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] in serial order: E2E's, then
    /// LW's, then KW's, whatever the worker count.
    pub fn train_with_opts(
        dataset: &Dataset,
        gpu: &str,
        estimator: dnnperf_linreg::Estimator,
        opts: &TrainOptions,
    ) -> Result<Self, TrainError> {
        let threads = opts.effective_threads();
        let e2e_lw = || {
            (
                E2eModel::train_with(dataset, gpu, estimator),
                LwModel::train_with(dataset, gpu, estimator),
            )
        };
        let kw =
            |threads| KwModel::train_with_options(dataset, gpu, DEFAULT_SLOPE_TOLERANCE, threads);
        // The side thread is one of the `threads` workers, so KW fans out
        // over the rest: never more threads at once than asked for (each
        // extra concurrent thread costs the allocator another arena).
        let ((e2e, lw), kw) = if threads > 1 {
            par::join(e2e_lw, || kw(threads - 1))
        } else {
            (e2e_lw(), kw(threads))
        };
        Ok(Workflow {
            e2e: e2e?,
            lw: lw?,
            kw: kw?,
            plans: Arc::new(SharedPlanCache::new(&CacheConfig::default())),
            generation: AtomicU64::new(next_generation()),
        })
    }

    /// The compiled plan for `(net, batch)`, from the suite's plan cache
    /// (compiled on first use). Repeated predictions of the same request
    /// share one plan and never re-run dispatch or cluster resolution.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] or
    /// [`PredictError::EmptyNetwork`] for structurally invalid requests.
    pub fn plan(&self, net: &Network, batch: usize) -> Result<Arc<CompiledPlan>, PredictError> {
        self.plans.get_or_compile(self, net, batch)
    }

    /// Predicts `net`'s end-to-end time with the KW model through the
    /// compiled-plan cache: bit-identical to
    /// `self.kw.predict_network(net, batch)`, but repeated calls are a
    /// flat array sweep instead of per-layer mapping and cluster lookups.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::ZeroBatch`] or
    /// [`PredictError::EmptyNetwork`] for structurally invalid requests.
    pub fn predict(&self, net: &Network, batch: usize) -> Result<f64, PredictError> {
        Ok(self.plan(net, batch)?.predict())
    }

    /// Suite generation: a process-unique id minted at train time. Two
    /// suites from different training runs never share a generation, and
    /// [`Workflow::invalidate_plans`] mints a fresh one, so a
    /// [`SharedPlanCache`] keyed on `(generation, network fingerprint,
    /// batch)` — this suite's own, or a serving cache — structurally
    /// cannot return a plan compiled against retired models.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Mints a fresh suite generation, retiring every plan cached for
    /// the old one. Call this after mutating the suite's public model
    /// fields in place (retraining produces a fresh [`Workflow`] with its
    /// own generation, so the usual train → serve flow never needs it).
    /// Nothing is purged: the retired entries can no longer be reached
    /// and age out under the cache's memory budget, so invalidating a
    /// clone never drains its ancestor's plans.
    pub fn invalidate_plans(&self) {
        self.generation.store(next_generation(), Ordering::Relaxed);
    }

    /// Number of plans currently cached for the suite's generation.
    pub fn cached_plans(&self) -> usize {
        self.plans.len_generation(self.generation())
    }

    /// The three models as trait objects, in increasing complexity order.
    pub fn models(&self) -> [&dyn Predictor; 3] {
        [&self.e2e, &self.lw, &self.kw]
    }

    /// Measure-then-train in one step: collects `nets` on `gpu` through the
    /// shared collection engine (work-stealing parallelism plus the
    /// content-addressed dataset cache, per `opts`) and trains the suite on
    /// the result. Repeated invocations with a cache directory skip the
    /// profiling step entirely.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from the individual models.
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::Workflow;
    /// use dnnperf_data::CollectOptions;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// # fn main() -> Result<(), dnnperf_core::TrainError> {
    /// let nets = [
    ///     dnnperf_dnn::zoo::resnet::resnet18(),
    ///     dnnperf_dnn::zoo::resnet::resnet34(),
    ///     dnnperf_dnn::zoo::vgg::vgg11(),
    /// ];
    /// let gpu = GpuSpec::by_name("V100").unwrap();
    /// let suite = Workflow::collect_and_train(
    ///     &nets,
    ///     &gpu,
    ///     &[32],
    ///     &CollectOptions::with_threads(2),
    /// )?;
    /// assert_eq!(suite.models().len(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn collect_and_train(
        nets: &[Network],
        gpu: &GpuSpec,
        batches: &[usize],
        opts: &CollectOptions,
    ) -> Result<Self, TrainError> {
        let (ds, _stats) = collect_opts(nets, std::slice::from_ref(gpu), batches, opts);
        Workflow::train(&ds, &gpu.name)
    }
}

/// Pairs each test network's prediction with its measured time from the
/// dataset (matching on network name and batch size). Networks missing a
/// measurement or failing prediction are skipped.
pub fn predictions_vs_measurements<P: Predictor + ?Sized>(
    model: &P,
    nets: &[Network],
    batch: usize,
    measured: &Dataset,
) -> Vec<(String, f64, f64)> {
    nets.iter()
        .filter_map(|net| {
            let meas = measured.networks.iter().find(|r| {
                &*r.network == net.name() && r.batch == batch as u32 && &*r.gpu == model.gpu()
            })?;
            let pred = model.predict_network(net, batch).ok()?;
            Some((net.name().to_string(), pred, meas.e2e_seconds))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intergpu::{IgkwModel, TransferMetric};
    use crate::testdata::{self, Experiment, Sharing, GPUS};
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::GpuSpec;
    use dnnperf_testkit::prelude::*;

    /// The suite's three model files, or the training error.
    fn suite_text(ds: &Dataset, gpu: &str, threads: usize) -> Result<[String; 3], TrainError> {
        Workflow::train_opts(ds, gpu, &TrainOptions::with_threads(threads))
            .map(|w| [w.e2e.to_text(), w.lw.to_text(), w.kw.to_text()])
    }

    /// The IGKW model file over [`GPUS`] at `workers`, or the error.
    fn igkw_text(ds: &Dataset, workers: usize) -> Result<String, TrainError> {
        let gpus: Vec<GpuSpec> = GPUS.iter().filter_map(|g| GpuSpec::by_name(g)).collect();
        IgkwModel::train_on(ds, &gpus, TransferMetric::Bandwidth, true, workers)
            .map(|m| m.to_text())
    }

    props! {
        #[test]
        fn suite_is_identical_at_every_width(
            experiments in testdata::arb_experiments(testdata::arb_seconds(), 1..12),
        ) {
            let ds = testdata::dataset(&experiments);
            for gpu in GPUS {
                let serial = suite_text(&ds, gpu, 1);
                for threads in [2, 8] {
                    prop_assert_eq!(suite_text(&ds, gpu, threads), serial.clone(), "{} at {}", gpu, threads);
                }
            }
        }

        #[test]
        fn igkw_is_identical_at_every_width(
            experiments in testdata::arb_experiments(testdata::arb_seconds(), 3..16),
        ) {
            let ds = testdata::dataset(&experiments);
            let serial = igkw_text(&ds, 1);
            for workers in [2, 3, 8] {
                prop_assert_eq!(igkw_text(&ds, workers), serial.clone(), "workers {}", workers);
            }
        }
    }

    /// One experiment per (network, GPU) with `layers`, each network at its
    /// own batch, names interned per experiment as collection does.
    fn grid(layers: &[testdata::SynthLayer]) -> Vec<Experiment> {
        (0..4)
            .flat_map(|net| (0..GPUS.len()).map(move |gpu| (net, gpu)))
            .map(|(net, gpu)| {
                (
                    net,
                    gpu,
                    1 << (2 * net),
                    layers.to_vec(),
                    Sharing::PerExperiment,
                )
            })
            .collect()
    }

    /// Three layers of distinct sizes; every kernel has rows on every GPU.
    fn healthy_layers(seconds: f64) -> Vec<testdata::SynthLayer> {
        vec![
            (0, 64, vec![(0, seconds), (1, seconds * 2.0)]),
            (1, 4096, vec![(2, seconds * 3.0)]),
            (2, 50_000, vec![(0, seconds * 4.0), (3, seconds)]),
        ]
    }

    /// Training outcome at threads 1, 2 and 8 for the suite, and at widths
    /// 1, 2 and 8 plus the public entry point for IGKW: each must agree.
    /// Outcomes compare by their `Debug` text, so a NaN in an error equals
    /// itself.
    fn same_at_every_width(what: &str, ds: &Dataset, gpu: &str) -> Result<[String; 3], TrainError> {
        let serial = suite_text(ds, gpu, 1);
        for threads in [2, 8] {
            let got = suite_text(ds, gpu, threads);
            assert_eq!(
                format!("{got:?}"),
                format!("{serial:?}"),
                "{what}: suite at {threads}"
            );
        }
        let igkw = format!("{:?}", igkw_text(ds, 1));
        for workers in [2, 8] {
            assert_eq!(
                format!("{:?}", igkw_text(ds, workers)),
                igkw,
                "{what}: IGKW at {workers}"
            );
        }
        let gpus: Vec<GpuSpec> = GPUS.iter().filter_map(|g| GpuSpec::by_name(g)).collect();
        let public = IgkwModel::train(ds, &gpus).map(|m| m.to_text());
        assert_eq!(format!("{public:?}"), igkw, "{what}: IgkwModel::train");
        serial
    }

    #[test]
    fn adversarial_training_inputs_give_one_answer_at_every_width() {
        for (what, bad) in [
            ("NaN", f64::NAN),
            ("negative", -1e-3),
            ("infinite", f64::INFINITY),
        ] {
            let ds = testdata::dataset(&grid(&healthy_layers(bad)));
            for gpu in GPUS {
                match same_at_every_width(what, &ds, gpu) {
                    Err(TrainError::InvalidSeconds { what, seconds }) => {
                        assert_eq!(what, format!("E2E model for {gpu}"));
                        assert!(!(seconds.is_finite() && seconds >= 0.0));
                    }
                    other => panic!("{what} seconds on {gpu}: {other:?}"),
                }
            }
            // Past E2E, each model rejects its own rows.
            assert!(matches!(
                LwModel::train(&ds, "A40"),
                Err(TrainError::InvalidSeconds { .. })
            ));
            assert!(matches!(
                crate::KwModel::train(&ds, "A40"),
                Err(TrainError::InvalidSeconds { .. })
            ));
            assert!(matches!(
                igkw_text(&ds, 2),
                Err(TrainError::InvalidSeconds { .. })
            ));
        }
        // Every kernel symbol on exactly one row, in one experiment: E2E
        // has one sample, and the other GPUs have none.
        let one: Experiment = (
            0,
            0,
            8,
            vec![
                (0, 64, vec![(0, 1e-4), (1, 2e-4), (2, 3e-4)]),
                (1, 300, vec![(3, 4e-4), (4, 5e-4)]),
            ],
            Sharing::PerRow,
        );
        let single = testdata::dataset(std::slice::from_ref(&one));
        assert!(matches!(
            same_at_every_width("single-row kernels", &single, "A100"),
            Err(TrainError::Fit {
                source: dnnperf_linreg::FitError::TooFewPoints { got: 1 },
                ..
            })
        ));
        assert!(matches!(
            same_at_every_width("single-row kernels", &single, "A40"),
            Err(TrainError::NoDataForGpu { gpu }) if gpu == "A40"
        ));
        // Single-row kernels beside healthy ones still train: such a kernel
        // gets a constant model.
        let mut mixed = grid(&healthy_layers(1e-4));
        mixed.push(one);
        let ds = testdata::dataset(&mixed);
        assert!(same_at_every_width("single-row kernels", &ds, "A100").is_ok());
        // Every row has the same drivers, every network the same FLOPs:
        // E2E's slope is undefined.
        let flat: Vec<testdata::SynthLayer> = (0..3)
            .map(|_| (0, 300, vec![(0, 1e-4), (1, 2e-4)]))
            .collect();
        let same_batch: Vec<Experiment> = grid(&flat)
            .into_iter()
            .map(|(n, g, _, l, s)| (n, g, 8, l, s))
            .collect();
        let identical = testdata::dataset(&same_batch);
        for gpu in GPUS {
            assert!(matches!(
                same_at_every_width("identical drivers", &identical, gpu),
                Err(TrainError::Fit {
                    source: dnnperf_linreg::FitError::DegenerateX,
                    ..
                })
            ));
        }
    }

    #[test]
    fn errors_keep_serial_precedence_at_every_width() {
        let healthy = testdata::dataset(&grid(&healthy_layers(1e-4)));
        // A GPU with no rows fails in the first model, E2E.
        assert_eq!(
            same_at_every_width("GPU with no rows", &healthy, "V100"),
            Err(TrainError::NoDataForGpu { gpu: "V100".into() })
        );
        // Kernel rows but no network rows: E2E's error wins over a KW that
        // trains.
        let mut no_networks = healthy.clone();
        no_networks.networks.retain(|r| &*r.gpu != "A40");
        assert!(Workflow::train(&no_networks, "A100").is_ok());
        assert_eq!(
            same_at_every_width("no network rows", &no_networks, "A40"),
            Err(TrainError::NoDataForGpu { gpu: "A40".into() })
        );
        // Network and layer rows but no kernel rows: KW's error, after E2E
        // and LW trained.
        let mut no_kernels = healthy.clone();
        no_kernels.kernels.retain(|r| &*r.gpu != "A40");
        assert_eq!(
            same_at_every_width("no kernel rows", &no_kernels, "A40"),
            Err(TrainError::NoDataForGpu { gpu: "A40".into() })
        );
        assert!(E2eModel::train(&no_kernels, "A40").is_ok());
        // IGKW names the first GPU, in training order, that has no rows.
        let mut two_missing = healthy;
        two_missing.kernels.retain(|r| &*r.gpu == "A100");
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                igkw_text(&two_missing, workers),
                Err(TrainError::NoDataForGpu { gpu: "A40".into() })
            );
        }
    }

    #[test]
    fn suite_trains_and_orders_models() {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let suite = Workflow::train(&ds, "A100").unwrap();
        let names: Vec<&str> = suite.models().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["E2E", "LW", "KW"]);
    }

    #[test]
    fn collect_and_train_equals_manual_pipeline() {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let gpu = GpuSpec::by_name("A100").unwrap();
        // Through the engine (parallel, uncached)...
        let engine = Workflow::collect_and_train(
            &nets,
            &gpu,
            &[32],
            &dnnperf_data::CollectOptions::with_threads(3),
        )
        .unwrap();
        // ...matches collect-then-train by hand.
        let ds = collect(&nets, std::slice::from_ref(&gpu), &[32]);
        let manual = Workflow::train(&ds, "A100").unwrap();
        let probe = dnnperf_dnn::zoo::resnet::resnet50();
        for (a, b) in engine.models().iter().zip(manual.models()) {
            assert_eq!(
                a.predict_network(&probe, 32).unwrap(),
                b.predict_network(&probe, 32).unwrap()
            );
        }
    }

    #[test]
    fn predictions_pair_with_measurements() {
        let nets = vec![
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::resnet::resnet34(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        let suite = Workflow::train(&ds, "A100").unwrap();
        let pairs = predictions_vs_measurements(&suite.kw, &nets, 32, &ds);
        assert_eq!(pairs.len(), 3);
        for (_, pred, meas) in pairs {
            assert!(pred > 0.0 && meas > 0.0);
        }
        // Wrong batch size: nothing to pair with.
        assert!(predictions_vs_measurements(&suite.kw, &nets, 999, &ds).is_empty());
    }
}
