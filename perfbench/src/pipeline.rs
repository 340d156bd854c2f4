//! The paper's offline flow, as one pass: collect the CNN zoo on the five
//! evaluation GPUs, split it by network, train the E2E/LW/KW suite per
//! GPU, train IGKW on A100 + A40 + GTX 1080 Ti, evaluate on the held-out
//! networks, and run a small fleet sweep through an oracle built on the
//! trained suites.
//!
//! `train_eval` times this pass; the serving workloads run it in set-up to
//! produce (and validate) the suite they serve.

use crate::stats::{mean_abs_rel_error_pct, median, percentile, Row};
use crate::trace::{SpanId, Tracer};
use dnnperf_core::plan::network_fingerprint;
use dnnperf_core::{
    classify_view, cluster::DEFAULT_SLOPE_TOLERANCE, cluster_view, CompiledPlan, IgkwModel,
    PredictError, PredictionOracle, Predictor, TrainOptions, Workflow,
};
use dnnperf_data::collect::{collect_report_opts, evaluation_gpus, TRAIN_BATCH};
use dnnperf_data::split::split_names;
use dnnperf_data::{CollectOptions, Dataset, DatasetView};
use dnnperf_dnn::Network;
use dnnperf_gpu::{GpuSpec, Profiler};
use dnnperf_simkit::{
    simulate_fleet, ArrivalProcess, BatchingPolicy, FleetConfig, LeastLoaded, NoBatching,
    PlacementPolicy, PoolSpec, RequestClass, RoundRobin, SizeCap, WorkloadSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// GPU whose held-out error the KW/LW/E2E metrics report.
pub const EVAL_GPU: &str = "A100";
/// GPUs the inter-GPU model learns from.
pub const IGKW_TRAIN_GPUS: [&str; 3] = ["A100", "A40", "GTX 1080 Ti"];
/// The GPU IGKW predicts without a trained suite.
pub const IGKW_TARGET: &str = "TITAN RTX";
/// Folds of the split: each holds out about
/// [`dnnperf_data::split::TEST_FRACTION`] of the networks, the paper's test
/// share.
pub const FOLDS: usize = 7;
/// Paper band: KW error on A100 held-out networks, percent.
pub const KW_ERR_LIMIT_PCT: f64 = 10.0;
/// Paper band: IGKW error on TITAN RTX held-out networks, percent.
pub const IGKW_ERR_LIMIT_PCT: f64 = 20.0;

/// Fleet sweep: fixed workload seed (the run seed drives only the split
/// and the serving request stream).
const FLEET_SEED: u64 = 1701;
const FLEET_RATES: [f64; 2] = [200.0, 800.0];
const FLEET_HORIZON_S: f64 = 0.5;
const FLEET_NETS: usize = 8;
const FLEET_BATCHES: [usize; 2] = [1, 8];
/// Every `PROFILE_STRIDE`-th zoo network is re-profiled serially in the
/// traced run (the `gpu.profile_s` sample).
const PROFILE_STRIDE: usize = 16;

/// Held-out mean absolute relative errors, percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// KW on A100.
    pub kw: f64,
    /// LW on A100.
    pub lw: f64,
    /// E2E on A100.
    pub e2e: f64,
    /// IGKW on TITAN RTX.
    pub igkw: f64,
}

impl Accuracy {
    /// Why these errors leave the paper band, if they do.
    pub fn band_violation(&self) -> Option<String> {
        if self.kw.is_nan() || self.kw > KW_ERR_LIMIT_PCT {
            return Some(format!(
                "KW A100 error {:.2}% > {KW_ERR_LIMIT_PCT}%",
                self.kw
            ));
        }
        if self.igkw.is_nan() || self.igkw > IGKW_ERR_LIMIT_PCT {
            return Some(format!(
                "IGKW error {:.2}% > {IGKW_ERR_LIMIT_PCT}%",
                self.igkw
            ));
        }
        if !(self.e2e > self.lw && self.lw > self.kw) {
            return Some(format!(
                "ordering E2E > LW > KW broken: {:.2}% / {:.2}% / {:.2}%",
                self.e2e, self.lw, self.kw
            ));
        }
        None
    }
}

/// What one pass produced.
pub struct Pass {
    /// Suites trained on every network, in [`evaluation_gpus`] order.
    pub suites: Vec<Arc<Workflow>>,
    /// Held-out errors.
    pub accuracy: Accuracy,
    /// KW held-out error per evaluation GPU, percent.
    pub kw_by_gpu: Vec<(String, f64)>,
    /// Held-out predictions and fleet points attempted.
    pub attempted: u64,
    /// `PredictError`s and fleet points that failed or broke conservation.
    pub failed: u64,
    /// Wall time of each held-out prediction, microseconds.
    pub latencies_us: Vec<f64>,
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Kernel rows collected.
    pub kernel_rows: usize,
    /// Grid points that produced no rows (OOM, invalid, dropped).
    pub networks_skipped: u64,
    /// Distinct kernels of the final A100 KW model.
    pub kw_kernels: usize,
    /// Regression models of the final A100 KW model.
    pub kw_models: usize,
    /// Requests the fleet sweep completed.
    pub fleet_completed: u64,
    /// Plans cached by the oracle's suites after the sweep.
    pub cached_plans: usize,
}

impl Pass {
    /// The trained suite for `gpu`.
    pub fn suite(&self, gpu: &str) -> Option<&Arc<Workflow>> {
        self.suites.iter().find(|s| s.kw.gpu() == gpu)
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
fn stage<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, Option<SpanId>) {
    match tracer {
        Some(t) => {
            let (out, id) = t.span(name, parent, request, f);
            (out, Some(id))
        }
        None => (f(), None),
    }
}

fn spec(name: &str) -> GpuSpec {
    GpuSpec::by_name(name).unwrap_or_else(|| panic!("{name} is a Table 1 GPU"))
}

/// Measured end-to-end seconds per network name for one GPU of `ds`.
fn measured(ds: &Dataset, gpu: &str) -> BTreeMap<Arc<str>, f64> {
    ds.networks
        .iter()
        .filter(|r| &*r.gpu == gpu && r.batch as usize == TRAIN_BATCH)
        .map(|r| (Arc::clone(&r.network), r.e2e_seconds))
        .collect()
}

/// Times each prediction of `predict` over the networks of `zoo` measured
/// in `truth`; returns the `(predicted, measured)` pairs.
fn evaluate(
    zoo: &[Network],
    truth: &BTreeMap<Arc<str>, f64>,
    latencies_us: &mut Vec<f64>,
    attempted: &mut u64,
    failed: &mut u64,
    predict: &dyn Fn(&Network) -> Result<f64, PredictError>,
) -> Vec<(f64, f64)> {
    let mut pairs = Vec::new();
    for net in zoo {
        let Some(&m) = truth.get(net.name()) else {
            continue;
        };
        *attempted += 1;
        let t0 = Instant::now();
        let p = predict(std::hint::black_box(net));
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match p {
            Ok(p) if p.is_finite() && p > 0.0 => pairs.push((p, m)),
            _ => *failed += 1,
        }
    }
    pairs
}

/// The fleet sweep's request classes: a fixed spread of zoo networks at
/// two batch sizes.
fn fleet_catalog(zoo: &[Network]) -> (Vec<Network>, Vec<RequestClass>) {
    let step = (zoo.len() / FLEET_NETS).max(1);
    let catalog: Vec<Network> = zoo.iter().step_by(step).take(FLEET_NETS).cloned().collect();
    let classes = (0..catalog.len())
        .flat_map(|network| {
            FLEET_BATCHES.iter().map(move |&batch| RequestClass {
                tenant: "fleet".into(),
                network,
                batch,
                weight: 1.0,
            })
        })
        .collect();
    (catalog, classes)
}

fn fleet_config() -> FleetConfig {
    let pool = |name: &str, gpu: &str, gpus: usize| PoolSpec {
        name: name.into(),
        gpu: spec(gpu),
        gpus,
        queue_cap: Some(16),
    };
    FleetConfig {
        pools: vec![
            pool("a100-pool", "A100", 2),
            pool("v100-pool", "V100", 2),
            // No suite for this GPU: priced by the IGKW fallback.
            pool("titan-pool", IGKW_TARGET, 1),
        ],
        slo_seconds: 0.05,
        queue_samples: 4,
    }
}

/// Runs the fleet sweep; returns (completed, points, failed points).
fn fleet_sweep(zoo: &[Network], oracle: &PredictionOracle) -> (u64, u64, u64) {
    let (catalog, classes) = fleet_catalog(zoo);
    let cfg = fleet_config();
    let (mut completed, mut points, mut failed) = (0, 0, 0);
    for rate in FLEET_RATES {
        let combos: [(Box<dyn PlacementPolicy>, Box<dyn BatchingPolicy>); 2] = [
            (Box::<RoundRobin>::default(), Box::new(NoBatching)),
            (Box::new(LeastLoaded), Box::new(SizeCap { max_batch: 4 })),
        ];
        for (mut placement, batching) in combos {
            let wl = WorkloadSpec {
                classes: classes.clone(),
                arrivals: ArrivalProcess::Poisson { rate_rps: rate },
                seed: FLEET_SEED,
                horizon_seconds: FLEET_HORIZON_S,
            };
            points += 1;
            match simulate_fleet(
                &catalog,
                &wl,
                &cfg,
                placement.as_mut(),
                batching.as_ref(),
                oracle,
            ) {
                Ok(report) if report.conservation_ok() => completed += report.completed,
                _ => failed += 1,
            }
        }
    }
    (completed, points, failed)
}

/// Folds of the seeded split: the networks in the order of the program's
/// seeded shuffle ([`split_names`]), cut into [`FOLDS`] parts of about
/// [`dnnperf_data::split::TEST_FRACTION`] each.
pub fn folds(names: &[String], seed: u64) -> Vec<BTreeSet<String>> {
    let (_, shuffled) = split_names(names, 1.0, seed);
    let n = shuffled.len();
    (0..FOLDS)
        .map(|f| {
            shuffled[f * n / FOLDS..(f + 1) * n / FOLDS]
                .iter()
                .cloned()
                .collect()
        })
        .collect()
}

/// Held-out `(predicted, measured)` pairs pooled over the folds.
#[derive(Default)]
struct Pooled {
    kw: BTreeMap<String, Vec<(f64, f64)>>,
    lw: Vec<(f64, f64)>,
    e2e: Vec<(f64, f64)>,
    igkw: Vec<(f64, f64)>,
}

/// Trains the E2E/LW/KW suite of every evaluation GPU and the IGKW model
/// on `train`, each step a span when tracing.
fn train_models(
    tracer: &mut Option<&mut Tracer>,
    train: &Dataset,
    threads: usize,
    parent: Option<SpanId>,
    pass_id: u64,
) -> (Vec<Arc<Workflow>>, IgkwModel, Option<SpanId>) {
    let opts = TrainOptions::with_threads(threads);
    let (suites, span) = stage(tracer, "core.train_suite", parent, pass_id, || {
        evaluation_gpus()
            .iter()
            .map(|g| {
                Workflow::train_opts(train, &g.name, &opts)
                    .map(Arc::new)
                    .unwrap_or_else(|e| panic!("training the {} suite failed: {e}", g.name))
            })
            .collect::<Vec<_>>()
    });
    let igkw_gpus: Vec<GpuSpec> = IGKW_TRAIN_GPUS.iter().map(|g| spec(g)).collect();
    let (igkw, _) = stage(tracer, "core.train_igkw", parent, pass_id, || {
        IgkwModel::train(train, &igkw_gpus).unwrap_or_else(|e| panic!("training IGKW failed: {e}"))
    });
    (suites, igkw, span)
}

/// One collect → split → train → IGKW → evaluate → fleet pass over `zoo`.
///
/// The split is [`FOLDS`]-fold by network: each fold in turn is the
/// held-out set, so every network is predicted once by models that never
/// saw it, and the errors pool all folds. Then the models are trained once
/// more on every network, as a deployment would; the fleet sweep, the
/// returned suites and the serving workloads use those, so they do not
/// depend on the split seed.
///
/// With a tracer, every step is a span under one `pipeline.pass` span,
/// and the steps hidden inside collection and training are replayed one
/// layer down afterwards: `gpu.profile` (serial profiling of a fixed grid
/// sample), `dataset.view_build`, `core.classify` and `core.cluster` (on
/// the A100 rows), and the oracle's `core.plan.*` path.
pub fn run_pass(
    zoo: &[Network],
    split_seed: u64,
    threads: usize,
    pass_id: u64,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let started = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("pipeline.pass", None, pass_id));
    let gpus = evaluation_gpus();
    let titan = spec(IGKW_TARGET);
    let collect_opts = CollectOptions::with_threads(threads);

    let ((ds, report), collect_span) = stage(&mut tracer, "dataset.collect", root, pass_id, || {
        collect_report_opts(zoo, &gpus, &[TRAIN_BATCH], &collect_opts)
    });
    let names = ds.network_names();
    let mut pooled = Pooled::default();
    let mut latencies_us = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for held_out in folds(&names, split_seed) {
        let ((train, test), _) = stage(&mut tracer, "dataset.split", root, pass_id, || {
            let rest: BTreeSet<String> = names
                .iter()
                .filter(|n| !held_out.contains(*n))
                .cloned()
                .collect();
            (ds.for_networks(&rest), ds.for_networks(&held_out))
        });
        let (suites, igkw, _) = train_models(&mut tracer, &train, threads, root, pass_id);
        stage(&mut tracer, "core.eval", root, pass_id, || {
            let mut run =
                |truth: &BTreeMap<Arc<str>, f64>,
                 predict: &dyn Fn(&Network) -> Result<f64, PredictError>| {
                    evaluate(
                        zoo,
                        truth,
                        &mut latencies_us,
                        &mut attempted,
                        &mut failed,
                        predict,
                    )
                };
            for suite in &suites {
                let gpu = suite.kw.gpu();
                let truth = measured(&test, gpu);
                let kw = run(&truth, &|net| suite.kw.predict_network(net, TRAIN_BATCH));
                pooled.kw.entry(gpu.to_string()).or_default().extend(kw);
                if gpu == EVAL_GPU {
                    pooled.lw.extend(run(&truth, &|net| {
                        suite.lw.predict_network(net, TRAIN_BATCH)
                    }));
                    pooled.e2e.extend(run(&truth, &|net| {
                        suite.e2e.predict_network(net, TRAIN_BATCH)
                    }));
                }
            }
            let truth = measured(&test, IGKW_TARGET);
            let igkw_pairs = run(&truth, &|net| {
                igkw.predict_network_on(net, TRAIN_BATCH, &titan)
            });
            pooled.igkw.extend(igkw_pairs);
        });
    }
    let (suites, igkw, train_span) = train_models(&mut tracer, &ds, threads, root, pass_id);

    let mut oracle = PredictionOracle::new();
    for suite in suites.iter().filter(|s| s.kw.gpu() != IGKW_TARGET) {
        oracle.add_suite(Arc::clone(suite));
    }
    oracle.set_igkw(igkw);
    let ((fleet_completed, points, fleet_failed), fleet_span) =
        stage(&mut tracer, "simkit.fleet", root, pass_id, || {
            fleet_sweep(zoo, &oracle)
        });
    attempted += points;
    failed += fleet_failed;
    let cached_plans = suites.iter().map(|s| s.cached_plans()).sum();

    let wall_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
        replay_training_layers(
            t,
            zoo,
            &gpus,
            &ds,
            threads,
            pass_id,
            collect_span,
            train_span,
        );
        replay_plan_layers(t, zoo, &suites, pass_id, fleet_span);
    }

    let err = |pairs: &[(f64, f64)]| mean_abs_rel_error_pct(pairs);
    let a100 = suites.iter().find(|s| s.kw.gpu() == EVAL_GPU);
    Pass {
        accuracy: Accuracy {
            kw: pooled.kw.get(EVAL_GPU).map_or(f64::NAN, |p| err(p)),
            lw: err(&pooled.lw),
            e2e: err(&pooled.e2e),
            igkw: err(&pooled.igkw),
        },
        kw_by_gpu: pooled.kw.iter().map(|(g, p)| (g.clone(), err(p))).collect(),
        attempted,
        failed,
        latencies_us,
        wall_s,
        kernel_rows: ds.kernels.len(),
        networks_skipped: report.oom_skipped + report.invalid_requests + report.dropped,
        kw_kernels: a100.map_or(0, |s| s.kw.num_kernels()),
        kw_models: a100.map_or(0, |s| s.kw.num_models()),
        fleet_completed,
        cached_plans,
        suites,
    }
}

/// Replays the layers hidden inside collection and KW training.
#[allow(clippy::too_many_arguments)]
fn replay_training_layers(
    t: &mut Tracer,
    zoo: &[Network],
    gpus: &[GpuSpec],
    train: &Dataset,
    threads: usize,
    pass_id: u64,
    collect_span: Option<SpanId>,
    train_span: Option<SpanId>,
) {
    t.span("gpu.profile", collect_span, pass_id, || {
        for gpu in gpus {
            let profiler = Profiler::new(gpu.clone());
            for net in zoo.iter().step_by(PROFILE_STRIDE) {
                // Out-of-memory grid points are skipped, as in collection.
                let _ = std::hint::black_box(profiler.profile(net, TRAIN_BATCH));
            }
        }
    });
    let rows: Vec<_> = train
        .kernels
        .iter()
        .filter(|r| &*r.gpu == EVAL_GPU)
        .collect();
    let (view, _) = t.span("dataset.view_build", train_span, pass_id, || {
        DatasetView::from_refs(&rows)
    });
    let (classes, _) = t.span("core.classify", train_span, pass_id, || {
        classify_view(&view, threads)
    });
    t.span("core.cluster", train_span, pass_id, || {
        cluster_view(&view, &classes, DEFAULT_SLOPE_TOLERANCE, threads)
    });
}

/// Replays the oracle's compiled-plan path for the fleet's request classes
/// on every suite the oracle holds: `core.plan.fingerprint`,
/// `core.plan.compile` and `core.plan.sweep`, one span each.
fn replay_plan_layers(
    t: &mut Tracer,
    zoo: &[Network],
    suites: &[Arc<Workflow>],
    pass_id: u64,
    fleet_span: Option<SpanId>,
) {
    let (catalog, classes) = fleet_catalog(zoo);
    for suite in suites.iter().filter(|s| s.kw.gpu() != IGKW_TARGET) {
        for class in &classes {
            let net = &catalog[class.network];
            t.span("core.plan.fingerprint", fleet_span, pass_id, || {
                network_fingerprint(std::hint::black_box(net))
            });
            let (plan, _) = t.span("core.plan.compile", fleet_span, pass_id, || {
                CompiledPlan::compile(suite, net, class.batch)
            });
            if let Ok(plan) = plan {
                t.span("core.plan.sweep", fleet_span, pass_id, || plan.predict());
            }
        }
    }
}

/// Median duration in seconds of the spans called `name`.
fn median_s(t: &Tracer, name: &str) -> f64 {
    median(&t.durations_ns(name)) / 1e9
}

/// Per-layer metrics of the pipeline passes recorded in `t`; counts come
/// from `pass` (every pass reproduces them exactly).
pub fn pipeline_rows(t: &Tracer, pass: &Pass) -> Vec<Row> {
    let collect_s = median_s(t, "dataset.collect");
    vec![
        ("dataset.collect_s", collect_s, "s"),
        ("dataset.kernel_rows", pass.kernel_rows as f64, "count"),
        (
            "dataset.rows_per_s",
            pass.kernel_rows as f64 / collect_s,
            "1/s",
        ),
        (
            "dataset.networks_skipped",
            pass.networks_skipped as f64,
            "count",
        ),
        (
            "dataset.view_build_s",
            median_s(t, "dataset.view_build"),
            "s",
        ),
        ("gpu.profile_s", median_s(t, "gpu.profile"), "s"),
        ("core.classify_s", median_s(t, "core.classify"), "s"),
        ("core.cluster_s", median_s(t, "core.cluster"), "s"),
        ("core.train_suite_s", median_s(t, "core.train_suite"), "s"),
        ("core.train_igkw_s", median_s(t, "core.train_igkw"), "s"),
        ("core.kw_kernels", pass.kw_kernels as f64, "count"),
        ("core.kw_models", pass.kw_models as f64, "count"),
        ("core.eval_s", median_s(t, "core.eval"), "s"),
        ("simkit.fleet_s", median_s(t, "simkit.fleet"), "s"),
        (
            "simkit.requests_completed",
            pass.fleet_completed as f64,
            "count",
        ),
        (
            "core.oracle.cached_plans",
            pass.cached_plans as f64,
            "count",
        ),
    ]
}

/// `core.plan.*` metrics from the replayed oracle plan path in `t`.
pub fn plan_rows(t: &Tracer) -> Vec<Row> {
    let mut compile = t.durations_ns("core.plan.compile");
    vec![
        (
            "core.plan.fingerprint_ns",
            median(&t.durations_ns("core.plan.fingerprint")),
            "ns",
        ),
        (
            "core.plan.sweep_ns",
            median(&t.durations_ns("core.plan.sweep")),
            "ns",
        ),
        ("core.plan.compile_ns", median(&compile), "ns"),
        (
            "core.plan.compile_p99_ns",
            percentile(&mut compile, 99.0),
            "ns",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::split::TEST_FRACTION;

    #[test]
    fn folds_partition_the_networks_in_test_sized_parts() {
        assert_eq!(FOLDS, (1.0 / TEST_FRACTION).round() as usize);
        let names: Vec<String> = (0..646).map(|i| format!("net{i}")).collect();
        let f = folds(&names, 7);
        assert_eq!(f.len(), FOLDS);
        let all: BTreeSet<&String> = f.iter().flatten().collect();
        assert_eq!(all.len(), names.len());
        assert_eq!(f.iter().map(BTreeSet::len).sum::<usize>(), names.len());
        assert!(f.iter().all(|p| p.len() == 92 || p.len() == 93));
        assert_eq!(folds(&names, 7), f);
        assert_ne!(folds(&names, 8), f);
    }

    #[test]
    fn paper_band_is_enforced() {
        let ok = Accuracy {
            kw: 7.0,
            lw: 30.0,
            e2e: 35.0,
            igkw: 15.0,
        };
        assert_eq!(ok.band_violation(), None);
        assert!(Accuracy { kw: 10.5, ..ok }.band_violation().is_some());
        assert!(Accuracy { igkw: 21.0, ..ok }.band_violation().is_some());
        assert!(Accuracy { lw: 36.0, ..ok }.band_violation().is_some());
        assert!(Accuracy { kw: f64::NAN, ..ok }.band_violation().is_some());
    }
}
