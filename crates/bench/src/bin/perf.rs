//! PERF: serving hot-path microbenchmarks with a regression gate.
//!
//! Measures the stages the compiled-plan work optimises — full-grid
//! dataset collection, plan compilation, and cold/warm/legacy prediction
//! sweeps — with the in-tree timer (untimed warmup, median-of-k
//! summaries). These derived figures anchor the regression gate:
//!
//! * **warm over reference** — the serving hot path: warm-predict
//!   ns/kernel (median sweep time divided by the number of compiled kernel
//!   terms in the sweep, itself recorded) over the ns/term of a reference
//!   sweep timed in the same process: the plan sweep's arithmetic over
//!   fixed arrays, with no plan, cache or fingerprint around it. The two
//!   are timed in back-to-back pairs, so the box's speed and load cancel
//!   out and the ratio gates the hot path rather than the box;
//! * **warm-vs-legacy speedup** — compiled sweep vs the uncompiled
//!   `KwModel::predict_network` on identical requests (machine-relative,
//!   so the gate travels across hardware);
//! * **workflow over sweep** — the warm `Workflow::predict` sweep (key
//!   fingerprint + plan-cache lookup + plan sweep) over the same sweep run
//!   on plans compiled up front (plan sweep alone): the cost of the layer
//!   a caller hits relative to the layer below it. A ratio, so it travels
//!   across hardware too;
//! * **server over workflow** — the same warm sweep through an in-process
//!   [`PredictionServer::predict`] (tenant and catalog resolution,
//!   admission, inline cache hit) over the warm `Workflow::predict`
//!   sweep: what the serving layer adds on top of the layer below it;
//! * **compile over sweep** — the cold sweep (compile every pair's plan,
//!   then sweep it) over the plan sweep of the same pairs: the cost of a
//!   cache miss in units of the hit it turns into. Gated against the
//!   committed baseline, so the compile path (mapping-table probes and
//!   the nearest-signature fallback) cannot quietly slow down.
//!
//! Training throughput and scaling live in the `train_scaling` bin.
//! Flags and the report format are the shared gate interface
//! ([`dnnperf_bench::gate`]); the report is BENCH_5.json.

use dnnperf_bench::gate::{Figure, Gate, Report, Rule};
use dnnperf_bench::timer::bench;
use dnnperf_core::plan::CompiledPlan;
use dnnperf_core::{Predictor, Workflow};
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_serve::{PredictionServer, ServerConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Maximum tolerated regression of warm-over-reference vs the baseline.
/// On a 2-core box whose raw warm figure swung 3.2–6.3 ns/kernel between
/// runs, 20 `--smoke` runs read 2.71–3.48 against the 3.065 baseline, and
/// 20 runs with every warm prediction done twice read 5.53–6.61; 1.5x
/// (a 4.60 ceiling) passes the first and fails the second.
const MAX_WARM_OVER_REFERENCE_REGRESSION: f64 = 1.5;

/// Terms in the reference sweep: about as many as the warm sweep prices.
const REFERENCE_TERMS: usize = 6736;
/// Distinct models the reference sweep's terms gather from.
const REFERENCE_MODELS: usize = 80;

/// The reference sweep: the compiled-plan sweep's per-term arithmetic —
/// gather a slope and an intercept by model id, add
/// `(slope * x + intercept).max(0.0)` to one running sum — over fixed
/// arrays.
struct ReferenceSweep {
    features: Vec<f64>,
    model_of: Vec<usize>,
    slopes: Vec<f64>,
    intercepts: Vec<f64>,
}

impl ReferenceSweep {
    fn new() -> Self {
        // Scattered ids and a few negative terms, as a real plan has.
        ReferenceSweep {
            features: (0..REFERENCE_TERMS)
                .map(|i| ((i * 7919) % 1000) as f64 * 1e3 + 1.0)
                .collect(),
            model_of: (0..REFERENCE_TERMS)
                .map(|i| (i * 37) % REFERENCE_MODELS)
                .collect(),
            slopes: (1..=REFERENCE_MODELS).map(|m| m as f64 * 1e-12).collect(),
            intercepts: (0..REFERENCE_MODELS)
                .map(|m| (m % 7) as f64 * 1e-7 - 1e-7)
                .collect(),
        }
    }

    fn run(&self) -> f64 {
        let mut s = 0.0;
        for (x, &i) in self.features.iter().zip(&self.model_of) {
            let slope = self.slopes.get(i).copied().unwrap_or(0.0);
            let intercept = self.intercepts.get(i).copied().unwrap_or(0.0);
            s += (slope * x + intercept).max(0.0);
        }
        s
    }
}

/// Maximum tolerated regression of compile-over-sweep vs the baseline.
/// Repeated `--smoke` runs on one box mostly read within 15 % of the
/// baseline, with outliers from 0.6x to 1.75x; 2.5x clears those and
/// still fails a compile path that allocates and takes logarithms per
/// mapping-table probe, which reads 2.2x to 4.7x.
const MAX_COMPILE_OVER_SWEEP_REGRESSION: f64 = 2.5;

/// The prediction sweep: held-out networks across a batch scan — the
/// repeated-request pattern the plan cache exists for.
fn sweep_pairs() -> Vec<(Network, usize)> {
    let probes = [
        zoo::resnet::resnet77(),
        zoo::resnet::resnet101(),
        zoo::vgg::vgg13(),
        zoo::densenet::densenet169(),
        zoo::mobilenet::mobilenet_v2(1.4, 1.0),
    ];
    let mut pairs = Vec::new();
    for net in probes {
        for batch in [1usize, 8, 32, 64] {
            pairs.push((net.clone(), batch));
        }
    }
    pairs
}

/// The median, over `rounds` back-to-back pairs, of one run of `a` over
/// one run of `b`, after `warmup` untimed pairs. Each pair runs within
/// microseconds, so both sides see the same box speed and load.
fn paired_ratio<A, B>(
    warmup: u32,
    rounds: u32,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> f64 {
    for _ in 0..warmup {
        black_box(a());
        black_box(b());
    }
    let ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            black_box(a());
            let ta = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(b());
            ta / t.elapsed().as_secs_f64()
        })
        .collect();
    dnnperf_linreg::percentile(&ratios, 50.0)
}

fn run(smoke: bool) -> Report {
    // (warmup, iters) per stage; collection is orders of magnitude slower
    // than prediction, so it gets fewer iterations.
    let (slow_w, slow_i, fast_w, fast_i) = if smoke { (1, 3, 2, 9) } else { (2, 9, 5, 41) };

    let gpu = GpuSpec::by_name("A100").expect("A100 spec");
    let nets = dnnperf_bench::gate_train_nets();
    let batches = [8usize, 16, 32, 64];
    let mut entries = Vec::new();

    entries.push(bench("collect/full_grid", slow_w, slow_i, || {
        collect(&nets, std::slice::from_ref(&gpu), &batches)
    }));
    let ds = collect(&nets, std::slice::from_ref(&gpu), &batches);

    let suite = Arc::new(Workflow::train(&ds, "A100").expect("train"));
    let pairs = sweep_pairs();
    let sweep_kernel_terms: usize = pairs
        .iter()
        .map(|(n, b)| suite.plan(n, *b).expect("plan").num_terms())
        .sum();
    suite.invalidate_plans();

    let (net0, batch0) = (&pairs[0].0, pairs[0].1);
    entries.push(bench("plan/compile", fast_w, fast_i, || {
        CompiledPlan::compile(&suite, net0, batch0).expect("compile")
    }));

    let cold = bench("predict/cold_sweep", fast_w, fast_i, || {
        pairs
            .iter()
            .map(|(n, b)| {
                CompiledPlan::compile(&suite, n, *b)
                    .expect("compile")
                    .predict()
            })
            .sum::<f64>()
    });
    let cold_ns = cold.median_ns;
    entries.push(cold);
    let warm = bench("predict/warm_sweep", fast_w, fast_i, || {
        pairs
            .iter()
            .map(|(n, b)| suite.predict(n, *b).expect("predict"))
            .sum::<f64>()
    });
    // The same sweep through the in-process server, after one pre-warm
    // pass (all misses, compiled by the workers): every timed request is
    // a cache hit answered on this thread.
    let server = PredictionServer::start(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    server.register_tenant("perf", Arc::clone(&suite));
    server.add_networks(pairs.iter().map(|(n, _)| n.clone()));
    let server_sweep_once = || {
        pairs
            .iter()
            .map(|(n, b)| server.predict("perf", n.name(), *b).expect("serve"))
            .sum::<f64>()
    };
    server_sweep_once();
    let server_sweep = bench("predict/server_sweep", fast_w, fast_i, server_sweep_once);
    server.shutdown();
    let plans: Vec<_> = pairs
        .iter()
        .map(|(n, b)| suite.plan(n, *b).expect("plan"))
        .collect();
    let plan_sweep = bench("predict/plan_sweep", fast_w, fast_i, || {
        plans.iter().map(|p| p.predict()).sum::<f64>()
    });
    let legacy = bench("predict/legacy_sweep", fast_w, fast_i, || {
        pairs
            .iter()
            .map(|(n, b)| suite.kw.predict_network(n, *b).expect("predict"))
            .sum::<f64>()
    });

    let reference_sweep = ReferenceSweep::new();
    let warm_sweep_over_reference = paired_ratio(
        fast_w,
        if smoke { 41 } else { 201 },
        || {
            pairs
                .iter()
                .map(|(n, b)| suite.predict(n, *b).expect("predict"))
                .sum::<f64>()
        },
        || black_box(&reference_sweep).run(),
    );

    let warm_ns_per_kernel = warm.median_ns / sweep_kernel_terms as f64;
    let warm_over_reference =
        warm_sweep_over_reference * REFERENCE_TERMS as f64 / sweep_kernel_terms as f64;
    let warm_vs_legacy_speedup = legacy.median_ns / warm.median_ns;
    let workflow_over_sweep = warm.median_ns / plan_sweep.median_ns;
    let server_over_workflow = server_sweep.median_ns / warm.median_ns;
    let compile_over_sweep = cold_ns / plan_sweep.median_ns;
    println!();
    println!(
        "warm predict: {warm_ns_per_kernel:.1} ns/kernel over {sweep_kernel_terms} terms \
         ({} sweep pairs), {warm_over_reference:.2}x the reference sweep per term; \
         warm vs legacy speedup: {warm_vs_legacy_speedup:.2}x",
        pairs.len()
    );
    println!(
        "workflow over plan sweep: {workflow_over_sweep:.2}x   \
         server over workflow: {server_over_workflow:.2}x   \
         compile over sweep: {compile_over_sweep:.1}x"
    );
    entries.extend([warm, server_sweep, plan_sweep, legacy]);

    Report {
        schema: "dnnperf-bench-5",
        figures: vec![
            Figure::count("sweep_pairs", pairs.len() as u64, Rule::Record),
            Figure::count(
                "sweep_kernel_terms",
                sweep_kernel_terms as u64,
                Rule::Record,
            ),
            Figure::fixed(
                "warm_predict_ns_per_kernel",
                warm_ns_per_kernel,
                3,
                Rule::Record,
            ),
            Figure::fixed(
                "warm_over_reference",
                warm_over_reference,
                3,
                Rule::AtMostTimes(MAX_WARM_OVER_REFERENCE_REGRESSION),
            ),
            // The compiled sweep must stay well ahead of the uncompiled
            // path it replaces.
            Figure::fixed(
                "warm_vs_legacy_speedup",
                warm_vs_legacy_speedup,
                2,
                Rule::AtLeast(5.0),
            ),
            // The fingerprint and cache lookup may at most double the cost
            // of the plan sweep they front.
            Figure::fixed(
                "workflow_over_sweep",
                workflow_over_sweep,
                2,
                Rule::AtMost(2.0),
            ),
            // A warm hit is answered on the caller's thread, so resolution
            // and admission may at most quadruple the cost.
            Figure::fixed(
                "server_over_workflow",
                server_over_workflow,
                2,
                Rule::AtMost(4.0),
            ),
            // A plan compile stays a bounded number of sweeps of that plan.
            Figure::fixed(
                "compile_over_sweep",
                compile_over_sweep,
                1,
                Rule::AtMostTimes(MAX_COMPILE_OVER_SWEEP_REGRESSION),
            ),
        ],
        entries,
    }
}

fn main() {
    let gate = Gate::from_args("perf");
    dnnperf_bench::banner("PERF", "compiled-plan serving microbenchmarks");
    gate.finish(&run(gate.smoke));
}
