//! FLEET: capacity-planning sweep over the fleet what-if engine, with a
//! reproducibility gate.
//!
//! Trains suites for two GPUs plus the inter-GPU fallback, then sweeps
//! offered load × (placement, batching) policy combinations over a
//! three-pool fleet (A100, V100, and a never-profiled TITAN RTX priced
//! by IGKW). Every sweep point is simulated **twice** and the two
//! reports must be byte-identical and conservation-clean — the bench
//! aborts otherwise, `--check` or not.
//!
//! Because the simulator consumes no wall clock and no ambient
//! randomness, the sweep figures are fully deterministic: the gate
//! compares request counts *exactly* against the committed BENCH_7.json
//! and the float figures (p99 sojourn, demand, SLO attainment) within a
//! tight tolerance that only absorbs libm-level drift and the report's
//! six-decimal rounding. `--smoke` runs the same sweep (the sim is already
//! cheap; training dominates). Flags and the report format are the shared
//! gate interface ([`dnnperf_bench::gate`]).

use dnnperf_bench::gate::{Figure, Gate, Report, Rule};
use dnnperf_core::{IgkwModel, PredictionOracle, Workflow};
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_simkit::{
    simulate_fleet, ArrivalProcess, BatchingPolicy, FleetConfig, FleetReport, LeastLoaded,
    NetworkAffinity, NoBatching, PlacementPolicy, PoolSpec, RequestClass, RoundRobin, SizeCap,
    TimeWindow, WorkloadSpec,
};
use std::sync::Arc;
use std::time::Instant;

const RATES: [f64; 3] = [250.0, 500.0, 1000.0];
const SEED: u64 = 1701;
const HORIZON: f64 = 0.4;

fn catalog() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
    ]
}

fn classes() -> Vec<RequestClass> {
    vec![
        RequestClass {
            tenant: "imaging".into(),
            network: 0,
            batch: 1,
            weight: 3.0,
        },
        RequestClass {
            tenant: "imaging".into(),
            network: 1,
            batch: 8,
            weight: 1.0,
        },
        RequestClass {
            tenant: "edge".into(),
            network: 2,
            batch: 1,
            weight: 2.0,
        },
    ]
}

fn build_oracle(nets: &[Network]) -> PredictionOracle {
    let train = |gpu: &str| {
        let spec = GpuSpec::by_name(gpu).expect("gpu spec");
        let ds = collect(nets, std::slice::from_ref(&spec), &[1, 8]);
        Arc::new(Workflow::train(&ds, gpu).expect("train suite"))
    };
    let igkw_gpus = [
        GpuSpec::by_name("A100").expect("A100"),
        GpuSpec::by_name("A40").expect("A40"),
        GpuSpec::by_name("GTX 1080 Ti").expect("GTX 1080 Ti"),
    ];
    let igkw_ds = collect(nets, &igkw_gpus, &[1, 8]);
    let igkw = IgkwModel::train(&igkw_ds, &igkw_gpus).expect("train igkw");

    let mut oracle = PredictionOracle::new();
    oracle.add_suite(train("A100"));
    oracle.add_suite(train("V100"));
    oracle.set_igkw(igkw);
    oracle
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        pools: vec![
            PoolSpec {
                name: "a100-pool".into(),
                gpu: GpuSpec::by_name("A100").expect("A100"),
                gpus: 2,
                queue_cap: Some(16),
            },
            PoolSpec {
                name: "v100-pool".into(),
                gpu: GpuSpec::by_name("V100").expect("V100"),
                gpus: 2,
                queue_cap: Some(16),
            },
            // Never profiled: priced entirely by the IGKW fallback.
            PoolSpec {
                name: "titan-pool".into(),
                gpu: GpuSpec::by_name("TITAN RTX").expect("TITAN RTX"),
                gpus: 1,
                queue_cap: Some(16),
            },
        ],
        slo_seconds: 0.02,
        queue_samples: 4,
    }
}

struct Combo {
    tag: &'static str,
    placement: fn() -> Box<dyn PlacementPolicy>,
    batching: fn() -> Box<dyn BatchingPolicy>,
}

fn combos() -> Vec<Combo> {
    vec![
        Combo {
            tag: "rr_none",
            placement: || Box::<RoundRobin>::default(),
            batching: || Box::new(NoBatching),
        },
        Combo {
            tag: "ll_size",
            placement: || Box::new(LeastLoaded),
            batching: || Box::new(SizeCap { max_batch: 4 }),
        },
        Combo {
            tag: "na_window",
            placement: || Box::new(NetworkAffinity),
            batching: || {
                Box::new(TimeWindow {
                    window_seconds: 0.002,
                    max_batch: 4,
                })
            },
        },
    ]
}

struct Point {
    key: String,
    report: FleetReport,
}

fn sweep(oracle: &PredictionOracle) -> (Vec<Point>, f64) {
    let catalog = catalog();
    let cfg = fleet_config();
    let mut points = Vec::new();
    let started = Instant::now();
    for &rate in &RATES {
        for combo in combos() {
            let wl = WorkloadSpec {
                classes: classes(),
                arrivals: ArrivalProcess::Poisson { rate_rps: rate },
                seed: SEED,
                horizon_seconds: HORIZON,
            };
            let run = || {
                simulate_fleet(
                    &catalog,
                    &wl,
                    &cfg,
                    (combo.placement)().as_mut(),
                    (combo.batching)().as_ref(),
                    oracle,
                )
                .expect("fleet point")
            };
            let a = run();
            let b = run();
            // Hard correctness gates, --check or not: the two runs must
            // replay byte-identically and conserve every request.
            if a.to_json() != b.to_json() {
                eprintln!("FATAL: replay diverged at rate {rate} combo {}", combo.tag);
                std::process::exit(1);
            }
            if !a.conservation_ok() {
                eprintln!(
                    "FATAL: conservation violated at rate {rate} combo {}: {a:?}",
                    combo.tag
                );
                std::process::exit(1);
            }
            points.push(Point {
                key: format!("r{}_{}", rate as u64, combo.tag),
                report: a,
            });
        }
    }
    (points, started.elapsed().as_secs_f64() * 1e3)
}

fn report(points: &[Point], sweep_ms: f64) -> Report {
    // Deterministic modulo libm: the relative term is tight, and the
    // absolute term absorbs the six-decimal rounding of the written value.
    let close = Rule::Close {
        rel: 1e-6,
        abs: 1e-6,
    };
    let mut figures = vec![
        Figure::count("points", points.len() as u64, Rule::Record),
        Figure::fixed("sweep_wall_ms", sweep_ms, 1, Rule::Record),
    ];
    for p in points {
        let r = &p.report;
        let key = |suffix: &str| format!("{}_{suffix}", p.key);
        figures.extend([
            Figure::count(key("offered"), r.offered, Rule::Exact),
            Figure::count(key("admitted"), r.admitted, Rule::Exact),
            Figure::count(key("rejected"), r.rejected, Rule::Exact),
            Figure::count(key("completed"), r.completed, Rule::Exact),
            Figure::count(key("in_flight"), r.in_flight_at_horizon, Rule::Exact),
            Figure::fixed(key("p99_ms"), r.p99_sojourn_seconds * 1e3, 6, close),
            Figure::fixed(key("demand_ms"), r.service_demand_seconds * 1e3, 6, close),
            Figure::fixed(key("slo_att"), r.slo_attainment, 6, close),
        ]);
    }
    Report {
        schema: "dnnperf-bench-7",
        figures,
        entries: Vec::new(),
    }
}

fn main() {
    let gate = Gate::from_args("fleet");
    dnnperf_bench::banner(
        "FLEET",
        "capacity-planning sweep over compiled-plan predictions",
    );

    let nets = catalog();
    println!("training 2 suites + IGKW over {} networks...", nets.len());
    let oracle = build_oracle(&nets);
    let (points, sweep_ms) = sweep(&oracle);

    println!();
    println!(
        "{} sweep points (2 runs each) in {:.1} ms — every point replayed byte-identically \
         and conserved all requests",
        points.len(),
        sweep_ms
    );
    for p in &points {
        let r = &p.report;
        println!(
            "  {:>14}: offered {:>4}, completed {:>4}, rejected {:>3}, p99 {:>8.3} ms, \
             SLO {:>5.1}%, igkw pool completed {}",
            p.key,
            r.offered,
            r.completed,
            r.rejected,
            r.p99_sojourn_seconds * 1e3,
            r.slo_attainment * 100.0,
            r.pools[2].completed,
        );
    }
    gate.finish(&report(&points, sweep_ms));
}
