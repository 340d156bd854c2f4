//! perfbench: the dnnperf benchmark.
//!
//! Runs one named workload with a seed given on the command line, checks
//! every output against an in-process reference, and prints the metrics as
//! the last line of standard output:
//!
//! ```text
//! perfbench --workload <serve_hot|serve_churn|train_eval> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every public call the workload makes, replays nested layers one
//! level down, and prints the per-layer metrics instead. See README.md.

mod pipeline;
mod serving;
mod stats;
mod trace;

use pipeline::{Pass, EVAL_GPU};
use serving::{Mix, Reference, Replay};
use stats::{delta_pct, median, percentile, Row};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use trace::{SpanId, Tracer};

/// The workloads this program runs. `BENCHMARK.json` lists `serve_hot` and
/// `train_eval`; `serve_churn` runs by hand (see README.md).
pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_churn", "train_eval"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed pipeline passes in a `train_eval` phase.
const MIN_PASSES: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_churn|train_eval> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Pins every environment knob the crates under test read: clears all
/// `DNNPERF_*` variables (cache directory, fault injection, serving
/// timeouts, bench iterations, retries) and fixes `DNNPERF_THREADS` to
/// the core count. Runs before any thread starts. Returns the variables
/// that were cleared.
fn hermetic_env(cores: usize) -> Vec<String> {
    let cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DNNPERF_"))
        .collect();
    for k in &cleared {
        std::env::remove_var(k);
    }
    std::env::set_var("DNNPERF_THREADS", cores.to_string());
    cleared
}

/// The outcome of one run.
struct Outcome {
    metrics: Vec<Row>,
    attempted: u64,
    failed: u64,
    /// Why the run is not correct beyond `failed`, if it is not.
    broken: Vec<String>,
    /// Run record: key and JSON value.
    record: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Checks that every pass reproduced the first one exactly.
fn passes_agree(passes: &[Pass]) -> Option<String> {
    let first = passes.first()?;
    let sig = |p: &Pass| {
        let a = p.accuracy;
        (
            [a.kw, a.lw, a.e2e, a.igkw].map(f64::to_bits),
            p.kernel_rows,
            p.kw_kernels,
            p.kw_models,
            p.fleet_completed,
            p.cached_plans,
        )
    };
    passes
        .iter()
        .any(|p| sig(p) != sig(first))
        .then(|| "pipeline passes of one seed disagree".to_string())
}

/// End-to-end metrics every workload reports.
fn end_to_end(
    throughput_rps: f64,
    (p50_us, p99_us): (f64, f64),
    setups_s: &[f64],
    passes: &[Pass],
) -> Vec<Row> {
    let a = passes.first().map(|p| p.accuracy);
    let acc = |f: fn(&pipeline::Accuracy) -> f64| a.as_ref().map_or(f64::NAN, f);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    vec![
        ("throughput_rps", throughput_rps, "1/s"),
        ("latency_p50_us", p50_us, "us"),
        ("latency_p99_us", p99_us, "us"),
        ("setup_s", median(setups_s), "s"),
        (
            "peak_rss_mib",
            stats::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ),
        ("pipeline_s", median(&walls), "s"),
        ("kw_err_pct", acc(|a| a.kw), "%"),
        ("lw_err_pct", acc(|a| a.lw), "%"),
        ("e2e_err_pct", acc(|a| a.e2e), "%"),
        ("igkw_err_pct", acc(|a| a.igkw), "%"),
    ]
}

/// Accuracy verdicts shared by every workload: the paper band (a hard
/// abort) and pass-to-pass determinism.
fn check_passes(passes: &[Pass], broken: &mut Vec<String>) {
    if let Some(why) = passes.first().and_then(|p| p.accuracy.band_violation()) {
        eprintln!("perfbench: accuracy left the paper band: {why}");
        std::process::exit(1);
    }
    broken.extend(passes_agree(passes));
}

fn pass_record(passes: &[Pass]) -> Vec<(&'static str, String)> {
    let kw_by_gpu = passes.first().map_or_else(String::new, |p| {
        p.kw_by_gpu
            .iter()
            .map(|(g, e)| format!("{}: {e}", json_str(g)))
            .collect::<Vec<_>>()
            .join(", ")
    });
    vec![
        ("pipeline_passes", passes.len().to_string()),
        (
            "pass_walls_s",
            json_list(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        ),
        ("kw_err_pct_by_gpu", format!("{{{kw_by_gpu}}}")),
    ]
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", items.join(", "))
}

/// Latency at a fixed ladder of percentiles, as a JSON object.
fn latency_ladder(latencies_us: &[f64]) -> String {
    let mut lat = latencies_us.to_vec();
    let rungs: Vec<String> = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
        .iter()
        .map(|&p| format!("\"p{p}\": {}", percentile(&mut lat, p)))
        .collect();
    format!("{{{}}}", rungs.join(", "))
}

/// `serve_hot` / `serve_churn`.
fn serve(mix: Mix, args: &Args, cores: usize) -> Outcome {
    let mut pipeline_trace = args.trace.then(Tracer::new);
    let mut setups_s = Vec::new();
    let mut passes = Vec::new();
    let mut served = None;
    let mut reference: Option<(Vec<(usize, usize)>, Reference)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let zoo = dnnperf_dnn::zoo::cnn_zoo();
        let pass = pipeline::run_pass(&zoo, args.seed, cores, rep as u64, pipeline_trace.as_mut());
        let suite = Arc::clone(
            pass.suite(EVAL_GPU)
                .expect("the pipeline trains an A100 suite"),
        );
        let trained_s = t0.elapsed().as_secs_f64();
        // The reference is the benchmark's own computation: outside set-up.
        let (pool, reference) = reference.get_or_insert_with(|| {
            let pool = serving::request_pool(mix, &zoo);
            let r = Reference::compute(&suite, &zoo, &pool);
            (pool, r)
        });
        let t1 = Instant::now();
        let config = serving::server_config(cores, serving::cache_budget(mix, reference));
        let (server, wrong) = serving::start_server(&suite, &zoo, pool, reference, &config);
        let tcp = serving::serve_tcp(&server);
        setups_s.push(trained_s + t1.elapsed().as_secs_f64());
        attempted += pass.attempted + pool.len() as u64;
        failed += pass.failed + wrong;
        if let Some((old_server, old_tcp, ..)) = served.replace((server, tcp, suite, zoo, config)) {
            shutdown(&old_server, &old_tcp);
        }
        passes.push(pass);
    }
    for pass in &mut passes {
        pass.suites.clear();
    }
    let (server, tcp, suite, zoo, config) = served.expect("at least one set-up");
    let (pool, reference) = reference.expect("reference computed");
    let requests = serving::pool_requests(&zoo, &pool);
    let target = serving::Target {
        server: &server,
        tcp: &tcp,
        requests: &requests,
        reference: &reference,
    };
    let run_phase = |phase: u64, epoch: Option<Instant>| {
        serving::drive(&target, args.seed, phase, cores, args.seconds, epoch)
    };

    let mut broken = Vec::new();
    check_passes(&passes, &mut broken);
    let timed = run_phase(0, None);
    attempted += timed.attempted;
    failed += timed.failed;
    let mut metrics = end_to_end(
        timed.throughput_rps,
        (timed.p50_us, timed.p99_us),
        &setups_s,
        &passes,
    );
    let mut record = vec![
        ("clients", cores.to_string()),
        ("workers", cores.to_string()),
        ("cache_budget_bytes", config.cache.budget_bytes.to_string()),
        ("working_set_plan_bytes", reference.plan_bytes.to_string()),
        ("request_pool", pool.len().to_string()),
        ("operations", timed.attempted.to_string()),
        ("latency_samples", timed.latencies_us.len().to_string()),
        ("windows", timed.windows.to_string()),
        (
            "throughput_by_window_rps",
            json_list(&timed.throughput_by_window),
        ),
        ("p99_by_window_us", json_list(&timed.p99_by_window)),
        ("latency_ladder_us", latency_ladder(&timed.latencies_us)),
        (
            "highest_supported_percentile_per_window",
            stats::highest_supported_percentile(timed.latencies_us.len() / timed.windows)
                .map_or("null".into(), |p| p.to_string()),
        ),
        ("cache_hit_ratio", {
            let c = timed.stats.cache;
            ((c.hits as f64) / ((c.hits + c.misses).max(1) as f64)).to_string()
        }),
    ];
    record.extend(pass_record(&passes));

    if let Some(pipeline_trace) = pipeline_trace {
        let mut t = Tracer::new();
        let traced = run_phase(1, Some(t.epoch()));
        attempted += traced.attempted;
        failed += traced.failed;
        let calls: Vec<(SpanId, usize)> = traced
            .calls
            .iter()
            .map(|&(span, k)| (t.push(span), k))
            .take(serving::REPLAY_CAP)
            .collect();
        let replay = Replay {
            server: serving::new_server(&suite, &zoo, &config),
            cache: dnnperf_serve::SharedPlanCache::new(&config.cache),
            suite: &suite,
            catalog: &zoo,
            pool: &pool,
            requests: &requests,
            reference: &reference,
        };
        attempted += (pool.len() + calls.len()) as u64;
        failed += replay.run(&mut t, &calls);
        replay.server.shutdown();
        metrics = serving::serve_layers(&t, &traced);
        metrics.extend(pipeline::pipeline_rows(&pipeline_trace, &passes[0]));
        metrics.extend(trace_rows(timed.throughput_rps, traced.throughput_rps));
        record.push(("replayed_requests", calls.len().to_string()));
        write_trace(&t, args, "serve");
        write_trace(&pipeline_trace, args, "pipeline");
    }
    shutdown(&server, &tcp);
    Outcome {
        metrics,
        attempted,
        failed,
        broken,
        record,
    }
}

fn shutdown(server: &dnnperf_serve::PredictionServer, tcp: &dnnperf_serve::TcpServer) {
    tcp.shutdown();
    server.shutdown();
}

/// Tracing overhead: the traced phase against the untraced one of the same
/// run, in operations per second.
fn trace_rows(untraced_rps: f64, traced_rps: f64) -> Vec<Row> {
    vec![
        ("trace.throughput_rps", traced_rps, "1/s"),
        (
            "trace.overhead_pct",
            -delta_pct(traced_rps, untraced_rps),
            "%",
        ),
    ]
}

/// `train_eval`: repeated pipeline passes for `seconds`.
fn train_eval(args: &Args, cores: usize) -> Outcome {
    let mut setups_s = Vec::new();
    let mut zoo = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        zoo = dnnperf_dnn::zoo::cnn_zoo();
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let run_phase = |mut tracer: Option<&mut Tracer>, first_id: u64| {
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
            let id = first_id + passes.len() as u64;
            let mut pass = pipeline::run_pass(&zoo, args.seed, cores, id, tracer.as_deref_mut());
            pass.suites.clear();
            passes.push(pass);
        }
        let rate = passes.len() as f64 / started.elapsed().as_secs_f64();
        (passes, rate)
    };
    let (passes, rate) = run_phase(None, 0);
    let mut broken = Vec::new();
    check_passes(&passes, &mut broken);
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_us.iter().copied())
        .collect();
    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut lat = latencies.clone();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut metrics = end_to_end(
        1.0 / median(&walls),
        (percentile(&mut lat, 50.0), percentile(&mut lat, 99.0)),
        &setups_s,
        &passes,
    );
    let mut record = vec![
        ("operations", passes.len().to_string()),
        ("latency_samples", latencies.len().to_string()),
        ("latency_ladder_us", latency_ladder(&latencies)),
        (
            "highest_supported_percentile",
            stats::highest_supported_percentile(latencies.len())
                .map_or("null".into(), |p| p.to_string()),
        ),
    ];
    record.extend(pass_record(&passes));

    if args.trace {
        let mut t = Tracer::new();
        let (traced, traced_rate) = run_phase(Some(&mut t), passes.len() as u64);
        attempted += traced.iter().map(|p| p.attempted).sum::<u64>();
        failed += traced.iter().map(|p| p.failed).sum::<u64>();
        let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        record.push(("traced_pipeline_s", walls(&traced).to_string()));
        record.push(("untraced_pipeline_s", walls(&passes).to_string()));
        let mut all = passes;
        all.extend(traced);
        broken.extend(passes_agree(&all));
        metrics = pipeline::plan_rows(&t);
        metrics.extend(idle_serving_rows());
        metrics.extend(pipeline::pipeline_rows(&t, &all[0]));
        metrics.extend(trace_rows(rate, traced_rate));
        write_trace(&t, args, "pipeline");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        broken,
        record,
    }
}

/// Serving layers `train_eval` never enters: reported as zero work.
fn idle_serving_rows() -> Vec<Row> {
    vec![
        ("serve.cache.lookup_self_ns", 0.0, "ns"),
        ("serve.cache.hit_ratio", 0.0, "ratio"),
        ("serve.cache.compiles", 0.0, "count"),
        ("serve.cache.evictions", 0.0, "count"),
        ("serve.cache.resident_bytes", 0.0, "bytes"),
        ("serve.server.predict_ns", 0.0, "ns"),
        ("serve.server.self_ns", 0.0, "ns"),
        ("serve.server.completed", 0.0, "count"),
        ("serve.server.shed", 0.0, "count"),
        ("serve.protocol.codec_ns", 0.0, "ns"),
        ("serve.tcp.call_ns", 0.0, "ns"),
        ("serve.tcp.self_ns", 0.0, "ns"),
    ]
}

/// Writes a run's spans under `perfbench/traces/`.
fn write_trace(t: &Tracer, args: &Args, part: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}-{part}.tsv", args.workload, args.seed));
    match t.write_tsv(&path) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            t.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cleared = hermetic_env(cores);
    let started = Instant::now();
    let out = match args.workload.as_str() {
        "serve_hot" => serve(Mix::Hot, &args, cores),
        "serve_churn" => serve(Mix::Churn, &args, cores),
        _ => train_eval(&args, cores),
    };

    let mut broken = out.broken;
    let mut metrics = Vec::new();
    for &(name, value, unit) in &out.metrics {
        if !stats::valid_metric_name(name) {
            broken.push(format!("invalid metric name {name:?}"));
        }
        if !value.is_finite() {
            broken.push(format!("{name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let mut record = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("cores", cores.to_string()),
        ("profile", json_str("release")),
        (
            "env_cleared",
            format!(
                "[{}]",
                cleared
                    .iter()
                    .map(|k| json_str(k))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("fail_ratio", fail_ratio.to_string()),
        ("wall_s", started.elapsed().as_secs_f64().to_string()),
    ];
    record.extend(out.record);
    for why in &broken {
        eprintln!("perfbench: INCORRECT: {why}");
    }
    let record: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("run {{{}}}", record.join(", "));
    let correct = out.failed == 0 && broken.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn command_line_is_parsed_strictly() {
        let a = args("--workload serve_hot --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, "serve_hot");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(
            !args("--workload train_eval --seed 1 --seconds 2")
                .expect("valid")
                .trace
        );
        assert!(args("--workload nope --seed 1 --seconds 2").is_err());
        assert!(args("--workload serve_hot --seconds 2").is_err());
        assert!(args("--workload serve_hot --seed x --seconds 2").is_err());
        assert!(args("--workload serve_hot --seed 1 --seconds 0").is_err());
        assert!(args("--workload serve_hot --seed 1 --seconds 2 --trace 2").is_err());
        assert!(args("--workload serve_hot --seed 1 --seconds 2 --bogus 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn every_reported_metric_name_is_valid() {
        let names = serving::serve_layers(&Tracer::new(), &empty_phase())
            .into_iter()
            .chain(idle_serving_rows())
            .chain(trace_rows(2.0, 1.0))
            .chain(end_to_end(1.0, (1.0, 1.0), &[1.0], &[]))
            .map(|(n, _, _)| n);
        for name in names {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    fn empty_phase() -> serving::Phase {
        serving::Phase {
            latencies_us: Vec::new(),
            throughput_rps: 0.0,
            p50_us: 0.0,
            p99_us: 0.0,
            windows: 1,
            throughput_by_window: Vec::new(),
            p99_by_window: Vec::new(),
            attempted: 0,
            failed: 0,
            stats: Default::default(),
            calls: Vec::new(),
        }
    }

    #[test]
    fn tracing_overhead_is_the_throughput_loss() {
        let rows = trace_rows(200.0, 150.0);
        assert_eq!(rows[1], ("trace.overhead_pct", 25.0, "%"));
    }
}
