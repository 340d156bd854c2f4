//! TRAIN_SCALING: KW training throughput over worker counts, with a
//! regression gate.
//!
//! Sweeps KW training over worker counts {1, 2, 4, 8} on an enlarged
//! multi-network grid (BENCH_9.json). Before timing anything it retrains
//! at every thread count and hard-aborts unless the serialized models are
//! **byte-identical** — the mergeable-accumulator determinism contract is
//! a correctness gate, not a statistic. The report records the machine's
//! cores so the scaling figures are interpretable: the speedup gate only
//! binds on boxes with at least [`MIN_CORES_FOR_SPEEDUP_GATE`] cores;
//! below that the gate falls back to a serial ns/row throughput ceiling.
//!
//! Flags and the report format are the shared gate interface
//! ([`dnnperf_bench::gate`]).

use dnnperf_bench::gate::{self, Figure, Gate, Report, Rule};
use dnnperf_bench::timer::{bench, BenchResult};
use dnnperf_core::{TrainOptions, Workflow};
use dnnperf_data::collect::collect;
use dnnperf_data::DatasetView;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;

/// Minimum tolerated 8-thread training speedup — only enforced on machines
/// with at least [`MIN_CORES_FOR_SPEEDUP_GATE`] cores.
const MIN_TRAIN_SPEEDUP_THREADS8: f64 = 2.0;
/// Cores below which the gate cannot expect parallel speedup and falls
/// back to the serial ns/row throughput ceiling.
const MIN_CORES_FOR_SPEEDUP_GATE: usize = 4;
/// Maximum tolerated regression of serial training ns/row vs the baseline.
const MAX_TRAIN_NS_PER_ROW_REGRESSION: f64 = 2.0;
/// Worker counts the sweep measures.
const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The enlarged training grid: enough networks and batch points that the
/// per-kernel row counts give the chunked accumulators real work to split
/// across workers.
fn scaling_nets() -> Vec<Network> {
    let mut nets = dnnperf_bench::gate_train_nets();
    nets.extend([
        zoo::resnet::resnet77(),
        zoo::resnet::resnet101(),
        zoo::vgg::vgg13(),
        zoo::densenet::densenet169(),
    ]);
    nets
}

fn run(smoke: bool) -> Report {
    let (warm, iters) = if smoke { (1, 5) } else { (2, 15) };

    let gpu = GpuSpec::by_name("A100").expect("A100 spec");
    let nets = scaling_nets();
    let batches = [4usize, 8, 16, 32, 64];
    let ds = collect(&nets, std::slice::from_ref(&gpu), &batches);
    let rows: Vec<&dnnperf_data::KernelRow> = ds.kernels.iter().collect();
    let view = DatasetView::from_refs(&rows);
    let train_rows = view.num_rows();
    let kernel_groups = view.num_groups();

    // Byte-identity first: the whole point of the canonical FIT_CHUNK
    // reduction tree is that thread count never changes the model. Abort
    // before timing anything if it does.
    let reference = Workflow::train_opts(&ds, "A100", &TrainOptions::serial())
        .expect("train")
        .kw
        .to_text();
    let auto = TrainOptions::from_env();
    let candidates = SCALING_THREADS
        .iter()
        .map(|&t| (format!("threads{t}"), TrainOptions::with_threads(t)))
        .chain([(format!("auto({})", auto.effective_threads()), auto.clone())]);
    for (label, opts) in candidates {
        let text = Workflow::train_opts(&ds, "A100", &opts)
            .expect("train")
            .kw
            .to_text();
        if text != reference {
            eprintln!(
                "ABORT: training at {label} produced a model that differs \
                 from the serial reference — determinism contract violated"
            );
            std::process::exit(1);
        }
    }

    let entries: Vec<BenchResult> = SCALING_THREADS
        .iter()
        .map(|&t| {
            let opts = TrainOptions::with_threads(t);
            bench(&format!("train/threads{t}"), warm, iters, || {
                Workflow::train_opts(&ds, "A100", &opts).expect("train")
            })
        })
        .collect();

    let t1_ns = entries[0].median_ns;
    let ns_per_row = t1_ns / train_rows.max(1) as f64;
    let cores = gate::cores();
    println!();
    println!(
        "train grid: {train_rows} rows, {kernel_groups} kernel groups, {cores} core{}  \
         (serial {ns_per_row:.0} ns/row)",
        if cores == 1 { "" } else { "s" },
    );
    // Too few cores for parallel speedup to exist: gate serial throughput
    // instead, so training perf cannot silently rot.
    let (row_rule, speedup_rule) = if cores >= MIN_CORES_FOR_SPEEDUP_GATE {
        (Rule::Record, Rule::AtLeast(MIN_TRAIN_SPEEDUP_THREADS8))
    } else {
        (
            Rule::AtMostTimes(MAX_TRAIN_NS_PER_ROW_REGRESSION),
            Rule::Record,
        )
    };
    let mut figures = vec![
        Figure::count("train_rows", train_rows as u64, Rule::Record),
        Figure::count("kernel_groups", kernel_groups as u64, Rule::Record),
        Figure::fixed("train_ns_per_row_threads1", ns_per_row, 3, row_rule),
    ];
    for (t, e) in SCALING_THREADS.iter().zip(&entries) {
        let speedup = t1_ns / e.median_ns;
        println!("  threads {t}: {speedup:.2}x");
        let rule = if *t == 8 { speedup_rule } else { Rule::Record };
        figures.push(Figure::fixed(
            format!("train_speedup_threads{t}"),
            speedup,
            2,
            rule,
        ));
    }
    println!("byte-identity: OK at every thread count");

    Report {
        schema: "dnnperf-bench-9",
        figures,
        entries,
    }
}

fn main() {
    let gate = Gate::from_args("train_scaling");
    dnnperf_bench::banner(
        "TRAIN_SCALING",
        "training scaling sweep (mergeable accumulators)",
    );
    gate.finish(&run(gate.smoke));
}
