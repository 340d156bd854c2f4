//! TRAIN_SCALING: training throughput over worker counts, with a
//! regression gate.
//!
//! Sweeps suite training over worker counts {1, 2, 4, 8} on an enlarged
//! multi-network grid (BENCH_9.json). Before timing anything it retrains
//! the E2E/LW/KW suite at every thread count, and IGKW (whose per-GPU
//! classifications fan out over the machine's cores) several times, and
//! hard-aborts unless the serialized models are **byte-identical** — the
//! determinism contract is a correctness gate, not a statistic. The
//! report records the machine's cores so the scaling figures are
//! interpretable: the speedup gate only binds on boxes with at least
//! [`MIN_CORES_FOR_SPEEDUP_GATE`] cores; below that the gate falls back to
//! a serial ns/row throughput ceiling. The wall times of one suite and one
//! IGKW training at the machine's own width are recorded, not gated.
//!
//! Flags and the report format are the shared gate interface
//! ([`dnnperf_bench::gate`]).

use dnnperf_bench::gate::{self, Figure, Gate, Report, Rule};
use dnnperf_bench::timer::{bench, measure, BenchResult};
use dnnperf_core::{IgkwModel, TrainOptions, Workflow};
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
/// The GPUs IGKW trains on (the paper's Section 5.5 choice).
const IGKW_GPUS: [&str; 3] = ["A100", "A40", "GTX 1080 Ti"];
/// Extra IGKW trainings compared against the first.
const IGKW_REPEATS: usize = 3;

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
    // reduction tree and the in-order joins is that thread count never
    // changes a model. Abort before timing anything if it does.
    let suite_text = |opts: &TrainOptions| {
        let suite = Workflow::train_opts(&ds, "A100", opts).expect("train");
        [suite.e2e.to_text(), suite.lw.to_text(), suite.kw.to_text()]
    };
    let reference = suite_text(&TrainOptions::serial());
    let auto = TrainOptions::from_env();
    let candidates = SCALING_THREADS
        .iter()
        .map(|&t| (format!("threads{t}"), TrainOptions::with_threads(t)))
        .chain([(format!("auto({})", auto.effective_threads()), auto.clone())]);
    for (label, opts) in candidates {
        if suite_text(&opts) != reference {
            abort(&format!("suite training at {label}"));
        }
    }
    let igkw_gpus: Vec<GpuSpec> = IGKW_GPUS
        .iter()
        .map(|g| GpuSpec::by_name(g).expect("IGKW GPU spec"))
        .collect();
    let igkw_ds = collect(&dnnperf_bench::gate_train_nets(), &igkw_gpus, &[8, 32]);
    let train_igkw = || IgkwModel::train(&igkw_ds, &igkw_gpus).expect("train IGKW");
    let igkw_reference = train_igkw().to_text();
    for _ in 0..IGKW_REPEATS {
        if train_igkw().to_text() != igkw_reference {
            abort("IGKW training");
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

    let suite_train = measure("train/suite_auto", warm, iters, || {
        Workflow::train_opts(&ds, "A100", &auto).expect("train")
    });
    let igkw_train = measure("train/igkw", warm, iters, train_igkw);

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
    println!(
        "suite at {} threads: {:.1} ms   IGKW on {} GPUs: {:.1} ms",
        auto.effective_threads(),
        suite_train.median_ns / 1e6,
        igkw_gpus.len(),
        igkw_train.median_ns / 1e6,
    );
    figures.extend([
        Figure::fixed(
            "suite_train_ms",
            suite_train.median_ns / 1e6,
            2,
            Rule::Record,
        ),
        Figure::fixed("igkw_train_ms", igkw_train.median_ns / 1e6, 2, Rule::Record),
    ]);
    println!("byte-identity: OK at every thread count");

    Report {
        schema: "dnnperf-bench-9",
        figures,
        entries,
    }
}

/// Stops the gate: a retrained model differs from its reference.
fn abort(what: &str) -> ! {
    eprintln!(
        "ABORT: {what} produced a model that differs from the reference — \
         determinism contract violated"
    );
    std::process::exit(1);
}

fn main() {
    let gate = Gate::from_args("train_scaling");
    dnnperf_bench::banner(
        "TRAIN_SCALING",
        "training scaling sweep (mergeable accumulators)",
    );
    gate.finish(&run(gate.smoke));
}
