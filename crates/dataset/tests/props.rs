//! Property-based tests for dataset splitting, CSV serialization and the
//! columnar training view.

use dnnperf_data::csv::{read_dataset, write_dataset};
use dnnperf_data::{split_names, Dataset, DatasetView, KernelRow, LayerRow, NetworkRow};
use dnnperf_testkit::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

fn ident() -> impl Gen<Value = String> {
    string_class("A-Za-z0-9_.\\[\\]-", 1..=24)
}

fn arb_network_row() -> impl Gen<Value = NetworkRow> {
    (
        ident(),
        ident(),
        ident(),
        1u32..1024,
        1u64..1 << 40,
        1u64..1 << 40,
        1e-6..10.0f64,
    )
        .prop_map(
            |(network, family, gpu, batch, flops, bytes, t)| NetworkRow {
                network: Arc::from(network.as_str()),
                family: Arc::from(family.as_str()),
                gpu: Arc::from(gpu.as_str()),
                batch,
                flops,
                bytes,
                e2e_seconds: t,
                gpu_seconds: t * 0.9,
                kernel_count: 3,
            },
        )
}

fn arb_kernel_row() -> impl Gen<Value = KernelRow> {
    (
        ident(),
        ident(),
        ident(),
        1u32..1024,
        0u32..500,
        1u64..1 << 40,
        1e-9..1.0f64,
    )
        .prop_map(|(network, gpu, kernel, batch, li, x, t)| KernelRow {
            network: Arc::from(network.as_str()),
            gpu: Arc::from(gpu.as_str()),
            batch,
            layer_index: li,
            layer_type: Arc::from("conv"),
            kernel: Arc::from(kernel.as_str()),
            in_elems: x,
            flops: x * 2,
            out_elems: x / 2 + 1,
            seconds: t,
        })
}

/// Kernel rows over a small symbol alphabet (prefix-related names stress
/// the ordering), each with a freshly allocated `Arc<str>` name so nothing
/// can rely on pointer identity.
fn arb_view_row() -> impl Gen<Value = KernelRow> {
    (
        select(vec!["gemm", "a", "ab", "b", "relu", "ba"]),
        0u64..1000,
        0u64..1000,
        0u64..1000,
        0.0..1.0f64,
    )
        .prop_map(|(kernel, in_elems, flops, out_elems, seconds)| KernelRow {
            network: Arc::from("net"),
            gpu: Arc::from("g"),
            batch: 1,
            layer_index: 0,
            layer_type: Arc::from("conv"),
            kernel: Arc::from(kernel),
            in_elems,
            flops,
            out_elems,
            seconds,
        })
}

const SPLIT_NETS: [&str; 4] = ["net_a", "net_b", "net_ab", "net_c"];
const SPLIT_GPUS: [&str; 3] = ["A100", "V100", "A40"];

/// A dataset of experiment runs `(network, gpu, rows, fresh)`: runs of one
/// network may repeat and interleave with others. A `fresh` run gives every
/// row its own `Arc` for the network and GPU names; the others share one
/// `Arc` per name across the whole dataset, as collection and the readers
/// do.
fn runs_dataset(runs: &[(usize, usize, usize, bool)]) -> Dataset {
    let shared_nets: Vec<Arc<str>> = SPLIT_NETS.iter().map(|&n| Arc::from(n)).collect();
    let shared_gpus: Vec<Arc<str>> = SPLIT_GPUS.iter().map(|&g| Arc::from(g)).collect();
    let mut ds = Dataset::new();
    for (run, &(net, gpu, rows, fresh)) in runs.iter().enumerate() {
        let name = |table: &[Arc<str>], i: usize| {
            if fresh {
                Arc::from(&*table[i])
            } else {
                Arc::clone(&table[i])
            }
        };
        ds.networks.push(NetworkRow {
            network: name(&shared_nets, net),
            family: Arc::from("f"),
            gpu: name(&shared_gpus, gpu),
            batch: 1,
            flops: run as u64,
            bytes: 1,
            e2e_seconds: 1.0,
            gpu_seconds: 1.0,
            kernel_count: rows as u32,
        });
        for li in 0..rows {
            ds.layers.push(LayerRow {
                network: name(&shared_nets, net),
                gpu: name(&shared_gpus, gpu),
                batch: 1,
                layer_index: li as u32,
                layer_type: Arc::from("conv"),
                flops: run as u64,
                in_elems: 1,
                out_elems: 1,
                seconds: 1.0,
            });
            ds.kernels.push(KernelRow {
                network: name(&shared_nets, net),
                gpu: name(&shared_gpus, gpu),
                batch: 1,
                layer_index: li as u32,
                layer_type: Arc::from("conv"),
                kernel: Arc::from("k"),
                in_elems: 1,
                flops: run as u64,
                out_elems: 1,
                seconds: 1.0,
            });
        }
    }
    ds
}

/// The per-row filter the split must equal.
fn naive_filter(
    ds: &Dataset,
    network: impl Fn(&str) -> bool,
    gpu: impl Fn(&str) -> bool,
) -> Dataset {
    Dataset {
        networks: ds
            .networks
            .iter()
            .filter(|r| network(&r.network) && gpu(&r.gpu))
            .cloned()
            .collect(),
        layers: ds
            .layers
            .iter()
            .filter(|r| network(&r.network) && gpu(&r.gpu))
            .cloned()
            .collect(),
        kernels: ds
            .kernels
            .iter()
            .filter(|r| network(&r.network) && gpu(&r.gpu))
            .cloned()
            .collect(),
    }
}

/// One run of kernel rows on one network: `(network, fresh network
/// per row, rows)`, each row `(kernel, fresh kernel name, drivers,
/// seconds)`.
type ViewRun = (usize, bool, Vec<(usize, bool, u64, u64, u64, f64)>);

fn arb_view_run() -> impl Gen<Value = ViewRun> {
    (
        0usize..3,
        any_bool(),
        vec(
            (
                0usize..6,
                any_bool(),
                0u64..1000,
                0u64..1000,
                0u64..1000,
                0.0..1.0f64,
            ),
            1..12,
        ),
    )
}

/// Rows of `runs`, in order. Unless a row asks for a fresh allocation,
/// names come from one shared `Arc` per string, so runs of one network
/// interleave with others and a kernel name is often the same allocation
/// in one run and another allocation of the same string in the next.
fn view_runs_rows(runs: &[ViewRun]) -> Vec<KernelRow> {
    let nets: Vec<Arc<str>> = SPLIT_NETS.iter().map(|&n| Arc::from(n)).collect();
    let kernels: Vec<Arc<str>> = ["gemm", "a", "ab", "b", "relu", "ba"]
        .iter()
        .map(|&k| Arc::from(k))
        .collect();
    let name = |table: &[Arc<str>], i: usize, fresh: bool| {
        if fresh {
            Arc::from(&*table[i])
        } else {
            Arc::clone(&table[i])
        }
    };
    let mut rows = Vec::new();
    for (net, fresh_net, run) in runs {
        for &(kernel, fresh_kernel, in_elems, flops, out_elems, seconds) in run {
            rows.push(KernelRow {
                network: name(&nets, *net, *fresh_net),
                gpu: Arc::from("g"),
                batch: 1,
                layer_index: 0,
                layer_type: Arc::from("conv"),
                kernel: name(&kernels, kernel, fresh_kernel),
                in_elems,
                flops,
                out_elems,
                seconds,
            });
        }
    }
    rows
}

/// The view of `rows` must equal a string-keyed grouping: one group per
/// distinct kernel name, ascending, each holding its rows in input order.
fn check_view_against_string_grouping(rows: &[KernelRow]) {
    let refs: Vec<&KernelRow> = rows.iter().collect();
    let view = DatasetView::from_refs(&refs);
    let mut names: Vec<&str> = rows.iter().map(|r| &*r.kernel).collect();
    names.sort_unstable();
    names.dedup();
    prop_assert_eq!(view.num_groups(), names.len());
    prop_assert_eq!(view.num_rows(), rows.len());
    let mut covered = 0;
    for (g, name) in names.iter().enumerate() {
        let gv = view.group(g).expect("group in range");
        prop_assert_eq!(&**gv.kernel, *name);
        prop_assert_eq!(view.group_index(name), Some(g));
        let members: Vec<&KernelRow> = rows.iter().filter(|r| &*r.kernel == *name).collect();
        for (d, col) in gv.drivers.iter().enumerate() {
            let expected: Vec<f64> = members.iter().map(|r| r.drivers()[d]).collect();
            prop_assert_eq!(*col, expected.as_slice());
        }
        let expected: Vec<f64> = members.iter().map(|r| r.seconds).collect();
        prop_assert_eq!(gv.seconds, expected.as_slice());
        covered += gv.seconds.len();
    }
    prop_assert_eq!(covered, rows.len());
    prop_assert!(view.group(names.len()).is_none());
}

props! {
    #[test]
    fn splits_equal_a_naive_per_row_filter(
        runs in vec((0usize..4, 0usize..3, 1usize..5, any_bool()), 0..30),
        mask in 0usize..16,
    ) {
        let ds = runs_dataset(&runs);
        let names: BTreeSet<String> = SPLIT_NETS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| n.to_string())
            .collect();
        prop_assert_eq!(
            ds.for_networks(&names),
            naive_filter(&ds, |n| names.contains(n), |_| true)
        );
        for gpu in SPLIT_GPUS.iter().chain(&["TITAN RTX"]) {
            prop_assert_eq!(ds.for_gpu(gpu), naive_filter(&ds, |_| true, |g| g == *gpu));
        }
    }

    #[test]
    fn split_is_always_a_partition(n in 0usize..200, frac in 0.0..1.0f64, seed in 0u64..1000) {
        let names: Vec<String> = (0..n).map(|i| format!("net{i}")).collect();
        let (train, test) = split_names(&names, frac, seed);
        prop_assert_eq!(train.len() + test.len(), n);
        let union: HashSet<&String> = train.iter().chain(&test).collect();
        prop_assert_eq!(union.len(), n);
        let expected_test = (n as f64 * frac).round() as usize;
        prop_assert_eq!(test.len(), expected_test.min(n));
    }

    #[test]
    fn csv_round_trip_is_lossless(
        nets in vec(arb_network_row(), 0..20),
        kernels in vec(arb_kernel_row(), 0..50),
    ) {
        let ds = Dataset { networks: nets, layers: Vec::new(), kernels };
        let dir = std::env::temp_dir().join(format!(
            "dnnperf_props_csv_{}_{}",
            std::process::id(),
            ds.networks.len() * 1000 + ds.kernels.len()
        ));
        write_dataset(&ds, &dir).unwrap();
        let back = read_dataset(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(ds, back);
    }

    #[test]
    fn layer_rows_survive_round_trip(batch in 1u32..2048, flops in 0u64..1 << 50, t in 1e-9..100.0f64) {
        let row = LayerRow {
            network: "n".into(),
            gpu: "g".into(),
            batch,
            layer_index: 7,
            layer_type: Arc::from("fc"),
            flops,
            in_elems: flops / 3 + 1,
            out_elems: flops / 7 + 1,
            seconds: t,
        };
        let ds = Dataset { networks: vec![], layers: vec![row], kernels: vec![] };
        let dir = std::env::temp_dir().join(format!("dnnperf_props_layer_{}_{batch}", std::process::id()));
        write_dataset(&ds, &dir).unwrap();
        let back = read_dataset(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(ds.layers, back.layers);
    }

    #[test]
    fn garbage_csv_files_error_cleanly(
        junk in vec(string_class(" -~", 0..=80), 0..20),
        which in 0usize..3,
    ) {
        // Random printable junk must produce a parse/IO error, never a panic
        // and never a silently-parsed dataset (unless the junk happens to be
        // empty-but-headered, which the generator cannot produce).
        let dir = std::env::temp_dir().join(format!(
            "dnnperf_props_fuzz_{}_{}_{}",
            std::process::id(),
            which,
            junk.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let names = ["networks.csv", "layers.csv", "kernels.csv"];
        let headers = [
            "network,family,gpu,batch,flops,bytes,e2e_seconds,gpu_seconds,kernel_count",
            "network,gpu,batch,layer_index,layer_type,flops,in_elems,out_elems,seconds",
            "network,gpu,batch,layer_index,layer_type,kernel,in_elems,flops,out_elems,seconds",
        ];
        for (i, (name, header)) in names.iter().zip(headers).enumerate() {
            if i == which {
                std::fs::write(dir.join(name), junk.join("\n")).unwrap();
            } else {
                std::fs::write(dir.join(name), format!("{header}\n")).unwrap();
            }
        }
        let result = std::panic::catch_unwind(|| read_dataset(&dir));
        std::fs::remove_dir_all(&dir).ok();
        let outcome = result.expect("read_dataset must not panic on junk");
        // The junk file either fails to parse, or (astronomically unlikely
        // with this generator) happened to be a valid file.
        if let Ok(ds) = outcome {
            prop_assert!(ds.networks.len() + ds.layers.len() + ds.kernels.len() < junk.len().max(1));
        }
    }

    #[test]
    fn dedup_is_idempotent(kernels in vec(arb_kernel_row(), 0..40)) {
        let mut ds = Dataset { networks: vec![], layers: vec![], kernels };
        ds.dedup();
        let once = ds.clone();
        ds.dedup();
        prop_assert_eq!(once, ds);
    }

    #[test]
    fn view_groups_are_a_stable_partition_by_kernel(rows in vec(arb_view_row(), 0..300)) {
        check_view_against_string_grouping(&rows);
    }

    #[test]
    fn view_over_shared_names_equals_string_grouping(runs in vec(arb_view_run(), 0..30)) {
        let rows = view_runs_rows(&runs);
        check_view_against_string_grouping(&rows);
    }
}
