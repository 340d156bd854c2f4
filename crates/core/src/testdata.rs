//! Small synthetic datasets for the training equivalence and robustness
//! tests: experiments interleave networks and GPUs, and each experiment
//! hands its names out one of three ways (a fresh `Arc` per row, one per
//! experiment as collection interns them, or one per process), so equal
//! strings often sit in distinct allocations.

use dnnperf_data::{Dataset, KernelRow, LayerRow, NetworkRow};
use dnnperf_testkit::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The GPUs the synthetic experiments run on (real names, so IGKW can
/// look up their specs).
pub(crate) const GPUS: [&str; 3] = ["A100", "A40", "GTX 1080 Ti"];
const NETS: [&str; 4] = ["net-a", "net-b", "net-c", "net-d"];
const TYPES: [&str; 3] = ["conv", "bn", "fc"];
const KERNELS: [&str; 5] = ["k_gemm", "k_wino", "k_bn", "k_relu", "k_fft"];

/// How one experiment allocates its names.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sharing {
    /// A fresh `Arc` for every row.
    PerRow,
    /// One `Arc` per name within the experiment (collection's interning).
    PerExperiment,
    /// One `Arc` per name across the whole dataset.
    Global,
}

/// One layer: type index, per-sample size, and its kernels as (kernel
/// index, seconds).
pub(crate) type SynthLayer = (usize, u64, Vec<(usize, f64)>);

/// One experiment: network, GPU and batch indices, its layers, and how it
/// allocates names.
pub(crate) type Experiment = (usize, usize, u32, Vec<SynthLayer>, Sharing);

/// Per-sample sizes from a small pool, so signatures and drivers repeat.
fn arb_size() -> impl Gen<Value = u64> {
    select(vec![1u64, 7, 64, 300, 4096, 50_000])
}

fn arb_layer(seconds: impl Gen<Value = f64> + Clone) -> impl Gen<Value = SynthLayer> {
    (
        0..TYPES.len(),
        arb_size(),
        vec((0..KERNELS.len(), seconds), 1..4),
    )
}

/// Experiments whose kernel times come from `seconds`.
pub(crate) fn arb_experiments(
    seconds: impl Gen<Value = f64> + Clone,
    count: std::ops::Range<usize>,
) -> impl Gen<Value = Vec<Experiment>> {
    vec(
        (
            0..NETS.len(),
            0..GPUS.len(),
            select(vec![1u32, 8, 32]),
            vec(arb_layer(seconds), 1..6),
            select(vec![
                Sharing::PerRow,
                Sharing::PerExperiment,
                Sharing::Global,
            ]),
        ),
        count,
    )
}

/// Positive, finite kernel times.
pub(crate) fn arb_seconds() -> impl Gen<Value = f64> + Clone {
    1e-6..1e-2f64
}

/// Hands out names according to each experiment's [`Sharing`].
#[derive(Default)]
struct Names {
    global: BTreeMap<&'static str, Arc<str>>,
    local: BTreeMap<&'static str, Arc<str>>,
}

impl Names {
    fn get(&mut self, name: &'static str, sharing: Sharing) -> Arc<str> {
        let table = match sharing {
            Sharing::PerRow => return Arc::from(name),
            Sharing::PerExperiment => &mut self.local,
            Sharing::Global => &mut self.global,
        };
        Arc::clone(table.entry(name).or_insert_with(|| Arc::from(name)))
    }
}

/// Builds the rows of `experiments`, in order.
pub(crate) fn dataset(experiments: &[Experiment]) -> Dataset {
    let mut ds = Dataset::new();
    let mut names = Names::default();
    for (net, gpu, batch, layers, sharing) in experiments {
        let (net, gpu, batch, sharing) = (NETS[*net], GPUS[*gpu], *batch, *sharing);
        names.local.clear();
        let n = u64::from(batch);
        let (mut flops, mut seconds, mut launches) = (0, 0.0, 0);
        for (index, (ty, size, kernels)) in layers.iter().enumerate() {
            let (in_elems, layer_flops, out_elems) = (size * n, size * 3 * n, (size / 2 + 1) * n);
            let layer_type = names.get(TYPES[*ty], sharing);
            let layer_seconds: f64 = kernels.iter().map(|(_, s)| s).sum();
            for (k, s) in kernels {
                ds.kernels.push(KernelRow {
                    network: names.get(net, sharing),
                    gpu: names.get(gpu, sharing),
                    batch,
                    layer_index: index as u32,
                    layer_type: names.get(TYPES[*ty], sharing),
                    kernel: names.get(KERNELS[*k], sharing),
                    in_elems,
                    flops: layer_flops,
                    out_elems,
                    seconds: *s,
                });
            }
            ds.layers.push(LayerRow {
                network: names.get(net, sharing),
                gpu: names.get(gpu, sharing),
                batch,
                layer_index: index as u32,
                layer_type,
                flops: layer_flops,
                in_elems,
                out_elems,
                seconds: layer_seconds,
            });
            flops += layer_flops;
            seconds += layer_seconds;
            launches += kernels.len() as u32;
        }
        ds.networks.push(NetworkRow {
            network: names.get(net, sharing),
            family: names.get("synthetic", sharing),
            gpu: names.get(gpu, sharing),
            batch,
            flops,
            bytes: flops,
            e2e_seconds: seconds,
            gpu_seconds: seconds,
            kernel_count: launches,
        });
    }
    ds
}
