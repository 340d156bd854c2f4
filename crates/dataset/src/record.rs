//! Flat measurement records (the dataset's CSV row types).
//!
//! Shared strings (network, GPU, kernel names) are `Arc<str>` so the
//! million-row kernel table stays compact. Collection and the readers hand
//! them out through an [`Interner`] per trace, file or cache entry, so rows
//! that repeat a name share one allocation.

use std::collections::BTreeSet;
use std::sync::Arc;

/// Hands out one shared `Arc<str>` per distinct string it has seen.
///
/// Each trace, CSV file or cache entry gets its own table, so no state is
/// shared between collection workers and the rows come out the same
/// whatever the thread count. Two rows naming the same experiment or
/// kernel then hold the same allocation, which lets
/// [`crate::Dataset::for_networks`] decide a whole run of rows at once.
/// Pointer equality is only ever a shortcut: equal strings from different
/// tables still compare equal by content.
#[derive(Debug, Default)]
pub(crate) struct Interner(BTreeSet<Arc<str>>);

impl Interner {
    /// The shared copy of `s`, allocated on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(s) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&shared));
        shared
    }
}

/// Most names one [`RunMemo`] run remembers. Past this, further names of
/// the run take the caller's string probe every time, so a run with many
/// distinct names costs at most this many pointer compares per row.
const RUN_MEMO_CAP: usize = 64;

/// A pointer-keyed shortcut in front of a string-keyed map, scoped to one
/// run of rows that share a network `Arc`.
///
/// Names are interned per trace (see [`Interner`]), so while the rows come
/// from one trace, the same kernel or layer type is the same allocation
/// and the memo answers it with a pointer compare instead of a string
/// probe. A new run starts from an empty memo: the next trace's names are
/// new allocations, and clearing keeps the scan short. A miss, including
/// an equal string held in a distinct allocation, just runs the probe:
/// pointer identity is a shortcut, never a correctness condition. The
/// borrow `'a` keeps every remembered allocation alive, so no address can
/// be reused for another string while the memo holds it.
#[derive(Debug, Default)]
pub struct RunMemo<'a> {
    /// The network `Arc` of the current run.
    run: Option<&'a Arc<str>>,
    /// `(name address, value)` for the run's names, first-seen order.
    hits: Vec<(*const u8, usize)>,
}

impl<'a> RunMemo<'a> {
    /// The value for `name` in the run of rows whose network is `network`:
    /// the remembered one when this allocation was seen earlier in the
    /// run, otherwise `probe()` (which the memo then remembers).
    pub fn get_or_probe(
        &mut self,
        network: &'a Arc<str>,
        name: &'a Arc<str>,
        probe: impl FnOnce() -> usize,
    ) -> usize {
        if !self.run.is_some_and(|run| Arc::ptr_eq(run, network)) {
            self.run = Some(network);
            self.hits.clear();
        }
        let addr = Arc::as_ptr(name).cast::<u8>();
        if let Some(&(_, value)) = self.hits.iter().find(|(a, _)| *a == addr) {
            return value;
        }
        let value = probe();
        if self.hits.len() < RUN_MEMO_CAP {
            self.hits.push((addr, value));
        }
        value
    }
}

/// One network-level measurement: a full inference batch on one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRow {
    /// Network display name.
    pub network: Arc<str>,
    /// Network family tag.
    pub family: Arc<str>,
    /// GPU name.
    pub gpu: Arc<str>,
    /// Batch size.
    pub batch: u32,
    /// Total theoretical FLOPs of the batch.
    pub flops: u64,
    /// Total theoretical memory traffic of the batch in bytes.
    pub bytes: u64,
    /// Measured end-to-end batch time in seconds.
    pub e2e_seconds: f64,
    /// GPU kernel time in seconds (end-to-end minus CPU sync overhead).
    pub gpu_seconds: f64,
    /// Number of kernel launches.
    pub kernel_count: u32,
}

/// One layer-level measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Network display name.
    pub network: Arc<str>,
    /// GPU name.
    pub gpu: Arc<str>,
    /// Batch size.
    pub batch: u32,
    /// Index of the layer within the network.
    pub layer_index: u32,
    /// Layer type tag (`"conv"`, `"bn"`, ...).
    pub layer_type: Arc<str>,
    /// Theoretical FLOPs of the layer for the batch.
    pub flops: u64,
    /// Input `N*C*H*W` element count.
    pub in_elems: u64,
    /// Output `N*C*H*W` element count.
    pub out_elems: u64,
    /// Measured layer time in seconds (sum of its kernels).
    pub seconds: f64,
}

/// One kernel-level measurement, carrying the layer-level driver variables
/// the paper's Kernel-Wise model regresses against (O5): input size, layer
/// FLOPs, output size.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Network display name.
    pub network: Arc<str>,
    /// GPU name.
    pub gpu: Arc<str>,
    /// Batch size.
    pub batch: u32,
    /// Index of the owning layer.
    pub layer_index: u32,
    /// Owning layer's type tag.
    pub layer_type: Arc<str>,
    /// Kernel symbol name.
    pub kernel: Arc<str>,
    /// Owning layer's input `N*C*H*W`.
    pub in_elems: u64,
    /// Owning layer's theoretical FLOPs for the batch.
    pub flops: u64,
    /// Owning layer's output `N*C*H*W`.
    pub out_elems: u64,
    /// Measured kernel time in seconds.
    pub seconds: f64,
}

impl KernelRow {
    /// The three candidate driver variables, in the order
    /// (input, operation, output) used by kernel classification.
    pub fn drivers(&self) -> [f64; 3] {
        [
            self.in_elems as f64,
            self.flops as f64,
            self.out_elems as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drivers_order_is_input_operation_output() {
        let r = KernelRow {
            network: "n".into(),
            gpu: "g".into(),
            batch: 1,
            layer_index: 0,
            layer_type: "conv".into(),
            kernel: "k".into(),
            in_elems: 1,
            flops: 2,
            out_elems: 3,
            seconds: 0.5,
        };
        assert_eq!(r.drivers(), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn run_memo_answers_by_allocation_within_a_run() {
        let (net_a, net_b) = (Arc::<str>::from("a"), Arc::<str>::from("b"));
        let gemm = Arc::<str>::from("gemm");
        let gemm_again = Arc::<str>::from("gemm");
        let probes = &std::cell::Cell::new(0);
        let probe = |value| {
            move || {
                probes.set(probes.get() + 1);
                value
            }
        };
        let mut memo = RunMemo::default();
        assert_eq!(memo.get_or_probe(&net_a, &gemm, probe(7)), 7);
        // Same run, same allocation: remembered, whatever the probe says.
        assert_eq!(memo.get_or_probe(&net_a, &gemm, probe(8)), 7);
        // An equal string in another allocation takes the probe.
        assert_eq!(memo.get_or_probe(&net_a, &gemm_again, probe(9)), 9);
        // A new run starts empty.
        assert_eq!(memo.get_or_probe(&net_b, &gemm, probe(10)), 10);
        assert_eq!(probes.get(), 3);
    }

    #[test]
    fn interner_shares_one_allocation_per_string() {
        let mut names = Interner::default();
        let a = names.intern("gemm");
        let b = names.intern(&String::from("gemm"));
        let c = names.intern("relu");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((&*a, &*c), ("gemm", "relu"));
    }
}
