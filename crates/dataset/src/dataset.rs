//! The [`Dataset`] container: network/layer/kernel tables plus cleaning,
//! filtering and summary statistics.

use crate::record::{KernelRow, LayerRow, NetworkRow};
use std::collections::BTreeSet;
use std::sync::Arc;

type ExperimentKey = (Arc<str>, Arc<str>, u32);

/// A measurement dataset: three row tables at network, layer and kernel
/// granularity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Network-level rows.
    pub networks: Vec<NetworkRow>,
    /// Layer-level rows.
    pub layers: Vec<LayerRow>,
    /// Kernel-level rows.
    pub kernels: Vec<KernelRow>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Returns `true` if the dataset holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.networks.is_empty() && self.layers.is_empty() && self.kernels.is_empty()
    }

    /// Appends all rows of `other`.
    pub fn merge(&mut self, other: Dataset) {
        self.networks.extend(other.networks);
        self.layers.extend(other.layers);
        self.kernels.extend(other.kernels);
    }

    /// Removes duplicated experiments (the paper: "We clean the dataset by
    /// removing the duplications").
    ///
    /// An *experiment* is one (network, gpu, batch) run. Collection emits an
    /// experiment's rows contiguously, so a later row segment repeating an
    /// already-seen experiment key (e.g. after merging two collections that
    /// overlap) is dropped wholesale.
    pub fn dedup(&mut self) {
        // A segment ends when the experiment key changes OR the layer index
        // restarts (decreases) — the latter catches two identical runs that
        // ended up adjacent after a merge.
        fn drop_repeated_segments<R>(
            rows: &mut Vec<R>,
            key: impl Fn(&R) -> ExperimentKey,
            layer_index: impl Fn(&R) -> u32,
        ) {
            let mut seen: BTreeSet<ExperimentKey> = BTreeSet::new();
            let mut current: Option<(ExperimentKey, u32, bool)> = None;
            rows.retain(|r| {
                let k = key(r);
                let li = layer_index(r);
                match &current {
                    Some((ck, last_li, keep)) if *ck == k && li >= *last_li => {
                        let keep = *keep;
                        current = Some((k, li, keep));
                        keep
                    }
                    _ => {
                        let keep = seen.insert(k.clone());
                        current = Some((k, li, keep));
                        keep
                    }
                }
            });
        }
        // A network row IS a whole experiment: plain per-row dedup.
        let mut seen: BTreeSet<ExperimentKey> = BTreeSet::new();
        self.networks
            .retain(|r| seen.insert((r.network.clone(), r.gpu.clone(), r.batch)));
        drop_repeated_segments(
            &mut self.layers,
            |r| (r.network.clone(), r.gpu.clone(), r.batch),
            |r| r.layer_index,
        );
        drop_repeated_segments(
            &mut self.kernels,
            |r| (r.network.clone(), r.gpu.clone(), r.batch),
            |r| r.layer_index,
        );
    }

    /// Returns the subset of rows measured on `gpu`.
    pub fn for_gpu(&self, gpu: &str) -> Dataset {
        let keep = |g: &str| g == gpu;
        Dataset {
            networks: keep_runs(&self.networks, |r| &r.gpu, keep),
            layers: keep_runs(&self.layers, |r| &r.gpu, keep),
            kernels: keep_runs(&self.kernels, |r| &r.gpu, keep),
        }
    }

    /// Returns the subset of rows belonging to the named networks.
    pub fn for_networks(&self, names: &BTreeSet<String>) -> Dataset {
        let keep = |n: &str| names.contains(n);
        Dataset {
            networks: keep_runs(&self.networks, |r| &r.network, keep),
            layers: keep_runs(&self.layers, |r| &r.network, keep),
            kernels: keep_runs(&self.kernels, |r| &r.network, keep),
        }
    }

    /// Distinct network names present in the dataset, in first-seen order.
    pub fn network_names(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut names = Vec::new();
        for r in &self.networks {
            if seen.insert(r.network.clone()) {
                names.push(r.network.to_string());
            }
        }
        names
    }

    /// Distinct GPU names present in the dataset.
    pub fn gpu_names(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut names = Vec::new();
        for r in &self.networks {
            if seen.insert(r.gpu.clone()) {
                names.push(r.gpu.to_string());
            }
        }
        names
    }

    /// Number of distinct kernel symbols recorded (the paper reports ~182
    /// per GPU).
    pub fn distinct_kernels(&self) -> usize {
        self.kernels
            .iter()
            .map(|r| r.kernel.clone())
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Clones the rows whose key passes `keep`, deciding once per run of rows.
///
/// The rows of one experiment are contiguous and, as collected or read,
/// share one `Arc` for the key, so the previous row's decision is reused
/// while the key is the same allocation and `keep` runs only when it
/// changes. Equal strings held in distinct allocations just run `keep`
/// again: pointer identity is a shortcut, never a correctness condition.
fn keep_runs<R: Clone>(
    rows: &[R],
    key: impl Fn(&R) -> &Arc<str>,
    keep: impl Fn(&str) -> bool,
) -> Vec<R> {
    let mut last: Option<(&Arc<str>, bool)> = None;
    let mut kept = Vec::new();
    for r in rows {
        let k = key(r);
        let decision = match last {
            Some((prev, decision)) if Arc::ptr_eq(prev, k) => decision,
            _ => {
                let decision = keep(k);
                last = Some((k, decision));
                decision
            }
        };
        if decision {
            kept.push(r.clone());
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn krow(net: &str, gpu: &str, batch: u32, li: u32, k: &str) -> KernelRow {
        KernelRow {
            network: net.into(),
            gpu: gpu.into(),
            batch,
            layer_index: li,
            layer_type: Arc::from("conv"),
            kernel: k.into(),
            in_elems: 1,
            flops: 2,
            out_elems: 3,
            seconds: 0.1,
        }
    }

    fn nrow(net: &str, gpu: &str, batch: u32) -> NetworkRow {
        NetworkRow {
            network: net.into(),
            family: Arc::from("resnet"),
            gpu: gpu.into(),
            batch,
            flops: 10,
            bytes: 20,
            e2e_seconds: 1.0,
            gpu_seconds: 0.9,
            kernel_count: 2,
        }
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Dataset::new();
        a.networks.push(nrow("r18", "A100", 64));
        let mut b = Dataset::new();
        b.networks.push(nrow("r34", "A100", 64));
        a.merge(b);
        assert_eq!(a.networks.len(), 2);
    }

    #[test]
    fn dedup_removes_repeated_experiments() {
        let mut d = Dataset::new();
        d.networks.push(nrow("r18", "A100", 64));
        d.networks.push(nrow("r18", "A100", 64));
        d.networks.push(nrow("r18", "A100", 128));
        // One experiment segment with two same-name kernels in one layer:
        // legitimate, must survive dedup.
        d.kernels.push(krow("r18", "A100", 64, 0, "a"));
        d.kernels.push(krow("r18", "A100", 64, 0, "a"));
        d.dedup();
        assert_eq!(d.networks.len(), 2);
        assert_eq!(d.kernels.len(), 2);
        // A later, separated segment repeating the experiment key is dropped
        // wholesale; fresh experiments survive.
        d.kernels.push(krow("r18", "A100", 128, 0, "c"));
        d.kernels.push(krow("r18", "A100", 64, 0, "a"));
        d.kernels.push(krow("r18", "A100", 64, 1, "b"));
        d.dedup();
        assert_eq!(d.kernels.len(), 3);
    }

    #[test]
    fn for_gpu_filters() {
        let mut d = Dataset::new();
        d.networks.push(nrow("r18", "A100", 64));
        d.networks.push(nrow("r18", "V100", 64));
        d.kernels.push(krow("r18", "A100", 64, 0, "a"));
        let a = d.for_gpu("A100");
        assert_eq!(a.networks.len(), 1);
        assert_eq!(a.kernels.len(), 1);
        assert!(d.for_gpu("TITAN RTX").is_empty());
    }

    #[test]
    fn name_listings() {
        let mut d = Dataset::new();
        d.networks.push(nrow("r18", "A100", 64));
        d.networks.push(nrow("r34", "A100", 64));
        d.networks.push(nrow("r18", "V100", 64));
        assert_eq!(d.network_names(), vec!["r18", "r34"]);
        assert_eq!(d.gpu_names(), vec!["A100", "V100"]);
    }

    #[test]
    fn distinct_kernels_counts_symbols() {
        let mut d = Dataset::new();
        d.kernels.push(krow("r18", "A100", 64, 0, "a"));
        d.kernels.push(krow("r18", "A100", 64, 1, "a"));
        d.kernels.push(krow("r18", "A100", 64, 2, "b"));
        assert_eq!(d.distinct_kernels(), 2);
    }
}
