//! Columnar, group-indexed view over kernel rows.
//!
//! [`DatasetView`] is the one structure model training reads: a
//! structure-of-arrays snapshot of three driver columns plus the target
//! column, and a group index of per-kernel row ranges. It is built by a
//! stable counting sort over the rows' kernel symbols. Zero rows are
//! cloned — the view takes nothing from the source rows except the kernel
//! names (`Arc<str>` bumps), and classification and clustering share the
//! same columns.
//!
//! Group order is ascending by kernel symbol and rows keep their original
//! relative order within a group, so the chunked regressions over each
//! group see the same sample sequence whatever order the groups were
//! discovered in.

use crate::record::{KernelRow, RunMemo};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Columnar snapshot of kernel rows: SoA driver/target columns plus a
/// group index of per-kernel row ranges.
///
/// # Examples
///
/// ```
/// use dnnperf_data::collect::collect;
/// use dnnperf_data::view::DatasetView;
/// use dnnperf_dnn::zoo;
/// use dnnperf_gpu::GpuSpec;
///
/// let ds = collect(&[zoo::resnet::resnet18()], &[GpuSpec::by_name("A100").unwrap()], &[8]);
/// let refs: Vec<&_> = ds.kernels.iter().collect();
/// let view = DatasetView::from_refs(&refs);
/// assert_eq!(view.num_rows(), ds.kernels.len());
/// let mut total = 0;
/// for group in view.groups() {
///     assert_eq!(group.drivers.len(), 3);
///     total += group.seconds.len();
/// }
/// assert_eq!(total, view.num_rows());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DatasetView {
    /// One kernel symbol per group, ascending.
    kernels: Vec<Arc<str>>,
    /// Group `g` occupies column rows `bounds[g] .. bounds[g + 1]`;
    /// `bounds.len() == kernels.len() + 1`.
    bounds: Vec<usize>,
    /// Driver columns in `(input, operation, output)` order — the same
    /// order as [`KernelRow::drivers`].
    drivers: [Vec<f64>; 3],
    /// Measured kernel seconds, the regression target.
    seconds: Vec<f64>,
}

/// Borrowed slices of one kernel group inside a [`DatasetView`].
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    /// Kernel symbol of the group.
    pub kernel: &'a Arc<str>,
    /// Per-driver feature columns for the group's rows, in
    /// `(input, operation, output)` order.
    pub drivers: [&'a [f64]; 3],
    /// Target column for the group's rows.
    pub seconds: &'a [f64],
}

impl DatasetView {
    /// Builds the view from borrowed rows with a stable counting sort: each
    /// row gets a dense first-seen id for its kernel, the id map's
    /// ascending symbol order fixes the group order, prefix sums of the
    /// per-id row counts become `bounds`, and each row is written at its
    /// group's cursor, so rows keep their input order within a group. No
    /// row is cloned. A [`RunMemo`] answers a kernel already seen in the
    /// same trace by pointer, so the ordered-map probe runs about once per
    /// distinct kernel per trace rather than once per row.
    pub fn from_refs(rows: &[&KernelRow]) -> Self {
        let mut ids: BTreeMap<&str, usize> = BTreeMap::new();
        let mut memo = RunMemo::default();
        let mut names: Vec<&Arc<str>> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut row_ids: Vec<usize> = Vec::with_capacity(rows.len());
        for row in rows {
            let id = memo.get_or_probe(&row.network, &row.kernel, || {
                *ids.entry(&row.kernel).or_insert_with(|| {
                    names.push(&row.kernel);
                    counts.push(0);
                    names.len() - 1
                })
            });
            if let Some(c) = counts.get_mut(id) {
                *c += 1;
            }
            row_ids.push(id);
        }
        // `cursor[id]` starts at the first column row of id's group.
        let mut kernels: Vec<Arc<str>> = Vec::with_capacity(ids.len());
        let mut bounds: Vec<usize> = vec![0];
        let mut cursor: Vec<usize> = vec![0; ids.len()];
        let mut end = 0;
        for &id in ids.values() {
            if let (Some(name), Some(start), Some(count)) =
                (names.get(id), cursor.get_mut(id), counts.get(id))
            {
                kernels.push(Arc::clone(name));
                *start = end;
                end += count;
                bounds.push(end);
            }
        }
        let n = rows.len();
        let mut drivers: [Vec<f64>; 3] = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let mut seconds: Vec<f64> = vec![0.0; n];
        for (row, &id) in rows.iter().zip(&row_ids) {
            let Some(pos) = cursor.get_mut(id) else {
                continue;
            };
            let at = *pos;
            *pos += 1;
            let [din, dop, dout] = row.drivers();
            let [ci, co, cu] = &mut drivers;
            for (col, v) in [
                (ci, din),
                (co, dop),
                (cu, dout),
                (&mut seconds, row.seconds),
            ] {
                if let Some(cell) = col.get_mut(at) {
                    *cell = v;
                }
            }
        }
        DatasetView {
            kernels,
            bounds,
            drivers,
            seconds,
        }
    }

    /// Number of kernel groups.
    pub fn num_groups(&self) -> usize {
        self.kernels.len()
    }

    /// Total number of rows across all groups.
    pub fn num_rows(&self) -> usize {
        self.seconds.len()
    }

    /// The row range of group `g`, or `None` out of bounds.
    fn range(&self, g: usize) -> Option<std::ops::Range<usize>> {
        let lo = *self.bounds.get(g)?;
        let hi = *self.bounds.get(g + 1)?;
        Some(lo..hi)
    }

    /// Borrowed column slices of group `g`, or `None` out of bounds.
    pub fn group(&self, g: usize) -> Option<GroupView<'_>> {
        let kernel = self.kernels.get(g)?;
        let range = self.range(g)?;
        let [ci, co, cu] = &self.drivers;
        Some(GroupView {
            kernel,
            drivers: [
                ci.get(range.clone())?,
                co.get(range.clone())?,
                cu.get(range)?,
            ],
            seconds: self.seconds.get(self.range(g)?)?,
        })
    }

    /// Index of the group holding `kernel`, by binary search.
    pub fn group_index(&self, kernel: &str) -> Option<usize> {
        self.kernels
            .binary_search_by(|k| k.as_ref().cmp(kernel))
            .ok()
    }

    /// Iterates the groups in ascending kernel order.
    pub fn groups(&self) -> impl Iterator<Item = GroupView<'_>> + '_ {
        (0..self.num_groups()).filter_map(|g| self.group(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: &str, in_elems: u64, flops: u64, out_elems: u64, seconds: f64) -> KernelRow {
        KernelRow {
            network: "net".into(),
            gpu: "g".into(),
            batch: 1,
            layer_index: 0,
            layer_type: "conv".into(),
            kernel: kernel.into(),
            in_elems,
            flops,
            out_elems,
            seconds,
        }
    }

    #[test]
    fn empty_view_is_well_formed() {
        let v = DatasetView::from_refs(&[]);
        assert_eq!(v.num_groups(), 0);
        assert_eq!(v.num_rows(), 0);
        assert!(v.group(0).is_none());
        assert!(v.groups().next().is_none());
    }

    #[test]
    fn groups_sorted_by_kernel_rows_in_original_order() {
        let rows = [
            row("b", 1, 10, 100, 0.1),
            row("a", 2, 20, 200, 0.2),
            row("b", 3, 30, 300, 0.3),
            row("a", 4, 40, 400, 0.4),
        ];
        let refs: Vec<&KernelRow> = rows.iter().collect();
        let v = DatasetView::from_refs(&refs);
        assert_eq!(v.num_groups(), 2);
        assert_eq!(v.num_rows(), 4);
        let a = v.group(0).unwrap();
        assert_eq!(a.kernel.as_ref(), "a");
        assert_eq!(a.drivers[0], &[2.0, 4.0]);
        assert_eq!(a.drivers[1], &[20.0, 40.0]);
        assert_eq!(a.drivers[2], &[200.0, 400.0]);
        assert_eq!(a.seconds, &[0.2, 0.4]);
        let b = v.group(1).unwrap();
        assert_eq!(b.kernel.as_ref(), "b");
        assert_eq!(b.seconds, &[0.1, 0.3]);
    }

    #[test]
    fn group_index_finds_by_name() {
        let rows = [row("x", 1, 1, 1, 1.0), row("m", 1, 1, 1, 1.0)];
        let refs: Vec<&KernelRow> = rows.iter().collect();
        let v = DatasetView::from_refs(&refs);
        assert_eq!(v.group_index("m"), Some(0));
        assert_eq!(v.group_index("x"), Some(1));
        assert_eq!(v.group_index("zzz"), None);
    }

    #[test]
    fn matches_btreemap_grouping_order() {
        use std::collections::BTreeMap;
        let rows = [
            row("k2", 1, 2, 3, 0.5),
            row("k1", 4, 5, 6, 0.6),
            row("k2", 7, 8, 9, 0.7),
            row("k0", 1, 1, 1, 0.8),
        ];
        let refs: Vec<&KernelRow> = rows.iter().collect();
        let mut groups: BTreeMap<Arc<str>, Vec<&KernelRow>> = BTreeMap::new();
        for r in &refs {
            groups.entry(Arc::clone(&r.kernel)).or_default().push(r);
        }
        let v = DatasetView::from_refs(&refs);
        for (g, (kernel, members)) in groups.iter().enumerate() {
            let gv = v.group(g).unwrap();
            assert_eq!(gv.kernel, kernel);
            let secs: Vec<f64> = members.iter().map(|r| r.seconds).collect();
            assert_eq!(gv.seconds, secs.as_slice());
        }
    }
}
