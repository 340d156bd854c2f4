//! The layer-to-kernel mapping table (the left-most block of the paper's
//! Figure 10).
//!
//! "Since the cuDNN library decides the kernels to use according to the
//! problem sizes, we create a look-up table that maps from the layer type
//! and input/output size to the kernel list. We provide the look-up table
//! for all the kernels we encounter in our dataset."
//!
//! Keys are *per-sample* (batch-normalised) layer signatures so that a table
//! built at the training batch size applies to any batch size. Lookups fall
//! back to the nearest recorded signature of the same layer type (log-space
//! distance) for shapes unseen in training. Each recorded signature keeps
//! its log-space coordinates from insertion, so a fallback lookup takes the
//! query's three logarithms once and one distance per candidate.

use dnnperf_data::{KernelRow, RunMemo};
use dnnperf_dnn::flops::layer_flops;
use dnnperf_dnn::Layer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A batch-invariant description of a layer instance: its type tag plus
/// per-sample input size, FLOPs and output size.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerSignature {
    /// Layer type tag (`"conv"`, `"bn"`, ...).
    pub tag: Arc<str>,
    /// Per-sample input element count.
    pub in_per: u64,
    /// Per-sample theoretical FLOPs.
    pub flops_per: u64,
    /// Per-sample output element count.
    pub out_per: u64,
}

impl LayerSignature {
    /// Computes the signature of a layer from its static structure.
    pub fn of_layer(layer: &Layer) -> Self {
        LayerSignature {
            tag: Arc::from(layer.type_tag()),
            in_per: layer.input.elems() as u64,
            flops_per: layer_flops(layer),
            out_per: layer.output.elems() as u64,
        }
    }

    /// Recovers the signature from a measured kernel row (dividing the
    /// batch-level driver variables by the batch size).
    pub fn of_row(row: &KernelRow) -> Self {
        let n = row.batch.max(1) as u64;
        LayerSignature {
            tag: row.layer_type.clone(),
            in_per: row.in_elems / n,
            flops_per: row.flops / n,
            out_per: row.out_elems / n,
        }
    }

    /// Squared log-space distance to another signature: the reference
    /// the stored-coordinate search of [`KernelMap::kernels_for`] must
    /// match bit for bit.
    #[cfg(test)]
    fn distance(&self, other: &LayerSignature) -> f64 {
        fn d(a: u64, b: u64) -> f64 {
            let la = ((a + 1) as f64).ln();
            let lb = ((b + 1) as f64).ln();
            (la - lb) * (la - lb)
        }
        d(self.in_per, other.in_per)
            + d(self.flops_per, other.flops_per)
            + d(self.out_per, other.out_per)
    }
}

/// `ln(x + 1)` of a signature's three per-sample sizes: its coordinates
/// for the nearest-signature fallback.
fn log_coords(in_per: u64, flops_per: u64, out_per: u64) -> [f64; 3] {
    [
        ((in_per + 1) as f64).ln(),
        ((flops_per + 1) as f64).ln(),
        ((out_per + 1) as f64).ln(),
    ]
}

/// Squared log-space distance between two coordinate triples. The same f64
/// operations in the same order as taking the logarithms inline, so stored
/// coordinates give bit-identical distances.
fn log_distance(query: &[f64; 3], candidate: &[f64; 3]) -> f64 {
    let d = |a: f64, b: f64| (a - b) * (a - b);
    let ([qi, qf, qo], [ci, cf, co]) = (query, candidate);
    d(*qi, *ci) + d(*qf, *cf) + d(*qo, *co)
}

/// A recorded signature with its log-space coordinates (computed once at
/// insertion) and its kernel list.
#[derive(Debug, Clone)]
struct Candidate {
    sig: LayerSignature,
    logs: [f64; 3],
    kernels: Vec<Arc<str>>,
}

/// The signatures recorded for one layer type.
#[derive(Debug, Clone, Default)]
struct TagTable {
    /// `[in_per, flops_per, out_per]` -> index into `candidates`.
    exact: BTreeMap<[u64; 3], usize>,
    /// Insertion order: the fallback's candidates, whose order decides
    /// distance ties (first wins).
    candidates: Vec<Candidate>,
}

impl TagTable {
    /// Records `sizes` under `tag` unless already present (first write
    /// wins); `kernels` runs only for a new signature.
    fn insert_with(
        &mut self,
        tag: &Arc<str>,
        sizes: [u64; 3],
        kernels: impl FnOnce() -> Vec<Arc<str>>,
    ) {
        if self.exact.contains_key(&sizes) {
            return;
        }
        let [in_per, flops_per, out_per] = sizes;
        self.exact.insert(sizes, self.candidates.len());
        self.candidates.push(Candidate {
            sig: LayerSignature {
                tag: Arc::clone(tag),
                in_per,
                flops_per,
                out_per,
            },
            logs: log_coords(in_per, flops_per, out_per),
            kernels: kernels(),
        });
    }

    /// The recorded signatures in ascending `[in, flops, out]` order.
    fn sorted(&self) -> impl Iterator<Item = &Candidate> {
        self.exact.values().filter_map(|&i| self.candidates.get(i))
    }
}

/// The learned mapping from layer signatures to kernel name lists: one
/// table per layer type, so building the map and exact lookups compare
/// three integers once the tag is found.
#[derive(Debug, Clone, Default)]
pub struct KernelMap {
    /// Layer type -> index into `tables`.
    tags: BTreeMap<Arc<str>, usize>,
    /// One table per layer type, in first-seen order.
    tables: Vec<TagTable>,
}

impl PartialEq for KernelMap {
    fn eq(&self, other: &Self) -> bool {
        // Candidate order depends on insertion order; semantic equality is
        // the set of (signature, kernels) entries, which `entries` yields
        // in one canonical order.
        self.entries().eq(other.entries())
    }
}

impl KernelMap {
    /// Builds the table from measured kernel rows. Rows of one layer
    /// execution must be contiguous (as produced by collection).
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::KernelMap;
    /// use dnnperf_data::collect::collect;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// let nets = [dnnperf_dnn::zoo::resnet::resnet18()];
    /// let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[16]);
    /// let map = KernelMap::from_rows(&ds.kernels);
    /// assert!(map.len() > 10);
    /// ```
    pub fn from_rows(rows: &[KernelRow]) -> Self {
        let refs: Vec<&KernelRow> = rows.iter().collect();
        KernelMap::from_row_refs(&refs)
    }

    /// Builds the table from borrowed kernel rows — the allocation-free
    /// path [`crate::KwModel`] training uses after filtering a dataset by
    /// GPU, so no row is ever cloned just to be scanned. Semantics are
    /// identical to [`KernelMap::from_rows`].
    pub fn from_row_refs(rows: &[&KernelRow]) -> Self {
        let mut map = KernelMap::default();
        // A layer type already seen in the same trace finds its table by
        // pointer instead of by string.
        let mut memo = RunMemo::default();
        let mut i = 0;
        while let Some(r) = rows.get(i) {
            let mut j = i + 1;
            while rows
                .get(j)
                .is_some_and(|next| same_layer_execution(r, next))
            {
                j += 1;
            }
            // First write wins, so only a new signature's kernels are
            // collected: most layer executions repeat a recorded one.
            let n = u64::from(r.batch.max(1));
            let sizes = [r.in_elems / n, r.flops / n, r.out_elems / n];
            let id = memo.get_or_probe(&r.network, &r.layer_type, || map.table_id(&r.layer_type));
            if let Some(table) = map.tables.get_mut(id) {
                table.insert_with(&r.layer_type, sizes, || {
                    let kernels = rows.get(i..j).unwrap_or_default();
                    kernels.iter().map(|k| k.kernel.clone()).collect()
                });
            }
            i = j;
        }
        map
    }

    /// The index of `tag`'s table, created empty on first use.
    fn table_id(&mut self, tag: &Arc<str>) -> usize {
        if let Some(&id) = self.tags.get(&**tag) {
            return id;
        }
        self.tags.insert(Arc::clone(tag), self.tables.len());
        self.tables.push(TagTable::default());
        self.tables.len() - 1
    }

    /// The table of `tag`, if any signature of that type was recorded.
    fn table(&self, tag: &str) -> Option<&TagTable> {
        self.tables.get(*self.tags.get(tag)?)
    }

    /// Records `sizes` under `tag` (first write wins).
    fn insert_with(
        &mut self,
        tag: &Arc<str>,
        sizes: [u64; 3],
        kernels: impl FnOnce() -> Vec<Arc<str>>,
    ) {
        let id = self.table_id(tag);
        if let Some(table) = self.tables.get_mut(id) {
            table.insert_with(tag, sizes, kernels);
        }
    }

    /// Inserts one signature -> kernel-list entry (first write wins).
    pub fn insert(&mut self, sig: LayerSignature, kernels: Vec<Arc<str>>) {
        let sizes = [sig.in_per, sig.flops_per, sig.out_per];
        self.insert_with(&sig.tag, sizes, || kernels);
    }

    /// Merges another table into this one (first write wins per signature).
    /// `other`'s new signatures are recorded in ascending order, which
    /// fixes their place in this table's distance-tie order.
    pub fn merge(&mut self, other: KernelMap) {
        for (sig, kernels) in other.entries() {
            let sizes = [sig.in_per, sig.flops_per, sig.out_per];
            self.insert_with(&sig.tag, sizes, || kernels.to_vec());
        }
    }

    /// Number of distinct signatures recorded.
    pub fn len(&self) -> usize {
        self.tables.iter().map(|t| t.candidates.len()).sum()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(|t| t.candidates.is_empty())
    }

    /// Iterates over all recorded (signature, kernel list) entries,
    /// ascending by signature.
    pub fn entries(&self) -> impl Iterator<Item = (&LayerSignature, &[Arc<str>])> {
        self.tags
            .keys()
            .filter_map(|tag| self.table(tag))
            .flat_map(TagTable::sorted)
            .map(|c| (&c.sig, c.kernels.as_slice()))
    }

    /// Looks up the kernel list for a layer: exact signature match first,
    /// then the nearest recorded signature of the same layer type.
    ///
    /// Returns `None` if no layer of this type was ever recorded — which,
    /// for types like `flatten` that launch no kernels, is the correct
    /// "free" answer.
    pub fn kernels_for(&self, layer: &Layer) -> Option<&[Arc<str>]> {
        self.lookup(
            layer.type_tag(),
            layer.input.elems() as u64,
            layer_flops(layer),
            layer.output.elems() as u64,
        )
    }

    /// [`KernelMap::kernels_for`] on a signature given by its parts. An
    /// unknown tag has no candidates and returns `None`.
    fn lookup(&self, tag: &str, in_per: u64, flops_per: u64, out_per: u64) -> Option<&[Arc<str>]> {
        let table = self.table(tag)?;
        let nearest = match table.exact.get(&[in_per, flops_per, out_per]) {
            Some(&i) => table.candidates.get(i)?,
            None => {
                let query = log_coords(in_per, flops_per, out_per);
                // `min_by` keeps the first of equal minima: insertion order
                // breaks distance ties.
                let (_, nearest) = table
                    .candidates
                    .iter()
                    .map(|c| (log_distance(&query, &c.logs), c))
                    .min_by(|a, b| a.0.total_cmp(&b.0))?;
                nearest
            }
        };
        Some(&nearest.kernels)
    }
}

impl KernelMap {
    /// Serializes the table (persistence; deterministic order).
    pub(crate) fn write_text(&self, out: &mut String) {
        out.push_str(&format!("map {}\n", self.len()));
        for (sig, kernels) in self.entries() {
            out.push_str(&format!(
                "sig {} {} {} {} {}",
                sig.tag,
                sig.in_per,
                sig.flops_per,
                sig.out_per,
                kernels.len()
            ));
            for k in kernels {
                out.push(' ');
                out.push_str(k);
            }
            out.push('\n');
        }
    }

    /// Deserializes a table written by [`KernelMap::write_text`].
    pub(crate) fn read_text(
        cur: &mut crate::persist::Cursor<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::field;
        let count: usize = {
            let rest = cur.keyword("map")?;
            rest.trim()
                .parse()
                .map_err(|_| cur.parse_err(format!("bad map count {rest:?}")))?
        };
        let mut map = KernelMap::default();
        for _ in 0..count {
            let rest = cur.keyword("sig")?;
            let mut parts = rest.split_whitespace();
            let tag = parts
                .next()
                .ok_or_else(|| cur.parse_err("missing signature tag"))?;
            let sig = LayerSignature {
                tag: Arc::from(tag),
                in_per: field(cur, &mut parts, "in_per")?,
                flops_per: field(cur, &mut parts, "flops_per")?,
                out_per: field(cur, &mut parts, "out_per")?,
            };
            let k: usize = field(cur, &mut parts, "kernel count")?;
            let kernels: Vec<Arc<str>> = parts.map(Arc::from).collect();
            if kernels.len() != k {
                return Err(cur.parse_err(format!("expected {k} kernels, found {}", kernels.len())));
            }
            map.insert(sig, kernels);
        }
        Ok(map)
    }
}

fn same_layer_execution(a: &KernelRow, b: &KernelRow) -> bool {
    a.layer_index == b.layer_index && a.network == b.network && a.gpu == b.gpu && a.batch == b.batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;
    use dnnperf_dnn::zoo;
    use dnnperf_gpu::GpuSpec;
    use dnnperf_testkit::prelude::*;

    fn a100_map(nets: &[dnnperf_dnn::Network], batch: usize) -> KernelMap {
        let ds = collect(nets, &[GpuSpec::by_name("A100").unwrap()], &[batch]);
        KernelMap::from_rows(&ds.kernels)
    }

    #[test]
    fn exact_lookup_matches_dispatch() {
        let net = zoo::resnet::resnet18();
        let map = a100_map(std::slice::from_ref(&net), 32);
        for layer in net.layers() {
            let expected = dnnperf_gpu::dispatch::dispatch_layer(layer, 32);
            match map.kernels_for(layer) {
                Some(got) => {
                    let got: Vec<&str> = got.iter().map(|k| &**k).collect();
                    let want: Vec<&str> = expected.iter().map(|k| k.name.as_str()).collect();
                    assert_eq!(got, want, "layer {layer:?}");
                }
                None => assert!(expected.is_empty(), "missing mapping for {layer:?}"),
            }
        }
    }

    #[test]
    fn signatures_are_batch_invariant() {
        let net = zoo::resnet::resnet18();
        let map16 = a100_map(std::slice::from_ref(&net), 16);
        let map64 = a100_map(std::slice::from_ref(&net), 64);
        let keys = |m: &KernelMap| {
            let mut v: Vec<LayerSignature> = m.entries().map(|(s, _)| s.clone()).collect();
            // Cache the sort key: the comparator version allocated two
            // format! strings per comparison (O(n log n) allocations).
            v.sort_by_cached_key(|s| format!("{s:?}"));
            v
        };
        assert_eq!(keys(&map16), keys(&map64));
        // And structural signatures hit the table exactly.
        for layer in net.layers() {
            let sig = LayerSignature::of_layer(layer);
            let in_map = map16.entries().any(|(s, _)| *s == sig);
            let has_kernels = !dnnperf_gpu::dispatch::dispatch_layer(layer, 1).is_empty();
            assert_eq!(in_map, has_kernels, "{layer:?}");
        }
    }

    #[test]
    fn nearest_fallback_finds_same_type() {
        let map = a100_map(&[zoo::resnet::resnet18()], 16);
        // A conv shape not present in ResNet-18.
        let odd = dnnperf_dnn::Layer::apply(
            dnnperf_dnn::LayerKind::Conv2d(dnnperf_dnn::Conv2d::square(96, 96, 3, 1, 1)),
            dnnperf_dnn::TensorShape::chw(96, 30, 30),
        )
        .unwrap();
        let kernels = map.kernels_for(&odd).expect("nearest fallback");
        assert!(!kernels.is_empty());
    }

    #[test]
    fn unseen_tag_returns_none() {
        let map = a100_map(&[zoo::vgg::vgg11()], 16);
        let ln = dnnperf_dnn::Layer::apply(
            dnnperf_dnn::LayerKind::LayerNorm,
            dnnperf_dnn::TensorShape::tokens(8, 8),
        )
        .unwrap();
        assert!(map.kernels_for(&ln).is_none());
    }

    /// First-write-wins entries in insertion order: the reference's table.
    type Entries = Vec<(LayerSignature, Vec<Arc<str>>)>;

    /// Inserts `sigs` into a table and into the reference list, each with a
    /// one-kernel list naming its position, so a result names its entry.
    fn build(sigs: &[LayerSignature]) -> (KernelMap, Entries) {
        let mut map = KernelMap::default();
        let mut entries: Entries = Vec::new();
        for (i, sig) in sigs.iter().enumerate() {
            let kernels = vec![Arc::from(format!("k{i}"))];
            map.insert(sig.clone(), kernels.clone());
            if !entries.iter().any(|(s, _)| s == sig) {
                entries.push((sig.clone(), kernels));
            }
        }
        (map, entries)
    }

    /// The brute-force lookup the table must equal: an exact match, else
    /// the first-inserted signature of the same tag at minimum
    /// [`LayerSignature::distance`].
    fn reference<'a>(entries: &'a Entries, q: &LayerSignature) -> Option<&'a [Arc<str>]> {
        if let Some((_, k)) = entries.iter().find(|(s, _)| s == q) {
            return Some(k);
        }
        entries
            .iter()
            .filter(|(s, _)| s.tag == q.tag)
            .min_by(|a, b| q.distance(&a.0).total_cmp(&q.distance(&b.0)))
            .map(|(_, k)| k.as_slice())
    }

    fn sig(tag: &str, [in_per, flops_per, out_per]: [u64; 3]) -> LayerSignature {
        LayerSignature {
            tag: Arc::from(tag),
            in_per,
            flops_per,
            out_per,
        }
    }

    /// A per-sample size from a small pool plus a small offset. Past 2^53,
    /// neighbouring values convert to the same f64, so the pool yields
    /// exact distance ties between distinct signatures.
    fn arb_size() -> impl Gen<Value = u64> {
        (
            select(vec![0u64, 1, 6, 255, 4096, 1 << 20, 1 << 54]),
            0u64..3,
        )
            .prop_map(|(base, offset)| base + offset)
    }

    fn arb_sig() -> impl Gen<Value = LayerSignature> {
        (
            select(vec!["conv", "bn", "ln"]),
            arb_size(),
            arb_size(),
            arb_size(),
        )
            .prop_map(|(tag, i, f, o)| sig(tag, [i, f, o]))
    }

    /// A random 2-D convolution, `None` when its window does not fit.
    fn arb_conv() -> impl Gen<Value = Layer> {
        (
            1usize..48,
            1usize..48,
            select(vec![1usize, 3, 5, 7]),
            1usize..3,
            0usize..3,
            2usize..40,
        )
            .prop_filter_map("conv window must fit", |(ci, co, k, stride, pad, hw)| {
                dnnperf_dnn::Layer::apply(
                    dnnperf_dnn::LayerKind::Conv2d(dnnperf_dnn::Conv2d::square(
                        ci, co, k, stride, pad,
                    )),
                    dnnperf_dnn::TensorShape::chw(ci, hw, hw),
                )
                .ok()
            })
    }

    fn names(kernels: Option<&[Arc<str>]>) -> Option<Vec<&str>> {
        kernels.map(|ks| ks.iter().map(|k| &**k).collect())
    }

    /// Two distinct signatures at exactly the same distance from any query:
    /// `base` with one size set to 2^54 - 1 and to 2^54, which both
    /// convert to 2^54 as f64 after the `+ 1`. `flip` picks which one is
    /// inserted first.
    fn twins((base, coord, flip): &(LayerSignature, usize, bool)) -> [LayerSignature; 2] {
        let with = |v: u64| {
            let mut s = base.clone();
            match coord {
                0 => s.in_per = v,
                1 => s.flops_per = v,
                _ => s.out_per = v,
            }
            s
        };
        let (lo, hi) = (with((1 << 54) - 1), with(1 << 54));
        if *flip {
            [hi, lo]
        } else {
            [lo, hi]
        }
    }

    /// The string-keyed table [`KernelMap::from_row_refs`] must equal:
    /// executions end where network, GPU, batch or layer index changes by
    /// content, and the first execution of a signature gives its kernels.
    fn naive_entries(rows: &[KernelRow]) -> Entries {
        let mut entries: Entries = Vec::new();
        let mut i = 0;
        while i < rows.len() {
            let (a, mut j) = (&rows[i], i + 1);
            while j < rows.len()
                && *rows[j].network == *a.network
                && *rows[j].gpu == *a.gpu
                && rows[j].batch == a.batch
                && rows[j].layer_index == a.layer_index
            {
                j += 1;
            }
            let sig = LayerSignature::of_row(a);
            if !entries.iter().any(|(s, _)| *s == sig) {
                entries.push((sig, rows[i..j].iter().map(|r| r.kernel.clone()).collect()));
            }
            i = j;
        }
        entries
    }

    props! {
        #[test]
        fn from_row_refs_equals_string_keyed_build(
            experiments in crate::testdata::arb_experiments(crate::testdata::arb_seconds(), 1..12),
            queries in vec(arb_sig(), 1..10),
        ) {
            let ds = crate::testdata::dataset(&experiments);
            let map = KernelMap::from_rows(&ds.kernels);
            let entries = naive_entries(&ds.kernels);
            let mut sorted: Vec<_> = entries.iter().map(|(s, k)| (s, names(Some(k)))).collect();
            sorted.sort_by(|a, b| a.0.cmp(b.0));
            let got: Vec<_> = map.entries().map(|(s, k)| (s, names(Some(k)))).collect();
            prop_assert_eq!(got, sorted);
            prop_assert_eq!(map.len(), entries.len());
            for q in entries.iter().map(|(s, _)| s).chain(&queries) {
                let got = map.lookup(&q.tag, q.in_per, q.flops_per, q.out_per);
                prop_assert_eq!(names(got), names(reference(&entries, q)), "query {:?}", q);
            }
        }

        #[test]
        fn nearest_lookup_equals_brute_force(
            sigs in vec(arb_sig(), 0..40),
            tied in vec((arb_sig(), 0usize..3, any_bool()), 0..6),
            queries in vec(arb_sig(), 1..20),
        ) {
            // Tied pairs are recorded after the random set; their bases
            // are queried, so the tie often decides the answer.
            let sigs: Vec<LayerSignature> =
                sigs.into_iter().chain(tied.iter().flat_map(twins)).collect();
            let (map, entries) = build(&sigs);
            // Every recorded signature must hit itself, and every query
            // must land where the reference search lands.
            for q in sigs.iter().chain(&queries).chain(tied.iter().map(|t| &t.0)) {
                let got = map.lookup(&q.tag, q.in_per, q.flops_per, q.out_per);
                prop_assert_eq!(names(got), names(reference(&entries, q)), "query {:?}", q);
            }
        }

        #[test]
        fn kernels_for_random_layers_equals_brute_force(recorded in vec(arb_conv(), 1..30), sizes in vec((arb_size(), arb_size(), arb_size()), 0..10), queries in vec(arb_conv(), 1..20)) {
            let sigs: Vec<LayerSignature> = recorded
                .iter()
                .map(LayerSignature::of_layer)
                .chain(sizes.iter().map(|&(i, f, o)| sig("conv", [i, f, o])))
                .collect();
            let (map, entries) = build(&sigs);
            for layer in recorded.iter().chain(&queries) {
                let want = reference(&entries, &LayerSignature::of_layer(layer));
                prop_assert_eq!(names(map.kernels_for(layer)), names(want), "layer {:?}", layer);
            }
        }
    }

    #[test]
    fn distance_ties_go_to_the_first_inserted() {
        // 2^54 + 1 and 2^54 + 2 both convert to 2^54 as f64: two distinct
        // signatures at exactly the same distance from any query.
        let a = sig("conv", [(1 << 54) - 1, 10, 10]);
        let b = sig("conv", [1 << 54, 10, 10]);
        let q = sig("conv", [5, 10, 10]);
        assert_ne!(a, b);
        assert_eq!(q.distance(&a).to_bits(), q.distance(&b).to_bits());
        for order in [[&a, &b], [&b, &a]] {
            let (map, entries) = build(&[order[0].clone(), order[1].clone()]);
            let got = names(map.lookup("conv", 5, 10, 10));
            assert_eq!(got, Some(vec!["k0"]));
            assert_eq!(got, names(reference(&entries, &q)));
        }
    }

    #[test]
    fn merge_unions_signatures() {
        let a = a100_map(&[zoo::vgg::vgg11()], 16);
        let b = a100_map(&[zoo::mobilenet::mobilenet_v2(1.0, 1.0)], 16);
        let (la, lb) = (a.len(), b.len());
        let mut merged = a;
        merged.merge(b);
        assert!(merged.len() >= la.max(lb));
        assert!(merged.len() <= la + lb);
    }
}
