//! Content-addressed on-disk dataset cache.
//!
//! Every experiment binary re-collects the main CNN-zoo dataset — hundreds
//! of networks on several GPUs, producing on the order of a million kernel
//! rows — so the end-to-end reproduction pays the profiling cost over and
//! over. This module memoizes a collection request on disk, keyed by a
//! digest of everything that determines its result:
//!
//! * the **workloads**: network names, families, input shapes, layer
//!   counts and per-layer FLOPs/bytes;
//! * the **hardware**: every field of every [`GpuSpec`];
//! * the **grid**: the batch-size list (order-sensitive, like the grid);
//! * the **measurement universe**: the [`TimingModel`] seed and the
//!   collection mode (inference vs training).
//!
//! The digest deliberately covers *identities*, not simulator internals:
//! the predictors still never see anything but the produced rows (see
//! DESIGN.md, "dataset cache"). Change any input and the key changes, so a
//! stale entry can never be returned as fresh.
//!
//! Entries are single files named `<key>.dsc` holding a versioned header,
//! the three row tables in the exact CSV row format of [`crate::csv`], and
//! a trailing `end` marker. Writers write to a unique temp file and
//! `rename(2)` it into place — atomic on POSIX — so concurrent writers of
//! the same key race benignly (last complete file wins) and readers never
//! observe a torn entry. Any malformed, truncated or version-mismatched
//! entry is treated as a miss and recollected.

use crate::csv::{
    parse_kernel_row, parse_layer_row, parse_network_row, write_kernel_row, write_layer_row,
    write_network_row, KERNEL_HEADER, LAYER_HEADER, NETWORK_HEADER,
};
use crate::dataset::Dataset;
use crate::record::Interner;
use dnnperf_dnn::flops::{layer_bytes, layer_flops};
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk container format version. Bump on any layout change: old
/// entries then key-miss (the version participates in the digest) *and*
/// header-miss (the magic line embeds it), so both directions of skew fall
/// back to recollection.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Magic first line of every cache entry.
fn magic_line() -> String {
    format!("dnnperf-dataset-cache v{CACHE_FORMAT_VERSION}")
}

/// A streaming FNV-1a 64-bit hasher (std-only; the same construction the
/// workspace's `hashrng` uses for string hashing).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorbs a length-prefixed string (prefixing prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What a collection run measures; part of the cache key because training
/// traces and inference traces of the same grid differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMode {
    /// Forward inference batches (the paper's main dataset).
    Inference,
    /// Training steps: forward + backward + optimizer update.
    Training,
}

/// Computes the content address of a collection request.
///
/// Two requests get the same key iff they would produce the same dataset:
/// same networks (by name *and* structure), same GPUs (every spec field),
/// same batch list, same timing-model seed, same mode, same container
/// version.
pub fn dataset_key(
    nets: &[Network],
    gpus: &[GpuSpec],
    batches: &[usize],
    timing_seed: u64,
    mode: CollectMode,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(CACHE_FORMAT_VERSION as u64);
    h.write_u64(timing_seed);
    h.write_u64(matches!(mode, CollectMode::Training) as u64);
    h.write_u64(nets.len() as u64);
    for net in nets {
        h.write_str(net.name());
        h.write_str(&net.family().to_string());
        // The input shape's exact structure (not just element count).
        h.write_str(&format!("{:?}", net.input_shape()));
        h.write_u64(net.num_layers() as u64);
        for layer in net.layers() {
            h.write_u64(layer_flops(layer));
            h.write_u64(layer_bytes(layer));
        }
    }
    h.write_u64(gpus.len() as u64);
    for g in gpus {
        h.write_str(&g.name);
        h.write_f64(g.bandwidth_gbps);
        h.write_f64(g.memory_gb);
        h.write_f64(g.fp32_tflops);
        h.write_u64(g.tensor_cores as u64);
        h.write_u64(g.sm_count as u64);
    }
    h.write_u64(batches.len() as u64);
    for &b in batches {
        h.write_u64(b as u64);
    }
    h.finish()
}

/// Aggregate cache traffic of one collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a valid cache entry.
    pub hits: u64,
    /// Requests that had to profile (no entry, stale, or caching disabled
    /// counts as neither).
    pub misses: u64,
    /// Entries that existed but were malformed, truncated, stale (format
    /// version skew) or stored under a mismatched key. These recollect
    /// like misses, but are surfaced separately: a corrupt entry means
    /// something damaged the cache, which silence would hide.
    pub corrupt: u64,
    /// Bytes read from cache entries.
    pub bytes_read: u64,
    /// Bytes written into new cache entries.
    pub bytes_written: u64,
}

impl CacheStats {
    /// Folds another run's traffic into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.corrupt += other.corrupt;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }

    /// The one-line per-run summary experiments print:
    /// `cache: 1 hit, 0 misses, 0 corrupt, 1234567 B read, 0 B written, 0.52s wall`.
    pub fn summary(&self, wall_seconds: f64) -> String {
        format!(
            "cache: {} hit{}, {} miss{}, {} corrupt, {} B read, {} B written, {:.2}s wall",
            self.hits,
            if self.hits == 1 { "" } else { "s" },
            self.misses,
            if self.misses == 1 { "" } else { "es" },
            self.corrupt,
            self.bytes_read,
            self.bytes_written,
            wall_seconds
        )
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {} hits, {} misses, {} corrupt, {} B read, {} B written",
            self.hits, self.misses, self.corrupt, self.bytes_read, self.bytes_written
        )
    }
}

/// Outcome of a classified cache probe (see [`DatasetCache::lookup`]).
#[derive(Debug)]
pub enum CacheLookup {
    /// A valid entry: the dataset and the entry's size in bytes.
    Hit(Dataset, u64),
    /// No entry file exists for the key.
    Miss,
    /// An entry file exists but is malformed, truncated, version-skewed or
    /// stored under a mismatched key; it will be overwritten on store.
    Corrupt,
}

/// Process-wide nonce so concurrent writers in one process never share a
/// temp file.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A content-addressed dataset cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct DatasetCache {
    dir: PathBuf,
}

impl DatasetCache {
    /// Opens (without touching the filesystem) a cache rooted at `dir`.
    /// The directory is created lazily on first store.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DatasetCache { dir: dir.into() }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.dsc"))
    }

    /// Loads the entry for `key`, returning the dataset and the entry's
    /// size in bytes. Returns `None` — never panics, never errors — when
    /// the entry is absent, truncated, corrupted, from a different format
    /// version, or stored under a mismatched key: all of those mean
    /// "recollect". Use [`DatasetCache::lookup`] to distinguish an absent
    /// entry from a damaged one.
    pub fn load(&self, key: u64) -> Option<(Dataset, u64)> {
        match self.lookup(key) {
            CacheLookup::Hit(ds, bytes) => Some((ds, bytes)),
            CacheLookup::Miss | CacheLookup::Corrupt => None,
        }
    }

    /// Probes the entry for `key`, classifying the result: a clean
    /// [`CacheLookup::Hit`], a plain [`CacheLookup::Miss`] (no entry
    /// file), or [`CacheLookup::Corrupt`] (an entry file exists but cannot
    /// be trusted). Corrupt covers truncation, damaged rows, format
    /// version skew and key mismatch — everything that previously read
    /// silently as a miss.
    pub fn lookup(&self, key: u64) -> CacheLookup {
        let path = self.entry_path(key);
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            // An unopenable file only counts as corrupt if it exists.
            Err(_) => {
                return if path.exists() {
                    CacheLookup::Corrupt
                } else {
                    CacheLookup::Miss
                };
            }
        };
        match self.parse_entry(file, key) {
            Some((ds, bytes)) => CacheLookup::Hit(ds, bytes),
            None => CacheLookup::Corrupt,
        }
    }

    /// Parses one opened entry file; `None` on any damage.
    fn parse_entry(&self, file: std::fs::File, key: u64) -> Option<(Dataset, u64)> {
        let bytes = file.metadata().ok()?.len();
        let mut lines = BufReader::new(file).lines();
        let mut next = || lines.next()?.ok();

        if next()? != magic_line() {
            return None;
        }
        if next()? != format!("key {key:016x}") {
            return None;
        }
        let counts_line = next()?;
        let counts: Vec<usize> = counts_line
            .strip_prefix("counts ")?
            .split(' ')
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        let [n_networks, n_layers, n_kernels] = counts.try_into().ok()?;

        if next()? != NETWORK_HEADER {
            return None;
        }
        // The counts come from the file, so they size nothing: the tables
        // grow as rows parse, and a hostile count runs out of lines (a
        // corrupt entry) instead of aborting on one huge allocation.
        let mut ds = Dataset::new();
        let mut names = Interner::default();
        for _ in 0..n_networks {
            ds.networks
                .push(parse_network_row(&next()?, 0, &mut names).ok()?);
        }
        if next()? != LAYER_HEADER {
            return None;
        }
        for _ in 0..n_layers {
            ds.layers
                .push(parse_layer_row(&next()?, 0, &mut names).ok()?);
        }
        if next()? != KERNEL_HEADER {
            return None;
        }
        for _ in 0..n_kernels {
            ds.kernels
                .push(parse_kernel_row(&next()?, 0, &mut names).ok()?);
        }
        // Trailing marker guards against truncation after a whole table.
        if next()? != "end" {
            return None;
        }
        Some((ds, bytes))
    }

    /// Stores `ds` under `key` atomically (unique temp file + rename), and
    /// returns the number of bytes written.
    ///
    /// Concurrent stores of the same key are safe: each writer renames its
    /// own complete temp file over the entry, so the entry is always one
    /// writer's complete output.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers treat the cache as
    /// best-effort and may ignore them.
    pub fn store(&self, key: u64, ds: &Dataset) -> std::io::Result<u64> {
        std::fs::create_dir_all(&self.dir)?;
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{key:016x}.tmp.{}.{nonce}", std::process::id()));
        let result = (|| {
            let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(w, "{}", magic_line())?;
            writeln!(w, "key {key:016x}")?;
            writeln!(
                w,
                "counts {} {} {}",
                ds.networks.len(),
                ds.layers.len(),
                ds.kernels.len()
            )?;
            writeln!(w, "{NETWORK_HEADER}")?;
            for r in &ds.networks {
                write_network_row(&mut w, r)?;
            }
            writeln!(w, "{LAYER_HEADER}")?;
            for r in &ds.layers {
                write_layer_row(&mut w, r)?;
            }
            writeln!(w, "{KERNEL_HEADER}")?;
            for r in &ds.kernels {
                write_kernel_row(&mut w, r)?;
            }
            writeln!(w, "end")?;
            w.flush()?;
            let bytes = w.get_ref().metadata()?.len();
            drop(w);
            std::fs::rename(&tmp, self.entry_path(key))?;
            Ok(bytes)
        })();
        if result.is_err() {
            // Best-effort: never leave temp litter behind a failed store.
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_dnn::zoo;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dnnperf_cache_unit_{name}"));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_dataset() -> Dataset {
        crate::collect::collect(
            &[zoo::mobilenet::mobilenet_v2(0.5, 1.0)],
            &[GpuSpec::by_name("V100").unwrap()],
            &[8],
        )
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = DatasetCache::new(tmp("roundtrip"));
        let ds = small_dataset();
        let written = cache.store(42, &ds).unwrap();
        let (back, read) = cache.load(42).unwrap();
        assert_eq!(ds, back);
        assert_eq!(written, read);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_entry_is_none() {
        let cache = DatasetCache::new(tmp("missing"));
        assert!(cache.load(7).is_none());
    }

    #[test]
    fn key_mismatch_is_none() {
        // An entry stored under one key must not answer another (content
        // addressing, not path trust): simulate by copying the file.
        let cache = DatasetCache::new(tmp("keymismatch"));
        let ds = small_dataset();
        cache.store(1, &ds).unwrap();
        std::fs::copy(cache.entry_path(1), cache.entry_path(2)).unwrap();
        assert!(cache.load(1).is_some());
        assert!(cache.load(2).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn hostile_row_counts_read_as_a_miss() {
        // The counts line must size nothing: honoring this count would
        // mean one allocation of tens of terabytes.
        let cache = DatasetCache::new(tmp("hostile_counts"));
        let ds = small_dataset();
        cache.store(6, &ds).unwrap();
        let text = std::fs::read_to_string(cache.entry_path(6)).unwrap();
        let (n, l, k) = (ds.networks.len(), ds.layers.len(), ds.kernels.len());
        let honest = format!("counts {n} {l} {k}");
        assert!(text.contains(&honest));
        let huge = 1u64 << 40;
        for hostile in [
            format!("counts {huge} {l} {k}"),
            format!("counts {n} {huge} {k}"),
            format!("counts {n} {l} {huge}"),
        ] {
            std::fs::write(cache.entry_path(6), text.replace(&honest, &hostile)).unwrap();
            assert!(matches!(cache.lookup(6), CacheLookup::Corrupt), "{hostile}");
            assert!(cache.load(6).is_none(), "{hostile}");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_covers_every_input() {
        let nets = [
            zoo::mobilenet::mobilenet_v2(0.5, 1.0),
            zoo::resnet::resnet18(),
        ];
        let gpus = [
            GpuSpec::by_name("A100").unwrap(),
            GpuSpec::by_name("V100").unwrap(),
        ];
        let base = dataset_key(&nets, &gpus, &[8, 16], 1, CollectMode::Inference);
        // Same inputs: same key.
        assert_eq!(
            base,
            dataset_key(&nets, &gpus, &[8, 16], 1, CollectMode::Inference)
        );
        // Each varied input changes the key.
        assert_ne!(
            base,
            dataset_key(&nets[..1], &gpus, &[8, 16], 1, CollectMode::Inference)
        );
        assert_ne!(
            base,
            dataset_key(&nets, &gpus[..1], &[8, 16], 1, CollectMode::Inference)
        );
        assert_ne!(
            base,
            dataset_key(&nets, &gpus, &[8], 1, CollectMode::Inference)
        );
        assert_ne!(
            base,
            dataset_key(&nets, &gpus, &[8, 16], 2, CollectMode::Inference)
        );
        assert_ne!(
            base,
            dataset_key(&nets, &gpus, &[8, 16], 1, CollectMode::Training)
        );
        // A modified GPU spec (same name) changes the key.
        let mut modded = gpus.to_vec();
        modded[0] = modded[0].with_bandwidth(999.0);
        modded[0].name = gpus[0].name.clone();
        assert_ne!(
            base,
            dataset_key(&nets, &modded, &[8, 16], 1, CollectMode::Inference)
        );
    }

    #[test]
    fn stats_summary_mentions_all_fields() {
        let s = CacheStats {
            hits: 1,
            misses: 0,
            corrupt: 2,
            bytes_read: 10,
            bytes_written: 0,
        };
        let line = s.summary(0.5);
        assert!(line.contains("1 hit,"), "{line}");
        assert!(line.contains("0 misses"), "{line}");
        assert!(line.contains("2 corrupt"), "{line}");
        assert!(line.contains("10 B read"), "{line}");
        assert!(line.contains("0.50s wall"), "{line}");
    }

    #[test]
    fn lookup_classifies_miss_vs_corrupt() {
        let cache = DatasetCache::new(tmp("lookup_classify"));
        // Absent entry: a plain miss.
        assert!(matches!(cache.lookup(3), CacheLookup::Miss));
        // Damaged entry: corrupt, not a silent miss.
        let ds = small_dataset();
        cache.store(3, &ds).unwrap();
        assert!(matches!(cache.lookup(3), CacheLookup::Hit(..)));
        std::fs::write(cache.entry_path(3), b"dnnperf-dataset-cache v1\ngarbage\n").unwrap();
        assert!(matches!(cache.lookup(3), CacheLookup::Corrupt));
        // Key mismatch also classifies as corrupt.
        cache.store(4, &ds).unwrap();
        std::fs::copy(cache.entry_path(4), cache.entry_path(5)).unwrap();
        assert!(matches!(cache.lookup(5), CacheLookup::Corrupt));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
