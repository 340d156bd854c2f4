//! The sharded, memory-budgeted compiled-plan cache: the one plan cache
//! behind every [`Workflow`], every [`crate::PredictionOracle`] lookup and
//! every tenant and worker of the prediction server.
//!
//! [`SharedPlanCache`] holds immutable [`Arc<CompiledPlan>`] values in
//! `N` independently locked shards, keyed by
//! `(suite generation, network fingerprint, batch)`:
//!
//! * the **suite generation** ([`Workflow::generation`]) is minted fresh
//!   by every training run and every [`Workflow::invalidate_plans`], so
//!   a retrained or invalidated suite changes every key it can produce —
//!   a reused cache *structurally cannot* serve plans compiled against
//!   retired models, and the retired entries simply age out under the
//!   budget;
//! * the **network fingerprint** ([`network_fingerprint`]) hashes the
//!   full layer structure, so two different networks never alias;
//! * the **batch** completes the request identity.
//!
//! Each shard runs LRU eviction under a per-shard slice of the
//! configured memory budget, charging each entry
//! [`CompiledPlan::approx_bytes`]; the measured size never exceeds the
//! budget (a plan larger than a whole shard's slice is served uncached
//! rather than admitted). Misses compile *outside* the shard lock, with
//! an in-flight set + condvar so concurrent requests for the same key
//! wait for the one compiling thread instead of duplicating its work —
//! lookups stay wait-free of compilation, and each key compiles at most
//! once per residency.

use crate::error::PredictError;
use crate::plan::{fnv1a, network_fingerprint, CompiledPlan, FNV_OFFSET};
use crate::workflow::Workflow;
use dnnperf_dnn::Network;
use dnnperf_sched::sync::{lock_unpoisoned, wait_unpoisoned};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identity of one cached plan. Ordering is derived so shards can use
/// ordinary B-tree maps (deterministic iteration, no hash seeding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    /// Suite generation the plan was compiled against.
    generation: u64,
    /// Structural fingerprint of the network.
    fingerprint: u64,
    /// Batch size of the request.
    batch: usize,
}

impl PlanKey {
    /// The key for a request against a given suite.
    fn of(suite: &Workflow, net: &Network, batch: usize) -> Self {
        PlanKey {
            generation: suite.generation(),
            fingerprint: network_fingerprint(net),
            batch,
        }
    }
}

/// Configuration of a [`SharedPlanCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of lock-striped shards. More shards mean less contention;
    /// the key mix spreads requests uniformly. Clamped to at least 1.
    pub shards: usize,
    /// Total memory budget in bytes across all shards, charged per entry
    /// via [`CompiledPlan::approx_bytes`]. Each shard gets an equal
    /// slice. Clamped to at least 1 byte per shard.
    pub budget_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            budget_bytes: 64 << 20,
        }
    }
}

/// A point-in-time snapshot of cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident plan.
    pub hits: u64,
    /// Lookups that compiled a plan (including waiting on another
    /// thread's compile of the same key).
    pub misses: u64,
    /// Plans actually compiled (`misses` minus piggy-backed waiters).
    pub compiles: u64,
    /// Entries evicted to stay under the memory budget.
    pub evictions: u64,
    /// Plans served uncached because they alone exceed a shard's budget
    /// slice.
    pub uncacheable: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Measured resident bytes right now.
    pub bytes: usize,
}

struct Entry {
    plan: Arc<CompiledPlan>,
    stamp: u64,
    bytes: usize,
}

#[derive(Default)]
struct ShardState {
    plans: BTreeMap<PlanKey, Entry>,
    /// LRU index: recency stamp -> key. Stamps are unique per shard.
    lru: BTreeMap<u64, PlanKey>,
    /// Keys currently being compiled by some thread.
    inflight: BTreeSet<PlanKey>,
    tick: u64,
    bytes: usize,
}

impl ShardState {
    fn touch(&mut self, key: PlanKey) -> Option<Arc<CompiledPlan>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.plans.get_mut(&key)?;
        self.lru.remove(&entry.stamp);
        entry.stamp = tick;
        self.lru.insert(tick, key);
        Some(entry.plan.clone())
    }

    /// Evicts least-recently-used entries (never `keep`) until the shard
    /// fits `budget`. Returns how many entries were evicted.
    fn evict_to_budget(&mut self, budget: usize, keep: PlanKey) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let victim = match self
                .lru
                .iter()
                .map(|(s, k)| (*s, *k))
                .find(|(_, k)| *k != keep)
            {
                Some(v) => v,
                None => break,
            };
            self.lru.remove(&victim.0);
            if let Some(e) = self.plans.remove(&victim.1) {
                self.bytes = self.bytes.saturating_sub(e.bytes);
            }
            evicted += 1;
        }
        evicted
    }
}

struct Shard {
    state: Mutex<ShardState>,
    /// Signalled when an in-flight compile finishes (success or failure).
    compiled: Condvar,
}

/// The sharded, memory-budgeted, generation-keyed plan cache. See the
/// module docs for the design.
pub struct SharedPlanCache {
    shards: Vec<Shard>,
    budget_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
    uncacheable: AtomicU64,
}

impl SharedPlanCache {
    /// Creates a cache from `config` (shard count and budget are clamped
    /// to usable minimums).
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let budget_per_shard = (config.budget_bytes / shards).max(1);
        SharedPlanCache {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState::default()),
                    compiled: Condvar::new(),
                })
                .collect(),
            budget_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard memory budget slice in bytes.
    pub fn budget_per_shard(&self) -> usize {
        self.budget_per_shard
    }

    /// Total configured memory budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_per_shard * self.shards.len()
    }

    fn shard_of(&self, key: &PlanKey) -> &Shard {
        // Byte-wise FNV-1a over the little-endian key fields.
        let h = [key.generation, key.fingerprint, key.batch as u64]
            .iter()
            .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()));
        let idx = (h % self.shards.len() as u64) as usize;
        // idx < len by construction; the iterator fallback keeps the hot
        // path free of panicking accessors either way.
        self.shards
            .get(idx)
            .unwrap_or_else(|| match self.shards.first() {
                Some(s) => s,
                None => std::process::abort(), // new() guarantees >= 1 shard
            })
    }

    /// The cached plan for `(suite, net, batch)`, compiling on miss.
    ///
    /// The returned plan is always the one compiled against `suite`'s
    /// *current* generation: a racing [`Workflow::invalidate_plans`] or
    /// suite swap changes the key, never the meaning of a resident entry.
    ///
    /// # Errors
    ///
    /// Propagates [`PredictError`] from plan compilation (invalid
    /// requests fail here exactly as on the uncompiled path).
    pub fn get_or_compile(
        &self,
        suite: &Workflow,
        net: &Network,
        batch: usize,
    ) -> Result<Arc<CompiledPlan>, PredictError> {
        let key = PlanKey::of(suite, net, batch);
        let shard = self.shard_of(&key);
        {
            let mut st = lock_unpoisoned(&shard.state);
            loop {
                if let Some(plan) = st.touch(key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(plan);
                }
                if !st.inflight.contains(&key) {
                    st.inflight.insert(key);
                    break;
                }
                // Another thread is compiling this key: wait for it, then
                // re-check (its success puts the plan in the map; its
                // failure leaves us to retry the compile ourselves).
                st = wait_unpoisoned(&shard.compiled, st);
            }
        }
        // Compile outside the lock: other keys on this shard stay
        // servable while we work.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = CompiledPlan::compile(suite, net, batch);
        let mut st = lock_unpoisoned(&shard.state);
        st.inflight.remove(&key);
        let result = match compiled {
            Ok(plan) => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                let plan = Arc::new(plan);
                let bytes = plan.approx_bytes();
                if bytes > self.budget_per_shard {
                    // Larger than the whole shard slice: serving it
                    // uncached keeps the budget invariant exact.
                    self.uncacheable.fetch_add(1, Ordering::Relaxed);
                } else {
                    st.tick += 1;
                    let tick = st.tick;
                    st.plans.insert(
                        key,
                        Entry {
                            plan: plan.clone(),
                            stamp: tick,
                            bytes,
                        },
                    );
                    st.lru.insert(tick, key);
                    st.bytes += bytes;
                    let evicted = st.evict_to_budget(self.budget_per_shard, key);
                    if evicted > 0 {
                        self.evictions.fetch_add(evicted, Ordering::Relaxed);
                    }
                }
                Ok(plan)
            }
            Err(e) => Err(e),
        };
        drop(st);
        shard.compiled.notify_all();
        result
    }

    /// Drops every resident plan compiled against `generation` (a retired
    /// suite). Entries of other generations are untouched. Returns how
    /// many entries were purged.
    pub fn purge_generation(&self, generation: u64) -> usize {
        let mut purged = 0;
        for shard in &self.shards {
            let mut st = lock_unpoisoned(&shard.state);
            let victims: Vec<(u64, PlanKey)> = st
                .plans
                .iter()
                .filter(|(k, _)| k.generation == generation)
                .map(|(k, e)| (e.stamp, *k))
                .collect();
            for (stamp, key) in victims {
                st.lru.remove(&stamp);
                if let Some(e) = st.plans.remove(&key) {
                    st.bytes = st.bytes.saturating_sub(e.bytes);
                    purged += 1;
                }
            }
        }
        purged
    }

    /// Drops every resident plan.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut st = lock_unpoisoned(&shard.state);
            st.plans.clear();
            st.lru.clear();
            st.bytes = 0;
        }
    }

    /// Resident entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(&s.state).plans.len())
            .sum()
    }

    /// Resident entry count compiled against `generation`.
    pub(crate) fn len_generation(&self, generation: u64) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock_unpoisoned(&s.state)
                    .plans
                    .keys()
                    .filter(|k| k.generation == generation)
                    .count()
            })
            .sum()
    }

    /// Whether no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Measured resident bytes across all shards (always within the
    /// configured budget).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(&s.state).bytes)
            .sum()
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.bytes(),
        }
    }
}

impl std::fmt::Debug for SharedPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "SharedPlanCache({} shards, {} entries, {}/{} bytes)",
            self.shards.len(),
            s.entries,
            s.bytes,
            self.budget_bytes()
        )
    }
}
