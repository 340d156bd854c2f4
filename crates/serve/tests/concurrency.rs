//! Concurrency conformance for the shared plan cache: many threads
//! hammering one cache — hits, misses, evictions and mid-flight
//! invalidation — must stay deterministic per request, never deadlock,
//! and never compile a key more than once per residency.

use dnnperf_core::plan::CompiledPlan;
use dnnperf_core::Workflow;
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_serve::{CacheConfig, SharedPlanCache};
use std::sync::Arc;

fn nets() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
        zoo::squeezenet::squeezenet(128, 128, 0.25),
    ]
}

fn train(gpu: &str) -> Arc<Workflow> {
    let spec = GpuSpec::by_name(gpu).unwrap();
    let ds = collect(&nets(), &[spec], &[1, 8]);
    Arc::new(Workflow::train(&ds, gpu).unwrap())
}

const BATCHES: [usize; 3] = [1, 8, 32];

/// Every thread's every prediction must bit-match a direct compile
/// against the suite it used, whatever the interleaving.
#[test]
fn hammered_cache_stays_deterministic_and_compiles_each_key_once() {
    let suite = train("A100");
    let nets = nets();
    let cache = SharedPlanCache::new(&CacheConfig {
        shards: 4,
        budget_bytes: 32 << 20, // ample: nothing should evict
    });

    // Direct-path oracle, computed up front.
    let mut oracle = Vec::new();
    for net in &nets {
        for &batch in &BATCHES {
            oracle.push(suite.predict(net, batch).unwrap().to_bits());
        }
    }

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..16usize {
            let suite = &suite;
            let nets = &nets;
            let cache = &cache;
            let oracle = &oracle;
            handles.push(s.spawn(move || {
                for i in 0..40usize {
                    let ni = (t * 7 + i) % nets.len();
                    let bi = (t + i) % BATCHES.len();
                    let net = &nets[ni];
                    let plan = cache.get_or_compile(suite, net, BATCHES[bi]).unwrap();
                    assert_eq!(
                        plan.predict().to_bits(),
                        oracle[ni * BATCHES.len() + bi],
                        "thread {t} iter {i}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    let stats = cache.stats();
    let distinct = nets.len() * BATCHES.len();
    assert_eq!(
        stats.compiles as usize, distinct,
        "each key must compile exactly once: {stats:?}"
    );
    assert_eq!(stats.evictions, 0, "budget was ample: {stats:?}");
    assert_eq!(stats.entries, distinct);
    assert_eq!(
        stats.hits + stats.misses,
        16 * 40,
        "every request is a hit or a miss: {stats:?}"
    );
}

/// Under a tight budget the measured size never exceeds it, eviction
/// happens, and every served prediction is still exact.
#[test]
fn tight_budget_evicts_but_never_overflows_or_corrupts() {
    let suite = train("A100");
    let nets = nets();

    // Budget sized to hold only a few plans: measure one plan first.
    let probe = CompiledPlan::compile(&suite, &nets[0], 1).unwrap();
    let one = probe.approx_bytes();
    let budget = one * 3;
    let cache = SharedPlanCache::new(&CacheConfig {
        shards: 1, // one shard so the budget bites hard
        budget_bytes: budget,
    });

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..8usize {
            let suite = &suite;
            let nets = &nets;
            let cache = &cache;
            handles.push(s.spawn(move || {
                for i in 0..30usize {
                    let net = &nets[(t + i) % nets.len()];
                    let batch = BATCHES[(t * 3 + i) % BATCHES.len()];
                    let plan = cache.get_or_compile(suite, net, batch).unwrap();
                    let direct = suite.predict(net, batch).unwrap();
                    assert_eq!(plan.predict().to_bits(), direct.to_bits());
                    // The budget invariant must hold at every instant we
                    // can observe it, not just at the end.
                    assert!(
                        cache.bytes() <= cache.budget_bytes(),
                        "cache {} bytes over budget {}",
                        cache.bytes(),
                        cache.budget_bytes()
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    let stats = cache.stats();
    assert!(stats.evictions > 0, "tight budget must evict: {stats:?}");
    assert!(stats.bytes <= budget, "{} > {budget}", stats.bytes);
}

/// Swapping suites (a retrain) mid-hammer: requests pin their suite, so
/// each one is served by exactly the generation it asked for, and the
/// retired generation can be purged without disturbing the new one.
#[test]
fn mid_flight_invalidation_keeps_requests_deterministic() {
    let suite_a = train("A100");
    let suite_b = train("V100");
    let nets = nets();
    let cache = Arc::new(SharedPlanCache::new(&CacheConfig {
        shards: 4,
        budget_bytes: 32 << 20,
    }));

    assert_ne!(suite_a.generation(), suite_b.generation());

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..12usize {
            let suite_a = &suite_a;
            let suite_b = &suite_b;
            let nets = &nets;
            let cache = &cache;
            handles.push(s.spawn(move || {
                for i in 0..30usize {
                    // Threads alternate suites; a purge races underneath.
                    // Indices are decorrelated so every (suite, net,
                    // batch) combo is exercised by every thread.
                    let suite = if i % 2 == 0 { suite_a } else { suite_b };
                    let net = &nets[(t + i / 2) % nets.len()];
                    let batch = BATCHES[(t + i) % BATCHES.len()];
                    let plan = cache.get_or_compile(suite, net, batch).unwrap();
                    assert_eq!(plan.suite_generation(), suite.generation());
                    let direct = suite.predict(net, batch).unwrap();
                    assert_eq!(plan.predict().to_bits(), direct.to_bits());
                }
            }));
        }
        // The invalidator: repeatedly purge suite A's generation while
        // the hammer runs.
        {
            let cache = &cache;
            let suite_a = &suite_a;
            handles.push(s.spawn(move || {
                for _ in 0..20 {
                    cache.purge_generation(suite_a.generation());
                    std::thread::yield_now();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    // After a final purge only suite B's generation remains resident.
    cache.purge_generation(suite_a.generation());
    let remaining = cache.len();
    assert!(remaining <= nets.len() * BATCHES.len());
    // Requests against B still hit without recompiling.
    let misses_before = cache.stats().misses;
    for net in &nets {
        let plan = cache.get_or_compile(&suite_b, net, 8).unwrap();
        assert_eq!(plan.suite_generation(), suite_b.generation());
    }
    assert_eq!(cache.stats().misses, misses_before);
}

/// The fleet-simulator oracle path: a `PredictionOracle` over shared
/// `Arc<Workflow>`s, soaked with 10k seeded randomized ops — lookups
/// racing `invalidate_plans` on the very suites being priced. Every
/// oracle answer must bit-match the suite's graceful prediction, notes
/// included, whichever generation the lookup landed on. (The budget and
/// purge invariants are pinned by the direct `SharedPlanCache` tests
/// above.)
#[test]
fn oracle_over_shared_suites_soaks_through_invalidations() {
    use dnnperf_core::{OracleSource, PredictionOracle};

    let suite_a = train("A100");
    let suite_b = train("V100");
    let nets = nets();

    let mut oracle = PredictionOracle::new();
    oracle.add_suite(Arc::clone(&suite_a));
    oracle.add_suite(Arc::clone(&suite_b));
    let oracle = &oracle;

    // Expected answers, computed before any invalidation races.
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    let suites = [&suite_a, &suite_b];
    let mut want = Vec::new();
    for suite in suites {
        for net in &nets {
            for &batch in &BATCHES {
                want.push(suite.predict_graceful(net, batch).unwrap());
            }
        }
    }
    let want = &want;
    let generations_before = suites.map(|s| s.generation());

    const OPS: usize = 10_000;
    const THREADS: usize = 8;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let gpus = &gpus;
            let nets = &nets;
            handles.push(s.spawn(move || {
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ ((t as u64) << 21);
                let mut lcg = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };
                for op in 0..OPS / THREADS {
                    let gi = lcg() % gpus.len();
                    let ni = lcg() % nets.len();
                    let bi = lcg() % BATCHES.len();
                    if lcg() % 16 == 0 {
                        // An in-place invalidation races the lookups.
                        suites[gi].invalidate_plans();
                    }
                    let got = oracle.predict(&gpus[gi], &nets[ni], BATCHES[bi]).unwrap();
                    let expect = &want[(gi * nets.len() + ni) * BATCHES.len() + bi];
                    assert_eq!(
                        got.seconds.to_bits(),
                        expect.seconds.to_bits(),
                        "thread {t} op {op}"
                    );
                    assert_eq!(got.notes, expect.notes);
                    assert_eq!(got.source, OracleSource::CompiledPlan);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    for (suite, before) in suites.iter().zip(generations_before) {
        assert_ne!(suite.generation(), before, "the soak must invalidate");
        // Only the current generation counts: at most one plan per key.
        assert!(suite.cached_plans() <= nets.len() * BATCHES.len());
    }
}
