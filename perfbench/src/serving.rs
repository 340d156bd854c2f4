//! Closed-loop serving workloads: `nproc` client threads, each holding one
//! TCP connection and sending its next request only after the previous
//! answer arrives, against a server with `nproc` workers.
//!
//! * `serve_hot` draws from the 16 catalog networks with the most layers
//!   × batches {1, 8, 32, 64}; the plan cache is pre-warmed, so every
//!   lookup hits and per-request overhead dominates.
//! * `serve_churn` draws uniformly from the whole zoo × {1, 8, 32, 64}
//!   with a cache budget of a fifth of the working set's plan bytes, so
//!   most lookups compile and evict.

use crate::stats::{median, percentile, Row};
use crate::trace::{Span, SpanId, Tracer};
use dnnperf_core::plan::network_fingerprint;
use dnnperf_core::{CompiledPlan, Workflow};
use dnnperf_dnn::Network;
use dnnperf_serve::{
    CacheConfig, CacheStats, Client, PredictionServer, Request, Response, ServerConfig,
    ServerStats, SharedPlanCache, TcpConfig, TcpServer,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch sizes of every serving request.
pub const BATCHES: [usize; 4] = [1, 8, 32, 64];
/// Networks in the `serve_hot` pool.
pub const HOT_NETWORKS: usize = 16;
/// `serve_hot` cache budget: far above its working set.
pub const HOT_BUDGET_BYTES: usize = 64 << 20;
/// `serve_churn` budget = working-set plan bytes / this.
pub const CHURN_BUDGET_DIVISOR: usize = 5;
/// Lock-striped cache shards.
pub const CACHE_SHARDS: usize = 16;
/// Admission queue depth (a closed loop of `nproc` clients never fills it).
pub const QUEUE_DEPTH: usize = 64;
/// The tenant every request names.
pub const TENANT: &str = "bench";
/// Most timed requests the traced run replays layer by layer.
pub const REPLAY_CAP: usize = 50_000;
/// Length of the windows whose medians the serving metrics report.
pub const WINDOW_S: f64 = 2.0;
/// Request ids at or above this belong to the pre-warm, not timed traffic.
const PREWARM_ID_BASE: u64 = 1 << 62;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Pre-warmed, 100 % hits.
    Hot,
    /// Whole zoo under a tight budget.
    Churn,
}

/// The seeded request generator: a 64-bit LCG per client.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// The stream of client `client` under run seed `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (client + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 31 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `(catalog index, batch)` keys a workload draws from.
pub fn request_pool(mix: Mix, catalog: &[Network]) -> Vec<(usize, usize)> {
    let nets: Vec<usize> = match mix {
        Mix::Churn => (0..catalog.len()).collect(),
        Mix::Hot => {
            let mut by_depth: Vec<usize> = (0..catalog.len()).collect();
            by_depth.sort_by(|&a, &b| {
                catalog[b]
                    .num_layers()
                    .cmp(&catalog[a].num_layers())
                    .then_with(|| catalog[a].name().cmp(catalog[b].name()))
            });
            by_depth.truncate(HOT_NETWORKS);
            by_depth
        }
    };
    nets.into_iter()
        .flat_map(|n| BATCHES.iter().map(move |&b| (n, b)))
        .collect()
}

/// Reference answers, computed in-process outside set-up time.
pub struct Reference {
    /// `f64::to_bits` of `CompiledPlan::compile(..).predict()` per pool key.
    pub bits: Vec<u64>,
    /// Sum of `CompiledPlan::approx_bytes` over the pool.
    pub plan_bytes: usize,
}

impl Reference {
    /// Compiles every pool key once against `suite`.
    pub fn compute(suite: &Workflow, catalog: &[Network], pool: &[(usize, usize)]) -> Self {
        let mut bits = Vec::with_capacity(pool.len());
        let mut plan_bytes = 0;
        for &(n, b) in pool {
            let plan = CompiledPlan::compile(suite, &catalog[n], b)
                .unwrap_or_else(|e| panic!("reference compile of {}: {e}", catalog[n].name()));
            bits.push(plan.predict().to_bits());
            plan_bytes += plan.approx_bytes();
        }
        Reference { bits, plan_bytes }
    }
}

/// The cache budget of a workload.
pub fn cache_budget(mix: Mix, reference: &Reference) -> usize {
    match mix {
        Mix::Hot => HOT_BUDGET_BYTES,
        Mix::Churn => (reference.plan_bytes / CHURN_BUDGET_DIVISOR).max(1),
    }
}

/// Server configuration shared by the served instance and the replay.
pub fn server_config(workers: usize, budget: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_depth: QUEUE_DEPTH,
        cache: CacheConfig {
            shards: CACHE_SHARDS,
            budget_bytes: budget,
        },
        ..ServerConfig::default()
    }
}

/// The prebuilt wire request of every pool key.
pub fn pool_requests(catalog: &[Network], pool: &[(usize, usize)]) -> Vec<Request> {
    pool.iter()
        .map(|&(n, batch)| Request::Predict {
            tenant: TENANT.to_string(),
            network: catalog[n].name().to_string(),
            batch,
            deadline_ms: None,
        })
        .collect()
}

/// An in-process server for `suite` over `catalog`, cold.
pub fn new_server(
    suite: &Arc<Workflow>,
    catalog: &[Network],
    config: &ServerConfig,
) -> Arc<PredictionServer> {
    let server = Arc::new(PredictionServer::start(config));
    server.register_tenant(TENANT, Arc::clone(suite));
    server.add_networks(catalog.iter().cloned());
    server
}

/// [`new_server`], pre-warmed with every pool key in pool order. Returns
/// the number of pre-warm answers that disagreed with `reference`.
pub fn start_server(
    suite: &Arc<Workflow>,
    catalog: &[Network],
    pool: &[(usize, usize)],
    reference: &Reference,
    config: &ServerConfig,
) -> (Arc<PredictionServer>, u64) {
    let server = new_server(suite, catalog, config);
    let mut wrong = 0;
    for (&(n, b), &want) in pool.iter().zip(&reference.bits) {
        match server.predict(TENANT, catalog[n].name(), b) {
            Ok(s) if s.to_bits() == want => {}
            _ => wrong += 1,
        }
    }
    (server, wrong)
}

/// Fronts `server` with TCP on an ephemeral loopback port.
pub fn serve_tcp(server: &Arc<PredictionServer>) -> TcpServer {
    TcpServer::serve_with(Arc::clone(server), "127.0.0.1:0", TcpConfig::default())
        .expect("bind an ephemeral loopback port")
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// Latency of every correct call, us.
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// `serve.tcp.call` spans with their pool keys (traced phases only).
    calls: Vec<(Span, usize)>,
}

/// One timed closed-loop phase.
pub struct Phase {
    /// Client-side latency of every correct call, microseconds.
    pub latencies_us: Vec<f64>,
    /// Median over windows of the correct answers per second.
    pub throughput_rps: f64,
    /// Median over windows of the window's median latency, us.
    pub p50_us: f64,
    /// Median over windows of the window's p99 latency, us.
    pub p99_us: f64,
    /// Number of windows.
    pub windows: usize,
    /// Correct answers per second in each window.
    pub throughput_by_window: Vec<f64>,
    /// p99 latency of each window, us.
    pub p99_by_window: Vec<f64>,
    /// Calls sent.
    pub attempted: u64,
    /// Calls that failed, errored or disagreed with the reference.
    pub failed: u64,
    /// Server counters accrued during the phase.
    pub stats: ServerStats,
    /// `serve.tcp.call` spans with their pool keys, in send order (traced
    /// phases only); `request` is the send-order index.
    pub calls: Vec<(Span, usize)>,
}

fn stats_delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        admitted: after.admitted - before.admitted,
        completed: after.completed - before.completed,
        shed: after.shed - before.shed,
        shed_deadline: after.shed_deadline - before.shed_deadline,
        expired: after.expired - before.expired,
        panicked: after.panicked - before.panicked,
        respawns: after.respawns - before.respawns,
        requeued: after.requeued - before.requeued,
        cache: CacheStats {
            hits: after.cache.hits - before.cache.hits,
            misses: after.cache.misses - before.cache.misses,
            compiles: after.cache.compiles - before.cache.compiles,
            evictions: after.cache.evictions - before.cache.evictions,
            uncacheable: after.cache.uncacheable - before.cache.uncacheable,
            entries: after.cache.entries,
            bytes: after.cache.bytes,
        },
    }
}

/// Where a phase's clients send and how their answers are checked.
pub struct Target<'a> {
    /// The served instance.
    pub server: &'a PredictionServer,
    /// Its TCP front.
    pub tcp: &'a TcpServer,
    /// Wire requests per pool key.
    pub requests: &'a [Request],
    /// Reference answers per pool key.
    pub reference: &'a Reference,
}

/// One client: connects, then sends pool keys drawn by `rng` until
/// `deadline`, each only after the previous answer arrived.
fn client_loop(
    target: &Target<'_>,
    mut rng: Lcg,
    deadline: Instant,
    epoch: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let Ok(mut client) = Client::connect(target.tcp.addr()) else {
        log.attempted = 1;
        log.failed = 1;
        return log;
    };
    while Instant::now() < deadline {
        let k = rng.below(target.requests.len());
        let t0 = Instant::now();
        let resp = client.call(&target.requests[k]);
        let t1 = Instant::now();
        log.attempted += 1;
        let ok = matches!(
            resp,
            Ok(Response::Ok { seconds, degraded_notes: None })
                if seconds.to_bits() == target.reference.bits[k]
        );
        if ok {
            log.latencies_us.push((t1 - t0).as_secs_f64() * 1e6);
        } else {
            log.failed += 1;
        }
        if let Some(epoch) = epoch {
            let ns = |t: Instant| u64::try_from((t - epoch).as_nanos()).unwrap_or(u64::MAX);
            let span = Span {
                name: "serve.tcp.call",
                start_ns: ns(t0),
                end_ns: ns(t1),
                parent: None,
                request: 0,
            };
            log.calls.push((span, k));
        }
    }
    log
}

/// Runs `clients` closed-loop clients for `seconds`, checking every
/// answer against the reference. The phase is cut into windows of about
/// [`WINDOW_S`]; each window starts fresh client threads and connections,
/// so one unlucky thread placement cannot set a whole run. The metrics are
/// medians over windows. `epoch` turns on span recording.
pub fn drive(
    target: &Target<'_>,
    seed: u64,
    phase: u64,
    clients: usize,
    seconds: f64,
    epoch: Option<Instant>,
) -> Phase {
    let before = target.server.stats();
    let windows = ((seconds / WINDOW_S).round() as usize).max(1);
    let len_s = seconds / windows as f64;
    let mut out = Phase {
        latencies_us: Vec::new(),
        throughput_rps: 0.0,
        p50_us: 0.0,
        p99_us: 0.0,
        windows,
        throughput_by_window: Vec::new(),
        p99_by_window: Vec::new(),
        attempted: 0,
        failed: 0,
        stats: ServerStats::default(),
        calls: Vec::new(),
    };
    let mut p50_by_window = Vec::new();
    for w in 0..windows {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(len_s);
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let rng = Lcg::new(seed, (phase << 32) | ((w as u64) << 16) | c as u64);
                    s.spawn(move || client_loop(target, rng, deadline, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let mut lat: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.latencies_us.iter().copied())
            .collect();
        out.throughput_by_window.push(lat.len() as f64 / elapsed);
        p50_by_window.push(percentile(&mut lat, 50.0));
        out.p99_by_window.push(percentile(&mut lat, 99.0));
        out.latencies_us.extend(lat);
        for log in logs {
            out.attempted += log.attempted;
            out.failed += log.failed;
            out.calls.extend(log.calls);
        }
    }
    out.stats = stats_delta(target.server.stats(), before);
    out.throughput_rps = median(&out.throughput_by_window);
    out.p50_us = median(&p50_by_window);
    out.p99_us = median(&out.p99_by_window);
    out.calls.sort_by_key(|(s, _)| s.start_ns);
    for (rid, (span, _)) in out.calls.iter_mut().enumerate() {
        span.request = rid as u64;
    }
    out
}

/// The replay's own server and cache: same configuration as the served
/// instance, pre-warmed the same way, so the timed traffic's counters and
/// hit pattern stay clean.
pub struct Replay<'a> {
    /// Replay server (for `serve.server.predict`).
    pub server: Arc<PredictionServer>,
    /// Replay cache (for `serve.cache.get_or_compile`).
    pub cache: SharedPlanCache,
    /// The served suite.
    pub suite: &'a Workflow,
    /// Network catalog.
    pub catalog: &'a [Network],
    /// Pool keys.
    pub pool: &'a [(usize, usize)],
    /// Wire requests per pool key.
    pub requests: &'a [Request],
    /// Reference answers per pool key.
    pub reference: &'a Reference,
}

impl Replay<'_> {
    /// Replays pool key `k` layer by layer under request `rid`. The TCP
    /// call (if any) is `parent`. Returns whether every layer agreed with
    /// the reference.
    fn one(&self, t: &mut Tracer, k: usize, rid: u64, parent: Option<SpanId>) -> bool {
        let (n, batch) = self.pool[k];
        let net = &self.catalog[n];
        let want = self.reference.bits[k];
        let mut ok = true;
        if parent.is_some() {
            let req = &self.requests[k];
            let (codec, _) = t.span("serve.protocol.codec", parent, rid, || {
                let parsed = Request::parse(&req.format());
                let answer = Response::Ok {
                    seconds: f64::from_bits(want),
                    degraded_notes: None,
                };
                (parsed, Response::parse(&answer.format()))
            });
            ok &= matches!(codec, (Ok(ref r), Ok(Response::Ok { seconds, .. }))
                if r == req && seconds.to_bits() == want);
        }
        let (served, sid) = t.span("serve.server.predict", parent, rid, || {
            self.server.predict(TENANT, net.name(), batch)
        });
        ok &= matches!(served, Ok(s) if s.to_bits() == want);
        let misses = self.cache.stats().misses;
        let (plan, cid) = t.span("serve.cache.get_or_compile", Some(sid), rid, || {
            self.cache.get_or_compile(self.suite, net, batch)
        });
        t.span("core.plan.fingerprint", Some(cid), rid, || {
            network_fingerprint(std::hint::black_box(net))
        });
        if self.cache.stats().misses > misses {
            let (compiled, _) = t.span("core.plan.compile", Some(cid), rid, || {
                CompiledPlan::compile(self.suite, net, batch)
            });
            ok &= compiled.is_ok();
        }
        match plan {
            Ok(plan) => {
                let (s, _) = t.span("core.plan.sweep", Some(sid), rid, || plan.predict());
                ok &= s.to_bits() == want;
            }
            Err(_) => ok = false,
        }
        ok
    }

    /// Replays the pre-warm (every pool key, in order), then the timed
    /// `calls` (`serve.tcp.call` span, pool key) in send order. Returns
    /// the number of replays that disagreed with the reference.
    pub fn run(&self, t: &mut Tracer, calls: &[(SpanId, usize)]) -> u64 {
        let mut wrong = 0;
        for k in 0..self.pool.len() {
            wrong += u64::from(!self.one(t, k, PREWARM_ID_BASE + k as u64, None));
        }
        for &(call, k) in calls {
            let rid = t.get(call).map_or(0, |s| s.request);
            wrong += u64::from(!self.one(t, k, rid, Some(call)));
        }
        wrong
    }
}

/// Folds a replayed trace into the serving per-layer metrics. Timed
/// requests only, except compiles, which include the pre-warm (the only
/// misses `serve_hot` has). Self times cover replayed calls only.
pub fn serve_layers(t: &Tracer, phase: &Phase) -> Vec<Row> {
    let self_ns = t.self_times_ns();
    let spans = t.spans();
    let parents_of = |child: &str| -> BTreeSet<SpanId> {
        spans
            .iter()
            .filter(|s| s.name == child)
            .filter_map(|s| s.parent)
            .collect()
    };
    let compiled = parents_of("core.plan.compile");
    let replayed = parents_of("serve.server.predict");
    let timed = |s: &Span| s.request < PREWARM_ID_BASE;
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && timed(s))
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let selfs = |name: &str, keep: &dyn Fn(SpanId) -> bool| -> Vec<f64> {
        spans
            .iter()
            .enumerate()
            .filter(|&(id, s)| s.name == name && timed(s) && keep(id))
            .map(|(id, _)| self_ns[id])
            .collect()
    };
    let mut compile: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.plan.compile")
        .map(|s| s.duration_ns() as f64)
        .collect();
    let cache = &phase.stats.cache;
    let lookups = cache.hits + cache.misses;
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        cache.hits as f64 / lookups as f64
    };
    vec![
        (
            "core.plan.fingerprint_ns",
            median(&durations("core.plan.fingerprint")),
            "ns",
        ),
        (
            "core.plan.sweep_ns",
            median(&durations("core.plan.sweep")),
            "ns",
        ),
        ("core.plan.compile_ns", median(&compile), "ns"),
        (
            "core.plan.compile_p99_ns",
            percentile(&mut compile, 99.0),
            "ns",
        ),
        (
            "serve.cache.lookup_self_ns",
            median(&selfs("serve.cache.get_or_compile", &|id| {
                !compiled.contains(&id)
            })),
            "ns",
        ),
        ("serve.cache.hit_ratio", hit_ratio, "ratio"),
        ("serve.cache.compiles", cache.compiles as f64, "count"),
        ("serve.cache.evictions", cache.evictions as f64, "count"),
        ("serve.cache.resident_bytes", cache.bytes as f64, "bytes"),
        (
            "serve.server.predict_ns",
            median(&durations("serve.server.predict")),
            "ns",
        ),
        (
            "serve.server.self_ns",
            median(&selfs("serve.server.predict", &|_| true)),
            "ns",
        ),
        (
            "serve.server.completed",
            phase.stats.completed as f64,
            "count",
        ),
        ("serve.server.shed", phase.stats.shed as f64, "count"),
        (
            "serve.protocol.codec_ns",
            median(&durations("serve.protocol.codec")),
            "ns",
        ),
        (
            "serve.tcp.call_ns",
            median(&durations("serve.tcp.call")),
            "ns",
        ),
        (
            "serve.tcp.self_ns",
            median(&selfs("serve.tcp.call", &|id| replayed.contains(&id))),
            "ns",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_are_seeded() {
        let draw = |seed, client| {
            let mut rng = Lcg::new(seed, client);
            (0..64).map(|_| rng.below(2584)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert!(draw(3, 0).iter().all(|&k| k < 2584));
    }

    #[test]
    fn pools_cover_the_deepest_networks_or_the_whole_zoo() {
        let zoo = dnnperf_dnn::zoo::cnn_zoo();
        let hot = request_pool(Mix::Hot, &zoo);
        assert_eq!(hot.len(), HOT_NETWORKS * BATCHES.len());
        let shallowest_hot = hot.iter().map(|&(n, _)| zoo[n].num_layers()).min();
        let hot_nets: BTreeSet<usize> = hot.iter().map(|&(n, _)| n).collect();
        let deepest_cold = (0..zoo.len())
            .filter(|n| !hot_nets.contains(n))
            .map(|n| zoo[n].num_layers())
            .max();
        assert!(shallowest_hot >= deepest_cold);
        assert_eq!(
            request_pool(Mix::Churn, &zoo).len(),
            zoo.len() * BATCHES.len()
        );
    }

    #[test]
    fn churn_budget_is_a_fifth_of_the_working_set() {
        let reference = Reference {
            bits: Vec::new(),
            plan_bytes: 50 << 20,
        };
        assert_eq!(cache_budget(Mix::Churn, &reference), 10 << 20);
        assert_eq!(cache_budget(Mix::Hot, &reference), HOT_BUDGET_BYTES);
    }
}
