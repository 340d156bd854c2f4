//! The in-process multi-tenant prediction server.
//!
//! [`PredictionServer`] owns the three moving parts of the serving
//! story:
//!
//! * a tenant registry mapping tenant names to immutable
//!   [`Arc<Workflow>`] suites (swapped atomically on retrain by
//!   [`PredictionServer::update_suite`]);
//! * a shared [`SharedPlanCache`] keyed by suite generation, so a suite
//!   swap retires the old tenant's plans by construction;
//! * a bounded admission queue ([`dnnperf_sched::Bounded`]) drained in
//!   batches by a fixed worker pool — a full queue sheds the request
//!   with [`ServeError::Overloaded`] instead of queueing unboundedly.
//!
//! Requests resolve their suite at **submit time**: the job carries the
//! `Arc<Workflow>` it was admitted against, so a racing retrain can
//! never make an in-flight request mix models from two training runs —
//! each request is deterministically served by exactly one suite
//! snapshot.
//!
//! # Failure model
//!
//! Every submitted request receives **exactly one terminal answer**, no
//! matter what fails:
//!
//! * **Deadlines.** A request may carry a time budget. A zero budget —
//!   or a budget smaller than the estimated queue wait (EWMA of service
//!   time × queue depth ÷ workers) — is shed at submission with
//!   [`ServeError::DeadlineExceeded`]. Admitted requests that expire
//!   while queued are answered the same way: workers check expiry before
//!   pricing, and a producer that finds the queue full first sweeps
//!   expired entries out (answering their waiters) before shedding
//!   fresh work with [`ServeError::Overloaded`].
//! * **Worker supervision.** Each worker runs its drain loop under
//!   `catch_unwind`. If serving a request panics, the supervisor answers
//!   that request's waiter with [`ServeError::Internal`], requeues the
//!   untouched remainder of the drained batch, and respawns the worker —
//!   a panic never hangs a client and never shrinks the pool. Panics
//!   during shutdown skip the respawn and answer rescued jobs with
//!   [`ServeError::ShuttingDown`].
//! * **Shutdown.** [`PredictionServer::shutdown`] closes the queue,
//!   joins every worker (including respawns), and answers whatever no
//!   worker picked up with [`ServeError::ShuttingDown`].

use crate::fault::{InjectedWorkerPanic, PanicPlan};
use crate::protocol::Response;
use dnnperf_core::{
    CacheConfig, CacheStats, GracefulPrediction, PredictError, SharedPlanCache, Workflow,
};
use dnnperf_dnn::Network;
use dnnperf_sched::sync::{lock_unpoisoned, read_unpoisoned, wait_unpoisoned, write_unpoisoned};
use dnnperf_sched::{Bounded, Clock, SendRejected, SystemClock};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Errors a serving request can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No suite is registered under this tenant name.
    UnknownTenant(String),
    /// The network name is not in the server catalog.
    UnknownNetwork(String),
    /// Admission control shed the request (queue full).
    Overloaded,
    /// The request's deadline expired before it could be served — either
    /// shed at submission (zero or unmeetable budget) or swept/expired
    /// after admission.
    DeadlineExceeded,
    /// The server is shutting down.
    ShuttingDown,
    /// A worker crashed while serving this request; the supervisor
    /// answered on its behalf. The request may be retried.
    Internal(String),
    /// Plan compilation / prediction failed.
    Predict(PredictError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::UnknownNetwork(n) => write!(f, "unknown network {n:?}"),
            ServeError::Overloaded => write!(f, "server overloaded"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Internal(m) => write!(f, "internal server error: {m}"),
            ServeError::Predict(e) => write!(f, "prediction failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PredictError> for ServeError {
    fn from(e: PredictError) -> Self {
        ServeError::Predict(e)
    }
}

/// A completed prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Strict-path prediction in seconds.
    Strict(f64),
    /// Graceful-ladder prediction with degradation notes.
    Graceful(GracefulPrediction),
}

impl Reply {
    /// The predicted seconds regardless of path.
    pub fn seconds(&self) -> f64 {
        match self {
            Reply::Strict(s) => *s,
            Reply::Graceful(g) => g.seconds,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Strict,
    Graceful,
}

type SlotResult = Result<Reply, ServeError>;

struct Slot {
    result: Mutex<Option<SlotResult>>,
    done: Condvar,
}

impl Slot {
    /// First write wins: a slot can be raced by a worker finishing and a
    /// supervisor/sweeper answering on the worker's behalf, and the
    /// waiter must see exactly one terminal answer.
    fn fill(&self, r: SlotResult) {
        let mut guard = lock_unpoisoned(&self.result);
        if guard.is_none() {
            *guard = Some(r);
        }
        drop(guard);
        self.done.notify_all();
    }
}

/// A handle to an admitted request; [`Pending::wait`] blocks for the
/// worker pool to answer it.
#[derive(Debug)]
pub struct Pending {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Slot")
    }
}

impl Pending {
    /// Blocks until the request is answered and returns the outcome.
    pub fn wait(self) -> SlotResult {
        let mut guard = lock_unpoisoned(&self.slot.result);
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = wait_unpoisoned(&self.slot.done, guard);
        }
    }
}

/// One admitted request: the suite and network were resolved at submit
/// time, pinning the exact suite snapshot that will serve it. Cloneable
/// so a worker can keep the job visible to its supervisor while serving.
#[derive(Clone)]
struct Job {
    suite: Arc<Workflow>,
    net: Arc<Network>,
    batch: usize,
    mode: Mode,
    slot: Arc<Slot>,
    /// Admission sequence number (the value of the `admitted` counter
    /// when this job entered the queue). Drives deterministic panic
    /// injection in chaos runs.
    seq: u64,
    /// Absolute expiry instant on the server clock, if the request
    /// carried a deadline.
    expires_at: Option<Duration>,
}

impl Job {
    fn expired(&self, now: Duration) -> bool {
        self.expires_at.is_some_and(|t| now >= t)
    }
}

/// Configuration of a [`PredictionServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue. Zero is permitted
    /// (useful in tests: admitted requests stay queued).
    pub workers: usize,
    /// Admission queue depth; a full queue sheds with
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Maximum requests a worker drains per wakeup (request batching).
    pub max_batch: usize,
    /// Plan cache geometry and memory budget.
    pub cache: CacheConfig,
    /// Seeded worker-panic injection for chaos testing: a worker about
    /// to serve admission sequence `seq` panics when the plan fires.
    /// `None` (the default, and the only production setting) never
    /// panics.
    pub panic_plan: Option<PanicPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 256,
            max_batch: 16,
            cache: CacheConfig::default(),
            panic_plan: None,
        }
    }
}

/// Point-in-time server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests answered by the worker pool.
    pub completed: u64,
    /// Requests shed by admission control (queue full).
    pub shed: u64,
    /// Requests shed at submission because their deadline was zero or
    /// below the estimated queue wait.
    pub shed_deadline: u64,
    /// Admitted requests whose deadline expired before service (swept
    /// from the queue or caught by a worker pre-pricing).
    pub expired: u64,
    /// Requests answered [`ServeError::Internal`] because the worker
    /// serving them panicked.
    pub panicked: u64,
    /// Worker threads respawned by the supervisor after a panic.
    pub respawns: u64,
    /// Jobs rescued from a crashed worker's batch and requeued.
    pub requeued: u64,
    /// Plan cache counters.
    pub cache: CacheStats,
}

struct Inner {
    tenants: RwLock<BTreeMap<String, Arc<Workflow>>>,
    catalog: RwLock<BTreeMap<String, Arc<Network>>>,
    cache: SharedPlanCache,
    queue: Bounded<Job>,
    clock: Arc<dyn Clock + Send + Sync>,
    panic_plan: Option<PanicPlan>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    max_batch: usize,
    /// Issues `Job::seq` values. Separate from `admitted` because a
    /// shed job consumes no admission slot but has already drawn a seq.
    seq_counter: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    shed_deadline: AtomicU64,
    expired: AtomicU64,
    panicked: AtomicU64,
    respawns: AtomicU64,
    requeued: AtomicU64,
    /// EWMA of per-request service time in nanoseconds (0 = no sample
    /// yet; real samples are clamped to at least 1).
    ewma_service_ns: AtomicU64,
}

impl Inner {
    fn serve_one(&self, job: Job) {
        // Deadline check before pricing: a request that expired while
        // queued gets its typed answer instead of a stale prediction.
        if job.expired(self.clock.now()) {
            // Counters update before the slot fills, here and below: a
            // waiter that wakes from `wait()` must already see its own
            // request reflected in `stats()`.
            self.expired.fetch_add(1, Ordering::Relaxed);
            job.slot.fill(Err(ServeError::DeadlineExceeded));
            return;
        }
        if let Some(plan) = &self.panic_plan {
            if plan.fires(job.seq) {
                // Chaos injection: unwind exactly as a pricing bug would.
                std::panic::panic_any(InjectedWorkerPanic { seq: job.seq });
            }
        }
        let started = self.clock.now();
        let result = self
            .cache
            .get_or_compile(&job.suite, &job.net, job.batch)
            .map(|plan| match job.mode {
                Mode::Strict => Reply::Strict(plan.predict()),
                Mode::Graceful => Reply::Graceful(plan.predict_graceful()),
            })
            .map_err(ServeError::from);
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.observe_service(self.clock.now().saturating_sub(started));
        job.slot.fill(result);
    }

    fn observe_service(&self, d: Duration) {
        let sample = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1);
        let old = self.ewma_service_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old.saturating_mul(7).saturating_add(sample) / 8
        };
        self.ewma_service_ns.store(new.max(1), Ordering::Relaxed);
    }

    /// Estimated time a freshly admitted request will wait in the queue,
    /// from the service-time EWMA and the current backlog. Zero until
    /// the first request completes.
    fn estimated_wait(&self) -> Duration {
        let ewma = self.ewma_service_ns.load(Ordering::Relaxed);
        if ewma == 0 || self.worker_count == 0 {
            return Duration::ZERO;
        }
        let backlog = self.queue.len() as u64;
        Duration::from_nanos(ewma.saturating_mul(backlog) / self.worker_count as u64)
    }

    /// Sweeps expired jobs out of the admission queue, answering each
    /// waiter with [`ServeError::DeadlineExceeded`]. Returns how many
    /// were evicted.
    fn sweep_expired(&self) -> usize {
        let now = self.clock.now();
        let dead = self.queue.sweep(|job| job.expired(now));
        let n = dead.len();
        for job in dead {
            self.expired.fetch_add(1, Ordering::Relaxed);
            job.slot.fill(Err(ServeError::DeadlineExceeded));
        }
        n
    }

    /// The worker drain loop. Jobs move from the queue into `pending`
    /// (this incarnation's in-service window) *before* being served, so
    /// the supervisor can answer them if this loop unwinds.
    fn worker_loop(&self, pending: &Mutex<VecDeque<Job>>) {
        loop {
            let batch = self.queue.recv_batch(self.max_batch);
            if batch.is_empty() {
                return; // closed and drained
            }
            {
                let mut held = lock_unpoisoned(pending);
                held.extend(batch);
            }
            loop {
                let job = {
                    let held = lock_unpoisoned(pending);
                    held.front().cloned()
                };
                let Some(job) = job else { break };
                // The job stays at the front of `pending` while being
                // served: if serve_one panics, the supervisor knows
                // exactly which waiter to answer.
                self.serve_one(job);
                lock_unpoisoned(pending).pop_front();
            }
        }
    }

    /// Post-panic supervision: answer the in-service job with a typed
    /// internal error, requeue the untouched remainder of the batch, and
    /// respawn the worker unless the server is shutting down.
    fn supervise_crash(self: &Arc<Self>, pending: &Mutex<VecDeque<Job>>) {
        let mut held = lock_unpoisoned(pending);
        let victim = held.pop_front();
        while let Some(job) = held.pop_front() {
            match self.queue.try_send(job) {
                Ok(()) => {
                    self.requeued.fetch_add(1, Ordering::Relaxed);
                }
                Err((job, SendRejected::Closed)) => {
                    job.slot.fill(Err(ServeError::ShuttingDown));
                }
                Err((job, SendRejected::Full)) => {
                    // The queue refilled while this worker was down; the
                    // waiter still gets a terminal, typed answer.
                    job.slot.fill(Err(ServeError::Internal(
                        "request dropped during worker recovery".into(),
                    )));
                }
            }
        }
        drop(held);
        // Respawn under the registry lock so shutdown (which closes the
        // queue first, then drains the registry until empty) can never
        // miss a replacement.
        {
            let mut workers = lock_unpoisoned(&self.workers);
            if !self.queue.is_closed() {
                self.respawns.fetch_add(1, Ordering::Relaxed);
                workers.push(spawn_worker(self));
            }
        }
        // The victim's slot fills last so the woken waiter observes the
        // panic counter, the requeues, and the replacement worker.
        if let Some(job) = victim {
            self.panicked.fetch_add(1, Ordering::Relaxed);
            job.slot.fill(Err(ServeError::Internal(
                "worker panicked mid-service".into(),
            )));
        }
    }
}

/// Spawns one supervised worker thread and returns its handle.
fn spawn_worker(inner: &Arc<Inner>) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::spawn(move || {
        let pending = Mutex::new(VecDeque::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| inner.worker_loop(&pending)));
        if outcome.is_err() {
            inner.supervise_crash(&pending);
        }
    })
}

/// The multi-tenant prediction server. See the module docs.
pub struct PredictionServer {
    inner: Arc<Inner>,
}

impl PredictionServer {
    /// Starts a server with `config` on the real system clock: allocates
    /// the cache and queue and spawns the worker pool.
    pub fn start(config: &ServerConfig) -> Self {
        PredictionServer::start_with_clock(config, Arc::new(SystemClock))
    }

    /// Starts a server with an injected clock (deadline tests use a
    /// [`dnnperf_sched::RecordingClock`] so expiry is deterministic).
    pub fn start_with_clock(config: &ServerConfig, clock: Arc<dyn Clock + Send + Sync>) -> Self {
        let inner = Arc::new(Inner {
            tenants: RwLock::new(BTreeMap::new()),
            catalog: RwLock::new(BTreeMap::new()),
            cache: SharedPlanCache::new(&config.cache),
            queue: Bounded::new(config.queue_depth.max(1)),
            clock,
            panic_plan: config.panic_plan.clone(),
            workers: Mutex::new(Vec::new()),
            worker_count: config.workers,
            max_batch: config.max_batch.max(1),
            seq_counter: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            ewma_service_ns: AtomicU64::new(0),
        });
        {
            let mut workers = lock_unpoisoned(&inner.workers);
            for _ in 0..config.workers {
                workers.push(spawn_worker(&inner));
            }
        }
        PredictionServer { inner }
    }

    /// Registers (or replaces) the suite served under `tenant`.
    pub fn register_tenant(&self, tenant: &str, suite: Arc<Workflow>) {
        write_unpoisoned(&self.inner.tenants).insert(tenant.to_string(), suite);
    }

    /// Atomically swaps `tenant`'s suite for a retrained one and purges
    /// the retired suite's plans from the cache. Returns the number of
    /// cache entries purged.
    ///
    /// In-flight requests admitted against the old suite still complete
    /// against it (they pinned the `Arc` at submit time); every request
    /// admitted after this call is served by `suite`.
    pub fn update_suite(&self, tenant: &str, suite: Arc<Workflow>) -> usize {
        let old = write_unpoisoned(&self.inner.tenants).insert(tenant.to_string(), suite);
        match old {
            Some(old) => self.inner.cache.purge_generation(old.generation()),
            None => 0,
        }
    }

    /// Adds networks to the catalog clients can request by name.
    pub fn add_networks<I: IntoIterator<Item = Network>>(&self, nets: I) {
        let mut catalog = write_unpoisoned(&self.inner.catalog);
        for net in nets {
            catalog.insert(net.name().to_string(), Arc::new(net));
        }
    }

    /// Number of networks in the catalog.
    pub fn catalog_len(&self) -> usize {
        read_unpoisoned(&self.inner.catalog).len()
    }

    /// The server's clock (tests use it to align fake time with the
    /// server's deadline arithmetic).
    pub fn clock(&self) -> Arc<dyn Clock + Send + Sync> {
        Arc::clone(&self.inner.clock)
    }

    fn resolve(
        &self,
        tenant: &str,
        network: &str,
    ) -> Result<(Arc<Workflow>, Arc<Network>), ServeError> {
        let suite = read_unpoisoned(&self.inner.tenants)
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        let net = read_unpoisoned(&self.inner.catalog)
            .get(network)
            .cloned()
            .ok_or_else(|| ServeError::UnknownNetwork(network.to_string()))?;
        Ok((suite, net))
    }

    fn submit_mode(
        &self,
        tenant: &str,
        network: &str,
        batch: usize,
        mode: Mode,
        deadline_ms: Option<u64>,
    ) -> Result<Pending, ServeError> {
        let (suite, net) = self.resolve(tenant, network)?;
        let budget = deadline_ms.map(Duration::from_millis);
        if let Some(budget) = budget {
            // Early shed: don't admit work we already expect to expire.
            if budget.is_zero() || self.inner.estimated_wait() > budget {
                self.inner.shed_deadline.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded);
            }
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let job = Job {
            suite,
            net,
            batch,
            mode,
            slot: Arc::clone(&slot),
            seq: self.inner.seq_counter.fetch_add(1, Ordering::Relaxed),
            expires_at: budget.map(|b| self.inner.clock.now() + b),
        };
        let job = match self.inner.queue.try_send(job) {
            Ok(()) => {
                self.inner.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(Pending { slot });
            }
            Err((job, SendRejected::Full)) => job,
            Err((_, SendRejected::Closed)) => return Err(ServeError::ShuttingDown),
        };
        // The queue is full: evict expired entries (answering their
        // waiters) before shedding live work.
        if self.inner.sweep_expired() > 0 {
            match self.inner.queue.try_send(job) {
                Ok(()) => {
                    self.inner.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(Pending { slot });
                }
                Err((_, SendRejected::Closed)) => return Err(ServeError::ShuttingDown),
                Err((_, SendRejected::Full)) => {}
            }
        }
        self.inner.shed.fetch_add(1, Ordering::Relaxed);
        Err(ServeError::Overloaded)
    }

    /// Submits a strict prediction request; returns a [`Pending`] handle
    /// once admitted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] / [`ServeError::UnknownNetwork`] for
    /// unresolvable requests, [`ServeError::Overloaded`] when admission
    /// control sheds, [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, tenant: &str, network: &str, batch: usize) -> Result<Pending, ServeError> {
        self.submit_mode(tenant, network, batch, Mode::Strict, None)
    }

    /// Submits a strict prediction with a deadline of `deadline_ms`
    /// milliseconds from now.
    ///
    /// # Errors
    ///
    /// As for [`PredictionServer::submit`], plus
    /// [`ServeError::DeadlineExceeded`] when the budget is zero or below
    /// the estimated queue wait.
    pub fn submit_deadline(
        &self,
        tenant: &str,
        network: &str,
        batch: usize,
        deadline_ms: u64,
    ) -> Result<Pending, ServeError> {
        self.submit_mode(tenant, network, batch, Mode::Strict, Some(deadline_ms))
    }

    /// Submits a graceful-ladder request; returns a [`Pending`] handle
    /// once admitted.
    ///
    /// # Errors
    ///
    /// As for [`PredictionServer::submit`].
    pub fn submit_graceful(
        &self,
        tenant: &str,
        network: &str,
        batch: usize,
    ) -> Result<Pending, ServeError> {
        self.submit_mode(tenant, network, batch, Mode::Graceful, None)
    }

    /// Submits a graceful-ladder request with a deadline (see
    /// [`PredictionServer::submit_deadline`]).
    ///
    /// # Errors
    ///
    /// As for [`PredictionServer::submit_deadline`].
    pub fn submit_graceful_deadline(
        &self,
        tenant: &str,
        network: &str,
        batch: usize,
        deadline_ms: u64,
    ) -> Result<Pending, ServeError> {
        self.submit_mode(tenant, network, batch, Mode::Graceful, Some(deadline_ms))
    }

    /// Submits per the wire request's mode and deadline.
    pub(crate) fn submit_request(
        &self,
        tenant: &str,
        network: &str,
        batch: usize,
        graceful: bool,
        deadline_ms: Option<u64>,
    ) -> Result<Pending, ServeError> {
        let mode = if graceful {
            Mode::Graceful
        } else {
            Mode::Strict
        };
        self.submit_mode(tenant, network, batch, mode, deadline_ms)
    }

    /// Predicts `network`'s time for `tenant` (submit + wait).
    ///
    /// Bit-identical to calling `suite.predict(net, batch)` directly on
    /// the tenant's current suite.
    ///
    /// # Errors
    ///
    /// As for [`PredictionServer::submit`], plus [`ServeError::Predict`]
    /// from the prediction itself.
    pub fn predict(&self, tenant: &str, network: &str, batch: usize) -> Result<f64, ServeError> {
        match self.submit(tenant, network, batch)?.wait()? {
            Reply::Strict(s) => Ok(s),
            Reply::Graceful(g) => Ok(g.seconds),
        }
    }

    /// Predicts with a deadline (submit + wait).
    ///
    /// # Errors
    ///
    /// As for [`PredictionServer::submit_deadline`], plus
    /// [`ServeError::DeadlineExceeded`] when the request expired while
    /// queued.
    pub fn predict_deadline(
        &self,
        tenant: &str,
        network: &str,
        batch: usize,
        deadline_ms: u64,
    ) -> Result<f64, ServeError> {
        match self
            .submit_deadline(tenant, network, batch, deadline_ms)?
            .wait()?
        {
            Reply::Strict(s) => Ok(s),
            Reply::Graceful(g) => Ok(g.seconds),
        }
    }

    /// Predicts with the graceful-degradation ladder (submit + wait).
    ///
    /// # Errors
    ///
    /// As for [`PredictionServer::predict`].
    pub fn predict_graceful(
        &self,
        tenant: &str,
        network: &str,
        batch: usize,
    ) -> Result<GracefulPrediction, ServeError> {
        match self.submit_graceful(tenant, network, batch)?.wait()? {
            Reply::Graceful(g) => Ok(g),
            Reply::Strict(s) => Ok(GracefulPrediction {
                seconds: s,
                notes: Vec::new(),
            }),
        }
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            shed_deadline: self.inner.shed_deadline.load(Ordering::Relaxed),
            expired: self.inner.expired.load(Ordering::Relaxed),
            panicked: self.inner.panicked.load(Ordering::Relaxed),
            respawns: self.inner.respawns.load(Ordering::Relaxed),
            requeued: self.inner.requeued.load(Ordering::Relaxed),
            cache: self.inner.cache.stats(),
        }
    }

    /// The stats as wire `key=value` pairs (the `stats` response).
    pub fn stats_response(&self) -> Response {
        let s = self.stats();
        Response::Stats(vec![
            ("admitted".to_string(), s.admitted),
            ("completed".to_string(), s.completed),
            ("shed".to_string(), s.shed),
            ("shed_deadline".to_string(), s.shed_deadline),
            ("expired".to_string(), s.expired),
            ("panicked".to_string(), s.panicked),
            ("respawns".to_string(), s.respawns),
            ("requeued".to_string(), s.requeued),
            ("cache_hits".to_string(), s.cache.hits),
            ("cache_misses".to_string(), s.cache.misses),
            ("cache_compiles".to_string(), s.cache.compiles),
            ("cache_evictions".to_string(), s.cache.evictions),
            ("cache_entries".to_string(), s.cache.entries as u64),
            ("cache_bytes".to_string(), s.cache.bytes as u64),
        ])
    }

    /// The shared plan cache (for inspection in tests and benches).
    pub fn cache(&self) -> &SharedPlanCache {
        &self.inner.cache
    }

    /// Number of registered worker handles: the initial pool plus every
    /// supervisor respawn (exited-but-unjoined workers included; the
    /// registry only drains at shutdown). Supervision tests use
    /// `worker_handles() == workers + respawns` to prove every panic
    /// produced a replacement, and `worker_handles() == 0` after
    /// [`PredictionServer::shutdown`] to prove no thread leaked.
    pub fn worker_handles(&self) -> usize {
        lock_unpoisoned(&self.inner.workers).len()
    }

    /// Drains and stops the server: closes the admission queue, joins
    /// the worker pool — including workers respawned by the supervisor
    /// while the join is in progress — and answers any request no worker
    /// picked up with [`ServeError::ShuttingDown`].
    pub fn shutdown(&self) {
        self.inner.queue.close();
        // Respawns register under the same lock before their parent
        // thread exits, so draining until the registry is empty joins
        // every worker that will ever exist.
        loop {
            let handles: Vec<_> = lock_unpoisoned(&self.inner.workers).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        // With zero workers (or a poisoned pool) accepted jobs may still
        // be queued; answer them rather than leaving waiters hanging.
        loop {
            let leftover = self.inner.queue.recv_batch(64);
            if leftover.is_empty() {
                break;
            }
            for job in leftover {
                job.slot.fill(Err(ServeError::ShuttingDown));
            }
        }
    }
}

impl std::fmt::Debug for PredictionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PredictionServer(admitted {}, completed {}, shed {}, expired {}, panicked {}, {:?})",
            s.admitted, s.completed, s.shed, s.expired, s.panicked, self.inner.cache
        )
    }
}

impl Drop for PredictionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
