//! Multi-tenant prediction serving over a sharded compiled-plan cache.
//!
//! The paper's headline result — microsecond-latency, simulator-accurate
//! GPU time prediction — only pays off operationally if many consumers
//! can share one trained artifact. This crate is that serving layer,
//! built std-only like the rest of the workspace:
//!
//! * [`SharedPlanCache`] — re-exported from `dnnperf_core::cache`, the
//!   workspace's one plan cache: a lock-striped LRU cache of immutable
//!   [`dnnperf_core::CompiledPlan`]s under a configurable memory budget,
//!   keyed by `(suite generation, network fingerprint, batch)` so
//!   retrains can never serve stale plans. The server holds one instance
//!   shared by every tenant and worker;
//! * [`server`] — [`server::PredictionServer`], the in-process API:
//!   tenant registry, bounded admission queue with load shedding, and a
//!   batching worker pool;
//! * [`protocol`] — the length-prefixed TCP line protocol with
//!   bit-exact f64 transport;
//! * [`tcp`] — [`tcp::TcpServer`], the per-connection-thread front door
//!   (with idle and per-frame slowloris deadlines), and [`tcp::Client`],
//!   a blocking client with deterministic-backoff retry;
//! * [`fault`] — seeded transport fault injection and worker-panic
//!   schedules for chaos testing, confined to test/bench surfaces.
//!
//! The serving layer is chaos-hardened: requests carry deadlines,
//! panicking workers are supervised (waiters answered, pool respawned),
//! and every submitted request receives exactly one terminal response —
//! see the failure model in [`server`]'s module docs.
//!
//! ```
//! use dnnperf_serve::{CacheConfig, PredictionServer, ServerConfig};
//! let server = PredictionServer::start(&ServerConfig {
//!     workers: 2,
//!     queue_depth: 64,
//!     max_batch: 8,
//!     cache: CacheConfig { shards: 4, budget_bytes: 1 << 20 },
//!     panic_plan: None,
//! });
//! assert_eq!(server.catalog_len(), 0);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fault;
pub mod protocol;
pub mod server;
pub mod tcp;

pub use dnnperf_core::cache::{CacheConfig, CacheStats, SharedPlanCache};
pub use fault::{
    FaultyTransport, InjectedWorkerPanic, PanicPlan, TransportFault, TransportFaultKinds,
    TransportFaultPlan, TransportFaultStats,
};
pub use protocol::{
    read_frame, read_frame_deadline, write_frame, FrameRead, Request, Response, WireError,
    MAX_FRAME_BYTES,
};
pub use server::{Pending, PredictionServer, Reply, ServeError, ServerConfig, ServerStats};
pub use tcp::{Client, TcpConfig, TcpServer};
