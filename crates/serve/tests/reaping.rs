//! Connection handler threads are released as their connections close,
//! so a long-running server's address space and thread count stay flat
//! under churn.

#![cfg(target_os = "linux")]

use dnnperf_serve::{read_frame, write_frame, PredictionServer, Request, ServerConfig, TcpServer};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// A numeric field of `/proc/self/status` (`VmSize:` is in KiB).
fn status_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap()
}

/// Stops glibc from creating more malloc arenas. A thread that finds
/// every arena busy otherwise reserves a fresh one, 64 MiB of address
/// space at once, which alone would meet the `VmSize` bound below while
/// nothing leaks. Arenas made before this call are kept and reused.
#[cfg(target_env = "gnu")]
fn freeze_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX` parameter number (`malloc.h`).
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only updates the allocator's tunables under its
    // own lock; `M_ARENA_MAX` with 1 takes effect for arenas chosen later.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(target_env = "gnu"))]
fn freeze_malloc_arenas() {}

/// One connection lifetime: connect, one answered request, close. The
/// answer proves the server accepted the connection and spawned its
/// handler before the next cycle starts.
fn cycle(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &Request::Stats.format()).unwrap();
    assert!(read_frame(&mut stream).unwrap().is_some());
}

#[test]
fn closed_connections_release_their_handler_threads() {
    let server = Arc::new(PredictionServer::start(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }));
    let tcp = TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    freeze_malloc_arenas();
    // Warm up first, so allocator arenas and the thread-stack cache
    // have settled before the baseline sample.
    for _ in 0..500 {
        cycle(tcp.addr());
    }
    let before = status_field("VmSize:");
    let threads_before = status_field("Threads:");
    for _ in 0..1000 {
        cycle(tcp.addr());
    }
    let grown_kib = status_field("VmSize:").saturating_sub(before);
    // Finished handlers are reaped on the next accept, so at most the
    // last few connections' threads may still be winding down.
    let grown_threads = status_field("Threads:").saturating_sub(threads_before);
    assert!(
        grown_threads <= 8,
        "thread count grew by {grown_threads} over 1000 closed connections"
    );
    // An unreaped handler keeps its whole stack (2 MiB by default)
    // mapped, so 1000 of them would add about 2 GiB.
    assert!(
        grown_kib < 64 * 1024,
        "VmSize grew {grown_kib} KiB over 1000 closed connections"
    );
    tcp.shutdown();
    server.shutdown();
}
