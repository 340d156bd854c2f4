//! Connection handler threads are released as their connections close,
//! so a long-running server's address space stays flat under churn.

#![cfg(target_os = "linux")]

use dnnperf_serve::{read_frame, write_frame, PredictionServer, Request, ServerConfig, TcpServer};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// This process's virtual size in KiB, from `/proc/self/status`.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap()
}

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
    // Warm up first, so allocator arenas and the thread-stack cache
    // have settled before the baseline sample.
    for _ in 0..500 {
        cycle(tcp.addr());
    }
    let before = vm_size_kib();
    for _ in 0..1000 {
        cycle(tcp.addr());
    }
    let grown_kib = vm_size_kib().saturating_sub(before);
    // An unreaped handler keeps its whole stack (2 MiB by default)
    // mapped, so 1000 of them would add about 2 GiB.
    assert!(
        grown_kib < 64 * 1024,
        "VmSize grew {grown_kib} KiB over 1000 closed connections"
    );
    tcp.shutdown();
    server.shutdown();
}
