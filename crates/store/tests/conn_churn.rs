//! A closed connection's server thread is joined while the server runs,
//! not kept until shutdown: an unjoined thread keeps its stack mapped, so
//! serial connect/read/drop cycles must leave the process's `VmSize`
//! flat.
//!
//! One `#[test]` in its own binary, so no sibling test's threads move the
//! process-wide figure it reads from `/proc/self/status`.

#![cfg(target_os = "linux")]

use rsb_registers::RegisterConfig;
use rsb_store::{ListenSpec, ProtocolSpec, Store, StoreClient, StoreConfig, TcpTransport};
use std::net::SocketAddr;

fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a VmSize: line in kB")
}

fn connect_read_drop(addr: SocketAddr) {
    let client = StoreClient::over(TcpTransport::connect(addr).unwrap());
    client.read_blocking("k").unwrap();
}

#[test]
fn closed_connections_do_not_accumulate_threads() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let server = Store::serve(
        StoreConfig::uniform(2, ProtocolSpec::Abd, reg).with_listen(ListenSpec::new("127.0.0.1:0")),
    )
    .unwrap();
    let addr = server.local_addr();
    // Warm up with several connection threads at once: the allocator
    // maps a 64 MiB arena for each thread that finds the others busy,
    // and reuses it once that thread is gone. Without this, one new
    // arena during the measured cycles reads as a leak.
    let clients: Vec<_> = (0..8)
        .map(|_| StoreClient::over(TcpTransport::connect(addr).unwrap()))
        .collect();
    std::thread::scope(|s| {
        for client in &clients {
            s.spawn(|| {
                for _ in 0..100 {
                    client.read_blocking("k").unwrap();
                }
            });
        }
    });
    drop(clients);
    for _ in 0..10 {
        connect_read_drop(addr);
    }
    let before = vm_size_kib();
    for _ in 0..300 {
        connect_read_drop(addr);
    }
    let grown = vm_size_kib().saturating_sub(before);
    assert!(
        grown < 128 * 1024,
        "VmSize grew by {grown} kB over 300 closed connections"
    );
    server.shutdown();
}
