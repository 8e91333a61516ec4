//! The store runs no thread of its own: operations run on their
//! submitters' threads, and eviction is a call the owner makes.
//!
//! One `#[test]` in its own binary, so no sibling test's threads move the
//! process-wide count it reads from `/proc/self/status`.

#![cfg(target_os = "linux")]

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{HistoryPolicy, ProtocolSpec, Store, StoreConfig};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

#[test]
fn start_traffic_eviction_and_shutdown_spawn_no_thread() {
    let before = threads();
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let store = Store::start(
        StoreConfig::uniform(4, ProtocolSpec::Adaptive, reg)
            .with_history(HistoryPolicy::TruncateAfter(16)),
    )
    .unwrap();
    assert_eq!(threads(), before, "Store::start");
    let client = store.client();
    for i in 0..500u64 {
        let key = format!("k{}", i % 50);
        client
            .write_blocking(&key, Value::seeded(i + 1, 16))
            .unwrap();
        client.read_blocking(&key).unwrap();
    }
    assert_eq!(store.metrics().totals().completed(), 1_000);
    assert_eq!(threads(), before, "1 000 operations");
    assert_eq!(store.evict_quiescent(), 50);
    assert_eq!(threads(), before, "evict_quiescent");
    store.shutdown();
    assert_eq!(threads(), before, "shutdown");
}
