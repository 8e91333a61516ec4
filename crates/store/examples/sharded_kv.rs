//! The sharded store's async client surface, with no async runtime.
//!
//! `rsb-store` partitions a keyspace over shards of per-key register
//! emulations; each operation runs to completion on the thread that
//! submits it, under its key's lock. `StoreClient::read/write` return
//! plain `std::future::Future`s (already resolved on this in-process
//! path), so they work from any executor — here the bundled `block_on`
//! / `join_all` — and each future also has a blocking `.wait()`.
//!
//! ```sh
//! cargo run -p rsb-store --example sharded_kv
//! ```

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{block_on, join_all, HistoryPolicy, ProtocolSpec, Store, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 shards, every one running the paper's adaptive protocol with
    // f = 1 tolerated crash and a k = 2 code over 64-byte values.
    let reg = RegisterConfig::paper(1, 2, 64)?;
    let store = Store::start(
        // Bound each key's op-record history: once an operation returns,
        // its key keeps only the frontier write.
        StoreConfig::uniform(8, ProtocolSpec::Adaptive, reg)
            .with_history(HistoryPolicy::TruncateAfter(1)),
    )?;
    let client = store.client();

    // One async write, awaited by the bundled executor.
    block_on(client.write("user:alice", Value::seeded(1, 64)))?;

    // 32 writes submitted back to back on one thread, then joined.
    let writes: Vec<_> = (0..32u64)
        .map(|i| client.write(&format!("user:{i:03}"), Value::seeded(i + 10, 64)))
        .collect();
    for result in join_all(writes) {
        result?;
    }

    // Mixed read batch (reads of unwritten keys return v₀, all zeroes).
    let reads: Vec<_> = (0..4u64)
        .map(|i| client.read(&format!("user:{i:03}")))
        .collect();
    for (i, result) in join_all(reads).into_iter().enumerate() {
        let v = result?;
        println!("user:{i:03} -> {:?}…", &v.as_bytes()[..4]);
    }

    // The blocking facade is the same futures, waited on.
    assert_eq!(
        client.read_blocking("user:alice")?,
        Value::seeded(1, 64),
        "regular register: the write is visible"
    );

    // Live storage occupancy — the paper's space bounds on a service —
    // plus the history-compaction counter.
    let m = store.metrics();
    println!(
        "{} keys over {} shards, {} ops completed, occupancy {} KiB, \
         {} records compacted",
        m.keys(),
        m.shards.len(),
        m.totals().completed(),
        m.occupancy_bits() / 8 / 1024,
        m.totals().truncated_records,
    );

    // Quiescent keys rest in place on demand — the store's one
    // reclamation call; a service makes it on its own schedule. A rested
    // key keeps its bits and serves its next operation like any other.
    let occupancy = store.metrics().occupancy_bits();
    let evicted = store.evict_quiescent();
    let back = client.read_blocking("user:alice")?;
    assert_eq!(back, Value::seeded(1, 64), "rested intact");
    let m = store.metrics();
    assert_eq!(m.occupancy_bits(), occupancy, "a sweep moves no bit");
    let reads = m.read_latency();
    println!(
        "rested {evicted} quiescent keys; {} reads recorded, p50 {:.1} us",
        reads.count(),
        reads.quantile_us(0.50),
    );

    store.shutdown();
    Ok(())
}
