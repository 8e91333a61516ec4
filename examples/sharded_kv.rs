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
//! cargo run --example sharded_kv
//! ```

use reliable_storage::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 shards, every one running the paper's adaptive protocol with
    // f = 1 tolerated crash and a k = 2 code over 64-byte values.
    let reg = RegisterConfig::paper(1, 2, 64)?;
    let store = Store::start(
        // Bound each key's op-record history; quiescent keys keep only
        // their frontier write between bursts.
        StoreConfig::uniform(8, ProtocolSpec::Adaptive, reg)
            .with_history(HistoryPolicy::TruncateOnQuiescence),
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

    // Quiescent keys can be evicted to snapshots on demand — the store's
    // one reclamation call; a service makes it on its own schedule.
    let evicted = store.evict_quiescent();
    let back = client.read_blocking("user:alice")?;
    assert_eq!(back, Value::seeded(1, 64), "rematerialized intact");
    let m = store.metrics();
    println!(
        "evicted {evicted} quiescent keys; user:alice rematerialized on read \
         (hit reads recorded: {}, rematerializing reads: {})",
        m.read_hit_latency().count(),
        m.read_remat_latency().count(),
    );

    store.shutdown();
    Ok(())
}
