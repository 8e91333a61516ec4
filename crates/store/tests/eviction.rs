//! Eviction by `Store::evict_quiescent`: read classification across an
//! evict → rematerialize cycle, counter consistency across
//! evict → rematerialize → compact cycles, and eviction racing shutdown.

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{block_on, join_all, HistoryPolicy, ProtocolSpec, Store, StoreConfig, StoreError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const VALUE_LEN: usize = 16;

fn config(shards: usize, protocol: ProtocolSpec) -> StoreConfig {
    let reg = RegisterConfig::paper(1, 2, VALUE_LEN).unwrap();
    StoreConfig::uniform(shards, protocol, reg)
}

#[test]
fn evicted_keys_rematerialize_on_touch_and_reads_are_classified() {
    let store = Store::start(config(1, ProtocolSpec::Abd)).unwrap();
    let client = store.client();
    for i in 0..8u64 {
        client
            .write_blocking(&format!("cold-{i}"), Value::seeded(i + 1, VALUE_LEN))
            .unwrap();
    }
    assert_eq!(store.evict_quiescent(), 8);
    // A key first touched after the sweep is live.
    client
        .write_blocking("hot", Value::seeded(100, VALUE_LEN))
        .unwrap();
    let m = store.metrics();
    assert_eq!(m.evicted_keys(), 8);
    assert_eq!(m.totals().evictions, 8);
    // Touching a cold key transparently rematerializes it, value intact.
    for i in 0..8u64 {
        assert_eq!(
            client.read_blocking(&format!("cold-{i}")).unwrap(),
            Value::seeded(i + 1, VALUE_LEN)
        );
    }
    assert_eq!(store.metrics().totals().rematerialized, 8);
    // The reads above were classified as rematerializing reads and their
    // latency recorded in the remat histogram; a read of the live hot
    // key lands in the hit histogram instead.
    assert_eq!(store.metrics().read_remat_latency().count(), 8);
    assert_eq!(store.metrics().read_hit_latency().count(), 0);
    client.read_blocking("hot").unwrap();
    assert_eq!(store.metrics().read_hit_latency().count(), 1);
    assert_eq!(store.metrics().read_remat_latency().count(), 8);
    store.shutdown();
}

/// Satellite: `Counters`/aggregate metrics must not drift under
/// read-modify-write cycles — `snapshot_bits` back down on
/// rematerialization, `live_records` consistent with per-key histories.
#[test]
fn counters_stay_consistent_across_evict_rematerialize_compact_cycles() {
    let store = Store::start(
        config(2, ProtocolSpec::Adaptive).with_history(HistoryPolicy::TruncateAfter(8)),
    )
    .unwrap();
    let client = store.client();
    let keys: Vec<String> = (0..12).map(|i| format!("key-{i}")).collect();

    let assert_consistent = |label: &str| {
        let m = store.metrics();
        // live_records == what the per-key histories actually hold.
        let per_key: u64 = store
            .keys()
            .iter()
            .map(|k| store.key_history(k).unwrap().records.len() as u64)
            .sum();
        assert_eq!(m.live_records(), per_key, "{label}: live_records drifted");
    };

    for cycle in 0..3u64 {
        for (i, key) in keys.iter().enumerate() {
            client
                .write_blocking(key, Value::seeded(cycle * 100 + i as u64 + 1, VALUE_LEN))
                .unwrap();
            client.read_blocking(key).unwrap();
        }
        assert_consistent("after traffic");

        let evicted = store.evict_quiescent();
        assert_eq!(evicted, keys.len(), "all keys quiescent between cycles");
        let m = store.metrics();
        assert_eq!(m.evicted_keys(), keys.len());
        assert!(m.snapshot_bits() > 0, "snapshots hold the evicted state");
        assert_eq!(m.occupancy_bits(), 0, "no live simulations remain");
        assert_consistent("after evict");

        // Rematerialize everything; snapshot_bits must come back DOWN to
        // zero (per-shard, not just in aggregate).
        for key in &keys {
            client.read_blocking(key).unwrap();
        }
        let m = store.metrics();
        assert_eq!(m.evicted_keys(), 0, "every key rematerialized");
        for s in &m.shards {
            assert_eq!(
                s.snapshot_bits, 0,
                "shard {}: snapshot_bits must return to zero after rematerialization",
                s.shard
            );
            assert_eq!(s.evicted_keys, 0);
        }
        assert!(m.occupancy_bits() > 0);
        assert_consistent("after rematerialize");
    }
    let totals = store.metrics().totals();
    assert_eq!(totals.evictions, 3 * keys.len() as u64);
    assert_eq!(totals.rematerialized, 3 * keys.len() as u64);
    assert!(totals.truncated_records > 0, "compaction ran during cycles");
    store.shutdown();
}

/// Satellite: manual eviction racing shutdown must neither panic nor
/// lose a pending completion — every submitted future resolves (result
/// or `ShutDown`), with an evictor hammering `evict_quiescent` through
/// the teardown.
#[test]
fn evict_quiescent_racing_shutdown_never_loses_a_completion() {
    for round in 0..8 {
        let store = Store::start(config(4, ProtocolSpec::Adaptive)).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Evictor: sweeps continuously, including while `halt` runs.
            s.spawn(|| {
                // Relaxed: evictor stop flag; the scope join is the
                // synchronization point.
                while !done.load(Ordering::Relaxed) {
                    store.evict_quiescent();
                    std::thread::yield_now();
                }
            });
            // Clients: submit waves of async ops and require every
            // future to resolve.
            let clients: Vec<_> = (0..4)
                .map(|t| {
                    let client = store.client();
                    s.spawn(move || {
                        let mut resolved = 0usize;
                        'outer: for wave in 0..50u64 {
                            let writes: Vec<_> = (0..8u64)
                                .map(|i| {
                                    client.write(
                                        &format!("k{t}-{}", i % 4),
                                        Value::seeded(wave * 100 + i + 1, VALUE_LEN),
                                    )
                                })
                                .collect();
                            for out in join_all(writes) {
                                resolved += 1;
                                match out {
                                    Ok(()) => {}
                                    Err(StoreError::ShutDown) => break 'outer,
                                    Err(other) => panic!("unexpected error: {other}"),
                                }
                            }
                            match block_on(client.read(&format!("k{t}-0"))) {
                                Ok(v) => assert_eq!(v.len(), VALUE_LEN),
                                Err(StoreError::ShutDown) => break 'outer,
                                Err(other) => panic!("unexpected error: {other}"),
                            }
                        }
                        resolved
                    })
                })
                .collect();
            // Let traffic and eviction interleave, then tear down from a
            // shared reference while both are still running.
            std::thread::sleep(Duration::from_millis(5 + round));
            store.halt();
            for c in clients {
                assert!(c.join().unwrap() > 0, "clients made progress");
            }
            // Relaxed: same stop flag; see above.
            done.store(true, Ordering::Relaxed);
        });
        store.shutdown(); // idempotent second teardown
    }
}
