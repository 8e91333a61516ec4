//! Eviction by `Store::evict_quiescent`: keys rest in place with their
//! values and Definition-2 bits, counters stay consistent across
//! rest → traffic → compact cycles, and eviction racing shutdown.

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
fn rested_keys_keep_their_values_and_reads_share_one_histogram() {
    let store = Store::start(config(1, ProtocolSpec::Abd)).unwrap();
    let client = store.client();
    for i in 0..8u64 {
        client
            .write_blocking(&format!("cold-{i}"), Value::seeded(i + 1, VALUE_LEN))
            .unwrap();
    }
    let before = store.metrics();
    assert_eq!(store.evict_quiescent(), 8);
    // A sweep frees heap, not Definition-2 bits.
    let after = store.metrics();
    assert_eq!(after.occupancy_bits(), before.occupancy_bits());
    assert_eq!(after.peak_register_bits(), before.peak_register_bits());
    assert_eq!(after.totals().evictions, 8);
    assert_eq!(store.evict_quiescent(), 0, "resting keys are skipped");
    // A key first touched after the sweep joins the rested ones.
    client
        .write_blocking("hot", Value::seeded(100, VALUE_LEN))
        .unwrap();
    for i in 0..8u64 {
        assert_eq!(
            client.read_blocking(&format!("cold-{i}")).unwrap(),
            Value::seeded(i + 1, VALUE_LEN)
        );
    }
    client.read_blocking("hot").unwrap();
    // Reads of rested and running keys land in the one read histogram.
    let m = store.metrics();
    assert_eq!(m.read_latency().count(), 9);
    assert_eq!(m.end_to_end_latency().count(), 9 + 9);
    // Every key ran an operation since the sweep, so each rests again.
    assert_eq!(store.evict_quiescent(), 9);
    assert_eq!(store.metrics().totals().evictions, 8 + 9);
    store.shutdown();
}

/// Satellite: `Counters`/aggregate metrics must not drift under
/// rest → traffic → compact cycles — occupancy and peaks unmoved by a
/// sweep, `live_records` consistent with per-key histories.
#[test]
fn counters_stay_consistent_across_rest_traffic_compact_cycles() {
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

        let before = store.metrics();
        let evicted = store.evict_quiescent();
        assert_eq!(evicted, keys.len(), "all keys quiescent between cycles");
        let m = store.metrics();
        assert!(m.occupancy_bits() > 0, "rested keys keep their objects");
        for (s, b) in m.shards.iter().zip(&before.shards) {
            assert_eq!(
                s.occupancy, b.occupancy,
                "shard {}: a sweep moves no Definition-2 bit",
                s.shard
            );
            assert_eq!(s.peak_register_bits, b.peak_register_bits);
        }
        assert_consistent("after evict");

        // Every rested key serves its last write.
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                client.read_blocking(key).unwrap(),
                Value::seeded(cycle * 100 + i as u64 + 1, VALUE_LEN)
            );
        }
        assert_consistent("after reads");
    }
    let totals = store.metrics().totals();
    assert_eq!(totals.evictions, 3 * keys.len() as u64);
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
