//! Runtime lifecycle: concurrent clients across shards, shutdown with
//! operations in flight, and client handles outliving the store.

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{block_on, join_all, ProtocolSpec, Store, StoreConfig, StoreError};

fn store(shards: usize, protocol: ProtocolSpec) -> Store {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    Store::start(StoreConfig::uniform(shards, protocol, reg)).unwrap()
}

#[test]
fn concurrent_clients_across_shards() {
    let s = store(8, ProtocolSpec::Adaptive);
    let threads: Vec<_> = (0..16u64)
        .map(|t| {
            let client = s.client();
            std::thread::spawn(move || {
                for i in 0..10u64 {
                    let key = format!("t{t}-k{i}");
                    let v = Value::seeded(t * 1000 + i + 1, 16);
                    client.write_blocking(&key, v.clone()).unwrap();
                    assert_eq!(client.read_blocking(&key).unwrap(), v);
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    let m = s.metrics();
    assert_eq!(m.totals().writes_completed, 160);
    assert_eq!(m.totals().reads_completed, 160);
    assert_eq!(m.keys(), 160);
    assert!(
        m.shards.iter().filter(|sh| sh.keys > 0).count() >= 6,
        "160 keys should land on nearly all of 8 shards"
    );
    s.shutdown();
}

#[test]
fn one_clone_of_a_client_shared_by_many_threads() {
    let s = store(4, ProtocolSpec::Abd);
    let client = s.client();
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || {
                client
                    .write_blocking(&format!("shared-{t}"), Value::seeded(t + 1, 16))
                    .unwrap();
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    assert_eq!(s.metrics().totals().writes_completed, 8);
    s.shutdown();
}

#[test]
fn shutdown_with_ops_in_flight_resolves_every_future() {
    let s = store(4, ProtocolSpec::Adaptive);
    let client = s.client();
    // Launch a wave of writes and shut the store down while they are in
    // flight; every future must resolve (ack or ShutDown), never hang.
    let writes: Vec<_> = (0..64u64)
        .map(|i| client.write(&format!("k{i}"), Value::seeded(i + 1, 16)))
        .collect();
    s.shutdown();
    let outcomes = join_all(writes);
    assert_eq!(outcomes.len(), 64);
    for out in outcomes {
        match out {
            Ok(()) | Err(StoreError::ShutDown) => {}
            Err(other) => panic!("unexpected error after shutdown: {other}"),
        }
    }
}

#[test]
fn halt_racing_inline_submitters_leaves_no_ticket_unresolved() {
    // Submitters run their own operations, so a halt can land before,
    // during or after any of them. Whatever the interleaving, every
    // ticket handed out resolves: an ack, or `ShutDown` from the
    // submitter's own check under the key lock.
    use std::sync::atomic::{AtomicU64, Ordering};
    for round in 0..8u64 {
        let s = store(2, ProtocolSpec::Abd);
        let acked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let client = s.client();
                let acked = &acked;
                scope.spawn(move || {
                    // Waves of async writes on two keys shared by all four
                    // threads, colliding on the key locks.
                    for wave in 0u64.. {
                        let writes: Vec<_> = (0..8u64)
                            .map(|i| {
                                let v = Value::seeded((wave * 8 + i) * 4 + t + 1, 16);
                                client.write(&format!("shared-{}", i % 2), v)
                            })
                            .collect();
                        for out in join_all(writes) {
                            match out {
                                Ok(()) => {
                                    acked.fetch_add(1, Ordering::Release);
                                }
                                Err(StoreError::ShutDown) => return,
                                Err(other) => panic!("unexpected error: {other}"),
                            }
                        }
                    }
                });
            }
            // Halt mid-traffic — later each round, never before the
            // submitters are demonstrably running.
            while acked.load(Ordering::Acquire) < 64 * (round + 1) {
                std::thread::yield_now();
            }
            s.halt();
            // The scope joins the submitters: each returns only after
            // every ticket of its last wave resolved.
        });
        s.shutdown();
    }
}

#[test]
fn client_outliving_the_store_gets_errors_not_hangs() {
    let s = store(2, ProtocolSpec::Safe);
    let client = s.client();
    client
        .write_blocking("persist", Value::seeded(5, 16))
        .unwrap();
    s.shutdown();
    assert_eq!(
        client.read_blocking("persist").unwrap_err(),
        StoreError::ShutDown
    );
    assert_eq!(
        client
            .write_blocking("persist", Value::seeded(6, 16))
            .unwrap_err(),
        StoreError::ShutDown
    );
    // The async path reports the same, through the future.
    assert_eq!(block_on(client.read("persist")), Err(StoreError::ShutDown));
}

#[test]
fn drop_is_a_clean_shutdown() {
    let client = {
        let s = store(2, ProtocolSpec::Abd);
        let c = s.client();
        c.write_blocking("k", Value::seeded(1, 16)).unwrap();
        c
        // store dropped here: stopped
    };
    assert_eq!(client.read_blocking("k").unwrap_err(), StoreError::ShutDown);
}

#[test]
fn mixed_protocol_shards_coexist() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let mut cfg = StoreConfig::uniform(4, ProtocolSpec::Abd, reg);
    cfg.shards[1].protocol = ProtocolSpec::Adaptive;
    cfg.shards[3].protocol = ProtocolSpec::Safe;
    let s = Store::start(cfg).unwrap();
    let client = s.client();
    for i in 0..32u64 {
        let key = format!("mix-{i}");
        let v = Value::seeded(i + 1, 16);
        client.write_blocking(&key, v.clone()).unwrap();
        assert_eq!(client.read_blocking(&key).unwrap(), v);
    }
    let m = s.metrics();
    assert_eq!(m.totals().writes_completed, 32);
    let protos: std::collections::HashSet<_> =
        m.shards.iter().map(|sh| sh.protocol.clone()).collect();
    assert!(protos.len() >= 2, "placement reached differing protocols");
    s.shutdown();
}

#[test]
fn pipelined_futures_on_one_key_stay_well_formed() {
    // Many async ops on the same key from one client handle: the shard
    // allocates extra sim clients so concurrent submissions never
    // violate the one-outstanding-op-per-client rule.
    let s = store(1, ProtocolSpec::Abd);
    let client = s.client();
    let writes: Vec<_> = (0..16u64)
        .map(|i| client.write("hot", Value::seeded(i + 1, 16)))
        .collect();
    for out in join_all(writes) {
        out.unwrap();
    }
    let reads: Vec<_> = (0..16).map(|_| client.read("hot")).collect();
    let mut got = Vec::new();
    for out in join_all(reads) {
        got.push(out.unwrap());
    }
    // All reads see *some* written value (regular register, quiescent).
    let written: Vec<Value> = (0..16u64).map(|i| Value::seeded(i + 1, 16)).collect();
    for v in got {
        assert!(written.contains(&v));
    }
    s.shutdown();
}
