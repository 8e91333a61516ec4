//! Consistency of recorded multi-key histories: every key's register
//! history, replayed through the `rsb-consistency` checkers.

use rsb_consistency::{check_atomicity, check_strong_regularity, History};
use rsb_fpsm::OpId;
use rsb_registers::RegisterConfig;
use rsb_store::{BatchOp, HistoryPolicy, ProtocolSpec, Store, StoreConfig};
use rsb_workloads::{KeyedAction, KeyedScenario};
use std::sync::atomic::{AtomicBool, Ordering};

/// Drives a keyed scenario with one OS thread per client, blocking ops.
fn drive(store: &Store, scenario: &KeyedScenario) {
    let threads: Vec<_> = (0..scenario.clients)
        .map(|c| {
            let client = store.client();
            let stream = scenario.client_ops(c);
            std::thread::spawn(move || {
                for op in stream {
                    match op.action {
                        KeyedAction::Read => {
                            client.read_blocking(&op.key).unwrap();
                        }
                        KeyedAction::Write(v) => {
                            client.write_blocking(&op.key, v).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
}

/// Like [`drive`], but each client groups its stream into `batch`-op
/// `submit_batch` calls and blocks on the whole group before issuing
/// the next — the grouped-submission, coalesced-stepping path. Ops
/// inside one batch are concurrent register operations.
fn drive_batched(store: &Store, scenario: &KeyedScenario, batch: usize) {
    let threads: Vec<_> = (0..scenario.clients)
        .map(|c| {
            let client = store.client();
            let ops: Vec<_> = scenario.client_ops(c).collect();
            std::thread::spawn(move || {
                for chunk in ops.chunks(batch) {
                    let group: Vec<BatchOp> = chunk
                        .iter()
                        .map(|op| match &op.action {
                            KeyedAction::Read => BatchOp::Read(op.key.clone()),
                            KeyedAction::Write(v) => BatchOp::Write(op.key.clone(), v.clone()),
                        })
                        .collect();
                    for fut in client.submit_batch(group) {
                        fut.wait().unwrap();
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
}

/// Each key's newest recorded op id.
fn newest_ops(store: &Store) -> Vec<(String, Option<OpId>)> {
    store
        .keys()
        .into_iter()
        .map(|key| {
            let newest = store
                .key_history(&key)
                .unwrap()
                .records
                .iter()
                .map(|r| r.op)
                .max();
            (key, newest)
        })
        .collect()
}

/// How many of the keys in `rested` have run an operation since.
fn touched_since(store: &Store, rested: &[(String, Option<OpId>)]) -> usize {
    let now = newest_ops(store);
    rested
        .iter()
        .filter(|(key, then)| now.iter().any(|(k, newest)| k == key && newest > then))
        .count()
}

fn check_all_keys(store: &Store, check: impl Fn(&History)) {
    let keys = store.keys();
    assert!(!keys.is_empty(), "scenario touched some keys");
    for key in keys {
        let h = store.key_history(&key).unwrap();
        let history = History::from_fpsm(h.initial, &h.records)
            .expect("per-key runtime histories are well-formed");
        check(&history);
    }
}

#[test]
fn adaptive_store_histories_are_strongly_regular() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Adaptive, reg)).unwrap();
    let scenario = KeyedScenario::uniform(8, 40, 24, 0.5, 16, 1234).with_zipf(0.9);
    drive(&store, &scenario);
    check_all_keys(&store, |h| {
        check_strong_regularity(h).expect("strong regularity on a recorded key history");
    });
    store.shutdown();
}

#[test]
fn abd_atomic_store_histories_linearize() {
    let reg = RegisterConfig::new(3, 1, 1, 16).unwrap();
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::AbdAtomic, reg)).unwrap();
    let scenario = KeyedScenario::uniform(8, 30, 16, 0.6, 16, 99);
    drive(&store, &scenario);
    check_all_keys(&store, |h| {
        check_atomicity(h).expect("linearizability of an atomic-ABD key history");
    });
    store.shutdown();
}

#[test]
fn batched_adaptive_histories_are_strongly_regular() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Adaptive, reg)).unwrap();
    let scenario = KeyedScenario::uniform(8, 40, 24, 0.5, 16, 2024).with_zipf(0.9);
    drive_batched(&store, &scenario, 5);
    assert_eq!(store.metrics().totals().completed(), 8 * 40);
    check_all_keys(&store, |h| {
        check_strong_regularity(h).expect("strong regularity of batched adaptive histories");
    });
    store.shutdown();
}

#[test]
fn batched_abd_atomic_histories_linearize() {
    // Batched submission changes the scheduling (grouped shard
    // submission, coalesced simulator stepping) but must not change the
    // register semantics: every recorded history still linearizes, with
    // same-batch ops on one key counting as concurrent.
    let reg = RegisterConfig::new(3, 1, 1, 16).unwrap();
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::AbdAtomic, reg)).unwrap();
    let scenario = KeyedScenario::uniform(8, 30, 16, 0.6, 16, 4242);
    drive_batched(&store, &scenario, 5);
    assert_eq!(store.metrics().totals().completed(), 8 * 30);
    check_all_keys(&store, |h| {
        check_atomicity(h).expect("linearizability of batched atomic-ABD histories");
    });
    store.shutdown();
}

#[test]
fn histories_spanning_eviction_cycles_stay_strongly_regular() {
    // Traffic → evict everything → more traffic → evict → more traffic:
    // recorded histories span two rest cycles, and reads served from a
    // rested key must still be acceptable to the checkers (same
    // timestamps, same op-id line).
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let store = Store::start(
        StoreConfig::uniform(4, ProtocolSpec::Adaptive, reg)
            .with_history(HistoryPolicy::TruncateAfter(32)),
    )
    .unwrap();
    let mut rested: Option<Vec<_>> = None;
    let mut touched = 0;
    for round in 0..3u64 {
        let scenario = KeyedScenario::uniform(6, 25, 12, 0.5, 16, 4_000 + round).with_zipf(0.8);
        drive(&store, &scenario);
        if let Some(rested) = rested.take() {
            touched += touched_since(&store, &rested);
        }
        if round < 2 {
            let evicted = store.evict_quiescent();
            assert!(evicted > 0, "rounds leave quiescent keys to evict");
            rested = Some(newest_ops(&store));
        }
    }
    assert!(store.metrics().totals().evictions > 0);
    assert!(touched > 0, "later traffic ran on rested keys");
    check_all_keys(&store, |h| {
        check_strong_regularity(h).expect("strong regularity across rest cycles");
    });
    store.shutdown();
}

#[test]
fn abd_atomic_histories_spanning_eviction_linearize() {
    // Linearizability must also survive the cycle — with an evictor
    // thread sweeping `evict_quiescent` in a loop while the clients run
    // (so keys rest mid-run), a rested key's reads still linearize
    // against the writes recorded before it rested.
    let reg = RegisterConfig::new(3, 1, 1, 16).unwrap();
    let store = Store::start(
        StoreConfig::uniform(2, ProtocolSpec::AbdAtomic, reg)
            .with_history(HistoryPolicy::TruncateAfter(64)),
    )
    .unwrap();
    let mut rested = Vec::new();
    for round in 0..2u64 {
        let scenario = KeyedScenario::uniform(6, 30, 10, 0.6, 16, 7_000 + round);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    store.evict_quiescent();
                    std::thread::yield_now();
                }
            });
            drive(&store, &scenario);
            done.store(true, Ordering::Release);
        });
        // A sweep between rounds guarantees cycles even if the evictor
        // never caught a key quiescent mid-run.
        store.evict_quiescent();
        if round == 0 {
            rested = newest_ops(&store);
        }
    }
    assert!(
        store.metrics().totals().evictions > 0,
        "keys rested during the run"
    );
    assert!(
        touched_since(&store, &rested) > 0,
        "and traffic ran on them after"
    );
    check_all_keys(&store, |h| {
        check_atomicity(h).expect("linearizability across rest cycles");
    });
    store.shutdown();
}

#[test]
fn abd_store_histories_are_strongly_regular() {
    let reg = RegisterConfig::new(3, 1, 1, 16).unwrap();
    let store = Store::start(StoreConfig::uniform(2, ProtocolSpec::Abd, reg)).unwrap();
    let scenario = KeyedScenario::uniform(6, 30, 12, 0.4, 16, 7);
    drive(&store, &scenario);
    check_all_keys(&store, |h| {
        check_strong_regularity(h).expect("strong regularity on a recorded key history");
    });
    store.shutdown();
}
