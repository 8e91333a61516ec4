//! Run-to-completion execution and history bounds: contended and
//! hot-spot keys staying strongly regular, every loopback ticket coming
//! back resolved, truncation policies keeping checkable histories, and
//! evict/rematerialize of quiescent keys.

use rsb_consistency::{check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::{BatchOp, HistoryPolicy, ProtocolSpec, Store, StoreConfig};
use rsb_workloads::{KeyedAction, KeyedScenario};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

fn reg() -> RegisterConfig {
    RegisterConfig::paper(1, 2, 16).unwrap()
}

fn check_key_histories(store: &Store) {
    for key in store.keys() {
        let h = store.key_history(&key).unwrap();
        let history = History::from_fpsm(h.initial, &h.records)
            .expect("recorded key histories are well-formed");
        check_strong_regularity(&history).expect("strong regularity on a recorded key history");
    }
}

/// Polls a future once with a waker that does nothing: a `Pending`
/// here could never be woken, so only an already-resolved future passes.
fn ready_at_once<F: Future + Unpin>(mut fut: F) -> F::Output {
    match Pin::new(&mut fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a loopback ticket came back unresolved"),
    }
}

#[test]
fn one_contended_key_resolves_every_ticket_and_stays_strongly_regular() {
    // Four blocking submitters on a single key serialize on its lock;
    // each runs its own operation inside its hold, so nobody waits on
    // anybody's wake-up. (The history is kept short enough for the
    // quadratic checker; compaction retains the frontier it needs.)
    let store = Store::start(
        StoreConfig::uniform(2, ProtocolSpec::Abd, reg())
            .with_history(HistoryPolicy::TruncateAfter(64)),
    )
    .unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let client = store.client();
            s.spawn(move || {
                for i in 0..5_000u64 {
                    if i % 2 == 0 {
                        let v = rsb_coding::Value::seeded(i * 10 + t + 1, 16);
                        client.write_blocking("hot", v).unwrap();
                    } else {
                        client.read_blocking("hot").unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(store.metrics().totals().completed(), 20_000);
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn every_loopback_ticket_is_ready_on_its_first_poll() {
    let store = Store::start(
        StoreConfig::uniform(2, ProtocolSpec::Adaptive, reg())
            .with_history(HistoryPolicy::TruncateAfter(64)),
    )
    .unwrap();
    // Four threads hammering one key, each future polled exactly once;
    // a fifth samples the metrics mid-traffic: no key is ever observed
    // between two lock holds with an event left to run.
    std::thread::scope(|s| {
        let submitters: Vec<_> = (0..4u64)
            .map(|t| {
                let client = store.client();
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let v = rsb_coding::Value::seeded(i * 10 + t + 1, 16);
                        ready_at_once(client.write("hot", v)).unwrap();
                        ready_at_once(client.read("hot")).unwrap();
                    }
                })
            })
            .collect();
        while !submitters
            .iter()
            .all(std::thread::ScopedJoinHandle::is_finished)
        {
            for shard in store.metrics().shards {
                assert_eq!(shard.ready_keys, 0, "shard {}", shard.shard);
            }
        }
    });
    // A mixed batch: several ops per key (invoked together under one
    // hold, so they overlap inside the register), several keys per
    // shard, and one op that fails at submission.
    let client = store.client();
    let mut batch: Vec<BatchOp> = (0..24u64)
        .map(|i| {
            let key = format!("k{}", i % 5);
            if i % 3 == 0 {
                BatchOp::Read(key)
            } else {
                BatchOp::Write(key, rsb_coding::Value::seeded(i + 1, 16))
            }
        })
        .collect();
    batch.push(BatchOp::Write("k0".into(), rsb_coding::Value::seeded(9, 5)));
    let outcomes: Vec<_> = client
        .submit_batch(batch)
        .into_iter()
        .map(ready_at_once)
        .collect();
    assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 24);
    assert!(outcomes[24].is_err(), "bad value length fails its own op");
    let m = store.metrics();
    assert_eq!(m.totals().completed(), 16_000 + 24);
    assert!(m.shards.iter().all(|s| s.ready_keys == 0));
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn hot_spot_workload_stays_strongly_regular() {
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Adaptive, reg())).unwrap();
    let scenario = KeyedScenario::uniform(8, 30, 16, 0.5, 16, 4242).with_hot_spot(2, 0.8);
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
    assert_eq!(store.metrics().totals().completed(), 240);
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn truncate_after_n_bounds_live_records_under_sustained_traffic() {
    let bound = 8;
    let store = Store::start(
        StoreConfig::uniform(1, ProtocolSpec::Abd, reg())
            .with_history(HistoryPolicy::TruncateAfter(bound)),
    )
    .unwrap();
    let client = store.client();
    let mut high_water = 0;
    for i in 0..200u64 {
        client
            .write_blocking("sustained", rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
        client.read_blocking("sustained").unwrap();
        high_water = high_water.max(store.metrics().live_records());
    }
    let m = store.metrics();
    // Bounded, not growing: a submission compacts as soon as its key
    // exceeds the bound, so the high-water mark stays near it (a small
    // slack covers records added between compaction points).
    assert!(
        high_water <= (bound as u64) + 4,
        "live records {high_water} should stay near the bound {bound}"
    );
    assert!(
        m.totals().truncated_records > 300,
        "sustained traffic must keep compacting (dropped {})",
        m.totals().truncated_records
    );
    // The surviving history is still checkable, and the frontier write
    // is still observable.
    assert_eq!(
        client.read_blocking("sustained").unwrap(),
        rsb_coding::Value::seeded(200, 16)
    );
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn truncate_on_quiescence_compacts_between_bursts() {
    let store = Store::start(
        StoreConfig::uniform(2, ProtocolSpec::Adaptive, reg())
            .with_history(HistoryPolicy::TruncateOnQuiescence),
    )
    .unwrap();
    let client = store.client();
    for i in 0..50u64 {
        client
            .write_blocking("bursty", rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
    }
    let m = store.metrics();
    assert!(
        m.live_records() <= 3,
        "quiescent key keeps only its frontier, got {}",
        m.live_records()
    );
    assert!(m.totals().truncated_records >= 45);
    assert_eq!(
        client.read_blocking("bursty").unwrap(),
        rsb_coding::Value::seeded(50, 16)
    );
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn eviction_under_unbounded_policy_preserves_full_history() {
    // Unbounded promises every OpRecord: evict/rematerialize must carry
    // the whole history through the snapshot, not a compacted frontier.
    let store = Store::start(StoreConfig::uniform(1, ProtocolSpec::Abd, reg())).unwrap();
    let client = store.client();
    for i in 0..10u64 {
        client
            .write_blocking("full", rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
        client.read_blocking("full").unwrap();
    }
    assert_eq!(store.evict_quiescent(), 1);
    assert_eq!(store.metrics().totals().truncated_records, 0);
    let h = store.key_history("full").unwrap();
    assert_eq!(h.records.len(), 20, "all 20 records survive eviction");
    assert_eq!(
        client.read_blocking("full").unwrap(),
        rsb_coding::Value::seeded(10, 16)
    );
    assert_eq!(store.key_history("full").unwrap().records.len(), 21);
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn evicted_keys_rematerialize_with_history_intact() {
    let store = Store::start(
        StoreConfig::uniform(2, ProtocolSpec::Abd, reg())
            .with_history(HistoryPolicy::TruncateOnQuiescence),
    )
    .unwrap();
    let client = store.client();
    for i in 0..8u64 {
        client
            .write_blocking(&format!("cold-{i}"), rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
    }
    let live_occupancy = store.metrics().occupancy_bits();
    assert!(live_occupancy > 0);

    let evicted = store.evict_quiescent();
    assert_eq!(evicted, 8, "all quiescent keys evict");
    let m = store.metrics();
    assert_eq!(m.evicted_keys(), 8);
    assert_eq!(
        m.occupancy_bits(),
        0,
        "evicted keys hold no live simulation"
    );
    assert!(
        m.shards.iter().map(|s| s.snapshot_bits).sum::<u64>() > 0,
        "snapshots retain the register contents"
    );
    // History stays queryable while evicted.
    let h = store
        .key_history("cold-3")
        .expect("evicted key has history");
    assert!(!h.records.is_empty());

    // Operations transparently rematerialize, and the restored register
    // serves the pre-eviction value with a checkable history.
    for i in 0..8u64 {
        assert_eq!(
            client.read_blocking(&format!("cold-{i}")).unwrap(),
            rsb_coding::Value::seeded(i + 1, 16)
        );
    }
    let m = store.metrics();
    assert_eq!(m.evicted_keys(), 0);
    assert_eq!(m.totals().rematerialized, 8);
    check_key_histories(&store);
    store.shutdown();
}
