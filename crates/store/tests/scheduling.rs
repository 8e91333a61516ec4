//! Event-driven scheduling and history bounds: work-stealing under
//! hot-key skew, truncation policies keeping checkable histories, and
//! evict/rematerialize of quiescent keys.

use rsb_consistency::{check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::{join_all, HistoryPolicy, ProtocolSpec, Store, StoreConfig};
use rsb_workloads::{KeyedAction, KeyedScenario};

fn reg() -> RegisterConfig {
    RegisterConfig::paper(1, 2, 16).unwrap()
}

/// Keys all placed on shard 0 of a `shards`-wide store, so one home
/// driver owns every ready key and its neighbors can only make progress
/// by stealing.
fn keys_on_shard_zero(store: &Store, count: usize) -> Vec<String> {
    let mut keys = Vec::new();
    let mut i = 0u64;
    while keys.len() < count {
        let key = format!("pin-{i}");
        if store.shard_of(&key) == 0 {
            keys.push(key);
        }
        i += 1;
    }
    keys
}

fn check_key_histories(store: &Store) {
    for key in store.keys() {
        let h = store.key_history(&key).unwrap();
        let history = History::from_fpsm(h.initial, &h.records)
            .expect("recorded key histories are well-formed");
        check_strong_regularity(&history).expect("strong regularity on a recorded key history");
    }
}

#[test]
fn idle_drivers_steal_from_a_hot_shard() {
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Abd, reg())).unwrap();
    let keys = keys_on_shard_zero(&store, 4);
    // A submitter runs an idle key itself, so shard 0's ready queue fills
    // only through contention: a submission that finds its key running
    // elsewhere leaves it dirty, the finishing owner re-queues it and
    // wakes one pool driver — whichever is parked, so usually not shard
    // 0's own. Shards 1–3 hold no keys: their drivers' only possible
    // work is stolen from shard 0. Four threads write every key per
    // round (each starting at a different one) until a steal shows.
    const MAX_ROUNDS: u64 = 2_000;
    let writes: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4usize)
            .map(|t| {
                let client = store.client();
                let (store, keys) = (&store, &keys);
                s.spawn(move || {
                    let mut round = 0u64;
                    while round < MAX_ROUNDS && store.metrics().shards[0].ops.stolen == 0 {
                        let writes: Vec<_> = (0..keys.len())
                            .map(|k| {
                                client.write(
                                    &keys[(k + t) % keys.len()],
                                    rsb_coding::Value::seeded(
                                        (round * 100 + k as u64) * 10 + t as u64 + 1,
                                        16,
                                    ),
                                )
                            })
                            .collect();
                        for out in join_all(writes) {
                            out.unwrap();
                        }
                        round += 1;
                    }
                    round * keys.len() as u64
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    // Every write has completed, but a neighbor may still be mid-steal
    // on a key re-queued with nothing left to run; joining the drivers
    // settles the counters.
    store.halt();
    let m = store.metrics();
    assert_eq!(m.totals().writes_completed, writes);
    let stolen_from_zero = m.shards[0].ops.stolen;
    let steals_by_neighbors: u64 = m.shards[1..].iter().map(|s| s.ops.steals).sum();
    assert_eq!(
        stolen_from_zero, steals_by_neighbors,
        "every steal is attributed to a thief and a victim"
    );
    assert!(
        stolen_from_zero > 0,
        "idle neighbors should have stolen re-queued keys from the hot shard \
         ({writes} contended writes, {} key runs inline)",
        m.totals().inline_runs
    );
    // Stolen-key histories are still per-key serialized and consistent.
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn one_contended_key_resolves_every_ticket_and_stays_strongly_regular() {
    // Four blocking submitters on a single key: whoever finds it idle
    // runs it, the others leave it dirty and wait for the pool. The
    // owner that re-queues the key returns to its caller, so unless its
    // `finish` wakes a driver the queued operations (and their blocked
    // submitters) wait forever — with and without stealing, which pick
    // different wake-up modes. (The history is kept short enough for the
    // quadratic checker; compaction retains the frontier it needs.)
    for work_stealing in [true, false] {
        let store = Store::start(
            StoreConfig::uniform(2, ProtocolSpec::Abd, reg())
                .with_work_stealing(work_stealing)
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
        let totals = store.metrics().totals();
        assert_eq!(totals.completed(), 20_000);
        assert!(
            totals.inline_runs <= totals.submitted(),
            "at most one inline run per submission"
        );
        check_key_histories(&store);
        store.shutdown();
    }
}

#[test]
fn disabling_work_stealing_pins_keys_to_home_drivers() {
    let store =
        Store::start(StoreConfig::uniform(4, ProtocolSpec::Abd, reg()).with_work_stealing(false))
            .unwrap();
    let keys = keys_on_shard_zero(&store, 4);
    let client = store.client();
    for round in 0..10u64 {
        let writes: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(k, key)| {
                client.write(
                    key,
                    rsb_coding::Value::seeded(round * 100 + k as u64 + 1, 16),
                )
            })
            .collect();
        for out in join_all(writes) {
            out.unwrap();
        }
    }
    let m = store.metrics();
    assert_eq!(m.totals().writes_completed, 40);
    assert_eq!(m.totals().steals, 0, "stealing disabled");
    assert_eq!(m.totals().stolen, 0, "stealing disabled");
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn hot_spot_workload_with_stealing_stays_strongly_regular() {
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
    // Bounded, not growing: the driver compacts as soon as a key exceeds
    // the bound, so the high-water mark stays near it (a small slack
    // covers records added between compaction points).
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
