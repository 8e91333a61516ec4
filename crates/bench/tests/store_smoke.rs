//! Smoke tests for the sharded store from outside its crate: the whole
//! async + blocking client surface (the "facade" the test names mean),
//! driven by `rsb-workloads` scenarios and judged by `rsb-consistency`.

use rsb_coding::Value;
use rsb_consistency::{check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::{block_on, join_all, ProtocolSpec, Store, StoreConfig, StoreError};
use rsb_workloads::{KeyedAction, KeyedScenario};

#[test]
fn async_surface_through_the_facade() {
    let reg = RegisterConfig::paper(1, 2, 32).unwrap();
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Adaptive, reg)).unwrap();
    let client = store.client();

    block_on(client.write("facade", Value::seeded(1, 32))).unwrap();
    assert_eq!(
        block_on(client.read("facade")).unwrap(),
        Value::seeded(1, 32)
    );

    let writes: Vec<_> = (0..8u64)
        .map(|i| client.write(&format!("batch-{i}"), Value::seeded(i + 2, 32)))
        .collect();
    for out in join_all(writes) {
        out.unwrap();
    }
    assert_eq!(store.metrics().totals().writes_completed, 9);
    store.shutdown();
}

#[test]
fn keyed_workload_against_every_protocol() {
    for proto in ProtocolSpec::ALL {
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        let store = Store::start(StoreConfig::uniform(2, proto, reg)).unwrap();
        let client = store.client();
        let scenario = KeyedScenario::uniform(2, 10, 8, 0.5, 16, 11);
        for c in 0..scenario.clients {
            for op in scenario.client_ops(c) {
                match op.action {
                    KeyedAction::Read => {
                        client.read_blocking(&op.key).unwrap();
                    }
                    KeyedAction::Write(v) => {
                        client.write_blocking(&op.key, v).unwrap();
                    }
                }
            }
        }
        let totals = store.metrics().totals();
        assert_eq!(totals.completed(), 20, "protocol {proto}");
        store.shutdown();
    }
}

#[test]
fn recorded_multi_key_history_passes_the_checkers() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let store = Store::start(StoreConfig::uniform(3, ProtocolSpec::Abd, reg)).unwrap();
    let client = store.client();
    for i in 0..12u64 {
        let key = format!("k{}", i % 4);
        client
            .write_blocking(&key, Value::seeded(i + 1, 16))
            .unwrap();
        client.read_blocking(&key).unwrap();
    }
    for key in store.keys() {
        let h = store.key_history(&key).unwrap();
        let history = History::from_fpsm(h.initial, &h.records).unwrap();
        check_strong_regularity(&history).unwrap();
    }
    store.shutdown();
}

#[test]
fn shutdown_errors_surface_through_the_facade() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let store = Store::start(StoreConfig::uniform(2, ProtocolSpec::Safe, reg)).unwrap();
    let client = store.client();
    store.shutdown();
    assert!(matches!(
        client.read_blocking("gone"),
        Err(StoreError::ShutDown)
    ));
}
