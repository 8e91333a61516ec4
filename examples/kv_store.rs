//! A tiny configuration store built on the public API, exercised by
//! genuinely concurrent threads.
//!
//! Each configuration key is one emulated register of a sharded
//! [`Store`] (the paper's object of study is a single register; a KV
//! store is the natural composition). Several writer threads race on the
//! same keys; a reader thread observes a regular view throughout. Every
//! operation runs on the thread that calls it, under its key's lock —
//! the store adds no threads of its own.
//!
//! ```sh
//! cargo run --example kv_store
//! ```

use reliable_storage::prelude::*;

const VALUE_LEN: usize = 64;

/// Pads a payload to the registers' fixed value length.
fn padded(payload: &[u8]) -> Value {
    let mut bytes = payload.to_vec();
    bytes.resize(VALUE_LEN, 0);
    Value::from_bytes(bytes)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two shards of adaptive registers: tolerate one storage-node crash
    // per key, 2-of-4 erasure coding.
    let reg = RegisterConfig::paper(1, 2, VALUE_LEN)?;
    let store = Store::start(StoreConfig::uniform(2, ProtocolSpec::Adaptive, reg))?;

    let observations = std::thread::scope(|s| {
        // Four writer threads race updates to the same keys.
        for id in 0..4u8 {
            let client = store.client();
            s.spawn(move || {
                for round in 0..10u8 {
                    client
                        .write_blocking("feature-flags", padded(&[id, round, 0xff]))
                        .expect("store is live");
                    client
                        .write_blocking("rate-limits", padded(&[round, id]))
                        .expect("store is live");
                }
            });
        }
        // A reader thread polls concurrently.
        let client = store.client();
        let reader = s.spawn(move || {
            (0..20)
                .map(|_| {
                    client
                        .read_blocking("feature-flags")
                        .expect("store is live")
                })
                .filter(|flags| flags.len() == VALUE_LEN)
                .count()
        });
        reader.join().expect("reader thread")
    });

    let client = store.client();
    client.write_blocking("routing", padded(b"primary=eu-west"))?;
    let routing = client.read_blocking("routing")?;
    assert!(routing.as_bytes().starts_with(b"primary=eu-west"));

    let m = store.metrics();
    println!("kv-store demo complete:");
    println!(
        "  4 writers x 10 rounds raced on 2 keys; reader made {observations} consistent reads"
    );
    println!(
        "  {} keys, {} ops completed, occupancy {} bits",
        m.keys(),
        m.totals().completed(),
        m.occupancy_bits()
    );
    store.shutdown();
    Ok(())
}
