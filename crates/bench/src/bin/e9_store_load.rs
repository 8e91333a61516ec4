//! E9 — the sharded store's memory over waves of multi-key traffic.
//!
//! Drives waves of keyed traffic at a store and, after each wave, reads
//! its live-record count and occupancy: first with and without a history
//! bound, then with and without an [`Store::evict_quiescent`] sweep
//! between waves. Memory over time is
//! what these tables show and what no frozen benchmark workload
//! measures; throughput and latency live in `benchmark/`.
//!
//! ```sh
//! cargo run --release -p rsb-bench --bin e9_store_load            # full
//! cargo run --release -p rsb-bench --bin e9_store_load -- --quick # CI smoke
//! ```

use rsb_bench::{banner, print_table};
use rsb_consistency::{check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::{HistoryPolicy, ProtocolSpec, Store, StoreConfig};
use rsb_workloads::{key_rank, KeyedAction, KeyedScenario};

fn spot_check_consistency(store: &Store, quota: usize) {
    let mut checked = 0;
    let mut foreign = 0;
    for key in store.keys() {
        if checked == quota {
            break;
        }
        // Keys outside the canonical `k<digits>` namespace (a custom key
        // distribution, say) are reported and skipped — never a panic.
        if key_rank(&key).is_none() {
            foreign += 1;
            continue;
        }
        let h = store.key_history(&key).expect("the key exists");
        let history =
            History::from_fpsm(h.initial, &h.records).expect("runtime histories are well-formed");
        check_strong_regularity(&history).expect("strong regularity of a recorded key history");
        checked += 1;
    }
    print!("consistency spot-check: strong regularity holds on {checked} recorded key histories");
    if foreign > 0 {
        print!(" ({foreign} non-canonical keys skipped)");
    }
    println!();
}

/// Sustained traffic against one hot key set, sampled in waves: without a
/// history policy the per-key `OpRecord` history grows linearly; with
/// `truncate-after-N` the live-record occupancy stays flat while the
/// registers keep serving (and their histories keep checking out).
fn history_bounds_section(quick: bool, clients: usize, value_len: usize) {
    let bound = 64;
    let waves = if quick { 4 } else { 8 };
    let ops_per_wave = if quick { 15 } else { 40 };
    let keys = 8;
    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");
    let policies = [
        ("unbounded", HistoryPolicy::Unbounded),
        ("truncate-64", HistoryPolicy::TruncateAfter(bound)),
    ];
    let mut rows = Vec::new();
    let mut checked_store = None;
    for (label, policy) in policies {
        let store =
            Store::start(StoreConfig::uniform(4, ProtocolSpec::Abd, reg).with_history(policy))
                .expect("valid config");
        for wave in 0..waves {
            let scenario = KeyedScenario::uniform(
                clients,
                ops_per_wave,
                keys,
                0.5,
                value_len,
                9_000 + wave as u64,
            );
            drive_wave(&store, &scenario);
            let m = store.metrics();
            let totals = m.totals();
            rows.push(vec![
                label.to_string(),
                (wave + 1).to_string(),
                totals.completed().to_string(),
                m.live_records().to_string(),
                totals.truncated_records.to_string(),
                (m.occupancy_bits() / 8 / 1024).to_string(),
            ]);
        }
        if policy == HistoryPolicy::Unbounded {
            store.shutdown();
        } else {
            // Keep the bounded store for the post-table spot checks.
            checked_store = Some(store);
        }
    }
    print_table(
        &format!(
            "history bounds under sustained traffic ({clients} clients x {ops_per_wave} \
             ops/wave, {keys} keys, abd, 4 shards)"
        ),
        &["policy", "wave", "ops", "live_recs", "truncated", "occ_KiB"],
        &rows,
    );
    if let Some(store) = checked_store {
        spot_check_consistency(&store, 4);
        let before = store.metrics().occupancy_bits();
        let evicted = store.evict_quiescent();
        let after = store.metrics().occupancy_bits();
        println!(
            "evict_quiescent: {evicted} keys rested in place ({} KiB occupancy before the sweep, \
             {} KiB after)\n",
            before / 8 / 1024,
            after / 8 / 1024,
        );
    }
}

/// Drives one wave of a keyed scenario with blocking per-client threads.
fn drive_wave(store: &Store, scenario: &KeyedScenario) {
    let handles: Vec<_> = (0..scenario.clients)
        .map(|c| {
            let client = store.client();
            let stream = scenario.client_ops(c);
            std::thread::spawn(move || {
                for op in stream {
                    match op.action {
                        KeyedAction::Read => {
                            client.read_blocking(&op.key).expect("store is live");
                        }
                        KeyedAction::Write(v) => {
                            client.write_blocking(&op.key, v).expect("store is live");
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

/// Memory under skewed reuse with key churn: every wave's zipf(0.99)
/// traffic targets a *growing* keyspace — the hot head keeps getting
/// reused while a cold tail accumulates. The `unbounded` store leaves
/// every key as its last hold left it; the `evict-between` store calls
/// [`Store::evict_quiescent`] after each wave, so between waves every
/// key rests in place. `occ_KiB` is `occupancy_bits`, the registers'
/// Definition-2 bits, which a sweep does not move. Read and write
/// latency come from the store's own histograms.
fn eviction_section(quick: bool, value_len: usize) {
    let clients = if quick { 8 } else { 16 };
    let waves = if quick { 4 } else { 8 };
    let ops_per_wave = if quick { 25 } else { 60 };
    let base_keys = 24;
    let keys_per_wave = 24;
    let shards = 4;
    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");

    let mut rows = Vec::new();
    let mut latency_rows = Vec::new();
    let mut evicting_store = None;
    for (label, evict) in [("unbounded", false), ("evict-between", true)] {
        let store = Store::start(
            StoreConfig::uniform(shards, ProtocolSpec::Abd, reg)
                .with_history(HistoryPolicy::TruncateAfter(64)),
        )
        .expect("valid config");
        for wave in 0..waves {
            let keys = base_keys + wave * keys_per_wave;
            let scenario = KeyedScenario::uniform(
                clients,
                ops_per_wave,
                keys,
                0.5,
                value_len,
                31_100 + wave as u64,
            )
            .with_zipf(0.99);
            drive_wave(&store, &scenario);
            if evict {
                store.evict_quiescent();
            }
            let m = store.metrics();
            let totals = m.totals();
            rows.push(vec![
                label.to_string(),
                (wave + 1).to_string(),
                m.keys().to_string(),
                (m.occupancy_bits() / 8 / 1024).to_string(),
                totals.evictions.to_string(),
                m.live_records().to_string(),
            ]);
        }
        let m = store.metrics();
        let read = m.read_latency();
        let write = m.write_latency();
        latency_rows.push(vec![
            label.to_string(),
            read.count().to_string(),
            format!("{:.0}", read.quantile_us(0.50)),
            format!("{:.0}", read.quantile_us(0.99)),
            format!("{:.0}", read.quantile_us(0.999)),
            write.count().to_string(),
            format!("{:.0}", write.quantile_us(0.50)),
            format!("{:.0}", write.quantile_us(0.99)),
        ]);
        if evict {
            evicting_store = Some(store);
        } else {
            store.shutdown();
        }
    }
    print_table(
        &format!(
            "unbounded vs evict_quiescent between waves, zipf(0.99) reuse with key churn \
             ({clients} clients x {ops_per_wave} ops/wave, +{keys_per_wave} keys/wave, abd, \
             {shards} shards, truncate-64 history)"
        ),
        &["policy", "wave", "keys", "occ_KiB", "evs", "live_recs"],
        &rows,
    );
    print_table(
        "latency (store-measured, submit -> completion)",
        &[
            "policy", "reads", "p50_us", "p99_us", "p999_us", "writes", "w_p50_us", "w_p99_us",
        ],
        &latency_rows,
    );
    if let Some(store) = evicting_store {
        // Histories that span rest cycles must still check out.
        spot_check_consistency(&store, 6);
        store.shutdown();
    }
    println!(
        "eviction: a sweep leaves occ_KiB where it was — a rested key keeps its registers' \
         bits; what a sweep frees is the heap around them (idle clients, record buffers, \
         container slack), which crates/store/tests/evict_footprint.rs measures in bytes.\n"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || std::env::var("E9_QUICK").is_ok();
    banner(
        "E9 (sharded store)",
        "memory over waves: history bounds, evict_quiescent between waves",
    );
    let value_len = 64;
    history_bounds_section(quick, 16, value_len);
    eviction_section(quick, value_len);
    println!(
        "paper mapping: occ_KiB is the registers' storage cost (the paper's Definition 2), \
         which neither a history bound nor an eviction sweep sheds."
    );
}
