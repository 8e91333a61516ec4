//! Standalone store server: binds a [`StoreServer`] on a TCP address and
//! serves until interrupted (or for `--run-secs N`, for scripted smokes).
//!
//! `--evict-every MS` runs a timer thread in this binary that calls
//! `Store::evict_quiescent` every `MS` milliseconds, and `--recorder N`
//! sizes the flight recorder ring. On a timed exit the server prints an
//! event summary from the recorder and asserts its sequence numbers came
//! out gapless.
//!
//! ```sh
//! cargo run --release -p rsb-bench --bin e10_store_server -- \
//!     --addr 127.0.0.1:7400 --shards 8 --proto adaptive --value-len 64
//! ```

use reliable_storage::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Dumps the flight recorder, asserts the dump is ordered and (when
/// nothing wrapped) gapless, and prints a per-kind event summary.
fn recorder_summary(store: &Store) {
    let rec = store.flight_recorder();
    let events = rec.dump();
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "recorder dump out of order");
    }
    if rec.recorded() <= rec.capacity() as u64 {
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let expect: Vec<u64> = (0..rec.recorded()).collect();
        assert_eq!(seqs, expect, "recorder dump has sequence gaps");
    }
    let mut by_kind: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for e in &events {
        *by_kind.entry(e.kind.label()).or_default() += 1;
    }
    let summary: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k}:{n}")).collect();
    println!(
        "flight recorder: {} events recorded, {} retained ({})",
        rec.recorded(),
        events.len(),
        summary.join(" ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7400".into());
    let shards: usize = flag(&args, "--shards").map_or(8, |v| v.parse().expect("--shards"));
    let value_len: usize =
        flag(&args, "--value-len").map_or(64, |v| v.parse().expect("--value-len"));
    let backlog: usize = flag(&args, "--backlog").map_or(64, |v| v.parse().expect("--backlog"));
    let run_secs: Option<u64> = flag(&args, "--run-secs").map(|v| v.parse().expect("--run-secs"));
    let evict_every: Option<Duration> = flag(&args, "--evict-every")
        .map(|v| Duration::from_millis(v.parse().expect("--evict-every")));
    let recorder: Option<usize> = flag(&args, "--recorder").map(|v| v.parse().expect("--recorder"));
    let proto = match flag(&args, "--proto").as_deref().unwrap_or("adaptive") {
        "abd" => ProtocolSpec::Abd,
        "abd-atomic" => ProtocolSpec::AbdAtomic,
        "safe" => ProtocolSpec::Safe,
        "coded" => ProtocolSpec::Coded,
        "adaptive" => ProtocolSpec::Adaptive,
        other => panic!("unknown --proto {other:?} (abd|abd-atomic|safe|coded|adaptive)"),
    };

    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");
    let mut config = StoreConfig::uniform(shards, proto, reg)
        .with_listen(ListenSpec::new(addr).with_backlog(backlog));
    if let Some(capacity) = recorder {
        config = config.with_recorder_capacity(capacity);
    }
    let server = Store::serve(config).expect("bind listen address");
    println!(
        "e10_store_server: listening on {} ({shards} shards, {value_len}-byte values, backlog {backlog})",
        server.local_addr()
    );

    let done = AtomicBool::new(false);
    let secs = std::thread::scope(|s| {
        if let Some(period) = evict_every {
            let store = server.store();
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(period);
                    store.evict_quiescent();
                }
            });
        }
        let Some(secs) = run_secs else {
            // Serve until the process is killed; accept/connection
            // threads do all the work.
            loop {
                std::thread::sleep(Duration::from_hours(1));
            }
        };
        std::thread::sleep(Duration::from_secs(secs));
        done.store(true, Ordering::Release);
        secs
    });
    let m = server.store().metrics();
    let totals = m.totals();
    println!(
        "e10_store_server: exiting after {secs}s — {} ops completed ({} reads, {} writes, {} \
         evicted, {} rematerialized)",
        totals.completed(),
        totals.reads_completed,
        totals.writes_completed,
        totals.evictions,
        totals.rematerialized,
    );
    assert!(
        totals.submitted() >= totals.completed(),
        "submissions must cover completions"
    );
    recorder_summary(server.store());
    server.shutdown();
}
