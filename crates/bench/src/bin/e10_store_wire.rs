//! E10 — the store across a real TCP wire, under closed- and open-loop
//! load.
//!
//! Spins up a [`StoreServer`] on `127.0.0.1:0` and measures the wire
//! against the in-process loopback path, like for like: the same
//! transport-generic harness drives both. The open-loop section offers
//! load on a fixed arrival schedule and measures every latency from the
//! operation's *scheduled* start (coordinated-omission-free), so
//! queueing delay at overload is charged to the operations instead of
//! silently throttling the generator. Consistency checks run on
//! histories recorded **through the TCP path** — strong regularity on
//! ABD, linearizability on atomic ABD.
//!
//! ```sh
//! cargo run --release -p rsb-bench --bin e10_store_wire              # full
//! cargo run --release -p rsb-bench --bin e10_store_wire -- --quick  # CI smoke
//! cargo run --release -p rsb-bench --bin e10_store_wire -- --quick --loopback
//! #   ^ hermetic: loopback transport only, no sockets
//! ```

use rsb_bench::load::{
    run_load, run_load_per_connection, run_load_scraped, LoadMode, LoadReport, LoadSpec,
};
use rsb_bench::{banner, print_table};
use rsb_consistency::{check_atomicity, check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::{
    LatencyHistogram, ListenSpec, ProtocolSpec, Store, StoreClient, StoreConfig, StoreMetrics,
    StoreServer, TcpTransport,
};
use std::time::Duration;

/// How often the open-loop runs scrape the store's live metrics.
const SCRAPE_EVERY: Duration = Duration::from_millis(50);

fn serve(shards: usize, protocol: ProtocolSpec, value_len: usize) -> StoreServer {
    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");
    let config = StoreConfig::uniform(shards, protocol, reg)
        .with_listen(ListenSpec::new("127.0.0.1:0").with_backlog(128));
    Store::serve(config).expect("bind 127.0.0.1:0")
}

/// Conservative histogram sum bounds from the bucket boundaries.
fn bucket_sum_lo(h: &LatencyHistogram) -> u128 {
    h.buckets()
        .map(|(lo, _, c)| u128::from(lo) * u128::from(c))
        .sum()
}

fn bucket_sum_hi(h: &LatencyHistogram) -> u128 {
    h.buckets()
        .map(|(_, hi, c)| u128::from(hi) * u128::from(c))
        .sum()
}

/// One row of the phase-attribution table, from the final scrape of a
/// rate's run — plus the sum-consistency checks the scrape must satisfy.
fn phase_row(label: &str, rate: f64, series: &[StoreMetrics]) -> Vec<String> {
    let m = series.last().expect("final scrape");
    let totals = m.totals();
    let e2e = m.end_to_end_latency();
    let queue = m.queue_wait();
    let exec = m.execute();
    let wire = m.wire();
    // Invariants of a quiesced scrape: everything submitted completed,
    // every completion carries exactly one sample in each phase
    // histogram, and the phases can't sum past the end-to-end latency.
    assert_eq!(totals.submitted(), totals.completed(), "{label} quiesced");
    assert_eq!(
        queue.count(),
        totals.completed(),
        "{label} queue_wait coverage"
    );
    assert_eq!(exec.count(), totals.completed(), "{label} execute coverage");
    assert_eq!(
        e2e.count(),
        totals.completed(),
        "{label} end-to-end coverage"
    );
    assert!(
        bucket_sum_lo(&queue) + bucket_sum_lo(&exec) <= bucket_sum_hi(&e2e),
        "{label} phase sums exceed end-to-end"
    );
    vec![
        label.to_string(),
        format!("{:.0}", rate / 1e3),
        (series.len() - 1).to_string(),
        totals.completed().to_string(),
        format!("{:.0}", e2e.quantile_us(0.50)),
        format!("{:.0}", e2e.quantile_us(0.99)),
        format!("{:.0}", queue.quantile_us(0.50)),
        format!("{:.0}", queue.quantile_us(0.99)),
        format!("{:.0}", exec.quantile_us(0.50)),
        format!("{:.0}", exec.quantile_us(0.99)),
        if wire.count() == 0 {
            "-".into()
        } else {
            format!("{:.0}", wire.quantile_us(0.50))
        },
        if wire.count() == 0 {
            "-".into()
        } else {
            format!("{:.0}", wire.quantile_us(0.99))
        },
    ]
}

const PHASE_HEADER: [&str; 12] = [
    "transport",
    "rate_kops",
    "scrapes",
    "done",
    "e2e_p50",
    "e2e_p99",
    "queue_p50",
    "queue_p99",
    "exec_p50",
    "exec_p99",
    "wire_p50",
    "wire_p99",
];

fn report_row(label: &str, rate: Option<f64>, r: &LoadReport) -> Vec<String> {
    vec![
        label.to_string(),
        rate.map_or_else(|| "closed".into(), |x| format!("{:.0}", x / 1e3)),
        r.issued.to_string(),
        r.errors.to_string(),
        format!("{:.3}", r.elapsed.as_secs_f64()),
        format!("{:.1}", r.kops()),
        format!("{:.0}", r.latency.quantile_us(0.50)),
        format!("{:.0}", r.latency.quantile_us(0.99)),
        format!("{:.0}", r.latency.quantile_us(0.999)),
    ]
}

const LOAD_HEADER: [&str; 9] = [
    "transport",
    "rate_kops",
    "ops",
    "errs",
    "secs",
    "kops/s",
    "p50_us",
    "p99_us",
    "p999_us",
];

fn check_consistency_through_tcp(store: &Store, atomic: bool) {
    let mut checked = 0;
    for key in store.keys() {
        let h = store.key_history(&key).expect("the key exists");
        let history =
            History::from_fpsm(h.initial, &h.records).expect("runtime histories are well-formed");
        check_strong_regularity(&history)
            .expect("strong regularity of a history recorded through TCP");
        if atomic {
            check_atomicity(&history)
                .expect("linearizability of an atomic-ABD history recorded through TCP");
        }
        checked += 1;
    }
    println!(
        "consistency through the TCP path: {} holds on {checked} recorded key histories\n",
        if atomic {
            "linearizability (and strong regularity)"
        } else {
            "strong regularity"
        }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick") || std::env::var("E10_QUICK").is_ok();
    let loopback_only = args.iter().any(|a| a == "--loopback");
    banner(
        "E10 (store over TCP)",
        "transport-generic clients: loopback vs a real wire, closed- and open-loop",
    );

    let clients = 16;
    let value_len = 64;
    let keys = if quick { 64 } else { 256 };
    let ops_per_client = if quick { 150 } else { 600 };
    let shards = 8;
    let base = LoadSpec {
        clients,
        ops_per_client,
        keys,
        write_fraction: 0.5,
        value_len,
        seed: 10,
        mode: LoadMode::Closed,
        batch: 1,
    };

    // ---- closed loop: loopback vs TCP, like for like ----------------
    let mut rows = Vec::new();
    let server = serve(shards, ProtocolSpec::Adaptive, value_len);
    let lb = run_load(&server.store().client(), &base);
    rows.push(report_row("loopback", None, &lb));
    if !loopback_only {
        // All three runs share one server, so each needs its own master
        // seed: identical streams would write identical values to the
        // same keys and make the regularity checker's write-matching
        // ambiguous.
        let shared: StoreClient<TcpTransport> =
            StoreClient::over(TcpTransport::connect(server.local_addr()).expect("connect"));
        let tcp_shared = run_load(
            &shared,
            &LoadSpec {
                seed: 0x00AA_5500,
                ..base.clone()
            },
        );
        rows.push(report_row("tcp 1-conn", None, &tcp_shared));
        let tcp_per = run_load_per_connection(
            server.local_addr(),
            &LoadSpec {
                seed: 0x5A5A_0000,
                ..base.clone()
            },
        );
        rows.push(report_row("tcp 16-conn", None, &tcp_per));
    }
    print_table(
        &format!(
            "closed loop, like for like ({clients} clients x {ops_per_client} ops, {keys} keys, \
             50% reads, adaptive, {shards} shards)"
        ),
        &LOAD_HEADER,
        &rows,
    );
    if !loopback_only {
        check_consistency_through_tcp(server.store(), false);
    }
    server.shutdown();

    // ---- open loop: latency under offered load ----------------------
    let rates: &[f64] = if quick {
        &[2_000.0, 8_000.0]
    } else {
        &[1_000.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0]
    };
    let mut rows = Vec::new();
    let mut phase_rows = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let spec = LoadSpec {
            seed: 20 + i as u64,
            mode: LoadMode::Open { rate },
            ..base.clone()
        };
        if loopback_only {
            let store = Store::start(StoreConfig::uniform(
                shards,
                ProtocolSpec::Adaptive,
                RegisterConfig::paper(1, 2, value_len).expect("valid parameters"),
            ))
            .expect("valid config");
            let scrape = store.client();
            let (r, series) =
                run_load_scraped(&scrape, SCRAPE_EVERY, || run_load(&store.client(), &spec));
            rows.push(report_row("loopback", Some(rate), &r));
            phase_rows.push(phase_row("loopback", rate, &series));
            store.shutdown();
        } else {
            let server = serve(shards, ProtocolSpec::Adaptive, value_len);
            // The scraper gets its own connection, so the periodic
            // stats frames travel the same wire the load does without
            // sharing a load connection's socket.
            let scrape: StoreClient<TcpTransport> =
                StoreClient::over(TcpTransport::connect(server.local_addr()).expect("connect"));
            let (r, mut series) = run_load_scraped(&scrape, SCRAPE_EVERY, || {
                run_load_per_connection(server.local_addr(), &spec)
            });
            // Wire-time samples land *after* each response is written,
            // so the post-run scrape can race the last few; take one
            // settled scrape for the phase table.
            std::thread::sleep(Duration::from_millis(50));
            series.push(scrape.stats().expect("final scrape"));
            rows.push(report_row("tcp 16-conn", Some(rate), &r));
            let row = phase_row("tcp 16-conn", rate, &series);
            let m = series.last().expect("final scrape");
            assert_eq!(
                m.wire().count(),
                m.totals().completed(),
                "every TCP op is wire-timed"
            );
            phase_rows.push(row);
            server.shutdown();
        }
    }
    print_table(
        &format!(
            "open loop: latency under offered load ({clients} issuers, fixed arrival schedule, \
             latency from *scheduled* start — coordinated-omission-free)"
        ),
        &LOAD_HEADER,
        &rows,
    );
    println!(
        "open-loop note: p99/p999 include queueing delay once the offered rate nears the \
         service's capacity — the closed-loop table cannot show that.\n"
    );
    print_table(
        "phase attribution, scraped over the live stats wire (us; server-side clocks: e2e = \
         submit->completion, queue = submit->execute-start, exec = execute batch, wire = frame \
         decode->response flush)",
        &PHASE_HEADER,
        &phase_rows,
    );
    println!(
        "phase note: e2e here is server-side (submit to completion), so open-loop schedule \
         backlog does not inflate it; queue+exec partition it, and wire adds the socket path \
         on TCP rows. 'scrapes' counts live mid-run stats snapshots.\n"
    );

    // ---- open loop, batched: arrival groups per wire round ----------
    // Arrivals accumulate until `batch` are due, then one `submit_batch`
    // flushes them; latency is still measured from each op's *scheduled*
    // start, so the grouping delay is charged to the ops it delayed.
    let batched_rate = if quick { 8_000.0 } else { 20_000.0 };
    let batch_sizes: &[usize] = if quick { &[1, 16] } else { &[1, 4, 16, 64] };
    let mut rows = Vec::new();
    let mut phase_rows = Vec::new();
    for (i, &batch) in batch_sizes.iter().enumerate() {
        let spec = LoadSpec {
            seed: 0xC000 + i as u64,
            mode: LoadMode::Open { rate: batched_rate },
            batch,
            ..base.clone()
        };
        let label = format!("b={batch}");
        if loopback_only {
            let store = Store::start(StoreConfig::uniform(
                shards,
                ProtocolSpec::Adaptive,
                RegisterConfig::paper(1, 2, value_len).expect("valid parameters"),
            ))
            .expect("valid config");
            let scrape = store.client();
            let (r, series) =
                run_load_scraped(&scrape, SCRAPE_EVERY, || run_load(&store.client(), &spec));
            rows.push(report_row(
                &format!("loopback {label}"),
                Some(batched_rate),
                &r,
            ));
            phase_rows.push(phase_row(
                &format!("loopback {label}"),
                batched_rate,
                &series,
            ));
            store.shutdown();
        } else {
            let server = serve(shards, ProtocolSpec::Adaptive, value_len);
            let scrape: StoreClient<TcpTransport> =
                StoreClient::over(TcpTransport::connect(server.local_addr()).expect("connect"));
            let (r, mut series) = run_load_scraped(&scrape, SCRAPE_EVERY, || {
                run_load_per_connection(server.local_addr(), &spec)
            });
            std::thread::sleep(Duration::from_millis(50));
            series.push(scrape.stats().expect("final scrape"));
            rows.push(report_row(&format!("tcp {label}"), Some(batched_rate), &r));
            phase_rows.push(phase_row(&format!("tcp {label}"), batched_rate, &series));
            server.shutdown();
        }
    }
    print_table(
        &format!(
            "open loop, batched submission (offered {:.0} kops/s total, batch swept; \
             latency from each op's scheduled start)",
            batched_rate / 1e3
        ),
        &LOAD_HEADER,
        &rows,
    );
    print_table(
        "phase attribution for the batched open-loop runs (us; server-side clocks)",
        &PHASE_HEADER,
        &phase_rows,
    );
    println!(
        "batched open-loop note: grouping amortizes frames and syscalls per op, and the \
         scheduled-start clock charges the accumulation delay (ops waiting for their batch to \
         fill) to the ops it delayed — batching helps wire efficiency, not open-loop latency.\n"
    );

    // ---- linearizability through the wire ---------------------------
    if !loopback_only {
        let server = serve(4, ProtocolSpec::AbdAtomic, value_len);
        let spec = LoadSpec {
            clients: 8,
            ops_per_client: if quick { 40 } else { 120 },
            keys: 6,
            write_fraction: 0.5,
            value_len,
            seed: 77,
            mode: LoadMode::Closed,
            // The atomic run issues through `BatchReq` frames, so the
            // linearizability check below covers batched wire traffic.
            batch: 4,
        };
        let r = run_load_per_connection(server.local_addr(), &spec);
        assert_eq!(r.errors, 0, "atomic run errored: {:?}", r.first_error);
        check_consistency_through_tcp(server.store(), true);
        server.shutdown();
    } else {
        println!("(--loopback: TCP sections skipped; consistency checked in e10's socket mode)");
    }
}
