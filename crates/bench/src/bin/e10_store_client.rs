//! Load-generating client for a running `e10_store_server`.
//!
//! Closed loop by default; pass `--rate OPS_PER_SEC` for open-loop
//! arrivals (fixed schedule, latency measured from the scheduled start —
//! coordinated-omission-free). Each client thread gets its own TCP
//! connection. Pass `--batch N` to group submissions into `BatchReq`
//! frames of `N` operations per wire round.
//!
//! Pass `--stats` to skip the load entirely and scrape the server's
//! live metrics over the wire instead, printed as Prometheus-style
//! exposition text; add `--check` to also assert the metric invariants
//! (submissions ≥ completions, phase histograms covering completions).
//!
//! ```sh
//! cargo run --release -p rsb-bench --bin e10_store_client -- \
//!     --addr 127.0.0.1:7400 --clients 16 --ops 500 --rate 10000
//! cargo run --release -p rsb-bench --bin e10_store_client -- \
//!     --addr 127.0.0.1:7400 --stats --check
//! ```

use rsb_bench::load::{run_load_per_connection, LoadMode, LoadSpec};
use rsb_bench::print_table;
use rsb_store::{StoreClient, TcpTransport};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Scrapes the server's metrics over the wire and prints them. With
/// `check`, asserts the invariants an external monitor may rely on.
fn scrape_stats(addr: std::net::SocketAddr, check: bool) {
    let client: StoreClient<TcpTransport> =
        StoreClient::over(TcpTransport::connect(addr).expect("connect to server"));
    let m = client.stats().expect("stats scrape");
    print!("{}", m.render_prometheus());
    if check {
        let t = m.totals();
        assert!(
            t.submitted() >= t.completed(),
            "submissions {} must cover completions {}",
            t.submitted(),
            t.completed()
        );
        // Phase samples are recorded per completion; a scrape of a live
        // server can catch a completion between its two histogram
        // updates, so allow a sliver of in-flight skew.
        let (q, e) = (m.queue_wait().count(), m.execute().count());
        assert!(
            q.abs_diff(e) <= 16,
            "phase counts diverged: queue {q}, exec {e}"
        );
        assert!(
            q <= t.completed() && m.end_to_end_latency().count() <= t.completed(),
            "phase samples {} exceed completions {}",
            q,
            t.completed()
        );
        // Wire samples lag completions by in-flight response writes.
        assert!(m.wire().count() <= t.completed());
        eprintln!("stats check: ok ({} ops completed)", t.completed());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7400".into());
    if has_flag(&args, "--stats") {
        let sock_addr: std::net::SocketAddr = addr.parse().expect("--addr is host:port");
        scrape_stats(sock_addr, has_flag(&args, "--check"));
        return;
    }
    let clients: usize = flag(&args, "--clients").map_or(8, |v| v.parse().expect("--clients"));
    let ops: usize = flag(&args, "--ops").map_or(200, |v| v.parse().expect("--ops"));
    let keys: usize = flag(&args, "--keys").map_or(128, |v| v.parse().expect("--keys"));
    let value_len: usize =
        flag(&args, "--value-len").map_or(64, |v| v.parse().expect("--value-len"));
    let write_fraction: f64 =
        flag(&args, "--write-frac").map_or(0.5, |v| v.parse().expect("--write-frac"));
    let seed: u64 = flag(&args, "--seed").map_or(1, |v| v.parse().expect("--seed"));
    let rate: Option<f64> = flag(&args, "--rate").map(|v| v.parse().expect("--rate"));
    let batch: usize = flag(&args, "--batch").map_or(1, |v| v.parse().expect("--batch"));

    let spec = LoadSpec {
        clients,
        ops_per_client: ops,
        keys,
        write_fraction,
        value_len,
        seed,
        mode: rate.map_or(LoadMode::Closed, |rate| LoadMode::Open { rate }),
        batch,
    };
    let sock_addr: std::net::SocketAddr = addr.parse().expect("--addr is host:port");
    let r = run_load_per_connection(sock_addr, &spec);
    if let Some(err) = &r.first_error {
        eprintln!("first error: {err}");
    }
    print_table(
        &format!(
            "{addr} — {clients} clients x {ops} ops, {}{}",
            rate.map_or_else(|| "closed loop".into(), |x| format!("open loop @ {x:.0}/s")),
            if batch > 1 {
                format!(", batch {batch}")
            } else {
                String::new()
            }
        ),
        &[
            "ops", "ok", "errs", "secs", "kops/s", "p50_us", "p99_us", "p999_us",
        ],
        &[vec![
            r.issued.to_string(),
            r.ok.to_string(),
            r.errors.to_string(),
            format!("{:.3}", r.elapsed.as_secs_f64()),
            format!("{:.1}", r.kops()),
            format!("{:.0}", r.latency.quantile_us(0.50)),
            format!("{:.0}", r.latency.quantile_us(0.99)),
            format!("{:.0}", r.latency.quantile_us(0.999)),
        ]],
    );
    assert_eq!(r.errors, 0, "load run saw errors: {:?}", r.first_error);
}
