//! End-to-end tests of the TCP wire: handshake, round-trips, error
//! delivery, capacity, shutdown, timeouts, and consistency of histories
//! recorded through the socket path.

use rsb_coding::Value;
use rsb_consistency::{check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::frame::{read_frame, write_frame, Frame, WIRE_VERSION};
use rsb_store::{
    block_on, join_all, BatchOp, ListenSpec, ProtocolSpec, Store, StoreClient, StoreConfig,
    StoreError, StoreServer, TcpTransport,
};
use std::net::TcpStream;
use std::time::Duration;

fn serve(shards: usize, protocol: ProtocolSpec, value_len: usize) -> StoreServer {
    let reg = RegisterConfig::paper(1, 2, value_len).unwrap();
    let config =
        StoreConfig::uniform(shards, protocol, reg).with_listen(ListenSpec::new("127.0.0.1:0"));
    Store::serve(config).unwrap()
}

fn connect(server: &StoreServer) -> StoreClient<TcpTransport> {
    StoreClient::over(TcpTransport::connect(server.local_addr()).unwrap())
}

#[test]
fn blocking_round_trip_over_the_wire() {
    let server = serve(4, ProtocolSpec::Adaptive, 32);
    let client = connect(&server);
    let v = Value::seeded(5, 32);
    client.write_blocking("alpha", v.clone()).unwrap();
    assert_eq!(client.read_blocking("alpha").unwrap(), v);
    assert_eq!(client.read_blocking("missing").unwrap(), Value::zeroed(32));
    server.shutdown();
}

#[test]
fn async_futures_resolve_over_the_wire() {
    let server = serve(2, ProtocolSpec::Abd, 16);
    let client = connect(&server);
    block_on(client.write("k", Value::seeded(9, 16))).unwrap();
    assert_eq!(block_on(client.read("k")).unwrap(), Value::seeded(9, 16));
    server.shutdown();
}

#[test]
fn key_meta_crosses_the_wire() {
    let server = serve(2, ProtocolSpec::Adaptive, 64);
    let client = connect(&server);
    let meta = client.key_meta("anything").unwrap();
    assert_eq!(meta.value_len, 64);
    assert_eq!(meta.protocol, "adaptive");
    assert_eq!(client.value_len("anything").unwrap(), 64);
    assert_eq!(client.protocol_of("anything").unwrap(), "adaptive");
    server.shutdown();
}

#[test]
fn bad_value_length_is_reported_through_the_socket() {
    let server = serve(1, ProtocolSpec::Safe, 16);
    let client = connect(&server);
    assert_eq!(
        client
            .write_blocking("k", Value::seeded(1, 99))
            .unwrap_err(),
        StoreError::BadValueLength { got: 99, want: 16 }
    );
    // The connection survives an operation error.
    client.write_blocking("k", Value::seeded(1, 16)).unwrap();
    server.shutdown();
}

#[test]
fn version_mismatch_is_rejected_at_handshake() {
    let server = serve(1, ProtocolSpec::Abd, 16);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut &stream, &Frame::Hello { version: 99 }).unwrap();
    match read_frame(&mut &stream).unwrap() {
        Some(Frame::ErrorResp { id: 0, error }) => assert_eq!(
            error,
            StoreError::ProtocolVersion {
                got: 99,
                want: WIRE_VERSION
            }
        ),
        other => panic!("expected a version rejection, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn garbage_after_handshake_gets_a_decode_error_and_a_close() {
    let server = serve(1, ProtocolSpec::Abd, 16);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut &stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut &stream).unwrap(),
        Some(Frame::HelloAck { .. })
    ));
    // An unknown tag with a plausible length prefix.
    use std::io::Write;
    (&stream).write_all(&[1u8, 0, 0, 0, 0xFF]).unwrap();
    match read_frame(&mut &stream).unwrap() {
        Some(Frame::ErrorResp { id: 0, error }) => {
            assert!(matches!(error, StoreError::Decode(_)), "got {error:?}");
        }
        other => panic!("expected a decode rejection, got {other:?}"),
    }
    // The server closes the connection after the rejection.
    assert!(matches!(read_frame(&mut &stream), Ok(None) | Err(_)));
    server.shutdown();
}

/// A raw socket past the `Hello`/`HelloAck` handshake.
fn handshaken(server: &StoreServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut &stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut &stream).unwrap(),
        Some(Frame::HelloAck { .. })
    ));
    stream
}

#[test]
fn a_hello_mid_session_gets_a_protocol_error_and_a_close() {
    let server = serve(1, ProtocolSpec::Abd, 16);
    let stream = handshaken(&server);
    // A well-formed frame the client has no business sending now.
    let hello = Frame::Hello {
        version: WIRE_VERSION,
    };
    write_frame(&mut &stream, &hello).unwrap();
    match read_frame(&mut &stream).unwrap() {
        Some(Frame::ErrorResp {
            id: 0,
            error: StoreError::Decode(msg),
        }) => assert!(msg.contains("unexpected"), "got: {msg}"),
        other => panic!("expected a protocol-violation rejection, got {other:?}"),
    }
    assert!(matches!(read_frame(&mut &stream), Ok(None) | Err(_)));
    server.shutdown();
}

#[test]
fn pipelined_requests_are_all_answered_in_request_order() {
    // A client that pipelines 10 000 reads and reads nothing back. The
    // responses (160 MB) dwarf what the loopback socket buffers hold,
    // so the connection's one server thread must end up blocked in
    // `write` — and, being the thread that also reads requests, stop
    // executing them: the send buffer is the bound on the backlog, not
    // a queue in memory. Once the client reads, every response arrives,
    // in request order, ids matching.
    const REQUESTS: u64 = 10_000;
    const VALUE_LEN: usize = 16 * 1024;
    let server = serve(2, ProtocolSpec::Abd, VALUE_LEN);
    let stream = handshaken(&server);
    // A stuck write or read fails the test instead of hanging it.
    stream
        .set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut requests = Vec::new();
    for id in 1..=REQUESTS {
        let key = format!("k{}", id % 7);
        rsb_store::frame::encode_frame(&Frame::ReadReq { id, key }, &mut requests);
    }
    // The requests go out from a helper thread: should they not all fit
    // in the buffers either, the client does not deadlock against a
    // server that has stopped reading.
    let writer = {
        let stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            use std::io::Write;
            (&stream).write_all(&requests).unwrap();
        })
    };
    // Nothing is read until the server has stalled: its count of
    // executed reads stops moving short of the total.
    let served = || server.store().metrics().totals().reads_completed;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut stalled_at = served();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = served();
        if now > 0 && now == stalled_at {
            break;
        }
        stalled_at = now;
        assert!(
            std::time::Instant::now() < deadline,
            "the server neither stalled nor finished"
        );
    }
    assert!(
        stalled_at < REQUESTS,
        "the server ran all {REQUESTS} requests with no one reading its responses"
    );
    let mut responses = std::io::BufReader::new(&stream);
    for id in 1..=REQUESTS {
        match read_frame(&mut responses).unwrap() {
            Some(Frame::ReadResp { id: got, value }) => {
                assert_eq!(got, id, "responses leave in request order");
                assert_eq!(value, vec![0u8; VALUE_LEN]);
            }
            other => panic!("expected the response to request {id}, got {other:?}"),
        }
    }
    writer.join().unwrap();
    assert_eq!(served(), REQUESTS);
    server.shutdown();
}

#[test]
fn capacity_overflow_is_rejected_with_a_clean_error() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let config = StoreConfig::uniform(1, ProtocolSpec::Abd, reg)
        .with_listen(ListenSpec::new("127.0.0.1:0").with_backlog(1));
    let server = Store::serve(config).unwrap();
    let first = connect(&server);
    first.write_blocking("k", Value::seeded(1, 16)).unwrap();
    match TcpTransport::connect(server.local_addr()) {
        Err(StoreError::Rejected(msg)) => assert!(msg.contains("capacity"), "got: {msg}"),
        other => panic!("expected a capacity rejection, got {other:?}"),
    }
    // The first connection is unaffected.
    first.read_blocking("k").unwrap();
    server.shutdown();
}

#[test]
fn server_shutdown_fails_clients_instead_of_hanging() {
    let server = serve(2, ProtocolSpec::Abd, 16);
    let client = connect(&server);
    client.write_blocking("k", Value::seeded(1, 16)).unwrap();
    server.shutdown();
    // Either the dead connection or, if the shutdown raced the
    // submission, a ShutDown relayed as an error frame.
    let err = client.read_blocking("k").unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_) | StoreError::ShutDown),
        "got {err:?}"
    );
}

#[test]
fn per_op_timeout_fires_when_the_server_goes_mute() {
    // A fake server that completes the handshake and then never responds.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mute = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        match read_frame(&mut &stream) {
            Ok(Some(Frame::Hello { .. })) => {
                write_frame(
                    &mut &stream,
                    &Frame::HelloAck {
                        version: WIRE_VERSION,
                    },
                )
                .unwrap();
            }
            other => panic!("expected a hello, got {other:?}"),
        }
        // Hold the socket open without answering anything.
        std::thread::sleep(Duration::from_millis(500));
    });
    let transport = TcpTransport::connect_with(addr, Some(Duration::from_millis(50))).unwrap();
    let client: StoreClient<TcpTransport> = StoreClient::over(transport);
    assert_eq!(client.read_blocking("k").unwrap_err(), StoreError::Timeout);
    mute.join().unwrap();
}

#[test]
fn concurrent_tcp_clients_record_checkable_histories() {
    let server = serve(4, ProtocolSpec::Abd, 16);
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let client: StoreClient<TcpTransport> =
                    StoreClient::over(TcpTransport::connect(addr).unwrap());
                for i in 0..10u64 {
                    let key = format!("k{}", i % 3);
                    client
                        .write_blocking(&key, Value::seeded(c * 100 + i, 16))
                        .unwrap();
                    client.read_blocking(&key).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let store = server.store();
    assert_eq!(store.metrics().totals().completed(), 80);
    for key in store.keys() {
        let h = store.key_history(&key).unwrap();
        let history = History::from_fpsm(h.initial, &h.records).unwrap();
        check_strong_regularity(&history)
            .expect("strong regularity of a history recorded through TCP");
    }
    server.shutdown();
}

#[test]
fn mixed_batch_round_trips_over_the_wire() {
    let server = serve(4, ProtocolSpec::Adaptive, 16);
    let client = connect(&server);
    let va = Value::seeded(1, 16);
    let vb = Value::seeded(2, 16);
    let writes = join_all(client.submit_batch(vec![
        BatchOp::Write("a".into(), va.clone()),
        BatchOp::Write("b".into(), vb.clone()),
        // A server-side per-op failure comes back as this op's error
        // entry of the one BatchResp — batchmates are unaffected.
        BatchOp::Write("bad".into(), Value::seeded(3, 99)),
    ]));
    assert_eq!(writes[0], Ok(rsb_fpsm::OpResult::Write));
    assert_eq!(writes[1], Ok(rsb_fpsm::OpResult::Write));
    assert_eq!(
        writes[2],
        Err(StoreError::BadValueLength { got: 99, want: 16 })
    );
    let reads =
        join_all(client.submit_batch(vec![BatchOp::Read("a".into()), BatchOp::Read("b".into())]));
    assert_eq!(reads[0], Ok(rsb_fpsm::OpResult::Read(va)));
    assert_eq!(reads[1], Ok(rsb_fpsm::OpResult::Read(vb)));
    server.shutdown();
}

#[test]
fn concurrent_batched_tcp_clients_record_checkable_histories() {
    let server = serve(4, ProtocolSpec::Abd, 16);
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let client: StoreClient<TcpTransport> =
                    StoreClient::over(TcpTransport::connect(addr).unwrap());
                for round in 0..5u64 {
                    // A whole write+read wave on 3 shared keys per frame.
                    let mut ops = Vec::new();
                    for i in 0..3u64 {
                        ops.push(BatchOp::Write(
                            format!("k{i}"),
                            Value::seeded(c * 1000 + round * 10 + i, 16),
                        ));
                        ops.push(BatchOp::Read(format!("k{i}")));
                    }
                    for result in join_all(client.submit_batch(ops)) {
                        result.unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let store = server.store();
    assert_eq!(store.metrics().totals().completed(), 120);
    for key in store.keys() {
        let h = store.key_history(&key).unwrap();
        let history = History::from_fpsm(h.initial, &h.records).unwrap();
        check_strong_regularity(&history)
            .expect("strong regularity of batched histories recorded through TCP");
    }
    server.shutdown();
}

#[test]
fn one_connection_shared_by_many_threads_multiplexes() {
    let server = serve(4, ProtocolSpec::Adaptive, 16);
    let client = connect(&server);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || {
                for i in 0..10u64 {
                    let key = format!("t{t}-{}", i % 2);
                    client.write_blocking(&key, Value::seeded(i, 16)).unwrap();
                    client.read_blocking(&key).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.store().metrics().totals().completed(), 160);
    server.shutdown();
}

#[test]
fn stats_scrape_crosses_the_wire_and_matches_in_process_metrics() {
    let server = serve(4, ProtocolSpec::Adaptive, 16);
    let client = connect(&server);
    for i in 0..20u64 {
        let key = format!("k{}", i % 5);
        client.write_blocking(&key, Value::seeded(i, 16)).unwrap();
        client.read_blocking(&key).unwrap();
    }
    // The server records wire time *after* writing each response, so the
    // scrape that observes our own completions may race the last wire
    // sample by a few microseconds — poll until it lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let scraped = loop {
        let m = client.stats().unwrap();
        // 40 ops + the scrapes themselves are not wire-timed (stats
        // frames bypass shard submission), so exactly 40 samples land.
        if m.wire().count() == 40 || std::time::Instant::now() > deadline {
            break m;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(scraped.totals().completed(), 40);
    assert_eq!(scraped.totals().reads_completed, 20);
    assert_eq!(scraped.totals().writes_completed, 20);
    // Phase attribution covers every completed op.
    assert_eq!(scraped.queue_wait().count(), 40);
    assert_eq!(scraped.execute().count(), 40);
    assert_eq!(scraped.end_to_end_latency().count(), 40);
    assert_eq!(scraped.wire().count(), 40);
    // The scraped snapshot equals the in-process one — byte-identical
    // decode of everything, histograms included.
    let local = server.store().metrics();
    assert_eq!(scraped, local);
    // Prometheus rendering of a remote scrape works and carries the op
    // totals.
    let text = scraped.render_prometheus();
    assert!(text.contains("rsb_store_reads_completed_total 20"));
    assert!(text.contains("rsb_store_writes_completed_total 20"));
    assert!(text.contains("rsb_store_wire_ns_count 40"));
    server.shutdown();
}

#[test]
fn stats_scrape_fails_cleanly_after_shutdown() {
    let server = serve(1, ProtocolSpec::Abd, 16);
    let client = connect(&server);
    client.stats().unwrap();
    server.shutdown();
    let err = client.stats().unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::Io(_) | StoreError::ShutDown | StoreError::Timeout
        ),
        "got {err:?}"
    );
}

#[test]
fn open_loop_load_runs_over_tcp() {
    use rsb_store::load::{run_load, LoadMode, LoadSpec};
    let server = serve(4, ProtocolSpec::Adaptive, 16);
    let client = connect(&server);
    let report = run_load(
        &client,
        &LoadSpec {
            clients: 4,
            ops_per_client: 25,
            keys: 16,
            write_fraction: 0.5,
            value_len: 16,
            seed: 3,
            mode: LoadMode::Open { rate: 5_000.0 },
            batch: 1,
        },
    );
    assert_eq!(report.ok, 100, "first error: {:?}", report.first_error);
    assert_eq!(report.errors, 0);
    server.shutdown();
}

#[test]
fn batched_load_runs_over_tcp() {
    use rsb_store::load::{run_load, LoadMode, LoadSpec};
    let server = serve(4, ProtocolSpec::Adaptive, 16);
    let client = connect(&server);
    for mode in [LoadMode::Closed, LoadMode::Open { rate: 5_000.0 }] {
        let report = run_load(
            &client,
            &LoadSpec {
                clients: 2,
                ops_per_client: 30,
                keys: 16,
                write_fraction: 0.5,
                value_len: 16,
                seed: 5,
                mode,
                batch: 8,
            },
        );
        assert_eq!(report.ok, 60, "first error: {:?}", report.first_error);
        assert_eq!(report.errors, 0);
        assert_eq!(report.latency.count(), 60);
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The caller drives its connection: no client thread, an in-order reply
// queue, a bounded pipeline.
// ---------------------------------------------------------------------------

/// A scripted server for one connection: completes the handshake, then
/// hands the socket to `serve`.
fn fake_server(
    serve: impl FnOnce(TcpStream) + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        match read_frame(&mut &stream) {
            Ok(Some(Frame::Hello { .. })) => write_frame(
                &mut &stream,
                &Frame::HelloAck {
                    version: WIRE_VERSION,
                },
            )
            .unwrap(),
            other => panic!("expected a hello, got {other:?}"),
        }
        serve(stream);
    });
    (addr, server)
}

/// Reads until the client closes, answering nothing.
fn swallow(stream: &TcpStream) {
    while let Ok(Some(_)) = read_frame(&mut &*stream) {}
}

#[cfg(target_os = "linux")]
#[test]
fn connecting_spawns_no_thread() {
    // The tests of this binary start and stop threads all the time, so
    // the count is taken in a child process that runs this test alone.
    const ALONE: &str = "RSB_TCP_TEST_ALONE";
    if std::env::var_os(ALONE).is_none() {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "connecting_spawns_no_thread", "--test-threads=1"])
            .env(ALONE, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "{stdout}");
        assert!(
            stdout.contains("1 passed"),
            "the child ran nothing: {stdout}"
        );
        return;
    }
    fn threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
        line["Threads:".len()..].trim().parse().unwrap()
    }
    // The scripted servers' threads exist before the first count, and
    // each serves its connection on the thread that accepted it.
    let servers: Vec<_> = (0..8).map(|_| fake_server(|s| swallow(&s))).collect();
    let before = threads();
    let transports: Vec<TcpTransport> = servers
        .iter()
        .map(|(addr, _)| TcpTransport::connect(addr).unwrap())
        .collect();
    assert_eq!(threads(), before, "a connection owns no thread");
    drop(transports);
    for (_, server) in servers {
        server.join().unwrap();
    }
}

#[test]
fn one_thread_pipelines_twenty_thousand_reads_then_waits_them_in_order() {
    // Far more than the connection carries unanswered: past the window
    // the submitter itself reads replies between writes, so neither side
    // ends up blocked in `write` against a peer that is not reading.
    const READS: u64 = 20_000;
    let server = serve(2, ProtocolSpec::Abd, 16);
    let client = connect(&server);
    for k in 0..4u64 {
        client
            .write_blocking(&format!("k{k}"), Value::seeded(k, 16))
            .unwrap();
    }
    let futures: Vec<_> = (0..READS)
        .map(|i| client.read(&format!("k{}", i % 4)))
        .collect();
    for (i, future) in (0..READS).zip(futures) {
        assert_eq!(future.wait().unwrap(), Value::seeded(i % 4, 16), "read {i}");
    }
    assert_eq!(server.store().metrics().totals().reads_completed, READS);
    server.shutdown();
}

#[test]
fn a_dropped_ticket_does_not_wedge_the_connection() {
    let server = serve(2, ProtocolSpec::Abd, 16);
    let client = connect(&server);
    client.write_blocking("a", Value::seeded(1, 16)).unwrap();
    // Never waited, never polled: nobody reads these replies until a
    // later caller has to read past them.
    drop(client.read("a"));
    drop(client.submit_batch(vec![
        BatchOp::Read("a".into()),
        BatchOp::Write("b".into(), Value::seeded(2, 16)),
    ]));
    assert_eq!(client.read_blocking("b").unwrap(), Value::seeded(2, 16));
    // Fire-and-forget past the window: the submitter drains the replies
    // nobody will claim, and the connection stays in step.
    for i in 0..1_000u64 {
        drop(client.write("c", Value::seeded(i, 16)));
    }
    assert_eq!(client.read_blocking("c").unwrap(), Value::seeded(999, 16));
    assert_eq!(client.transport().connection_error(), None);
    server.shutdown();
}

/// Answers every read with its own id as the value — the first one only
/// once `release` fires.
fn id_echo_server(
    release: std::sync::mpsc::Receiver<()>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    fake_server(move |stream| {
        let mut first = true;
        while let Ok(Some(Frame::ReadReq { id, .. })) = read_frame(&mut &stream) {
            if std::mem::take(&mut first) {
                release.recv().unwrap();
            }
            let value = id.to_le_bytes().to_vec();
            if write_frame(&mut &stream, &Frame::ReadResp { id, value }).is_err() {
                return;
            }
        }
    })
}

#[test]
fn after_a_timeout_a_late_reply_is_not_mistaken_for_the_next_one() {
    let (release, held) = std::sync::mpsc::channel();
    let (addr, server) = id_echo_server(held);
    let transport = TcpTransport::connect_with(addr, Some(Duration::from_millis(100))).unwrap();
    let client: StoreClient<TcpTransport> = StoreClient::over(transport);
    // The stream is idle when the deadline passes: only this operation
    // fails, the connection lives.
    assert_eq!(client.read_blocking("a").unwrap_err(), StoreError::Timeout);
    assert_eq!(client.transport().connection_error(), None);
    // Request 1's reply lands late, ahead of request 2's.
    release.send(()).unwrap();
    let second = client.read_blocking("b").unwrap();
    assert_eq!(second.as_bytes(), 2u64.to_le_bytes());
    let third = client.read_blocking("c").unwrap();
    assert_eq!(third.as_bytes(), 3u64.to_le_bytes());
    drop(client);
    server.join().unwrap();
}

#[test]
fn a_full_pipeline_on_a_mute_server_times_the_submitter_out() {
    // Long next to a submission that finds room (microseconds), so the one
    // that does not stands out even on a stalling host.
    const TIMEOUT: Duration = Duration::from_millis(300);
    let (addr, server) = fake_server(|s| swallow(&s));
    let client: StoreClient<TcpTransport> =
        StoreClient::over(TcpTransport::connect_with(addr, Some(TIMEOUT)).unwrap());
    // Nothing is ever answered, so reading makes no room: once the window
    // is full a submission spends the timeout looking for some and comes
    // back already failed, instead of hanging or piling up for ever.
    let mut in_flight = Vec::new();
    let refused = loop {
        assert!(in_flight.len() < 100_000, "the pipeline has no bound");
        let started = std::time::Instant::now();
        let future = client.read("k");
        if started.elapsed() >= TIMEOUT {
            break future;
        }
        in_flight.push(future);
    };
    let started = std::time::Instant::now();
    assert_eq!(refused.wait().unwrap_err(), StoreError::Timeout);
    assert!(
        started.elapsed() < TIMEOUT / 2,
        "the refused submission was failed at submission, not waited for"
    );
    // The stream was idle all along, so the connection is still good.
    assert_eq!(client.transport().connection_error(), None);
    drop(in_flight);
    drop(client);
    server.join().unwrap();
}

#[test]
fn the_servers_parting_error_reaches_everything_in_flight() {
    // What a real server sends before closing a connection whose stream
    // it can no longer follow: an error frame tied to no request.
    let parting = || StoreError::Decode("frame length 4294967295 exceeds the bound".into());
    let (addr, server) = fake_server(move |stream| {
        for _ in 0..2 {
            assert!(matches!(
                read_frame(&mut &stream),
                Ok(Some(Frame::ReadReq { .. }))
            ));
        }
        let error = parting();
        write_frame(&mut &stream, &Frame::ErrorResp { id: 0, error }).unwrap();
    });
    let client: StoreClient<TcpTransport> = StoreClient::over(TcpTransport::connect(addr).unwrap());
    let (first, second) = (client.read("a"), client.read("b"));
    assert_eq!(second.wait().unwrap_err(), parting());
    assert_eq!(first.wait().unwrap_err(), parting());
    assert_eq!(client.transport().connection_error(), Some(parting()));
    assert_eq!(client.read_blocking("c").unwrap_err(), parting());
    server.join().unwrap();
}

#[test]
fn a_reply_out_of_turn_ends_the_connection_with_a_decode_error() {
    let (addr, server) = fake_server(|stream| {
        let Ok(Some(Frame::ReadReq { id, .. })) = read_frame(&mut &stream) else {
            panic!("expected a read request");
        };
        // Not the oldest unanswered request's id.
        let reply = Frame::ReadResp {
            id: id + 1,
            value: vec![0; 16],
        };
        write_frame(&mut &stream, &reply).unwrap();
        swallow(&stream);
    });
    let client: StoreClient<TcpTransport> = StoreClient::over(TcpTransport::connect(addr).unwrap());
    let err = client.read_blocking("a").unwrap_err();
    assert!(
        matches!(&err, StoreError::Decode(msg) if msg.contains("oldest unanswered")),
        "got {err:?}"
    );
    assert_eq!(client.transport().connection_error(), Some(err.clone()));
    assert_eq!(client.read_blocking("b").unwrap_err(), err);
    drop(client);
    server.join().unwrap();
}

#[test]
fn three_batches_back_to_back_resolve_through_join_all() {
    let server = serve(4, ProtocolSpec::Adaptive, 16);
    let client = connect(&server);
    // All three frames are on the wire before anything is read; one
    // thread then polls 9 futures whose replies arrive as 3 frames. Each
    // batch reads what the batch before it wrote (the server runs a
    // connection's frames in order).
    let mut futures = Vec::new();
    for round in 1..=3u64 {
        futures.extend(client.submit_batch(vec![
            BatchOp::Write(format!("k{round}"), Value::seeded(round, 16)),
            BatchOp::Read(format!("k{}", round - 1)),
            BatchOp::Write("bad".into(), Value::seeded(round, 99)),
        ]));
    }
    let results = join_all(futures);
    for (round, chunk) in (1..=3u64).zip(results.chunks(3)) {
        let before = if round == 1 {
            Value::zeroed(16)
        } else {
            Value::seeded(round - 1, 16)
        };
        assert_eq!(chunk[0], Ok(rsb_fpsm::OpResult::Write));
        assert_eq!(chunk[1], Ok(rsb_fpsm::OpResult::Read(before)));
        assert_eq!(
            chunk[2],
            Err(StoreError::BadValueLength { got: 99, want: 16 })
        );
    }
    server.shutdown();
}

#[test]
fn a_polled_future_and_a_blocking_waiter_share_one_connection() {
    let server = serve(4, ProtocolSpec::Abd, 16);
    let client = connect(&server);
    client.write_blocking("a", Value::seeded(1, 16)).unwrap();
    client.write_blocking("b", Value::seeded(2, 16)).unwrap();
    // Whichever of the two finds nobody reading reads for both; the
    // other sleeps, or leaves its waker and parks.
    std::thread::scope(|scope| {
        let blocking = scope.spawn(|| {
            for _ in 0..500 {
                assert_eq!(client.read("a").wait().unwrap(), Value::seeded(1, 16));
            }
        });
        for _ in 0..500 {
            assert_eq!(block_on(client.read("b")).unwrap(), Value::seeded(2, 16));
        }
        blocking.join().unwrap();
    });
    assert_eq!(server.store().metrics().totals().reads_completed, 1_000);
    server.shutdown();
}

#[test]
fn dropping_the_transport_fails_outstanding_tickets_with_io() {
    let (addr, server) = fake_server(|s| swallow(&s));
    let client: StoreClient<TcpTransport> = StoreClient::over(TcpTransport::connect(addr).unwrap());
    let (held, waited) = (client.read("a"), client.read("b"));
    let is_io = |r: Result<Value, StoreError>| matches!(r, Err(StoreError::Io(_)));
    std::thread::scope(|scope| {
        // One ticket is being waited on — its thread is inside `read` —
        // when the transport goes; the other is looked at only afterwards.
        let waiter = scope.spawn(|| waited.wait());
        std::thread::sleep(Duration::from_millis(50));
        drop(client);
        assert!(is_io(waiter.join().unwrap()));
    });
    assert!(is_io(held.wait()));
    server.join().unwrap();
}
