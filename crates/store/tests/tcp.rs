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
