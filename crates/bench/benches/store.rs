//! B4 — store microbenchmarks: end-to-end operation cost through the
//! sharded service (submit → key lock → drain → result),
//! uniform and hot-key shapes, plus the transport layer — the wire-frame
//! codec and a full TCP round-trip — so the bench-regression gate covers
//! the store execution path and the networked client surface alongside
//! the codec and protocol benches. (`store_write_read` goes through the
//! [`Loopback`] transport: it *is* the loopback round-trip bench.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::frame::{encode_frame, read_frame, Frame};
use rsb_store::{
    BatchOp, HistoryPolicy, ListenSpec, ProtocolSpec, Store, StoreClient, StoreConfig, TcpTransport,
};

const VALUE_LEN: usize = 64;

fn store(shards: usize, policy: HistoryPolicy) -> Store {
    let reg = RegisterConfig::paper(1, 2, VALUE_LEN).unwrap();
    Store::start(StoreConfig::uniform(shards, ProtocolSpec::Abd, reg).with_history(policy)).unwrap()
}

fn bench_store_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_write_read");
    group.throughput(Throughput::Elements(2));
    for shards in [1usize, 4] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("{shards}shards")),
            |b| {
                let store = store(shards, HistoryPolicy::TruncateAfter(256));
                let client = store.client();
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    let key = format!("k{:03}", i % 64);
                    client
                        .write_blocking(&key, Value::seeded(i, VALUE_LEN))
                        .unwrap();
                    assert_eq!(client.read_blocking(&key).unwrap().len(), VALUE_LEN);
                });
                store.shutdown();
            },
        );
    }
    group.finish();
}

fn bench_hot_key_pipelined(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_hot_key_pipelined");
    group.sample_size(20);
    group.throughput(Throughput::Elements(16));
    group.bench_function("4shards_16deep", |b| {
        let store = store(4, HistoryPolicy::TruncateAfter(256));
        let client = store.client();
        let mut i = 0u64;
        b.iter(|| {
            let writes: Vec<_> = (0..16u64)
                .map(|j| {
                    i += 1;
                    client.write("hot", Value::seeded(i * 100 + j, VALUE_LEN))
                })
                .collect();
            for out in rsb_store::join_all(writes) {
                out.unwrap();
            }
        });
        store.shutdown();
    });
    group.finish();
}

/// Grouped submission through the loopback transport: one
/// `submit_batch` call carries `batch` write ops (one shard-map lock
/// hold per shard bucket, one key-lock hold per key group), and the
/// client joins the whole group. The size sweep shows where the per-op
/// submission overhead stops dominating.
fn bench_batched_submission(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_batched_submission");
    group.sample_size(20);
    for batch in [1usize, 4, 16, 64] {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_function(BenchmarkId::from_parameter(format!("b{batch}")), |b| {
            let store = store(4, HistoryPolicy::TruncateAfter(256));
            let client = store.client();
            let mut i = 0u64;
            b.iter(|| {
                let ops: Vec<BatchOp> = (0..batch as u64)
                    .map(|j| {
                        i += 1;
                        BatchOp::Write(
                            format!("k{:03}", (i + j) % 64),
                            Value::seeded(i * 100 + j, VALUE_LEN),
                        )
                    })
                    .collect();
                for fut in client.submit_batch(ops) {
                    fut.wait().unwrap();
                }
            });
            store.shutdown();
        });
    }
    group.finish();
}

/// Pure codec cost of the busiest frame on the wire: encode + length-
/// prefixed decode of a `WriteReq` carrying a bench-sized value.
fn bench_frame_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_frame_codec");
    let frame = Frame::WriteReq {
        id: 42,
        key: "k000042".into(),
        value: Value::seeded(7, VALUE_LEN).as_bytes().to_vec(),
    };
    let mut encoded = Vec::new();
    encode_frame(&frame, &mut encoded);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("write_req_64b", |b| {
        let mut buf = Vec::with_capacity(encoded.len());
        b.iter(|| {
            buf.clear();
            encode_frame(&frame, &mut buf);
            let decoded = read_frame(&mut buf.as_slice()).unwrap().unwrap();
            assert!(matches!(decoded, Frame::WriteReq { id: 42, .. }));
        });
    });
    group.finish();
}

/// The same write+read pair as `store_write_read`, but through a real
/// socket on 127.0.0.1 — the gate watches the whole wire path (frame
/// encode, kernel round-trip, the caller's own read of the reply).
fn bench_tcp_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_tcp_roundtrip");
    group.sample_size(20);
    group.throughput(Throughput::Elements(2));
    group.bench_function("4shards_localhost", |b| {
        let reg = RegisterConfig::paper(1, 2, VALUE_LEN).unwrap();
        let config = StoreConfig::uniform(4, ProtocolSpec::Abd, reg)
            .with_history(HistoryPolicy::TruncateAfter(256))
            .with_listen(ListenSpec::new("127.0.0.1:0"));
        let server = Store::serve(config).unwrap();
        let client: StoreClient<TcpTransport> =
            StoreClient::over(TcpTransport::connect(server.local_addr()).unwrap());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("k{:03}", i % 64);
            client
                .write_blocking(&key, Value::seeded(i, VALUE_LEN))
                .unwrap();
            assert_eq!(client.read_blocking(&key).unwrap().len(), VALUE_LEN);
        });
        drop(client);
        server.shutdown();
    });
    group.finish();
}

/// The metrics exposition path: a full `StatsResp` scrape over a real
/// socket (snapshot every shard, encode histograms, decode + re-validate
/// bucket bounds client-side), on a store warmed with enough traffic to
/// populate all six histograms. Scrapes run concurrently with load in
/// production, so their cost bounds the monitoring tax.
fn bench_stats_scrape(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_stats_scrape");
    group.sample_size(20);
    let reg = RegisterConfig::paper(1, 2, VALUE_LEN).unwrap();
    let config = StoreConfig::uniform(4, ProtocolSpec::Abd, reg)
        .with_history(HistoryPolicy::TruncateAfter(256))
        .with_listen(ListenSpec::new("127.0.0.1:0"));
    let server = Store::serve(config).unwrap();
    let client: StoreClient<TcpTransport> =
        StoreClient::over(TcpTransport::connect(server.local_addr()).unwrap());
    for i in 0..256u64 {
        let key = format!("k{:03}", i % 64);
        client
            .write_blocking(&key, Value::seeded(i, VALUE_LEN))
            .unwrap();
        client.read_blocking(&key).unwrap();
    }
    group.bench_function("4shards_localhost", |b| {
        b.iter(|| {
            let m = client.stats().unwrap();
            assert_eq!(m.totals().completed(), 512);
        });
    });
    group.bench_function("render_prometheus", |b| {
        let m = client.stats().unwrap();
        b.iter(|| {
            assert!(m.render_prometheus().len() > 512);
        });
    });
    drop(client);
    server.shutdown();
    group.finish();
}

criterion_group!(
    benches,
    bench_store_roundtrip,
    bench_hot_key_pipelined,
    bench_batched_submission,
    bench_frame_codec,
    bench_tcp_roundtrip,
    bench_stats_scrape
);
criterion_main!(benches);
