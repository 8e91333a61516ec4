//! The traced pass: a replay of the workload with spans around every
//! call the generator makes, then single-threaded probes that time calls
//! into each layer's public functions. The per-layer metrics and the
//! budget table are computed from the recorded spans.
//!
//! The staircase, bottom up: `coding` (kernels and the RS codec) →
//! `registers`/`fpsm` (protocol logic stepped on a bare simulation) →
//! `store` (the same ops through an uncontended loopback client) →
//! `frame` (the wire codec) → `tcp` (the same ops over one connection,
//! against the benchmark's own echo floor). Each step's self time is the
//! step minus the one below it.

use crate::gen::{Op, Plan, POOL};
use crate::run::{self, Connect, Pending, Rig};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workload::Workload;
use crate::{Metric, Outcome};
use rsb_coding::{gf256, Code, Value};
use rsb_fpsm::{ClientId, ClientLogic, ObjectState, OpRequest, OpResult, Simulation};
use rsb_registers::{Abd, Adaptive, Coded, RegisterProtocol};
use rsb_store::frame::{self, Frame, WireOp, WireOpResult};
use rsb_store::{join_all, BatchOp, Loopback, ProtocolSpec, TcpTransport};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Spans each generator thread may record during the traced replay.
const REPLAY_SPANS: usize = 800_000;
/// Untraced-then-traced rounds the replay is cut into.
const REPLAY_ROUNDS: usize = 8;
/// Spans the probes may record in total.
const PROBE_SPANS: usize = 200_000;
/// How long one probe keeps timing calls, and how many it times at most.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
const PROBE_CALLS: usize = 4000;
/// Calls folded into one span where a single call is too short to time.
const REPS: u64 = 256;
/// The open-loop probe's fixed offered rate, ops per second.
const OPEN_RATE: f64 = 8000.0;
/// A derived self time may fall this share of its minuend below zero
/// before it is reported as a broken budget.
const NOISE: f64 = 0.10;

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 45] = [
    "coding.memcpy_gbps",
    "coding.mul_acc_gbps",
    "coding.encode_ns",
    "coding.encode_gbps",
    "coding.decode_ns",
    "coding.decode_gbps",
    "registers.write_ns",
    "registers.read_ns",
    "registers.events_per_write",
    "registers.events_per_read",
    "registers.ns_per_event",
    "registers.noncoding_write_ns",
    "registers.noncoding_read_ns",
    "fpsm.storage_cost_ns",
    "fpsm.first_enabled_ns",
    "store.loopback_write_ns",
    "store.loopback_read_ns",
    "store.submit_ns",
    "store.wait_ns",
    "store.batch16_ns_per_op",
    "store.self_write_ns",
    "store.self_read_ns",
    "store.queue_wait_p50_us",
    "store.queue_wait_p99_us",
    "store.execute_p50_us",
    "store.execute_p99_us",
    "store.live_records",
    "frame.encode_req_ns",
    "frame.decode_req_ns",
    "frame.encode_resp_ns",
    "frame.decode_resp_ns",
    "frame.bytes_per_op",
    "tcp.echo_rtt_ns",
    "tcp.write_ns",
    "tcp.read_ns",
    "tcp.batch16_ns_per_op",
    "tcp.self_ns",
    "tcp.threads",
    "server.wire_p50_us",
    "server.wire_p99_us",
    "gen.next_op_ns",
    "trace.overhead_ratio",
    "open.p50_us",
    "open.p99_us",
    "open.late_p99_us",
];

pub fn out_dir(w: &Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(w.name)
}

/// Times `call` (after an untimed `prep`) in one span per call until the
/// probe budget is spent; `weight` is how many units of work one call
/// does, so `Tracer::ns_per_call` yields the cost of one unit.
fn probe<X>(
    tr: &mut Tracer,
    name: &'static str,
    weight: u64,
    mut prep: impl FnMut() -> X,
    mut call: impl FnMut(X),
) {
    let deadline = Instant::now() + PROBE_BUDGET;
    let mut spans = 0;
    while spans < 16 || (spans < PROBE_CALLS && Instant::now() < deadline) {
        let input = prep();
        let start = Instant::now();
        call(input);
        let end = Instant::now();
        tr.record(name, start, end, 0, weight);
        spans += 1;
    }
}

/// `coding`: the memcpy floor, the multi-row kernel, RS encode and decode
/// at this workload's `(n, k)` and value length.
struct Coding {
    memcpy_gbps: f64,
    mul_acc_gbps: f64,
    encode_ns: f64,
    decode_ns: f64,
}

fn coding_probes(w: &Workload, tr: &mut Tracer, value: &Value) -> Coding {
    let len = w.value_len;
    let src = value.as_bytes().to_vec();
    let mut dst = vec![0u8; len];
    probe(
        tr,
        "coding.memcpy",
        REPS,
        || (),
        |()| {
            for _ in 0..REPS {
                dst.copy_from_slice(black_box(&src));
                black_box(&mut dst);
            }
        },
    );
    let memcpy_gbps = len as f64 / tr.ns_per_call("coding.memcpy");
    if w.protocol == ProtocolSpec::Abd {
        // Replication: the protocol never calls the codec.
        return Coding {
            memcpy_gbps,
            mul_acc_gbps: 0.0,
            encode_ns: 0.0,
            decode_ns: 0.0,
        };
    }
    let code = w
        .register()
        .code()
        .expect("valid register parameters give a code");

    let shard = &src[..code.shard_len()];
    let mut rows = vec![vec![0u8; shard.len()]; w.n - w.k];
    let coeffs: Vec<u8> = (0..rows.len()).map(|r| 2 + r as u8).collect();
    let mut dsts: Vec<&mut [u8]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
    probe(
        tr,
        "coding.mul_acc",
        REPS,
        || (),
        |()| {
            for _ in 0..REPS {
                gf256::mul_acc_multi(&mut dsts, black_box(shard), &coeffs);
            }
        },
    );
    let mul_acc_bytes = (shard.len() * coeffs.len()) as f64;

    probe(
        tr,
        "coding.encode",
        1,
        || (),
        |()| {
            black_box(code.encode(black_box(value)));
        },
    );
    // k blocks with the first systematic one replaced by a parity block.
    let blocks = code.encode(value);
    let subset = &blocks[1..=w.k];
    assert_eq!(
        &code.decode(subset).expect("k blocks decode"),
        value,
        "decode returns the encoded value"
    );
    probe(
        tr,
        "coding.decode",
        1,
        || (),
        |()| {
            black_box(code.decode(black_box(subset)).expect("k blocks decode"));
        },
    );
    Coding {
        memcpy_gbps,
        mul_acc_gbps: mul_acc_bytes / tr.ns_per_call("coding.mul_acc"),
        encode_ns: tr.ns_per_call("coding.encode"),
        decode_ns: tr.ns_per_call("coding.decode"),
    }
}

/// `registers` and `fpsm`: one write and one read stepped to quiescence
/// on a bare simulation, the way a shard driver steps them.
pub struct SimCosts {
    write_ns: f64,
    read_ns: f64,
    pub events_per_write: u64,
    pub events_per_read: u64,
    storage_cost_ns: f64,
    first_enabled_ns: f64,
}

/// Invokes one operation and steps every enabled event, stragglers
/// included; returns the event count and the result.
fn run_op<S: ObjectState, L: ClientLogic<State = S>>(
    sim: &mut Simulation<S, L>,
    client: ClientId,
    request: OpRequest,
) -> (u64, Option<OpResult>) {
    let op = sim.invoke(client, request).expect("the client is idle");
    let mut events = 0;
    while let Some(event) = sim.first_enabled_event() {
        sim.step(event).expect("an enabled event steps");
        events += 1;
    }
    (events, sim.op_record(op).result.clone())
}

fn sim_probes<P: RegisterProtocol>(proto: &P, tr: &mut Tracer, pool: &[Value]) -> SimCosts {
    let mut sim = proto.new_sim();
    let writer = proto.add_client(&mut sim);
    let reader = proto.add_client(&mut sim);
    let (events_per_write, _) = run_op(&mut sim, writer, OpRequest::Write(pool[0].clone()));
    let (events_per_read, read) = run_op(&mut sim, reader, OpRequest::Read);
    assert_eq!(
        read,
        Some(OpResult::Read(pool[0].clone())),
        "a read after a write returns it"
    );
    let mut next = 0;
    let mut next_value = || {
        next += 1;
        pool[next % POOL].clone()
    };
    // The store compacts a key's history past 16 records on the same
    // path, so the probe does too.
    let compact = |sim: &mut Simulation<P::Object, P::Client>| {
        if sim.live_records() > 16 {
            sim.compact_history();
        }
    };
    probe(tr, "registers.write", 1, &mut next_value, |value| {
        let (events, _) = run_op(&mut sim, writer, OpRequest::Write(value));
        assert_eq!(events, events_per_write, "events per write repeat exactly");
        compact(&mut sim);
    });
    probe(
        tr,
        "registers.read",
        1,
        || (),
        |()| {
            let (events, _) = run_op(&mut sim, reader, OpRequest::Read);
            assert_eq!(events, events_per_read, "events per read repeat exactly");
            compact(&mut sim);
        },
    );
    probe(
        tr,
        "fpsm.storage_cost",
        REPS,
        || (),
        |()| {
            for _ in 0..REPS {
                black_box(black_box(&sim).storage_cost());
            }
        },
    );
    // With a write's RMWs triggered and none applied yet.
    sim.invoke(writer, OpRequest::Write(next_value()))
        .expect("the writer is idle");
    probe(
        tr,
        "fpsm.first_enabled",
        REPS,
        || (),
        |()| {
            for _ in 0..REPS {
                black_box(black_box(&sim).first_enabled_event());
            }
        },
    );
    SimCosts {
        write_ns: tr.ns_per_call("registers.write"),
        read_ns: tr.ns_per_call("registers.read"),
        events_per_write,
        events_per_read,
        storage_cost_ns: tr.ns_per_call("fpsm.storage_cost"),
        first_enabled_ns: tr.ns_per_call("fpsm.first_enabled"),
    }
}

pub fn sim_probes_for(w: &Workload, tr: &mut Tracer, pool: &[Value]) -> SimCosts {
    let cfg = w.register();
    match w.protocol {
        ProtocolSpec::Abd => sim_probes(&Abd::new(cfg), tr, pool),
        ProtocolSpec::Coded => sim_probes(&Coded::new(cfg), tr, pool),
        ProtocolSpec::Adaptive => sim_probes(&Adaptive::new(cfg), tr, pool),
        other => panic!("no workload runs {other}"),
    }
}

/// Span names for the client probes, which run once over loopback
/// (`store`) and once over one TCP connection (`tcp`).
struct ClientNames {
    write: &'static str,
    submit: &'static str,
    wait: &'static str,
    read: &'static str,
    batch: &'static str,
}

const STORE: ClientNames = ClientNames {
    write: "store.loopback_write",
    submit: "store.submit",
    wait: "store.wait",
    read: "store.loopback_read",
    batch: "store.batch16",
};

const TCP: ClientNames = ClientNames {
    write: "tcp.write",
    submit: "tcp.submit",
    wait: "tcp.wait",
    read: "tcp.read",
    batch: "tcp.batch16",
};

/// Per-op costs seen by one uncontended client.
struct ClientCosts {
    write_ns: f64,
    submit_ns: f64,
    wait_ns: f64,
    read_ns: f64,
    batch16_ns_per_op: f64,
}

impl ClientCosts {
    /// The cost of one op submitted the way the workload submits.
    fn shaped(&self, w: &Workload) -> f64 {
        if w.batch == 1 {
            (self.write_ns + self.read_ns) / 2.0
        } else {
            self.batch16_ns_per_op
        }
    }
}

fn client_probes<T: Connect>(
    w: &Workload,
    seed: u64,
    tr: &mut Tracer,
    names: &ClientNames,
) -> ClientCosts {
    let rig = Rig::<T>::setup(w, seed);
    let (client, plan) = (&rig.clients[0], &rig.plan);
    let mut cursor = plan.cursor(0);

    let deadline = Instant::now() + PROBE_BUDGET;
    for _ in 0..PROBE_CALLS {
        if Instant::now() >= deadline {
            break;
        }
        let key = cursor.next_op().key;
        let value = plan.next_value(0, key);
        let start = Instant::now();
        let future = client.write(&plan.keys[key as usize], value);
        let submitted = Instant::now();
        future.wait().expect("probe write");
        let done = Instant::now();
        let whole = tr.record(names.write, start, done, 0, 1);
        tr.record(names.submit, start, submitted, whole, 1);
        tr.record(names.wait, submitted, done, whole, 1);
    }
    probe(
        tr,
        names.read,
        1,
        || cursor.next_op().key,
        |key| {
            let value = client
                .read_blocking(&plan.keys[key as usize])
                .expect("probe read");
            assert!(plan.is_written_to(key, &value), "probe read is correct");
        },
    );
    const BATCH: usize = 16;
    probe(
        tr,
        names.batch,
        BATCH as u64,
        || -> Vec<BatchOp> {
            (0..BATCH)
                .map(|_| plan.batch_op(0, cursor.next_op()))
                .collect()
        },
        |ops| {
            for result in join_all(client.submit_batch(ops)) {
                result.expect("probe batch op");
            }
        },
    );
    rig.teardown();
    ClientCosts {
        write_ns: tr.ns_per_call(names.write),
        submit_ns: tr.ns_per_call(names.submit),
        wait_ns: tr.ns_per_call(names.wait),
        read_ns: tr.ns_per_call(names.read),
        batch16_ns_per_op: tr.ns_per_call(names.batch),
    }
}

/// `frame`: encoding and decoding the frames one op of this workload
/// puts on the wire, and their exact size.
#[derive(Debug, PartialEq)]
pub struct FrameCosts {
    encode_req_ns: f64,
    decode_req_ns: f64,
    encode_resp_ns: f64,
    decode_resp_ns: f64,
    pub bytes_per_op: f64,
    /// `(request bytes, response bytes)` of each round trip in the mix.
    round_trips: Vec<(usize, usize)>,
    ops_per_round_trip: usize,
}

fn encoded(frames: &[Frame]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|f| {
            let mut buf = Vec::new();
            frame::encode_frame(f, &mut buf);
            buf
        })
        .collect()
}

pub fn frame_probes(w: &Workload, tr: &mut Tracer, plan: &Plan) -> FrameCosts {
    let key = plan.keys[0].clone();
    let value = plan.next_value(0, 0).as_bytes().to_vec();
    // The 50 % write mix: per op, half a write round trip and half a read
    // round trip; a batch carries 8 of each.
    let (requests, responses, ops) = if w.batch == 1 {
        (
            vec![
                Frame::WriteReq {
                    id: 7,
                    key: key.clone(),
                    value: value.clone(),
                },
                Frame::ReadReq { id: 8, key },
            ],
            vec![Frame::WriteResp { id: 7 }, Frame::ReadResp { id: 8, value }],
            2,
        )
    } else {
        let wire_ops: Vec<WireOp> = (0..w.batch)
            .map(|i| {
                if i % 2 == 0 {
                    WireOp::Write(key.clone(), value.clone())
                } else {
                    WireOp::Read(key.clone())
                }
            })
            .collect();
        let results: Vec<WireOpResult> = (0..w.batch)
            .map(|i| Ok((i % 2 == 1).then(|| value.clone())))
            .collect();
        (
            vec![Frame::BatchReq {
                id: 7,
                ops: wire_ops,
            }],
            vec![Frame::BatchResp { id: 7, results }],
            w.batch,
        )
    };
    let request_bytes = encoded(&requests);
    let response_bytes = encoded(&responses);
    let weight = ops as u64;
    for (name, frames) in [
        ("frame.encode_req", &requests),
        ("frame.encode_resp", &responses),
    ] {
        let mut buf = Vec::with_capacity(1 << 16);
        probe(
            tr,
            name,
            weight,
            || (),
            |()| {
                for f in frames {
                    buf.clear();
                    frame::encode_frame(black_box(f), &mut buf);
                    black_box(&buf);
                }
            },
        );
    }
    for (name, wire) in [
        ("frame.decode_req", &request_bytes),
        ("frame.decode_resp", &response_bytes),
    ] {
        probe(
            tr,
            name,
            weight,
            || (),
            |()| {
                for bytes in wire {
                    // The payload the length prefix counted.
                    black_box(frame::decode_payload(black_box(&bytes[4..])).expect("own frame"));
                }
            },
        );
    }
    let total: usize = request_bytes
        .iter()
        .chain(&response_bytes)
        .map(Vec::len)
        .sum();
    FrameCosts {
        encode_req_ns: tr.ns_per_call("frame.encode_req"),
        decode_req_ns: tr.ns_per_call("frame.decode_req"),
        encode_resp_ns: tr.ns_per_call("frame.encode_resp"),
        decode_resp_ns: tr.ns_per_call("frame.decode_resp"),
        bytes_per_op: total as f64 / ops as f64,
        round_trips: request_bytes
            .iter()
            .zip(&response_bytes)
            .map(|(q, p)| (q.len(), p.len()))
            .collect(),
        ops_per_round_trip: ops / requests.len(),
    }
}

impl FrameCosts {
    fn codec_ns(&self) -> f64 {
        self.encode_req_ns + self.decode_req_ns + self.encode_resp_ns + self.decode_resp_ns
    }
}

/// The floor under `tcp`: the benchmark's own two-thread echo of
/// request- and response-sized buffers over a `TCP_NODELAY` loopback
/// connection. Returns ns per op.
fn echo_probe(tr: &mut Tracer, frames: &FrameCosts) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding the echo listener");
    let addr = listener.local_addr().expect("echo address");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("echo accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut buf = vec![0u8; 1 << 20];
        // Each request starts with its own length and the reply's.
        let mut header = [0u8; 8];
        while stream.read_exact(&mut header).is_ok() {
            let request = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
            let reply = u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) as usize;
            stream
                .read_exact(&mut buf[..request - header.len()])
                .expect("echo request body");
            stream.write_all(&buf[..reply]).expect("echo reply");
        }
    });
    let mut stream = TcpStream::connect(addr).expect("echo connect");
    stream.set_nodelay(true).expect("nodelay");
    let requests: Vec<Vec<u8>> = frames
        .round_trips
        .iter()
        .map(|&(request, reply)| {
            let len = request.max(8);
            let mut buf = vec![0u8; len];
            buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
            buf[4..8].copy_from_slice(&(reply as u32).to_le_bytes());
            buf
        })
        .collect();
    let mut reply = vec![0u8; 1 << 20];
    let ops = (frames.round_trips.len() * frames.ops_per_round_trip) as u64;
    probe(
        tr,
        "tcp.echo_rtt",
        ops,
        || (),
        |()| {
            for (request, &(_, reply_len)) in requests.iter().zip(&frames.round_trips) {
                stream.write_all(request).expect("echo send");
                stream
                    .read_exact(&mut reply[..reply_len])
                    .expect("echo receive");
            }
        },
    );
    drop(stream);
    server.join().expect("echo thread");
    tr.ns_per_call("tcp.echo_rtt")
}

/// `bench`: what one op costs the generator itself.
fn generator_probe(w: &Workload, tr: &mut Tracer, plan: &Plan) -> f64 {
    let mut cursor = plan.cursor(1);
    probe(
        tr,
        "gen.next_op",
        REPS,
        || (),
        |()| {
            for _ in 0..REPS {
                let op = cursor.next_op();
                let key = &plan.keys[op.key as usize];
                if w.batch > 1 {
                    black_box(key.clone());
                }
                if op.write {
                    black_box(plan.next_value(1, op.key));
                }
                black_box(key);
            }
        },
    );
    tr.ns_per_call("gen.next_op")
}

/// The open-loop probe: ops sent on a fixed schedule whatever the
/// replies do, latency counted from the *scheduled* send so a stall
/// charges every op it delays. Diagnostic only: ten runnable threads on
/// two cores do not repeat within a tenth.
struct OpenLoop {
    p50_us: f64,
    p99_us: f64,
    late_p99_us: f64,
}

fn open_loop(w: &Workload, seed: u64, seconds: f64) -> OpenLoop {
    let rig = Rig::<TcpTransport>::setup(w, seed);
    let interval = Duration::from_secs_f64(rig.clients.len() as f64 / OPEN_RATE);
    let per_thread = (seconds / interval.as_secs_f64()) as u32;
    let start = Instant::now() + Duration::from_millis(5);
    let (mut latency, mut late): (Vec<u32>, Vec<u32>) = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter()
            .enumerate()
            .map(|(thread, client)| {
                let plan = &rig.plan;
                scope.spawn(move || {
                    // The sender never waits for a reply; a collector
                    // resolves the futures in send order.
                    let (tx, rx) = std::sync::mpsc::channel::<(Instant, Op, Pending)>();
                    let collector = scope.spawn(move || {
                        rx.iter()
                            .map(|(due, op, pending)| {
                                assert!(pending.wait_correct(plan, op), "open-loop op");
                                (Instant::now() - due).as_nanos() as u32
                            })
                            .collect::<Vec<u32>>()
                    });
                    let mut cursor = plan.cursor(thread);
                    let mut late = Vec::with_capacity(per_thread as usize);
                    for i in 0..per_thread {
                        let due = start + interval * i + interval / 2 * thread as u32;
                        let wait = due.saturating_duration_since(Instant::now());
                        if wait > Duration::from_micros(100) {
                            std::thread::sleep(wait - Duration::from_micros(80));
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let op = cursor.next_op();
                        let value = op.write.then(|| plan.next_value(thread, op.key));
                        let pending = Pending::submit(plan, client, op, value);
                        late.push((Instant::now() - due).as_nanos() as u32);
                        tx.send((due, op, pending)).expect("collector is alive");
                    }
                    drop(tx);
                    (collector.join().expect("collector thread"), late)
                })
            })
            .collect();
        let mut latency = Vec::new();
        let mut late = Vec::new();
        for h in handles {
            let (l, g) = h.join().expect("open-loop sender");
            latency.extend(l);
            late.extend(g);
        }
        (latency, late)
    });
    rig.teardown();
    latency.sort_unstable();
    late.sort_unstable();
    let us = |sorted: &[u32], p| f64::from(stats::percentile(sorted, p).unwrap_or(0)) / 1e3;
    OpenLoop {
        p50_us: us(&latency, 0.5),
        p99_us: us(&latency, 0.99),
        late_p99_us: us(&late, 0.99),
    }
}

/// One row of the budget table.
struct BudgetRow {
    layer: &'static str,
    self_ns: f64,
    floor: String,
}

/// The traced pass for one workload.
pub fn per_layer<T: Connect>(w: &'static Workload, seed: u64, seconds: f64) -> Outcome {
    let epoch = Instant::now();
    let replay_s = seconds / 4.0;

    // The 2-thread replay on one rig: untraced and traced phases
    // alternate, so a drift of the machine falls on both alike.
    let rig = Rig::<T>::setup(w, seed);
    let (fixed_ops, fixed_failures) = run::fixed_phase(w, &rig);
    let phase_s = replay_s / REPLAY_ROUNDS as f64;
    let mut untraced = Vec::new();
    let mut traced_runs = Vec::new();
    for _ in 0..REPLAY_ROUNDS {
        untraced.push(run::timed_phase(w, &rig, phase_s, None).reduce());
        let spans = Some((epoch, REPLAY_SPANS / REPLAY_ROUNDS));
        traced_runs.push(run::timed_phase(w, &rig, phase_s, spans));
    }
    let traced: Vec<run::Reduced> = traced_runs.iter().map(run::Timed::reduce).collect();
    let kops = |phases: &[run::Reduced]| {
        phases.iter().map(|r| r.throughput_kops).sum::<f64>() / phases.len() as f64
    };
    let (untraced_kops, traced_kops) = (kops(&untraced), kops(&traced));
    let scraped = rig.clients[0].stats().expect("scraping stats");
    run::quiesce(rig.service.store());
    let (checked, check_failures) = run::verify(&rig);
    rig.teardown();

    // The probes, single-threaded.
    let mut tr = Tracer::new(epoch, PROBE_SPANS);
    let plan = w.plan(seed);
    let pool: Vec<Value> = (0..POOL).map(|_| plan.next_value(0, 0)).collect();
    let coding = coding_probes(w, &mut tr, &pool[0]);
    let sim = sim_probes_for(w, &mut tr, &pool);
    let store = client_probes::<Loopback>(w, seed, &mut tr, &STORE);
    let gen_next_op_ns = generator_probe(w, &mut tr, &plan);
    let wire = w.tcp.then(|| {
        let frames = frame_probes(w, &mut tr, &plan);
        let echo_ns = echo_probe(&mut tr, &frames);
        let tcp = client_probes::<TcpTransport>(w, seed, &mut tr, &TCP);
        (frames, echo_ns, tcp)
    });
    // Only where one op is one round trip does a send schedule mean a rate.
    let open = (w.tcp && w.batch == 1).then(|| open_loop(w, seed, replay_s));

    // Derived self times: each step of the staircase minus the one below.
    let noncoding_write_ns = sim.write_ns - coding.encode_ns;
    let noncoding_read_ns = sim.read_ns - coding.decode_ns;
    let self_write_ns = store.write_ns - sim.write_ns;
    let self_read_ns = store.read_ns - sim.read_ns;
    let mut derived = vec![
        (
            "registers.noncoding_write_ns",
            noncoding_write_ns,
            sim.write_ns,
        ),
        (
            "registers.noncoding_read_ns",
            noncoding_read_ns,
            sim.read_ns,
        ),
        ("store.self_write_ns", self_write_ns, store.write_ns),
        ("store.self_read_ns", self_read_ns, store.read_ns),
    ];
    let tcp_self_ns = wire.as_ref().map(|(frames, echo_ns, tcp)| {
        let own = tcp.shaped(w) - store.shaped(w) - frames.codec_ns() - echo_ns;
        derived.push(("tcp.self_ns", own, tcp.shaped(w)));
        own
    });
    let broken: Vec<String> = derived
        .iter()
        .filter(|(_, value, minuend)| *value < -NOISE * minuend)
        .map(|(name, value, _)| format!("{name} = {value:.0}"))
        .collect();
    for b in &broken {
        eprintln!("rsb-perf: budget broken, a self time is below zero beyond noise: {b}");
    }

    // The budget: one op of the 50 % mix, submitted the way the workload
    // submits, by one uncontended client.
    let coding_ns = (coding.encode_ns + coding.decode_ns) / 2.0;
    let registers_ns = (sim.write_ns + sim.read_ns) / 2.0;
    let mut budget = vec![
        BudgetRow {
            layer: "coding",
            self_ns: coding_ns,
            floor: format!(
                "memcpy of D: {:.0} ns",
                w.value_len as f64 / coding.memcpy_gbps
            ),
        },
        BudgetRow {
            layer: "registers+fpsm",
            self_ns: registers_ns - coding_ns,
            floor: format!(
                "{} events per write+read",
                sim.events_per_write + sim.events_per_read
            ),
        },
        BudgetRow {
            layer: "store",
            self_ns: store.shaped(w) - registers_ns,
            floor: String::new(),
        },
    ];
    let mut end_to_end_ns = store.shaped(w);
    if let Some((frames, echo_ns, tcp)) = &wire {
        budget.push(BudgetRow {
            layer: "frame",
            self_ns: frames.codec_ns(),
            floor: format!("{} bytes per op", frames.bytes_per_op),
        });
        budget.push(BudgetRow {
            layer: "tcp (echo floor)",
            self_ns: *echo_ns,
            floor: "the benchmark's own echo".into(),
        });
        budget.push(BudgetRow {
            layer: "tcp (transport + server)",
            self_ns: tcp_self_ns.unwrap_or(0.0),
            floor: String::new(),
        });
        end_to_end_ns = tcp.shaped(w);
    }
    eprintln!("budget of one op, single client ({end_to_end_ns:.0} ns):");
    for row in &budget {
        eprintln!(
            "  {:<26} {:>10.0} ns {:>6.1} %   {}",
            row.layer,
            row.self_ns,
            100.0 * row.self_ns / end_to_end_ns,
            row.floor
        );
    }

    let replay: Vec<&Tracer> = traced_runs
        .iter()
        .flat_map(|run| &run.threads)
        .filter_map(|t| t.tracer.as_ref())
        .collect();
    // Where the generator threads' time went, from their spans.
    let replay_self = self_times_json(&replay);
    let replay_spans: usize = replay.iter().map(|t| t.spans().len()).sum();
    let mut tracers = replay;
    tracers.push(&tr);
    let dir = out_dir(w);
    std::fs::create_dir_all(&dir).expect("creating the output directory");
    trace::write_json(&dir.join("trace.json"), &tracers).expect("writing trace.json");
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();

    let us = |h: &rsb_store::LatencyHistogram, p| h.quantile_us(p);
    let (queue_wait, execute, wire_hist) =
        (scraped.queue_wait(), scraped.execute(), scraped.wire());
    let zero_or = |value: Option<f64>| value.unwrap_or(0.0);
    let tcp = wire.as_ref().map(|(_, _, tcp)| tcp);
    let frames = wire.as_ref().map(|(frames, _, _)| frames);
    let ns_per_event =
        (sim.write_ns + sim.read_ns) / (sim.events_per_write + sim.events_per_read) as f64;
    let metrics = vec![
        Metric::new("coding.memcpy_gbps", coding.memcpy_gbps, "GB/s"),
        Metric::new("coding.mul_acc_gbps", coding.mul_acc_gbps, "GB/s"),
        Metric::new("coding.encode_ns", coding.encode_ns, "ns"),
        Metric::new(
            "coding.encode_gbps",
            per_ns(w.value_len, coding.encode_ns),
            "GB/s",
        ),
        Metric::new("coding.decode_ns", coding.decode_ns, "ns"),
        Metric::new(
            "coding.decode_gbps",
            per_ns(w.value_len, coding.decode_ns),
            "GB/s",
        ),
        Metric::new("registers.write_ns", sim.write_ns, "ns"),
        Metric::new("registers.read_ns", sim.read_ns, "ns"),
        Metric::new(
            "registers.events_per_write",
            sim.events_per_write as f64,
            "count",
        ),
        Metric::new(
            "registers.events_per_read",
            sim.events_per_read as f64,
            "count",
        ),
        Metric::new("registers.ns_per_event", ns_per_event, "ns"),
        Metric::new("registers.noncoding_write_ns", noncoding_write_ns, "ns"),
        Metric::new("registers.noncoding_read_ns", noncoding_read_ns, "ns"),
        Metric::new("fpsm.storage_cost_ns", sim.storage_cost_ns, "ns"),
        Metric::new("fpsm.first_enabled_ns", sim.first_enabled_ns, "ns"),
        Metric::new("store.loopback_write_ns", store.write_ns, "ns"),
        Metric::new("store.loopback_read_ns", store.read_ns, "ns"),
        Metric::new("store.submit_ns", store.submit_ns, "ns"),
        Metric::new("store.wait_ns", store.wait_ns, "ns"),
        Metric::new("store.batch16_ns_per_op", store.batch16_ns_per_op, "ns"),
        Metric::new("store.self_write_ns", self_write_ns, "ns"),
        Metric::new("store.self_read_ns", self_read_ns, "ns"),
        Metric::new("store.queue_wait_p50_us", us(&queue_wait, 0.5), "us"),
        Metric::new("store.queue_wait_p99_us", us(&queue_wait, 0.99), "us"),
        Metric::new("store.execute_p50_us", us(&execute, 0.5), "us"),
        Metric::new("store.execute_p99_us", us(&execute, 0.99), "us"),
        Metric::new("store.live_records", scraped.live_records() as f64, "count"),
        Metric::new(
            "frame.encode_req_ns",
            zero_or(frames.map(|f| f.encode_req_ns)),
            "ns",
        ),
        Metric::new(
            "frame.decode_req_ns",
            zero_or(frames.map(|f| f.decode_req_ns)),
            "ns",
        ),
        Metric::new(
            "frame.encode_resp_ns",
            zero_or(frames.map(|f| f.encode_resp_ns)),
            "ns",
        ),
        Metric::new(
            "frame.decode_resp_ns",
            zero_or(frames.map(|f| f.decode_resp_ns)),
            "ns",
        ),
        Metric::new(
            "frame.bytes_per_op",
            zero_or(frames.map(|f| f.bytes_per_op)),
            "bytes",
        ),
        Metric::new(
            "tcp.echo_rtt_ns",
            zero_or(wire.as_ref().map(|(_, echo, _)| *echo)),
            "ns",
        ),
        Metric::new("tcp.write_ns", zero_or(tcp.map(|t| t.write_ns)), "ns"),
        Metric::new("tcp.read_ns", zero_or(tcp.map(|t| t.read_ns)), "ns"),
        Metric::new(
            "tcp.batch16_ns_per_op",
            zero_or(tcp.map(|t| t.batch16_ns_per_op)),
            "ns",
        ),
        Metric::new("tcp.self_ns", zero_or(tcp_self_ns), "ns"),
        Metric::new(
            "tcp.threads",
            if w.tcp {
                traced_runs[0].os_threads as f64
            } else {
                0.0
            },
            "count",
        ),
        Metric::new(
            "server.wire_p50_us",
            if w.tcp { us(&wire_hist, 0.5) } else { 0.0 },
            "us",
        ),
        Metric::new(
            "server.wire_p99_us",
            if w.tcp { us(&wire_hist, 0.99) } else { 0.0 },
            "us",
        ),
        Metric::new("gen.next_op_ns", gen_next_op_ns, "ns"),
        Metric::new("trace.overhead_ratio", traced_kops / untraced_kops, "ratio"),
        Metric::new(
            "open.p50_us",
            zero_or(open.as_ref().map(|o| o.p50_us)),
            "us",
        ),
        Metric::new(
            "open.p99_us",
            zero_or(open.as_ref().map(|o| o.p99_us)),
            "us",
        ),
        Metric::new(
            "open.late_p99_us",
            zero_or(open.as_ref().map(|o| o.late_p99_us)),
            "us",
        ),
    ];

    let budget_json: Vec<String> = budget
        .iter()
        .map(|row| {
            format!(
                "{{\"layer\": \"{}\", \"self_ns\": {:.1}, \"share\": {:.4}, \"floor\": {}}}",
                row.layer,
                row.self_ns,
                row.self_ns / end_to_end_ns,
                crate::env::json_str(&row.floor)
            )
        })
        .collect();
    let broken_json: Vec<String> = broken.iter().map(|b| crate::env::json_str(b)).collect();
    let diagnostics = vec![
        format!("\"budget_single_client_ns\": {end_to_end_ns:.1}"),
        format!("\"budget\": [{}]", budget_json.join(", ")),
        format!("\"budget_broken\": [{}]", broken_json.join(", ")),
        format!("\"replay_self_time_ns\": {{{}}}", replay_self.join(", ")),
        format!("\"replay_spans\": {replay_spans}"),
        format!("\"probe_spans\": {}", tr.spans().len()),
        format!("\"spans_dropped\": {dropped}"),
        format!("\"untraced_kops\": {untraced_kops:.3}"),
        format!("\"traced_kops\": {traced_kops:.3}"),
    ];
    let replayed = untraced.iter().chain(&traced);
    Outcome {
        metrics,
        attempted: fixed_ops + replayed.clone().map(|r| r.attempted).sum::<u64>() + checked,
        failed: fixed_failures + replayed.map(|r| r.failed).sum::<u64>() + check_failures,
        diagnostics,
    }
}

fn per_ns(bytes: usize, ns: f64) -> f64 {
    if ns > 0.0 {
        bytes as f64 / ns
    } else {
        0.0
    }
}

/// Total self time per span name over the generator threads' buffers.
fn self_times_json(tracers: &[&Tracer]) -> Vec<String> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for t in tracers {
        for (name, ns) in trace::self_times(t.spans()) {
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += ns,
                None => totals.push((name, ns)),
            }
        }
    }
    totals
        .iter()
        .map(|(name, ns)| format!("\"{name}\": {ns}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Counts a later change may claim on must repeat exactly.
    #[test]
    fn exact_counts_repeat_across_two_traced_probes() {
        for w in &WORKLOADS {
            let once = || {
                let mut tr = Tracer::new(Instant::now(), PROBE_SPANS);
                let plan = w.plan(1);
                let pool: Vec<Value> = (0..POOL).map(|_| plan.next_value(0, 0)).collect();
                let sim = sim_probes_for(w, &mut tr, &pool);
                let bytes = w.tcp.then(|| frame_probes(w, &mut tr, &plan).bytes_per_op);
                (sim.events_per_write, sim.events_per_read, bytes)
            };
            let first = once();
            assert_eq!(first, once(), "{}", w.name);
            assert!(first.0 > 0 && first.1 > 0);
        }
    }
}
