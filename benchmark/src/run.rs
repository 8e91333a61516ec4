//! Driving one workload: set-up, the closed-loop timed phase, and the
//! untimed correctness checks.

use crate::env;
use crate::gen::{Cursor, Op, Plan};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Workload, THREADS};
use rsb_coding::Value;
use rsb_consistency::{check_strong_regularity, History};
use rsb_fpsm::OpResult;
use rsb_store::{
    join_all, BatchOp, ListenSpec, Loopback, ReadFuture, Store, StoreClient, StoreMetrics,
    StoreServer, TcpTransport, Transport, WriteFuture,
};
use std::time::{Duration, Instant};

/// The timed phase is cut into this many equal segments. Their rates go
/// into the results file, to show whether a run was steady, and the p99s
/// are medians over them. Rates and p50s are taken over the whole phase:
/// over 80 runs their median of five segments spread wider than that
/// (thread placement makes segments bimodal, and a median of five flips
/// between the modes).
pub const SEGMENTS: usize = 5;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Keys written per `submit_batch` while loading the store.
const PRELOAD_BATCH: usize = 64;

/// The store under test, in-process or behind its TCP front-end.
pub enum Service {
    Local(Store),
    Tcp(StoreServer),
}

impl Service {
    fn start(w: &Workload, serve: bool) -> Service {
        let cfg = w.store_config();
        if serve {
            let cfg = cfg.with_listen(ListenSpec::new("127.0.0.1:0"));
            Service::Tcp(Store::serve(cfg).expect("serving on 127.0.0.1:0"))
        } else {
            Service::Local(Store::start(cfg).expect("the frozen store configuration is valid"))
        }
    }

    pub fn store(&self) -> &Store {
        match self {
            Service::Local(store) => store,
            Service::Tcp(server) => server.store(),
        }
    }

    fn shutdown(self) {
        match self {
            Service::Local(store) => store.shutdown(),
            Service::Tcp(server) => server.shutdown(),
        }
    }
}

/// How a generator thread reaches the service.
pub trait Connect: Transport + Sized {
    /// Whether the service must listen on TCP for this transport.
    const SERVED: bool;

    fn connect(service: &Service) -> StoreClient<Self>;
}

impl Connect for Loopback {
    const SERVED: bool = false;

    fn connect(service: &Service) -> StoreClient<Self> {
        service.store().client()
    }
}

impl Connect for TcpTransport {
    const SERVED: bool = true;

    fn connect(service: &Service) -> StoreClient<Self> {
        let Service::Tcp(server) = service else {
            panic!("a TCP workload runs against a served store");
        };
        let transport = TcpTransport::connect(server.local_addr()).expect("connecting on loopback");
        StoreClient::over(transport)
    }
}

/// A running service, one client per generator thread, and the inputs.
pub struct Rig<T: Transport> {
    pub service: Service,
    pub clients: Vec<StoreClient<T>>,
    pub plan: Plan,
}

impl<T: Connect> Rig<T> {
    /// Everything `setup_s` covers: start or serve, connect, generate the
    /// streams and pools, and write every key once.
    pub fn setup(w: &Workload, seed: u64) -> Self {
        let service = Service::start(w, T::SERVED);
        let clients: Vec<StoreClient<T>> = (0..THREADS).map(|_| T::connect(&service)).collect();
        let plan = w.plan(seed);
        // One write per key, bulk-loaded in batches: set-up then costs
        // work, not a wake-up chain per key.
        for first in (0..w.keys).step_by(PRELOAD_BATCH) {
            let ops = (first..w.keys)
                .take(PRELOAD_BATCH)
                .map(|key| plan.batch_op(0, Op { key, write: true }))
                .collect();
            for result in join_all(clients[0].submit_batch(ops)) {
                assert_eq!(result, Ok(OpResult::Write), "preload write");
            }
        }
        Rig {
            service,
            clients,
            plan,
        }
    }

    /// Sets up and measures how long it took, in seconds.
    pub fn setup_timed(w: &Workload, seed: u64) -> (Self, f64) {
        let start = Instant::now();
        let rig = Rig::setup(w, seed);
        (rig, start.elapsed().as_secs_f64())
    }

    /// `setup_s`: the median over [`SETUPS`] set-ups, `first_s` being the
    /// one the run used. The repeats run after the measured phase and
    /// after the memory peak is read, so they disturb neither.
    pub fn median_setup_s(w: &Workload, seed: u64, first_s: f64) -> f64 {
        let mut times = vec![first_s];
        for _ in 1..SETUPS {
            let (rig, seconds) = Self::setup_timed(w, seed);
            rig.teardown();
            times.push(seconds);
        }
        stats::median(&times)
    }
}

impl<T: Transport> Rig<T> {
    pub fn teardown(self) {
        drop(self.clients);
        self.service.shutdown();
    }
}

/// One closed-loop submission: an op, or a batch of ops.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Issue to last completion, saturating at 4.29 s.
    pub latency_ns: u32,
    pub segment: u8,
    /// Ops of each kind that returned a correct result.
    pub reads: u8,
    pub writes: u8,
}

#[derive(Debug)]
pub struct ThreadResult {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
}

/// Timestamps and outcome of one submission.
struct Issue {
    /// Before the generator produced the ops.
    begin: Instant,
    /// Ops ready; the latency clock starts.
    issued: Instant,
    /// The client returned the future(s).
    submitted: Instant,
    /// The last reply arrived.
    done: Instant,
    /// Ops submitted.
    ops: u8,
    /// Of them, the reads and writes that returned a correct result.
    reads: u8,
    writes: u8,
}

impl Issue {
    fn failed(&self) -> u64 {
        u64::from(self.ops - self.reads - self.writes)
    }
}

/// A single op in flight.
pub enum Pending {
    Read(ReadFuture),
    Write(WriteFuture),
}

impl Pending {
    /// Submits `op` the single-op way and returns its future.
    pub fn submit<T: Transport>(
        plan: &Plan,
        client: &StoreClient<T>,
        op: Op,
        value: Option<Value>,
    ) -> Pending {
        let key = &plan.keys[op.key as usize];
        match value {
            Some(value) => Pending::Write(client.write(key, value)),
            None => Pending::Read(client.read(key)),
        }
    }

    /// Waits for the reply; whether it is correct for `op`.
    pub fn wait_correct(self, plan: &Plan, op: Op) -> bool {
        match self {
            Pending::Read(future) => future
                .wait()
                .is_ok_and(|value| plan.is_written_to(op.key, &value)),
            Pending::Write(future) => future.wait().is_ok(),
        }
    }
}

fn issue_single<T: Transport>(
    plan: &Plan,
    cursor: &mut Cursor<'_>,
    thread: usize,
    client: &StoreClient<T>,
) -> Issue {
    let begin = Instant::now();
    let op = cursor.next_op();
    let value = op.write.then(|| plan.next_value(thread, op.key));
    let issued = Instant::now();
    let pending = Pending::submit(plan, client, op, value);
    let submitted = Instant::now();
    let ok = pending.wait_correct(plan, op);
    let done = Instant::now();
    Issue {
        begin,
        issued,
        submitted,
        done,
        ops: 1,
        reads: u8::from(ok && !op.write),
        writes: u8::from(ok && op.write),
    }
}

fn issue_batch<T: Transport>(
    plan: &Plan,
    cursor: &mut Cursor<'_>,
    thread: usize,
    client: &StoreClient<T>,
    batch: usize,
    read_keys: &mut Vec<Option<u32>>,
) -> Issue {
    let begin = Instant::now();
    read_keys.clear();
    let ops: Vec<BatchOp> = (0..batch)
        .map(|_| {
            let op = cursor.next_op();
            read_keys.push((!op.write).then_some(op.key));
            plan.batch_op(thread, op)
        })
        .collect();
    let issued = Instant::now();
    let futures = client.submit_batch(ops);
    let submitted = Instant::now();
    let results = join_all(futures);
    let done = Instant::now();
    let (mut reads, mut writes) = (0, 0);
    for (result, read_key) in results.iter().zip(read_keys.iter()) {
        match (result, read_key) {
            (Ok(OpResult::Read(v)), Some(key)) => reads += u8::from(plan.is_written_to(*key, v)),
            (Ok(OpResult::Write), None) => writes += 1,
            _ => {}
        }
    }
    Issue {
        begin,
        issued,
        submitted,
        done,
        ops: batch as u8,
        reads,
        writes,
    }
}

/// One closed-loop submission the way the workload submits: one op, or
/// a batch.
fn issue<T: Transport>(
    w: &Workload,
    plan: &Plan,
    cursor: &mut Cursor<'_>,
    thread: usize,
    client: &StoreClient<T>,
    read_keys: &mut Vec<Option<u32>>,
) -> Issue {
    if w.batch == 1 {
        issue_single(plan, cursor, thread, client)
    } else {
        issue_batch(plan, cursor, thread, client, w.batch, read_keys)
    }
}

/// The fixed phase: every generator thread runs `w.fixed_ops` ops in the
/// closed loop, checked and untimed. It is the warm-up (per-key histories
/// fill and the allocator stops growing, which otherwise makes the first
/// segment read about a fifth slower), and the memory and storage metrics
/// are read at its end: after a fixed number of ops, so that a faster
/// store does not read as a larger one. Returns `(attempted, failed)`.
pub fn fixed_phase<T: Transport>(w: &Workload, rig: &Rig<T>) -> (u64, u64) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter()
            .enumerate()
            .map(|(thread, client)| {
                let plan = &rig.plan;
                scope.spawn(move || {
                    let mut cursor = plan.cursor(thread);
                    let mut read_keys = Vec::with_capacity(w.batch);
                    let (mut attempted, mut failed) = (0, 0);
                    while attempted < w.fixed_ops {
                        let issue = issue(w, plan, &mut cursor, thread, client, &mut read_keys);
                        attempted += u64::from(issue.ops);
                        failed += issue.failed();
                    }
                    (attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .fold((0, 0), |sum, t| (sum.0 + t.0, sum.1 + t.1))
    })
}

/// One generator thread: submits, waits, submits, until `seconds` have
/// passed since `start`. A submission that ends after the deadline is
/// not counted.
fn generate<T: Transport>(
    w: &Workload,
    plan: &Plan,
    thread: usize,
    client: &StoreClient<T>,
    start: Instant,
    seconds: f64,
    mut tracer: Option<Tracer>,
) -> ThreadResult {
    let total_ns = (seconds * 1e9) as u128;
    let segment_ns = total_ns / SEGMENTS as u128;
    let mut cursor = plan.cursor(thread);
    let mut read_keys = Vec::with_capacity(w.batch);
    let mut out = ThreadResult {
        // Room for 200 kops/s per thread without growing mid-run.
        samples: Vec::with_capacity((seconds * 200e3) as usize / w.batch + 1),
        attempted: 0,
        failed: 0,
        tracer: None,
    };
    let mut op_id = (thread as u64) << 48;
    loop {
        let issue = issue(w, plan, &mut cursor, thread, client, &mut read_keys);
        let elapsed = issue.done.saturating_duration_since(start).as_nanos();
        if elapsed >= total_ns {
            break;
        }
        out.attempted += u64::from(issue.ops);
        out.failed += issue.failed();
        out.samples.push(Sample {
            latency_ns: u32::try_from((issue.done - issue.issued).as_nanos()).unwrap_or(u32::MAX),
            segment: (elapsed / segment_ns) as u8,
            reads: issue.reads,
            writes: issue.writes,
        });
        if let Some(t) = tracer.as_mut() {
            let root = t.record("op", issue.begin, issue.done, 0, op_id);
            t.record("gen.next_op", issue.begin, issue.issued, root, op_id);
            t.record("client.submit", issue.issued, issue.submitted, root, op_id);
            t.record("client.wait", issue.submitted, issue.done, root, op_id);
        }
        op_id += 1;
    }
    out.tracer = tracer;
    out
}

/// What the timed phase measured, before reduction to metrics.
pub struct Timed {
    pub threads: Vec<ThreadResult>,
    /// Process CPU seconds at each segment boundary.
    pub cpu_marks: Vec<f64>,
    /// `Threads:` of `/proc/self/status` mid-run.
    pub os_threads: u64,
    pub seconds: f64,
}

/// Runs the closed loop for `seconds`, measured. With `spans` set to a
/// trace epoch and a capacity, every generator thread records spans into
/// a buffer of that size.
pub fn timed_phase<T: Transport>(
    w: &Workload,
    rig: &Rig<T>,
    seconds: f64,
    spans: Option<(Instant, usize)>,
) -> Timed {
    let start = Instant::now();
    let mut cpu_marks = Vec::with_capacity(SEGMENTS + 1);
    let mut os_threads = 0;
    let threads = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter()
            .enumerate()
            .map(|(thread, client)| {
                let plan = &rig.plan;
                let tracer = spans.map(|(epoch, capacity)| Tracer::new(epoch, capacity));
                scope.spawn(move || generate(w, plan, thread, client, start, seconds, tracer))
            })
            .collect();
        for segment in 0..=SEGMENTS {
            if segment == SEGMENTS / 2 + 1 {
                os_threads = env::status_field("Threads");
            }
            let boundary =
                start + Duration::from_secs_f64(seconds * segment as f64 / SEGMENTS as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu_marks.push(env::cpu_seconds());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    Timed {
        threads,
        cpu_marks,
        os_threads,
        seconds,
    }
}

/// An exact latency percentile, and whether there were the samples to
/// support it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub us: f64,
    pub comparable: bool,
}

/// The timed phase reduced to its metrics: rates and medians over the
/// whole phase, p99 as the median of the segments' p99s.
#[derive(Debug)]
pub struct Reduced {
    pub throughput_kops: f64,
    pub cpu_us_per_op: f64,
    pub read_p50: Quantile,
    pub read_p99: Quantile,
    pub write_p50: Quantile,
    pub write_p99: Quantile,
    /// Diagnostics, not gated.
    pub read_p999_us: f64,
    pub write_p999_us: f64,
    pub read_samples: usize,
    pub write_samples: usize,
    pub segment_kops: Vec<f64>,
    pub segment_cpu_us_per_op: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    pub fn reduce(&self) -> Reduced {
        // Per segment and kind, every op that returned a correct result,
        // charged its submission's latency.
        let mut reads: Vec<Vec<u32>> = vec![Vec::new(); SEGMENTS];
        let mut writes: Vec<Vec<u32>> = vec![Vec::new(); SEGMENTS];
        for s in self.threads.iter().flat_map(|t| &t.samples) {
            let segment = s.segment as usize;
            reads[segment].extend(std::iter::repeat_n(s.latency_ns, s.reads as usize));
            writes[segment].extend(std::iter::repeat_n(s.latency_ns, s.writes as usize));
        }
        let us = |sorted: &[u32], p| f64::from(stats::percentile(sorted, p).unwrap_or(0)) / 1e3;
        // A tail percentile of the whole phase is set by its worst
        // stretch, and bad stretches come and go on this machine; the
        // median over the segments is the tail of a typical stretch.
        let tail = |segments: &mut [Vec<u32>], p| {
            let per_segment: Vec<f64> = segments
                .iter_mut()
                .map(|s| {
                    s.sort_unstable();
                    us(s, p)
                })
                .collect();
            Quantile {
                us: stats::median(&per_segment),
                comparable: segments.iter().all(|s| stats::supported(s.len(), p)),
            }
        };
        let read_p99 = tail(&mut reads, 0.99);
        let write_p99 = tail(&mut writes, 0.99);
        let segment_ops: Vec<f64> = reads
            .iter()
            .zip(&writes)
            .map(|(r, w)| (r.len() + w.len()).max(1) as f64)
            .collect();
        let whole = |segments: Vec<Vec<u32>>| {
            let mut all = segments.concat();
            all.sort_unstable();
            all
        };
        let (reads, writes) = (whole(reads), whole(writes));
        let ops = (reads.len() + writes.len()).max(1) as f64;
        let segment_s = self.seconds / SEGMENTS as f64;
        let middle = |sorted: &[u32]| Quantile {
            us: us(sorted, 0.5),
            comparable: stats::supported(sorted.len(), 0.5),
        };
        Reduced {
            throughput_kops: ops / self.seconds / 1e3,
            cpu_us_per_op: (self.cpu_marks[SEGMENTS] - self.cpu_marks[0]) * 1e6 / ops,
            read_p50: middle(&reads),
            read_p99,
            write_p50: middle(&writes),
            write_p99,
            read_p999_us: us(&reads, 0.999),
            write_p999_us: us(&writes, 0.999),
            read_samples: reads.len(),
            write_samples: writes.len(),
            segment_kops: segment_ops.iter().map(|n| n / segment_s / 1e3).collect(),
            segment_cpu_us_per_op: self
                .cpu_marks
                .windows(2)
                .zip(&segment_ops)
                .map(|(mark, n)| (mark[1] - mark[0]) * 1e6 / n)
                .collect(),
            attempted: self.threads.iter().map(|t| t.attempted).sum(),
            failed: self.threads.iter().map(|t| t.failed).sum(),
        }
    }
}

/// Waits until no key has enabled events left (stragglers of completed
/// operations still hold bits until the drivers step them) and returns
/// the metrics at quiescence.
pub fn quiesce(store: &Store) -> StoreMetrics {
    let mut last = store.metrics();
    for _ in 0..1000 {
        std::thread::sleep(Duration::from_millis(2));
        let now = store.metrics();
        let idle = now.shards.iter().all(|s| s.ready_keys == 0);
        if idle && now.occupancy_bits() == last.occupancy_bits() {
            return now;
        }
        last = now;
    }
    last
}

/// The untimed checks after a run: every key reads back as a value
/// written to it, and every key's retained history is strongly regular.
/// Returns `(attempted, failed)`.
pub fn verify<T: Transport>(rig: &Rig<T>) -> (u64, u64) {
    let mut failed = 0;
    for (key, name) in rig.plan.keys.iter().enumerate() {
        let read_ok = rig.clients[0]
            .read_blocking(name)
            .is_ok_and(|v| rig.plan.is_written_to(key as u32, &v));
        let regular = rig.service.store().key_history(name).is_some_and(|h| {
            History::from_fpsm(h.initial, &h.records)
                .is_ok_and(|history| check_strong_regularity(&history).is_ok())
        });
        if !read_ok {
            eprintln!("rsb-perf: key {name} read back a value never written to it");
        }
        if !regular {
            eprintln!("rsb-perf: key {name}: retained history is not strongly regular");
        }
        failed += u64::from(!read_ok) + u64::from(!regular);
    }
    (2 * rig.plan.keys.len() as u64, failed)
}
