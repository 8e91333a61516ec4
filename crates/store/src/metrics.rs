//! Per-shard and aggregate service metrics.
//!
//! Operation/byte counters are lock-free atomics bumped by whichever
//! thread submits or runs an operation; storage occupancy is read from the
//! shards' storage-cost-accounted simulations, so the paper's space
//! bounds are observable on the live service.

use rsb_fpsm::{OpResult, StorageCost};
use std::sync::atomic::{AtomicU64, Ordering};

/// Latency histogram buckets: 64 power-of-two octaves × 4 sub-buckets
/// (log-linear, ~±12.5% resolution) — enough to separate a cache-hit
/// read from one that pays a rematerialization, at tail quantiles.
const HIST_SUBS: usize = 4;
pub(crate) const HIST_BUCKETS: usize = 64 * HIST_SUBS;

pub(crate) fn hist_bucket(ns: u64) -> usize {
    let n = ns.max(1);
    let exp = 63 - n.leading_zeros() as usize;
    let sub = if exp >= 2 {
        ((n >> (exp - 2)) & 0b11) as usize
    } else {
        0
    };
    exp * HIST_SUBS + sub
}

/// The half-open `[lo_ns, hi_ns)` range of nanosecond samples a bucket
/// absorbs. Bucket 0 also absorbs the clamped `ns == 0` sample, so its
/// lower bound reads 0; the top bucket's upper bound saturates at
/// `u64::MAX`.
pub(crate) fn hist_bucket_bounds(bucket: usize) -> (u64, u64) {
    let exp = bucket / HIST_SUBS;
    let sub = bucket % HIST_SUBS;
    if exp < 2 {
        // Sub-buckets collapse below 4 ns; only `sub == 0` is reachable.
        let lo = if bucket == 0 { 0 } else { 1u64 << exp };
        return (lo, 1u64 << (exp + 1));
    }
    let lo = ((4 + sub) as u128) << (exp - 2);
    let hi = ((5 + sub) as u128) << (exp - 2);
    (
        lo.min(u128::from(u64::MAX)) as u64,
        hi.min(u128::from(u64::MAX)) as u64,
    )
}

fn hist_representative_ns(bucket: usize) -> f64 {
    let exp = bucket / HIST_SUBS;
    let sub = bucket % HIST_SUBS;
    if exp < 2 {
        return (1u64 << exp) as f64 * 1.5;
    }
    // Bucket covers [(4+sub)·2^(exp-2), (5+sub)·2^(exp-2)); report the
    // midpoint.
    ((4 + sub) as f64 + 0.5) * (1u64 << (exp - 2)) as f64
}

/// Bumps one statistics counter.
fn bump(counter: &AtomicU64, n: u64) {
    // audit:allow(atomics-relaxed) — pure statistics: counters guard no
    // data, and snapshots are racy by design (each field is read
    // independently while writers keep going).
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Reads one statistics counter for a (racy) snapshot.
fn peek(counter: &AtomicU64) -> u64 {
    // audit:allow(atomics-relaxed) — see `bump`: nothing is published
    // through these counters, staleness only skews a report.
    counter.load(Ordering::Relaxed)
}

/// Lock-free log-linear latency histogram (nanoseconds).
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram").finish_non_exhaustive()
    }
}

impl AtomicHistogram {
    pub(crate) fn record(&self, ns: u64) {
        bump(&self.buckets[hist_bucket(ns)], 1);
    }

    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            counts: self.buckets.iter().map(peek).collect(),
        }
    }
}

/// A snapshot of a latency histogram, with quantile queries.
///
/// Buckets are log-linear (power-of-two octaves with 4 sub-buckets), so
/// quantiles carry ~±12.5% resolution — plenty to tell a hit read from
/// one that paid a rematerialization, while recording stays a single
/// relaxed atomic increment on the hot path.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
}

/// A freshly-constructed histogram holds an empty `counts` vec while a
/// recorded-then-drained one holds 256 zeros; both mean "no samples", so
/// equality compares bucket-by-bucket with missing buckets read as zero.
impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        let len = self.counts.len().max(other.counts.len());
        (0..len).all(|i| {
            self.counts.get(i).copied().unwrap_or(0) == other.counts.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for LatencyHistogram {}

impl LatencyHistogram {
    /// Records one latency sample directly (single-threaded recording —
    /// what the load harness uses; the store's own hot path records
    /// through lock-free atomics and only snapshots into this type).
    pub fn record_ns(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[hist_bucket(ns)] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another histogram (for cross-shard aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The `p`-quantile latency in nanoseconds (`p` in `[0, 1]`), or
    /// `None` when the histogram is empty.
    pub fn quantile_ns(&self, p: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(hist_representative_ns(bucket));
            }
        }
        None
    }

    /// The `p`-quantile in microseconds, or 0.0 when empty (table-friendly).
    pub fn quantile_us(&self, p: f64) -> f64 {
        self.quantile_ns(p).unwrap_or(0.0) / 1e3
    }

    /// Iterates the occupied buckets as `(lo_ns, hi_ns, count)` triples
    /// with `count > 0`, in ascending latency order. Each sample counted
    /// fell in the half-open range `[lo_ns, hi_ns)` (the clamped 0-ns
    /// sample lands in the first bucket, whose `lo_ns` is 0).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(bucket, &c)| {
                let (lo, hi) = hist_bucket_bounds(bucket);
                (lo, hi, c)
            })
    }

    /// Adds `count` samples to the bucket spanning `[lo_ns, hi_ns)` (the
    /// wire decoder's inverse of [`Self::buckets`]). Returns false when
    /// the pair is not an exact bucket boundary.
    pub(crate) fn add_bucket(&mut self, lo_ns: u64, hi_ns: u64, count: u64) -> bool {
        let bucket = hist_bucket(lo_ns.max(1));
        if hist_bucket_bounds(bucket) != (lo_ns, hi_ns) {
            return false;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[bucket] = self.counts[bucket].saturating_add(count);
        true
    }
}

/// Lock-free counters one shard's submitters and evictions bump.
#[derive(Debug, Default)]
pub(crate) struct AtomicCounters {
    reads_submitted: AtomicU64,
    writes_submitted: AtomicU64,
    reads_completed: AtomicU64,
    writes_completed: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    rejected: AtomicU64,
    truncated_records: AtomicU64,
    rematerialized: AtomicU64,
    evictions: AtomicU64,
    read_hit_ns: AtomicHistogram,
    read_remat_ns: AtomicHistogram,
    write_ns: AtomicHistogram,
    queue_wait_ns: AtomicHistogram,
    execute_ns: AtomicHistogram,
    wire_ns: AtomicHistogram,
}

impl AtomicCounters {
    pub(crate) fn note_read_submitted(&self) {
        bump(&self.reads_submitted, 1);
    }

    pub(crate) fn note_write_submitted(&self, payload_bytes: u64) {
        bump(&self.writes_submitted, 1);
        bump(&self.bytes_written, payload_bytes);
    }

    pub(crate) fn note_rejected(&self) {
        bump(&self.rejected, 1);
    }

    pub(crate) fn note_completion(&self, result: &OpResult) {
        match result {
            OpResult::Read(v) => {
                bump(&self.reads_completed, 1);
                bump(&self.bytes_read, v.len() as u64);
            }
            OpResult::Write => {
                bump(&self.writes_completed, 1);
            }
        }
    }

    pub(crate) fn note_truncated(&self, records: u64) {
        if records > 0 {
            bump(&self.truncated_records, records);
        }
    }

    pub(crate) fn note_rematerialized(&self) {
        bump(&self.rematerialized, 1);
    }

    pub(crate) fn note_eviction(&self) {
        bump(&self.evictions, 1);
    }

    /// Records a completed read's end-to-end latency, bucketed by whether
    /// its submission had to rematerialize an evicted key.
    pub(crate) fn note_read_latency(&self, ns: u64, rematerialized: bool) {
        if rematerialized {
            self.read_remat_ns.record(ns);
        } else {
            self.read_hit_ns.record(ns);
        }
    }

    /// Records a completed write's end-to-end latency.
    pub(crate) fn note_write_latency(&self, ns: u64) {
        self.write_ns.record(ns);
    }

    /// Records one completed op's phase split: time spent waiting for
    /// its key's run to start (submit → execute-start) and time inside the simulator
    /// batch that delivered it (execute-start → completion). Every
    /// completion records exactly one sample in each, so the phase
    /// histogram counts must agree with the end-to-end ones.
    pub(crate) fn note_phases(&self, queue_ns: u64, execute_ns: u64) {
        self.queue_wait_ns.record(queue_ns);
        self.execute_ns.record(execute_ns);
    }

    /// Records server-side wire time for one TCP op: frame decode →
    /// response flushed. Loopback ops never record here.
    pub(crate) fn note_wire_latency(&self, ns: u64) {
        self.wire_ns.record(ns);
    }

    pub(crate) fn read_hit_histogram(&self) -> LatencyHistogram {
        self.read_hit_ns.snapshot()
    }

    pub(crate) fn read_remat_histogram(&self) -> LatencyHistogram {
        self.read_remat_ns.snapshot()
    }

    pub(crate) fn write_histogram(&self) -> LatencyHistogram {
        self.write_ns.snapshot()
    }

    pub(crate) fn queue_wait_histogram(&self) -> LatencyHistogram {
        self.queue_wait_ns.snapshot()
    }

    pub(crate) fn execute_histogram(&self) -> LatencyHistogram {
        self.execute_ns.snapshot()
    }

    pub(crate) fn wire_histogram(&self) -> LatencyHistogram {
        self.wire_ns.snapshot()
    }

    pub(crate) fn snapshot(&self) -> OpCounters {
        OpCounters {
            reads_submitted: peek(&self.reads_submitted),
            writes_submitted: peek(&self.writes_submitted),
            reads_completed: peek(&self.reads_completed),
            writes_completed: peek(&self.writes_completed),
            bytes_read: peek(&self.bytes_read),
            bytes_written: peek(&self.bytes_written),
            rejected: peek(&self.rejected),
            truncated_records: peek(&self.truncated_records),
            rematerialized: peek(&self.rematerialized),
            evictions: peek(&self.evictions),
        }
    }
}

/// A snapshot of one shard's (or the whole store's) operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Reads accepted by the submit path.
    pub reads_submitted: u64,
    /// Writes accepted by the submit path.
    pub writes_submitted: u64,
    /// Reads whose result was delivered.
    pub reads_completed: u64,
    /// Writes whose ack was delivered.
    pub writes_completed: u64,
    /// Payload bytes returned by completed reads.
    pub bytes_read: u64,
    /// Payload bytes accepted by submitted writes.
    pub bytes_written: u64,
    /// Submissions the underlying simulation rejected.
    pub rejected: u64,
    /// Operation records dropped by history compaction.
    pub truncated_records: u64,
    /// Evicted keys brought back by a later operation.
    pub rematerialized: u64,
    /// Keys snapshotted by
    /// [`Store::evict_quiescent`](crate::Store::evict_quiescent).
    pub evictions: u64,
}

impl OpCounters {
    /// Submitted operations of both kinds.
    pub fn submitted(&self) -> u64 {
        self.reads_submitted + self.writes_submitted
    }

    /// Completed operations of both kinds.
    pub fn completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Accumulates another snapshot (for aggregation).
    pub fn absorb(&mut self, other: &OpCounters) {
        self.reads_submitted += other.reads_submitted;
        self.writes_submitted += other.writes_submitted;
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.rejected += other.rejected;
        self.truncated_records += other.truncated_records;
        self.rematerialized += other.rematerialized;
        self.evictions += other.evictions;
    }
}

/// One shard's metrics snapshot.
///
/// Owned data only (`protocol` is a `String`, histograms own their
/// buckets), so a snapshot decoded from a remote server's `StatsResp`
/// frame compares equal to the same snapshot taken in-process.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetrics {
    /// Shard index within the store.
    pub shard: usize,
    /// The register emulation the shard runs.
    pub protocol: String,
    /// Keys (registers) materialized on the shard so far.
    pub keys: usize,
    /// Operation counters.
    pub ops: OpCounters,
    /// Live storage occupancy across the shard's registers
    /// (the paper's Definition-2 cost, summed over keys).
    pub occupancy: StorageCost,
    /// Sum of each register's peak total storage in bits — an upper
    /// bound on the shard's true simultaneous peak.
    pub peak_register_bits: u64,
    /// Operation records currently held across the shard's registers
    /// (retained frontier + live tail; what [`HistoryPolicy`] bounds).
    ///
    /// [`HistoryPolicy`]: crate::HistoryPolicy
    pub live_records: u64,
    /// Keys currently evicted to snapshots (counted in `keys` too).
    pub evicted_keys: usize,
    /// Bits held by evicted keys' snapshots (not part of `occupancy`,
    /// which covers live simulations only).
    pub snapshot_bits: u64,
    /// Live keys whose simulation still has an enabled event, counted
    /// under each key's lock. A submission drains its key before it
    /// releases that lock, so this reads 0 — a non-zero value means a
    /// key was left mid-run.
    pub ready_keys: usize,
    /// End-to-end latency of completed reads whose key was live at
    /// submission.
    pub read_hit_latency: LatencyHistogram,
    /// End-to-end latency of completed reads whose submission had to
    /// rematerialize an evicted key first.
    pub read_remat_latency: LatencyHistogram,
    /// End-to-end latency of completed writes.
    pub write_latency: LatencyHistogram,
    /// Per-op time from submit to execute-start: placement, the wait
    /// for the key's lock (behind same-key submitters; behind the
    /// earlier key groups too, for a batched op) and the invocation.
    /// One sample per completed op of either kind.
    pub queue_wait: LatencyHistogram,
    /// Per-op time inside the drain that delivered the result
    /// (execute-start to completion); one sample per completed op.
    pub execute: LatencyHistogram,
    /// Server-side wire time per TCP op (frame decode to response
    /// flush). Empty on loopback-only stores; lags completions by the
    /// in-flight ops whose responses are still being written.
    pub wire: LatencyHistogram,
}

// Every field is integral (or a histogram of integral counts), so
// `PartialEq` is total and the marker holds.
impl Eq for ShardMetrics {}

/// A whole-store metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMetrics {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardMetrics>,
}

impl Eq for StoreMetrics {}

impl StoreMetrics {
    /// Aggregate operation counters over all shards.
    pub fn totals(&self) -> OpCounters {
        let mut total = OpCounters::default();
        for s in &self.shards {
            total.absorb(&s.ops);
        }
        total
    }

    /// Aggregate live storage occupancy in bits.
    pub fn occupancy_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.occupancy.total()).sum()
    }

    /// Aggregate per-register peak storage bits.
    pub fn peak_register_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.peak_register_bits).sum()
    }

    /// Total keys materialized across shards.
    pub fn keys(&self) -> usize {
        self.shards.iter().map(|s| s.keys).sum()
    }

    /// Total live operation records across shards (what the history
    /// policy bounds under sustained traffic).
    pub fn live_records(&self) -> u64 {
        self.shards.iter().map(|s| s.live_records).sum()
    }

    /// Keys currently evicted to snapshots, across shards.
    pub fn evicted_keys(&self) -> usize {
        self.shards.iter().map(|s| s.evicted_keys).sum()
    }

    /// Bits held by evicted keys' snapshots, across shards.
    pub fn snapshot_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshot_bits).sum()
    }

    /// Merged hit-read latency histogram across shards.
    pub fn read_hit_latency(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for s in &self.shards {
            out.merge(&s.read_hit_latency);
        }
        out
    }

    /// Merged rematerialize-read latency histogram across shards.
    pub fn read_remat_latency(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for s in &self.shards {
            out.merge(&s.read_remat_latency);
        }
        out
    }

    /// Merged write end-to-end latency histogram across shards.
    pub fn write_latency(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for s in &self.shards {
            out.merge(&s.write_latency);
        }
        out
    }

    /// Merged submit→execute-start queue-wait histogram across shards.
    pub fn queue_wait(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for s in &self.shards {
            out.merge(&s.queue_wait);
        }
        out
    }

    /// Merged execute-start→completion histogram across shards.
    pub fn execute(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for s in &self.shards {
            out.merge(&s.execute);
        }
        out
    }

    /// Merged server-side wire-time histogram across shards.
    pub fn wire(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for s in &self.shards {
            out.merge(&s.wire);
        }
        out
    }

    /// Merged end-to-end latency over every completed op (reads of both
    /// kinds plus writes) — the histogram the phase pair
    /// ([`Self::queue_wait`], [`Self::execute`]) decomposes.
    pub fn end_to_end_latency(&self) -> LatencyHistogram {
        let mut out = self.read_hit_latency();
        out.merge(&self.read_remat_latency());
        out.merge(&self.write_latency());
        out
    }

    /// Renders the snapshot as Prometheus-style text exposition:
    /// `# TYPE`-annotated counters, gauges, and cumulative-`le`
    /// histograms, all prefixed `rsb_store_`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = self.totals();
        let counters: [(&str, &str, u64); 10] = [
            (
                "reads_submitted",
                "Reads accepted by the submit path",
                t.reads_submitted,
            ),
            (
                "writes_submitted",
                "Writes accepted by the submit path",
                t.writes_submitted,
            ),
            (
                "reads_completed",
                "Reads whose result was delivered",
                t.reads_completed,
            ),
            (
                "writes_completed",
                "Writes whose ack was delivered",
                t.writes_completed,
            ),
            (
                "bytes_read",
                "Payload bytes returned by completed reads",
                t.bytes_read,
            ),
            (
                "bytes_written",
                "Payload bytes accepted by submitted writes",
                t.bytes_written,
            ),
            (
                "rejected",
                "Submissions the simulation rejected",
                t.rejected,
            ),
            (
                "truncated_records",
                "Records dropped by history compaction",
                t.truncated_records,
            ),
            (
                "rematerialized",
                "Evicted keys brought back by an op",
                t.rematerialized,
            ),
            ("evictions", "Keys evicted to snapshots", t.evictions),
        ];
        for (name, help, value) in counters {
            let _ = writeln!(out, "# HELP rsb_store_{name}_total {help}");
            let _ = writeln!(out, "# TYPE rsb_store_{name}_total counter");
            let _ = writeln!(out, "rsb_store_{name}_total {value}");
        }
        let gauges: [(&str, &str, u64); 6] = [
            (
                "occupancy_bits",
                "Live storage occupancy (paper Definition-2 bits)",
                self.occupancy_bits(),
            ),
            (
                "peak_register_bits",
                "Sum of per-register peak storage bits",
                self.peak_register_bits(),
            ),
            (
                "snapshot_bits",
                "Bits held by evicted keys' snapshots",
                self.snapshot_bits(),
            ),
            (
                "keys",
                "Keys materialized across shards",
                self.keys() as u64,
            ),
            (
                "evicted_keys",
                "Keys currently evicted to snapshots",
                self.evicted_keys() as u64,
            ),
            (
                "live_records",
                "Operation records currently retained",
                self.live_records(),
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(out, "# HELP rsb_store_{name} {help}");
            let _ = writeln!(out, "# TYPE rsb_store_{name} gauge");
            let _ = writeln!(out, "rsb_store_{name} {value}");
        }
        let _ = writeln!(
            out,
            "# HELP rsb_store_shard_ready_keys Live keys left with an enabled simulator event"
        );
        let _ = writeln!(out, "# TYPE rsb_store_shard_ready_keys gauge");
        for s in &self.shards {
            let _ = writeln!(
                out,
                "rsb_store_shard_ready_keys{{shard=\"{}\",protocol=\"{}\"}} {}",
                s.shard, s.protocol, s.ready_keys
            );
        }
        let hists: [(&str, &str, LatencyHistogram); 6] = [
            (
                "read_hit_latency_ns",
                "End-to-end latency of live-key reads",
                self.read_hit_latency(),
            ),
            (
                "read_remat_latency_ns",
                "End-to-end latency of rematerializing reads",
                self.read_remat_latency(),
            ),
            (
                "write_latency_ns",
                "End-to-end latency of writes",
                self.write_latency(),
            ),
            (
                "queue_wait_ns",
                "Submit to execute-start wait",
                self.queue_wait(),
            ),
            ("execute_ns", "Execute-start to completion", self.execute()),
            (
                "wire_ns",
                "Server-side frame decode to response flush",
                self.wire(),
            ),
        ];
        for (name, help, hist) in hists {
            let _ = writeln!(out, "# HELP rsb_store_{name} {help}");
            let _ = writeln!(out, "# TYPE rsb_store_{name} histogram");
            let mut cumulative = 0u64;
            for (_, hi, count) in hist.buckets() {
                cumulative += count;
                let _ = writeln!(out, "rsb_store_{name}_bucket{{le=\"{hi}\"}} {cumulative}");
            }
            let _ = writeln!(out, "rsb_store_{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "rsb_store_{name}_count {cumulative}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotonic_and_quantiles_sane() {
        let mut prev = 0;
        for ns in 1..4096u64 {
            let b = hist_bucket(ns);
            assert!(b >= prev, "bucket must be monotonic in ns at {ns}");
            prev = b;
        }
        let h = AtomicHistogram::default();
        for _ in 0..90 {
            h.record(1_000); // ~1 µs
        }
        for _ in 0..10 {
            h.record(1_000_000); // ~1 ms
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        let p50 = snap.quantile_ns(0.50).unwrap();
        let p99 = snap.quantile_ns(0.99).unwrap();
        assert!((800.0..=1300.0).contains(&p50), "p50 ≈ 1µs, got {p50} ns");
        assert!(
            (800_000.0..=1_300_000.0).contains(&p99),
            "p99 ≈ 1ms, got {p99} ns"
        );
        assert!(LatencyHistogram::default().quantile_ns(0.5).is_none());
    }

    #[test]
    fn empty_histogram_equals_drained_histogram() {
        // Regression: the derived PartialEq compared the raw `counts`
        // vecs, so a default (empty-vec) histogram != an allocated
        // all-zeros one even though both mean "no samples".
        let mut recorded = LatencyHistogram::default();
        recorded.record_ns(500);
        // A snapshot of an untouched AtomicHistogram has the allocated
        // all-zeros shape a "recorded then drained" histogram would.
        let zeroed = AtomicHistogram::default().snapshot();
        assert_eq!(zeroed.count(), 0);
        assert_eq!(LatencyHistogram::default(), zeroed);
        assert_eq!(zeroed, LatencyHistogram::default());
        assert_ne!(LatencyHistogram::default(), recorded);
        assert_ne!(zeroed, recorded);
    }

    #[test]
    fn bucket_bounds_agree_with_hist_bucket() {
        // Every recorded sample must land in a bucket whose reported
        // bounds contain it, and the bounds must be the exact preimage:
        // lo maps to the bucket, hi maps to the next occupied one.
        let mut state = 0x0B5E_u64;
        let mut h = LatencyHistogram::default();
        let mut samples = Vec::new();
        for i in 0..2000u64 {
            // Mix uniform small values with exponentially-spread ones so
            // every octave range gets coverage, including u64::MAX.
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i);
            let shift = (state >> 58) as u32; // 0..63
            let ns = match i % 4 {
                0 => i,
                1 => state >> shift.min(63),
                2 => 1u64 << shift,
                _ => u64::MAX - (state & 0xff),
            };
            h.record_ns(ns);
            samples.push(ns);
        }
        let total: u64 = h.buckets().map(|(_, _, c)| c).sum();
        assert_eq!(total, h.count(), "buckets() covers every sample");
        let mut prev_hi = 0u64;
        for (lo, hi, count) in h.buckets() {
            assert!(count > 0, "buckets() yields occupied buckets only");
            assert!(lo < hi, "non-empty range [{lo}, {hi})");
            assert!(lo >= prev_hi, "ranges ascend without overlap");
            prev_hi = hi;
            let bucket = hist_bucket(lo.max(1));
            assert_eq!(hist_bucket_bounds(bucket), (lo, hi));
            // The bucket's representative sits inside its own bounds.
            let rep = hist_representative_ns(bucket);
            assert!(
                rep >= lo as f64 && rep < hi as f64,
                "representative {rep} outside [{lo}, {hi})"
            );
            // Boundary samples: lo maps into this bucket; hi-1 as well
            // (unless hi saturated at u64::MAX, where hi-1 still must
            // not map below this bucket).
            assert_eq!(hist_bucket(lo.max(1)), bucket);
            assert!(hist_bucket(hi - 1) >= bucket);
            if hi < u64::MAX {
                assert!(hist_bucket(hi) > bucket, "hi is exclusive");
            }
        }
        for &ns in &samples {
            let bucket = hist_bucket(ns);
            let (lo, hi) = hist_bucket_bounds(bucket);
            assert!(
                ns.max(1) >= lo.max(1) && (ns < hi || hi == u64::MAX),
                "sample {ns} outside its bucket bounds [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn add_bucket_inverts_buckets_iteration() {
        let mut h = LatencyHistogram::default();
        for ns in [0, 1, 3, 17, 1_000, 1_000_000, u64::MAX] {
            h.record_ns(ns);
        }
        let mut rebuilt = LatencyHistogram::default();
        for (lo, hi, count) in h.buckets() {
            assert!(
                rebuilt.add_bucket(lo, hi, count),
                "({lo}, {hi}) is a bucket"
            );
        }
        assert_eq!(rebuilt, h);
        // Non-boundary bounds are rejected.
        assert!(!LatencyHistogram::default().add_bucket(1_001, 1_024, 1));
        assert!(!LatencyHistogram::default().add_bucket(1_024, 1_100, 1));
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = AtomicHistogram::default();
        let b = AtomicHistogram::default();
        a.record(100);
        b.record(100);
        b.record(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        // Representative of a bucket stays within its log-linear bounds.
        let p100 = m.quantile_ns(0.01).unwrap();
        assert!((80.0..=140.0).contains(&p100), "got {p100}");
    }
}
