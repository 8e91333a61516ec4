//! Integration tests of the observability surface: per-op phase
//! attribution, the flight recorder, and metric snapshot equality —
//! the invariants an external monitoring system relies on.

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{FlightEventKind, ProtocolSpec, Store, StoreConfig};

fn start(shards: usize, value_len: usize) -> Store {
    let reg = RegisterConfig::paper(1, 2, value_len).unwrap();
    Store::start(StoreConfig::uniform(shards, ProtocolSpec::Adaptive, reg)).unwrap()
}

#[test]
fn phase_histograms_cover_every_completed_op_at_quiescence() {
    let store = start(4, 16);
    let client = store.client();
    for i in 0..30u64 {
        let key = format!("k{}", i % 7);
        client.write_blocking(&key, Value::seeded(i, 16)).unwrap();
        client.read_blocking(&key).unwrap();
    }
    let m = store.metrics();
    let completed = m.totals().completed();
    assert_eq!(completed, 60);
    // Every completed op was stamped through both phases exactly once.
    assert_eq!(m.queue_wait().count(), completed);
    assert_eq!(m.execute().count(), completed);
    // End-to-end = read hits + remats + writes; all completions covered.
    assert_eq!(m.end_to_end_latency().count(), completed);
    assert_eq!(m.write_latency().count(), 30);
    // Loopback never touches the wire path.
    assert_eq!(m.wire().count(), 0);
    // Per-shard, the same closure holds.
    for sh in &m.shards {
        assert_eq!(sh.queue_wait.count(), sh.ops.completed());
        assert_eq!(sh.execute.count(), sh.ops.completed());
    }
    store.shutdown();
}

#[test]
fn phase_sums_do_not_exceed_end_to_end_totals() {
    // queue_wait + execute for one op can never exceed its end-to-end
    // latency (they partition submit → completion); at the aggregate
    // level the histogram *sums* must respect the same direction.
    let store = start(2, 16);
    let client = store.client();
    for i in 0..40u64 {
        client
            .write_blocking(&format!("k{}", i % 5), Value::seeded(i, 16))
            .unwrap();
    }
    let m = store.metrics();
    let approx_sum = |h: &rsb_store::LatencyHistogram| -> u128 {
        // Bucket lower bounds give a conservative (under-)estimate.
        h.buckets()
            .map(|(lo, _, c)| u128::from(lo) * u128::from(c))
            .sum()
    };
    let approx_sum_hi = |h: &rsb_store::LatencyHistogram| -> u128 {
        h.buckets()
            .map(|(_, hi, c)| u128::from(hi) * u128::from(c))
            .sum()
    };
    let phases_lo = approx_sum(&m.queue_wait()) + approx_sum(&m.execute());
    let e2e_hi = approx_sum_hi(&m.end_to_end_latency());
    assert!(
        phases_lo <= e2e_hi,
        "phase lower-bound sum {phases_lo} exceeded end-to-end upper-bound sum {e2e_hi}"
    );
    store.shutdown();
}

#[test]
fn recorder_captures_submissions_gaplessly_before_wrap() {
    let store = start(2, 16);
    let client = store.client();
    for i in 0..10u64 {
        client
            .write_blocking(&format!("k{i}"), Value::seeded(i, 16))
            .unwrap();
        client.read_blocking(&format!("k{i}")).unwrap();
    }
    let rec = store.flight_recorder();
    assert!(rec.recorded() >= 20);
    let events = rec.dump();
    // Nothing wrapped (default capacity is 1024), so the dump is the
    // complete, gapless event history starting at sequence 0.
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let expect: Vec<u64> = (0..rec.recorded()).collect();
    assert_eq!(seqs, expect, "gapless sequence numbers before wrap");
    let submits_w = events
        .iter()
        .filter(|e| e.kind == FlightEventKind::SubmitWrite)
        .count();
    let submits_r = events
        .iter()
        .filter(|e| e.kind == FlightEventKind::SubmitRead)
        .count();
    assert_eq!(submits_w, 10);
    assert_eq!(submits_r, 10);
    // Write submissions carry the payload size as their detail.
    for e in &events {
        if e.kind == FlightEventKind::SubmitWrite {
            assert_eq!(e.detail, 16);
            assert!(e.shard.is_some());
        }
    }
    store.shutdown();
}

#[test]
fn recorder_overwrites_oldest_when_capacity_is_tiny() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let cfg = StoreConfig::uniform(2, ProtocolSpec::Adaptive, reg).with_recorder_capacity(4);
    let store = Store::start(cfg).unwrap();
    let client = store.client();
    for i in 0..25u64 {
        client
            .write_blocking(&format!("k{}", i % 3), Value::seeded(i, 16))
            .unwrap();
    }
    let rec = store.flight_recorder();
    assert_eq!(rec.capacity(), 4);
    // At least the 25 submissions (plus compactions) landed.
    let total = rec.recorded();
    assert!(total >= 25, "recorded {total}");
    let events = rec.dump();
    assert!(events.len() <= 4);
    // The survivors are the *newest* events, in order.
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    for pair in seqs.windows(2) {
        assert!(pair[0] < pair[1]);
    }
    assert_eq!(*seqs.last().unwrap(), total - 1);
    assert!(
        *seqs.first().unwrap() >= total - 4,
        "oldest events were overwritten: {seqs:?} of {total}"
    );
    store.shutdown();
}

#[test]
fn eviction_leaves_one_recorder_event_per_rested_key() {
    let store = start(1, 16);
    let client = store.client();
    client.write_blocking("cold", Value::seeded(1, 16)).unwrap();
    assert_eq!(store.evict_quiescent(), 1);
    // Reading the rested key needs no event of its own.
    assert_eq!(client.read_blocking("cold").unwrap(), Value::seeded(1, 16));
    let events = store.flight_recorder().dump();
    let evicts: Vec<_> = events
        .iter()
        .filter(|e| e.kind == FlightEventKind::Evict)
        .collect();
    assert_eq!(evicts.len(), 1, "events: {events:?}");
    // The eviction event's detail is the key's object bits at rest.
    assert_eq!(
        evicts[0].detail,
        store.metrics().shards[0].occupancy.object_bits
    );
    assert_eq!(evicts[0].shard, Some(0));
    store.shutdown();
}

#[test]
fn loopback_stats_equal_in_process_metrics() {
    let store = start(3, 16);
    let client = store.client();
    for i in 0..12u64 {
        client
            .write_blocking(&format!("k{i}"), Value::seeded(i, 16))
            .unwrap();
    }
    // Two quiescent snapshots are equal — the regression this guards:
    // a histogram decoded/cloned as "empty Vec" must equal one drained
    // to all-zero buckets.
    assert_eq!(store.metrics(), store.metrics());
    assert_eq!(client.stats().unwrap(), store.metrics());
    store.shutdown();
}

#[test]
fn prometheus_rendering_carries_counts_and_histograms() {
    let store = start(2, 16);
    let client = store.client();
    for i in 0..8u64 {
        client
            .write_blocking(&format!("k{i}"), Value::seeded(i, 16))
            .unwrap();
        client.read_blocking(&format!("k{i}")).unwrap();
    }
    let text = store.metrics().render_prometheus();
    assert!(text.contains("rsb_store_reads_completed_total 8"));
    assert!(text.contains("rsb_store_writes_completed_total 8"));
    assert!(text.contains("rsb_store_queue_wait_ns_count 16"));
    assert!(text.contains("rsb_store_execute_ns_count 16"));
    assert!(text.contains("rsb_store_write_latency_ns_count 8"));
    assert!(text.contains("le=\"+Inf\""));
    // Every histogram line is cumulative: the +Inf bucket equals _count.
    for name in ["queue_wait_ns", "execute_ns", "write_latency_ns"] {
        let inf = text
            .lines()
            .find(|l| l.starts_with(&format!("rsb_store_{name}_bucket")) && l.contains("+Inf"))
            .unwrap_or_else(|| panic!("missing +Inf bucket for {name}"));
        let count_line = text
            .lines()
            .find(|l| l.starts_with(&format!("rsb_store_{name}_count")))
            .unwrap();
        let inf_v: u64 = inf.rsplit(' ').next().unwrap().parse().unwrap();
        let count_v: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(inf_v, count_v);
    }
    store.shutdown();
}
