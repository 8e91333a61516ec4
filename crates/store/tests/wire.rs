//! Wire-codec tests: SplitMix64-fuzzed round-trips of every frame type,
//! plus rejection of truncated, oversized, zero-length, unknown-tag, and
//! bad-magic frames — always a clean [`StoreError::Decode`] (or `Io` for
//! mid-frame EOF), never a panic.

use rsb_store::frame::{
    decode_payload, encode_frame, read_frame, write_frame, Frame, WireOp, MAX_FRAME_LEN,
    WIRE_VERSION,
};
use rsb_store::{LatencyHistogram, OpCounters, ShardMetrics, StoreError, StoreMetrics};

/// SplitMix64 — the repo's standard deterministic fuzz generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_string(state: &mut u64, max_len: u64) -> String {
    let len = splitmix(state) % (max_len + 1);
    (0..len)
        .map(|_| char::from(b'a' + (splitmix(state) % 26) as u8))
        .collect()
}

fn random_bytes(state: &mut u64, max_len: u64) -> Vec<u8> {
    let len = splitmix(state) % (max_len + 1);
    (0..len).map(|_| (splitmix(state) & 0xff) as u8).collect()
}

fn random_error(state: &mut u64) -> StoreError {
    match splitmix(state) % 7 {
        0 => StoreError::ShutDown,
        1 => StoreError::Rejected(random_string(state, 40)),
        2 => StoreError::BadValueLength {
            got: (splitmix(state) % 10_000) as usize,
            want: (splitmix(state) % 10_000) as usize,
        },
        3 => StoreError::Io(random_string(state, 40)),
        4 => StoreError::Decode(random_string(state, 40)),
        5 => StoreError::ProtocolVersion {
            got: (splitmix(state) & 0xffff) as u16,
            want: (splitmix(state) & 0xffff) as u16,
        },
        _ => StoreError::Timeout,
    }
}

/// A valid histogram with up to `max_samples` random samples — built by
/// *recording*, so every occupied bucket has genuine log-linear bounds.
fn random_histogram(state: &mut u64, max_samples: u64) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    let samples = splitmix(state) % (max_samples + 1);
    for _ in 0..samples {
        // Skew toward small exponents but occasionally hit huge values.
        let shift = splitmix(state) % 64;
        h.record_ns(splitmix(state) >> shift);
    }
    h
}

fn random_counters(state: &mut u64) -> OpCounters {
    OpCounters {
        reads_submitted: splitmix(state),
        writes_submitted: splitmix(state),
        reads_completed: splitmix(state),
        writes_completed: splitmix(state),
        bytes_read: splitmix(state),
        bytes_written: splitmix(state),
        rejected: splitmix(state),
        truncated_records: splitmix(state),
        rematerialized: splitmix(state),
        evictions: splitmix(state),
    }
}

fn random_shard_metrics(state: &mut u64, shard: usize) -> ShardMetrics {
    ShardMetrics {
        shard,
        protocol: random_string(state, 16),
        keys: (splitmix(state) % 100_000) as usize,
        ops: random_counters(state),
        occupancy: rsb_fpsm::StorageCost {
            object_bits: splitmix(state),
            client_bits: splitmix(state),
            inflight_param_bits: splitmix(state),
            inflight_resp_bits: splitmix(state),
        },
        peak_register_bits: splitmix(state),
        live_records: splitmix(state),
        evicted_keys: (splitmix(state) % 100_000) as usize,
        snapshot_bits: splitmix(state),
        ready_keys: (splitmix(state) % 100_000) as usize,
        read_hit_latency: random_histogram(state, 40),
        read_remat_latency: random_histogram(state, 40),
        write_latency: random_histogram(state, 40),
        queue_wait: random_histogram(state, 40),
        execute: random_histogram(state, 40),
        wire: random_histogram(state, 40),
    }
}

fn random_store_metrics(state: &mut u64) -> StoreMetrics {
    let shards = (splitmix(state) % 5) as usize;
    StoreMetrics {
        shards: (0..shards)
            .map(|i| random_shard_metrics(state, i))
            .collect(),
    }
}

fn random_wire_op(state: &mut u64) -> WireOp {
    if splitmix(state).is_multiple_of(2) {
        WireOp::Read(random_string(state, 64))
    } else {
        WireOp::Write(random_string(state, 64), random_bytes(state, 256))
    }
}

fn random_wire_op_result(state: &mut u64) -> Result<Option<Vec<u8>>, StoreError> {
    match splitmix(state) % 3 {
        0 => Ok(Some(random_bytes(state, 256))),
        1 => Ok(None),
        _ => Err(random_error(state)),
    }
}

fn random_frame(state: &mut u64) -> Frame {
    match splitmix(state) % 13 {
        0 => Frame::Hello {
            version: (splitmix(state) & 0xffff) as u16,
        },
        1 => Frame::HelloAck {
            version: (splitmix(state) & 0xffff) as u16,
        },
        2 => Frame::ReadReq {
            id: splitmix(state),
            key: random_string(state, 64),
        },
        3 => Frame::WriteReq {
            id: splitmix(state),
            key: random_string(state, 64),
            value: random_bytes(state, 256),
        },
        4 => Frame::MetaReq {
            id: splitmix(state),
            key: random_string(state, 64),
        },
        5 => Frame::ReadResp {
            id: splitmix(state),
            value: random_bytes(state, 256),
        },
        6 => Frame::WriteResp {
            id: splitmix(state),
        },
        7 => Frame::MetaResp {
            id: splitmix(state),
            value_len: splitmix(state) as u32,
            protocol: random_string(state, 16),
        },
        8 => Frame::ErrorResp {
            id: splitmix(state),
            error: random_error(state),
        },
        9 => Frame::StatsReq {
            id: splitmix(state),
        },
        10 => Frame::StatsResp {
            id: splitmix(state),
            metrics: random_store_metrics(state),
        },
        11 => Frame::BatchReq {
            id: splitmix(state),
            ops: (0..=(splitmix(state) % 8))
                .map(|_| random_wire_op(state))
                .collect(),
        },
        _ => Frame::BatchResp {
            id: splitmix(state),
            results: (0..=(splitmix(state) % 8))
                .map(|_| random_wire_op_result(state))
                .collect(),
        },
    }
}

#[test]
fn fuzz_round_trips_every_frame_type() {
    let mut state = 0xE10_u64;
    let mut seen = [0u32; 13];
    for _ in 0..4000 {
        let frame = random_frame(&mut state);
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let decoded = read_frame(&mut buf.as_slice())
            .expect("well-formed frame decodes")
            .expect("frame present");
        assert_eq!(decoded, frame, "round-trip must be lossless");
        let tag = buf[4] as usize;
        seen[tag - 1] += 1;
    }
    assert!(
        seen.iter().all(|&c| c > 0),
        "fuzz covered every frame type: {seen:?}"
    );
}

#[test]
fn fuzz_round_trips_back_to_back_streams() {
    let mut state = 0xBEEF_u64;
    for _ in 0..50 {
        let frames: Vec<Frame> = (0..=(splitmix(&mut state) % 8))
            .map(|_| random_frame(&mut state))
            .collect();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("vec write");
        }
        let mut r = buf.as_slice();
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after frames");
    }
}

#[test]
fn every_truncation_of_every_frame_is_rejected_cleanly() {
    let mut state = 0x7_u64;
    for _ in 0..200 {
        let frame = random_frame(&mut state);
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Ok(None) => assert_eq!(cut, 0, "Ok(None) only before any byte"),
                Ok(Some(_)) => panic!("truncated frame decoded at cut {cut}"),
                Err(StoreError::Io(_) | StoreError::Decode(_)) => {}
                Err(other) => panic!("unexpected error {other:?} at cut {cut}"),
            }
        }
    }
}

#[test]
fn truncated_payloads_decode_to_errors_not_panics() {
    let mut state = 0x51_u64;
    for _ in 0..200 {
        let frame = random_frame(&mut state);
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let payload = &buf[4..];
        for cut in 0..payload.len() {
            assert!(
                matches!(decode_payload(&payload[..cut]), Err(StoreError::Decode(_))),
                "payload cut at {cut} must be a Decode error"
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut state = 0x99_u64;
    for _ in 0..100 {
        let frame = random_frame(&mut state);
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let mut payload = buf[4..].to_vec();
        payload.push(0xAA);
        assert!(matches!(
            decode_payload(&payload),
            Err(StoreError::Decode(_))
        ));
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    for len in [MAX_FRAME_LEN + 1, u32::MAX] {
        let mut buf = len.to_le_bytes().to_vec();
        buf.push(1);
        match read_frame(&mut buf.as_slice()) {
            Err(StoreError::Decode(msg)) => assert!(msg.contains("bound"), "got: {msg}"),
            other => panic!("oversized prefix must be a Decode error, got {other:?}"),
        }
    }
}

#[test]
fn zero_length_and_unknown_tag_frames_are_rejected() {
    assert!(matches!(
        read_frame(&mut [0u8, 0, 0, 0].as_slice()),
        Err(StoreError::Decode(_))
    ));
    // Tag 0 and tags past the last known one are both unknown.
    for tag in [0u8, 14, 0xFF] {
        let buf = [1u8, 0, 0, 0, tag];
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(StoreError::Decode(_))
        ));
    }
}

#[test]
fn zero_length_batches_are_rejected() {
    // A batch frame whose count field says zero operations (or zero
    // results) is meaningless; the decoder rejects it rather than
    // producing an empty batch that no submission path can create.
    let mut req = Vec::new();
    encode_frame(
        &Frame::BatchReq {
            id: 7,
            ops: vec![WireOp::Read("k".into())],
        },
        &mut req,
    );
    let mut resp = Vec::new();
    encode_frame(
        &Frame::BatchResp {
            id: 7,
            results: vec![Ok(None)],
        },
        &mut resp,
    );
    for mut buf in [req, resp] {
        // Zero the op-count field: it sits after the 4-byte length
        // prefix, the 1-byte tag, and the 8-byte id.
        buf[13] = 0;
        buf[14] = 0;
        // The frame now carries trailing op bytes past a zero count, so
        // truncate to just header + id + count as well to exercise the
        // pure empty-batch path.
        let mut short = buf[..15].to_vec();
        short[0..4].copy_from_slice(&u32::to_le_bytes(11));
        for candidate in [buf, short] {
            match read_frame(&mut candidate.as_slice()) {
                Err(StoreError::Decode(msg)) => {
                    assert!(msg.contains("empty batch"), "got: {msg}");
                }
                other => panic!("zero-count batch must be a Decode error, got {other:?}"),
            }
        }
    }
}

#[test]
fn oversized_batch_counts_never_preallocate() {
    // A hostile count field far past the actual payload must fail
    // cleanly (the decoder grows vectors as it parses, so the huge
    // count can't drive a pre-allocation).
    let mut buf = Vec::new();
    encode_frame(
        &Frame::BatchReq {
            id: 1,
            ops: vec![WireOp::Read("k".into())],
        },
        &mut buf,
    );
    buf[13] = 0xFF;
    buf[14] = 0xFF;
    assert!(matches!(
        read_frame(&mut buf.as_slice()),
        Err(StoreError::Decode(_))
    ));
}

#[test]
fn corrupted_stats_frames_never_panic() {
    // Stats responses carry the deepest nested payload on the wire
    // (shards → counters → histogram bucket triples). Flip every byte
    // of a few encoded frames: decode must return Ok or a clean Decode
    // error — never panic, never violate histogram bucket invariants.
    let mut state = 0xCAFE_u64;
    for _ in 0..8 {
        let frame = Frame::StatsResp {
            id: splitmix(&mut state),
            metrics: random_store_metrics(&mut state),
        };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let payload = buf[4..].to_vec();
        for i in 0..payload.len() {
            let mut bent = payload.clone();
            bent[i] ^= 0xFF;
            if let Ok(Frame::StatsResp { metrics, .. }) = decode_payload(&bent) {
                // A flip that still decodes must still satisfy the
                // histogram invariant the decoder enforces.
                for sh in &metrics.shards {
                    for h in [&sh.read_hit_latency, &sh.queue_wait, &sh.wire] {
                        let mut last_hi = 0;
                        for (lo, hi, count) in h.buckets() {
                            assert!(lo < hi && count > 0 && lo >= last_hi);
                            last_hi = hi;
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn stats_body_with_the_previous_counter_count_does_not_decode() {
    // Dropping the four scheduling counters made the counter block 12
    // words. A body laid out the old way (16) must fail to decode rather
    // than shift every later field by four — which is why the removal
    // bumped `WIRE_VERSION`.
    let mut state = 0x1A_u64;
    let mut shard = random_shard_metrics(&mut state, 0);
    shard.protocol = "abd".into();
    let frame = Frame::StatsResp {
        id: 1,
        metrics: StoreMetrics {
            shards: vec![shard],
        },
    };
    let mut buf = Vec::new();
    encode_frame(&frame, &mut buf);
    let payload = &buf[4..];
    assert_eq!(decode_payload(payload), Ok(frame));
    // tag, id, shard count, shard index, str16 "abd", keys — then counters.
    let counters_at = 1 + 8 + 4 + 8 + (2 + 3) + 8;
    let mut old_layout = payload.to_vec();
    old_layout.splice(counters_at..counters_at, [0u8; 4 * 8]);
    assert!(matches!(
        decode_payload(&old_layout),
        Err(StoreError::Decode(_))
    ));
}

#[test]
fn hello_with_bad_magic_is_rejected() {
    let mut buf = Vec::new();
    encode_frame(
        &Frame::Hello {
            version: WIRE_VERSION,
        },
        &mut buf,
    );
    buf[5] = b'X'; // corrupt the magic
    assert!(matches!(
        read_frame(&mut buf.as_slice()),
        Err(StoreError::Decode(_))
    ));
}

#[test]
fn every_error_code_round_trips_exactly() {
    let cases = [
        StoreError::ShutDown,
        StoreError::Rejected("nope".into()),
        StoreError::BadValueLength { got: 3, want: 64 },
        StoreError::Io("broken pipe".into()),
        StoreError::Decode("garbage".into()),
        StoreError::ProtocolVersion { got: 2, want: 1 },
        StoreError::Timeout,
    ];
    for error in cases {
        let frame = Frame::ErrorResp {
            id: 9,
            error: error.clone(),
        };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap().unwrap(), frame);
    }
}

#[test]
fn local_only_config_error_folds_to_rejected_on_the_wire() {
    let error = StoreError::Config(rsb_store::StoreConfigError::ZeroBacklog);
    let mut buf = Vec::new();
    encode_frame(&Frame::ErrorResp { id: 1, error }, &mut buf);
    match read_frame(&mut buf.as_slice()).unwrap().unwrap() {
        Frame::ErrorResp {
            error: StoreError::Rejected(msg),
            ..
        } => assert!(msg.contains("backlog"), "folded message: {msg}"),
        other => panic!("expected a folded Rejected, got {other:?}"),
    }
}
