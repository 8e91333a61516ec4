//! The wire codec: versioned, length-prefixed binary frames.
//!
//! Every frame on the wire is `[len: u32 LE][tag: u8][body…]`, where
//! `len` counts the tag byte plus the body. Integers are little-endian;
//! strings are length-prefixed UTF-8. The protocol is versioned through
//! the [`Frame::Hello`]/[`Frame::HelloAck`] handshake (the hello also
//! carries a magic so a socket speaking something else entirely fails
//! with a clean [`StoreError::Decode`] instead of garbage):
//!
//! | frame       | dir | body |
//! |-------------|-----|------|
//! | `Hello`     | c→s | magic `RSBW`, `version: u16` |
//! | `HelloAck`  | s→c | `version: u16` |
//! | `ReadReq`   | c→s | `id: u64`, `key: str16` |
//! | `WriteReq`  | c→s | `id: u64`, `key: str16`, `value: bytes32` |
//! | `MetaReq`   | c→s | `id: u64`, `key: str16` |
//! | `ReadResp`  | s→c | `id: u64`, `value: bytes32` |
//! | `WriteResp` | s→c | `id: u64` |
//! | `MetaResp`  | s→c | `id: u64`, `value_len: u32`, `protocol: str16` |
//! | `ErrorResp` | s→c | `id: u64`, `code: u8`, `a: u64`, `b: u64`, `msg: str16` |
//! | `StatsReq`  | c→s | `id: u64` |
//! | `StatsResp` | s→c | `id: u64`, `shard_count: u32`, shards… |
//! | `BatchReq`  | c→s | `id: u64`, `count: u16`, then per op: `kind: u8` (0 = read, 1 = write), `key: str16`, and for writes `value: bytes32` |
//! | `BatchResp` | s→c | `id: u64`, `count: u16`, then per op: `status: u8` — 0 = read value (`bytes32`), 1 = write ack, 2 = error (`code: u8`, `a: u64`, `b: u64`, `msg: str16`) |
//!
//! (`str16` = `u16` length + bytes; `bytes32` = `u32` length + bytes.)
//!
//! A batch carries up to `u16::MAX` operations in one frame and its
//! response carries one result per operation *in submission order*; an
//! empty batch is a decode error, so the degenerate frame never reaches
//! the store.
//!
//! A `StatsResp` shard body is `shard: u64`, `protocol: str16`,
//! `keys: u64`, the 10 operation counters as `u64`s, the 4 storage-cost
//! components, 5 `u64` occupancy gauges, then 6 latency histograms, each
//! a `u16` entry count followed by `(lo_ns: u64, hi_ns: u64, count:
//! u64)` triples — bucket bounds travel explicitly, so a scraper needs
//! no knowledge of the server's bucketing scheme, and the decoder
//! re-validates each pair against its own.
//!
//! Decoding is total: truncated, oversized, trailing-garbage, and
//! unknown-tag frames all return [`StoreError::Decode`] — never a panic
//! — and the length prefix is bounded by [`MAX_FRAME_LEN`] before any
//! allocation, so a hostile peer cannot make the decoder reserve
//! gigabytes.

use crate::metrics::{LatencyHistogram, OpCounters, ShardMetrics, StoreMetrics};
use crate::store::StoreError;
use rsb_fpsm::StorageCost;
use std::io::{Read, Write};

/// Wire-protocol version carried in the hello handshake. Bump on any
/// incompatible frame change; the server rejects mismatches with
/// [`StoreError::ProtocolVersion`].
pub const WIRE_VERSION: u16 = 5;

/// Magic prefix of the client hello, so a peer speaking a different
/// protocol is rejected at the first frame.
pub const WIRE_MAGIC: [u8; 4] = *b"RSBW";

/// Upper bound on one frame's `len` field (tag + body). Larger prefixes
/// are rejected before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Upper bound on a key's byte length on the wire (`str16`).
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_READ_REQ: u8 = 3;
const TAG_WRITE_REQ: u8 = 4;
const TAG_META_REQ: u8 = 5;
const TAG_READ_RESP: u8 = 6;
const TAG_WRITE_RESP: u8 = 7;
const TAG_META_RESP: u8 = 8;
const TAG_ERROR_RESP: u8 = 9;
const TAG_STATS_REQ: u8 = 10;
const TAG_STATS_RESP: u8 = 11;
const TAG_BATCH_REQ: u8 = 12;
const TAG_BATCH_RESP: u8 = 13;

const BATCH_KIND_READ: u8 = 0;
const BATCH_KIND_WRITE: u8 = 1;

const BATCH_STATUS_READ: u8 = 0;
const BATCH_STATUS_WRITE: u8 = 1;
const BATCH_STATUS_ERROR: u8 = 2;

const ERR_SHUT_DOWN: u8 = 0;
const ERR_REJECTED: u8 = 1;
const ERR_BAD_VALUE_LENGTH: u8 = 2;
const ERR_IO: u8 = 3;
const ERR_DECODE: u8 = 4;
const ERR_PROTOCOL_VERSION: u8 = 5;
const ERR_TIMEOUT: u8 = 6;

/// One operation inside a [`Frame::BatchReq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOp {
    /// `read(key)`.
    Read(String),
    /// `write(key, value)`.
    Write(String, Vec<u8>),
}

impl WireOp {
    /// The key this operation targets.
    pub fn key(&self) -> &str {
        match self {
            WireOp::Read(key) | WireOp::Write(key, _) => key,
        }
    }
}

/// One per-op outcome inside a [`Frame::BatchResp`]: `Some(value)` for a
/// completed read, `None` for a write acknowledgement.
pub type WireOpResult = Result<Option<Vec<u8>>, StoreError>;

/// One protocol frame (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client hello: magic + the client's wire version.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Server accept: the server's wire version (== the client's).
    HelloAck {
        /// The server's [`WIRE_VERSION`].
        version: u16,
    },
    /// `read(key)` request.
    ReadReq {
        /// Per-connection request id, echoed by the response.
        id: u64,
        /// The key to read.
        key: String,
    },
    /// `write(key, value)` request.
    WriteReq {
        /// Per-connection request id, echoed by the response.
        id: u64,
        /// The key to write.
        key: String,
        /// The value payload.
        value: Vec<u8>,
    },
    /// Key metadata request (value length + shard protocol).
    MetaReq {
        /// Per-connection request id, echoed by the response.
        id: u64,
        /// The key whose shard is described.
        key: String,
    },
    /// Successful read completion.
    ReadResp {
        /// The request id this responds to.
        id: u64,
        /// The value read.
        value: Vec<u8>,
    },
    /// Successful write acknowledgement.
    WriteResp {
        /// The request id this responds to.
        id: u64,
    },
    /// Key metadata response.
    MetaResp {
        /// The request id this responds to.
        id: u64,
        /// The value length the key's shard expects for writes.
        value_len: u32,
        /// The register protocol name of the key's shard.
        protocol: String,
    },
    /// Failed completion (any request kind), or — with `id == 0` before
    /// any request was accepted — a connection-level rejection (version
    /// mismatch, capacity, handshake garbage).
    ErrorResp {
        /// The request id this responds to (0 for connection-level).
        id: u64,
        /// The failure, folded into the unified client error type.
        error: StoreError,
    },
    /// Store-wide metrics scrape request.
    StatsReq {
        /// Per-connection request id, echoed by the response.
        id: u64,
    },
    /// Metrics snapshot response: the server's full [`StoreMetrics`],
    /// counters and histograms included, with explicit bucket bounds.
    StatsResp {
        /// The request id this responds to.
        id: u64,
        /// The snapshot, identical to what
        /// [`Store::metrics`](crate::Store::metrics) returns in-process.
        metrics: StoreMetrics,
    },
    /// A batch of operations submitted in one transport round. The
    /// server answers with exactly one [`Frame::BatchResp`] carrying one
    /// result per operation, in order. At most `u16::MAX` operations;
    /// an empty batch never decodes.
    BatchReq {
        /// Per-connection request id, echoed by the response.
        id: u64,
        /// The operations, in submission order.
        ops: Vec<WireOp>,
    },
    /// The vectored response to a [`Frame::BatchReq`]: per-op outcomes
    /// in the batch's submission order (individual failures travel
    /// inline — one slow or rejected op never poisons its batchmates).
    BatchResp {
        /// The request id this responds to.
        id: u64,
        /// One outcome per submitted op, in order.
        results: Vec<WireOpResult>,
    },
}

impl Frame {
    /// Short stable name of the frame type (diagnostics, tests).
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello-ack",
            Frame::ReadReq { .. } => "read-req",
            Frame::WriteReq { .. } => "write-req",
            Frame::MetaReq { .. } => "meta-req",
            Frame::ReadResp { .. } => "read-resp",
            Frame::WriteResp { .. } => "write-resp",
            Frame::MetaResp { .. } => "meta-resp",
            Frame::ErrorResp { .. } => "error-resp",
            Frame::StatsReq { .. } => "stats-req",
            Frame::StatsResp { .. } => "stats-resp",
            Frame::BatchReq { .. } => "batch-req",
            Frame::BatchResp { .. } => "batch-resp",
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    debug_assert!(u16::try_from(s.len()).is_ok(), "str16 overflow");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes32(out: &mut Vec<u8>, b: &[u8]) {
    debug_assert!(u32::try_from(b.len()).is_ok(), "bytes32 overflow");
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// (code, a, b, message) wire representation of a [`StoreError`].
///
/// Every transport-visible variant has its own code; the local-only
/// [`StoreError::Config`] never legitimately crosses the wire and is
/// folded into `Rejected(msg)` (the remote client can not act on a
/// server-side configuration type anyway).
fn error_parts(err: &StoreError) -> (u8, u64, u64, String) {
    match err {
        StoreError::ShutDown => (ERR_SHUT_DOWN, 0, 0, String::new()),
        StoreError::Rejected(msg) => (ERR_REJECTED, 0, 0, msg.clone()),
        StoreError::BadValueLength { got, want } => (
            ERR_BAD_VALUE_LENGTH,
            *got as u64,
            *want as u64,
            String::new(),
        ),
        StoreError::Io(msg) => (ERR_IO, 0, 0, msg.clone()),
        StoreError::Decode(msg) => (ERR_DECODE, 0, 0, msg.clone()),
        StoreError::ProtocolVersion { got, want } => (
            ERR_PROTOCOL_VERSION,
            u64::from(*got),
            u64::from(*want),
            String::new(),
        ),
        StoreError::Timeout => (ERR_TIMEOUT, 0, 0, String::new()),
        StoreError::Config(e) => (ERR_REJECTED, 0, 0, e.to_string()),
    }
}

fn error_from_parts(code: u8, a: u64, b: u64, msg: String) -> Result<StoreError, StoreError> {
    Ok(match code {
        ERR_SHUT_DOWN => StoreError::ShutDown,
        ERR_REJECTED => StoreError::Rejected(msg),
        ERR_BAD_VALUE_LENGTH => StoreError::BadValueLength {
            got: a as usize,
            want: b as usize,
        },
        ERR_IO => StoreError::Io(msg),
        ERR_DECODE => StoreError::Decode(msg),
        ERR_PROTOCOL_VERSION => StoreError::ProtocolVersion {
            got: a as u16,
            want: b as u16,
        },
        ERR_TIMEOUT => StoreError::Timeout,
        other => return Err(decode_err(format!("unknown error code {other}"))),
    })
}

fn decode_err(msg: impl Into<String>) -> StoreError {
    StoreError::Decode(msg.into())
}

fn put_histogram(out: &mut Vec<u8>, h: &LatencyHistogram) {
    let entries = h.buckets().count() as u16; // occupied buckets only
    put_u16(out, entries);
    for (lo, hi, count) in h.buckets() {
        put_u64(out, lo);
        put_u64(out, hi);
        put_u64(out, count);
    }
}

fn put_counters(out: &mut Vec<u8>, t: &OpCounters) {
    for v in [
        t.reads_submitted,
        t.writes_submitted,
        t.reads_completed,
        t.writes_completed,
        t.bytes_read,
        t.bytes_written,
        t.rejected,
        t.truncated_records,
        t.rematerialized,
        t.evictions,
    ] {
        put_u64(out, v);
    }
}

fn put_shard_metrics(out: &mut Vec<u8>, s: &ShardMetrics) {
    put_u64(out, s.shard as u64);
    put_str16(out, &s.protocol);
    put_u64(out, s.keys as u64);
    put_counters(out, &s.ops);
    put_u64(out, s.occupancy.object_bits);
    put_u64(out, s.occupancy.client_bits);
    put_u64(out, s.occupancy.inflight_param_bits);
    put_u64(out, s.occupancy.inflight_resp_bits);
    put_u64(out, s.peak_register_bits);
    put_u64(out, s.live_records);
    put_u64(out, s.evicted_keys as u64);
    put_u64(out, s.snapshot_bits);
    put_u64(out, s.ready_keys as u64);
    for h in [
        &s.read_hit_latency,
        &s.read_remat_latency,
        &s.write_latency,
        &s.queue_wait,
        &s.execute,
        &s.wire,
    ] {
        put_histogram(out, h);
    }
}

/// A bounds-checked little-endian cursor over one frame's payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| decode_err("truncated frame"))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| decode_err("truncated frame"))?;
        self.pos = end;
        Ok(slice)
    }

    /// Fixed-width read as an array, with the length mismatch surfaced
    /// as a decode error — untrusted input never reaches a panic path.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        self.take(N)?
            .try_into()
            .map_err(|_| decode_err("truncated frame"))
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str16(&mut self) -> Result<String, StoreError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| decode_err("non-UTF-8 string field"))
    }

    fn bytes32(&mut self) -> Result<Vec<u8>, StoreError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(decode_err(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            )))
        }
    }

    fn usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.u64()?).map_err(|_| decode_err("count overflows usize"))
    }

    fn histogram(&mut self) -> Result<LatencyHistogram, StoreError> {
        let entries = self.u16()?;
        let mut h = LatencyHistogram::default();
        for _ in 0..entries {
            let lo = self.u64()?;
            let hi = self.u64()?;
            let count = self.u64()?;
            if count == 0 {
                return Err(decode_err("histogram entry with zero count"));
            }
            if !h.add_bucket(lo, hi, count) {
                return Err(decode_err(format!(
                    "histogram entry [{lo}, {hi}) is not a bucket boundary"
                )));
            }
        }
        Ok(h)
    }

    fn counters(&mut self) -> Result<OpCounters, StoreError> {
        Ok(OpCounters {
            reads_submitted: self.u64()?,
            writes_submitted: self.u64()?,
            reads_completed: self.u64()?,
            writes_completed: self.u64()?,
            bytes_read: self.u64()?,
            bytes_written: self.u64()?,
            rejected: self.u64()?,
            truncated_records: self.u64()?,
            rematerialized: self.u64()?,
            evictions: self.u64()?,
        })
    }

    fn shard_metrics(&mut self) -> Result<ShardMetrics, StoreError> {
        Ok(ShardMetrics {
            shard: self.usize()?,
            protocol: self.str16()?,
            keys: self.usize()?,
            ops: self.counters()?,
            occupancy: StorageCost {
                object_bits: self.u64()?,
                client_bits: self.u64()?,
                inflight_param_bits: self.u64()?,
                inflight_resp_bits: self.u64()?,
            },
            peak_register_bits: self.u64()?,
            live_records: self.u64()?,
            evicted_keys: self.usize()?,
            snapshot_bits: self.u64()?,
            ready_keys: self.usize()?,
            read_hit_latency: self.histogram()?,
            read_remat_latency: self.histogram()?,
            write_latency: self.histogram()?,
            queue_wait: self.histogram()?,
            execute: self.histogram()?,
            wire: self.histogram()?,
        })
    }
}

/// Appends one frame — `[len][tag][body]` — to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let len_at = out.len();
    put_u32(out, 0); // patched below
    match frame {
        Frame::Hello { version } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&WIRE_MAGIC);
            put_u16(out, *version);
        }
        Frame::HelloAck { version } => {
            out.push(TAG_HELLO_ACK);
            put_u16(out, *version);
        }
        Frame::ReadReq { id, key } => {
            out.push(TAG_READ_REQ);
            put_u64(out, *id);
            put_str16(out, key);
        }
        Frame::WriteReq { id, key, value } => {
            out.push(TAG_WRITE_REQ);
            put_u64(out, *id);
            put_str16(out, key);
            put_bytes32(out, value);
        }
        Frame::MetaReq { id, key } => {
            out.push(TAG_META_REQ);
            put_u64(out, *id);
            put_str16(out, key);
        }
        Frame::ReadResp { id, value } => {
            out.push(TAG_READ_RESP);
            put_u64(out, *id);
            put_bytes32(out, value);
        }
        Frame::WriteResp { id } => {
            out.push(TAG_WRITE_RESP);
            put_u64(out, *id);
        }
        Frame::MetaResp {
            id,
            value_len,
            protocol,
        } => {
            out.push(TAG_META_RESP);
            put_u64(out, *id);
            put_u32(out, *value_len);
            put_str16(out, protocol);
        }
        Frame::ErrorResp { id, error } => {
            let (code, a, b, msg) = error_parts(error);
            out.push(TAG_ERROR_RESP);
            put_u64(out, *id);
            out.push(code);
            put_u64(out, a);
            put_u64(out, b);
            put_str16(out, &msg);
        }
        Frame::StatsReq { id } => {
            out.push(TAG_STATS_REQ);
            put_u64(out, *id);
        }
        Frame::StatsResp { id, metrics } => {
            out.push(TAG_STATS_RESP);
            put_u64(out, *id);
            put_u32(out, metrics.shards.len() as u32);
            for s in &metrics.shards {
                put_shard_metrics(out, s);
            }
        }
        Frame::BatchReq { id, ops } => {
            debug_assert!(!ops.is_empty(), "empty batch frame");
            debug_assert!(u16::try_from(ops.len()).is_ok(), "batch count overflow");
            out.push(TAG_BATCH_REQ);
            put_u64(out, *id);
            put_u16(out, ops.len() as u16);
            for op in ops {
                match op {
                    WireOp::Read(key) => {
                        out.push(BATCH_KIND_READ);
                        put_str16(out, key);
                    }
                    WireOp::Write(key, value) => {
                        out.push(BATCH_KIND_WRITE);
                        put_str16(out, key);
                        put_bytes32(out, value);
                    }
                }
            }
        }
        Frame::BatchResp { id, results } => {
            debug_assert!(!results.is_empty(), "empty batch response");
            debug_assert!(u16::try_from(results.len()).is_ok(), "batch count overflow");
            out.push(TAG_BATCH_RESP);
            put_u64(out, *id);
            put_u16(out, results.len() as u16);
            for result in results {
                match result {
                    Ok(Some(value)) => {
                        out.push(BATCH_STATUS_READ);
                        put_bytes32(out, value);
                    }
                    Ok(None) => out.push(BATCH_STATUS_WRITE),
                    Err(error) => {
                        let (code, a, b, msg) = error_parts(error);
                        out.push(BATCH_STATUS_ERROR);
                        out.push(code);
                        put_u64(out, a);
                        put_u64(out, b);
                        put_str16(out, &msg);
                    }
                }
            }
        }
    }
    let frame_len = (out.len() - len_at - 4) as u32;
    debug_assert!(
        frame_len <= MAX_FRAME_LEN,
        "encoded frame exceeds MAX_FRAME_LEN"
    );
    match out.get_mut(len_at..len_at + 4) {
        Some(slot) => slot.copy_from_slice(&frame_len.to_le_bytes()),
        // audit:allow(panic-path) — `len_at..len_at + 4` was reserved by
        // the `extend_from_slice` above and `out` only grows, so the slice
        // is always in bounds.
        None => unreachable!("length slot was reserved above"),
    }
}

/// Decodes one frame payload (`[tag][body]`, the bytes the length prefix
/// counted).
///
/// # Errors
///
/// [`StoreError::Decode`] on truncation, trailing bytes, unknown tags,
/// bad magic, or malformed string fields — never a panic.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, StoreError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let tag = c.u8()?;
    let frame = match tag {
        TAG_HELLO => {
            let magic = c.take(4)?;
            if magic != WIRE_MAGIC {
                return Err(decode_err("bad hello magic"));
            }
            Frame::Hello { version: c.u16()? }
        }
        TAG_HELLO_ACK => Frame::HelloAck { version: c.u16()? },
        TAG_READ_REQ => Frame::ReadReq {
            id: c.u64()?,
            key: c.str16()?,
        },
        TAG_WRITE_REQ => Frame::WriteReq {
            id: c.u64()?,
            key: c.str16()?,
            value: c.bytes32()?,
        },
        TAG_META_REQ => Frame::MetaReq {
            id: c.u64()?,
            key: c.str16()?,
        },
        TAG_READ_RESP => Frame::ReadResp {
            id: c.u64()?,
            value: c.bytes32()?,
        },
        TAG_WRITE_RESP => Frame::WriteResp { id: c.u64()? },
        TAG_META_RESP => Frame::MetaResp {
            id: c.u64()?,
            value_len: c.u32()?,
            protocol: c.str16()?,
        },
        TAG_ERROR_RESP => {
            let id = c.u64()?;
            let code = c.u8()?;
            let a = c.u64()?;
            let b = c.u64()?;
            let msg = c.str16()?;
            Frame::ErrorResp {
                id,
                error: error_from_parts(code, a, b, msg)?,
            }
        }
        TAG_STATS_REQ => Frame::StatsReq { id: c.u64()? },
        TAG_STATS_RESP => {
            let id = c.u64()?;
            let shard_count = c.u32()?;
            // No `with_capacity(shard_count)`: a hostile count must not
            // drive an allocation — growth is bounded by real bytes.
            let mut shards = Vec::new();
            for _ in 0..shard_count {
                shards.push(c.shard_metrics()?);
            }
            Frame::StatsResp {
                id,
                metrics: StoreMetrics { shards },
            }
        }
        TAG_BATCH_REQ => {
            let id = c.u64()?;
            let count = c.u16()?;
            if count == 0 {
                return Err(decode_err("empty batch"));
            }
            // No `with_capacity(count)`: a hostile count must not drive
            // an allocation — growth is bounded by real bytes.
            let mut ops = Vec::new();
            for _ in 0..count {
                let op = match c.u8()? {
                    BATCH_KIND_READ => WireOp::Read(c.str16()?),
                    BATCH_KIND_WRITE => WireOp::Write(c.str16()?, c.bytes32()?),
                    other => return Err(decode_err(format!("unknown batch op kind {other}"))),
                };
                ops.push(op);
            }
            Frame::BatchReq { id, ops }
        }
        TAG_BATCH_RESP => {
            let id = c.u64()?;
            let count = c.u16()?;
            if count == 0 {
                return Err(decode_err("empty batch response"));
            }
            let mut results = Vec::new();
            for _ in 0..count {
                let result = match c.u8()? {
                    BATCH_STATUS_READ => Ok(Some(c.bytes32()?)),
                    BATCH_STATUS_WRITE => Ok(None),
                    BATCH_STATUS_ERROR => {
                        let code = c.u8()?;
                        let a = c.u64()?;
                        let b = c.u64()?;
                        let msg = c.str16()?;
                        Err(error_from_parts(code, a, b, msg)?)
                    }
                    other => return Err(decode_err(format!("unknown batch status {other}"))),
                };
                results.push(result);
            }
            Frame::BatchResp { id, results }
        }
        other => return Err(decode_err(format!("unknown frame tag {other}"))),
    };
    c.finish()?;
    Ok(frame)
}

/// A frame buffer kept from one frame to the next is let go once it has
/// grown past this, so one huge frame does not pin its size to the
/// connection for good; larger frames allocate per frame.
const MAX_KEPT_BUF: usize = 1 << 20;

/// The write half of a connection with its encode buffer, reused from
/// frame to frame.
#[derive(Debug)]
pub(crate) struct FrameWriter<W> {
    stream: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    pub(crate) fn new(stream: W) -> Self {
        FrameWriter {
            stream,
            buf: Vec::new(),
        }
    }

    pub(crate) fn stream(&self) -> &W {
        &self.stream
    }

    /// Writes one frame (single `write_all`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the peer is gone or the write fails.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<(), StoreError> {
        self.buf.clear();
        encode_frame(frame, &mut self.buf);
        let written = self
            .stream
            .write_all(&self.buf)
            .map_err(|e| StoreError::Io(e.to_string()));
        if self.buf.capacity() > MAX_KEPT_BUF {
            self.buf = Vec::new();
        }
        written
    }
}

/// Writes one frame to a stream (single `write_all`, then flush is the
/// caller's choice — `TcpStream` is unbuffered so no flush is needed).
///
/// # Errors
///
/// [`StoreError::Io`] when the peer is gone or the write fails.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), StoreError> {
    let buf = Vec::with_capacity(64);
    FrameWriter { stream: w, buf }.send(frame)
}

/// Why no frame was read.
#[derive(Debug)]
pub(crate) enum ReadStop {
    /// The peer closed before any byte of a next frame.
    Closed,
    /// The stream's read timeout passed before any byte of a next frame:
    /// the stream is still in step.
    Idle(std::io::Error),
    /// Anything else; the stream cannot be read further.
    Failed(StoreError),
}

/// The read half of a connection with its payload buffer, reused from
/// frame to frame: grown as needed and never cleared, since each frame
/// overwrites the bytes it uses.
#[derive(Debug)]
pub(crate) struct FrameReader<R> {
    stream: R,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(stream: R) -> Self {
        FrameReader {
            stream,
            payload: Vec::new(),
        }
    }

    pub(crate) fn stream(&self) -> &R {
        &self.stream
    }

    /// [`FrameReader::next`] the way [`read_frame`] reports it: a clean
    /// close is `Ok(None)`, every other stop an error.
    pub(crate) fn next_or_end(&mut self) -> Result<Option<Frame>, StoreError> {
        match self.next() {
            Ok(frame) => Ok(Some(frame)),
            Err(ReadStop::Closed) => Ok(None),
            Err(ReadStop::Idle(e)) => Err(StoreError::Io(e.to_string())),
            Err(ReadStop::Failed(e)) => Err(e),
        }
    }

    /// Reads one frame, telling a close or a timeout *between* frames
    /// from one inside a frame.
    pub(crate) fn next(&mut self) -> Result<Frame, ReadStop> {
        let io = |e: std::io::Error| ReadStop::Failed(StoreError::Io(e.to_string()));
        let mid_frame = || ReadStop::Failed(StoreError::Io("connection closed mid-frame".into()));
        let mut len_buf = [0u8; 4];
        // Hand-rolled first-byte read so that whether any byte of the
        // frame has arrived is known when the read stops.
        let mut got = 0;
        while let Some(dst) = len_buf.get_mut(got..).filter(|d| !d.is_empty()) {
            match self.stream.read(dst) {
                Ok(0) if got == 0 => return Err(ReadStop::Closed),
                Ok(0) => return Err(mid_frame()),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if got == 0 && is_timeout(&e) => return Err(ReadStop::Idle(e)),
                Err(e) => return Err(io(e)),
            }
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 {
            return Err(ReadStop::Failed(decode_err("zero-length frame")));
        }
        if len > MAX_FRAME_LEN {
            return Err(ReadStop::Failed(decode_err(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
            ))));
        }
        let len = len as usize;
        if self.payload.len() < len {
            self.payload.resize(len, 0);
        }
        let body = self
            .payload
            .get_mut(..len)
            .ok_or_else(|| ReadStop::Failed(decode_err("frame buffer shorter than its frame")))?;
        self.stream.read_exact(body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                mid_frame()
            } else {
                io(e)
            }
        })?;
        let frame = decode_payload(body).map_err(ReadStop::Failed);
        if self.payload.capacity() > MAX_KEPT_BUF {
            self.payload = Vec::new();
        }
        frame
    }
}

/// Whether a read failed because the stream's read timeout passed.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one frame from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed before
/// any byte of a next frame).
///
/// # Errors
///
/// [`StoreError::Io`] on mid-frame EOF or socket errors,
/// [`StoreError::Decode`] on an oversized length prefix or a malformed
/// payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, StoreError> {
    FrameReader::new(r).next_or_end()
}
