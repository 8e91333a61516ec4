//! The client side of the wire: a [`TcpTransport`] speaking the
//! length-prefixed frame protocol over one `TcpStream`, with no thread
//! of its own.
//!
//! The caller drives its connection. A submission takes the writer
//! lock, appends one slot to the connection's in-order
//! [`ReplyQueue`] — the slot's position is the request id, a batch is
//! one slot with one part per operation — and writes the frame from the
//! connection's encode buffer. The ticket that comes back is
//! `(connection, request id, part)`. Waiting on it, or polling it, looks
//! in the queue: the reply is there — take it; nobody is reading the
//! socket — read it, file each reply under the oldest unanswered
//! request after checking that its id is that request's, until the
//! ticket's own reply arrives; somebody is reading — sleep until they
//! hand over, or leave a waker. So a connection with one user costs two
//! thread wake-ups per round trip (the server's and the caller's own),
//! the echo floor; a connection shared by many threads has, at any
//! moment, one of them reading on behalf of the rest.
//!
//! **Polling may block.** A `poll` that finds nobody reading reads, for
//! up to one reply or the configured timeout — the stance
//! [`Loopback`](super::Loopback) already takes by running the whole
//! operation inside `submit`. There is no background thread to make
//! progress otherwise.
//!
//! A submitter more than `MAX_IN_FLIGHT` unanswered requests ahead
//! reads replies before it writes more, so what a caller can pile up —
//! including requests whose tickets it dropped or that timed out — is
//! bounded. The window counts requests, not bytes: one thread that
//! pipelines more than the socket buffers hold *in both directions*
//! (large writes interleaved with large reads) without ever waiting can
//! still stall against a server blocked in `write`; the configured
//! timeout, which bounds socket writes too, turns that into an error.
//!
//! When the connection dies (server gone, the server's connection-level
//! error frame, a reply out of order, decode failure, socket error, a
//! timeout inside a frame) every unanswered operation fails with the
//! connection's terminal [`StoreError`], and later submissions fail
//! fast with a clone of it.

use super::frame::{Frame, FrameReader, FrameWriter, ReadStop, WireOp, WIRE_VERSION};
use super::replies::{NextReply, ReplyQueue};
use super::{value_from_wire, KeyMeta, OpTicket, Transport};
use crate::metrics::StoreMetrics;
use crate::store::{BatchOp, StoreError};
use rsb_fpsm::{OpRequest, OpResult};
use rsb_registers::lockorder::{ranks, tracked_lock};
use std::io::BufReader;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// How many unanswered requests a connection carries before a submitter
/// reads replies instead of writing more.
const MAX_IN_FLIGHT: usize = 256;

/// `parts` of a ticket for a single-operation frame (a batch has ≥ 1).
const SINGLE: u16 = 0;

type Reader = FrameReader<BufReader<TcpStream>>;

fn io_err(e: &std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// The id a response frame answers; `None` for frames only a client
/// sends.
fn reply_id(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::ReadResp { id, .. }
        | Frame::WriteResp { id }
        | Frame::MetaResp { id, .. }
        | Frame::ErrorResp { id, .. }
        | Frame::StatsResp { id, .. }
        | Frame::BatchResp { id, .. } => Some(*id),
        Frame::Hello { .. }
        | Frame::HelloAck { .. }
        | Frame::ReadReq { .. }
        | Frame::WriteReq { .. }
        | Frame::MetaReq { .. }
        | Frame::StatsReq { .. }
        | Frame::BatchReq { .. } => None,
    }
}

/// Reads the next reply off the socket, giving up at `deadline` if the
/// stream is idle until then. A deadline that passes *inside* a frame
/// leaves the stream out of step and is fatal, like any other failure.
fn next_reply(reader: &mut Reader, deadline: Option<Instant>) -> NextReply<Frame> {
    if let Some(deadline) = deadline {
        // Zero would mean "no timeout" to the socket.
        let left = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        if let Err(e) = reader.stream().get_ref().set_read_timeout(Some(left)) {
            return NextReply::Dead(io_err(&e));
        }
    }
    match reader.next() {
        // The server's parting word on a connection it is closing: a
        // decode error or protocol violation of ours, named.
        Ok(Frame::ErrorResp { id: 0, error }) => NextReply::Dead(error),
        Ok(frame) => match reply_id(&frame) {
            Some(id) => NextReply::Reply(id, frame),
            None => NextReply::Dead(StoreError::Decode(format!(
                "unexpected {} frame from server",
                frame.kind()
            ))),
        },
        Err(ReadStop::Closed) => {
            NextReply::Dead(StoreError::Io("connection closed by server".into()))
        }
        Err(ReadStop::Idle(_)) => NextReply::Quiet,
        Err(ReadStop::Failed(e)) => NextReply::Dead(e),
    }
}

/// What a response frame holds for one operation: part `part` of a
/// `parts`-wide batch, or a [`SINGLE`] operation.
fn op_outcome(frame: &mut Frame, part: u16, parts: u16) -> Result<OpResult, StoreError> {
    match frame {
        Frame::ReadResp { value, .. } if parts == SINGLE => {
            Ok(OpResult::Read(value_from_wire(std::mem::take(value))))
        }
        Frame::WriteResp { .. } if parts == SINGLE => Ok(OpResult::Write),
        Frame::BatchResp { results, .. } if parts != SINGLE => {
            // An arity mismatch is unrecoverable: results can no longer
            // be matched to operations, so the whole batch fails.
            let got = results.len();
            match results.get_mut(usize::from(part)) {
                Some(result) if got == usize::from(parts) => {
                    match std::mem::replace(result, Ok(None)) {
                        Ok(Some(bytes)) => Ok(OpResult::Read(value_from_wire(bytes))),
                        Ok(None) => Ok(OpResult::Write),
                        Err(e) => Err(e),
                    }
                }
                _ => Err(StoreError::Decode(format!(
                    "batch response carries {got} results for {parts} operations"
                ))),
            }
        }
        // An `ErrorResp` on a batch id is a legitimate batch-wide failure.
        Frame::ErrorResp { error, .. } => Err(error.clone()),
        other => Err(mismatch(
            other,
            if parts == SINGLE {
                "an operation"
            } else {
                "a batch"
            },
        )),
    }
}

fn mismatch(frame: &Frame, request: &str) -> StoreError {
    StoreError::Decode(format!(
        "{} frame in answer to {request} request",
        frame.kind()
    ))
}

/// One connection: what the transport and its tickets share.
struct Conn {
    writer: parking_lot::Mutex<FrameWriter<TcpStream>>,
    replies: ReplyQueue<Reader, Frame>,
    timeout: Option<Duration>,
}

impl Conn {
    /// When an operation that starts waiting now gives up.
    fn deadline(&self) -> Option<Instant> {
        self.timeout.map(|t| Instant::now() + t)
    }

    /// Queues a `parts`-wide request and writes the frame `frame` makes
    /// of its id; returns the id.
    fn send(&self, parts: u32, frame: impl FnOnce(u64) -> Frame) -> Result<u64, StoreError> {
        self.replies
            .make_room(MAX_IN_FLIGHT, self.deadline(), next_reply)?;
        let mut w = tracked_lock(ranks::NET_WRITER, "net_writer", || self.writer.lock());
        let id = self.replies.push(parts)?;
        if let Err(e) = w.send(&frame(id)) {
            // A failed write means the socket is gone for everyone;
            // closing it brings back whoever is reading.
            let _ = w.stream().shutdown(Shutdown::Both);
            self.replies.fail_all(e.clone());
            return Err(e);
        }
        Ok(id)
    }

    /// Sends a request with one taker and blocks for what `take` makes
    /// of its reply.
    fn round_trip<O>(
        &self,
        frame: impl FnOnce(u64) -> Frame,
        take: impl FnMut(&mut Frame) -> Result<O, StoreError>,
    ) -> Result<O, StoreError> {
        let id = self.send(1, frame)?;
        self.replies.wait(id, self.deadline(), next_reply, take)?
    }
}

/// The TCP half of an [`OpTicket`]: one operation's claim on its
/// connection's reply queue. Dropped untaken, it gives the claim up, so
/// the reply is discarded when it lands.
pub(crate) struct NetTicket {
    conn: Arc<Conn>,
    id: u64,
    part: u16,
    parts: u16,
    taken: bool,
}

impl std::fmt::Debug for NetTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTicket")
            .field("id", &self.id)
            .field("part", &self.part)
            .field("taken", &self.taken)
            .finish_non_exhaustive()
    }
}

impl NetTicket {
    /// Blocking wait, bounded by the transport's timeout.
    pub(crate) fn wait(mut self) -> Result<OpResult, StoreError> {
        // Every way out of the queue's `wait` releases the claim.
        self.taken = true;
        let (part, parts) = (self.part, self.parts);
        self.conn
            .replies
            .wait(self.id, self.conn.deadline(), next_reply, |frame| {
                op_outcome(frame, part, parts)
            })?
    }

    /// Future-style poll; reads the socket when nobody else is.
    pub(crate) fn poll(&mut self, cx: &mut Context<'_>) -> Poll<Result<OpResult, StoreError>> {
        if self.taken {
            return Poll::Ready(Err(StoreError::Rejected(
                "operation future polled after completion".into(),
            )));
        }
        let (part, parts) = (self.part, self.parts);
        let outcome =
            self.conn
                .replies
                .poll(self.id, cx, self.conn.deadline(), next_reply, |frame| {
                    op_outcome(frame, part, parts)
                });
        outcome.map(|result| {
            self.taken = true;
            result?
        })
    }
}

impl Drop for NetTicket {
    fn drop(&mut self) {
        if !self.taken {
            self.conn.replies.abandon(self.id);
        }
    }
}

/// A connection to a [`StoreServer`](super::StoreServer): the TCP
/// implementation of [`Transport`].
///
/// Cheap to share behind the client's `Arc`; all methods take `&self`.
/// It runs no thread: whoever waits for a reply reads the socket.
/// Dropping the transport closes the socket, failing whatever was still
/// in flight with [`StoreError::Io`].
pub struct TcpTransport {
    conn: Arc<Conn>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field(
                "peer",
                &tracked_lock(ranks::NET_WRITER, "net_writer", || self.conn.writer.lock())
                    .stream()
                    .peer_addr()
                    .ok(),
            )
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Connects and performs the version handshake.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the server is unreachable,
    /// [`StoreError::ProtocolVersion`] on a version mismatch,
    /// [`StoreError::Rejected`] when the server is at capacity,
    /// [`StoreError::Decode`] when the peer does not speak the protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, StoreError> {
        Self::connect_with(addr, None)
    }

    /// Like [`TcpTransport::connect`], with a per-operation timeout: an
    /// operation whose response has not arrived within `timeout` of the
    /// moment its caller starts waiting for it — `ReadFuture::wait`,
    /// `read_blocking`, …, or a `poll` that ends up reading the socket —
    /// fails with [`StoreError::Timeout`], and so does a submission that
    /// cannot get room in the pipeline within it. A timeout that fires
    /// while the stream is idle costs only that operation; one that
    /// fires inside a frame, in either direction, ends the connection.
    /// A future that is polled while another caller reads carries no
    /// timer and resolves when that caller delivers or hands over.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Self, StoreError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err(&e))?;
        stream.set_nodelay(true).map_err(|e| io_err(&e))?;
        // (A zero timeout fails every wait at once; the socket has no
        // way to say that.)
        stream
            .set_write_timeout(timeout.filter(|t| !t.is_zero()))
            .map_err(|e| io_err(&e))?;
        let mut writer = FrameWriter::new(stream);
        writer.send(&Frame::Hello {
            version: WIRE_VERSION,
        })?;
        // Unbuffered, so the handshake consumes its own frame only.
        match FrameReader::new(writer.stream()).next_or_end()? {
            Some(Frame::HelloAck { version }) if version == WIRE_VERSION => {}
            Some(Frame::HelloAck { version }) => {
                return Err(StoreError::ProtocolVersion {
                    got: version,
                    want: WIRE_VERSION,
                })
            }
            Some(Frame::ErrorResp { error, .. }) => return Err(error),
            Some(other) => {
                return Err(StoreError::Decode(format!(
                    "expected hello-ack, got {}",
                    other.kind()
                )))
            }
            None => return Err(StoreError::Io("connection closed during handshake".into())),
        }
        let read_half = writer.stream().try_clone().map_err(|e| io_err(&e))?;
        Ok(TcpTransport {
            conn: Arc::new(Conn {
                writer: parking_lot::Mutex::new(writer),
                replies: ReplyQueue::new(FrameReader::new(BufReader::new(read_half))),
                timeout,
            }),
        })
    }

    /// The connection's terminal error, if it has died.
    pub fn connection_error(&self) -> Option<StoreError> {
        self.conn.replies.error()
    }

    fn ticket(&self, id: u64, part: u16, parts: u16) -> OpTicket {
        OpTicket::net(NetTicket {
            conn: Arc::clone(&self.conn),
            id,
            part,
            parts,
            taken: false,
        })
    }
}

fn key_too_long(key: &str) -> Option<StoreError> {
    (key.len() > super::frame::MAX_KEY_LEN).then(|| {
        StoreError::Rejected(format!(
            "key length {} exceeds the wire bound {}",
            key.len(),
            super::frame::MAX_KEY_LEN
        ))
    })
}

impl Transport for TcpTransport {
    fn submit(&self, key: &str, req: OpRequest) -> OpTicket {
        if let Some(err) = key_too_long(key) {
            return OpTicket::ready(Err(err));
        }
        let key = key.to_owned();
        let sent = match req {
            OpRequest::Read => self.conn.send(1, |id| Frame::ReadReq { id, key }),
            OpRequest::Write(value) => {
                let value = value.as_bytes().to_vec();
                self.conn.send(1, |id| Frame::WriteReq { id, key, value })
            }
        };
        match sent {
            Ok(id) => self.ticket(id, 0, SINGLE),
            Err(e) => OpTicket::ready(Err(e)),
        }
    }

    /// One `BatchReq` frame for the whole batch — one writer-lock hold,
    /// one wire round and one slot in the reply queue instead of one per
    /// operation. Oversized batches are chunked at the frame bound
    /// (`u16::MAX` operations); per-operation key-length violations fail
    /// only their own ticket and are excluded from the frame.
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<OpTicket> {
        let mut tickets: Vec<Option<OpTicket>> = (0..ops.len()).map(|_| None).collect();
        // (original index, wire op) for every op that passes the local
        // key-length check.
        let mut sendable: Vec<(usize, WireOp)> = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            if let Some(err) = key_too_long(op.key()) {
                tickets[i] = Some(OpTicket::ready(Err(err)));
                continue;
            }
            let wire = match op {
                BatchOp::Read(key) => WireOp::Read(key),
                BatchOp::Write(key, value) => WireOp::Write(key, value.as_bytes().to_vec()),
            };
            sendable.push((i, wire));
        }
        let mut sendable = sendable.into_iter().peekable();
        while sendable.peek().is_some() {
            let (indices, ops): (Vec<usize>, Vec<WireOp>) =
                sendable.by_ref().take(usize::from(u16::MAX)).unzip();
            // At most `u16::MAX` by the `take` above.
            let parts = ops.len() as u16;
            let sent = self
                .conn
                .send(u32::from(parts), |id| Frame::BatchReq { id, ops });
            for (part, i) in (0..parts).zip(indices) {
                tickets[i] = Some(match &sent {
                    Ok(id) => self.ticket(*id, part, parts),
                    // The socket died, or there was no room in time:
                    // this chunk fails at submission, and so will the
                    // later ones.
                    Err(e) => OpTicket::ready(Err(e.clone())),
                });
            }
        }
        tickets
            .into_iter()
            // audit:allow(panic-path) — every operation either failed the
            // key-length check or went out in exactly one chunk, and both
            // arms assign its `tickets` slot.
            .map(|t| t.expect("every batched operation got a ticket"))
            .collect()
    }

    fn key_meta(&self, key: &str) -> Result<KeyMeta, StoreError> {
        let key = key.to_owned();
        self.conn.round_trip(
            |id| Frame::MetaReq { id, key },
            |frame| match frame {
                Frame::MetaResp {
                    value_len,
                    protocol,
                    ..
                } => Ok(KeyMeta {
                    value_len: *value_len as usize,
                    protocol: std::mem::take(protocol),
                }),
                Frame::ErrorResp { error, .. } => Err(error.clone()),
                other => Err(mismatch(other, "a meta")),
            },
        )
    }

    fn stats(&self) -> Result<StoreMetrics, StoreError> {
        self.conn.round_trip(
            |id| Frame::StatsReq { id },
            |frame| match frame {
                Frame::StatsResp { metrics, .. } => Ok(StoreMetrics {
                    shards: std::mem::take(&mut metrics.shards),
                }),
                Frame::ErrorResp { error, .. } => Err(error.clone()),
                other => Err(mismatch(other, "a stats")),
            },
        )
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Tickets keep the connection's memory alive, not its socket:
        // closing it brings back whoever is reading, and nobody waits
        // for a reply that can no longer come.
        let _ = tracked_lock(ranks::NET_WRITER, "net_writer", || self.conn.writer.lock())
            .stream()
            .shutdown(Shutdown::Both);
        self.conn.replies.fail_all(StoreError::Io(
            "transport dropped with the operation in flight".into(),
        ));
    }
}
