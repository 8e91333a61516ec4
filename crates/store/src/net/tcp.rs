//! The client side of the wire: a [`TcpTransport`] speaking the
//! length-prefixed frame protocol over one `TcpStream`.
//!
//! One connection multiplexes any number of client threads: submissions
//! assign a connection-unique request id, register a completion cell,
//! and write the request frame under a short writer lock; a single
//! reader thread demultiplexes response frames back into the cells by
//! id (the server answers a connection's requests in order, but nothing
//! here depends on it), and the same futures the loopback path returns
//! work unchanged.
//!
//! When the connection dies (server gone, decode failure, socket error)
//! every in-flight operation fails with the connection's terminal
//! [`StoreError`], and later submissions fail fast with a clone of it.

use super::frame::{read_frame, write_frame, Frame, WireOp, WIRE_VERSION};
use super::{value_from_wire, KeyMeta, NetCell, OpCell, OpTicket, Transport};
use crate::metrics::StoreMetrics;
use crate::store::{BatchOp, StoreError};
use rsb_fpsm::{OpRequest, OpResult};
use rsb_registers::lockorder::{ranks, tracked_lock};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A pending request's completion cell, by kind.
enum Pending {
    Op(Arc<OpCell>),
    /// One cell per batched operation, in submission order; the whole
    /// batch shares one request id and resolves from one `BatchResp`.
    Batch(Vec<Arc<OpCell>>),
    Meta(Arc<NetCell<Result<KeyMeta, StoreError>>>),
    Stats(Arc<NetCell<Result<StoreMetrics, StoreError>>>),
}

/// Shared between submitters and the reader thread.
struct Shared {
    pending: parking_lot::Mutex<HashMap<u64, Pending>>,
    /// The connection's terminal error, once it has one: submissions
    /// fail fast with a clone instead of writing into a dead socket.
    dead: parking_lot::Mutex<Option<StoreError>>,
}

impl Shared {
    /// Marks the connection dead and fails every pending completion.
    fn fail_all(&self, err: &StoreError) {
        {
            let mut dead = tracked_lock(ranks::NET_DEAD, "net_dead", || self.dead.lock());
            if dead.is_none() {
                *dead = Some(err.clone());
            }
        }
        let drained: Vec<Pending> = {
            let mut pending =
                tracked_lock(ranks::NET_PENDING, "net_pending", || self.pending.lock());
            pending.drain().map(|(_, p)| p).collect()
        };
        for p in drained {
            match p {
                Pending::Op(cell) => cell.fill(Err(err.clone())),
                Pending::Batch(cells) => {
                    for cell in cells {
                        cell.fill(Err(err.clone()));
                    }
                }
                Pending::Meta(cell) => cell.fill(Err(err.clone())),
                Pending::Stats(cell) => cell.fill(Err(err.clone())),
            }
        }
    }
}

/// A connection to a [`StoreServer`](super::StoreServer): the TCP
/// implementation of [`Transport`].
///
/// Cheap to share behind the client's `Arc`; all methods take `&self`.
/// Dropping the transport closes the socket and joins the reader
/// thread, failing whatever was still in flight.
pub struct TcpTransport {
    writer: parking_lot::Mutex<TcpStream>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    timeout: Option<Duration>,
    reader: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field(
                "peer",
                &tracked_lock(ranks::NET_WRITER, "net_writer", || self.writer.lock())
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

    /// Like [`TcpTransport::connect`], with a per-operation timeout
    /// applied by the *blocking* wait paths (`read_blocking`,
    /// `ReadFuture::wait`, …): an operation whose response has not
    /// arrived within `timeout` fails with [`StoreError::Timeout`]. The
    /// pure-async poll path carries no timer and resolves whenever the
    /// response lands.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Self, StoreError> {
        let stream = TcpStream::connect(addr).map_err(|e| StoreError::Io(e.to_string()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        // Handshake, still single-threaded on this socket.
        write_frame(
            &mut &stream,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )?;
        match read_frame(&mut &stream)? {
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
        let reader_stream = stream
            .try_clone()
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let shared = Arc::new(Shared {
            pending: parking_lot::Mutex::new(HashMap::new()),
            dead: parking_lot::Mutex::new(None),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("store-tcp-reader".into())
                .spawn(move || read_loop(reader_stream, &shared))
                .map_err(|e| StoreError::Io(e.to_string()))?
        };
        Ok(TcpTransport {
            writer: parking_lot::Mutex::new(stream),
            shared,
            next_id: AtomicU64::new(1),
            timeout,
            reader: parking_lot::Mutex::new(Some(reader)),
        })
    }

    /// The connection's terminal error, if it has died.
    pub fn connection_error(&self) -> Option<StoreError> {
        tracked_lock(ranks::NET_DEAD, "net_dead", || self.shared.dead.lock()).clone()
    }

    /// Registers a pending entry and writes its request frame; on a
    /// write failure the entry is withdrawn and the error returned.
    fn send(&self, id: u64, entry: Pending, frame: &Frame) -> Result<(), StoreError> {
        if let Some(err) =
            tracked_lock(ranks::NET_DEAD, "net_dead", || self.shared.dead.lock()).clone()
        {
            return Err(err);
        }
        tracked_lock(ranks::NET_PENDING, "net_pending", || {
            self.shared.pending.lock()
        })
        .insert(id, entry);
        let result = {
            let mut w = tracked_lock(ranks::NET_WRITER, "net_writer", || self.writer.lock());
            write_frame(&mut *w, frame)
        };
        if let Err(e) = result {
            tracked_lock(ranks::NET_PENDING, "net_pending", || {
                self.shared.pending.lock()
            })
            .remove(&id);
            // A failed write means the socket is gone for everyone.
            self.shared.fail_all(&e);
            return Err(e);
        }
        Ok(())
    }

    fn next_id(&self) -> u64 {
        // audit:allow(atomics-relaxed) — ID allocation: uniqueness comes
        // from the atomic RMW; no data is published through the counter.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

impl Transport for TcpTransport {
    fn submit(&self, key: &str, req: OpRequest) -> OpTicket {
        if key.len() > super::frame::MAX_KEY_LEN {
            return OpTicket::ready(Err(StoreError::Rejected(format!(
                "key length {} exceeds the wire bound {}",
                key.len(),
                super::frame::MAX_KEY_LEN
            ))));
        }
        let id = self.next_id();
        let cell: Arc<OpCell> = Arc::new(NetCell::new());
        let frame = match req {
            OpRequest::Read => Frame::ReadReq {
                id,
                key: key.to_owned(),
            },
            OpRequest::Write(value) => Frame::WriteReq {
                id,
                key: key.to_owned(),
                value: value.as_bytes().to_vec(),
            },
        };
        match self.send(id, Pending::Op(Arc::clone(&cell)), &frame) {
            Ok(()) => OpTicket::net(cell, self.timeout),
            Err(e) => OpTicket::ready(Err(e)),
        }
    }

    /// One `BatchReq` frame for the whole batch — one writer-lock hold
    /// and one wire round instead of one per operation. Oversized
    /// batches are chunked at the frame bound (`u16::MAX` operations);
    /// per-operation key-length violations fail only their own ticket
    /// and are excluded from the frame.
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<OpTicket> {
        let mut tickets: Vec<Option<OpTicket>> = (0..ops.len()).map(|_| None).collect();
        // (original index, wire op) for every op that passes the local
        // key-length check.
        let mut sendable: Vec<(usize, WireOp)> = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            if op.key().len() > super::frame::MAX_KEY_LEN {
                tickets[i] = Some(OpTicket::ready(Err(StoreError::Rejected(format!(
                    "key length {} exceeds the wire bound {}",
                    op.key().len(),
                    super::frame::MAX_KEY_LEN
                )))));
                continue;
            }
            let wire = match op {
                BatchOp::Read(key) => WireOp::Read(key),
                BatchOp::Write(key, value) => WireOp::Write(key, value.as_bytes().to_vec()),
            };
            sendable.push((i, wire));
        }
        for chunk in sendable.chunks_mut(usize::from(u16::MAX)) {
            let id = self.next_id();
            let mut cells = Vec::with_capacity(chunk.len());
            let mut wire_ops = Vec::with_capacity(chunk.len());
            for (i, wire) in chunk.iter_mut() {
                let cell: Arc<OpCell> = Arc::new(NetCell::new());
                tickets[*i] = Some(OpTicket::net(Arc::clone(&cell), self.timeout));
                cells.push(cell);
                wire_ops.push(std::mem::replace(wire, WireOp::Read(String::new())));
            }
            let frame = Frame::BatchReq { id, ops: wire_ops };
            if let Err(e) = self.send(id, Pending::Batch(cells), &frame) {
                // The socket died: `send` already failed the registered
                // cells via `fail_all`; tickets for *later* chunks are
                // assigned below as failed-at-submission.
                for (i, _) in chunk.iter() {
                    tickets[*i] = Some(OpTicket::ready(Err(e.clone())));
                }
            }
        }
        tickets
            .into_iter()
            // audit:allow(panic-path) — every chunk either registers a cell
            // (success arm) or marks its indices failed (error arm), so each
            // `tickets` slot is assigned exactly once.
            .map(|t| t.expect("every batched operation got a ticket"))
            .collect()
    }

    fn key_meta(&self, key: &str) -> Result<KeyMeta, StoreError> {
        let id = self.next_id();
        let cell: Arc<NetCell<Result<KeyMeta, StoreError>>> = Arc::new(NetCell::new());
        self.send(
            id,
            Pending::Meta(Arc::clone(&cell)),
            &Frame::MetaReq {
                id,
                key: key.to_owned(),
            },
        )?;
        cell.wait(self.timeout).unwrap_or(Err(StoreError::Timeout))
    }

    fn stats(&self) -> Result<StoreMetrics, StoreError> {
        let id = self.next_id();
        let cell: Arc<NetCell<Result<StoreMetrics, StoreError>>> = Arc::new(NetCell::new());
        self.send(
            id,
            Pending::Stats(Arc::clone(&cell)),
            &Frame::StatsReq { id },
        )?;
        cell.wait(self.timeout).unwrap_or(Err(StoreError::Timeout))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Closing the socket makes the reader's blocking read return,
        // which fails anything still pending and exits the thread.
        let _ = tracked_lock(ranks::NET_WRITER, "net_writer", || self.writer.lock())
            .shutdown(std::net::Shutdown::Both);
        if let Some(h) = tracked_lock(ranks::NET_READER, "net_reader", || self.reader.lock()).take()
        {
            let _ = h.join();
        }
    }
}

/// The per-connection reader: demultiplexes response frames into the
/// pending completion cells until the stream ends or breaks.
fn read_loop(stream: TcpStream, shared: &Shared) {
    let mut r = BufReader::new(stream);
    loop {
        match read_frame(&mut r) {
            Ok(Some(frame)) => {
                let (id, outcome): (u64, Result<OpResult, StoreError>) = match frame {
                    Frame::ReadResp { id, value } => {
                        (id, Ok(OpResult::Read(value_from_wire(value))))
                    }
                    Frame::WriteResp { id } => (id, Ok(OpResult::Write)),
                    Frame::ErrorResp { id, error } => (id, Err(error)),
                    Frame::MetaResp {
                        id,
                        value_len,
                        protocol,
                    } => {
                        match tracked_lock(ranks::NET_PENDING, "net_pending", || {
                            shared.pending.lock()
                        })
                        .remove(&id)
                        {
                            Some(Pending::Meta(cell)) => cell.fill(Ok(KeyMeta {
                                value_len: value_len as usize,
                                protocol,
                            })),
                            Some(Pending::Op(cell)) => cell.fill(Err(StoreError::Decode(
                                "meta response to an operation request".into(),
                            ))),
                            Some(Pending::Batch(cells)) => {
                                for cell in cells {
                                    cell.fill(Err(StoreError::Decode(
                                        "meta response to a batch request".into(),
                                    )));
                                }
                            }
                            Some(Pending::Stats(cell)) => cell.fill(Err(StoreError::Decode(
                                "meta response to a stats request".into(),
                            ))),
                            None => {}
                        }
                        continue;
                    }
                    Frame::BatchResp { id, results } => {
                        match tracked_lock(ranks::NET_PENDING, "net_pending", || {
                            shared.pending.lock()
                        })
                        .remove(&id)
                        {
                            Some(Pending::Batch(cells)) => {
                                if cells.len() == results.len() {
                                    for (cell, result) in cells.iter().zip(results) {
                                        cell.fill(match result {
                                            Ok(Some(bytes)) => {
                                                Ok(OpResult::Read(value_from_wire(bytes)))
                                            }
                                            Ok(None) => Ok(OpResult::Write),
                                            Err(e) => Err(e),
                                        });
                                    }
                                } else {
                                    // An arity mismatch is unrecoverable:
                                    // results can no longer be matched to
                                    // operations, so the whole batch fails.
                                    let err = StoreError::Decode(format!(
                                        "batch response carries {} results for {} operations",
                                        results.len(),
                                        cells.len()
                                    ));
                                    for cell in cells {
                                        cell.fill(Err(err.clone()));
                                    }
                                }
                            }
                            Some(Pending::Op(cell)) => cell.fill(Err(StoreError::Decode(
                                "batch response to a single-operation request".into(),
                            ))),
                            Some(Pending::Meta(cell)) => cell.fill(Err(StoreError::Decode(
                                "batch response to a meta request".into(),
                            ))),
                            Some(Pending::Stats(cell)) => cell.fill(Err(StoreError::Decode(
                                "batch response to a stats request".into(),
                            ))),
                            None => {}
                        }
                        continue;
                    }
                    Frame::StatsResp { id, metrics } => {
                        match tracked_lock(ranks::NET_PENDING, "net_pending", || {
                            shared.pending.lock()
                        })
                        .remove(&id)
                        {
                            Some(Pending::Stats(cell)) => cell.fill(Ok(metrics)),
                            Some(Pending::Op(cell)) => cell.fill(Err(StoreError::Decode(
                                "stats response to an operation request".into(),
                            ))),
                            Some(Pending::Batch(cells)) => {
                                for cell in cells {
                                    cell.fill(Err(StoreError::Decode(
                                        "stats response to a batch request".into(),
                                    )));
                                }
                            }
                            Some(Pending::Meta(cell)) => cell.fill(Err(StoreError::Decode(
                                "stats response to a meta request".into(),
                            ))),
                            None => {}
                        }
                        continue;
                    }
                    other => {
                        // A request frame (or hello) from the server is a
                        // protocol violation; kill the connection cleanly.
                        shared.fail_all(&StoreError::Decode(format!(
                            "unexpected {} frame from server",
                            other.kind()
                        )));
                        return;
                    }
                };
                match tracked_lock(ranks::NET_PENDING, "net_pending", || shared.pending.lock())
                    .remove(&id)
                {
                    Some(Pending::Op(cell)) => cell.fill(outcome),
                    Some(Pending::Batch(cells)) => {
                        // An `ErrorResp` on a batch id is a legitimate
                        // batch-wide failure; any other single-operation
                        // response to a batch is a protocol violation.
                        let fill = match outcome {
                            Err(e) => Err(e),
                            Ok(_) => Err(StoreError::Decode(
                                "single-operation response to a batch request".into(),
                            )),
                        };
                        for cell in cells {
                            cell.fill(fill.clone());
                        }
                    }
                    Some(Pending::Meta(cell)) => {
                        cell.fill(outcome.and(Err(StoreError::Decode(
                            "operation response to a meta request".into(),
                        ))));
                    }
                    Some(Pending::Stats(cell)) => {
                        cell.fill(outcome.and(Err(StoreError::Decode(
                            "operation response to a stats request".into(),
                        ))));
                    }
                    // Unknown id: a response to a timed-out-and-forgotten
                    // op, or a server bug — either way, nothing to fill.
                    None => {}
                }
            }
            Ok(None) => {
                shared.fail_all(&StoreError::Io("connection closed by server".into()));
                return;
            }
            Err(e) => {
                shared.fail_all(&e);
                return;
            }
        }
    }
}
