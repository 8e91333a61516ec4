//! The TCP service surface: [`StoreServer`] accepts connections and
//! runs their requests on the store — no async runtime, no
//! per-operation threads.
//!
//! Per connection, one thread: it decodes a request frame, submits it
//! through the in-process [`Loopback`](super::Loopback) transport —
//! which runs the operation to completion right there, so the result is
//! known when the call returns — encodes the response and writes it,
//! then reads the next request. Responses therefore leave in request
//! order, and a client that pipelines without reading is throttled by
//! the socket's send buffer (the thread blocks in `write` and stops
//! reading) instead of queueing responses in memory.
//!
//! Shutdown stops the accept loop (a self-connect unblocks it), halts
//! the store — requests still arriving are answered with `ShutDown`
//! error frames — shuts down every live connection socket (unblocking
//! the threads parked in `read`), and joins every thread.

use super::frame::{
    read_frame, write_frame, Frame, FrameReader, FrameWriter, WireOp, WireOpResult, WIRE_VERSION,
};
use super::{result_frame, value_from_wire, Loopback, Transport};
use crate::config::ListenSpec;
use crate::recorder::FlightEventKind;
use crate::store::{BatchOp, Store, StoreError};
use rsb_fpsm::{OpRequest, OpResult};
use rsb_registers::lockorder::{ranks, tracked_lock};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Pause between `accept` attempts while the listener reports errors.
const ACCEPT_ERROR_BACKOFF: std::time::Duration = std::time::Duration::from_millis(10);

/// Converts a resolved server-side submission into its on-the-wire
/// batch-entry form.
fn wire_result(result: Result<OpResult, StoreError>) -> WireOpResult {
    match result {
        Ok(OpResult::Read(v)) => Ok(Some(v.as_bytes().to_vec())),
        Ok(OpResult::Write) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Book-keeping shared by the accept loop and the server handle.
struct ServerShared {
    stopping: AtomicBool,
    /// Live connection sockets by connection id, so shutdown can
    /// unblock every connection thread stuck in a blocking read.
    conns: parking_lot::Mutex<HashMap<u64, TcpStream>>,
    /// Connection-thread handles. Finished threads linger here until
    /// shutdown joins them — cheap, bounded by the connection cap.
    handles: parking_lot::Mutex<Vec<JoinHandle<()>>>,
}

/// A running TCP front-end over a [`Store`].
///
/// Built by [`Store::serve`]; [`StoreServer::shutdown`] (or drop) stops
/// accepting, severs live connections, and halts the store.
pub struct StoreServer {
    store: Store,
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl StoreServer {
    /// Binds the listener and spawns the accept loop over `store`.
    pub(crate) fn bind(store: Store, spec: &ListenSpec) -> Result<Self, StoreError> {
        let listener = TcpListener::bind(&spec.addr).map_err(|e| StoreError::Io(e.to_string()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let shared = Arc::new(ServerShared {
            stopping: AtomicBool::new(false),
            conns: parking_lot::Mutex::new(HashMap::new()),
            handles: parking_lot::Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            let loopback = store.loopback();
            let spec = spec.clone();
            std::thread::Builder::new()
                .name("store-accept".into())
                .spawn(move || accept_loop(&listener, &loopback, &shared, &spec))
                .map_err(|e| StoreError::Io(e.to_string()))?
        };
        Ok(StoreServer {
            store,
            local_addr,
            shared,
            accept: parking_lot::Mutex::new(Some(accept)),
        })
    }

    /// The bound address — with an `:0` bind, the actual ephemeral port.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The store being served: metrics, key histories, and the in-process
    /// [`Loopback`](super::Loopback) client path remain fully available
    /// while the server runs.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Stops accepting, halts the store, and severs live connections.
    /// An operation already running finishes and is answered; a request
    /// decoded after the halt is answered with a
    /// [`StoreError::ShutDown`] error frame, until the socket closes.
    /// Idempotent; also runs on drop.
    pub fn shutdown(self) {
        self.stop();
    }

    fn stop(&self) {
        // Release publishes the stop to the accept loop's acquire load;
        // the returned prior value (idempotence) needs only RMW
        // atomicity. Nothing here requires a total order across other
        // atomics, so SeqCst (the former ordering) was overkill.
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop: it re-checks the stop flag per
        // iteration, so one throwaway local connection gets it to exit.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) =
            tracked_lock(ranks::ACCEPT_HANDLE, "accept_handle", || self.accept.lock()).take()
        {
            let _ = h.join();
        }
        self.store.halt();
        // Sever live sockets so connection threads blocked in a read (or
        // in a write to a client that stopped reading) return.
        for (_, conn) in
            tracked_lock(ranks::CONN_TABLE, "conn_table", || self.shared.conns.lock()).drain()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> = tracked_lock(ranks::CONN_HANDLES, "conn_handles", || {
            self.shared.handles.lock()
        })
        .drain(..)
        .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    loopback: &Loopback,
    shared: &Arc<ServerShared>,
    spec: &ListenSpec,
) {
    let next_conn = AtomicU64::new(0);
    loop {
        let accepted = listener.accept();
        // Acquire pairs with the stopper's release swap: once the
        // stopper's throwaway connection lands here, this load observes
        // the flag (the accept syscall round-trip long outlasts store
        // visibility) and the loop exits before spawning more handlers.
        // Checked on errors too: when `accept` keeps failing (EMFILE),
        // the throwaway connection never arrives.
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // A persistent failure returns at once every time; retrying
            // flat out would spin a core until descriptors free up.
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        // `backlog` bounds live connections: over it, answer the
        // client's pending hello with a rejection and close.
        if tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock()).len()
            >= spec.backlog
        {
            loopback
                .inner
                .recorder
                .record(FlightEventKind::Rejected, None, spec.backlog as u64);
            let _ = write_frame(
                &mut &stream,
                &Frame::ErrorResp {
                    id: 0,
                    error: StoreError::Rejected(format!(
                        "server at capacity ({} connections)",
                        spec.backlog
                    )),
                },
            );
            continue;
        }
        if spec.nodelay {
            let _ = stream.set_nodelay(true);
        }
        // audit:allow(atomics-relaxed) — ID allocation; single-threaded
        // accept loop, and uniqueness needs only RMW atomicity.
        let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock())
            .insert(conn_id, registered);
        let handle = {
            let loopback = loopback.clone();
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("store-conn-{conn_id}"))
                .spawn(move || {
                    connection(&stream, &loopback);
                    tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock())
                        .remove(&conn_id);
                })
        };
        match handle {
            Ok(h) => tracked_lock(ranks::CONN_HANDLES, "conn_handles", || {
                shared.handles.lock()
            })
            .push(h),
            Err(_) => {
                tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock())
                    .remove(&conn_id);
            }
        }
    }
}

/// One connection, start to finish: handshake, then decode, run and
/// answer one request at a time until the stream ends.
fn connection(stream: &TcpStream, loopback: &Loopback) {
    let mut io = stream;
    match read_frame(&mut io) {
        Ok(Some(Frame::Hello { version })) if version == WIRE_VERSION => {
            if write_frame(
                &mut io,
                &Frame::HelloAck {
                    version: WIRE_VERSION,
                },
            )
            .is_err()
            {
                return;
            }
        }
        Ok(Some(Frame::Hello { version })) => {
            let _ = write_frame(
                &mut io,
                &Frame::ErrorResp {
                    id: 0,
                    error: StoreError::ProtocolVersion {
                        got: version,
                        want: WIRE_VERSION,
                    },
                },
            );
            return;
        }
        Ok(Some(_) | None) | Err(_) => return,
    }
    let recorder = &loopback.inner.recorder;
    recorder.record(FlightEventKind::ConnOpen, None, 0);
    serve_requests(stream, loopback);
    recorder.record(FlightEventKind::ConnClose, None, 0);
}

/// Runs one single-op request and writes its response, then records
/// the op's server-side wire time on the key's home shard: request
/// frame decoded → response written, so `wire` covers the operation
/// itself *plus* response serialization — everything server-side that
/// loopback clients never pay.
fn answer_op(
    w: &mut FrameWriter<&TcpStream>,
    loopback: &Loopback,
    id: u64,
    key: &str,
    req: OpRequest,
    decoded: Instant,
) -> Result<(), StoreError> {
    let result = loopback.submit(key, req).wait();
    let written = w.send(&result_frame(id, result));
    loopback
        .inner
        .shard_for(key)
        .note_wire_latency(decoded.elapsed().as_nanos() as u64);
    written
}

/// The request loop: each decoded request is run and its response
/// written before the next is read. Returns on EOF, a write error (the
/// client is gone), a decode error or a protocol violation. The
/// connection owns one payload buffer and one encode buffer, reused for
/// every frame.
fn serve_requests(stream: &TcpStream, loopback: &Loopback) {
    let mut r = FrameReader::new(BufReader::new(stream));
    let mut w = FrameWriter::new(stream);
    loop {
        let request = r.next_or_end();
        let decoded = Instant::now();
        let written = match request {
            Ok(Some(Frame::ReadReq { id, key })) => {
                answer_op(&mut w, loopback, id, &key, OpRequest::Read, decoded)
            }
            Ok(Some(Frame::WriteReq { id, key, value })) => {
                let req = OpRequest::Write(value_from_wire(value));
                answer_op(&mut w, loopback, id, &key, req, decoded)
            }
            Ok(Some(Frame::BatchReq { id, ops })) => {
                let batch: Vec<BatchOp> = ops
                    .into_iter()
                    .map(|op| match op {
                        WireOp::Read(key) => BatchOp::Read(key),
                        WireOp::Write(key, value) => BatchOp::Write(key, value_from_wire(value)),
                    })
                    .collect();
                let shards: Vec<usize> = batch
                    .iter()
                    .map(|op| loopback.inner.index_for(op.key()))
                    .collect();
                // The loopback batch path does the grouped submission;
                // per-op failures come back as failed tickets and turn
                // into error entries of the one batch response.
                let results = loopback
                    .submit_batch(batch)
                    .into_iter()
                    .map(|ticket| wire_result(ticket.wait()))
                    .collect();
                let written = w.send(&Frame::BatchResp { id, results });
                let wire_ns = decoded.elapsed().as_nanos() as u64;
                for shard in shards {
                    loopback.inner.shards[shard].note_wire_latency(wire_ns);
                }
                written
            }
            Ok(Some(Frame::StatsReq { id })) => w.send(&Frame::StatsResp {
                id,
                metrics: loopback.inner.metrics(),
            }),
            Ok(Some(Frame::MetaReq { id, key })) => {
                let frame = match loopback.key_meta(&key) {
                    Ok(meta) => Frame::MetaResp {
                        id,
                        value_len: u32::try_from(meta.value_len).unwrap_or(u32::MAX),
                        protocol: meta.protocol,
                    },
                    Err(error) => Frame::ErrorResp { id, error },
                };
                w.send(&frame)
            }
            Ok(None) => return,
            // A hello or response frame mid-session is a protocol
            // violation; truncated/oversized/garbled input is a decode
            // error. Either way: answer once (id 0 = not tied to a
            // request), then drop the connection — resynchronizing a
            // corrupt length-prefixed stream is not possible.
            Ok(Some(other)) => {
                let error =
                    StoreError::Decode(format!("unexpected {} frame from client", other.kind()));
                close_with(stream, loopback, error);
                return;
            }
            Err(error) => {
                close_with(stream, loopback, error);
                return;
            }
        };
        if written.is_err() {
            return;
        }
    }
}

/// Records a decode error and answers it with the connection's last
/// frame.
fn close_with(mut stream: &TcpStream, loopback: &Loopback, error: StoreError) {
    loopback
        .inner
        .recorder
        .record(FlightEventKind::DecodeError, None, 0);
    let _ = write_frame(&mut stream, &Frame::ErrorResp { id: 0, error });
}
