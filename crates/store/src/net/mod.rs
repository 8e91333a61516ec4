//! The transport-generic client surface and its two wires.
//!
//! A [`Transport`] turns `submit(key, op)` into a completion ticket.
//! Two implementations ship:
//!
//! * [`Loopback`] — the in-process path: submissions go straight onto
//!   the store's shard engines, which run each operation to completion
//!   on the submitting thread, so the ticket comes back holding the
//!   result. Zero copies beyond the operation itself, hermetic — what
//!   tier-1 tests and benches run against.
//! * [`TcpTransport`] — the real wire: a versioned length-prefixed
//!   binary protocol (see [`frame`]) over a std `TcpStream`, served by
//!   [`StoreServer`]. No async runtime and no client thread anywhere:
//!   the caller that waits for a reply reads the socket, on behalf of
//!   whoever else shares the connection ([`ReplyQueue`] decides whose
//!   turn it is), and a ticket is a position in the connection's
//!   in-order reply queue.
//!
//! [`StoreClient`](crate::StoreClient) is generic over the transport
//! (defaulting to [`Loopback`]), so the whole async + blocking client
//! API — futures, `block_on`, `join_all`, the `*_blocking` shorthands —
//! is identical whether the store is in-process or across a socket.
//! On neither wire does a background thread make progress for a future:
//! [`Loopback`] runs the operation inside `submit`, and over TCP a
//! `poll` that finds nobody reading the connection reads it, blocking
//! for up to one reply or the configured timeout.

// The decoder is total over untrusted bytes: no bare indexing either.
#[deny(clippy::indexing_slicing)]
pub mod frame;
mod replies;
mod server;
mod tcp;

pub use replies::{NextReply, ReplyQueue};
pub use server::StoreServer;
pub use tcp::TcpTransport;

use crate::metrics::StoreMetrics;
use crate::store::{BatchOp, StoreError, StoreInner};
use rsb_coding::Value;
use rsb_fpsm::{OpRequest, OpResult};
use std::sync::Arc;
use std::task::{Context, Poll};

/// What a transport knows about one key's shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyMeta {
    /// The value length the key's shard expects for writes.
    pub value_len: usize,
    /// The register protocol name of the key's shard.
    pub protocol: String,
}

/// A submission path from a client to a store: request in, completion
/// ticket out.
///
/// Implementations must be cheap to share (`&self` submission from many
/// threads) and must resolve every returned ticket — with the
/// operation's result, or with a [`StoreError`] when the store shut down
/// or the wire broke. [`Loopback`] tickets are resolved when `submit`
/// returns; a remote wire's resolve *eventually*, and must never hang
/// forever.
pub trait Transport: Send + Sync + 'static {
    /// Submits one operation on a key.
    fn submit(&self, key: &str, req: OpRequest) -> OpTicket;

    /// Submits a batch of operations in one transport round, returning
    /// one ticket per operation in submission order. The default
    /// implementation just loops [`Transport::submit`]; transports with
    /// a cheaper grouped path override it — [`Loopback`] submits each
    /// shard's operations under one lock hold, [`TcpTransport`] sends
    /// the whole batch as a single `BatchReq` frame.
    ///
    /// Per-operation failures resolve that operation's ticket and never
    /// affect its batchmates.
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<OpTicket> {
        ops.into_iter()
            .map(|op| {
                let (key, req) = op.into_parts();
                self.submit(&key, req)
            })
            .collect()
    }

    /// Describes the key's shard (write value length, protocol name).
    ///
    /// # Errors
    ///
    /// Transport failures ([`StoreError::Io`], …) for remote wires;
    /// infallible for [`Loopback`].
    fn key_meta(&self, key: &str) -> Result<KeyMeta, StoreError>;

    /// Scrapes the store's full metrics snapshot — in-process for
    /// [`Loopback`], over the `StatsReq`/`StatsResp` frame pair for
    /// remote wires.
    ///
    /// # Errors
    ///
    /// Transport failures ([`StoreError::Io`], …) for remote wires;
    /// infallible for [`Loopback`].
    fn stats(&self) -> Result<StoreMetrics, StoreError>;
}

/// An operation's completion handle, returned by
/// [`Transport::submit`] and wrapped by the client's
/// [`ReadFuture`](crate::ReadFuture) / [`WriteFuture`](crate::WriteFuture).
///
/// Transports construct tickets through [`OpTicket::ready`] (the
/// loopback path, and submission-time errors on any wire) or the
/// crate-internal network variant.
#[derive(Debug)]
pub struct OpTicket {
    pub(crate) inner: TicketInner,
}

#[derive(Debug)]
pub(crate) enum TicketInner {
    /// Resolved at submission; `None` after the outcome has been taken.
    Ready(Option<Result<OpResult, StoreError>>),
    /// A place in a TCP connection's reply queue.
    Net(tcp::NetTicket),
}

impl OpTicket {
    /// A ticket whose outcome is already known.
    pub fn ready(outcome: Result<OpResult, StoreError>) -> Self {
        OpTicket {
            inner: TicketInner::Ready(Some(outcome)),
        }
    }

    pub(crate) fn net(ticket: tcp::NetTicket) -> Self {
        OpTicket {
            inner: TicketInner::Net(ticket),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "standard future contract: the outcome is taken exactly once \
                  when `Ready` is returned; polling again after completion is a \
                  caller bug"
    )]
    pub(crate) fn poll_result(
        &mut self,
        cx: &mut Context<'_>,
    ) -> Poll<Result<OpResult, StoreError>> {
        match &mut self.inner {
            TicketInner::Ready(outcome) => Poll::Ready(
                outcome
                    .take()
                    .expect("operation future polled after completion"),
            ),
            TicketInner::Net(ticket) => ticket.poll(cx),
        }
    }

    /// Blocking wait, bounded by the configured per-operation timeout
    /// (TCP transports only).
    #[expect(
        clippy::expect_used,
        reason = "`Ready` tickets are built with `Some(outcome)` and consumed by \
                  value here; only a poll that already returned `Ready` could have \
                  emptied it"
    )]
    pub(crate) fn wait(self) -> Result<OpResult, StoreError> {
        match self.inner {
            TicketInner::Ready(outcome) => {
                outcome.expect("operation future waited after completion")
            }
            TicketInner::Net(ticket) => ticket.wait(),
        }
    }
}

/// The in-process transport: submissions go straight to the store's
/// shard engines and run there, on the calling thread, so every ticket
/// comes back resolved. Submitting therefore costs the operation itself
/// (a 64 KiB coded write encodes on the caller), and waiting on the
/// ticket costs nothing.
///
/// Obtained from [`Store::client`](crate::Store::client) (or
/// [`Store::loopback`](crate::Store::loopback)); clones share the store.
#[derive(Clone)]
pub struct Loopback {
    pub(crate) inner: Arc<StoreInner>,
}

impl std::fmt::Debug for Loopback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Loopback").finish_non_exhaustive()
    }
}

impl Transport for Loopback {
    fn submit(&self, key: &str, req: OpRequest) -> OpTicket {
        let shard = self.inner.shard_for(key);
        if let OpRequest::Write(value) = &req {
            // The write-length precheck stays client-side on loopback —
            // same immediate rejection as before the transport split.
            if value.len() != shard.value_len() {
                return OpTicket::ready(Err(StoreError::BadValueLength {
                    got: value.len(),
                    want: shard.value_len(),
                }));
            }
        }
        OpTicket::ready(shard.submit(key, req))
    }

    /// The grouped fast path: operations are bucketed by shard, then
    /// each shard takes the whole bucket in one engine `submit_batch`
    /// call — one placement-map lock hold for the bucket, one key-lock
    /// hold and one drain per distinct key — instead of paying all three
    /// per operation.
    #[expect(
        clippy::expect_used,
        reason = "the loops assign every index of `tickets` exactly once (hit, \
                  miss, and failed arms all write), so no slot is `None`"
    )]
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<OpTicket> {
        let n = ops.len();
        let mut tickets: Vec<Option<OpTicket>> = (0..n).map(|_| None).collect();
        let mut buckets: Vec<Vec<(usize, String, OpRequest)>> =
            (0..self.inner.shards.len()).map(|_| Vec::new()).collect();
        for (i, op) in ops.into_iter().enumerate() {
            let (key, req) = op.into_parts();
            let shard_idx = self.inner.index_for(&key);
            if let OpRequest::Write(value) = &req {
                // Same client-side write-length precheck as the per-op
                // path: reject immediately, fail only this operation.
                let want = self.inner.shards[shard_idx].value_len();
                if value.len() != want {
                    tickets[i] = Some(OpTicket::ready(Err(StoreError::BadValueLength {
                        got: value.len(),
                        want,
                    })));
                    continue;
                }
            }
            buckets[shard_idx].push((i, key, req));
        }
        for (shard_idx, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut indices = Vec::with_capacity(bucket.len());
            let mut batch = Vec::with_capacity(bucket.len());
            for (i, key, req) in bucket {
                indices.push(i);
                batch.push((key, req));
            }
            let results = self.inner.shards[shard_idx].submit_batch(batch);
            for (i, result) in indices.into_iter().zip(results) {
                tickets[i] = Some(OpTicket::ready(result));
            }
        }
        tickets
            .into_iter()
            .map(|t| t.expect("every batched operation resolved"))
            .collect()
    }

    fn key_meta(&self, key: &str) -> Result<KeyMeta, StoreError> {
        let shard = self.inner.shard_for(key);
        Ok(KeyMeta {
            value_len: shard.value_len(),
            protocol: shard.protocol_name().to_string(),
        })
    }

    fn stats(&self) -> Result<StoreMetrics, StoreError> {
        Ok(self.inner.metrics())
    }
}

/// Resolves a server-side submission result into a response frame body.
pub(crate) fn result_frame(id: u64, result: Result<OpResult, StoreError>) -> frame::Frame {
    match result {
        Ok(OpResult::Read(v)) => frame::Frame::ReadResp {
            id,
            value: v.as_bytes().to_vec(),
        },
        Ok(OpResult::Write) => frame::Frame::WriteResp { id },
        Err(error) => frame::Frame::ErrorResp { id, error },
    }
}

/// Converts wire value bytes into the store's [`Value`].
pub(crate) fn value_from_wire(bytes: Vec<u8>) -> Value {
    Value::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::OpTicket;

    #[test]
    fn a_ticket_stays_four_words() {
        // Every loopback operation moves one of these; the TCP variant
        // (connection, request id, part, parts, taken) must fit beside
        // the ready outcome without growing it.
        assert_eq!(std::mem::size_of::<OpTicket>(), 32);
    }
}
