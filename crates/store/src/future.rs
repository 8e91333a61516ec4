//! Hand-rolled, executor-agnostic operation futures.
//!
//! [`ReadFuture`] / [`WriteFuture`] wrap the [`OpTicket`] a
//! [`Transport`](crate::Transport) returned for the submission: on the
//! loopback path the result itself (the operation ran on the submitting
//! thread, so the first poll is `Ready`), on the wire a place in the
//! connection's in-order reply queue. They implement [`Future`] so any
//! executor can await them, and each also offers a blocking `wait()` —
//! the tree is offline-vendored, so no tokio (or any runtime) is
//! required anywhere. [`block_on`] is a minimal thread-parking executor
//! for contexts with no runtime at all.
//!
//! Nothing runs in the background on either wire, so a future makes
//! progress only while somebody drives it. Over TCP that has a
//! consequence worth knowing: a `poll` (or `wait()`) that finds nobody
//! reading the connection reads it, on behalf of every operation in
//! flight there, and so **may block** — for up to one reply when
//! polled, until its own reply when waited on, or until the transport's
//! configured timeout. Found somebody reading, `poll` leaves its waker
//! and returns `Pending`, and `wait()` sleeps until that caller hands
//! over. An executor that must never block a thread should give TCP
//! futures a thread of their own, as it would any blocking client.

use crate::net::OpTicket;
use crate::store::StoreError;
use rsb_coding::Value;
use rsb_fpsm::OpResult;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// The future of a `read(key)`; resolves to the value read.
#[derive(Debug)]
#[must_use = "futures do nothing unless polled or waited on"]
pub struct ReadFuture {
    pub(crate) ticket: OpTicket,
}

impl ReadFuture {
    /// Blocking facade: returns once the read has, reading the
    /// connection or sleeping while another caller does.
    ///
    /// # Errors
    ///
    /// Fails if the store shut down, the submission was rejected, or the
    /// transport failed.
    pub fn wait(self) -> Result<Value, StoreError> {
        self.ticket.wait().and_then(into_read)
    }
}

impl Future for ReadFuture {
    type Output = Result<Value, StoreError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut()
            .ticket
            .poll_result(cx)
            .map(|r| r.and_then(into_read))
    }
}

/// The future of a `write(key, v)`; resolves once the write is acked.
#[derive(Debug)]
#[must_use = "futures do nothing unless polled or waited on"]
pub struct WriteFuture {
    pub(crate) ticket: OpTicket,
}

impl WriteFuture {
    /// Blocking facade: returns once the write is acked, reading the
    /// connection or sleeping while another caller does.
    ///
    /// # Errors
    ///
    /// Fails if the store shut down, the submission was rejected, or the
    /// transport failed.
    pub fn wait(self) -> Result<(), StoreError> {
        self.ticket.wait().map(|_| ())
    }
}

impl Future for WriteFuture {
    type Output = Result<(), StoreError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().ticket.poll_result(cx).map(|r| r.map(|_| ()))
    }
}

/// The future of one operation of a batch
/// ([`StoreClient::submit_batch`](crate::StoreClient::submit_batch)):
/// resolves to the raw [`OpResult`] — [`OpResult::Read`] with the value
/// for reads, [`OpResult::Write`] for acked writes — because a batch
/// mixes both kinds and the caller matches on what comes back.
#[derive(Debug)]
#[must_use = "futures do nothing unless polled or waited on"]
pub struct OpFuture {
    pub(crate) ticket: OpTicket,
}

impl OpFuture {
    /// Blocking facade: returns once the operation resolves, reading
    /// the connection or sleeping while another caller does.
    ///
    /// # Errors
    ///
    /// Fails if the store shut down, the submission was rejected, or the
    /// transport failed.
    pub fn wait(self) -> Result<OpResult, StoreError> {
        self.ticket.wait()
    }
}

impl Future for OpFuture {
    type Output = Result<OpResult, StoreError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().ticket.poll_result(cx)
    }
}

/// A write ack delivered to a read is unreachable on loopback (the
/// result is read off the read's own record) but *possible* over a buggy
/// or hostile wire — so it is an error, never a panic, on the client path.
fn into_read(result: OpResult) -> Result<Value, StoreError> {
    match result {
        OpResult::Read(v) => Ok(v),
        OpResult::Write => Err(StoreError::Decode("write ack delivered to a read".into())),
    }
}

/// Wakes a parked thread (the whole executor state of [`block_on`]).
struct ThreadUnparker(std::thread::Thread);

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives any future to completion on the current thread, with no async
/// runtime: the waker unparks this thread, the loop re-polls.
///
/// Spurious unparks are handled by re-polling; [`Future::poll`] contract
/// (`wake` called when progress is possible) guarantees termination for
/// the store's ticket-backed futures.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = Box::pin(fut);
    let waker = Waker::from(Arc::new(ThreadUnparker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// Resolves a batch of futures concurrently on the current thread and
/// returns their outputs in order — a tiny `join_all` so examples and
/// load generators can keep many operations in flight without a runtime.
pub fn join_all<F: Future + Unpin>(futs: Vec<F>) -> Vec<F::Output> {
    let waker = Waker::from(Arc::new(ThreadUnparker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut pending: Vec<Option<F>> = futs.into_iter().map(Some).collect();
    let mut results: Vec<Option<F::Output>> = pending.iter().map(|_| None).collect();
    loop {
        let mut all_done = true;
        for (slot, result) in pending.iter_mut().zip(results.iter_mut()) {
            if let Some(fut) = slot {
                match Pin::new(fut).poll(&mut cx) {
                    Poll::Ready(out) => {
                        *result = Some(out);
                        *slot = None;
                    }
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            return results
                .into_iter()
                .map(|r| r.expect("all futures resolved"))
                .collect();
        }
        std::thread::park();
    }
}
