//! Drop-in sync primitives: a `std::sync::atomic`-shaped `AtomicU64` and
//! `parking_lot`-shaped `Mutex`/`Condvar` whose every operation is a
//! scheduling point under [`crate::sched::model`], and a transparent
//! passthrough outside one.
//!
//! The atomic executes with its caller-requested orderings on the real
//! hardware primitive; under the model the point is the *interleaving*,
//! which the scheduler serializes (sequential consistency). The lock
//! types keep a model-side `held` flag so the scheduler can tell a
//! blocked acquirer from a runnable thread — a virtual thread never
//! blocks at the OS level while holding the baton.

use crate::sched;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicBool as RawBool;
use std::sync::{Arc, Mutex as OsMutex, PoisonError};
use std::time::Duration;

pub use std::sync::atomic::Ordering;

/// Scheduling hook shared by every wrapper operation: a no-op outside a
/// model run.
fn hook() {
    if let Some(ctx) = sched::ctx() {
        ctx.yield_point();
    }
}

/// Model-checkable `AtomicU64`.
#[derive(Debug, Default)]
pub struct AtomicU64 {
    inner: std::sync::atomic::AtomicU64,
}

impl AtomicU64 {
    /// Creates a new atomic with the given initial value.
    #[must_use]
    pub const fn new(v: u64) -> Self {
        Self {
            inner: std::sync::atomic::AtomicU64::new(v),
        }
    }

    /// Loads the value (scheduling point under the model).
    pub fn load(&self, order: Ordering) -> u64 {
        hook();
        self.inner.load(order)
    }

    /// Stores a value (scheduling point under the model).
    pub fn store(&self, v: u64, order: Ordering) {
        hook();
        self.inner.store(v, order);
    }

    /// Swaps the value, returning the previous one.
    pub fn swap(&self, v: u64, order: Ordering) -> u64 {
        hook();
        self.inner.swap(v, order)
    }

    /// Atomic add, returning the previous value.
    pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        hook();
        self.inner.fetch_add(v, order)
    }
}

/// Model-side ownership flag of a [`Mutex`], shared with blocked-waiter
/// predicates (hence the `Arc`).
#[derive(Debug, Default)]
struct LockModel {
    held: RawBool,
}

/// Model-checkable mutex with the `parking_lot` API shape (guard-
/// returning `lock`, no poisoning).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: parking_lot::Mutex<T>,
    model: Arc<LockModel>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: parking_lot::Mutex::new(value),
            model: Arc::new(LockModel::default()),
        }
    }

    /// Acquires the lock. Under the model this is a scheduling point and
    /// the virtual thread parks (baton released) while the lock is held
    /// elsewhere.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(ctx) = sched::ctx() {
            let m = Arc::clone(&self.model);
            // SeqCst: model-checker shadow state: the scheduler baton is the
            // real synchronization; SeqCst keeps the shadow metadata trivially
            // sequentially consistent.
            ctx.block_until(Box::new(move || !m.held.load(Ordering::SeqCst)));
            // Exactly one virtual thread runs at a time, so marking the
            // lock held and taking it is a single atomic step.
            // SeqCst: shadow state; see `Mutex::lock`.
            self.model.held.store(true, Ordering::SeqCst);
            let g = self
                .inner
                .try_lock()
                .expect("mc mutex: marked free but contended");
            MutexGuard {
                lock: self,
                inner: Some(g),
                modelled: true,
            }
        } else {
            MutexGuard {
                lock: self,
                inner: Some(self.inner.lock()),
                modelled: false,
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some(ctx) = sched::ctx() {
            ctx.yield_point();
            // SeqCst: shadow state; see `Mutex::lock`.
            if self.model.held.load(Ordering::SeqCst) {
                return None;
            }
            // SeqCst: shadow state; see `Mutex::lock`.
            self.model.held.store(true, Ordering::SeqCst);
            let g = self
                .inner
                .try_lock()
                .expect("mc mutex: marked free but contended");
            Some(MutexGuard {
                lock: self,
                inner: Some(g),
                modelled: true,
            })
        } else {
            self.inner.try_lock().map(|g| MutexGuard {
                lock: self,
                inner: Some(g),
                modelled: false,
            })
        }
    }
}

/// RAII guard for [`Mutex`]. The inner `Option` lets [`Condvar`] vacate
/// the real guard during a wait; it is `Some` whenever user code can
/// observe the guard.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
    modelled: bool,
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard vacated")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard vacated")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            drop(g);
            if self.modelled {
                // SeqCst: shadow state; see `Mutex::lock`.
                self.lock.model.held.store(false, Ordering::SeqCst);
                // Releasing a lock is an interleaving point too — but
                // never unwind from inside another unwind.
                if !std::thread::panicking() {
                    if let Some(ctx) = sched::ctx() {
                        ctx.yield_point();
                    }
                }
            }
        }
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// One parked waiter of a [`Condvar`] under the model.
#[derive(Debug)]
struct Waiter {
    notified: Arc<RawBool>,
}

#[derive(Debug, Default)]
struct CvModel {
    waiters: OsMutex<Vec<Waiter>>,
}

/// Model-checkable condition variable, `parking_lot`-flavoured
/// (`wait` takes `&mut MutexGuard`).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: parking_lot::Condvar,
    model: Arc<CvModel>,
}

impl Condvar {
    /// Creates a new condition variable.
    #[must_use]
    pub fn new() -> Self {
        Condvar::default()
    }

    /// Blocks until notified, atomically releasing the guarded lock.
    /// Under the model, lost-wakeup bugs surface as deadlocks with a
    /// replayable schedule.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(ctx) = sched::ctx() {
            assert!(guard.modelled, "mc condvar: guard from a passthrough lock");
            // Entering the wait is an interleaving point of its own: a
            // predicate the caller read from atomics (not under this
            // lock) can go stale between that read and the park.
            ctx.yield_point();
            let notified = Arc::new(RawBool::new(false));
            self.model
                .waiters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Waiter {
                    notified: Arc::clone(&notified),
                });
            // Release the lock, park until notified *and* the lock is
            // free again, then reacquire — monitor semantics.
            let mutex = guard.lock;
            drop(guard.inner.take());
            // SeqCst: shadow state; see `Mutex::lock`.
            mutex.model.held.store(false, Ordering::SeqCst);
            let m = Arc::clone(&mutex.model);
            ctx.block_until(Box::new(move || {
                // SeqCst: shadow state; see `Mutex::lock`.
                notified.load(Ordering::SeqCst) && !m.held.load(Ordering::SeqCst)
            }));
            // SeqCst: shadow state; see `Mutex::lock`.
            mutex.model.held.store(true, Ordering::SeqCst);
            guard.inner = Some(
                mutex
                    .inner
                    .try_lock()
                    .expect("mc condvar: lock marked free but contended"),
            );
        } else {
            self.inner
                .wait(guard.inner.as_mut().expect("guard vacated"));
        }
    }

    /// Blocks until notified or until `timeout` elapses. Under the model
    /// the timeout is treated as firing immediately (timed waits are
    /// polling loops; modelling the notification too would hide nothing
    /// the untimed `wait` does not already cover).
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if let Some(ctx) = sched::ctx() {
            let _ = timeout;
            let mutex = guard.lock;
            drop(guard.inner.take());
            // SeqCst: shadow state; see `Mutex::lock`.
            mutex.model.held.store(false, Ordering::SeqCst);
            let m = Arc::clone(&mutex.model);
            // SeqCst: model-checker shadow state: the scheduler baton is the
            // real synchronization; SeqCst keeps the shadow metadata trivially
            // sequentially consistent.
            ctx.block_until(Box::new(move || !m.held.load(Ordering::SeqCst)));
            // SeqCst: shadow state; see `Mutex::lock`.
            mutex.model.held.store(true, Ordering::SeqCst);
            guard.inner = Some(
                mutex
                    .inner
                    .try_lock()
                    .expect("mc condvar: lock marked free but contended"),
            );
            WaitTimeoutResult { timed_out: true }
        } else {
            let r = self
                .inner
                .wait_for(guard.inner.as_mut().expect("guard vacated"), timeout);
            WaitTimeoutResult {
                timed_out: r.timed_out(),
            }
        }
    }

    /// Wakes one parked waiter (the longest-waiting one under the model).
    pub fn notify_one(&self) -> bool {
        if sched::modelled() {
            let mut q = self
                .model
                .waiters
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if q.is_empty() {
                false
            } else {
                let w = q.remove(0);
                // SeqCst: shadow state; see `Mutex::lock`.
                w.notified.store(true, Ordering::SeqCst);
                true
            }
        } else {
            self.inner.notify_one()
        }
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) -> usize {
        if sched::modelled() {
            let mut q = self
                .model
                .waiters
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let n = q.len();
            for w in q.drain(..) {
                // SeqCst: shadow state; see `Mutex::lock`.
                w.notified.store(true, Ordering::SeqCst);
            }
            n
        } else {
            self.inner.notify_all()
        }
    }
}
