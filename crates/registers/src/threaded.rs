//! A thread-based runtime: run any [`RegisterProtocol`] with real
//! concurrent clients.
//!
//! The deterministic simulator is the right tool for experiments (it can
//! realize adversarial schedules), but it is also useful to see the
//! protocols run under genuine parallelism. Two reusable pieces live here
//! and are shared with the sharded store runtime in `rsb-store`:
//!
//! * [`DriverCore`] — the lock + condvar + stop-flag cell a *network
//!   driver* thread and its clients rendezvous on;
//! * [`CompletionSlot`] — a per-operation completion cell a client can
//!   either block on (condvar) or poll as a future (waker), filled by
//!   whoever steps the operation to its return inside the simulation;
//! * [`ReadyQueue`] — the event-driven scheduling companion of
//!   [`DriverCore`] for *multi-key* drivers: per-key slot ownership (a
//!   submitter claims an idle key and runs it itself) plus a queue of
//!   the key slots that found their key busy, so a driver batch does
//!   O(enabled) work instead of rescanning every materialized key;
//! * [`WorkGroup`] — the rendezvous for a *pool* of driver threads
//!   sharing ready queues (the sharded store's work-stealing drivers):
//!   lost-wakeup-free parking, and a stop request every parked driver
//!   observes promptly.
//!
//! [`ThreadedRegister`] composes them for a single register: the driver
//! thread plays a fair scheduler over one simulation, while any number of
//! application threads perform blocking `read`/`write` operations through
//! [`ClientHandle`]s.
//!
//! Asynchrony is real here: the interleaving of RMW applies/deliveries
//! against invocations depends on OS scheduling — but safety never does
//! (that is the point of the protocols).
//!
//! # Example
//!
//! ```
//! use rsb_registers::{Adaptive, RegisterConfig};
//! use rsb_registers::threaded::ThreadedRegister;
//! use rsb_coding::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reg = ThreadedRegister::start(Adaptive::new(RegisterConfig::paper(1, 2, 64)?));
//! let w = reg.client();
//! let r = reg.client();
//! let v = Value::seeded(1, 64);
//! w.write(v.clone())?;
//! assert_eq!(r.read()?, v);
//! reg.shutdown();
//! # Ok(())
//! # }
//! ```

use crate::lockorder::{ranks, tracked_lock, Tracked};
use crate::protocol::RegisterProtocol;
use parking_lot::{Condvar, Mutex, MutexGuard};
// Under the `mc` feature the ReadyQueue's lock comes from the
// rsb-mcsync interleaving checker (a transparent passthrough outside a
// model run), so `crates/mc` can exhaustively explore the steal-half
// protocol. Everything else in this file stays on parking_lot.
#[cfg(not(feature = "mc"))]
use parking_lot as ready_sync;
use rsb_coding::Value;
use rsb_fpsm::{ClientId, OpId, OpRequest, OpResult, Simulation};
#[cfg(feature = "mc")]
use rsb_mcsync::sync as ready_sync;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Errors from the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadedError {
    /// The runtime has been shut down.
    ShutDown,
    /// The underlying simulation rejected the invocation.
    Rejected(String),
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedError::ShutDown => write!(f, "register runtime has shut down"),
            ThreadedError::Rejected(msg) => write!(f, "invocation rejected: {msg}"),
        }
    }
}

impl std::error::Error for ThreadedError {}

/// The rendezvous cell between one driver thread and its clients: a guarded
/// state `T`, a progress condvar the driver parks on while idle, and a stop
/// flag.
///
/// [`ThreadedRegister`] guards a single simulation with one of these; the
/// sharded store guards a whole shard (many key simulations) per core —
/// that per-shard granularity, instead of one global lock, is what the
/// store's scalability comes from.
#[derive(Debug)]
pub struct DriverCore<T> {
    core_state: Mutex<T>,
    progress: Condvar,
    stop: AtomicBool,
}

impl<T> DriverCore<T> {
    /// Creates a core around the guarded state.
    pub fn new(state: T) -> Self {
        DriverCore {
            core_state: Mutex::new(state),
            progress: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }

    /// Locks the guarded state (through the lock-hierarchy checker; see
    /// [`crate::lockorder`]).
    pub fn lock(&self) -> Tracked<MutexGuard<'_, T>> {
        tracked_lock(ranks::DRIVER_CORE, "driver_core", || self.core_state.lock())
    }

    /// Wakes the driver (and anyone else parked on the progress condvar).
    pub fn notify(&self) {
        self.progress.notify_all();
    }

    /// Parks on the progress condvar with the guard relinquished, until
    /// notified.
    pub fn wait(&self, guard: &mut Tracked<MutexGuard<'_, T>>) {
        self.progress.wait(guard.raw_mut());
    }

    /// Requests the driver to stop, and wakes it.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Taking the state lock orders this notify after any driver's
        // check-stop-then-wait sequence (the driver holds the lock from
        // its check until the wait releases it), so an untimed wait can
        // never miss the stop signal.
        let guard = tracked_lock(ranks::DRIVER_CORE, "driver_core", || self.core_state.lock());
        drop(guard);
        self.progress.notify_all();
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Scheduling state of one [`ReadyQueue`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// No enabled work known; not in the queue.
    Idle,
    /// In the queue, waiting for a driver.
    Queued,
    /// Popped by a driver or claimed by a submitter, who owns the slot
    /// until it finishes.
    Running,
    /// Owned, and new work arrived meanwhile — the finishing owner must
    /// re-enqueue.
    RunningDirty,
}

/// A queue of key-slot tokens with enabled simulator events.
///
/// Slots are small integers registered once per key; a submitter
/// [`claim`]s an idle slot (or a driver [`pop`]s a queued one), steps its
/// simulation while *owning* it (an owned slot cannot be claimed or
/// popped again until [`finish`]ed, which preserves per-key
/// serialization across submitters and stealing drivers alike), and
/// re-enqueues it when more events remain or new work arrived during
/// the run.
///
/// [`claim`]: ReadyQueue::claim
/// [`pop`]: ReadyQueue::pop
/// [`finish`]: ReadyQueue::finish
#[derive(Debug, Default)]
pub struct ReadyQueue {
    ready: ready_sync::Mutex<ReadyInner>,
}

#[derive(Debug, Default)]
struct ReadyInner {
    queue: std::collections::VecDeque<usize>,
    states: Vec<SlotState>,
}

impl ReadyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Registers a new slot (one per key), returning its token.
    pub fn register_slot(&self) -> usize {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        inner.states.push(SlotState::Idle);
        inner.states.len() - 1
    }

    /// Marks a slot as having enabled work. Returns `true` when the slot
    /// was newly enqueued (the caller should wake a driver); `false` when
    /// it was already queued or a running driver will re-enqueue it.
    pub fn enqueue(&self, slot: usize) -> bool {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        match inner.states[slot] {
            SlotState::Idle => {
                inner.states[slot] = SlotState::Queued;
                inner.queue.push_back(slot);
                true
            }
            SlotState::Running => {
                inner.states[slot] = SlotState::RunningDirty;
                false
            }
            SlotState::Queued | SlotState::RunningDirty => false,
        }
    }

    /// Marks a slot as having enabled work and, when nobody else owns or
    /// is about to own it, hands it straight to the caller: an idle slot
    /// goes `Running` without ever entering the queue and `true` is
    /// returned — the caller runs the slot itself and must
    /// [`ReadyQueue::finish`] it. Otherwise this is [`ReadyQueue::enqueue`]
    /// on a non-idle slot and returns `false`: a running slot goes dirty
    /// (its owner's `finish` re-enqueues it), a queued one is already
    /// some driver's to pop.
    pub fn claim(&self, slot: usize) -> bool {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        match inner.states[slot] {
            SlotState::Idle => {
                inner.states[slot] = SlotState::Running;
                true
            }
            SlotState::Running => {
                inner.states[slot] = SlotState::RunningDirty;
                false
            }
            SlotState::Queued | SlotState::RunningDirty => false,
        }
    }

    /// Pops the next ready slot, transferring ownership to the caller
    /// until [`ReadyQueue::finish`].
    pub fn pop(&self) -> Option<usize> {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        let slot = inner.queue.pop_front()?;
        debug_assert_eq!(inner.states[slot], SlotState::Queued);
        inner.states[slot] = SlotState::Running;
        Some(slot)
    }

    /// Pops up to half the queued slots (at least one when the queue is
    /// non-empty) in one lock acquisition, transferring ownership of each
    /// to the caller until its [`ReadyQueue::finish`]. This is the batch
    /// face of stealing: a thief drains `ceil(len/2)` of the victim's
    /// backlog in one pass instead of re-acquiring the queue lock per key.
    pub fn pop_half(&self) -> Vec<usize> {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        let take = inner.queue.len().div_ceil(2);
        let mut slots = Vec::with_capacity(take);
        for _ in 0..take {
            let Some(slot) = inner.queue.pop_front() else {
                break;
            };
            debug_assert_eq!(inner.states[slot], SlotState::Queued);
            inner.states[slot] = SlotState::Running;
            slots.push(slot);
        }
        slots
    }

    /// Releases an owned (popped or claimed) slot. `more` reports whether
    /// the slot still has enabled events; the slot is re-enqueued when
    /// `more` holds or work arrived while it ran. Returns `true` if it was
    /// re-enqueued — the caller must then wake a driver: a finishing
    /// submitter goes back to its own caller, and nobody else knows the
    /// queue just became non-empty.
    pub fn finish(&self, slot: usize, more: bool) -> bool {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        let requeue = more || inner.states[slot] == SlotState::RunningDirty;
        if requeue {
            inner.states[slot] = SlotState::Queued;
            inner.queue.push_back(slot);
        } else {
            inner.states[slot] = SlotState::Idle;
        }
        requeue
    }

    /// Queued slots right now.
    pub fn len(&self) -> usize {
        tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock())
            .queue
            .len()
    }

    /// Whether no slot is queued.
    pub fn is_empty(&self) -> bool {
        tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock())
            .queue
            .is_empty()
    }
}

/// The rendezvous of a pool of driver threads over a set of ready queues.
///
/// Parking is lost-wakeup-free by the same lock-ordering argument as
/// [`DriverCore`]: a parking driver re-checks for work *under the group
/// lock*, and both [`WorkGroup::notify`] and [`WorkGroup::request_stop`]
/// acquire that lock before signalling, so a wakeup issued after the
/// check cannot be missed — and a driver parked on an empty ready queue
/// observes shutdown promptly, with no timed waits anywhere.
#[derive(Debug, Default)]
pub struct WorkGroup {
    mu: Mutex<()>,
    cv: Condvar,
    stop: AtomicBool,
    broadcast: bool,
    /// Drivers that announced intent to park (eventcount fast path):
    /// while this is zero, [`WorkGroup::notify`] is one atomic load.
    sleepers: std::sync::atomic::AtomicUsize,
}

impl WorkGroup {
    /// Creates a group whose [`WorkGroup::notify`] wakes a single parked
    /// driver — correct when every driver can run any queue's work
    /// (work-stealing pools), and avoids thundering-herd wakeups on
    /// every submission.
    pub fn new() -> Self {
        WorkGroup::default()
    }

    /// Creates a group whose [`WorkGroup::notify`] wakes *every* parked
    /// driver. Required when drivers serve disjoint queues (stealing
    /// disabled): a single wakeup could land on a driver whose own queue
    /// is empty, stranding the work. Spuriously woken drivers re-check
    /// their predicate and re-park immediately.
    pub fn new_broadcast() -> Self {
        WorkGroup {
            broadcast: true,
            ..WorkGroup::default()
        }
    }

    /// Wakes a parked driver (after re-queueing a key, or when a
    /// governor pass falls due) — one driver, or all of them for a
    /// [`WorkGroup::new_broadcast`] group.
    ///
    /// Fast path: when no driver has announced intent to park, this is a
    /// single atomic load. The SeqCst pairing with
    /// [`WorkGroup::park_unless`] makes the skip sound: a parker
    /// announces itself (SeqCst RMW, then a fence) *before* re-checking
    /// for work, so either this load observes the sleeper (and
    /// notifies), or the parker's work check observes the state change
    /// that preceded this call.
    pub fn notify(&self) {
        // The fence orders the caller's state change (a re-queue under
        // the queue lock, or the relaxed stores a due-check reads) before
        // the sleepers load — without it, StoreLoad reordering could let
        // both the notifier miss the sleeper and the parker miss the
        // change.
        // audit:allow(atomics-seqcst) — the eventcount protocol needs the
        // StoreLoad barrier this fence provides (see the comment above);
        // acquire/release cannot order a prior store against a later load.
        std::sync::atomic::fence(Ordering::SeqCst);
        // audit:allow(atomics-seqcst) — part of the same single total order
        // as the parkers' announcements; see `WorkGroup::notify`'s docs.
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let guard = tracked_lock(ranks::WORKGROUP, "workgroup", || self.mu.lock());
        drop(guard);
        if self.broadcast {
            self.cv.notify_all();
        } else {
            self.cv.notify_one();
        }
    }

    /// Parks the calling driver until notified — unless `has_work`
    /// reports pending work or a stop was requested, both re-checked
    /// after announcing intent to park (see [`WorkGroup::notify`]) and
    /// again under the group lock (so a notify issued between the check
    /// and the wait cannot be missed).
    pub fn park_unless(&self, has_work: impl Fn() -> bool) {
        self.park(None, has_work);
    }

    /// Like [`WorkGroup::park_unless`], but wakes after `timeout` even
    /// with no notify — for drivers that must run periodic duties (e.g.
    /// wall-clock key aging) on a fully idle store, where no submission
    /// will ever notify them. Same lost-wakeup-free protocol; the timeout
    /// only adds an upper bound on how long the park lasts.
    pub fn park_timeout_unless(&self, timeout: std::time::Duration, has_work: impl Fn() -> bool) {
        self.park(Some(timeout), has_work);
    }

    fn park(&self, timeout: Option<std::time::Duration>, has_work: impl Fn() -> bool) {
        // audit:allow(atomics-seqcst) — the park announcement must be
        // totally ordered against the notifier's fast-path load, or a
        // sleeper and an enqueue could both go unobserved (lost wakeup);
        // see `WorkGroup::notify`.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // audit:allow(atomics-seqcst) — the twin of the fence in
        // `WorkGroup::notify`: `has_work` may read plain relaxed atomics
        // (the governance due-check), and only fence-to-fence ordering
        // guarantees that a notifier who missed the announcement above
        // had its state change seen by the check below.
        std::sync::atomic::fence(Ordering::SeqCst);
        let mut guard = tracked_lock(ranks::WORKGROUP, "workgroup", || self.mu.lock());
        if !(self.is_stopped() || has_work()) {
            match timeout {
                Some(timeout) => {
                    let _ = self.cv.wait_for(guard.raw_mut(), timeout);
                }
                None => self.cv.wait(guard.raw_mut()),
            }
        }
        drop(guard);
        // audit:allow(atomics-seqcst) — symmetric with the announcement
        // above; keeps the sleeper count in the same total order.
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests the pool to stop and wakes every parked driver.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        let guard = tracked_lock(ranks::WORKGROUP, "workgroup", || self.mu.lock());
        drop(guard);
        self.cv.notify_all();
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Spawns a named driver thread over a [`DriverCore`].
///
/// The driver repeatedly calls `step` under the lock; `step` returns
/// whether it made progress. When it did not, the driver parks on the
/// progress condvar until a submitter calls [`DriverCore::notify`] — no
/// timed polling: work can only be created under the lock the driver
/// holds from its `step` through the wait's release, and
/// [`DriverCore::request_stop`] takes that lock before notifying, so no
/// wakeup is lost. After a stop request the driver runs `on_stop` under
/// the lock — the place to fail pending completions so no client hangs —
/// and exits.
///
/// # Panics
///
/// Panics if the OS refuses to spawn a thread.
pub fn spawn_driver<T, F, G>(
    name: &str,
    core: Arc<DriverCore<T>>,
    mut step: F,
    on_stop: G,
) -> std::thread::JoinHandle<()>
where
    T: Send + 'static,
    F: FnMut(&mut T) -> bool + Send + 'static,
    G: FnOnce(&mut T) + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            loop {
                let mut state = core.lock();
                if !step(&mut state) {
                    // Re-checked under the lock: request_stop's notify
                    // is ordered after this check (it takes the lock),
                    // so either we see the flag here or the wait below
                    // is woken by it.
                    if core.is_stopped() {
                        break;
                    }
                    core.wait(&mut state);
                }
                if core.is_stopped() {
                    break;
                }
            }
            let mut state = core.lock();
            on_stop(&mut state);
        })
        // audit:allow(panic-path) — thread spawn fails only when the OS is
        // out of resources at startup; there is no driver to hand back, so
        // aborting is the only honest outcome.
        .expect("spawning a driver thread")
}

/// The result type a completion slot carries.
pub type OpOutcome = Result<OpResult, ThreadedError>;

#[derive(Debug, Default)]
struct SlotInner {
    result: Option<OpOutcome>,
    waker: Option<Waker>,
}

/// A one-shot completion cell for a single emulated operation.
///
/// The driver thread fills it exactly once; the submitting client either
/// blocks on it ([`CompletionSlot::wait`]) or polls it from a hand-rolled
/// future ([`CompletionSlot::poll_outcome`]) — both work without any async
/// runtime.
#[derive(Debug, Default)]
pub struct CompletionSlot {
    inner: Mutex<SlotInner>,
    done: Condvar,
}

impl CompletionSlot {
    /// Creates an empty slot.
    pub fn new() -> Self {
        CompletionSlot::default()
    }

    /// Fills the slot, waking blocked waiters and any registered waker.
    /// A second fill is ignored (first outcome wins).
    pub fn fill(&self, outcome: OpOutcome) {
        let waker = {
            let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
            if inner.result.is_some() {
                return;
            }
            inner.result = Some(outcome);
            self.done.notify_all();
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// The outcome, if already filled.
    pub fn try_outcome(&self) -> Option<OpOutcome> {
        tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock())
            .result
            .clone()
    }

    /// Blocks until the slot is filled.
    pub fn wait(&self) -> OpOutcome {
        let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
        loop {
            if let Some(outcome) = inner.result.clone() {
                return outcome;
            }
            self.done.wait(inner.raw_mut());
        }
    }

    /// Future-style poll: ready with the outcome, or registers the waker.
    pub fn poll_outcome(&self, cx: &mut Context<'_>) -> Poll<OpOutcome> {
        let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
        if let Some(outcome) = inner.result.clone() {
            Poll::Ready(outcome)
        } else {
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The state a [`ThreadedRegister`]'s driver guards: the simulation plus
/// the completion slots of in-flight operations.
#[derive(Debug)]
pub struct RegisterCell<P: RegisterProtocol + 'static> {
    /// The hosted simulation.
    pub sim: Simulation<P::Object, P::Client>,
    /// `(op, slot)` pairs not yet completed.
    pub pending: Vec<(OpId, Arc<CompletionSlot>)>,
}

impl<P: RegisterProtocol + 'static> RegisterCell<P> {
    /// Wraps a fresh simulation.
    pub fn new(sim: Simulation<P::Object, P::Client>) -> Self {
        RegisterCell {
            sim,
            pending: Vec::new(),
        }
    }

    /// Executes up to `budget` enabled events; returns how many ran.
    /// Call [`RegisterCell::complete_pending`] (or the `_with` variant)
    /// afterwards to fill the slots of operations that returned.
    ///
    /// # Panics
    ///
    /// Panics if the simulation rejects an event it reported enabled
    /// (a bug in the protocol machinery, not a runtime condition).
    pub fn step_events(&mut self, budget: usize) -> usize {
        let mut stepped = 0;
        while stepped < budget {
            let Some(ev) = self.sim.first_enabled_event() else {
                break;
            };
            // audit:allow(panic-path) — `ev` came from `first_enabled_event`
            // one line up with no intervening mutation, so `step` accepting it
            // is an invariant of the simulator, not a runtime condition.
            self.sim.step(ev).expect("enabled event applies");
            stepped += 1;
        }
        stepped
    }

    /// Whether the simulation has an enabled event (more work to run).
    pub fn has_enabled(&self) -> bool {
        self.sim.has_enabled_event()
    }

    /// Fills the slots of every operation that has returned.
    pub fn complete_pending(&mut self) {
        self.complete_pending_with(|_, _| {});
    }

    /// Like [`RegisterCell::complete_pending`], additionally visiting each
    /// completed `(op, result)` pair (the hook shard metrics and per-op
    /// latency accounting hang off).
    pub fn complete_pending_with(&mut self, mut visit: impl FnMut(OpId, &OpResult)) {
        let sim = &self.sim;
        self.pending.retain(|(op, slot)| {
            if let Some(result) = sim.op_record(*op).result.clone() {
                visit(*op, &result);
                slot.fill(Ok(result));
                false
            } else {
                true
            }
        });
    }

    /// Fails every pending operation (used at shutdown).
    pub fn fail_pending(&mut self, err: &ThreadedError) {
        for (_, slot) in self.pending.drain(..) {
            slot.fill(Err(err.clone()));
        }
    }

    /// Submits one operation: invokes it and returns its op id plus a
    /// completion slot (already filled if the operation completed
    /// synchronously).
    ///
    /// # Errors
    ///
    /// Fails if the simulation rejects the invocation.
    pub fn submit(
        &mut self,
        client: ClientId,
        req: OpRequest,
    ) -> Result<(OpId, Arc<CompletionSlot>), ThreadedError> {
        let op = self
            .sim
            .invoke(client, req)
            .map_err(|e| ThreadedError::Rejected(e.to_string()))?;
        let slot = Arc::new(CompletionSlot::new());
        if let Some(result) = self.sim.op_record(op).result.clone() {
            slot.fill(Ok(result));
        } else {
            self.pending.push((op, Arc::clone(&slot)));
        }
        Ok((op, slot))
    }
}

/// A live register service backed by a driver thread.
pub struct ThreadedRegister<P: RegisterProtocol + 'static> {
    proto: P,
    core: Arc<DriverCore<RegisterCell<P>>>,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl<P: RegisterProtocol + 'static> std::fmt::Debug for ThreadedRegister<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedRegister")
            .field("protocol", &self.proto.name())
            .field("driver_running", &self.driver.is_some())
            .finish_non_exhaustive()
    }
}

impl<P: RegisterProtocol + 'static> ThreadedRegister<P> {
    /// Starts the service: builds the simulation and spawns the driver.
    pub fn start(proto: P) -> Self {
        let core = Arc::new(DriverCore::new(RegisterCell::<P>::new(proto.new_sim())));
        let driver = spawn_driver(
            "register-driver",
            Arc::clone(&core),
            |cell: &mut RegisterCell<P>| {
                if cell.step_events(1) > 0 {
                    cell.complete_pending();
                    true
                } else {
                    false
                }
            },
            |cell: &mut RegisterCell<P>| {
                cell.complete_pending();
                cell.fail_pending(&ThreadedError::ShutDown);
            },
        );
        ThreadedRegister {
            proto,
            core,
            driver: Some(driver),
        }
    }

    /// Creates a new client handle (usable from any thread).
    pub fn client(&self) -> ClientHandle<P> {
        let mut cell = self.core.lock();
        let id = self.proto.add_client(&mut cell.sim);
        drop(cell);
        ClientHandle {
            core: Arc::clone(&self.core),
            id,
        }
    }

    /// Crashes a base object (fault injection).
    pub fn crash_object(&self, obj: rsb_fpsm::ObjectId) {
        self.core.lock().sim.crash_object(obj);
    }

    /// Current storage cost snapshot.
    pub fn storage_cost(&self) -> rsb_fpsm::StorageCost {
        self.core.lock().sim.storage_cost()
    }

    /// Peak total storage in bits observed so far.
    pub fn peak_storage_bits(&self) -> u64 {
        self.core.lock().sim.peak_storage_bits()
    }

    /// Stops the driver thread. Idempotent; also called on drop.
    pub fn shutdown(mut self) {
        self.stop_driver();
    }

    fn stop_driver(&mut self) {
        self.core.request_stop();
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
    }
}

impl<P: RegisterProtocol + 'static> Drop for ThreadedRegister<P> {
    fn drop(&mut self) {
        self.stop_driver();
    }
}

/// A blocking client of a [`ThreadedRegister`].
pub struct ClientHandle<P: RegisterProtocol + 'static> {
    core: Arc<DriverCore<RegisterCell<P>>>,
    id: ClientId,
}

impl<P: RegisterProtocol + 'static> std::fmt::Debug for ClientHandle<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientHandle")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<P: RegisterProtocol + 'static> ClientHandle<P> {
    /// The client id inside the simulation.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Performs a blocking `write(v)`.
    ///
    /// # Errors
    ///
    /// Fails if the runtime is shut down or the invocation is rejected
    /// (e.g., re-entrant use of one handle from two threads).
    pub fn write(&self, value: Value) -> Result<(), ThreadedError> {
        self.run_op(OpRequest::Write(value)).map(|_| ())
    }

    /// Performs a blocking `read()`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClientHandle::write`].
    pub fn read(&self) -> Result<Value, ThreadedError> {
        match self.run_op(OpRequest::Read)? {
            OpResult::Read(v) => Ok(v),
            // audit:allow(panic-path) — the driver answers a `Read` request
            // with a `Read` result by construction; a write ack here is a
            // protocol-machinery bug worth crashing on.
            OpResult::Write => unreachable!("read returned a write ack"),
        }
    }

    fn run_op(&self, req: OpRequest) -> Result<OpResult, ThreadedError> {
        let slot = {
            let mut cell = self.core.lock();
            if self.core.is_stopped() {
                return Err(ThreadedError::ShutDown);
            }
            let (_, slot) = cell.submit(self.id, req)?;
            slot
        };
        // Wake the driver, then wait on the slot (not the sim lock).
        self.core.notify();
        slot.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abd, Adaptive, RegisterConfig, Safe};

    #[test]
    fn concurrent_threads_adaptive() {
        let reg = ThreadedRegister::start(Adaptive::new(RegisterConfig::paper(1, 2, 32).unwrap()));
        let writers: Vec<_> = (0..4).map(|_| reg.client()).collect();
        let handles: Vec<_> = writers
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                std::thread::spawn(move || {
                    for round in 0..5u64 {
                        c.write(Value::seeded(i as u64 * 100 + round, 32)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let reader = reg.client();
        let got = reader.read().unwrap();
        assert_eq!(got.len(), 32);
        reg.shutdown();
    }

    #[test]
    fn abd_roundtrip_threaded() {
        let reg = ThreadedRegister::start(Abd::new(RegisterConfig::new(3, 1, 1, 16).unwrap()));
        let c = reg.client();
        let v = Value::seeded(9, 16);
        c.write(v.clone()).unwrap();
        assert_eq!(c.read().unwrap(), v);
        reg.shutdown();
    }

    #[test]
    fn safe_register_with_crash_threaded() {
        let reg = ThreadedRegister::start(Safe::new(RegisterConfig::paper(1, 2, 16).unwrap()));
        reg.crash_object(rsb_fpsm::ObjectId(0));
        let c = reg.client();
        let v = Value::seeded(2, 16);
        c.write(v.clone()).unwrap();
        let got = c.read().unwrap();
        // Safe semantics: with no concurrent writes the value must match.
        assert_eq!(got, v);
        reg.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_ops() {
        let reg = ThreadedRegister::start(Abd::new(RegisterConfig::new(3, 1, 1, 8).unwrap()));
        let c = reg.client();
        reg.shutdown();
        assert_eq!(c.read().unwrap_err(), ThreadedError::ShutDown);
    }

    #[test]
    fn pop_half_takes_ceil_half_and_owns_slots() {
        let q = ReadyQueue::new();
        let slots: Vec<usize> = (0..5).map(|_| q.register_slot()).collect();
        for &s in &slots {
            assert!(q.enqueue(s));
        }
        // 5 queued → ceil(5/2) = 3 popped, all owned by the thief.
        let stolen = q.pop_half();
        assert_eq!(stolen, slots[..3].to_vec());
        assert_eq!(q.len(), 2);
        // An owned slot cannot be enqueued again — it goes dirty and the
        // finishing thief re-enqueues it.
        assert!(!q.enqueue(stolen[0]));
        assert!(q.finish(stolen[0], false), "dirty slot re-enqueues");
        assert!(!q.finish(stolen[1], false));
        assert!(q.finish(stolen[2], true), "more work re-enqueues");
        assert_eq!(q.len(), 4);
        // Empty queue → empty batch.
        while q.pop().is_some() {}
        assert!(q.pop_half().is_empty());
    }

    #[test]
    fn claim_owns_an_idle_slot_and_dirties_a_running_one() {
        let q = ReadyQueue::new();
        let slot = q.register_slot();
        assert!(q.claim(slot), "idle slot goes to the claimer");
        assert!(q.is_empty(), "a claimed slot never enters the queue");
        // A second claimer (or enqueuer) finds it running: dirty, not owned.
        assert!(!q.claim(slot));
        assert!(!q.enqueue(slot));
        assert!(q.finish(slot, false), "dirty slot re-enqueues on finish");
        // Queued now: a driver's to pop, not a submitter's to claim.
        assert!(!q.claim(slot));
        assert_eq!(q.pop(), Some(slot));
        assert!(!q.finish(slot, false));
        assert!(q.claim(slot), "idle again");
        assert!(!q.finish(slot, false));
    }

    #[test]
    fn park_timeout_unless_wakes_without_notify() {
        let group = WorkGroup::new();
        let start = std::time::Instant::now();
        group.park_timeout_unless(std::time::Duration::from_millis(10), || false);
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        // Pending work skips the park entirely.
        let start = std::time::Instant::now();
        group.park_timeout_unless(std::time::Duration::from_mins(1), || true);
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn completion_slot_blocks_and_polls() {
        use std::task::{Context, Poll, Wake, Waker};

        struct Flag(std::sync::atomic::AtomicBool);
        impl Wake for Flag {
            fn wake(self: Arc<Self>) {
                // audit:allow(atomics-relaxed) — the filler thread is joined
                // before the flag is read; the join is the sync point.
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let slot = Arc::new(CompletionSlot::new());
        let flag = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        assert!(slot.poll_outcome(&mut cx).is_pending());

        let filler = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.fill(Ok(OpResult::Write)))
        };
        assert_eq!(slot.wait(), Ok(OpResult::Write));
        filler.join().unwrap();
        // audit:allow(atomics-relaxed) — see the store in `wake`.
        assert!(flag.0.load(Ordering::Relaxed), "waker fired on fill");
        assert_eq!(slot.poll_outcome(&mut cx), Poll::Ready(Ok(OpResult::Write)));
        // First outcome wins.
        slot.fill(Err(ThreadedError::ShutDown));
        assert_eq!(slot.try_outcome(), Some(Ok(OpResult::Write)));
    }
}
