//! One shard: a map of per-key register simulations, each run to
//! completion by the thread that submits to it.
//!
//! Keys live behind *per-key* locks (the shard map lock covers only
//! placement and lifecycle), and a [`ReadyQueue`] tracks who owns each
//! key's slot. A submission invokes its operation under the key lock,
//! then — every lock released — *claims* the slot and drains the key's
//! simulator events on the calling thread ([`ShardCore::run_token`]), so
//! the completion slot it returns is already filled: no queue, no driver
//! wake-up, no second wake-up back to the caller. Only when the slot is
//! owned by someone else (another submitter or a driver is stepping the
//! key right now) is it marked dirty instead; its owner re-queues it on
//! finishing and wakes a pool driver, which pops it and runs the
//! operations that arrived meanwhile. An owned slot has exactly one
//! owner until it finishes — what keeps per-key serialization across
//! submitters, home drivers and the idle drivers of other shards that
//! *steal* queued keys.
//!
//! On top of the same per-key lifecycle, a [`HistoryPolicy`] bounds each
//! register's `OpRecord` history (compaction keeps the frontier writes
//! the consistency checkers need), and a quiescent key can be *evicted*
//! to a [`SimSnapshot`] and rematerialized on its next operation.
//!
//! Eviction is *governed*: an [`EvictionPolicy`] makes the driver pool
//! run the reclamation — drivers sweep a shard for keys quiescent past
//! the idle threshold, and an occupancy trigger (one atomic comparison
//! against an incrementally-maintained per-shard live-bits counter)
//! evicts coldest-first down to a low watermark. Submitters never sweep;
//! each pays one O(1) due-check after its run
//! ([`ShardEngine::wants_governing`]) and wakes a driver only when a
//! pass is due — so bounded space holds under sustained traffic with
//! zero dedicated threads and without a sweep on any operation's path.

use crate::config::ShardSpec;
use crate::config::{EvictionPolicy, HistoryPolicy, ProtocolSpec};
use crate::mcsync::{AtomicU64, Ordering};
use crate::metrics::{AtomicCounters, EvictionCause, ShardMetrics};
use crate::recorder::{FlightEventKind, FlightRecorder};
use crate::store::StoreError;
use rsb_coding::Value;
use rsb_fpsm::{
    ClientId, OpId, OpRecord, OpRequest, OpResult, SimSnapshot, Simulation, StorageCost,
};
use rsb_registers::lockorder::{ranks, tracked_lock, tracked_try};
use rsb_registers::{
    Abd, AbdAtomic, Adaptive, Coded, CompletionSlot, ReadyQueue, RegisterCell, RegisterProtocol,
    Safe, ThreadedError, WorkGroup,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Cap on eviction *attempts* (key locks taken) per occupancy-governor
/// pass, so a sweeping driver returns to ready keys quickly; the
/// trigger stays armed and the next pass continues where this one left
/// off.
const GOVERN_ATTEMPTS_PER_PASS: usize = 32;

/// After a futile occupancy pass (armed, but nothing was quiescent
/// enough to evict), the trigger stays disarmed for this many shard
/// ticks. Quiescent keys can only appear through traffic — which is
/// exactly what advances ticks — so the backoff self-clears the moment
/// eviction could plausibly succeed again, and an armed-but-stuck
/// governor stops paying a full cold-scan on every driver iteration.
const GOVERN_FUTILE_BACKOFF_TICKS: u64 = 64;

/// Submission-time bookkeeping for one in-flight operation, matched up
/// at completion to record end-to-end latency split by whether the
/// submission had to rematerialize an evicted key, plus the phase split
/// (queue wait vs execution).
struct InflightOp {
    op: OpId,
    started: Instant,
    /// First step batch (the submitter's own inline run, or a driver's)
    /// that picked the key up after this op was submitted — the
    /// queue-wait → execute boundary. Phase attribution is
    /// batch-granular: every op in flight on a key shares the batch's
    /// execute-start stamp.
    exec_start: Option<Instant>,
    rematerialized: bool,
}

/// One key's live register: its simulation cell plus the sim-level
/// clients allocated for it so far (reused across operations when idle).
struct KeyCell<P: RegisterProtocol + 'static> {
    cell: RegisterCell<P>,
    clients: Vec<ClientId>,
    inflight: Vec<InflightOp>,
}

impl<P: RegisterProtocol + 'static> KeyCell<P> {
    fn new(sim: Simulation<P::Object, P::Client>) -> Self {
        KeyCell {
            cell: RegisterCell::new(sim),
            clients: Vec::new(),
            inflight: Vec::new(),
        }
    }
}

/// Visits one completed operation: bumps the op/byte counters, records
/// end-to-end latency (reads into the hit/rematerialize histograms,
/// writes into theirs), and splits the op's lifetime into queue-wait
/// (submit → first executing batch) and execute (batch → completion)
/// phase samples. `done` is the completion stamp, taken once per flush
/// so a large batch pays one clock read.
fn note_completed(
    counters: &AtomicCounters,
    inflight: &mut Vec<InflightOp>,
    op: OpId,
    result: &OpResult,
    done: Instant,
) {
    counters.note_completion(result);
    if let Some(i) = inflight.iter().position(|e| e.op == op) {
        let entry = inflight.swap_remove(i);
        let total_ns = done.saturating_duration_since(entry.started).as_nanos() as u64;
        let exec_start = entry.exec_start.unwrap_or(done);
        counters.note_phases(
            exec_start
                .saturating_duration_since(entry.started)
                .as_nanos() as u64,
            done.saturating_duration_since(exec_start).as_nanos() as u64,
        );
        match result {
            OpResult::Read(_) => counters.note_read_latency(total_ns, entry.rematerialized),
            OpResult::Write => counters.note_write_latency(total_ns),
        }
    }
}

/// A key is either materialized (live simulation) or evicted to a
/// quiescent snapshot. `Vacant` is a transient placeholder used to move
/// a snapshot out during rematerialization — it never outlives the key
/// lock's critical section in `submit`, so no other code path observes
/// it.
// `Live` dwarfs the other variants, but it is also the variant every hot
// operation touches — boxing it to please `large_enum_variant` would buy
// a smaller *evicted* footprint at the price of a pointer chase on every
// submit/step.
#[allow(clippy::large_enum_variant)]
enum KeyState<P: RegisterProtocol + 'static> {
    Live(KeyCell<P>),
    Evicted(SimSnapshot<P::Object>),
    Vacant,
}

/// One key's slot: the per-key lock every simulation access goes
/// through, plus governor-readable metadata kept *outside* the lock so
/// cold-scans never contend with a running driver. The shard map lock is
/// *not* needed to step a key.
struct KeySlot<P: RegisterProtocol + 'static> {
    state: crate::mcsync::Mutex<KeyState<P>>,
    /// Shard tick of the key's most recent activity (submission or step
    /// batch) — what the idle sweep and the coldest-first order read.
    /// Written under the key lock, read lock-free by the governor.
    last_active: AtomicU64,
    /// Milliseconds since the shard's epoch at the key's most recent
    /// activity — the wall-clock twin of `last_active`, stamped only
    /// when wall-clock aging is configured (ticks freeze without
    /// traffic; this does not).
    last_active_at: AtomicU64,
    /// Live-simulation bits this key currently contributes to the
    /// shard's `live_bits` aggregate; zero while evicted.
    cached_bits: AtomicU64,
}

impl<P: RegisterProtocol + 'static> KeySlot<P> {
    fn new(state: KeyState<P>) -> Self {
        KeySlot {
            state: crate::mcsync::Mutex::new(state),
            last_active: AtomicU64::new(0),
            last_active_at: AtomicU64::new(0),
            cached_bits: AtomicU64::new(0),
        }
    }
}

/// The object-safe surface the store (and its work-stealing driver pool)
/// drives a shard through.
pub(crate) trait ShardEngine: Send + Sync {
    /// Submits one operation on a key and, unless the key is being run
    /// elsewhere, runs it to completion on the calling thread. Returns
    /// the operation's completion slot — already filled in the common
    /// case.
    fn submit(&self, key: &str, req: OpRequest) -> Result<Arc<CompletionSlot>, StoreError>;

    /// Submits a whole batch of operations in one pass: placement for
    /// every key under a single map-lock hold, then per distinct key one
    /// key-lock acquisition (however many ops land on it) and one inline
    /// run. Returns one completion slot (or error) per op, in submission
    /// order — per-op failures never poison their batchmates.
    fn submit_batch(
        &self,
        ops: Vec<(String, OpRequest)>,
    ) -> Vec<Result<Arc<CompletionSlot>, StoreError>>;

    /// Pops one ready key and drains its enabled events (the home
    /// driver's path). Returns whether any key was run.
    fn run_ready(&self) -> bool;

    /// Steals up to half this shard's ready queue in one `pop_half`
    /// pass, stamping all victim-side steal accounting (per-key `stolen`
    /// counts, the batch counter and flight events) *at pop time* — so
    /// metrics are stable the moment an operation's completion is
    /// observable, not only after the whole stolen batch ran. The caller
    /// owns the returned tokens and must hand them to
    /// [`ShardEngine::run_tokens`].
    fn steal_batch(&self) -> Vec<usize>;

    /// Runs a set of tokens previously taken with
    /// [`ShardEngine::steal_batch`].
    fn run_tokens(&self, tokens: Vec<usize>);

    /// Whether the shard's ready queue is non-empty.
    fn has_ready(&self) -> bool;

    /// Counts a steal performed *by* this shard's driver.
    fn note_steal(&self);

    /// Flushes completed results and fails what remains. Call after the
    /// stop flag is set and every driver has joined. Submitters may still
    /// be inside an inline run then; the key lock carries the rest of the
    /// precondition: a run and this sweep exclude each other per key, and
    /// a submission that takes the key lock after the sweep sees the stop
    /// flag there and fails its own operations.
    fn fail_all_pending(&self);

    /// Evicts every quiescent key to a snapshot; returns how many.
    fn evict_quiescent(&self) -> usize;

    /// Cheap (a few atomic loads) check: is a governor pass due right
    /// now — the occupancy trigger armed, or the shard clock far enough
    /// past the last idle sweep? Submitters call it after every run and
    /// drivers every loop iteration, so it must stay O(1).
    fn wants_governing(&self) -> bool;

    /// Runs one governor pass under the configured [`EvictionPolicy`].
    /// `idle` marks a driver with no ready work (the idle-time sweep
    /// runs only then; the occupancy trigger fires either way). Returns
    /// how many keys were evicted.
    fn govern(&self, idle: bool) -> usize;

    /// Snapshot of the shard's metrics.
    fn metrics(&self) -> ShardMetrics;

    /// Records server-side wire time (frame decode → response flushed)
    /// for one TCP op homed on this shard.
    fn note_wire_latency(&self, ns: u64);

    /// The register value length every write must match.
    fn value_len(&self) -> usize;

    /// The registers' initial value `v₀`.
    fn initial_value(&self) -> Value;

    /// The operation records of one key's register, if materialized or
    /// evicted (snapshots preserve history).
    fn key_records(&self, key: &str) -> Option<Vec<OpRecord>>;

    /// Keys materialized on this shard.
    fn keys(&self) -> Vec<String>;

    /// The protocol's stable name.
    fn protocol_name(&self) -> &'static str;
}

/// The typed shard implementation behind [`ShardEngine`].
struct ShardCore<P: RegisterProtocol + Send + Sync + 'static> {
    /// The shard's protocol (immutable configuration; `new_sim` /
    /// `add_client` take `&self`).
    proto: P,
    /// The placement map: key names to slot tokens. Guarded by its own
    /// lock, held only for the name lookup / first-touch insert — never
    /// across key locks or simulation work.
    map: parking_lot::Mutex<HashMap<String, usize>>,
    /// Append-only slot table, indexed by ready-queue token. Readers
    /// (the per-pop hot path, metrics) take the shared lock; the only
    /// writer is key materialization in `submit`, which already holds
    /// the map lock (lock order: map → slots, never reversed).
    slots: parking_lot::RwLock<Vec<Arc<KeySlot<P>>>>,
    ready: ReadyQueue,
    group: Arc<WorkGroup>,
    counters: Arc<AtomicCounters>,
    /// This shard's index within the store (stable event/metrics label).
    shard: usize,
    /// The store-wide flight recorder every shard stamps events into.
    recorder: Arc<FlightRecorder>,
    policy: HistoryPolicy,
    eviction: EvictionPolicy,
    batch: usize,
    /// Optional wall-clock idle-aging bound: keys untouched this long
    /// are sweep-eligible even with a frozen tick clock (see
    /// [`StoreConfig::with_idle_wall_clock`](crate::StoreConfig::with_idle_wall_clock)).
    idle_wall_clock: Option<std::time::Duration>,
    /// The instant the shard was built — the zero point `last_active_at`
    /// stamps are measured from.
    epoch: Instant,
    name: &'static str,
    value_len: usize,
    initial: Value,
    /// Logical shard clock: one tick per submission or driver step
    /// batch. Key idle ages are measured against it, so governance is
    /// wall-clock-free (deterministic under test schedules).
    ticks: AtomicU64,
    /// Incrementally-maintained sum of every live key's simulation bits
    /// — the O(1) value the occupancy trigger compares against its
    /// watermark (ground-truth occupancy is still re-measured by
    /// `metrics`, and tests assert the two agree at quiescence).
    live_bits: AtomicU64,
    /// Serializes governor sweeps: a second driver finding the lock held
    /// skips its pass instead of duplicating the cold-scan.
    govern_lock: parking_lot::Mutex<()>,
    /// Tick before which the occupancy trigger stays disarmed after a
    /// futile pass (see [`GOVERN_FUTILE_BACKOFF_TICKS`]).
    govern_backoff: AtomicU64,
    /// Tick of the most recent idle sweep — what the `IdleAfter`
    /// due-check measures the shard clock against.
    last_idle_sweep: AtomicU64,
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardCore<P>
where
    P::Object: Clone,
{
    /// Applies the history policy to a key after completions have been
    /// flushed (so no un-notified record can be compacted).
    fn apply_history_policy(&self, kc: &mut KeyCell<P>) {
        let compact = match self.policy {
            HistoryPolicy::Unbounded => false,
            HistoryPolicy::TruncateAfter(n) => kc.cell.sim.live_records() > n,
            HistoryPolicy::TruncateOnQuiescence => kc.cell.sim.is_quiescent(),
        };
        if compact {
            let dropped = kc.cell.sim.compact_history();
            self.counters.note_truncated(dropped);
            if dropped > 0 {
                self.recorder
                    .record(FlightEventKind::Compaction, Some(self.shard), dropped);
            }
        }
    }

    /// Advances the shard clock and returns the new tick.
    fn tick(&self) -> u64 {
        // audit:allow(atomics-relaxed) — the tick clock is advisory (idle-age
        // comparisons); it orders nothing and skew only shifts eviction timing.
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The shard clock's current tick.
    fn now(&self) -> u64 {
        // audit:allow(atomics-relaxed) — advisory, as in `tick`: a stale
        // read delays (or briefly duplicates) one governor pass or shifts
        // which sweep reclaims a key; what is safe to reclaim is decided
        // under the key lock.
        self.ticks.load(Ordering::Relaxed)
    }

    /// Re-measures one key's live-simulation bits into the shard
    /// aggregate. Call under the key lock whenever the key's state may
    /// have changed size (submission, step batch, evict,
    /// rematerialize); evicted/vacant keys account as zero.
    fn account_occupancy(&self, slot: &KeySlot<P>, state: &KeyState<P>) {
        let bits = match state {
            KeyState::Live(kc) => kc.cell.sim.storage_cost().total(),
            KeyState::Evicted(_) | KeyState::Vacant => 0,
        };
        // audit:allow(atomics-relaxed) — written under the key lock (the lock
        // orders it); lock-free readers (governor screens) tolerate staleness.
        let prev = slot.cached_bits.swap(bits, Ordering::Relaxed);
        if bits >= prev {
            // audit:allow(atomics-relaxed) — occupancy aggregate feeding an
            // advisory trigger threshold; no data is published through it.
            self.live_bits.fetch_add(bits - prev, Ordering::Relaxed);
        } else {
            // audit:allow(atomics-relaxed) — see the fetch_add above.
            self.live_bits.fetch_sub(prev - bits, Ordering::Relaxed);
        }
    }

    /// Tries to evict one key: under its lock, a live, fully-quiescent
    /// key (no pending completions, no in-flight simulator work) is
    /// compacted (under a truncating history policy) and snapshotted.
    /// Returns whether the key was evicted.
    fn try_evict(&self, slot: &KeySlot<P>, cause: EvictionCause) -> bool {
        let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
        let KeyState::Live(kc) = &mut *state else {
            return false;
        };
        if !kc.cell.pending.is_empty() || !kc.cell.sim.is_quiescent() {
            return false;
        }
        // Compact before snapshotting — but only under a truncating
        // policy: `Unbounded` promises the full history, which the
        // snapshot then carries whole.
        if self.policy != HistoryPolicy::Unbounded {
            let dropped = kc.cell.sim.compact_history();
            self.counters.note_truncated(dropped);
            if dropped > 0 {
                self.recorder
                    .record(FlightEventKind::Compaction, Some(self.shard), dropped);
            }
        }
        let Some(snap) = kc.cell.sim.snapshot() else {
            return false;
        };
        let snap_bits = snap.storage_bits();
        *state = KeyState::Evicted(snap);
        self.counters.note_eviction(cause);
        let kind = match cause {
            EvictionCause::Manual => FlightEventKind::EvictManual,
            EvictionCause::Idle => FlightEventKind::EvictIdle,
            EvictionCause::Occupancy => FlightEventKind::EvictOccupancy,
        };
        self.recorder.record(kind, Some(self.shard), snap_bits);
        self.account_occupancy(slot, &state);
        true
    }

    /// A snapshot of the slot table (cheap `Arc` clones), so sweeps
    /// never hold the table lock across key locks.
    fn slot_table(&self) -> Vec<Arc<KeySlot<P>>> {
        tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read()).clone()
    }

    /// Resolves a key to its slot token with the map lock already held,
    /// materializing the placement on first touch (lock order: map →
    /// slots, never reversed).
    fn place_locked(&self, index: &mut HashMap<String, usize>, key: &str) -> usize {
        if let Some(&t) = index.get(key) {
            return t;
        }
        let token = self.ready.register_slot();
        let mut slots = tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.write());
        debug_assert_eq!(token, slots.len());
        slots.push(Arc::new(KeySlot::new(KeyState::Live(KeyCell::new(
            self.proto.new_sim(),
        )))));
        drop(slots);
        index.insert(key.to_owned(), token);
        token
    }

    /// Rematerializes an evicted key in place (live keys are untouched);
    /// returns whether a snapshot was restored. Call under the key lock.
    fn materialize(&self, state: &mut KeyState<P>) -> bool {
        if !matches!(&*state, KeyState::Evicted(_)) {
            return false;
        }
        // Move the snapshot out (no deep copy): `Vacant` exists only
        // inside this key-lock critical section.
        let KeyState::Evicted(snap) = std::mem::replace(state, KeyState::Vacant) else {
            unreachable!("matched above");
        };
        *state = KeyState::Live(KeyCell::new(Simulation::restore(snap)));
        self.counters.note_rematerialized();
        self.recorder
            .record(FlightEventKind::Rematerialize, Some(self.shard), 0);
        true
    }

    /// The per-operation submit body shared by `submit` and
    /// `submit_batch`, run under the key lock: client reuse/allocation,
    /// counters and flight events, synchronous-completion accounting.
    fn submit_on_cell(
        &self,
        kc: &mut KeyCell<P>,
        rematerialized: bool,
        req: OpRequest,
        started: Instant,
    ) -> Result<Arc<CompletionSlot>, StoreError> {
        let client = kc
            .clients
            .iter()
            .copied()
            .find(|&c| kc.cell.sim.outstanding_op(c).is_none())
            .unwrap_or_else(|| {
                let c = self.proto.add_client(&mut kc.cell.sim);
                kc.clients.push(c);
                c
            });
        let write_bytes = match &req {
            OpRequest::Write(v) => Some(v.len() as u64),
            OpRequest::Read => None,
        };
        match kc.cell.submit(client, req) {
            Ok((op, slot)) => {
                if let Some(bytes) = write_bytes {
                    self.counters.note_write_submitted(bytes);
                    self.recorder
                        .record(FlightEventKind::SubmitWrite, Some(self.shard), bytes);
                } else {
                    self.counters.note_read_submitted();
                    self.recorder
                        .record(FlightEventKind::SubmitRead, Some(self.shard), 0);
                }
                // A protocol could in principle complete synchronously
                // (the slot is then filled with no pending entry, so no
                // driver ever sees it); count it here, still under the
                // key lock so a driver cannot race us. The op never
                // waited for a driver, so its queue-wait phase is zero
                // and its whole lifetime is execute.
                if let Some(Ok(result)) = slot.try_outcome() {
                    self.counters.note_completion(&result);
                    let total_ns = started.elapsed().as_nanos() as u64;
                    self.counters.note_phases(0, total_ns);
                    match result {
                        OpResult::Read(_) => {
                            self.counters.note_read_latency(total_ns, rematerialized);
                        }
                        OpResult::Write => self.counters.note_write_latency(total_ns),
                    }
                } else {
                    kc.inflight.push(InflightOp {
                        op,
                        started,
                        exec_start: None,
                        rematerialized,
                    });
                }
                Ok(slot)
            }
            Err(e) => {
                self.counters.note_rejected();
                self.recorder
                    .record(FlightEventKind::Rejected, Some(self.shard), 0);
                Err(e.into())
            }
        }
    }

    /// Fails everything pending on one live key (the shutdown path),
    /// flushing completed results first. Call under the key lock.
    fn shut_down_key(&self, kc: &mut KeyCell<P>) {
        let counters = &self.counters;
        let inflight = &mut kc.inflight;
        let done = Instant::now();
        kc.cell
            .complete_pending_with(|op, r| note_completed(counters, inflight, op, r, done));
        kc.cell.fail_pending(&ThreadedError::ShutDown);
        kc.inflight.clear();
    }

    /// Stamps a key's activity clocks: the logical tick always, the
    /// wall-clock twin only when aging is enabled (keeping the extra
    /// clock read off the default hot path). Call under the key lock.
    fn touch(&self, slot: &KeySlot<P>) {
        // audit:allow(atomics-relaxed) — activity stamps are read by the
        // governor for aging decisions only; a stale read delays one sweep.
        slot.last_active.store(self.tick(), Ordering::Relaxed);
        if self.idle_wall_clock.is_some() {
            slot.last_active_at
                // audit:allow(atomics-relaxed) — same as the tick stamp above.
                .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        }
    }

    /// One key's turn, with the slot already claimed or popped (owned by
    /// the caller, who holds no lock): drain *every* enabled simulator
    /// event for the key under a single lock hold — coalesced stepping.
    /// Draining the whole key costs one exec-start stamp, one completion
    /// flush, one history pass, and one tick however many batch-loads
    /// the backlog needed. No new events can appear while the key lock
    /// is held, so the drain terminates (the backlog is bounded by
    /// in-flight ops). A re-queue on finishing wakes a driver: the
    /// finisher may be a submitter on its way back to its caller.
    fn run_token(&self, token: usize) {
        let key_slot =
            Arc::clone(&tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token]);
        let mut more = false;
        {
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
            if let KeyState::Live(kc) = &mut *state {
                // Everything in flight on this key leaves its queue-wait
                // phase now (batch-granular execute-start stamp; the
                // first batch wins for ops spanning several).
                let exec_start = Instant::now();
                for entry in &mut kc.inflight {
                    entry.exec_start.get_or_insert(exec_start);
                }
                let mut stepped = 0;
                loop {
                    let ran = kc.cell.step_events(self.batch);
                    stepped += ran;
                    if ran < self.batch {
                        break; // budget unspent ⇒ no enabled events left
                    }
                }
                if stepped > 0 {
                    let counters = &self.counters;
                    let inflight = &mut kc.inflight;
                    let done = Instant::now();
                    kc.cell.complete_pending_with(|op, r| {
                        note_completed(counters, inflight, op, r, done);
                    });
                    self.apply_history_policy(kc);
                    self.touch(&key_slot);
                }
                more = kc.cell.has_enabled();
                self.account_occupancy(&key_slot, &state);
            }
        }
        if self.ready.finish(token, more) {
            self.group.notify();
        }
    }

    /// Runs the key on the calling thread if nobody else owns its slot.
    /// Otherwise the slot is dirty now and its owner re-queues it for a
    /// driver. Call with no lock held.
    fn run_inline(&self, token: usize) {
        if self.ready.claim(token) {
            self.counters.note_inline_run();
            self.run_token(token);
        }
    }

    /// The submitter's share of governance: one due-check, and a driver
    /// wake-up when a pass is due (drivers do the sweeping).
    fn nudge_governor(&self) {
        if self.wants_governing() {
            self.group.notify();
        }
    }
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardEngine for ShardCore<P>
where
    P::Object: Clone,
{
    fn submit(&self, key: &str, req: OpRequest) -> Result<Arc<CompletionSlot>, StoreError> {
        let started = Instant::now();
        // Fast-path reject; the *authoritative* stop check happens under
        // the key lock below, ordered against the shutdown sweep.
        if self.group.is_stopped() {
            return Err(StoreError::ShutDown);
        }
        // Placement: the map lock is held only for the name lookup (and
        // first-touch slot creation) — never across simulation work, so
        // a driver's step batch on one key cannot stall other keys'
        // submissions behind this lock.
        let token = self.place_locked(
            &mut tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock()),
            key,
        );
        let key_slot =
            Arc::clone(&tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token]);
        let slot = {
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
            let rematerialized = self.materialize(&mut state);
            let KeyState::Live(kc) = &mut *state else {
                unreachable!("rematerialized above");
            };
            let slot = self.submit_on_cell(kc, rematerialized, req, started)?;
            // Authoritative stop check, under the key lock: the shutdown
            // sweep (`fail_all_pending`, after every driver joined) takes
            // this same lock, so either our pending op was inserted
            // before the sweep (the sweep fails it), or the sweep ran
            // first and the stop flag — set before it — is visible here,
            // and we clean up this key ourselves. Never neither.
            if self.group.is_stopped() {
                self.shut_down_key(kc);
                return Err(StoreError::ShutDown);
            }
            self.touch(&key_slot);
            self.account_occupancy(&key_slot, &state);
            slot
        };
        // Out of every lock: run the key here, so `slot` goes back
        // filled. (A racing stop at this point is harmless: the sweep
        // already failed the slot, and the run completes nothing.)
        self.run_inline(token);
        self.nudge_governor();
        Ok(slot)
    }

    fn submit_batch(
        &self,
        ops: Vec<(String, OpRequest)>,
    ) -> Vec<Result<Arc<CompletionSlot>, StoreError>> {
        let started = Instant::now();
        let n = ops.len();
        // Fast-path reject; the authoritative stop check happens per key
        // group below, same argument as `submit`.
        if self.group.is_stopped() {
            return ops.iter().map(|_| Err(StoreError::ShutDown)).collect();
        }
        // Placement for the whole batch under one map-lock hold.
        let mut tokens = Vec::with_capacity(n);
        let mut reqs: Vec<Option<OpRequest>> = Vec::with_capacity(n);
        {
            let mut index = tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock());
            for (key, req) in ops {
                tokens.push(self.place_locked(&mut index, &key));
                reqs.push(Some(req));
            }
        }
        // Submit key group by key group: every op sharing a key is
        // invoked under one key-lock hold with one activity stamp and
        // one occupancy re-measure for the lot, then the key is run
        // before the next group starts — an op's queue wait is its
        // group's position in the batch.
        let mut results: Vec<Option<Result<Arc<CompletionSlot>, StoreError>>> =
            (0..n).map(|_| None).collect();
        for i in 0..n {
            if results[i].is_some() {
                continue;
            }
            let token = tokens[i];
            let key_slot = Arc::clone(
                &tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token],
            );
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
            let mut rematerialized = self.materialize(&mut state);
            let KeyState::Live(kc) = &mut *state else {
                unreachable!("rematerialized above");
            };
            for j in i..n {
                if tokens[j] != token || results[j].is_some() {
                    continue;
                }
                let req = reqs[j].take().expect("each op submitted once");
                results[j] = Some(self.submit_on_cell(kc, rematerialized, req, started));
                // Only the group's first op paid the rematerialization.
                rematerialized = false;
            }
            if self.group.is_stopped() {
                self.shut_down_key(kc);
                for (j, r) in results.iter_mut().enumerate() {
                    if tokens[j] == token {
                        *r = Some(Err(StoreError::ShutDown));
                    }
                }
                continue;
            }
            self.touch(&key_slot);
            self.account_occupancy(&key_slot, &state);
            drop(state);
            self.run_inline(token);
        }
        self.nudge_governor();
        results
            .into_iter()
            .map(|r| r.expect("every op visited"))
            .collect()
    }

    fn run_ready(&self) -> bool {
        let Some(token) = self.ready.pop() else {
            return false;
        };
        self.run_token(token);
        true
    }

    fn steal_batch(&self) -> Vec<usize> {
        let tokens = self.ready.pop_half();
        // All victim-side accounting happens here, before any stolen key
        // runs: once a client observes a completion, no steal counter
        // for the batch that produced it moves afterwards (two
        // back-to-back metrics snapshots at quiescence stay equal).
        for _ in &tokens {
            self.counters.note_stolen();
            self.recorder
                .record(FlightEventKind::Steal, Some(self.shard), 0);
        }
        if tokens.len() > 1 {
            self.counters.note_stolen_batch();
            self.recorder.record(
                FlightEventKind::StealBatch,
                Some(self.shard),
                tokens.len() as u64,
            );
        }
        tokens
    }

    fn run_tokens(&self, tokens: Vec<usize>) {
        for token in tokens {
            self.run_token(token);
        }
    }

    fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    fn note_steal(&self) {
        self.counters.note_steal();
    }

    fn fail_all_pending(&self) {
        // No placement lock needed: submissions re-check the stop flag
        // under each key lock (see `submit`), so a pending op either
        // landed before this sweep's key-lock acquisition (failed here)
        // or its submitter observes the stop and cleans up itself.
        let done = Instant::now();
        for slot in tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read()).iter() {
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
            if let KeyState::Live(kc) = &mut *state {
                // Flush results that are ready, then fail what remains so
                // no client blocks on a dead shard.
                let counters = &self.counters;
                let inflight = &mut kc.inflight;
                kc.cell
                    .complete_pending_with(|op, r| note_completed(counters, inflight, op, r, done));
                kc.cell.fail_pending(&ThreadedError::ShutDown);
                kc.inflight.clear();
            }
        }
    }

    fn evict_quiescent(&self) -> usize {
        self.slot_table()
            .iter()
            .filter(|slot| self.try_evict(slot, EvictionCause::Manual))
            .count()
    }

    fn wants_governing(&self) -> bool {
        match self.eviction {
            EvictionPolicy::OccupancyAbove { bits, .. } => {
                // audit:allow(atomics-relaxed) — advisory trigger: a stale read
                // delays (or briefly duplicates) one governor pass, never corrupts.
                self.live_bits.load(Ordering::Relaxed) > bits
                    // audit:allow(atomics-relaxed) — same trigger; see above.
                    && self.now() >= self.govern_backoff.load(Ordering::Relaxed)
            }
            // A key crosses the idle threshold `threshold` ticks after
            // its last activity; sweeping every half-threshold bounds how
            // long past that it stays live under continuing traffic.
            EvictionPolicy::IdleAfter(threshold) => {
                // audit:allow(atomics-relaxed) — advisory trigger, as above.
                let swept = self.last_idle_sweep.load(Ordering::Relaxed);
                self.now().saturating_sub(swept) >= (threshold / 2).max(1)
            }
            EvictionPolicy::Manual => false,
        }
    }

    fn govern(&self, idle: bool) -> usize {
        // One sweeper per shard at a time: a second driver skips instead
        // of duplicating the cold-scan (the trigger stays armed, so
        // nothing is lost).
        let Some(_sweep) = tracked_try(ranks::GOVERN, "govern", || self.govern_lock.try_lock())
        else {
            return 0;
        };
        match self.eviction {
            EvictionPolicy::Manual => 0,
            EvictionPolicy::IdleAfter(threshold) => {
                if !idle {
                    return 0;
                }
                let now = self.now();
                // audit:allow(atomics-relaxed) — disarms the advisory due-check
                // (`wants_governing`) until the clock has moved on.
                self.last_idle_sweep.store(now, Ordering::Relaxed);
                // Wall-clock aging (when configured): a key is also
                // sweep-eligible once untouched for the configured
                // duration, so a store with a frozen tick clock (no
                // traffic) still reclaims cold keys.
                let wall = self.idle_wall_clock.map(|age| {
                    (
                        self.epoch.elapsed().as_millis() as u64,
                        age.as_millis() as u64,
                    )
                });
                // `cached_bits > 0` screens out already-evicted keys
                // without touching their locks (every live register
                // holds at least its v₀ blocks, so live keys are never
                // zero-bit).
                self.slot_table()
                    .iter()
                    .filter(|slot| {
                        // audit:allow(atomics-relaxed) — lock-free screen only; try_evict
                        // re-checks everything under the key lock.
                        if slot.cached_bits.load(Ordering::Relaxed) == 0 {
                            return false;
                        }
                        let tick_aged = now
                            // audit:allow(atomics-relaxed) — aging comparison; see `now` above.
                            .saturating_sub(slot.last_active.load(Ordering::Relaxed))
                            >= threshold;
                        let wall_aged = wall.is_some_and(|(now_ms, age_ms)| {
                            // audit:allow(atomics-relaxed) — aging comparison; see `now` above.
                            now_ms.saturating_sub(slot.last_active_at.load(Ordering::Relaxed))
                                >= age_ms
                        });
                        (tick_aged || wall_aged) && self.try_evict(slot, EvictionCause::Idle)
                    })
                    .count()
            }
            EvictionPolicy::OccupancyAbove {
                bits,
                low_watermark,
            } => {
                // audit:allow(atomics-relaxed) — advisory trigger re-check; see
                // `wants_governing`.
                if self.live_bits.load(Ordering::Relaxed) <= bits {
                    return 0;
                }
                // Coldest-first: order live keys by their last-activity
                // tick and evict until the shard is back at (or below)
                // the low watermark. The per-pass *attempt* cap bounds
                // key-lock traffic even when nothing is evictable, so a
                // governing driver is back serving ready keys quickly;
                // the trigger re-fires on the next loop iteration if
                // more reclamation is needed.
                let table = self.slot_table();
                let mut cold: Vec<(u64, usize)> = table
                    .iter()
                    .enumerate()
                    // audit:allow(atomics-relaxed) — lock-free screen; try_evict
                    // re-checks under the key lock.
                    .filter(|(_, slot)| slot.cached_bits.load(Ordering::Relaxed) > 0)
                    // audit:allow(atomics-relaxed) — coldest-first ordering hint only.
                    .map(|(i, slot)| (slot.last_active.load(Ordering::Relaxed), i))
                    .collect();
                cold.sort_unstable();
                let mut evicted = 0;
                for (attempts, (_, i)) in cold.into_iter().enumerate() {
                    // audit:allow(atomics-relaxed) — watermark check is advisory; an
                    // extra or missed attempt is corrected next pass.
                    if self.live_bits.load(Ordering::Relaxed) <= low_watermark
                        || attempts >= GOVERN_ATTEMPTS_PER_PASS
                    {
                        break;
                    }
                    if self.try_evict(&table[i], EvictionCause::Occupancy) {
                        evicted += 1;
                    }
                }
                if evicted == 0 {
                    // Armed but stuck (everything cold enough to matter
                    // is busy): back off so the still-armed trigger does
                    // not re-pay this scan on every driver iteration.
                    let until = self.now() + GOVERN_FUTILE_BACKOFF_TICKS;
                    // audit:allow(atomics-relaxed) — backoff arming is
                    // advisory; see `wants_governing`.
                    self.govern_backoff.store(until, Ordering::Relaxed);
                }
                evicted
            }
        }
    }

    fn metrics(&self) -> ShardMetrics {
        let slots = tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read());
        let mut occupancy = StorageCost::default();
        let mut peak = 0u64;
        let mut live_records = 0u64;
        let mut evicted_keys = 0usize;
        let mut snapshot_bits = 0u64;
        for slot in slots.iter() {
            let state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
            match &*state {
                KeyState::Live(kc) => {
                    let cost = kc.cell.sim.storage_cost();
                    occupancy.object_bits += cost.object_bits;
                    occupancy.client_bits += cost.client_bits;
                    occupancy.inflight_param_bits += cost.inflight_param_bits;
                    occupancy.inflight_resp_bits += cost.inflight_resp_bits;
                    peak += kc.cell.sim.peak_storage_bits();
                    live_records += kc.cell.sim.live_records() as u64;
                }
                KeyState::Evicted(snap) => {
                    evicted_keys += 1;
                    snapshot_bits += snap.storage_bits();
                    live_records += snap.record_count() as u64;
                    // Peaks survive eviction: the snapshot carries the
                    // register's observed peak, so the aggregate doesn't
                    // silently drop when a key leaves live memory.
                    peak += snap.peak_bits();
                }
                KeyState::Vacant => unreachable!("Vacant never escapes the key lock"),
            }
        }
        ShardMetrics {
            shard: self.shard,
            protocol: self.name.to_owned(),
            keys: slots.len(),
            ops: self.counters.snapshot(),
            occupancy,
            peak_register_bits: peak,
            live_records,
            evicted_keys,
            snapshot_bits,
            ready_keys: self.ready.len(),
            // audit:allow(atomics-relaxed) — metrics snapshot; racy by design.
            governed_bits: self.live_bits.load(Ordering::Relaxed),
            read_hit_latency: self.counters.read_hit_histogram(),
            read_remat_latency: self.counters.read_remat_histogram(),
            write_latency: self.counters.write_histogram(),
            queue_wait: self.counters.queue_wait_histogram(),
            execute: self.counters.execute_histogram(),
            wire: self.counters.wire_histogram(),
        }
    }

    fn note_wire_latency(&self, ns: u64) {
        self.counters.note_wire_latency(ns);
    }

    fn value_len(&self) -> usize {
        self.value_len
    }

    fn initial_value(&self) -> Value {
        self.initial.clone()
    }

    fn key_records(&self, key: &str) -> Option<Vec<OpRecord>> {
        let token = *tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock()).get(key)?;
        let key_slot =
            Arc::clone(&tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token]);
        let state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
        Some(match &*state {
            KeyState::Live(kc) => kc.cell.sim.full_history(),
            KeyState::Evicted(snap) => snap.records().to_vec(),
            KeyState::Vacant => unreachable!("Vacant never escapes the key lock"),
        })
    }

    fn keys(&self) -> Vec<String> {
        tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock())
            .keys()
            .cloned()
            .collect()
    }

    fn protocol_name(&self) -> &'static str {
        self.name
    }
}

/// Builds a shard engine from its spec. Driver threads are pooled at the
/// store level (see `store.rs`), not per shard.
pub(crate) fn build(spec: &ShardSpec, parts: EngineParts) -> Arc<dyn ShardEngine> {
    match spec.protocol {
        ProtocolSpec::Abd => engine(Abd::new(spec.register), parts),
        ProtocolSpec::AbdAtomic => engine(AbdAtomic::new(spec.register), parts),
        ProtocolSpec::Safe => engine(Safe::new(spec.register), parts),
        ProtocolSpec::Coded => engine(Coded::new(spec.register), parts),
        ProtocolSpec::Adaptive => engine(Adaptive::new(spec.register), parts),
    }
}

/// Protocol-independent construction parameters for one shard engine.
/// `shard` is the shard's index within the store; `recorder` the
/// store-wide flight recorder.
pub(crate) struct EngineParts {
    pub(crate) batch: usize,
    pub(crate) policy: HistoryPolicy,
    pub(crate) eviction: EvictionPolicy,
    pub(crate) idle_wall_clock: Option<std::time::Duration>,
    pub(crate) group: Arc<WorkGroup>,
    pub(crate) shard: usize,
    pub(crate) recorder: Arc<FlightRecorder>,
}

fn engine<P: RegisterProtocol + Send + Sync + 'static>(
    proto: P,
    parts: EngineParts,
) -> Arc<dyn ShardEngine>
where
    P::Object: Clone,
{
    Arc::new(ShardCore::new(proto, parts))
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardCore<P> {
    fn new(proto: P, parts: EngineParts) -> Self {
        let name = proto.name();
        let value_len = proto.config().value_len;
        let initial = proto.config().initial_value();
        ShardCore {
            proto,
            map: parking_lot::Mutex::new(HashMap::new()),
            slots: parking_lot::RwLock::new(Vec::new()),
            ready: ReadyQueue::new(),
            group: parts.group,
            counters: Arc::new(AtomicCounters::default()),
            shard: parts.shard,
            recorder: parts.recorder,
            policy: parts.policy,
            eviction: parts.eviction,
            batch: parts.batch,
            idle_wall_clock: parts.idle_wall_clock,
            epoch: Instant::now(),
            name,
            value_len,
            initial,
            ticks: AtomicU64::new(0),
            live_bits: AtomicU64::new(0),
            govern_lock: parking_lot::Mutex::new(()),
            govern_backoff: AtomicU64::new(0),
            last_idle_sweep: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_registers::RegisterConfig;

    /// A pool-less shard 0: nothing runs a queued key but the test.
    fn lone_shard() -> ShardCore<Abd> {
        ShardCore::new(
            Abd::new(RegisterConfig::paper(1, 2, 16).unwrap()),
            EngineParts {
                batch: 8,
                policy: HistoryPolicy::Unbounded,
                eviction: EvictionPolicy::Manual,
                idle_wall_clock: None,
                group: Arc::new(WorkGroup::new()),
                shard: 0,
                recorder: Arc::new(FlightRecorder::new(1024)),
            },
        )
    }

    #[test]
    fn thieves_steal_half_a_hot_queue_in_one_batch() {
        // A submitter runs an idle key itself, so a backlog exists only
        // where submissions found their keys owned. Build one
        // deterministically: own each key's slot the way a running
        // submitter or driver would, submit to it (the slot goes dirty,
        // the op stays pending), and finish the slot (re-queued).
        let shard = lone_shard();
        let mut pending = Vec::new();
        for token in 0..6 {
            let key = format!("k{token}");
            // First touch places the key (tokens count up from 0) and
            // runs inline.
            let write = shard
                .submit(&key, OpRequest::Write(Value::seeded(token as u64 + 1, 16)))
                .unwrap();
            assert_eq!(write.try_outcome(), Some(Ok(OpResult::Write)));
            assert!(shard.ready.claim(token), "key {token} is idle");
            let read = shard.submit(&key, OpRequest::Read).unwrap();
            assert_eq!(read.try_outcome(), None, "an owned key is not run");
            assert!(shard.ready.finish(token, false), "dirty slot re-queues");
            pending.push(read);
        }
        assert_eq!(shard.metrics().ops.inline_runs, 6);
        assert_eq!(shard.metrics().ready_keys, 6);

        // A thief drains half the backlog in one pass, with all
        // victim-side accounting stamped before any stolen key runs.
        let stolen = shard.steal_batch();
        assert_eq!(stolen, vec![0, 1, 2]);
        let ops = shard.metrics().ops;
        assert_eq!((ops.stolen, ops.stolen_batches), (3, 1));
        let events = shard.recorder.dump();
        let batch_steal = events
            .iter()
            .find(|e| e.kind == FlightEventKind::StealBatch)
            .expect("a StealBatch event in the flight ring");
        assert_eq!(batch_steal.shard, Some(0), "the hot shard is the victim");
        assert_eq!(batch_steal.detail, 3, "carries the batch size");
        assert!(pending.iter().all(|slot| slot.try_outcome().is_none()));

        shard.run_tokens(stolen);
        for (token, slot) in pending.iter().enumerate() {
            let expect =
                (token < 3).then(|| Ok(OpResult::Read(Value::seeded(token as u64 + 1, 16))));
            assert_eq!(slot.try_outcome(), expect, "key {token}");
        }
        // The home driver's path drains what the thief left.
        while shard.run_ready() {}
        assert!(pending.iter().all(|slot| slot.try_outcome().is_some()));
        let m = shard.metrics();
        assert_eq!(
            (m.ready_keys, m.ops.completed(), m.ops.inline_runs),
            (0, 12, 6)
        );
    }
}
