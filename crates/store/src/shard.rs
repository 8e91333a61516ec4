//! One shard: a map of per-key register simulations, each operation run
//! to completion by the thread that submits it, under one hold of its
//! key's lock.
//!
//! Keys live behind *per-key* locks; the shard map lock covers only
//! placement. A submission takes the key lock once and, inside that
//! hold, invokes its operation, drains every enabled simulator event,
//! reads the result off the operation's record, and settles the key
//! (completion accounting, history policy, activity stamp, occupancy).
//! Nothing is ever pending between two lock holds, so there is no queue,
//! no slot ownership and no completion cell: `submit` returns the
//! result. The key lock is what serializes same-key submitters.
//!
//! On top of the same per-key lifecycle, a [`HistoryPolicy`] bounds each
//! register's `OpRecord` history (compaction keeps the frontier writes
//! the consistency checkers need), and a quiescent key can be *evicted*
//! to a [`SimSnapshot`] and rematerialized on its next operation.
//!
//! Eviction is *governed*: under a non-`Manual` [`EvictionPolicy`] the
//! store's one governor thread sweeps a shard for keys quiescent past
//! the idle threshold, and an occupancy trigger (one atomic comparison
//! against an incrementally-maintained per-shard live-bits counter)
//! evicts coldest-first down to a low watermark. Submitters never sweep;
//! each pays one O(1) due-check after its hold and nudges the governor
//! only when a pass is due — so bounded space holds under sustained
//! traffic without a sweep on any operation's path.

use crate::config::ShardSpec;
use crate::config::{EvictionPolicy, HistoryPolicy, ProtocolSpec};
use crate::governor::GovernorSignal;
use crate::mcsync::{AtomicU64, Ordering};
use crate::metrics::{AtomicCounters, EvictionCause, ShardMetrics};
use crate::recorder::{FlightEventKind, FlightRecorder};
use crate::store::StoreError;
use rsb_coding::Value;
use rsb_fpsm::{
    ClientId, OpId, OpRecord, OpRequest, OpResult, SimSnapshot, Simulation, StorageCost,
};
use rsb_registers::lockorder::{ranks, tracked_lock};
use rsb_registers::{Abd, AbdAtomic, Adaptive, Coded, RegisterProtocol, Safe};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// After a futile occupancy pass (armed, but nothing could be evicted),
/// the trigger stays disarmed for this many shard ticks. Evictable keys
/// can only appear through traffic — which is exactly what advances
/// ticks — so the backoff self-clears the moment eviction could
/// plausibly succeed again, and an armed-but-stuck trigger stops every
/// submitter from requesting a full cold-scan.
const GOVERN_FUTILE_BACKOFF_TICKS: u64 = 64;

/// One key's live register: its simulation plus the sim-level clients
/// allocated for it so far (reused across operations when idle).
struct KeyCell<P: RegisterProtocol + 'static> {
    sim: Simulation<P::Object, P::Client>,
    clients: Vec<ClientId>,
}

impl<P: RegisterProtocol + 'static> KeyCell<P> {
    fn new(sim: Simulation<P::Object, P::Client>) -> Self {
        KeyCell {
            sim,
            clients: Vec::new(),
        }
    }

    /// Executes enabled events until none is left. No new events can
    /// appear while the key lock is held, so the drain terminates (the
    /// backlog is bounded by in-flight RMWs).
    fn drain(&mut self) {
        while let Some(ev) = self.sim.first_enabled_event() {
            // `ev` came from `first_enabled_event` one line up with no
            // intervening mutation, so `step` accepting it is an invariant
            // of the simulator, not a runtime condition.
            self.sim.step(ev).expect("enabled event applies");
        }
    }
}

/// The phase split one key-lock hold shares among its operations:
/// submission (before placement) → the end of the invocations is their
/// queue wait, the drain that follows their execute time.
struct HoldTimes {
    queue_ns: u64,
    execute_ns: u64,
}

/// A key is either materialized (live simulation) or evicted to a
/// quiescent snapshot. `Vacant` is a transient placeholder used to move
/// a snapshot out during rematerialization — it never outlives the key
/// lock's critical section in `materialize`, so no other code path
/// observes it.
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
/// cold-scans never contend with a running operation.
struct KeySlot<P: RegisterProtocol + 'static> {
    state: crate::mcsync::Mutex<KeyState<P>>,
    /// Shard tick of the key's most recent operation — what the idle
    /// sweep and the coldest-first order read. Written under the key
    /// lock, read lock-free by the governor.
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

/// The object-safe surface the store drives a shard through.
pub(crate) trait ShardEngine: Send + Sync {
    /// Runs one operation on a key to completion on the calling thread,
    /// under a single hold of the key's lock, and returns its result.
    fn submit(&self, key: &str, req: OpRequest) -> Result<OpResult, StoreError>;

    /// Runs a whole batch of operations in one pass: placement for
    /// every key under a single map-lock hold, then per distinct key one
    /// key-lock hold in which every operation on that key is invoked
    /// before the drain (so they run concurrently inside the register).
    /// Returns one result per op, in submission order — per-op failures
    /// never poison their batchmates.
    fn submit_batch(&self, ops: Vec<(String, OpRequest)>) -> Vec<Result<OpResult, StoreError>>;

    /// Evicts every quiescent key to a snapshot; returns how many.
    fn evict_quiescent(&self) -> usize;

    /// Runs one governor pass under the configured [`EvictionPolicy`]:
    /// the idle sweep, or the occupancy trigger's coldest-first
    /// reclamation if it is armed. Returns how many keys were evicted.
    fn govern(&self) -> usize;

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
    /// The placement map: key names to their slots. Guarded by its own
    /// lock, held only for the name lookup / first-touch insert — never
    /// across key locks or simulation work.
    map: parking_lot::Mutex<HashMap<String, Arc<KeySlot<P>>>>,
    /// Every slot in first-touch order, for the sweeps and `metrics`
    /// (which must not hold the placement lock across key locks). The
    /// only writer is first-touch placement, which already holds the map
    /// lock (lock order: map → slots, never reversed).
    slots: parking_lot::RwLock<Vec<Arc<KeySlot<P>>>>,
    /// The store's stop flag and the governor's wake-up.
    signal: Arc<GovernorSignal>,
    counters: AtomicCounters,
    /// This shard's index within the store (stable event/metrics label).
    shard: usize,
    /// The store-wide flight recorder every shard stamps events into.
    recorder: Arc<FlightRecorder>,
    policy: HistoryPolicy,
    eviction: EvictionPolicy,
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
    /// Logical shard clock: two ticks per key-lock hold of a submission.
    /// Key idle ages are measured against it, so governance is
    /// wall-clock-free (deterministic under test schedules).
    ticks: AtomicU64,
    /// Incrementally-maintained sum of every live key's simulation bits
    /// — the O(1) value the occupancy trigger compares against its
    /// watermark (ground-truth occupancy is still re-measured by
    /// `metrics`, and tests assert the two agree at quiescence).
    live_bits: AtomicU64,
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
    /// Compacts a key's history if the policy says so. Call after the
    /// hold's results have been read off the records.
    fn apply_history_policy(&self, kc: &mut KeyCell<P>) {
        let compact = match self.policy {
            HistoryPolicy::Unbounded => false,
            HistoryPolicy::TruncateAfter(n) => kc.sim.live_records() > n,
            HistoryPolicy::TruncateOnQuiescence => kc.sim.is_quiescent(),
        };
        if compact {
            self.compact(kc);
        }
    }

    fn compact(&self, kc: &mut KeyCell<P>) {
        let dropped = kc.sim.compact_history();
        self.counters.note_truncated(dropped);
        if dropped > 0 {
            self.recorder
                .record(FlightEventKind::Compaction, Some(self.shard), dropped);
        }
    }

    /// Advances the shard clock past one key-lock hold and returns the
    /// new time: two ticks per hold, one for its invocations and one for
    /// its drain — the unit `EvictionPolicy::IdleAfter` is documented in.
    fn tick(&self) -> u64 {
        // audit:allow(atomics-relaxed) — the tick clock is advisory (idle-age
        // comparisons); it orders nothing and skew only shifts eviction timing.
        self.ticks.fetch_add(2, Ordering::Relaxed) + 2
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
    /// have changed size (an operation, evict, rematerialize);
    /// evicted/vacant keys account as zero.
    fn account_occupancy(&self, slot: &KeySlot<P>, state: &KeyState<P>) {
        let bits = match state {
            KeyState::Live(kc) => kc.sim.storage_cost().total(),
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

    /// Tries to evict one key: under its lock, a live, quiescent key is
    /// compacted (under a truncating history policy) and snapshotted.
    /// Returns whether the key was evicted.
    fn try_evict(&self, slot: &KeySlot<P>, cause: EvictionCause) -> bool {
        let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
        let KeyState::Live(kc) = &mut *state else {
            return false;
        };
        if !kc.sim.is_quiescent() {
            return false;
        }
        // Compact before snapshotting — but only under a truncating
        // policy: `Unbounded` promises the full history, which the
        // snapshot then carries whole.
        if self.policy != HistoryPolicy::Unbounded {
            self.compact(kc);
        }
        let Some(snap) = kc.sim.snapshot() else {
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

    /// Resolves a key to its slot with the map lock already held,
    /// materializing the placement on first touch (lock order: map →
    /// slots, never reversed).
    fn place_locked(
        &self,
        index: &mut HashMap<String, Arc<KeySlot<P>>>,
        key: &str,
    ) -> Arc<KeySlot<P>> {
        if let Some(slot) = index.get(key) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(KeySlot::new(KeyState::Live(KeyCell::new(
            self.proto.new_sim(),
        ))));
        tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.write())
            .push(Arc::clone(&slot));
        index.insert(key.to_owned(), Arc::clone(&slot));
        slot
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

    /// Invokes one operation on a live key (client reuse/allocation,
    /// counters and flight events). Call under the key lock.
    fn invoke(&self, kc: &mut KeyCell<P>, req: OpRequest) -> Result<OpId, StoreError> {
        let client = kc
            .clients
            .iter()
            .copied()
            .find(|&c| kc.sim.outstanding_op(c).is_none())
            .unwrap_or_else(|| {
                let c = self.proto.add_client(&mut kc.sim);
                kc.clients.push(c);
                c
            });
        let write_bytes = match &req {
            OpRequest::Write(v) => Some(v.len() as u64),
            OpRequest::Read => None,
        };
        match kc.sim.invoke(client, req) {
            Ok(op) => {
                if let Some(bytes) = write_bytes {
                    self.counters.note_write_submitted(bytes);
                    self.recorder
                        .record(FlightEventKind::SubmitWrite, Some(self.shard), bytes);
                } else {
                    self.counters.note_read_submitted();
                    self.recorder
                        .record(FlightEventKind::SubmitRead, Some(self.shard), 0);
                }
                Ok(op)
            }
            Err(e) => {
                self.counters.note_rejected();
                self.recorder
                    .record(FlightEventKind::Rejected, Some(self.shard), 0);
                Err(StoreError::Rejected(e.to_string()))
            }
        }
    }

    /// Reads an invoked operation's result off its record after the
    /// drain, recording the completion counters, its end-to-end latency
    /// (reads split by whether the hold rematerialized the key) and its
    /// queue-wait / execute phase split. An operation the drain left
    /// without a result (its protocol could not terminate it) is an
    /// error naming the key. Call under the key lock.
    fn collect(
        &self,
        kc: &KeyCell<P>,
        key: &str,
        op: OpId,
        times: &HoldTimes,
        rematerialized: bool,
    ) -> Result<OpResult, StoreError> {
        let Some(result) = kc.sim.op_record(op).result.clone() else {
            return Err(StoreError::Rejected(format!(
                "operation on key {key:?} did not complete: no enabled event is left to run"
            )));
        };
        self.counters.note_completion(&result);
        self.counters.note_phases(times.queue_ns, times.execute_ns);
        let total_ns = times.queue_ns + times.execute_ns;
        match result {
            OpResult::Read(_) => self.counters.note_read_latency(total_ns, rematerialized),
            OpResult::Write => self.counters.note_write_latency(total_ns),
        }
        Ok(result)
    }

    /// Closes a key-lock hold that ran operations: history policy,
    /// activity stamps (the logical tick always, the wall-clock twin
    /// only when aging is enabled — keeping the extra clock read off the
    /// default hot path), occupancy.
    fn settle(&self, slot: &KeySlot<P>, state: &mut KeyState<P>) {
        if let KeyState::Live(kc) = state {
            self.apply_history_policy(kc);
        }
        // audit:allow(atomics-relaxed) — activity stamps are read by the
        // governor for aging decisions only; a stale read delays one sweep.
        slot.last_active.store(self.tick(), Ordering::Relaxed);
        if self.idle_wall_clock.is_some() {
            slot.last_active_at
                // audit:allow(atomics-relaxed) — same as the tick stamp above.
                .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        }
        self.account_occupancy(slot, state);
    }

    /// One key-lock hold: every request in `reqs` is invoked, the key is
    /// drained, and `deliver` receives each request's tag with its
    /// result, in order; then the key is settled. The authoritative stop
    /// check sits under the key lock, so an operation either ran whole
    /// or fails with `ShutDown` — a stopped store never changes a key.
    fn run_key<T>(
        &self,
        key: &str,
        slot: &KeySlot<P>,
        started: Instant,
        reqs: impl Iterator<Item = (T, OpRequest)>,
        mut deliver: impl FnMut(T, Result<OpResult, StoreError>),
    ) {
        let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
        if self.signal.is_stopped() {
            for (tag, _) in reqs {
                deliver(tag, Err(StoreError::ShutDown));
            }
            return;
        }
        let rematerialized = self.materialize(&mut state);
        let KeyState::Live(kc) = &mut *state else {
            unreachable!("rematerialized above");
        };
        // Only the hold's first operation paid the rematerialization.
        let mut first = rematerialized;
        let invoked: Vec<_> = reqs
            .map(|(tag, req)| (tag, self.invoke(kc, req), std::mem::take(&mut first)))
            .collect();
        let exec_start = Instant::now();
        kc.drain();
        let times = HoldTimes {
            queue_ns: exec_start.duration_since(started).as_nanos() as u64,
            execute_ns: exec_start.elapsed().as_nanos() as u64,
        };
        for (tag, op, remat) in invoked {
            deliver(
                tag,
                op.and_then(|op| self.collect(kc, key, op, &times, remat)),
            );
        }
        self.settle(slot, &mut *state);
    }

    /// Cheap (a few atomic loads) check: is a governor pass due right
    /// now — the occupancy trigger armed, or the shard clock far enough
    /// past the last idle sweep? Submitters call it after every hold, so
    /// it must stay O(1).
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

    /// The submitter's share of governance: one due-check, and a nudge
    /// when a pass is due (the governor does the sweeping).
    fn nudge_governor(&self) {
        if self.wants_governing() {
            self.signal.nudge();
        }
    }
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardEngine for ShardCore<P>
where
    P::Object: Clone,
{
    fn submit(&self, key: &str, req: OpRequest) -> Result<OpResult, StoreError> {
        let started = Instant::now();
        // Fast-path reject, before placement can materialize a key on a
        // stopped store; `run_key` re-checks under the key lock.
        if self.signal.is_stopped() {
            return Err(StoreError::ShutDown);
        }
        // Placement: the map lock is held only for the name lookup (and
        // first-touch slot creation) — never across simulation work, so
        // one key's operation cannot stall other keys' submissions
        // behind this lock.
        let slot = self.place_locked(
            &mut tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock()),
            key,
        );
        let mut result = None;
        self.run_key(key, &slot, started, std::iter::once(((), req)), |(), r| {
            result = Some(r);
        });
        self.nudge_governor();
        result.expect("one request delivers one result")
    }

    fn submit_batch(&self, ops: Vec<(String, OpRequest)>) -> Vec<Result<OpResult, StoreError>> {
        let started = Instant::now();
        if self.signal.is_stopped() {
            return ops.iter().map(|_| Err(StoreError::ShutDown)).collect();
        }
        // Placement for the whole batch under one map-lock hold.
        let slots: Vec<Arc<KeySlot<P>>> = {
            let mut index = tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock());
            ops.iter()
                .map(|(key, _)| self.place_locked(&mut index, key))
                .collect()
        };
        // Key group by key group, in order of each key's first op: every
        // op sharing a key is invoked under one key-lock hold (one
        // drain, one activity stamp and one occupancy re-measure for the
        // lot) before the next group starts — an op's queue wait is its
        // group's position in the batch.
        let (keys, mut reqs): (Vec<String>, Vec<Option<OpRequest>>) =
            ops.into_iter().map(|(key, req)| (key, Some(req))).unzip();
        let mut results: Vec<Option<Result<OpResult, StoreError>>> =
            keys.iter().map(|_| None).collect();
        for i in 0..keys.len() {
            if reqs[i].is_none() {
                continue;
            }
            let group = (i..keys.len())
                .filter(|&j| Arc::ptr_eq(&slots[j], &slots[i]))
                .filter_map(|j| reqs[j].take().map(|req| (j, req)));
            self.run_key(&keys[i], &slots[i], started, group, |j, r| {
                results[j] = Some(r);
            });
        }
        self.nudge_governor();
        results
            .into_iter()
            .map(|r| r.expect("every op belongs to exactly one key group"))
            .collect()
    }

    fn evict_quiescent(&self) -> usize {
        self.slot_table()
            .iter()
            .filter(|slot| self.try_evict(slot, EvictionCause::Manual))
            .count()
    }

    fn govern(&self) -> usize {
        match self.eviction {
            EvictionPolicy::Manual => 0,
            EvictionPolicy::IdleAfter(threshold) => {
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
                // the low watermark.
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
                let evicted = cold
                    .into_iter()
                    // audit:allow(atomics-relaxed) — watermark check is advisory; an
                    // extra or missed attempt is corrected next pass.
                    .take_while(|_| self.live_bits.load(Ordering::Relaxed) > low_watermark)
                    .filter(|&(_, i)| self.try_evict(&table[i], EvictionCause::Occupancy))
                    .count();
                if evicted == 0 {
                    // Armed but stuck: back off so the still-armed
                    // trigger does not make every submitter request this
                    // scan again.
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
        let slots = self.slot_table();
        let mut occupancy = StorageCost::default();
        let mut peak = 0u64;
        let mut live_records = 0u64;
        let mut evicted_keys = 0usize;
        let mut snapshot_bits = 0u64;
        let mut ready_keys = 0usize;
        for slot in &slots {
            let state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
            match &*state {
                KeyState::Live(kc) => {
                    let cost = kc.sim.storage_cost();
                    occupancy.object_bits += cost.object_bits;
                    occupancy.client_bits += cost.client_bits;
                    occupancy.inflight_param_bits += cost.inflight_param_bits;
                    occupancy.inflight_resp_bits += cost.inflight_resp_bits;
                    peak += kc.sim.peak_storage_bits();
                    live_records += kc.sim.live_records() as u64;
                    ready_keys += usize::from(kc.sim.has_enabled_event());
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
            ready_keys,
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
        let slot =
            Arc::clone(tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock()).get(key)?);
        let state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
        Some(match &*state {
            KeyState::Live(kc) => kc.sim.full_history(),
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

/// Builds a shard engine from its spec.
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
/// store-wide flight recorder; `signal` the store's stop flag and
/// governor wake-up.
pub(crate) struct EngineParts {
    pub(crate) policy: HistoryPolicy,
    pub(crate) eviction: EvictionPolicy,
    pub(crate) idle_wall_clock: Option<std::time::Duration>,
    pub(crate) signal: Arc<GovernorSignal>,
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
    let name = proto.name();
    let value_len = proto.config().value_len;
    let initial = proto.config().initial_value();
    Arc::new(ShardCore {
        proto,
        map: parking_lot::Mutex::new(HashMap::new()),
        slots: parking_lot::RwLock::new(Vec::new()),
        signal: parts.signal,
        counters: AtomicCounters::default(),
        shard: parts.shard,
        recorder: parts.recorder,
        policy: parts.policy,
        eviction: parts.eviction,
        idle_wall_clock: parts.idle_wall_clock,
        epoch: Instant::now(),
        name,
        value_len,
        initial,
        ticks: AtomicU64::new(0),
        live_bits: AtomicU64::new(0),
        govern_backoff: AtomicU64::new(0),
        last_idle_sweep: AtomicU64::new(0),
    })
}
