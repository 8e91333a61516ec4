//! One shard: a map of per-key register simulations, each operation run
//! to completion by the thread that submits it, under one hold of its
//! key's lock.
//!
//! Keys live behind *per-key* locks; the shard map lock covers only
//! placement. A submission takes the key lock once and, inside that
//! hold, invokes its operation, drains every enabled simulator event,
//! reads the result off the operation's record, and settles the key
//! (its history policy). Nothing is ever pending between two lock holds,
//! so there is no queue, no slot ownership and no completion cell:
//! `submit` returns the result. The key lock is what serializes same-key
//! submitters.
//!
//! On top of the same per-key lifecycle, a [`HistoryPolicy`] bounds each
//! register's `OpRecord` history (compaction keeps the frontier writes
//! the consistency checkers need), and [`ShardEngine::evict_quiescent`]
//! replaces every quiescent key's live simulation by a [`SimSnapshot`],
//! rematerialized on the key's next operation. Eviction is that one call,
//! made by the store's owner; nothing sweeps on its own.

use crate::config::ShardSpec;
use crate::config::{HistoryPolicy, ProtocolSpec};
use crate::metrics::{AtomicCounters, ShardMetrics};
use crate::recorder::{FlightEventKind, FlightRecorder};
use crate::store::StoreError;
use rsb_coding::Value;
use rsb_fpsm::{
    ClientId, OpId, OpRecord, OpRequest, OpResult, SimSnapshot, Simulation, StorageCost,
};
use rsb_registers::lockorder::{ranks, tracked_lock};
use rsb_registers::{Abd, AbdAtomic, Adaptive, Coded, RegisterProtocol, Safe};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
/// through.
type KeySlot<P> = crate::mcsync::Mutex<KeyState<P>>;

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
    /// lock, held only for the name lookup / first-touch insert (or to
    /// clone the slots out for a sweep) — never across key locks or
    /// simulation work.
    map: parking_lot::Mutex<HashMap<String, Arc<KeySlot<P>>>>,
    /// The store's stop flag.
    stop: Arc<AtomicBool>,
    counters: AtomicCounters,
    /// This shard's index within the store (stable event/metrics label).
    shard: usize,
    /// The store-wide flight recorder every shard stamps events into.
    recorder: Arc<FlightRecorder>,
    policy: HistoryPolicy,
    name: &'static str,
    value_len: usize,
    initial: Value,
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardCore<P>
where
    P::Object: Clone,
{
    fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Closes a key-lock hold that ran operations: compacts the key's
    /// history if the policy says so. Call after the hold's results have
    /// been read off the records.
    fn settle(&self, kc: &mut KeyCell<P>) {
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

    /// Tries to evict one key: under its lock, a live, quiescent key is
    /// compacted (under a truncating history policy) and snapshotted.
    /// Returns whether the key was evicted.
    fn try_evict(&self, slot: &KeySlot<P>) -> bool {
        let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock());
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
        self.counters.note_eviction();
        self.recorder
            .record(FlightEventKind::Evict, Some(self.shard), snap_bits);
        true
    }

    /// Every slot on the shard (cheap `Arc` clones), taken under the map
    /// lock and released before the caller locks any key.
    fn slots(&self) -> Vec<Arc<KeySlot<P>>> {
        tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock())
            .values()
            .cloned()
            .collect()
    }

    /// Resolves a key to its slot with the map lock already held,
    /// materializing the placement on first touch.
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
        let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock());
        if self.is_stopped() {
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
        self.settle(kc);
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
        if self.is_stopped() {
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
        result.expect("one request delivers one result")
    }

    fn submit_batch(&self, ops: Vec<(String, OpRequest)>) -> Vec<Result<OpResult, StoreError>> {
        let started = Instant::now();
        if self.is_stopped() {
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
        // op sharing a key is invoked under one key-lock hold (one drain
        // and one settle for the lot) before the next group starts — an
        // op's queue wait is its group's position in the batch.
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
        results
            .into_iter()
            .map(|r| r.expect("every op belongs to exactly one key group"))
            .collect()
    }

    fn evict_quiescent(&self) -> usize {
        self.slots()
            .iter()
            .filter(|slot| self.try_evict(slot))
            .count()
    }

    fn metrics(&self) -> ShardMetrics {
        let slots = self.slots();
        let mut occupancy = StorageCost::default();
        let mut peak = 0u64;
        let mut live_records = 0u64;
        let mut evicted_keys = 0usize;
        let mut snapshot_bits = 0u64;
        let mut ready_keys = 0usize;
        for slot in &slots {
            let state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock());
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
        let state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock());
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
/// store-wide flight recorder; `stop` the store's stop flag.
pub(crate) struct EngineParts {
    pub(crate) policy: HistoryPolicy,
    pub(crate) stop: Arc<AtomicBool>,
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
        stop: parts.stop,
        counters: AtomicCounters::default(),
        shard: parts.shard,
        recorder: parts.recorder,
        policy: parts.policy,
        name,
        value_len,
        initial,
    })
}
