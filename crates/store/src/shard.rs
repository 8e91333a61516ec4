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
//! The drain is [`Simulation::drain`]: the fair scheduler's events in one
//! fused pass, each RMW taken out of the in-flight table once, applied
//! and delivered. A hold borrows its thread's [`Scratch`] — the in-flight
//! table the drain works in, which handlers trigger into directly — and
//! hands it back when it ends, so a key at rest holds its register, its
//! clients and its history, not the high-water table of its last drain.
//! The thread keeps one scratch per object-state type, warm in its cache
//! for the next key it runs.
//!
//! On top of the same per-key lifecycle, a [`HistoryPolicy`] bounds each
//! register's `OpRecord` history (compaction keeps the frontier writes
//! the consistency checkers need), and [`ShardEngine::evict_quiescent`]
//! lets every quiescent key [`rest`](Simulation::rest) in place: the key
//! keeps its one simulation, objects, history and peaks, and gives back
//! its idle clients and slack buffers. The next hold re-reserves the
//! record buffer and adds a client as it needs one; nothing else differs
//! between a rested key and any other. Eviction is that one call, made
//! by the store's owner; nothing sweeps on its own.

use crate::config::ShardSpec;
use crate::config::{HistoryPolicy, ProtocolSpec};
use crate::lockorder::{ranks, tracked_lock};
use crate::metrics::{AtomicCounters, ShardMetrics};
use crate::recorder::{FlightEventKind, FlightRecorder};
use crate::store::StoreError;
use rsb_coding::Value;
use rsb_fpsm::{
    ClientId, ClientLogic, ObjectState, OpId, OpRecord, OpRequest, OpResult, Scratch, Simulation,
    StorageCost,
};
use rsb_registers::{Abd, AbdAtomic, Adaptive, Coded, RegisterProtocol, Safe};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One key's register: its simulation, whose clients (allocated as holds
/// need them) are reused across operations when idle.
type KeySim<P> = Simulation<<P as RegisterProtocol>::Object, <P as RegisterProtocol>::Client>;

thread_local! {
    /// This thread's drain scratch, one [`Scratch`] per object-state type
    /// (a store may mix protocols across shards).
    static SCRATCH: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Swaps `sim`'s in-flight table with this thread's scratch for its
/// state type: called once when a hold starts, to lend the warm table,
/// and once when it ends, to take it back. [`Simulation::swap_scratch`]
/// declines while RMWs are in flight, so a key left mid-operation keeps
/// its own.
fn swap_thread_scratch<S: ObjectState + 'static, L: ClientLogic<State = S>>(
    sim: &mut Simulation<S, L>,
) {
    // During thread teardown the slot may already be gone; the key then
    // simply keeps its table.
    let _ = SCRATCH.try_with(|slots| {
        let mut slots = slots.borrow_mut();
        if !slots.iter().any(|s| s.is::<Scratch<S>>()) {
            slots.push(Box::<Scratch<S>>::default());
        }
        if let Some(scratch) = slots
            .iter_mut()
            .find_map(|s| s.downcast_mut::<Scratch<S>>())
        {
            sim.swap_scratch(scratch);
        }
    });
}

/// The phase split one key-lock hold shares among its operations:
/// submission (before placement) → the end of the invocations is their
/// queue wait, the drain that follows their execute time.
struct HoldTimes {
    queue_ns: u64,
    execute_ns: u64,
}

/// One key's slot: the per-key lock every simulation access goes
/// through.
type KeySlot<P> = crate::mcsync::Mutex<KeySim<P>>;

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

    /// Rests every quiescent key in place; returns how many.
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

    /// The operation records of one key's register, if it exists.
    fn key_records(&self, key: &str) -> Option<Vec<OpRecord>>;

    /// Keys created on this shard.
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
    P::Object: Clone + 'static,
{
    fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Closes a key-lock hold that ran operations: compacts the key's
    /// history if the policy says so. Call after the hold's results have
    /// been read off the records.
    fn settle(&self, sim: &mut KeySim<P>) {
        let compact = match self.policy {
            HistoryPolicy::Unbounded => false,
            HistoryPolicy::TruncateAfter(n) => sim.live_records() > n,
        };
        if compact {
            self.compact(sim);
        }
    }

    fn compact(&self, sim: &mut KeySim<P>) {
        let dropped = sim.compact_history();
        self.counters.note_truncated(dropped);
        if dropped > 0 {
            self.recorder
                .record(FlightEventKind::Compaction, Some(self.shard), dropped);
        }
    }

    /// Tries to evict one key: under its lock, a quiescent key is
    /// compacted (under a truncating history policy) and rested in place.
    /// Returns whether the key rested; one already resting is skipped.
    fn try_evict(&self, slot: &KeySlot<P>) -> bool {
        let mut sim = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock());
        // Every operation runs on a client, and a rest drops them all: a
        // key without one has run nothing since it last rested.
        if sim.client_count() == 0 || !sim.is_quiescent() {
            return false;
        }
        // Compact before resting — but only under a truncating policy:
        // `Unbounded` promises the full history, which the key keeps.
        if self.policy != HistoryPolicy::Unbounded {
            self.compact(&mut sim);
        }
        sim.rest();
        self.counters.note_eviction();
        self.recorder.record(
            FlightEventKind::Evict,
            Some(self.shard),
            sim.storage_cost().object_bits,
        );
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
    /// creating the key's register on first touch.
    fn place_locked(
        &self,
        index: &mut HashMap<String, Arc<KeySlot<P>>>,
        key: &str,
    ) -> Arc<KeySlot<P>> {
        if let Some(slot) = index.get(key) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(KeySlot::<P>::new(self.proto.new_sim()));
        index.insert(key.to_owned(), Arc::clone(&slot));
        slot
    }

    /// Invokes one operation on a key (client reuse/allocation,
    /// counters and flight events). Call under the key lock.
    fn invoke(&self, sim: &mut KeySim<P>, req: OpRequest) -> Result<OpId, StoreError> {
        let client = (0..sim.client_count())
            .map(ClientId)
            .find(|&c| sim.outstanding_op(c).is_none())
            .unwrap_or_else(|| self.proto.add_client(sim));
        let write_bytes = match &req {
            OpRequest::Write(v) => Some(v.len() as u64),
            OpRequest::Read => None,
        };
        match sim.invoke(client, req) {
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
    /// and its queue-wait / execute phase split. An operation the drain left
    /// without a result (its protocol could not terminate it) is an
    /// error naming the key. Call under the key lock.
    fn collect(
        &self,
        sim: &KeySim<P>,
        key: &str,
        op: OpId,
        times: &HoldTimes,
    ) -> Result<OpResult, StoreError> {
        let Some(result) = sim.op_record(op).result.clone() else {
            return Err(StoreError::Rejected(format!(
                "operation on key {key:?} did not complete: no enabled event is left to run"
            )));
        };
        self.counters.note_completion(&result);
        self.counters.note_phases(times.queue_ns, times.execute_ns);
        let total_ns = times.queue_ns + times.execute_ns;
        match result {
            OpResult::Read(_) => self.counters.note_read_latency(total_ns),
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
        let mut sim = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock());
        if self.is_stopped() {
            for (tag, _) in reqs {
                deliver(tag, Err(StoreError::ShutDown));
            }
            return;
        }
        let sim = &mut *sim;
        // Under `TruncateAfter(n)` the live tail never holds more than
        // `n + 1` records between holds, so exactly that many are
        // reserved instead of letting doubling leave a buffer twice the
        // size. Only a key's first hold, or its first since it rested,
        // allocates here.
        if let HistoryPolicy::TruncateAfter(n) = self.policy {
            sim.reserve_history(n.saturating_add(1));
        }
        swap_thread_scratch(sim);
        let invoked: Vec<_> = reqs
            .map(|(tag, req)| (tag, self.invoke(sim, req)))
            .collect();
        let exec_start = Instant::now();
        // No new event can appear while the key lock is held, so the
        // drain ends (its backlog is bounded by the RMWs in flight).
        sim.drain();
        let times = HoldTimes {
            queue_ns: exec_start.duration_since(started).as_nanos() as u64,
            execute_ns: exec_start.elapsed().as_nanos() as u64,
        };
        for (tag, op) in invoked {
            deliver(tag, op.and_then(|op| self.collect(sim, key, op, &times)));
        }
        self.settle(sim);
        swap_thread_scratch(sim);
    }
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardEngine for ShardCore<P>
where
    P::Object: Clone + 'static,
{
    fn submit(&self, key: &str, req: OpRequest) -> Result<OpResult, StoreError> {
        let started = Instant::now();
        // Fast-path reject, before placement can create a key on a
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
        let mut ready_keys = 0usize;
        for slot in &slots {
            let sim = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock());
            let cost = sim.storage_cost();
            occupancy.object_bits += cost.object_bits;
            occupancy.client_bits += cost.client_bits;
            occupancy.inflight_param_bits += cost.inflight_param_bits;
            occupancy.inflight_resp_bits += cost.inflight_resp_bits;
            peak += sim.peak_storage_bits();
            live_records += sim.live_records() as u64;
            ready_keys += usize::from(sim.has_enabled_event());
        }
        ShardMetrics {
            shard: self.shard,
            protocol: self.name.to_owned(),
            keys: slots.len(),
            ops: self.counters.snapshot(),
            occupancy,
            peak_register_bits: peak,
            live_records,
            ready_keys,
            read_latency: self.counters.read_histogram(),
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
        let history = tracked_lock(ranks::KEY_STATE, "key_state", || slot.lock()).full_history();
        Some(history)
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
    P::Object: Clone + 'static,
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
