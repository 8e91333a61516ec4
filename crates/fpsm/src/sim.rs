//! The deterministic simulation of the asynchronous fault-prone
//! shared-memory system.

use crate::client::{ClientLogic, ClientRt, Effects, OpRequest, OpResult, Triggers};
use crate::ids::{ClientId, ObjectId, OpId, RmwId};
use crate::object::{ObjectRt, ObjectState};
use crate::payload::{BlockInstance, Component, Payload, StorageCost};
use std::collections::VecDeque;

/// An internal scheduler-controlled event.
///
/// The environment (scheduler) decides when a triggered RMW atomically
/// takes effect on its base object ([`SimEvent::Apply`]) and when its
/// response reaches the client ([`SimEvent::Deliver`]) — the two degrees of
/// asynchrony in the paper's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimEvent {
    /// Let a triggered RMW take effect on its (non-crashed) base object.
    Apply(RmwId),
    /// Deliver the response of an applied RMW to its (non-crashed) client,
    /// running the client's handler.
    Deliver(RmwId),
}

/// Errors from driving the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event references an RMW id that is not in the required phase.
    InvalidEvent(String),
    /// An invocation targeted a client that already has an outstanding
    /// operation (runs must be well-formed).
    ClientBusy(ClientId),
    /// An invocation targeted a crashed client.
    ClientCrashed(ClientId),
    /// The referenced component does not exist.
    NoSuchComponent(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidEvent(msg) => write!(f, "invalid event: {msg}"),
            SimError::ClientBusy(c) => write!(f, "client {c} already has an outstanding operation"),
            SimError::ClientCrashed(c) => write!(f, "client {c} has crashed"),
            SimError::NoSuchComponent(msg) => write!(f, "no such component: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Phase of an in-flight RMW, holding what is in flight in that phase.
#[derive(Debug, Clone)]
enum RmwPhase<S: ObjectState> {
    /// Triggered; the parameters have not yet taken effect.
    Triggered(S::Rmw),
    /// Took effect; the response is not yet delivered.
    Applied(S::Resp),
}

/// Bookkeeping for one in-flight RMW.
#[derive(Debug, Clone)]
struct RmwRt<S: ObjectState> {
    id: RmwId,
    client: ClientId,
    op: OpId,
    object: ObjectId,
    phase: RmwPhase<S>,
    triggered_at: u64,
}

/// Public, copyable summary of an in-flight RMW (for schedulers and the
/// lower-bound adversary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmwInfo {
    /// The RMW's id (trigger-ordered).
    pub rmw: RmwId,
    /// The triggering client.
    pub client: ClientId,
    /// The operation it belongs to.
    pub op: OpId,
    /// The target base object.
    pub object: ObjectId,
    /// Logical time at which it was triggered.
    pub triggered_at: u64,
    /// Whether it has already taken effect (else merely triggered).
    pub applied: bool,
}

/// The record of one emulated operation, for histories and checkers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Operation id.
    pub op: OpId,
    /// Invoking client.
    pub client: ClientId,
    /// The request.
    pub request: OpRequest,
    /// Logical invocation time.
    pub invoked_at: u64,
    /// The result, once returned.
    pub result: Option<OpResult>,
    /// Logical return time, once returned.
    pub returned_at: Option<u64>,
}

impl OpRecord {
    /// Whether the operation has returned.
    pub fn is_complete(&self) -> bool {
        self.returned_at.is_some()
    }
}

/// The simulated system: `n` base objects, a growable set of clients, and
/// in-flight RMWs, advanced one scheduler-chosen event at a time.
///
/// Logical time increases by one at every action (invocation, apply,
/// deliver), matching the paper's notion of time as an action index.
#[derive(Debug)]
pub struct Simulation<S: ObjectState, L: ClientLogic<State = S>> {
    objects: Vec<ObjectRt<S>>,
    clients: Vec<ClientRt<L>>,
    /// In-flight RMWs in trigger order. Ids are issued in increasing
    /// order and entries only ever leave, so the table stays sorted by id:
    /// a trigger is a push, a lookup a binary search, and the fair drain's
    /// delivery — always of the oldest entry — a pop.
    rmws: VecDeque<RmwRt<S>>,
    /// The buffer every handler's [`Effects`] collects its triggers in.
    trigger_buf: Triggers<S>,
    records: Vec<OpRecord>,
    /// Op id of `records[0]`: compaction drops a settled prefix and
    /// advances this base, so op ids stay stable identifiers forever.
    records_base: u64,
    /// Frontier writes older than `records_base` that a future read may
    /// still legally return — kept so compacted histories remain
    /// checkable (see [`Simulation::compact_history`]).
    retained: Vec<OpRecord>,
    /// Records dropped by compaction so far.
    dropped_records: u64,
    time: u64,
    next_rmw: u64,
    /// Running Definition-2 cost, maintained *incrementally*: each event
    /// re-measures only the components it touched (one object, one
    /// client, one RMW) instead of rescanning the whole system — the
    /// difference between O(1) and O(n + clients + rmws) accounting per
    /// event on the store's hot path.
    cost: StorageCost,
    peak_total_bits: u64,
    peak_cost: StorageCost,
    sample_storage: bool,
    storage_series: Vec<(u64, u64)>,
}

/// The portable state of a *quiescent* simulation: cloned base-object
/// states plus the compacted operation history and the logical-time /
/// id-allocation cursors. A snapshotted register can be dropped and later
/// rebuilt with [`Simulation::restore`] — new operations continue the same
/// history (later timestamps, later op ids), so consistency checkers keep
/// accepting the recorded trace across an evict/rematerialize cycle.
#[derive(Debug, Clone)]
pub struct SimSnapshot<S: ObjectState> {
    objects: Vec<(S, bool)>,
    records: Vec<OpRecord>,
    next_op: u64,
    time: u64,
    next_rmw: u64,
    peak_total_bits: u64,
    peak_cost: StorageCost,
    /// Object bits, measured once at snapshot time: a snapshot is
    /// immutable, so its storage cost never needs re-scanning — metrics
    /// sweeps over many evicted keys stay O(keys), not O(keys × objects).
    object_bits: u64,
}

impl<S: ObjectState> SimSnapshot<S> {
    /// Total bits held by the snapshotted base objects (cached at
    /// snapshot time; O(1)).
    pub fn storage_bits(&self) -> u64 {
        self.object_bits
    }

    /// The operation records preserved by the snapshot.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// How many operation records the snapshot preserves.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Peak total storage the register had observed before eviction —
    /// carried so aggregate peak metrics survive an evict/rematerialize
    /// cycle instead of silently dropping the key's contribution.
    pub fn peak_bits(&self) -> u64 {
        self.peak_total_bits
    }
}

impl<S: ObjectState, L: ClientLogic<State = S>> Simulation<S, L> {
    /// Creates a simulation with `n` base objects, each initialized by
    /// `init` (typically holding blocks of the initial value `v₀`).
    pub fn new(n: usize, mut init: impl FnMut(ObjectId) -> S) -> Self {
        let objects = (0..n).map(|i| ObjectRt::new(init(ObjectId(i)))).collect();
        let mut sim = Simulation {
            objects,
            clients: Vec::new(),
            rmws: VecDeque::new(),
            trigger_buf: Vec::new(),
            records: Vec::new(),
            records_base: 0,
            retained: Vec::new(),
            dropped_records: 0,
            time: 0,
            next_rmw: 0,
            cost: StorageCost::default(),
            peak_total_bits: 0,
            peak_cost: StorageCost::default(),
            sample_storage: false,
            storage_series: Vec::new(),
        };
        sim.cost = sim.compute_storage_cost();
        sim.note_storage();
        sim
    }

    /// Rebuilds a simulation from a snapshot taken at quiescence: the base
    /// objects resume their exact states (crash flags included), the
    /// snapshot's records become the retained history, and time / op / RMW
    /// ids continue where they left off. Clients are *not* restored — add
    /// fresh ones; because every protocol here lets any client read or
    /// write, client churn is semantically invisible.
    pub fn restore(snapshot: SimSnapshot<S>) -> Self {
        let SimSnapshot {
            objects,
            records,
            next_op,
            time,
            next_rmw,
            peak_total_bits,
            peak_cost,
            object_bits: _,
        } = snapshot;
        let mut sim = Simulation {
            objects: objects
                .into_iter()
                .map(|(state, crashed)| ObjectRt::restore(state, crashed))
                .collect(),
            clients: Vec::new(),
            rmws: VecDeque::new(),
            trigger_buf: Vec::new(),
            records: Vec::new(),
            records_base: next_op,
            retained: records,
            dropped_records: 0,
            time,
            next_rmw,
            cost: StorageCost::default(),
            peak_total_bits,
            peak_cost,
            sample_storage: false,
            storage_series: Vec::new(),
        };
        sim.cost = sim.compute_storage_cost();
        sim
    }

    /// Enables recording of a `(time, total_bits)` series at every event.
    pub fn enable_storage_sampling(&mut self) {
        self.sample_storage = true;
    }

    /// Adds a client running `logic`, returning its id.
    pub fn add_client(&mut self, logic: L) -> ClientId {
        let id = ClientId(self.clients.len());
        self.cost.client_bits += logic.stored_bits();
        self.clients.push(ClientRt::new(logic));
        id
    }

    /// Number of base objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Number of clients added so far.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Current logical time (number of actions so far).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Invokes an operation on a client.
    ///
    /// # Errors
    ///
    /// Fails if the client is crashed or already has an outstanding
    /// operation (runs are well-formed).
    pub fn invoke(&mut self, client: ClientId, req: OpRequest) -> Result<OpId, SimError> {
        let rt = self
            .clients
            .get(client.0)
            .ok_or_else(|| SimError::NoSuchComponent(format!("{client}")))?;
        if rt.crashed {
            return Err(SimError::ClientCrashed(client));
        }
        if rt.outstanding.is_some() {
            return Err(SimError::ClientBusy(client));
        }
        let op = OpId(self.records_base + self.records.len() as u64);
        self.time += 1;
        self.records.push(OpRecord {
            op,
            client,
            request: req.clone(),
            invoked_at: self.time,
            result: None,
            returned_at: None,
        });
        self.clients[client.0].outstanding = Some(op);
        self.run_handler(client, op, |logic, eff| logic.on_invoke(op, req, eff));
        Ok(op)
    }

    /// Executes one scheduler-chosen event.
    ///
    /// # Errors
    ///
    /// Fails if the event is not currently enabled (wrong phase, crashed
    /// target, unknown id).
    pub fn step(&mut self, event: SimEvent) -> Result<(), SimError> {
        match event {
            SimEvent::Apply(id) => self.apply_rmw(id),
            SimEvent::Deliver(id) => self.deliver_rmw(id),
        }
    }

    /// Position of an in-flight RMW in the (id-sorted) table; the fair
    /// drain always asks for the front entry.
    fn position(&self, id: RmwId) -> Result<usize, SimError> {
        match self.rmws.front() {
            Some(front) if front.id == id => Ok(0),
            _ => self
                .rmws
                .binary_search_by_key(&id, |rt| rt.id)
                .map_err(|_| SimError::InvalidEvent(format!("{id} not in flight"))),
        }
    }

    fn apply_rmw(&mut self, id: RmwId) -> Result<(), SimError> {
        let idx = self.position(id)?;
        let rt = &mut self.rmws[idx];
        let RmwPhase::Triggered(rmw) = &rt.phase else {
            return Err(SimError::InvalidEvent(format!("{id} already applied")));
        };
        let object = &mut self.objects[rt.object.0];
        if object.crashed {
            let obj = rt.object;
            return Err(SimError::InvalidEvent(format!("{obj} has crashed")));
        }
        let object_bits_before = object.state.block_bits();
        let resp = object.state.apply(rt.client, rmw);
        self.cost.object_bits =
            self.cost.object_bits - object_bits_before + object.state.block_bits();
        self.cost.inflight_param_bits -= rmw.block_bits();
        self.cost.inflight_resp_bits += resp.block_bits();
        rt.phase = RmwPhase::Applied(resp);
        self.time += 1;
        self.note_storage();
        Ok(())
    }

    fn deliver_rmw(&mut self, id: RmwId) -> Result<(), SimError> {
        let idx = self.position(id)?;
        let rt = &self.rmws[idx];
        if !matches!(rt.phase, RmwPhase::Applied(_)) {
            return Err(SimError::InvalidEvent(format!("{id} not applied yet")));
        }
        let client = rt.client;
        if self.clients[client.0].crashed {
            return Err(SimError::InvalidEvent(format!("{client} has crashed")));
        }
        let rt = self.rmws.remove(idx).expect("position is in range");
        let RmwPhase::Applied(resp) = rt.phase else {
            unreachable!("phase checked above");
        };
        self.cost.inflight_resp_bits -= resp.block_bits();
        self.time += 1;
        self.run_handler(client, rt.op, |logic, eff| {
            logic.on_response(rt.op, id, resp, eff);
        });
        Ok(())
    }

    /// Runs one handler of `client`'s logic for operation `op` and carries
    /// out its effects: the client's held bits are re-measured, triggered
    /// RMWs enter the in-flight table, a completion closes the record.
    fn run_handler(
        &mut self,
        client: ClientId,
        op: OpId,
        handler: impl FnOnce(&mut L, &mut Effects<S>),
    ) {
        let logic = &mut self.clients[client.0].logic;
        let client_bits_before = logic.stored_bits();
        let mut eff = Effects::new(self.next_rmw, std::mem::take(&mut self.trigger_buf));
        handler(logic, &mut eff);
        self.cost.client_bits = self.cost.client_bits - client_bits_before + logic.stored_bits();
        let (mut triggers, completion) = eff.into_parts();
        for (id, object, rmw) in triggers.drain(..) {
            debug_assert_eq!(id.0, self.next_rmw);
            self.next_rmw = id.0 + 1;
            self.cost.inflight_param_bits += rmw.block_bits();
            self.rmws.push_back(RmwRt {
                id,
                client,
                op,
                object,
                phase: RmwPhase::Triggered(rmw),
                triggered_at: self.time,
            });
        }
        self.trigger_buf = triggers;
        if let Some(result) = completion {
            let rec = &mut self.records[(op.0 - self.records_base) as usize];
            debug_assert!(rec.result.is_none(), "operation {op} returned twice");
            rec.result = Some(result);
            rec.returned_at = Some(self.time);
            self.clients[client.0].outstanding = None;
        }
        self.note_storage();
    }

    /// Crashes a base object: pending RMWs on it never take effect and it
    /// accepts no further RMWs. Idempotent.
    pub fn crash_object(&mut self, obj: ObjectId) {
        self.objects[obj.0].crashed = true;
    }

    /// Crashes a client: no responses are delivered to it and it takes no
    /// further steps. Idempotent.
    pub fn crash_client(&mut self, client: ClientId) {
        self.clients[client.0].crashed = true;
    }

    /// Whether the object has crashed.
    pub fn object_crashed(&self, obj: ObjectId) -> bool {
        self.objects[obj.0].crashed
    }

    /// Whether the client has crashed.
    pub fn client_crashed(&self, client: ClientId) -> bool {
        self.clients[client.0].crashed
    }

    /// Read access to a base object's protocol state (for assertions and
    /// adversaries; a real client could not do this without an RMW).
    pub fn object_state(&self, obj: ObjectId) -> &S {
        &self.objects[obj.0].state
    }

    /// Read access to a client's protocol logic.
    pub fn client_logic(&self, client: ClientId) -> &L {
        &self.clients[client.0].logic
    }

    /// The outstanding operation of a client, if any.
    pub fn outstanding_op(&self, client: ClientId) -> Option<OpId> {
        self.clients[client.0].outstanding
    }

    /// All operations with an invocation but no return yet.
    pub fn outstanding_ops(&self) -> Vec<&OpRecord> {
        self.records.iter().filter(|r| !r.is_complete()).collect()
    }

    /// The record of an operation.
    ///
    /// # Panics
    ///
    /// Panics if the record was dropped by [`Simulation::compact_history`]
    /// (compaction only touches settled operations, so live runtimes never
    /// look up a compacted record).
    pub fn op_record(&self, op: OpId) -> &OpRecord {
        let idx =
            op.0.checked_sub(self.records_base)
                .expect("operation record was compacted away");
        &self.records[idx as usize]
    }

    /// The live (uncompacted) tail of the operation history. Without
    /// compaction this is the full history; with compaction, frontier
    /// writes that predate the tail live in
    /// [`Simulation::retained_history`].
    pub fn history(&self) -> &[OpRecord] {
        &self.records
    }

    /// Frontier writes preserved from compacted history epochs.
    pub fn retained_history(&self) -> &[OpRecord] {
        &self.retained
    }

    /// The checkable history: retained frontier writes followed by the
    /// live tail, in op-id (= invocation) order.
    pub fn full_history(&self) -> Vec<OpRecord> {
        let mut out = Vec::with_capacity(self.retained.len() + self.records.len());
        out.extend_from_slice(&self.retained);
        out.extend_from_slice(&self.records);
        out
    }

    /// Records currently held (retained frontier + live tail).
    pub fn live_records(&self) -> usize {
        self.retained.len() + self.records.len()
    }

    /// Records dropped by compaction so far.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Whether the register is quiescent: no in-flight RMWs and every
    /// invoked operation has returned.
    pub fn is_quiescent(&self) -> bool {
        self.rmws.is_empty() && self.records.iter().all(OpRecord::is_complete)
    }

    /// Whether any scheduler event is currently enabled (cheaper than
    /// materializing [`Simulation::enabled_events`]).
    pub fn has_enabled_event(&self) -> bool {
        self.first_enabled_event().is_some()
    }

    /// The first enabled event in trigger order, without materializing the
    /// whole enabled set — the fair-scheduler hot path.
    pub fn first_enabled_event(&self) -> Option<SimEvent> {
        self.rmws.iter().find_map(|rt| self.enabled(rt))
    }

    /// The event that would advance `rt`, unless its target has crashed.
    fn enabled(&self, rt: &RmwRt<S>) -> Option<SimEvent> {
        match rt.phase {
            RmwPhase::Triggered(_) if !self.objects[rt.object.0].crashed => {
                Some(SimEvent::Apply(rt.id))
            }
            RmwPhase::Applied(_) if !self.clients[rt.client.0].crashed => {
                Some(SimEvent::Deliver(rt.id))
            }
            _ => None,
        }
    }

    /// Compacts settled history, returning how many records were dropped.
    ///
    /// The longest all-complete prefix of the live tail is drained;
    /// within it, completed reads are dropped, and completed writes are
    /// dropped when *stale* — some completed write `w'` was invoked after
    /// they returned and returned before every kept operation's
    /// invocation, so no kept or future read may legally return them.
    /// Non-stale writes (the observable frontier) move to the retained
    /// set, which the same rule re-filters. The surviving history
    /// (`retained ++ tail`) therefore stays acceptable to the regularity /
    /// atomicity checkers: dropped reads only remove ordering constraints,
    /// and dropped writes can no longer be observed — a read that returns
    /// one anyway still fails the check (as `UnwrittenValue` instead of
    /// `StaleRead`).
    pub fn compact_history(&mut self) -> u64 {
        let cut = self
            .records
            .iter()
            .position(|r| !r.is_complete())
            .unwrap_or(self.records.len());
        if cut == 0 && self.retained.is_empty() {
            return 0;
        }
        // Invocation of the first kept tail record: completed writes
        // returning before it can prove staleness for every kept op.
        let horizon = self.records.get(cut).map(|r| r.invoked_at);
        let returned_before_horizon = |r: &OpRecord| match (r.returned_at, horizon) {
            (Some(ret), Some(h)) => ret < h,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let mut latest_proof_invocation: Option<u64> = None;
        for r in self.retained.iter().chain(self.records.iter()) {
            if matches!(r.request, OpRequest::Write(_)) && returned_before_horizon(r) {
                latest_proof_invocation =
                    Some(latest_proof_invocation.map_or(r.invoked_at, |m| m.max(r.invoked_at)));
            }
        }
        let stale = |r: &OpRecord| match (r.returned_at, latest_proof_invocation) {
            (Some(ret), Some(proof_inv)) => ret < proof_inv,
            _ => false,
        };
        let mut dropped = 0u64;
        let old_retained = std::mem::take(&mut self.retained);
        for r in old_retained {
            if stale(&r) {
                dropped += 1;
            } else {
                self.retained.push(r);
            }
        }
        for r in self.records.drain(..cut) {
            if matches!(r.request, OpRequest::Write(_)) && !stale(&r) {
                self.retained.push(r);
            } else {
                dropped += 1;
            }
        }
        self.records_base += cut as u64;
        self.dropped_records += dropped;
        dropped
    }

    /// Summaries of all in-flight RMWs, in trigger order.
    pub fn inflight_rmws(&self) -> Vec<RmwInfo> {
        self.rmws
            .iter()
            .map(|rt| RmwInfo {
                rmw: rt.id,
                client: rt.client,
                op: rt.op,
                object: rt.object,
                triggered_at: rt.triggered_at,
                applied: matches!(rt.phase, RmwPhase::Applied(_)),
            })
            .collect()
    }

    /// Events currently enabled: applies on live objects, deliveries to
    /// live clients, in trigger order.
    pub fn enabled_events(&self) -> Vec<SimEvent> {
        self.rmws.iter().filter_map(|rt| self.enabled(rt)).collect()
    }

    /// Captures a quiescent register's full state for eviction: object
    /// states, the (compacted) history, and the time / id cursors.
    /// Returns `None` unless the simulation is quiescent — with RMWs in
    /// flight the state is not portable.
    pub fn snapshot(&self) -> Option<SimSnapshot<S>>
    where
        S: Clone,
    {
        if !self.is_quiescent() {
            return None;
        }
        // At quiescence there are no in-flight RMWs, so the incremental
        // cost's object share *is* the snapshot's storage bill.
        let object_bits = self.objects.iter().map(|o| o.state.block_bits()).sum();
        Some(SimSnapshot {
            objects: self
                .objects
                .iter()
                .map(|o| (o.state.clone(), o.crashed))
                .collect(),
            records: self.full_history(),
            next_op: self.records_base + self.records.len() as u64,
            time: self.time,
            next_rmw: self.next_rmw,
            peak_total_bits: self.peak_total_bits,
            peak_cost: self.peak_cost,
            object_bits,
        })
    }

    /// The storage cost right now (Definition 2), broken down by site.
    /// O(1): the cost is maintained incrementally as events execute.
    pub fn storage_cost(&self) -> StorageCost {
        debug_assert_eq!(
            self.cost,
            self.compute_storage_cost(),
            "incremental storage accounting drifted from ground truth"
        );
        self.cost
    }

    /// Recomputes the Definition-2 cost from scratch — the ground truth
    /// the incremental `cost` field is initialized from (and checked
    /// against in debug builds).
    fn compute_storage_cost(&self) -> StorageCost {
        let mut cost = StorageCost::default();
        for o in &self.objects {
            cost.object_bits += o.state.block_bits();
        }
        for c in &self.clients {
            cost.client_bits += c.logic.stored_bits();
        }
        for rt in &self.rmws {
            match &rt.phase {
                RmwPhase::Triggered(rmw) => cost.inflight_param_bits += rmw.block_bits(),
                RmwPhase::Applied(resp) => cost.inflight_resp_bits += resp.block_bits(),
            }
        }
        cost
    }

    /// Every block instance in the system, tagged by component — the raw
    /// material for the lower-bound quantities `‖S(t, w)‖` and `F(t)`.
    pub fn component_blocks(&self) -> Vec<(Component, Vec<BlockInstance>)> {
        let mut out = Vec::new();
        for (i, o) in self.objects.iter().enumerate() {
            out.push((Component::Object(ObjectId(i)), o.state.blocks()));
        }
        for (i, c) in self.clients.iter().enumerate() {
            out.push((Component::Client(ClientId(i)), c.logic.stored_blocks()));
        }
        for rt in &self.rmws {
            match &rt.phase {
                RmwPhase::Triggered(rmw) => out.push((
                    Component::RmwParam {
                        rmw: rt.id,
                        client: rt.client,
                    },
                    rmw.blocks(),
                )),
                RmwPhase::Applied(resp) => out.push((
                    Component::RmwResponse {
                        rmw: rt.id,
                        object: rt.object,
                    },
                    resp.blocks(),
                )),
            }
        }
        out
    }

    /// Peak total storage cost observed so far (bits).
    pub fn peak_storage_bits(&self) -> u64 {
        self.peak_total_bits
    }

    /// Per-category peaks observed so far.
    pub fn peak_storage_cost(&self) -> StorageCost {
        self.peak_cost
    }

    /// The sampled `(time, total_bits)` series, if sampling was enabled.
    pub fn storage_series(&self) -> &[(u64, u64)] {
        &self.storage_series
    }

    /// Folds the running cost into the peak trackers (and the sampled
    /// series); called after every action.
    fn note_storage(&mut self) {
        let cost = self.cost;
        self.peak_total_bits = self.peak_total_bits.max(cost.total());
        self.peak_cost = self.peak_cost.max(cost);
        if self.sample_storage {
            self.storage_series.push((self.time, cost.total()));
        }
    }
}
