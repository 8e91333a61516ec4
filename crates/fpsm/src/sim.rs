//! The deterministic simulation of the asynchronous fault-prone
//! shared-memory system.
//!
//! A simulation is the register's one representation, running or idle:
//! a host that keeps many registers lets each quiescent one
//! [`rest`](Simulation::rest) in place, which keeps every bit Definition 2
//! charges and gives back the heap only a running operation needs.

use crate::client::{ClientLogic, ClientRt, Effects, OpRequest, OpResult};
use crate::ids::{ClientId, ObjectId, OpId, RmwId};
use crate::object::ObjectState;
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
pub(crate) enum RmwPhase<S: ObjectState> {
    /// Triggered; the parameters have not yet taken effect.
    Triggered(S::Rmw),
    /// Took effect; the response is not yet delivered.
    Applied(S::Resp),
}

/// Bookkeeping for one in-flight RMW.
#[derive(Debug, Clone)]
pub(crate) struct RmwRt<S: ObjectState> {
    pub(crate) id: RmwId,
    pub(crate) client: ClientId,
    pub(crate) op: OpId,
    pub(crate) object: ObjectId,
    pub(crate) phase: RmwPhase<S>,
    pub(crate) triggered_at: u64,
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
/// in-flight RMWs, advanced one scheduler-chosen event at a time
/// ([`Simulation::step`]) or all the fair scheduler's events in one call
/// ([`Simulation::drain`]).
///
/// Logical time increases by one at every action (invocation, apply,
/// deliver), matching the paper's notion of time as an action index.
#[derive(Debug)]
pub struct Simulation<S: ObjectState, L: ClientLogic<State = S>> {
    objects: Vec<S>,
    /// The crashed objects, apart from the states so that a flag does not
    /// pad every state; empty (no allocation) without crashes.
    crashed: Box<[ObjectId]>,
    clients: Vec<ClientRt<L>>,
    /// In-flight RMWs in trigger order. Ids are issued in increasing
    /// order and entries only ever leave, so the table stays sorted by id:
    /// a trigger is a push (a handler's [`Effects`] holds the table while
    /// it runs), a lookup a binary search, and the fair drain's event —
    /// always on the oldest enabled entry — a pop.
    rmws: VecDeque<RmwRt<S>>,
    records: Vec<OpRecord>,
    /// Op id of `records[0]`: compaction drops a settled prefix and
    /// advances this base, so op ids stay stable identifiers forever.
    records_base: u64,
    /// Frontier writes older than `records_base` that a future read may
    /// still legally return — kept so compacted histories remain
    /// checkable (see [`Simulation::compact_history`]).
    retained: Vec<OpRecord>,
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
    /// The `(time, total_bits)` series, once sampling is enabled.
    storage_series: Option<Vec<(u64, u64)>>,
}

/// The buffer a drain works in — the in-flight RMW table, into which
/// handlers trigger directly — detached from any one simulation.
///
/// The table is empty whenever a register is quiescent, yet keeps the
/// capacity its busiest drain grew it to. A host that runs many
/// registers one at a time (the store runs one key per lock hold) keeps
/// one `Scratch` per thread and lends it to each register for the length
/// of a drain with [`Simulation::swap_scratch`], so an idle register
/// holds no table. Lending moves no RMW and changes no event, result or
/// history; a simulation that is never lent one simply grows its own.
#[derive(Debug)]
pub struct Scratch<S: ObjectState> {
    rmws: VecDeque<RmwRt<S>>,
}

impl<S: ObjectState> Default for Scratch<S> {
    fn default() -> Self {
        Scratch {
            rmws: VecDeque::new(),
        }
    }
}

impl<S: ObjectState, L: ClientLogic<State = S>> Simulation<S, L> {
    /// Creates a simulation with `n` base objects, each initialized by
    /// `init` (typically holding blocks of the initial value `v₀`).
    pub fn new(n: usize, mut init: impl FnMut(ObjectId) -> S) -> Self {
        let mut sim = Simulation {
            objects: (0..n).map(|i| init(ObjectId(i))).collect(),
            crashed: Box::default(),
            clients: Vec::new(),
            rmws: VecDeque::new(),
            records: Vec::new(),
            records_base: 0,
            retained: Vec::new(),
            time: 0,
            next_rmw: 0,
            cost: StorageCost::default(),
            peak_total_bits: 0,
            peak_cost: StorageCost::default(),
            storage_series: None,
        };
        sim.cost = sim.compute_storage_cost();
        sim.note_storage();
        sim
    }

    /// Enables recording of a `(time, total_bits)` series at every event.
    pub fn enable_storage_sampling(&mut self) {
        self.storage_series.get_or_insert_with(Vec::new);
    }

    /// Adds a client running `logic`, returning its id.
    ///
    /// The client table grows one slot at a time: a long-lived register
    /// adds a client only when its concurrency exceeds every earlier
    /// peak, so a doubled table would mostly hold idle capacity.
    pub fn add_client(&mut self, logic: L) -> ClientId {
        let id = ClientId(self.clients.len());
        self.cost.client_bits += logic.stored_bits();
        self.clients.reserve_exact(1);
        self.clients.push(ClientRt::new(logic));
        id
    }

    /// Makes room for `records` operation records in the live history
    /// tail, exactly. A host that compacts once the tail passes a bound
    /// reserves `bound + 1` before each run of operations, so the tail's
    /// buffer never doubles past what compaction lets it hold; pushing
    /// beyond the reservation still grows it. Once the buffer is that
    /// large the call is a comparison; only after a [`Simulation::rest`]
    /// does it allocate again.
    pub fn reserve_history(&mut self, records: usize) {
        self.records
            .reserve_exact(records.saturating_sub(self.records.len()));
    }

    /// Exchanges this simulation's in-flight table with `scratch`'s, if
    /// both are empty; returns whether it did.
    ///
    /// Call once to lend a drain the scratch's warm table and once more
    /// when the drain ends to take it back. A register left with RMWs in
    /// flight keeps its table (the second call returns `false`), so
    /// lending never moves state between simulations.
    pub fn swap_scratch(&mut self, scratch: &mut Scratch<S>) -> bool {
        if !self.rmws.is_empty() || !scratch.rmws.is_empty() {
            return false;
        }
        std::mem::swap(&mut self.rmws, &mut scratch.rmws);
        true
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
            SimEvent::Apply(id) => {
                let idx = self.position(id)?;
                let rt = &self.rmws[idx];
                if !matches!(rt.phase, RmwPhase::Triggered(_)) {
                    return Err(SimError::InvalidEvent(format!("{id} already applied")));
                }
                if self.object_crashed(rt.object) {
                    let obj = rt.object;
                    return Err(SimError::InvalidEvent(format!("{obj} has crashed")));
                }
                self.apply_parked(idx);
            }
            SimEvent::Deliver(id) => {
                let idx = self.position(id)?;
                let rt = &self.rmws[idx];
                if !matches!(rt.phase, RmwPhase::Applied(_)) {
                    return Err(SimError::InvalidEvent(format!("{id} not applied yet")));
                }
                let client = rt.client;
                if self.clients[client.0].crashed {
                    return Err(SimError::InvalidEvent(format!("{client} has crashed")));
                }
                let Some(RmwRt {
                    op,
                    phase: RmwPhase::Applied(resp),
                    ..
                }) = self.rmws.remove(idx)
                else {
                    unreachable!("an applied RMW at {idx}, checked above");
                };
                self.deliver(id, client, op, resp);
            }
        }
        Ok(())
    }

    /// Runs every event the fair scheduler would, until none is enabled:
    /// exactly what `while let Some(e) = first_enabled_event() { step(e) }`
    /// runs, with the same order, times, costs, peaks and storage series.
    ///
    /// The oldest enabled RMW is always the next to move, and once it takes
    /// effect its delivery is the next event (unless its client has
    /// crashed), so the drain takes it out of the table once, applies it
    /// and delivers its response in one pass: no response parked in the
    /// table, no id search and no `Result`. Entries whose next event is
    /// disabled — on a crashed object, or answered to a crashed client —
    /// stay disabled for the whole drain, so a cursor steps over them.
    pub fn drain(&mut self) {
        let mut idx = 0;
        while let Some(rt) = self.rmws.get(idx) {
            let applied = matches!(rt.phase, RmwPhase::Applied(_));
            let live_object = !self.object_crashed(rt.object);
            if self.clients[rt.client.0].crashed || !(applied || live_object) {
                // No delivery can follow: it takes effect if its object
                // lives, and its response stays in the table.
                if !applied && live_object {
                    self.apply_parked(idx);
                }
                idx += 1;
                continue;
            }
            let Some(RmwRt {
                id,
                client,
                op,
                object,
                phase,
                ..
            }) = self.rmws.remove(idx)
            else {
                unreachable!("entry {idx} was read above");
            };
            let resp = match phase {
                RmwPhase::Triggered(rmw) => self.apply(client, object, &rmw),
                RmwPhase::Applied(resp) => resp,
            };
            self.deliver(id, client, op, resp);
        }
    }

    /// Position of an in-flight RMW in the (id-sorted) table; the fair
    /// scheduler always asks for the front entry.
    fn position(&self, id: RmwId) -> Result<usize, SimError> {
        match self.rmws.front() {
            Some(front) if front.id == id => Ok(0),
            _ => self
                .rmws
                .binary_search_by_key(&id, |rt| rt.id)
                .map_err(|_| SimError::InvalidEvent(format!("{id} not in flight"))),
        }
    }

    /// Lets the triggered RMW at `idx` take effect and parks its response
    /// in its place in the table, to be delivered by a later event.
    fn apply_parked(&mut self, idx: usize) {
        let Some(mut rt) = self.rmws.remove(idx) else {
            unreachable!("the caller found entry {idx}");
        };
        let RmwPhase::Triggered(rmw) = rt.phase else {
            unreachable!("the caller checked entry {idx} is triggered");
        };
        rt.phase = RmwPhase::Applied(self.apply(rt.client, rt.object, &rmw));
        self.rmws.insert(idx, rt);
    }

    /// The apply half of an RMW's life, shared by both drivers: `rmw`,
    /// triggered by `client`, takes effect on the live `object`; its
    /// parameters leave the bill and its response joins it.
    fn apply(&mut self, client: ClientId, object: ObjectId, rmw: &S::Rmw) -> S::Resp {
        let state = &mut self.objects[object.0];
        let object_bits_before = state.block_bits();
        let resp = state.apply(client, rmw);
        self.cost.object_bits = self.cost.object_bits - object_bits_before + state.block_bits();
        self.cost.inflight_param_bits -= rmw.block_bits();
        self.cost.inflight_resp_bits += resp.block_bits();
        self.time += 1;
        self.note_storage();
        resp
    }

    /// The deliver half, shared by both drivers: `resp`, already out of
    /// the table, reaches the live `client`, whose handler for `op` runs.
    fn deliver(&mut self, id: RmwId, client: ClientId, op: OpId, resp: S::Resp) {
        self.cost.inflight_resp_bits -= resp.block_bits();
        self.time += 1;
        self.run_handler(client, op, |logic, eff| {
            logic.on_response(op, id, resp, eff);
        });
    }

    /// Runs one handler of `client`'s logic for operation `op` and carries
    /// out its effects: the client's held bits are re-measured, triggered
    /// RMWs have joined the in-flight table, a completion closes the
    /// record.
    fn run_handler(
        &mut self,
        client: ClientId,
        op: OpId,
        handler: impl FnOnce(&mut L, &mut Effects<S>),
    ) {
        let logic = &mut self.clients[client.0].logic;
        let client_bits_before = logic.stored_bits();
        let rmws = std::mem::take(&mut self.rmws);
        let mut eff = Effects::new(rmws, self.next_rmw, client, op, self.time);
        handler(logic, &mut eff);
        self.cost.client_bits = self.cost.client_bits - client_bits_before + logic.stored_bits();
        let Effects {
            rmws,
            next_rmw,
            param_bits,
            completion,
            ..
        } = eff;
        self.rmws = rmws;
        self.next_rmw = next_rmw;
        self.cost.inflight_param_bits += param_bits;
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
    ///
    /// # Panics
    ///
    /// Panics if the object does not exist.
    pub fn crash_object(&mut self, obj: ObjectId) {
        assert!(obj.0 < self.objects.len(), "no such object: {obj}");
        if !self.object_crashed(obj) {
            self.crashed = self.crashed.iter().copied().chain([obj]).collect();
        }
    }

    /// Crashes a client: no responses are delivered to it and it takes no
    /// further steps. Idempotent.
    pub fn crash_client(&mut self, client: ClientId) {
        self.clients[client.0].crashed = true;
    }

    /// Whether the object has crashed.
    pub fn object_crashed(&self, obj: ObjectId) -> bool {
        self.crashed.contains(&obj)
    }

    /// Whether the client has crashed.
    pub fn client_crashed(&self, client: ClientId) -> bool {
        self.clients[client.0].crashed
    }

    /// Read access to a base object's protocol state (for assertions and
    /// adversaries; a real client could not do this without an RMW).
    pub fn object_state(&self, obj: ObjectId) -> &S {
        &self.objects[obj.0]
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
            RmwPhase::Triggered(_) if !self.object_crashed(rt.object) => {
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

    /// The parameters of in-flight RMW `id`, if it has not taken effect
    /// yet — what a protocol handed its object, for tests that check how
    /// a round's RMWs share their payload.
    pub fn triggered_params(&self, id: RmwId) -> Option<&S::Rmw> {
        let idx = self.position(id).ok()?;
        match &self.rmws[idx].phase {
            RmwPhase::Triggered(rmw) => Some(rmw),
            RmwPhase::Applied(_) => None,
        }
    }

    /// Events currently enabled: applies on live objects, deliveries to
    /// live clients, in trigger order.
    pub fn enabled_events(&self) -> Vec<SimEvent> {
        self.rmws.iter().filter_map(|rt| self.enabled(rt)).collect()
    }

    /// Lets a quiescent register rest in place; returns whether it did
    /// (`false` unless [`Simulation::is_quiescent`]).
    ///
    /// A resting register keeps every object state (crashes included),
    /// its history, its peaks and its time and id cursors, so the next
    /// operation continues exactly where the last one ended. It gives back
    /// the heap that only a running operation needs: the idle client
    /// automata are dropped (their bits leave the running cost; the next
    /// invocation adds a fresh client, and any client may read or write),
    /// the in-flight table and the record buffers shrink to what they hold,
    /// and each object state is re-fitted by a clone, which sizes its
    /// containers to their contents.
    pub fn rest(&mut self) -> bool
    where
        S: Clone,
    {
        if !self.is_quiescent() {
            return false;
        }
        let client_bits: u64 = self.clients.iter().map(|c| c.logic.stored_bits()).sum();
        self.cost.client_bits -= client_bits;
        self.clients = Vec::new();
        self.rmws = VecDeque::new();
        self.records.shrink_to_fit();
        self.retained.shrink_to_fit();
        for state in &mut self.objects {
            *state = state.clone();
        }
        true
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
            cost.object_bits += o.block_bits();
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
            out.push((Component::Object(ObjectId(i)), o.blocks()));
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
        self.storage_series.as_deref().unwrap_or_default()
    }

    /// Folds the running cost into the peak trackers (and the sampled
    /// series); called after every action. The peaks are raised field by
    /// field, where the cost is already in registers.
    fn note_storage(&mut self) {
        let cost = &self.cost;
        let peak = &mut self.peak_cost;
        peak.object_bits = peak.object_bits.max(cost.object_bits);
        peak.client_bits = peak.client_bits.max(cost.client_bits);
        peak.inflight_param_bits = peak.inflight_param_bits.max(cost.inflight_param_bits);
        peak.inflight_resp_bits = peak.inflight_resp_bits.max(cost.inflight_resp_bits);
        let total = cost.total();
        self.peak_total_bits = self.peak_total_bits.max(total);
        if let Some(series) = &mut self.storage_series {
            series.push((self.time, total));
        }
    }
}
