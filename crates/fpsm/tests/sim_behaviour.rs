//! Behavioural tests of the simulation substrate using a miniature
//! majority-replication protocol defined in-test.

use rsb_coding::Value;
use rsb_fpsm::{
    run, run_to_completion, run_until, BlockInstance, ClientId, ClientLogic, DeliveryChoice,
    Effects, FairScheduler, ObjectId, ObjectState, OpId, OpRecord, OpRequest, OpResult, Payload,
    RandomScheduler, RmwId, Scratch, ScriptedScheduler, SimEvent, Simulation, StorageCost,
};
use std::collections::HashSet;

/// Base object: stores one tagged full copy of a value.
#[derive(Debug, Clone, Default)]
struct Store {
    held: Option<(OpId, Value)>,
}

#[derive(Debug, Clone)]
enum Rmw {
    Put { op: OpId, value: Value },
    Get,
}

#[derive(Debug, Clone)]
enum Resp {
    Ack,
    Data(Option<(OpId, Value)>),
}

impl Payload for Store {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.held
            .as_ref()
            .map(|(op, v)| BlockInstance::new(*op, 0, v.size_bits()))
            .into_iter()
            .collect()
    }
}

impl Payload for Rmw {
    fn blocks(&self) -> Vec<BlockInstance> {
        match self {
            Rmw::Put { op, value } => vec![BlockInstance::new(*op, 0, value.size_bits())],
            Rmw::Get => Vec::new(),
        }
    }
}

impl Payload for Resp {
    fn blocks(&self) -> Vec<BlockInstance> {
        match self {
            Resp::Ack => Vec::new(),
            Resp::Data(d) => d
                .as_ref()
                .map(|(op, v)| BlockInstance::new(*op, 0, v.size_bits()))
                .into_iter()
                .collect(),
        }
    }
}

impl ObjectState for Store {
    type Rmw = Rmw;
    type Resp = Resp;

    fn apply(&mut self, _client: ClientId, rmw: &Rmw) -> Resp {
        match rmw {
            Rmw::Put { op, value } => {
                self.held = Some((*op, value.clone()));
                Resp::Ack
            }
            Rmw::Get => Resp::Data(self.held.clone()),
        }
    }
}

/// One in-progress operation of [`Client`].
#[derive(Debug)]
struct Pending {
    op: OpId,
    mine: HashSet<RmwId>,
    acks: usize,
    best: Option<(OpId, Value)>,
}

/// Client: writes put to all objects and await a majority of acks; reads
/// get from all objects and return the value of the newest op seen.
#[derive(Debug)]
struct Client {
    n: usize,
    current: Option<Pending>,
}

impl Client {
    fn new(n: usize) -> Self {
        Client { n, current: None }
    }
    fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

impl ClientLogic for Client {
    type State = Store;

    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<Store>) {
        let mut mine = HashSet::new();
        for i in 0..self.n {
            let rmw = match &req {
                OpRequest::Write(v) => Rmw::Put {
                    op,
                    value: v.clone(),
                },
                OpRequest::Read => Rmw::Get,
            };
            mine.insert(eff.trigger(ObjectId(i), rmw));
        }
        self.current = Some(Pending {
            op,
            mine,
            acks: 0,
            best: None,
        });
    }

    fn on_response(&mut self, op: OpId, rmw: RmwId, resp: Resp, eff: &mut Effects<Store>) {
        let majority = self.majority();
        let Some(cur) = self.current.as_mut() else {
            return; // stale response after completion
        };
        if cur.op != op || !cur.mine.contains(&rmw) {
            return; // stale response from a previous operation
        }
        cur.acks += 1;
        if let Resp::Data(Some((src, v))) = resp {
            if cur.best.as_ref().is_none_or(|(b, _)| src > *b) {
                cur.best = Some((src, v));
            }
        }
        if cur.acks >= majority {
            let result = match cur.best.take() {
                Some((_, v)) => OpResult::Read(v),
                None => OpResult::Write, // writes and empty reads
            };
            eff.complete(result);
            self.current = None;
        }
    }
}

fn new_sim(n: usize, clients: usize) -> (Simulation<Store, Client>, Vec<ClientId>) {
    let mut sim = Simulation::new(n, |_| Store::default());
    let ids = (0..clients)
        .map(|_| sim.add_client(Client::new(n)))
        .collect();
    (sim, ids)
}

#[test]
fn write_then_read_roundtrip_fair() {
    let (mut sim, ids) = new_sim(5, 2);
    let v = Value::seeded(42, 100);
    sim.invoke(ids[0], OpRequest::Write(v.clone())).unwrap();
    assert!(run_to_completion(&mut sim, 1_000));
    sim.invoke(ids[1], OpRequest::Read).unwrap();
    assert!(run_to_completion(&mut sim, 1_000));
    let rec = sim.history().last().unwrap();
    assert_eq!(rec.result, Some(OpResult::Read(v)));
}

#[test]
fn random_scheduler_also_completes_and_is_deterministic() {
    for seed in [1u64, 2, 3] {
        let histories: Vec<Vec<(u64, Option<u64>)>> = (0..2)
            .map(|_| {
                let (mut sim, ids) = new_sim(5, 3);
                for (i, &c) in ids.iter().enumerate() {
                    sim.invoke(c, OpRequest::Write(Value::seeded(i as u64, 50)))
                        .unwrap();
                }
                let mut sched = RandomScheduler::new(seed);
                run_until(&mut sim, &mut sched, 10_000, |s| {
                    s.history().iter().all(rsb_fpsm::OpRecord::is_complete)
                });
                sim.history()
                    .iter()
                    .map(|r| (r.invoked_at, r.returned_at))
                    .collect()
            })
            .collect();
        assert_eq!(histories[0], histories[1], "seed {seed} not deterministic");
        assert!(histories[0].iter().all(|(_, ret)| ret.is_some()));
    }
}

#[test]
fn completes_with_f_object_crashes() {
    let (mut sim, ids) = new_sim(5, 1);
    // f = 2 for n = 5 (majority = 3).
    sim.crash_object(ObjectId(0));
    sim.crash_object(ObjectId(4));
    sim.invoke(ids[0], OpRequest::Write(Value::seeded(7, 64)))
        .unwrap();
    assert!(run_to_completion(&mut sim, 1_000));
    assert!(sim.object_crashed(ObjectId(0)));
    assert!(!sim.object_crashed(ObjectId(1)));
}

#[test]
fn blocks_forever_with_majority_crashed_but_no_panic() {
    let (mut sim, ids) = new_sim(3, 1);
    sim.crash_object(ObjectId(0));
    sim.crash_object(ObjectId(1));
    sim.invoke(ids[0], OpRequest::Write(Value::seeded(7, 64)))
        .unwrap();
    assert!(!run_to_completion(&mut sim, 1_000));
    assert!(!sim.history()[0].is_complete());
}

#[test]
fn crashed_client_receives_nothing() {
    let (mut sim, ids) = new_sim(3, 1);
    sim.invoke(ids[0], OpRequest::Write(Value::seeded(1, 32)))
        .unwrap();
    sim.crash_client(ids[0]);
    // Applies are still enabled; deliveries are not.
    let mut fair = FairScheduler::new();
    run(&mut sim, &mut fair, 1_000);
    assert!(!sim.history()[0].is_complete());
    assert!(sim
        .enabled_events()
        .iter()
        .all(|e| !matches!(e, SimEvent::Deliver(_))));
}

#[test]
fn storage_accounting_tracks_all_phases() {
    let (mut sim, ids) = new_sim(3, 1);
    let v = Value::seeded(3, 128); // 1024 bits
    sim.invoke(ids[0], OpRequest::Write(v)).unwrap();

    // All three RMWs triggered, none applied: 3 × 1024 bits in params.
    let cost = sim.storage_cost();
    assert_eq!(cost.inflight_param_bits, 3 * 1024);
    assert_eq!(cost.object_bits, 0);

    // Apply one: its bits move into the object; ack response carries none.
    let first = sim.enabled_events()[0];
    sim.step(first).unwrap();
    let cost = sim.storage_cost();
    assert_eq!(cost.inflight_param_bits, 2 * 1024);
    assert_eq!(cost.object_bits, 1024);
    assert_eq!(cost.inflight_resp_bits, 0);

    assert!(run_to_completion(&mut sim, 1_000));
    // Drain the straggler RMW (the write returned at a majority).
    let mut fair = FairScheduler::new();
    run(&mut sim, &mut fair, 1_000);
    let cost = sim.storage_cost();
    assert_eq!(cost.object_bits, 3 * 1024);
    assert_eq!(cost.inflight_param_bits, 0);
    assert!(sim.peak_storage_bits() >= 3 * 1024);
}

#[test]
fn read_response_bits_are_charged_to_object_side() {
    let (mut sim, ids) = new_sim(1, 2);
    let v = Value::seeded(9, 64); // 512 bits
    sim.invoke(ids[0], OpRequest::Write(v)).unwrap();
    assert!(run_to_completion(&mut sim, 100));
    sim.invoke(ids[1], OpRequest::Read).unwrap();
    // Apply the read's Get, but do not deliver: the response (with data)
    // is in flight from the object.
    let ev = sim.enabled_events()[0];
    sim.step(ev).unwrap();
    let cost = sim.storage_cost();
    assert_eq!(cost.inflight_resp_bits, 512);
    assert_eq!(cost.object_bits, 512);
}

#[test]
fn well_formedness_enforced() {
    let (mut sim, ids) = new_sim(1, 1);
    sim.invoke(ids[0], OpRequest::Read).unwrap();
    let err = sim.invoke(ids[0], OpRequest::Read).unwrap_err();
    assert!(matches!(err, rsb_fpsm::SimError::ClientBusy(_)));
    sim.crash_client(ids[0]);
    let err = sim.invoke(ids[0], OpRequest::Read).unwrap_err();
    assert!(matches!(err, rsb_fpsm::SimError::ClientCrashed(_)));
}

#[test]
fn invalid_events_are_rejected() {
    let (mut sim, ids) = new_sim(1, 1);
    assert!(sim.step(SimEvent::Apply(RmwId(99))).is_err());
    sim.invoke(ids[0], OpRequest::Read).unwrap();
    let ev = sim.enabled_events()[0];
    let SimEvent::Apply(id) = ev else { panic!() };
    assert!(sim.step(SimEvent::Deliver(id)).is_err()); // not applied yet
    sim.step(SimEvent::Apply(id)).unwrap();
    assert!(sim.step(SimEvent::Apply(id)).is_err()); // already applied
}

#[test]
fn inflight_info_and_time_advance() {
    let (mut sim, ids) = new_sim(2, 1);
    let t0 = sim.time();
    sim.invoke(ids[0], OpRequest::Read).unwrap();
    assert!(sim.time() > t0);
    let infos = sim.inflight_rmws();
    assert_eq!(infos.len(), 2);
    assert!(infos.iter().all(|i| !i.applied && i.client == ids[0]));
    assert!(infos[0].rmw < infos[1].rmw);
    assert_eq!(sim.outstanding_ops().len(), 1);
    assert_eq!(sim.outstanding_op(ids[0]), Some(OpId(0)));
}

#[test]
fn storage_series_sampling() {
    let (mut sim, ids) = new_sim(2, 1);
    sim.enable_storage_sampling();
    sim.invoke(ids[0], OpRequest::Write(Value::seeded(0, 16)))
        .unwrap();
    run_to_completion(&mut sim, 100);
    let series = sim.storage_series();
    assert!(series.len() >= 3);
    // Times are nondecreasing.
    assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn scripted_scheduler_replays_an_exact_interleaving() {
    // One write over 3 objects: apply/deliver the first two RMWs in a
    // hand-picked order, by index and by exact event, then stop early.
    let (mut sim, ids) = new_sim(3, 1);
    sim.invoke(ids[0], OpRequest::Write(Value::seeded(7, 16)))
        .unwrap();
    let rmws: Vec<RmwId> = sim.inflight_rmws().iter().map(|i| i.rmw).collect();
    assert_eq!(rmws.len(), 3);
    let mut sched = ScriptedScheduler::new(vec![
        // Apply the *last* triggered RMW first (index into enabled order),
        DeliveryChoice::Index(2),
        // then force two exact events out of trigger order.
        DeliveryChoice::Event(SimEvent::Apply(rmws[1])),
        DeliveryChoice::Event(SimEvent::Deliver(rmws[1])),
        DeliveryChoice::Event(SimEvent::Deliver(rmws[2])),
    ]);
    let outcome = run(&mut sim, &mut sched, 100);
    assert!(outcome.is_quiescent(), "script exhausted stops the run");
    assert_eq!(sched.remaining(), 0, "every choice resolved");
    // Two of three acks delivered: the majority write completed, with
    // rmws[0] still un-applied.
    assert!(sim.history()[0].is_complete());
    assert!(sim
        .inflight_rmws()
        .iter()
        .any(|i| i.rmw == rmws[0] && !i.applied));

    // An unresolvable choice (event no longer enabled) stops the run and
    // leaves the script short.
    let mut stuck = ScriptedScheduler::new(vec![DeliveryChoice::Event(SimEvent::Apply(rmws[1]))]);
    let outcome = run(&mut sim, &mut stuck, 100);
    assert!(outcome.is_quiescent());
    assert_eq!(stuck.remaining(), 1, "unresolvable choice is not consumed");
}

#[test]
fn lent_scratch_changes_no_history_and_stays_while_rmws_are_in_flight() {
    // Runs every enabled event, as a host draining one register does.
    fn drain(sim: &mut Simulation<Store, Client>) {
        while let Some(ev) = sim.first_enabled_event() {
            sim.step(ev).unwrap();
        }
    }
    // Runs one script of concurrent writes and reads, optionally lending
    // each burst a scratch shared with another register, and returns what
    // the checkers and the cost model see.
    fn script(mut scratch: Option<&mut Scratch<Store>>) -> (Vec<OpRecord>, StorageCost, u64) {
        let (mut sim, ids) = new_sim(5, 2);
        let (mut other, other_ids) = new_sim(3, 1);
        for round in 0..4u64 {
            if let Some(s) = scratch.as_deref_mut() {
                assert!(sim.swap_scratch(s), "round {round}: both sides are empty");
            }
            sim.invoke(ids[0], OpRequest::Write(Value::seeded(round, 64)))
                .unwrap();
            sim.invoke(ids[1], OpRequest::Read).unwrap();
            drain(&mut sim);
            if let Some(s) = scratch.as_deref_mut() {
                assert!(sim.swap_scratch(s), "round {round}: the drain settled");
                // The next register borrows the same buffers.
                assert!(other.swap_scratch(s));
                other.invoke(other_ids[0], OpRequest::Read).unwrap();
                drain(&mut other);
                assert!(other.swap_scratch(s));
            }
        }
        (
            sim.full_history(),
            sim.peak_storage_cost(),
            sim.peak_storage_bits(),
        )
    }
    let mut scratch = Scratch::default();
    assert_eq!(script(None), script(Some(&mut scratch)));

    // With an RMW in flight neither side gives its buffers up.
    let (mut sim, ids) = new_sim(3, 1);
    sim.invoke(ids[0], OpRequest::Read).unwrap();
    assert!(!sim.swap_scratch(&mut scratch));
    drain(&mut sim);
    assert!(sim.swap_scratch(&mut scratch));
}
