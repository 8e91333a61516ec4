//! History compaction and resting in the simulator: op ids stay stable
//! across compaction, the observable frontier is retained, and a quiescent
//! register rests in place with its objects, history, peaks and cursors
//! intact.

use rsb_coding::Value;
use rsb_fpsm::{
    run_to_completion, BlockInstance, ClientId, ClientLogic, Effects, ObjectId, ObjectState, OpId,
    OpRequest, OpResult, Payload, RmwId, SimEvent, Simulation,
};

/// A single-object register: `Put` stores a tagged copy, `Get` returns it.
#[derive(Debug, Clone, Default)]
struct Cell {
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

impl Payload for Cell {
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

impl ObjectState for Cell {
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

/// A client that keeps the last value it read, so an idle client holds
/// bits the running cost charges.
#[derive(Debug, Default)]
struct Client {
    last_read: Option<(OpId, Value)>,
}

impl ClientLogic for Client {
    type State = Cell;

    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<Cell>) {
        match req {
            OpRequest::Write(value) => eff.trigger(ObjectId(0), Rmw::Put { op, value }),
            OpRequest::Read => eff.trigger(ObjectId(0), Rmw::Get),
        };
    }

    fn on_response(&mut self, _op: OpId, _rmw: RmwId, resp: Resp, eff: &mut Effects<Cell>) {
        match resp {
            Resp::Ack => eff.complete(OpResult::Write),
            Resp::Data(d) => {
                self.last_read.clone_from(&d);
                eff.complete(OpResult::Read(
                    d.map_or_else(|| Value::zeroed(8), |(_, v)| v),
                ));
            }
        }
    }

    fn stored_blocks(&self) -> Vec<BlockInstance> {
        self.last_read
            .as_ref()
            .map(|(op, v)| BlockInstance::new(*op, 0, v.size_bits()))
            .into_iter()
            .collect()
    }
}

fn new_sim() -> Simulation<Cell, Client> {
    Simulation::new(1, |_| Cell::default())
}

fn run_op(sim: &mut Simulation<Cell, Client>, client: ClientId, req: OpRequest) -> OpId {
    let op = sim.invoke(client, req).unwrap();
    assert!(run_to_completion(sim, 100));
    op
}

#[test]
fn compaction_drops_settled_prefix_and_keeps_frontier() {
    let mut sim = new_sim();
    let c = sim.add_client(Client::default());
    for i in 0..6u64 {
        run_op(&mut sim, c, OpRequest::Write(Value::seeded(i + 1, 8)));
        run_op(&mut sim, c, OpRequest::Read);
    }
    assert_eq!(sim.live_records(), 12);
    let dropped = sim.compact_history();
    // Everything is settled except the frontier: the last write is the
    // only record a future read may still return.
    assert_eq!(dropped, 11);
    assert_eq!(sim.live_records(), 1);
    let frontier = sim.retained_history();
    assert_eq!(frontier.len(), 1);
    assert_eq!(
        frontier[0].request,
        OpRequest::Write(Value::seeded(6, 8)),
        "the retained record is the last write"
    );
    // Idempotent when nothing new settled.
    assert_eq!(sim.compact_history(), 0);
}

#[test]
fn op_ids_and_lookups_stay_stable_across_compaction() {
    let mut sim = new_sim();
    let c = sim.add_client(Client::default());
    for i in 0..5u64 {
        run_op(&mut sim, c, OpRequest::Write(Value::seeded(i + 1, 8)));
    }
    sim.compact_history();
    // New ops continue the global id sequence and are indexable.
    let op = run_op(&mut sim, c, OpRequest::Read);
    assert_eq!(op, OpId(5));
    let rec = sim.op_record(op);
    assert_eq!(rec.result, Some(OpResult::Read(Value::seeded(5, 8))));
    // The checkable history is frontier + tail, in invocation order.
    let full = sim.full_history();
    assert_eq!(full.len(), 2);
    assert!(full[0].invoked_at < full[1].invoked_at);
}

#[test]
fn incomplete_operations_block_the_prefix() {
    let mut sim = new_sim();
    let c1 = sim.add_client(Client::default());
    let c2 = sim.add_client(Client::default());
    run_op(&mut sim, c1, OpRequest::Write(Value::seeded(1, 8)));
    // c2's write stays in flight: nothing may be dropped past it.
    sim.invoke(c2, OpRequest::Write(Value::seeded(2, 8)))
        .unwrap();
    assert!(!sim.is_quiescent());
    let before = sim.live_records();
    sim.compact_history();
    // The settled first write is still the frontier (no later completed
    // write supersedes it), and the incomplete one cannot be touched.
    assert_eq!(sim.live_records(), before);
    assert!(run_to_completion(&mut sim, 100));
    assert!(sim.is_quiescent());
}

#[test]
fn rest_keeps_value_history_peaks_and_cursors() {
    let mut sim = new_sim();
    let c = sim.add_client(Client::default());
    run_op(&mut sim, c, OpRequest::Write(Value::seeded(9, 8)));
    run_op(&mut sim, c, OpRequest::Read);
    run_op(&mut sim, c, OpRequest::Write(Value::seeded(10, 8)));
    let before = sim.storage_cost();
    assert!(before.client_bits > 0, "the idle reader keeps its value");
    let history = sim.full_history();
    let time = sim.time();
    let peak = (sim.peak_storage_bits(), sim.peak_storage_cost());

    assert!(sim.rest());
    assert_eq!(sim.client_count(), 0, "idle clients are dropped");
    // `storage_cost` checks the running cost against a full recount in
    // debug builds: the dropped clients' bits left it.
    let after = sim.storage_cost();
    assert_eq!(after.client_bits, 0);
    assert_eq!(after.object_bits, before.object_bits);
    assert_eq!(sim.full_history(), history, "records survive a rest");
    assert_eq!(sim.time(), time);
    assert_eq!(
        (sim.peak_storage_bits(), sim.peak_storage_cost()),
        peak,
        "peaks survive a rest"
    );
    assert!(sim.rest(), "a resting register may rest again");

    // A fresh client continues the op-id and time lines, and reads the
    // value the register rested with.
    let c = sim.add_client(Client::default());
    assert_eq!(c, ClientId(0));
    let op = run_op(&mut sim, c, OpRequest::Read);
    assert_eq!(op, OpId(3));
    let rec = sim.op_record(op);
    assert_eq!(rec.result, Some(OpResult::Read(Value::seeded(10, 8))));
    assert!(rec.invoked_at > time);
}

#[test]
fn rest_keeps_only_the_compacted_history() {
    let mut sim = new_sim();
    let c = sim.add_client(Client::default());
    for i in 0..6u64 {
        run_op(&mut sim, c, OpRequest::Write(Value::seeded(i + 1, 8)));
        run_op(&mut sim, c, OpRequest::Read);
    }
    sim.compact_history();
    assert!(sim.rest());
    assert_eq!(sim.history().len(), 0);
    assert_eq!(sim.retained_history().len(), 1, "the frontier write stays");
    let c = sim.add_client(Client::default());
    assert_eq!(run_op(&mut sim, c, OpRequest::Read), OpId(12));
}

#[test]
fn rest_refused_while_an_operation_is_open() {
    let mut sim = new_sim();
    let c = sim.add_client(Client::default());
    let op = sim
        .invoke(c, OpRequest::Write(Value::seeded(1, 8)))
        .unwrap();
    // Triggered, not yet applied.
    assert!(!sim.rest());
    let rmw = sim.inflight_rmws()[0].rmw;
    sim.step(SimEvent::Apply(rmw)).unwrap();
    // Applied, its response not yet delivered: the write is still open.
    assert!(!sim.rest());
    assert_eq!(sim.client_count(), 1, "a refused rest changes nothing");
    sim.step(SimEvent::Deliver(rmw)).unwrap();
    assert!(sim.op_record(op).is_complete());
    assert!(sim.rest());
    assert_eq!(sim.client_count(), 0);
}

#[test]
fn rest_refused_while_a_crashed_clients_operation_is_open() {
    let mut sim = new_sim();
    let c = sim.add_client(Client::default());
    sim.invoke(c, OpRequest::Write(Value::seeded(1, 8)))
        .unwrap();
    sim.crash_client(c);
    sim.drain();
    assert!(!sim.rest(), "the response can never be delivered");
}

#[test]
fn rest_keeps_crashed_objects() {
    let mut sim: Simulation<Cell, Client> = Simulation::new(4, |_| Cell::default());
    sim.crash_object(ObjectId(1));
    sim.crash_object(ObjectId(3));
    sim.crash_object(ObjectId(3));
    assert!(sim.rest());
    let crashed: Vec<bool> = (0..4).map(|i| sim.object_crashed(ObjectId(i))).collect();
    assert_eq!(crashed, [false, true, false, true]);
}
