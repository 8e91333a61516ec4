//! History compaction and snapshot/restore semantics of the simulator:
//! op ids stay stable across compaction, the observable frontier is
//! retained, and a quiescent register survives an evict/rematerialize
//! round-trip with its history intact.

use rsb_coding::Value;
use rsb_fpsm::{
    run_to_completion, BlockInstance, ClientId, ClientLogic, Effects, ObjectId, ObjectState, OpId,
    OpRequest, OpResult, Payload, RmwId, Simulation,
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

#[derive(Debug)]
struct Client;

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
            Resp::Data(d) => eff.complete(OpResult::Read(
                d.map_or_else(|| Value::zeroed(8), |(_, v)| v),
            )),
        }
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
    let c = sim.add_client(Client);
    for i in 0..6u64 {
        run_op(&mut sim, c, OpRequest::Write(Value::seeded(i + 1, 8)));
        run_op(&mut sim, c, OpRequest::Read);
    }
    assert_eq!(sim.live_records(), 12);
    let dropped = sim.compact_history();
    // Everything is settled except the frontier: the last write is the
    // only record a future read may still return.
    assert_eq!(dropped, 11);
    assert_eq!(sim.dropped_records(), 11);
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
    let c = sim.add_client(Client);
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
    let c1 = sim.add_client(Client);
    let c2 = sim.add_client(Client);
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
fn snapshot_restore_roundtrip_preserves_value_and_history() {
    let mut sim = new_sim();
    let c = sim.add_client(Client);
    run_op(&mut sim, c, OpRequest::Write(Value::seeded(9, 8)));
    run_op(&mut sim, c, OpRequest::Read);
    sim.compact_history();
    let time_before = sim.time();
    let cost_before = sim.storage_cost();
    let peak_before = sim.peak_storage_bits();
    let snap = sim.snapshot().expect("quiescent register snapshots");
    assert_eq!(snap.records().len(), 1);
    assert_eq!(snap.record_count(), 1);
    // The cached-at-snapshot-time cost equals the live measurement (the
    // snapshot is immutable, so the cache can never go stale), and the
    // register's observed peak rides along for aggregate metrics.
    assert_eq!(snap.storage_bits(), cost_before.object_bits);
    assert_eq!(snap.peak_bits(), peak_before);
    drop(sim);

    let mut sim = Simulation::restore(snap);
    assert!(sim.is_quiescent());
    assert_eq!(sim.storage_cost(), cost_before);
    let c = sim.add_client(Client);
    let op = run_op(&mut sim, c, OpRequest::Read);
    // Ids and time continue the original history, so the frontier write
    // still precedes the new read and the value is the restored one.
    assert_eq!(op, OpId(2));
    assert_eq!(
        sim.op_record(op).result,
        Some(OpResult::Read(Value::seeded(9, 8)))
    );
    let full = sim.full_history();
    assert_eq!(full.len(), 2);
    let frontier = &full[0];
    assert!(frontier.returned_at.unwrap() <= time_before);
    assert!(full[1].invoked_at > time_before);
}

#[test]
fn snapshot_refused_while_work_is_in_flight() {
    let mut sim = new_sim();
    let c = sim.add_client(Client);
    sim.invoke(c, OpRequest::Write(Value::seeded(1, 8)))
        .unwrap();
    assert!(sim.snapshot().is_none());
    assert!(run_to_completion(&mut sim, 100));
    assert!(sim.snapshot().is_some());
}

#[test]
fn snapshot_restore_keeps_crash_flags() {
    let mut sim: Simulation<Cell, Client> = Simulation::new(4, |_| Cell::default());
    sim.crash_object(ObjectId(1));
    sim.crash_object(ObjectId(3));
    let sim = Simulation::<Cell, Client>::restore(sim.snapshot().unwrap());
    let crashed: Vec<bool> = (0..4).map(|i| sim.object_crashed(ObjectId(i))).collect();
    assert_eq!(crashed, [false, true, false, true]);
}
