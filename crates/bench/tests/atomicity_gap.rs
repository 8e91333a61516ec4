//! The regularity/atomicity gap, made executable: the paper (Section 2)
//! emphasizes that its safety condition — regularity — is weaker than
//! atomicity. Plain ABD without reader write-back is strongly regular
//! but admits a new/old read inversion; the write-back variant
//! (`AbdAtomic`) eliminates it. Both facts are machine-checked here on
//! the classic inversion schedule.

use rsb_coding::Value;
use rsb_consistency::{check_atomicity, check_strong_regularity, History};
use rsb_fpsm::{
    run, run_to_completion, ClientLogic, FairScheduler, ObjectId, ObjectState, OpId, OpRequest,
    RmwId, SimEvent, Simulation,
};
use rsb_registers::abd::AbdObject;
use rsb_registers::{Abd, RegisterConfig, RegisterProtocol};
use rsb_workloads::{run_scenario, FailurePlan, Scenario};

/// Applies and delivers every in-flight RMW of `op` targeting `obj`.
fn land_on<S, L>(sim: &mut Simulation<S, L>, op: OpId, obj: ObjectId)
where
    S: ObjectState,
    L: ClientLogic<State = S>,
{
    let ids: Vec<RmwId> = sim
        .inflight_rmws()
        .iter()
        .filter(|i| i.op == op && i.object == obj && !i.applied)
        .map(|i| i.rmw)
        .collect();
    for id in ids {
        sim.step(SimEvent::Apply(id)).unwrap();
        sim.step(SimEvent::Deliver(id)).unwrap();
    }
}

/// Drives the inversion schedule against any protocol sharing ABD's
/// object/RMW shape. Returns the history.
fn inversion_schedule<P>(proto: &P) -> History
where
    P: RegisterProtocol<Object = AbdObject>,
{
    let mut sim = proto.new_sim();
    let w1 = proto.add_client(&mut sim);
    let w2 = proto.add_client(&mut sim);
    let r1 = proto.add_client(&mut sim);
    let r2 = proto.add_client(&mut sim);

    // w1 writes v1 everywhere.
    sim.invoke(w1, OpRequest::Write(Value::seeded(1, 16)))
        .unwrap();
    assert!(run_to_completion(&mut sim, 10_000));
    let mut fair = FairScheduler::new();
    run(&mut sim, &mut fair, 10_000);

    // w2 starts writing v2: land its read-ts round on the quorum
    // {bo0, bo1} — this triggers the Store round — then let the store
    // land ONLY on bo0. (bo2's ReadTs stays pending; applying it later
    // would be a stale no-op.)
    let w2_op = sim
        .invoke(w2, OpRequest::Write(Value::seeded(2, 16)))
        .unwrap();
    land_on(&mut sim, w2_op, ObjectId(0));
    land_on(&mut sim, w2_op, ObjectId(1));
    land_on(&mut sim, w2_op, ObjectId(0)); // Store lands on bo0 only

    // r1 reads via {bo0, bo1}: observes v2.
    let r1_op = sim.invoke(r1, OpRequest::Read).unwrap();
    land_on(&mut sim, r1_op, ObjectId(0));
    land_on(&mut sim, r1_op, ObjectId(1));
    // For the atomic variant this spawns a write-back round; land it on a
    // full quorum so the read can return.
    for i in 0..3 {
        land_on(&mut sim, r1_op, ObjectId(i));
    }
    assert!(
        sim.op_record(r1_op).is_complete(),
        "r1 should have returned"
    );

    // r2 reads via {bo1, bo2}.
    let r2_op = sim.invoke(r2, OpRequest::Read).unwrap();
    land_on(&mut sim, r2_op, ObjectId(1));
    land_on(&mut sim, r2_op, ObjectId(2));
    // Land the atomic variant's write-back round on a full quorum.
    for i in 0..3 {
        land_on(&mut sim, r2_op, ObjectId(i));
    }
    assert!(
        sim.op_record(r2_op).is_complete(),
        "r2 should have returned"
    );

    History::from_fpsm(proto.config().initial_value(), sim.history()).unwrap()
}

#[test]
fn plain_abd_shows_new_old_inversion() {
    let cfg = RegisterConfig::new(3, 1, 1, 16).unwrap();
    let history = inversion_schedule(&Abd::new(cfg));
    // r1 saw the in-flight v2, r2 then saw the old v1.
    let reads: Vec<_> = history.completed_reads().collect();
    assert_eq!(reads.len(), 2);
    assert_eq!(reads[0].read_value, Some(Value::seeded(2, 16)));
    assert_eq!(reads[1].read_value, Some(Value::seeded(1, 16)));
    // Regular — the paper's condition — but NOT atomic.
    check_strong_regularity(&history).unwrap();
    assert!(check_atomicity(&history).is_err());
}

#[test]
fn write_back_restores_atomicity() {
    let cfg = RegisterConfig::new(3, 1, 1, 16).unwrap();
    let history = inversion_schedule(&rsb_registers::AbdAtomic::new(cfg));
    // r1's write-back propagated v2, so r2 sees it too.
    let reads: Vec<_> = history.completed_reads().collect();
    assert_eq!(reads[0].read_value, Some(Value::seeded(2, 16)));
    assert_eq!(reads[1].read_value, Some(Value::seeded(2, 16)));
    check_atomicity(&history).unwrap();
}

#[test]
fn atomic_abd_passes_atomicity_on_random_scenarios() {
    let cfg = RegisterConfig::new(5, 2, 1, 32).unwrap();
    let proto = rsb_registers::AbdAtomic::new(cfg);
    for seed in 0..6u64 {
        let out = run_scenario(&proto, &Scenario::mixed(3, 3, 2, 900 + seed));
        assert!(out.completed, "seed {seed}");
        let history =
            History::from_fpsm(proto.config().initial_value(), out.sim.history()).unwrap();
        check_atomicity(&history).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn atomic_abd_survives_failures() {
    let cfg = RegisterConfig::new(5, 2, 1, 32).unwrap();
    let proto = rsb_registers::AbdAtomic::new(cfg);
    let mut scenario = Scenario::mixed(2, 2, 2, 950);
    scenario.failures = FailurePlan {
        object_crashes: vec![(25, ObjectId(0)), (60, ObjectId(4))],
        client_crashes: vec![],
    };
    let out = run_scenario(&proto, &scenario);
    assert!(out.completed);
    let history = History::from_fpsm(proto.config().initial_value(), out.sim.history()).unwrap();
    check_atomicity(&history).unwrap();
}
