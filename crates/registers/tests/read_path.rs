//! A value crosses the register without being copied.
//!
//! A fault-free read hands back the very buffer the writer handed in:
//! replicas are whole-buffer windows, systematic pieces are windows of the
//! value, and the decoder rejoins them. When systematic piece 0 is out of
//! reach — its object crashed, or merely lagging — the read still returns
//! the value, decoded from parity into a buffer of its own.

use rsb_coding::Value;
use rsb_fpsm::{
    run_to_completion, ClientId, ObjectId, OpId, OpRequest, OpResult, SimEvent, Simulation,
};
use rsb_registers::{Abd, AbdAtomic, Adaptive, Coded, RegisterConfig, RegisterProtocol, Safe};

fn abd() -> Abd {
    Abd::new(RegisterConfig::new(3, 1, 1, 256).unwrap())
}

fn coded() -> Coded {
    Coded::new(RegisterConfig::new(7, 1, 4, 64 * 1024).unwrap())
}

fn adaptive() -> Adaptive {
    Adaptive::new(RegisterConfig::new(6, 2, 2, 1024).unwrap())
}

fn read_value<P: RegisterProtocol>(sim: &Simulation<P::Object, P::Client>, op: OpId) -> Value {
    match &sim.op_record(op).result {
        Some(OpResult::Read(v)) => v.clone(),
        other => panic!("{op} is not a completed read: {other:?}"),
    }
}

/// Runs `req` to completion under the fair schedule, except that RMWs on
/// `held` never take effect — the object is slow, not crashed.
fn run_holding<P: RegisterProtocol>(
    sim: &mut Simulation<P::Object, P::Client>,
    client: ClientId,
    req: OpRequest,
    held: ObjectId,
) -> OpId {
    let op = sim.invoke(client, req).expect("the client is idle");
    while !sim.op_record(op).is_complete() {
        let on_held: Vec<_> = sim
            .inflight_rmws()
            .into_iter()
            .filter(|info| info.object == held)
            .map(|info| SimEvent::Apply(info.rmw))
            .collect();
        let event = sim
            .enabled_events()
            .into_iter()
            .find(|ev| !on_held.contains(ev))
            .expect("a quorum without the held object completes the operation");
        sim.step(event).expect("an enabled event applies");
    }
    op
}

fn write_then_read<P: RegisterProtocol>(proto: &P, written: &Value) -> Value {
    let mut sim = proto.new_sim();
    let client = proto.add_client(&mut sim);
    sim.invoke(client, OpRequest::Write(written.clone()))
        .unwrap();
    assert!(run_to_completion(&mut sim, 10_000));
    let read = sim.invoke(client, OpRequest::Read).unwrap();
    assert!(run_to_completion(&mut sim, 10_000));
    read_value::<P>(&sim, read)
}

fn assert_fault_free_read_shares_the_written_buffer<P: RegisterProtocol>(proto: &P) {
    let written = Value::seeded(7, proto.config().value_len);
    let read = write_then_read(proto, &written);
    assert_eq!(read, written, "{}", proto.name());
    assert_eq!(
        read.as_bytes().as_ptr(),
        written.as_bytes().as_ptr(),
        "{}: a fault-free read returns the written buffer, not a copy",
        proto.name()
    );
}

#[test]
fn a_fault_free_read_returns_the_written_buffer() {
    assert_fault_free_read_shares_the_written_buffer(&abd());
    assert_fault_free_read_shares_the_written_buffer(&AbdAtomic::new(*abd().config()));
    assert_fault_free_read_shares_the_written_buffer(&Safe::new(*coded().config()));
    assert_fault_free_read_shares_the_written_buffer(&coded());
    assert_fault_free_read_shares_the_written_buffer(&adaptive());
}

#[test]
fn a_value_k_does_not_divide_is_read_back_equal() {
    // 1 KiB + 1 in 4 shards: the tail shard is padded in its own buffer,
    // so there is nothing to rejoin and the read assembles a copy.
    let proto = Coded::new(RegisterConfig::new(7, 1, 4, 1025).unwrap());
    let written = Value::seeded(8, 1025);
    let read = write_then_read(&proto, &written);
    assert_eq!(read, written);
    assert_ne!(read.as_bytes().as_ptr(), written.as_bytes().as_ptr());
}

/// Writes, crashes object 0 — the holder of systematic piece 0 — reads.
fn read_after_crashing_object_0<P: RegisterProtocol>(proto: &P, written: &Value) -> Value {
    let mut sim = proto.new_sim();
    let client = proto.add_client(&mut sim);
    sim.invoke(client, OpRequest::Write(written.clone()))
        .unwrap();
    assert!(run_to_completion(&mut sim, 10_000));
    sim.crash_object(ObjectId(0));
    let read = sim.invoke(client, OpRequest::Read).unwrap();
    assert!(run_to_completion(&mut sim, 10_000));
    read_value::<P>(&sim, read)
}

fn assert_reads_through_parity_when_object_0_crashed<P: RegisterProtocol>(proto: &P) {
    let written = Value::seeded(9, proto.config().value_len);
    let read = read_after_crashing_object_0(proto, &written);
    assert_eq!(read, written, "{}", proto.name());
    assert_ne!(
        read.as_bytes().as_ptr(),
        written.as_bytes().as_ptr(),
        "{}: without piece 0 the value is decoded, not rejoined",
        proto.name()
    );
}

#[test]
fn a_read_without_systematic_piece_0_decodes_from_parity_after_a_crash() {
    assert_reads_through_parity_when_object_0_crashed(&coded());
    assert_reads_through_parity_when_object_0_crashed(&adaptive());
    assert_reads_through_parity_when_object_0_crashed(&Safe::new(*coded().config()));
}

fn assert_reads_through_parity_when_object_0_lags<P: RegisterProtocol>(proto: &P) {
    let written = Value::seeded(10, proto.config().value_len);
    let mut sim = proto.new_sim();
    let writer = proto.add_client(&mut sim);
    let reader = proto.add_client(&mut sim);
    let held = ObjectId(0);
    run_holding::<P>(&mut sim, writer, OpRequest::Write(written.clone()), held);
    let read = run_holding::<P>(&mut sim, reader, OpRequest::Read, held);
    assert!(!sim.object_crashed(held));
    let read = read_value::<P>(&sim, read);
    assert_eq!(read, written, "{}", proto.name());
    assert_ne!(
        read.as_bytes().as_ptr(),
        written.as_bytes().as_ptr(),
        "{}: without piece 0 the value is decoded, not rejoined",
        proto.name()
    );
}

#[test]
fn a_read_without_systematic_piece_0_decodes_from_parity_when_its_object_lags() {
    assert_reads_through_parity_when_object_0_lags(&coded());
    assert_reads_through_parity_when_object_0_lags(&adaptive());
}

#[test]
fn a_replica_survives_a_crashed_object_without_a_copy() {
    // Replication has no parity path: any surviving replica is the buffer.
    let written = Value::seeded(11, 256);
    let read = read_after_crashing_object_0(&abd(), &written);
    assert_eq!(read.as_bytes().as_ptr(), written.as_bytes().as_ptr());
}
