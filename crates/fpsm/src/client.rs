//! Clients: deterministic state machines emulating register operations.

use crate::ids::{ClientId, ObjectId, OpId, RmwId};
use crate::object::ObjectState;
use crate::payload::{BlockInstance, Payload};
use crate::sim::{RmwPhase, RmwRt};
use rsb_coding::Value;
use std::collections::VecDeque;

/// An invocation on the emulated register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRequest {
    /// `write(v)`.
    Write(Value),
    /// `read()`.
    Read,
}

impl OpRequest {
    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, OpRequest::Write(_))
    }

    /// The written value, if a write.
    pub fn written_value(&self) -> Option<&Value> {
        match self {
            OpRequest::Write(v) => Some(v),
            OpRequest::Read => None,
        }
    }
}

/// The return of an emulated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// A write returned ("ok").
    Write,
    /// A read returned this value.
    Read(Value),
}

impl OpResult {
    /// The value returned by a read, if any.
    pub fn read_value(&self) -> Option<&Value> {
        match self {
            OpResult::Read(v) => Some(v),
            OpResult::Write => None,
        }
    }
}

/// Effects a client handler may produce: triggering RMWs and/or completing
/// the outstanding operation.
///
/// RMW ids are assigned eagerly so protocol logic can remember which
/// in-flight RMW belongs to which round. A trigger goes straight into the
/// simulation's in-flight table, which the handler holds for its length;
/// the simulation takes the table back, with the ids, bits and completion
/// the handler left, when it returns.
#[derive(Debug)]
pub struct Effects<S: ObjectState> {
    pub(crate) rmws: VecDeque<RmwRt<S>>,
    pub(crate) next_rmw: u64,
    client: ClientId,
    op: OpId,
    time: u64,
    /// Block bits of the parameters triggered so far.
    pub(crate) param_bits: u64,
    pub(crate) completion: Option<OpResult>,
}

impl<S: ObjectState> Effects<S> {
    /// A handler of `client` for operation `op` at logical `time`, whose
    /// triggers join `rmws` with ids from `next_rmw` on.
    pub(crate) fn new(
        rmws: VecDeque<RmwRt<S>>,
        next_rmw: u64,
        client: ClientId,
        op: OpId,
        time: u64,
    ) -> Self {
        Effects {
            rmws,
            next_rmw,
            client,
            op,
            time,
            param_bits: 0,
            completion: None,
        }
    }

    /// Triggers an RMW on base object `obj`, returning its id.
    pub fn trigger(&mut self, obj: ObjectId, rmw: S::Rmw) -> RmwId {
        let id = RmwId(self.next_rmw);
        self.next_rmw += 1;
        self.param_bits += rmw.block_bits();
        self.rmws.push_back(RmwRt {
            id,
            client: self.client,
            op: self.op,
            object: obj,
            phase: RmwPhase::Triggered(rmw),
            triggered_at: self.time,
        });
        id
    }

    /// Completes the outstanding operation with `result`.
    ///
    /// # Panics
    ///
    /// Panics if called twice within one handler (a protocol bug).
    pub fn complete(&mut self, result: OpResult) {
        assert!(
            self.completion.is_none(),
            "operation completed twice in one handler"
        );
        self.completion = Some(result);
    }
}

/// Protocol logic of one client: a deterministic automaton reacting to
/// operation invocations and RMW responses.
///
/// Handlers correspond to the paper's client actions; they run atomically
/// at a scheduler step. A handler may trigger any number of RMWs and may
/// complete the outstanding operation.
pub trait ClientLogic: std::fmt::Debug + Send + 'static {
    /// The base-object state type this protocol runs against.
    type State: ObjectState;

    /// A new operation `op` with request `req` was invoked on this client.
    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<Self::State>);

    /// The response of RMW `rmw` (triggered earlier by this client, during
    /// operation `op`) was delivered. Responses for superseded rounds or
    /// completed operations may still arrive and must be ignored by the
    /// protocol.
    fn on_response(
        &mut self,
        op: OpId,
        rmw: RmwId,
        resp: <Self::State as ObjectState>::Resp,
        eff: &mut Effects<Self::State>,
    );

    /// Code blocks held in the client's protocol state, **excluding** its
    /// own encoder-oracle state (a writer's private copy of its value is
    /// free per the paper's cost model; anything it stores of *other*
    /// operations' blocks is charged). Default: none.
    fn stored_blocks(&self) -> Vec<BlockInstance> {
        Vec::new()
    }

    /// Total bits of [`ClientLogic::stored_blocks`]. The simulator calls
    /// this around every handler, so a protocol whose clients hold blocks
    /// overrides it to add the sizes up without building the list.
    fn stored_bits(&self) -> u64 {
        self.stored_blocks().iter().map(|b| b.bits).sum()
    }
}

/// Runtime wrapper of one client inside the simulation.
#[derive(Debug)]
pub(crate) struct ClientRt<L> {
    pub(crate) logic: L,
    pub(crate) crashed: bool,
    pub(crate) outstanding: Option<OpId>,
}

impl<L> ClientRt<L> {
    pub(crate) fn new(logic: L) -> Self {
        ClientRt {
            logic,
            crashed: false,
            outstanding: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::MetadataOnly;

    #[derive(Debug, Clone, Default)]
    struct Nop;

    impl Payload for Nop {
        fn blocks(&self) -> Vec<BlockInstance> {
            Vec::new()
        }
    }

    impl ObjectState for Nop {
        type Rmw = MetadataOnly;
        type Resp = MetadataOnly;
        fn apply(&mut self, _c: ClientId, _r: &MetadataOnly) -> MetadataOnly {
            MetadataOnly
        }
    }

    #[test]
    fn effects_assign_sequential_ids() {
        let mut eff: Effects<Nop> = Effects::new(VecDeque::new(), 10, ClientId(2), OpId(3), 7);
        let a = eff.trigger(ObjectId(0), MetadataOnly);
        let b = eff.trigger(ObjectId(1), MetadataOnly);
        assert_eq!(a, RmwId(10));
        assert_eq!(b, RmwId(11));
        assert_eq!(eff.next_rmw, 12);
        assert_eq!(eff.param_bits, 0);
        assert!(eff.completion.is_none());
        // Each trigger joined the table as its handler's, in id order.
        let table: Vec<_> = eff
            .rmws
            .iter()
            .map(|rt| (rt.id, rt.client, rt.op, rt.object, rt.triggered_at))
            .collect();
        assert_eq!(
            table,
            [
                (RmwId(10), ClientId(2), OpId(3), ObjectId(0), 7),
                (RmwId(11), ClientId(2), OpId(3), ObjectId(1), 7),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut eff: Effects<Nop> = Effects::new(VecDeque::new(), 0, ClientId(0), OpId(0), 0);
        eff.complete(OpResult::Write);
        eff.complete(OpResult::Write);
    }

    #[test]
    fn op_request_accessors() {
        let w = OpRequest::Write(Value::zeroed(4));
        assert!(w.is_write());
        assert_eq!(w.written_value().unwrap().len(), 4);
        assert!(!OpRequest::Read.is_write());
        assert!(OpRequest::Read.written_value().is_none());
    }

    #[test]
    fn op_result_accessors() {
        let r = OpResult::Read(Value::zeroed(2));
        assert!(r.read_value().is_some());
        assert!(OpResult::Write.read_value().is_none());
    }
}
