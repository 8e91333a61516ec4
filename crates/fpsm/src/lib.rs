//! Asynchronous fault-prone shared memory, simulated deterministically.
//!
//! This crate realizes the system model of *"Space Bounds for Reliable
//! Storage: Fundamental Limits of Coding"* (Spiegelman, Cassuto, Chockler,
//! Keidar; PODC 2016), Section 2:
//!
//! * a set `B = {bo₁, …, boₙ}` of **base objects** supporting arbitrary
//!   atomic read-modify-write (RMW) access — the [`ObjectState`] trait;
//! * an unbounded set `Π` of **clients** emulating high-level register
//!   operations via triggered RMWs — the [`ClientLogic`] trait;
//! * **asynchrony**: an RMW *triggers*, later atomically *takes effect*,
//!   and later still its response is *delivered*; a [`Scheduler`] (the
//!   environment/adversary) controls both delays;
//! * **crash failures** of up to `f < n/2` base objects and any number of
//!   clients;
//! * **storage accounting** per the paper's Definition 2: every code-block
//!   bit in base objects, clients, in-flight RMW parameters, and in-flight
//!   responses is charged; metadata is free. Every block instance carries a
//!   source tag (write operation × block index) realizing the paper's
//!   source function (Definition 4).
//!
//! Protocols (crate `rsb-registers`) plug in by choosing an [`ObjectState`]
//! and a [`ClientLogic`]; adversaries (crate `rsb-lowerbound`) plug in as
//! [`Scheduler`]s.
//!
//! A simulation has two drivers. [`Simulation::step`] runs one
//! scheduler-chosen event; the experiments, the model checker and the
//! adversary drive it through a [`Scheduler`]. [`Simulation::drain`] runs
//! every event the fair scheduler would, until none is enabled, taking
//! each RMW out of the in-flight table once to apply it and deliver its
//! response; a host that only wants its operations finished (the store)
//! calls it. Both share one implementation of each event and produce the
//! same run: events, times, costs, peaks and storage series.
//!
//! # Example: a trivial protocol end-to-end
//!
//! ```
//! use rsb_fpsm::{
//!     ClientLogic, Effects, MetadataOnly, ObjectState, OpId, OpRequest, OpResult,
//!     Payload, RmwId, Simulation, run_to_completion, BlockInstance, ClientId, ObjectId,
//! };
//!
//! // One base object counting pings; a client that pings once and returns.
//! #[derive(Debug, Clone, Default)]
//! struct Counter(u64);
//! impl Payload for Counter {
//!     fn blocks(&self) -> Vec<BlockInstance> { Vec::new() }
//! }
//! impl ObjectState for Counter {
//!     type Rmw = MetadataOnly;
//!     type Resp = MetadataOnly;
//!     fn apply(&mut self, _c: ClientId, _r: &MetadataOnly) -> MetadataOnly {
//!         self.0 += 1;
//!         MetadataOnly
//!     }
//! }
//! #[derive(Debug)]
//! struct Pinger;
//! impl ClientLogic for Pinger {
//!     type State = Counter;
//!     fn on_invoke(&mut self, _op: OpId, _req: OpRequest, eff: &mut Effects<Counter>) {
//!         eff.trigger(ObjectId(0), MetadataOnly);
//!     }
//!     fn on_response(&mut self, _op: OpId, _rmw: RmwId, _r: MetadataOnly,
//!                    eff: &mut Effects<Counter>) {
//!         eff.complete(OpResult::Write);
//!     }
//! }
//!
//! let mut sim = Simulation::new(1, |_| Counter::default());
//! let c = sim.add_client(Pinger);
//! sim.invoke(c, OpRequest::Write(rsb_coding::Value::zeroed(1))).unwrap();
//! assert!(run_to_completion(&mut sim, 100));
//! assert_eq!(sim.object_state(ObjectId(0)).0, 1);
//! ```

#![forbid(unsafe_code)]

mod client;
mod ids;
mod object;
mod payload;
mod scheduler;
mod sim;

pub use client::{ClientLogic, Effects, OpRequest, OpResult};
pub use ids::{ClientId, ObjectId, OpId, RmwId};
pub use object::ObjectState;
pub use payload::{BlockInstance, Component, MetadataOnly, Payload, StorageCost};
pub use scheduler::{
    run, run_to_completion, run_until, DeliveryChoice, FairScheduler, RandomScheduler, RunOutcome,
    Scheduler, ScriptedScheduler,
};
pub use sim::{OpRecord, RmwInfo, Scratch, SimError, SimEvent, Simulation};
