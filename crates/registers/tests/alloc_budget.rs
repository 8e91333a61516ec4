//! The allocation budget of one operation inside the register.
//!
//! Timings on a shared two-core host cannot guard the event-stepping hot
//! path; allocation counts can, because they repeat exactly. Events that
//! move only metadata (a `ReadTs` taking effect or coming back, an ack
//! coming back) must allocate nothing, and the allocations of a whole
//! write and a whole read are pinned per protocol at the benchmark's
//! configurations — the same whether the events are stepped one at a time
//! or run by the fused `Simulation::drain` the store uses.

// A counting `#[global_allocator]` is an `unsafe impl` by definition, so
// this test opts out of the workspace's `unsafe_code` deny.
#![allow(unsafe_code)]

use rsb_coding::{Code, ReedSolomon, Value};
use rsb_fpsm::{ClientId, Component, OpRequest, RmwId, SimEvent, Simulation};
use rsb_registers::{Abd, Adaptive, Coded, RegisterConfig, RegisterProtocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread: the harness runs tests on
    /// parallel threads, and each counts its own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // A thread can still allocate while its locals are torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each inherits the caller's guarantees and `System`'s behaviour; the
// counter is a `const`-initialised `Cell` with no destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: see the impl.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: see the impl.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: see the impl.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: see the impl.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What one operation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpCost {
    /// Allocations from the invocation to the last event.
    allocations: u64,
    /// Events that moved no block and triggered nothing…
    metadata_events: u64,
    /// …and the allocations they made between them.
    metadata_allocations: u64,
}

/// Whether the in-flight RMW `ev` advances carries blocks right now — as
/// parameters before it takes effect, as a response after.
fn carries_blocks<P: RegisterProtocol>(
    sim: &Simulation<P::Object, P::Client>,
    ev: SimEvent,
) -> Option<bool> {
    let (SimEvent::Apply(id) | SimEvent::Deliver(id)) = ev;
    sim.component_blocks()
        .into_iter()
        .find_map(|(component, blocks)| match component {
            Component::RmwParam { rmw, .. } | Component::RmwResponse { rmw, .. } if rmw == id => {
                Some(!blocks.is_empty())
            }
            _ => None,
        })
}

/// How an operation's events are run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// One `step` per event, in the fair order, each event counted apart.
    Step,
    /// One `drain` for them all, as the store runs a hold.
    Drain,
}

/// The most recently triggered RMW still in flight.
fn newest_rmw<P: RegisterProtocol>(sim: &Simulation<P::Object, P::Client>) -> Option<RmwId> {
    sim.inflight_rmws().last().map(|info| info.rmw)
}

/// Runs `req` on the simulation's one client under the fair schedule and
/// counts. A drain cannot tell its events apart, so it counts allocations
/// only.
fn run_op<P: RegisterProtocol>(
    sim: &mut Simulation<P::Object, P::Client>,
    req: OpRequest,
    driver: Driver,
) -> OpCost {
    let client = ClientId(0);
    let mut cost = OpCost {
        allocations: 0,
        metadata_events: 0,
        metadata_allocations: 0,
    };
    let before = allocations();
    sim.invoke(client, req).expect("the client is idle");
    cost.allocations += allocations() - before;
    if driver == Driver::Drain {
        let before = allocations();
        sim.drain();
        cost.allocations += allocations() - before;
    }
    while let Some(ev) = sim.first_enabled_event() {
        let bare_before = carries_blocks::<P>(sim, ev) == Some(false);
        let newest_before = newest_rmw::<P>(sim);
        let before = allocations();
        sim.step(ev).expect("an enabled event applies");
        let spent = allocations() - before;
        cost.allocations += spent;
        // Metadata-only: nothing carried in, nothing carried out (a
        // delivered RMW is gone, an applied one now holds its response),
        // and no round triggered (ids only grow).
        let bare_after = carries_blocks::<P>(sim, ev) != Some(true);
        let triggered = newest_rmw::<P>(sim) > newest_before;
        if bare_before && bare_after && !triggered {
            cost.metadata_events += 1;
            cost.metadata_allocations += spent;
        }
    }
    // What the store's history policy does between operations; it keeps
    // the record list from growing, and is not part of the operation.
    sim.compact_history();
    cost
}

/// Warms a register up, then measures `rounds` writes and reads.
fn measure<P: RegisterProtocol>(
    proto: &P,
    rounds: u64,
    driver: Driver,
) -> (Vec<OpCost>, Vec<OpCost>) {
    let len = proto.config().value_len;
    let mut sim = proto.new_sim();
    proto.add_client(&mut sim);
    // Values exist before the clock starts, as in the benchmark.
    let values: Vec<Value> = (0..8 + rounds).map(|i| Value::seeded(i + 1, len)).collect();
    let mut values = values.into_iter();
    for _ in 0..8 {
        let v = values.next().expect("enough values");
        run_op::<P>(&mut sim, OpRequest::Write(v), driver);
        run_op::<P>(&mut sim, OpRequest::Read, driver);
    }
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for v in values {
        writes.push(run_op::<P>(&mut sim, OpRequest::Write(v), driver));
        reads.push(run_op::<P>(&mut sim, OpRequest::Read, driver));
    }
    (writes, reads)
}

/// Every measured write costs `write`, every measured read `read`, when
/// stepped; drained, each makes the same number of allocations.
fn assert_budget<P: RegisterProtocol>(proto: &P, write: OpCost, read: OpCost) {
    let (writes, reads) = measure(proto, 6, Driver::Step);
    for (i, cost) in writes.iter().enumerate() {
        assert_eq!(*cost, write, "{} write {i}", proto.name());
    }
    for (i, cost) in reads.iter().enumerate() {
        assert_eq!(*cost, read, "{} read {i}", proto.name());
    }
    let (writes, reads) = measure(proto, 6, Driver::Drain);
    for (i, cost) in writes.iter().enumerate() {
        let name = proto.name();
        assert_eq!(
            cost.allocations, write.allocations,
            "{name} drained write {i}"
        );
    }
    for (i, cost) in reads.iter().enumerate() {
        let name = proto.name();
        assert_eq!(
            cost.allocations, read.allocations,
            "{name} drained read {i}"
        );
    }
}

/// `metadata_events` of them allocating nothing, `allocations` in all.
fn cost(allocations: u64, metadata_events: u64) -> OpCost {
    OpCost {
        allocations,
        metadata_events,
        metadata_allocations: 0,
    }
}

/// Allocations of one warm `ReedSolomon::encode` of a `len`-byte value.
fn encode_allocations(k: usize, n: usize, len: usize) -> u64 {
    let code = ReedSolomon::new(k, n, len).expect("valid code parameters");
    let value = Value::seeded(1, len);
    drop(code.encode(&value));
    let before = allocations();
    let blocks = code.encode(&value);
    let spent = allocations() - before;
    drop(blocks);
    spent
}

// The counts below are what the code does today, not a target: a change
// that moves one says so here. A write's are its rounds (one response
// list each: a round knows its RMWs by their first id) plus, for the
// coded protocols, what encoding makes (the block list and its parity
// buffer) and the one tagged piece list all the write's RMWs share; Abd's
// replica is the value's own buffer. A read's are its round, one chunk
// list per responding object, and the pick of blocks to decode — never a
// buffer of the value's size. A fault-free read's blocks rejoin, so
// `decode` itself allocates nothing.

// An encode allocates the block list and one buffer for every parity row,
// whatever `n − k` is: 2. The block kernel's bookkeeping lives on the
// stack, and every block is a window — systematic ones onto the value,
// parity ones onto that buffer.
#[test]
fn reed_solomon_encode_allocation_budget() {
    assert_eq!(encode_allocations(4, 7, 64 * 1024), 2, "4-of-7 × 64 KiB");
    assert_eq!(encode_allocations(2, 6, 1024), 2, "2-of-6 × 1 KiB");
}

#[test]
fn abd_256b_allocation_budget() {
    let proto = Abd::new(RegisterConfig::new(3, 1, 1, 256).unwrap());
    assert_budget(&proto, cost(2, 8), cost(1, 0));
}

#[test]
fn coded_64k_allocation_budget() {
    let proto = Coded::new(RegisterConfig::new(7, 1, 4, 64 * 1024).unwrap());
    assert_budget(&proto, cost(6, 33), cost(11, 0));
}

#[test]
fn adaptive_1k_allocation_budget() {
    let proto = Adaptive::new(RegisterConfig::new(6, 2, 2, 1024).unwrap());
    assert_budget(&proto, cost(6, 22), cost(9, 0));
}
