//! The allocation budget of one operation inside the register.
//!
//! Timings on a shared two-core host cannot guard the event-stepping hot
//! path; allocation counts can, because they repeat exactly. Events that
//! move only metadata (a `ReadTs` taking effect or coming back, an ack
//! coming back) must allocate nothing, and the allocations of a whole
//! write and a whole read are pinned per protocol at the benchmark's
//! configurations.

// A counting `#[global_allocator]` is an `unsafe impl` by definition; the
// file is listed under `[unsafe_code] allowed` in `audit.toml`.
#![allow(unsafe_code)]

use rsb_coding::Value;
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

/// The most recently triggered RMW still in flight.
fn newest_rmw<P: RegisterProtocol>(sim: &Simulation<P::Object, P::Client>) -> Option<RmwId> {
    sim.inflight_rmws().last().map(|info| info.rmw)
}

/// Runs `req` on the simulation's one client under the fair schedule —
/// the store's drain — and counts.
fn run_op<P: RegisterProtocol>(
    sim: &mut Simulation<P::Object, P::Client>,
    req: OpRequest,
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
fn measure<P: RegisterProtocol>(proto: &P, rounds: u64) -> (Vec<OpCost>, Vec<OpCost>) {
    let len = proto.config().value_len;
    let mut sim = proto.new_sim();
    proto.add_client(&mut sim);
    // Values exist before the clock starts, as in the benchmark.
    let values: Vec<Value> = (0..8 + rounds).map(|i| Value::seeded(i + 1, len)).collect();
    let mut values = values.into_iter();
    for _ in 0..8 {
        let v = values.next().expect("enough values");
        run_op::<P>(&mut sim, OpRequest::Write(v));
        run_op::<P>(&mut sim, OpRequest::Read);
    }
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for v in values {
        writes.push(run_op::<P>(&mut sim, OpRequest::Write(v)));
        reads.push(run_op::<P>(&mut sim, OpRequest::Read));
    }
    (writes, reads)
}

/// Every measured write costs `write`, every measured read `read`.
fn assert_budget<P: RegisterProtocol>(proto: &P, write: OpCost, read: OpCost) {
    let (writes, reads) = measure(proto, 6);
    for (i, cost) in writes.iter().enumerate() {
        assert_eq!(*cost, write, "{} write {i}", proto.name());
    }
    for (i, cost) in reads.iter().enumerate() {
        assert_eq!(*cost, read, "{} read {i}", proto.name());
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

// The counts below are what the code does today, not a target: a change
// that moves one says so here. A write's are its rounds (two lists each)
// plus what encoding makes (the write set and its parity buffers; for
// Adaptive also the shared replica list); a read's are its round, one
// chunk list per responding object, and the decoder's bookkeeping — never
// a buffer of the value's size.

#[test]
fn abd_256b_allocation_budget() {
    let proto = Abd::new(RegisterConfig::new(3, 1, 1, 256).unwrap());
    assert_budget(&proto, cost(4, 8), cost(2, 0));
}

#[test]
fn coded_64k_allocation_budget() {
    let proto = Coded::new(RegisterConfig::new(7, 1, 4, 64 * 1024).unwrap());
    assert_budget(&proto, cost(10, 33), cost(14, 0));
}

#[test]
fn adaptive_1k_allocation_budget() {
    let proto = Adaptive::new(RegisterConfig::new(6, 2, 2, 1024).unwrap());
    assert_budget(&proto, cost(12, 22), cost(12, 0));
}
