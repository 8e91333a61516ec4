//! The allocation budget of one operation through the store.
//!
//! `rsb-registers`' `alloc_budget.rs` pins what the register allocates
//! per operation; this pins the whole in-process path around it — the
//! `Loopback` transport, placement, the key-lock hold and the drain,
//! result collection and history compaction — at two of the benchmark's
//! shapes: one Abd write and read, and one Adaptive batch of 16.
//!
//! The counts are what the code does today, not a target: a change that
//! moves one says so here.

// A counting `#[global_allocator]` is an `unsafe impl` by definition, so
// this test opts out of the workspace's `unsafe_code` deny.
#![allow(unsafe_code)]

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{join_all, BatchOp, HistoryPolicy, ProtocolSpec, Store, StoreConfig};
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

/// The benchmark's history policy.
fn start(protocol: ProtocolSpec, register: RegisterConfig) -> Store {
    Store::start(
        StoreConfig::uniform(2, protocol, register).with_history(HistoryPolicy::TruncateAfter(16)),
    )
    .unwrap()
}

/// Allocations of each of `rounds` writes and reads of one warm key.
fn abd_costs(rounds: u64) -> Vec<(u64, u64)> {
    let store = start(
        ProtocolSpec::Abd,
        RegisterConfig::new(3, 1, 1, 256).unwrap(),
    );
    let client = store.client();
    // Values exist before the clock starts, as in the benchmark.
    let values: Vec<Value> = (0..32 + rounds)
        .map(|i| Value::seeded(i + 1, 256))
        .collect();
    let mut values = values.into_iter();
    for v in values.by_ref().take(32) {
        client.write_blocking("key", v).unwrap();
        client.read_blocking("key").unwrap();
    }
    let costs = values
        .map(|v| {
            let before = allocations();
            client.write_blocking("key", v).unwrap();
            let write = allocations() - before;
            let before = allocations();
            let read = client.read_blocking("key").unwrap();
            let read_cost = allocations() - before;
            drop(read);
            (write, read_cost)
        })
        .collect();
    store.shutdown();
    costs
}

/// Allocations of each of `rounds` Adaptive batches of 16: a write and
/// a read on each of 8 keys, so every key runs two operations at once.
fn adaptive_batch_costs(rounds: u64) -> Vec<u64> {
    let store = start(
        ProtocolSpec::Adaptive,
        RegisterConfig::new(6, 2, 2, 1024).unwrap(),
    );
    let client = store.client();
    let keys: Vec<String> = (0..8).map(|i| format!("key-{i}")).collect();
    let batch = |round: u64| -> Vec<BatchOp> {
        keys.iter()
            .enumerate()
            .flat_map(|(i, key)| {
                let v = Value::seeded(round * 8 + i as u64 + 1, 1024);
                [BatchOp::Write(key.clone(), v), BatchOp::Read(key.clone())]
            })
            .collect()
    };
    for round in 0..32 {
        for result in join_all(client.submit_batch(batch(round))) {
            result.unwrap();
        }
    }
    let costs = (32..32 + rounds)
        .map(|round| {
            let ops = batch(round);
            let before = allocations();
            let results = join_all(client.submit_batch(ops));
            let spent = allocations() - before;
            assert!(results.iter().all(Result::is_ok));
            drop(results);
            spent
        })
        .collect();
    store.shutdown();
    costs
}

/// `TruncateAfter(16)` compacts a key's history in every 8th hold that
/// runs a write and a read on it (16 records), and compaction rebuilds
/// the retained frontier: one allocation more in that hold, per key.
fn with_compaction_every_eighth(rounds: u64, base: u64, compaction: u64) -> Vec<u64> {
    (0..rounds)
        .map(|i| base + if i % 8 == 0 { compaction } else { 0 })
        .collect()
}

// A write is the register's 2 (its two rounds) plus 1 in the store; a
// read the register's 1 plus 1. The write's hold is the one that
// compacts, once per 8 writes.
#[test]
fn abd_256b_store_allocation_budget() {
    let (writes, reads): (Vec<u64>, Vec<u64>) = abd_costs(24).into_iter().unzip();
    assert_eq!(writes, with_compaction_every_eighth(24, 3, 1), "writes");
    assert_eq!(reads, vec![2; 24], "reads");
}

// Eight keys, each with a concurrent write and read in one hold.
#[test]
fn adaptive_1k_batch16_store_allocation_budget() {
    let batches = adaptive_batch_costs(24);
    assert_eq!(batches, with_compaction_every_eighth(24, 148, 8));
}
