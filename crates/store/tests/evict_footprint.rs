//! What a live key holds at rest, and what `Store::evict_quiescent`
//! frees, in heap bytes.
//!
//! A live key at rest holds its `n` object states, the client automata
//! its busiest hold needed, and a record buffer sized to the history
//! bound. Its in-flight deque is not among them: a hold borrows it from
//! its thread and hands it back when it ends.
//! The steady-state phase pins that bill: after `STEADY_OPS` mixed
//! operations per key, past the 16-record bound, the live heap per key
//! must stay under each configuration's `max_live_per_key`.
//!
//! A sweep rests each quiescent key in place: it keeps its `n` object
//! states, whose bytes are the paper's resting cost (Lemma 8's
//! `(2f+k)·D/k` for Adaptive), read here from `occupancy_bits()`, which
//! a sweep does not move. What it frees is what surrounds them: idle
//! clients, the record buffer past the compacted history, container
//! slack. The rest phase bounds what a rested key holds above its
//! resting object bytes at `max_rest_overhead`, so a rest that keeps a
//! record buffer or an idle client fails.
//!
//! One `#[test]` in its own binary: the counting allocator is global, so a
//! sibling test on another thread would pollute the count.

// A counting `#[global_allocator]` is an `unsafe impl` by definition, so
// this test opts out of the workspace's `unsafe_code` deny.
#![allow(unsafe_code)]

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{HistoryPolicy, ProtocolSpec, Store, StoreConfig, StoreMetrics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated by the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// The orderings are incidental: every allocation the test measures
// happens on the one thread that reads the total, between its own calls
// into the store.
fn grow(bytes: usize) {
    LIVE.fetch_add(bytes as isize, Ordering::AcqRel);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::AcqRel);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each inherits the caller's guarantees and `System`'s behaviour; the
// counter is a static atomic, so touching it never allocates or re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: see the impl.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: see the impl.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: see the impl.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: see the impl.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: see the impl.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: see the impl.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }

    // SAFETY: see the impl.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Acquire)
}

const KEYS: u64 = 300;
/// Heap the `mc` feature adds to every key lock (the model's shared
/// ownership flag); workspace builds turn the feature on.
const MODEL_LOCK_BYTES: isize = if cfg!(feature = "mc") { 32 } else { 0 };
/// Operations each key runs, alternating write and read, before the
/// steady-state measure: past `TruncateAfter(16)`, so every key has
/// compacted at least once.
const STEADY_OPS: u64 = 24;

fn key(i: u64) -> String {
    format!("key-{i:04}")
}

/// The value the `round`-th write of key `i` stores — recomputed at check
/// time, so the test itself holds no values while it measures.
fn value(i: u64, round: u64, len: usize) -> Value {
    Value::seeded(i * 4 + round + 1, len)
}

fn start(protocol: ProtocolSpec, register: RegisterConfig) -> Store {
    Store::start(
        StoreConfig::uniform(2, protocol, register).with_history(HistoryPolicy::TruncateAfter(16)),
    )
    .unwrap()
}

/// Heap bytes per live key once each of `KEYS` keys has run
/// `STEADY_OPS` operations, net of the empty store.
fn steady_live_per_key(protocol: ProtocolSpec, register: RegisterConfig) -> isize {
    let len = register.value_len;
    let store = start(protocol, register);
    let client = store.client();
    let empty = live_bytes();
    for i in 0..KEYS {
        let key = key(i);
        for op in 0..STEADY_OPS {
            if op % 2 == 0 {
                client.write_blocking(&key, value(i, op, len)).unwrap();
            } else {
                client.read_blocking(&key).unwrap();
            }
        }
    }
    let live = live_bytes() - empty;
    for i in 0..KEYS {
        assert_eq!(
            client.read_blocking(&key(i)).unwrap(),
            value(i, STEADY_OPS - 2, len),
            "{protocol}: key {i} lost its last write"
        );
    }
    store.shutdown();
    live / KEYS as isize
}

/// What `KEYS` quiescent keys hold, all net of the empty store and per
/// key: heap bytes live, heap bytes once a sweep has rested them, and
/// their resting object bytes (Definition 2 at rest).
struct Footprint {
    live: isize,
    rested: isize,
    resting: isize,
}

fn footprint(protocol: ProtocolSpec, register: RegisterConfig) -> Footprint {
    let len = register.value_len;
    let store = start(protocol, register);
    let client = store.client();
    let empty = live_bytes();
    for i in 0..KEYS {
        let key = key(i);
        client.write_blocking(&key, value(i, 0, len)).unwrap();
        client.read_blocking(&key).unwrap();
        client.write_blocking(&key, value(i, 1, len)).unwrap();
        client.read_blocking(&key).unwrap();
    }
    let live = live_bytes() - empty;
    // Bits only: a held metrics snapshot would count as heap.
    let bits = |m: StoreMetrics| (m.occupancy_bits(), m.peak_register_bits());
    let before = bits(store.metrics());
    assert_eq!(store.evict_quiescent(), KEYS as usize, "{protocol}");
    let rested = live_bytes() - empty;
    let (occupancy, peak) = bits(store.metrics());
    assert_eq!(
        (occupancy, peak),
        before,
        "{protocol}: a sweep frees heap, not Definition-2 bits"
    );
    for i in 0..KEYS {
        assert_eq!(
            client.read_blocking(&key(i)).unwrap(),
            value(i, 1, len),
            "{protocol}: key {i} lost its value at rest"
        );
    }
    assert_eq!(store.metrics().totals().evictions, KEYS, "{protocol}");
    store.shutdown();
    let per_key = |bytes: isize| bytes / KEYS as isize;
    Footprint {
        live: per_key(live),
        rested: per_key(rested),
        resting: per_key((occupancy / 8) as isize),
    }
}

#[test]
fn a_rested_key_holds_little_beyond_its_resting_object_bytes() {
    // (protocol, register, max_live_per_key, max_rest_overhead).
    //
    // Each `max_live_per_key` is 10 % over the steady-state heap per key
    // measured when it was set (3 483, 22 869 and 9 501 B). A key that
    // keeps its last drain's buffers, or a record buffer doubled past the
    // history bound, holds 2.5–4 KB more and fails.
    //
    // Each `max_rest_overhead` is 10 % over what a rested key held above
    // its resting object bytes (768, 7 168 and 3 072 B) when it was set,
    // without the `mc` feature: 104, 1 192 and 1 184 B. A rest that kept
    // the record buffer (Abd: +1 360 B) or the idle clients (+144 to
    // +160 B) fails.
    let cases = [
        (
            ProtocolSpec::Abd,
            RegisterConfig::new(3, 1, 1, 256).unwrap(),
            3_830,
            114,
        ),
        (
            ProtocolSpec::Coded,
            RegisterConfig::new(7, 1, 4, 4096).unwrap(),
            25_160,
            1_311,
        ),
        (
            ProtocolSpec::Adaptive,
            RegisterConfig::new(6, 2, 2, 1024).unwrap(),
            10_450,
            1_302,
        ),
    ];
    for (protocol, register, max_live_per_key, max_rest_overhead) in cases {
        let steady = steady_live_per_key(protocol, register);
        let Footprint {
            live,
            rested,
            resting,
        } = footprint(protocol, register);
        assert!(resting > 0, "{protocol}: a register holds its value");
        let ratio = |bytes: isize| bytes as f64 / resting as f64;
        println!(
            "{protocol}: {steady} B/key live after {STEADY_OPS} ops ({:.2} x resting)",
            ratio(steady)
        );
        println!(
            "{protocol}: {live} B/key live, {rested} B/key rested, {resting} B/key resting \
             objects (live {:.2} x, rested {:.2} x resting)",
            ratio(live),
            ratio(rested)
        );
        assert!(
            steady <= max_live_per_key,
            "{protocol}: a live key holds {steady} B at rest (max {max_live_per_key})"
        );
        assert!(
            rested - resting <= max_rest_overhead + MODEL_LOCK_BYTES,
            "{protocol}: a rested key holds {rested} B, {} B over its {resting} B of \
             resting objects (max {max_rest_overhead})",
            rested - resting
        );
    }
}
