//! What `Store::evict_quiescent` frees, in heap bytes.
//!
//! An evicted key keeps its register's bits — the snapshot holds the `n`
//! object states, their value buffers shared, not copied — so the paper's
//! storage measure barely moves. What eviction frees is the simulator
//! scaffolding around a quiescent key: the `Simulation`, its client table,
//! in-flight deque, trigger buffers and record vectors. This test pins that
//! the saving is real: after a sweep the store's heap must be at most
//! `MAX_RATIO` of what the same keys held live. If a change brings a live
//! quiescent key close to its snapshot, this fails, and eviction has
//! stopped earning its keep.
//!
//! One `#[test]` in its own binary: the counting allocator is global, so a
//! sibling test on another thread would pollute the count.

// A counting `#[global_allocator]` is an `unsafe impl` by definition; the
// file is listed under `[unsafe_code] allowed` in `audit.toml`.
#![allow(unsafe_code)]

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{HistoryPolicy, ProtocolSpec, Store, StoreConfig};
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

/// Largest evicted / live-quiescent heap ratio accepted. Measured at
/// these configurations: 0.33 (Abd), 0.49 (Coded), 0.44 (Adaptive).
const MAX_RATIO: f64 = 0.6;
const KEYS: u64 = 300;

fn key(i: u64) -> String {
    format!("key-{i:04}")
}

/// The value the `round`-th write of key `i` stores — recomputed at check
/// time, so the test itself holds no values while it measures.
fn value(i: u64, round: u64, len: usize) -> Value {
    Value::seeded(i * 4 + round + 1, len)
}

/// Heap bytes of `KEYS` live quiescent keys and of the same keys evicted,
/// both net of the empty store.
fn footprint(protocol: ProtocolSpec, register: RegisterConfig) -> (isize, isize) {
    let len = register.value_len;
    let store = Store::start(
        StoreConfig::uniform(2, protocol, register).with_history(HistoryPolicy::TruncateAfter(16)),
    )
    .unwrap();
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
    assert_eq!(store.evict_quiescent(), KEYS as usize, "{protocol}");
    let evicted = live_bytes() - empty;
    for i in 0..KEYS {
        assert_eq!(
            client.read_blocking(&key(i)).unwrap(),
            value(i, 1, len),
            "{protocol}: key {i} came back with the wrong value"
        );
    }
    assert_eq!(store.metrics().totals().rematerialized, KEYS, "{protocol}");
    store.shutdown();
    (live, evicted)
}

#[test]
fn eviction_frees_at_least_forty_percent_of_a_quiescent_keys_heap() {
    let cases = [
        (
            ProtocolSpec::Abd,
            RegisterConfig::new(3, 1, 1, 256).unwrap(),
        ),
        (
            ProtocolSpec::Coded,
            RegisterConfig::new(7, 1, 4, 4096).unwrap(),
        ),
        (
            ProtocolSpec::Adaptive,
            RegisterConfig::new(6, 2, 2, 1024).unwrap(),
        ),
    ];
    for (protocol, register) in cases {
        let (live, evicted) = footprint(protocol, register);
        assert!(live > 0, "{protocol}: live keys hold heap");
        let ratio = evicted as f64 / live as f64;
        println!(
            "{protocol}: {} B/key live, {} B/key evicted ({ratio:.2})",
            live / KEYS as isize,
            evicted / KEYS as isize
        );
        assert!(
            ratio <= MAX_RATIO,
            "{protocol}: evicted heap {evicted} B is {ratio:.2} of live {live} B (max {MAX_RATIO})"
        );
    }
}
