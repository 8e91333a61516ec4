//! A small loom-style model checker for lock-free code, built entirely
//! in-repo (the build environment has no crates.io access).
//!
//! The idea: code under test swaps its `std::sync::atomic` /
//! `parking_lot` primitives for the drop-in wrappers in [`sync`]. Outside
//! a checking run the wrappers are transparent passthroughs (one
//! thread-local lookup per operation). Inside [`sched::model`], every
//! operation on a wrapper becomes a *scheduling point*: the calling
//! virtual thread parks, a cooperative scheduler picks which thread runs
//! next, and the run as a whole is replayed under depth-first search over
//! all scheduling decisions — bounded by a preemption budget, as in
//! iterative context bounding — until the decision space is exhausted or
//! an execution fails.
//!
//! Because exactly one virtual thread runs at a time, the checker
//! explores *sequentially consistent* interleavings: it finds logic races
//! (torn seqlock reads, lost updates, lock-ordering deadlocks, lost
//! wakeups) but not weak-memory reorderings. The store's orderings are
//! additionally argued in comments at each site; this crate checks the
//! algorithmic claims those comments rest on.
//!
//! A failing execution reports the decision vector that produced it,
//! and [`sched::replay`] re-executes exactly that schedule — the
//! counterexample is a value, not a flake.
//!
//! ```
//! use rsb_mcsync::{sched, sync, thread};
//! use std::sync::Arc;
//! use std::sync::atomic::Ordering;
//!
//! // Two racing `fetch_add`s are fine — the model proves it by running
//! // every interleaving (within the preemption bound).
//! let report = sched::model(&sched::Config::default(), || {
//!     let c = Arc::new(sync::AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = thread::spawn(move || c2.fetch_add(1, Ordering::Relaxed));
//!     c.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     assert_eq!(c.load(Ordering::Relaxed), 2);
//! })
//! .expect("no interleaving fails");
//! assert!(report.complete);
//! ```

#![forbid(unsafe_code)]

pub mod sched;
pub mod sync;
pub mod thread;
