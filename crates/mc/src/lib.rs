//! Model checking for the reliable-storage stack, two layers deep.
//!
//! **Protocol layer** ([`explore`]): a depth-first enumerator of
//! message-delivery interleavings over `rsb-fpsm`'s deterministic
//! [`rsb_fpsm::Simulation`], pruned with dynamic partial-order reduction
//! (persistent/backtrack sets plus sleep sets, with dependence keyed on
//! "same base object" / "same client"), checking an `rsb-consistency`
//! condition on every explored schedule. Counterexamples are shrunk
//! (greedy event deletion, then reordering toward the canonical
//! delivery order) and serialized as replayable [`trace::Trace`]s.
//!
//! **Store internals layer** (re-exported from [`rsb_mcsync`] as
//! [`sched`]/[`sync`]/[`thread`]): a loom-style bounded-preemption
//! virtual-thread checker that the store's `FlightRecorder` seqlock and
//! TCP-client `ReplyQueue` hand-over run under via its `mc` cargo
//! feature. See `crates/mc/tests/` for both
//! harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod trace;

pub use rsb_mcsync::{sched, sync, thread};
