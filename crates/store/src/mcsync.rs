//! Switchable sync primitives for the store's hand-rolled concurrency.
//!
//! With the `mc` cargo feature enabled, the `FlightRecorder` seqlock and
//! the TCP client's `ReplyQueue` (and the shards' per-key locks, which
//! use the same aliases) run on `rsb-mcsync`'s model-checkable wrappers, so
//! `crates/mc`'s interleaving harness can exhaustively explore their
//! schedules; the wrappers are transparent passthroughs outside a model
//! run. Without the feature these aliases are exactly
//! `std::sync::atomic` / `parking_lot`.

#[cfg(feature = "mc")]
pub(crate) use rsb_mcsync::sync::{AtomicU64, Condvar, Mutex, MutexGuard, Ordering};

#[cfg(not(feature = "mc"))]
pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard};
#[cfg(not(feature = "mc"))]
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};
