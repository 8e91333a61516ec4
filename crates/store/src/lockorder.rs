//! The store's lock hierarchy, checked at run time.
//!
//! Every lock in the crate is taken through [`tracked_lock`], naming its
//! level in [`ranks`]. Under `debug_assertions` or the `mc` feature, a
//! per-thread held-level set is maintained and an acquisition that does
//! not *strictly increase* the held rank panics immediately — turning a
//! would-be deadlock (or a latent inversion that only deadlocks under
//! contention) into a loud, deterministic failure in tests and
//! model-check runs. The check follows the calls a thread actually
//! makes, so it sees nestings that cross function boundaries: the one
//! nested pair in the crate, `net_state` taken under `net_writer`, is a
//! `Conn::send` → `ReplyQueue::push` call. In release builds the checker
//! compiles to nothing: [`HeldLock`] is a zero-sized no-op and
//! [`Tracked`] is a transparent newtype around the guard.

#[cfg(any(debug_assertions, feature = "mc"))]
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// The lock levels. Acquisitions must be nested in strictly increasing
/// rank.
pub(crate) mod ranks {
    /// `Shard.map`: key-name placement map.
    pub(crate) const SHARD_MAP: i64 = 0;
    /// A shard's `KeySlot`: per-key simulation state.
    pub(crate) const KEY_STATE: i64 = 1;
    /// tcp client: write half of the socket and its encode buffer.
    pub(crate) const NET_WRITER: i64 = 2;
    /// tcp client: `ReplyQueue.replies`, the replies still owed and the
    /// read half of the socket.
    pub(crate) const NET_STATE: i64 = 3;
    /// net server: live connection map.
    pub(crate) const CONN_TABLE: i64 = 4;
}

#[cfg(any(debug_assertions, feature = "mc"))]
thread_local! {
    /// The calling thread's live acquisitions, in acquisition order.
    static HELD: RefCell<Vec<(i64, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// RAII record of one acquisition in the per-thread held set.
///
/// Acquire it *before* blocking on the underlying lock — a violation
/// then panics instead of deadlocking. Zero-sized and inert without
/// `debug_assertions` / `mc`.
#[derive(Debug)]
pub(crate) struct HeldLock {
    #[cfg(any(debug_assertions, feature = "mc"))]
    rank: i64,
}

impl HeldLock {
    /// Records an acquisition at `rank`.
    ///
    /// # Panics
    ///
    /// Panics (checked builds only) when `rank` does not strictly exceed
    /// every rank the current thread already holds.
    #[inline]
    #[must_use]
    pub(crate) fn acquire(rank: i64, name: &'static str) -> HeldLock {
        #[cfg(not(any(debug_assertions, feature = "mc")))]
        {
            let _ = (rank, name);
            HeldLock {}
        }
        #[cfg(any(debug_assertions, feature = "mc"))]
        {
            // try_with: thread teardown may run guards after the TLS
            // slot is gone; the checker just stands down then.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(&(top_rank, top_name)) = held.iter().max_by_key(|&&(r, _)| r) {
                    assert!(
                        rank > top_rank,
                        "lock-order violation: acquiring `{name}` (level {rank}) \
                         while holding `{top_name}` (level {top_rank}) — \
                         levels must strictly increase; see rsb-store's `lockorder::ranks`"
                    );
                }
                held.push((rank, name));
            });
            HeldLock { rank }
        }
    }
}

impl Drop for HeldLock {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "mc"))]
        {
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(r, _)| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }
}

/// A lock guard paired with its [`HeldLock`] record. Dereferences to the
/// guarded data; the record is released when the guard drops.
#[derive(Debug)]
pub(crate) struct Tracked<G> {
    // Declaration order matters: the inner guard must drop (releasing
    // the lock) before the held-set record is removed.
    guard: G,
    _held: HeldLock,
}

impl<G> Tracked<G> {
    /// The raw inner guard — for condvar waits, which need the native
    /// guard type. The held-set record stays live across the wait; that
    /// is sound because the set is per-thread and a parked thread
    /// acquires nothing.
    #[inline]
    pub(crate) fn raw_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

impl<G: Deref> Deref for Tracked<G> {
    type Target = G::Target;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Tracked<G> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

/// Acquires a lock through the hierarchy checker: records the level
/// (panicking on a violation in checked builds), then runs `acquire` to
/// take the real lock. Generic over the guard type, so it wraps
/// `parking_lot`, `std`, and `rsb-mcsync` guards alike.
#[inline]
pub(crate) fn tracked_lock<G>(
    rank: i64,
    name: &'static str,
    acquire: impl FnOnce() -> G,
) -> Tracked<G> {
    let held = HeldLock::acquire(rank, name);
    Tracked {
        guard: acquire(),
        _held: held,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_ranks_are_fine() {
        let a = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
        let b = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        let c = HeldLock::acquire(ranks::NET_STATE, "net_state");
        drop(c);
        drop(b);
        drop(a);
    }

    // The two panicking tests exist where the check does: a release
    // build without `mc` compiles it out.
    #[test]
    #[cfg(any(debug_assertions, feature = "mc"))]
    #[should_panic(expected = "lock-order violation")]
    fn inverted_acquisition_panics() {
        let _state = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "mc"))]
    #[should_panic(expected = "lock-order violation")]
    fn equal_rank_reacquisition_panics() {
        let _a = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        let _b = HeldLock::acquire(ranks::KEY_STATE, "key_state");
    }

    #[test]
    fn release_unwinds_the_held_set() {
        let state = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        drop(state);
        // With the higher level released, the lower level is legal again.
        let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
    }

    #[test]
    fn tracked_lock_derefs_and_releases() {
        let mu = std::sync::Mutex::new(7u32);
        {
            let mut g = tracked_lock(ranks::KEY_STATE, "key_state", || mu.lock().unwrap());
            *g += 1;
            assert_eq!(*g, 8);
        }
        let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
        assert_eq!(*mu.lock().unwrap(), 8);
    }

    #[test]
    fn threads_have_independent_held_sets() {
        let _state = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        std::thread::spawn(|| {
            let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
        })
        .join()
        .expect("spawned thread must not see this thread's held set");
    }
}
