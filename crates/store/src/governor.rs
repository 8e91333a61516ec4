//! The rendezvous between submitters, the `store-governor` thread and
//! [`Store::halt`](crate::Store::halt): a stop flag, a "pass requested"
//! bit under a mutex, and the condvar the governor parks on.
//!
//! Nothing on an operation's path waits here. A submitter whose O(1)
//! due-check found an eviction pass due sets the bit and signals; the
//! governor — spawned only for a non-`Manual`
//! [`EvictionPolicy`](crate::EvictionPolicy) — clears it and sweeps.
//! The bit is written and read under the mutex the governor holds from
//! its check to its wait, so a request can never fall between the two
//! (`crates/mc/tests/interleavings.rs` exhausts the interleavings).

use crate::mcsync::{AtomicBool, Condvar, Mutex, Ordering};
use rsb_registers::lockorder::{ranks, tracked_lock};
use std::time::Duration;

/// The store's stop flag and the governor's wake-up.
#[derive(Debug, Default)]
pub struct GovernorSignal {
    stop: AtomicBool,
    /// A pass was requested and the governor has not picked it up yet.
    due: Mutex<bool>,
    wake: Condvar,
}

impl GovernorSignal {
    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Requests a governor pass (idempotent until the governor picks it
    /// up). One short lock hold; submitters call it only when their
    /// due-check says a pass is due.
    pub fn nudge(&self) {
        let mut due = tracked_lock(ranks::GOVERNOR, "governor", || self.due.lock());
        if !*due {
            *due = true;
            self.wake.notify_one();
        }
    }

    /// Requests a stop and wakes the governor. Taking the lock orders the
    /// signal after a governor's check-then-wait, so an untimed wait
    /// cannot miss it.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        let guard = tracked_lock(ranks::GOVERNOR, "governor", || self.due.lock());
        drop(guard);
        self.wake.notify_all();
    }

    /// The governor thread's body: parks until a pass is requested, a
    /// stop is requested or `period` elapses, then runs `pass` — and
    /// exits after the pass that follows the stop, so a pass requested
    /// before [`GovernorSignal::request_stop`] always runs, even when
    /// this thread is first scheduled after it.
    pub fn run(&self, period: Option<Duration>, mut pass: impl FnMut()) {
        loop {
            let stopping = {
                let mut due = tracked_lock(ranks::GOVERNOR, "governor", || self.due.lock());
                if !*due && !self.is_stopped() {
                    match period {
                        Some(period) => {
                            let _ = self.wake.wait_for(due.raw_mut(), period);
                        }
                        None => self.wake.wait(due.raw_mut()),
                    }
                }
                *due = false;
                self.is_stopped()
            };
            pass();
            if stopping {
                return;
            }
        }
    }
}
