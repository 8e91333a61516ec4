//! Virtual-thread spawn/join: `std::thread`-shaped outside a model run,
//! scheduler-controlled inside one.

use crate::sched;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as OsMutex, PoisonError};

/// Handle to a spawned thread; mirrors `std::thread::JoinHandle`.
#[derive(Debug)]
pub struct JoinHandle<T> {
    imp: Imp<T>,
}

#[derive(Debug)]
enum Imp<T> {
    Os(std::thread::JoinHandle<T>),
    Virtual {
        result: Arc<OsMutex<Option<std::thread::Result<T>>>>,
        finished: Arc<AtomicBool>,
        os: std::thread::JoinHandle<()>,
    },
}

/// Spawns a thread. Inside [`sched::model`] the child is a virtual
/// thread under the scheduler's control; outside it is a plain
/// `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match sched::ctx() {
        None => JoinHandle {
            imp: Imp::Os(std::thread::spawn(f)),
        },
        Some(ctx) => {
            let id = ctx.register_child();
            let result = Arc::new(OsMutex::new(None));
            let finished = Arc::new(AtomicBool::new(false));
            let os = sched::spawn_vthread(
                Arc::clone(&ctx.shared),
                id,
                f,
                Arc::clone(&result),
                Arc::clone(&finished),
            );
            JoinHandle {
                imp: Imp::Virtual {
                    result,
                    finished,
                    os,
                },
            }
        }
    }
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, returning its result
    /// (`Err(payload)` if it panicked, like `std::thread`).
    ///
    /// # Errors
    ///
    /// Returns the thread's panic payload if it panicked.
    ///
    /// # Panics
    ///
    /// Panics if a virtual handle is joined from outside its model run.
    pub fn join(self) -> std::thread::Result<T> {
        match self.imp {
            Imp::Os(h) => h.join(),
            Imp::Virtual {
                result,
                finished,
                os,
            } => {
                let ctx = sched::ctx().expect("joining a virtual thread outside its model run");
                let fin = Arc::clone(&finished);
                // SeqCst: shadow state; the scheduler baton is the real
                // synchronization (see `sync::Mutex::lock`).
                ctx.block_until(Box::new(move || fin.load(Ordering::SeqCst)));
                // The virtual thread has finished; reap its OS backing
                // (exits as soon as it hands the baton on).
                os.join().ok();
                result
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("finished virtual thread left no result")
            }
        }
    }

    /// Whether the thread has finished (non-blocking).
    pub fn is_finished(&self) -> bool {
        match &self.imp {
            Imp::Os(h) => h.is_finished(),
            // SeqCst: shadow state; see `join` above.
            Imp::Virtual { finished, .. } => finished.load(Ordering::SeqCst),
        }
    }
}
