//! The cooperative virtual-thread scheduler and its exhaustive explorer.
//!
//! Virtual threads are real OS threads that hand a baton around: exactly
//! one runs at a time, and it surrenders the baton only at *scheduling
//! points* — every operation on the wrappers in [`crate::sync`], plus
//! spawn-side blocking ([`crate::thread::JoinHandle::join`]). At each
//! point the scheduler either follows a recorded decision (replay of a
//! DFS prefix) or takes the default — keep the current thread running —
//! and records the choice. After an execution completes, [`model`]
//! computes the lexicographically next decision vector with an untried
//! alternative inside the preemption budget and replays it, until the
//! space is exhausted.
//!
//! Preemption accounting follows iterative context bounding: switching
//! away from a thread that could have continued costs one preemption;
//! switching because the current thread blocked or finished is free.
//! With a bound of `b`, the checker covers every schedule reachable with
//! at most `b` preemptions — the regime where the vast majority of real
//! concurrency bugs live.

use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, MutexGuard as OsGuard, PoisonError};

/// Predicate deciding whether a blocked virtual thread may be granted
/// the baton. Evaluated by the scheduler with its own lock held, so it
/// must only touch model-side flags (plain atomics), never scheduler
/// state.
pub(crate) type Pred = Box<dyn Fn() -> bool + Send>;

/// Panic payload used to tear an execution down after a failure or
/// deadlock has been recorded; never surfaced to the caller.
struct Cancelled;

/// Exploration parameters for [`model`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum number of preemptive context switches per schedule.
    pub preemption_bound: usize,
    /// Cap on the number of schedules explored; exploration that hits
    /// the cap reports `complete: false` rather than failing.
    pub max_schedules: u64,
    /// Cap on scheduling points within one execution — a backstop
    /// against non-terminating schedules (e.g. an unmodelled spin loop).
    pub max_steps: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 3,
            max_schedules: 500_000,
            max_steps: 100_000,
        }
    }
}

/// What an exhausted (or capped) exploration observed.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: u64,
    /// Whether the bounded decision space was fully explored (false if
    /// `max_schedules` stopped it early).
    pub complete: bool,
    /// Total scheduling points across all executions.
    pub points: u64,
    /// Deepest execution, in scheduling points.
    pub max_depth: usize,
    /// Most preemptions any executed schedule actually spent.
    pub max_preemptions_used: usize,
}

/// A failing schedule: the assertion (or deadlock) message plus the
/// decision vector that reproduces it via [`replay`].
#[derive(Debug)]
pub struct ModelError {
    /// Panic message or deadlock description from the failing execution.
    pub message: String,
    /// Decision indices taken at each scheduling point of the failing
    /// schedule; feed to [`replay`] to re-execute it.
    pub decisions: Vec<usize>,
    /// How many schedules ran cleanly before this one.
    pub schedules_before: u64,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule #{} failed: {} (replay decisions: {:?})",
            self.schedules_before + 1,
            self.message,
            self.decisions
        )
    }
}

impl std::error::Error for ModelError {}

/// Run state of one virtual thread.
enum Run {
    Runnable,
    Blocked(Pred),
    Finished,
}

/// One recorded scheduling decision.
struct Choice {
    /// Grantable threads in selection order (continuing thread first).
    candidates: Vec<usize>,
    /// Index into `candidates` actually granted.
    chosen: usize,
    /// Whether `candidates[0]` is the thread that was already running
    /// (so any other pick costs a preemption).
    continuation: bool,
}

struct Inner {
    threads: Vec<Run>,
    /// Thread currently holding the baton.
    active: Option<usize>,
    /// Decision prefix to replay before falling back to defaults.
    decisions: Vec<usize>,
    trace: Vec<Choice>,
    preemptions: usize,
    steps: u64,
    max_steps: u64,
    live: usize,
    cancelling: bool,
    failure: Option<String>,
    done: bool,
}

pub(crate) struct Shared {
    m: OsMutex<Inner>,
    cv: OsCondvar,
}

/// Per-OS-thread handle naming the active controller and this thread's
/// virtual id; `None` outside a model run (passthrough mode).
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) id: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Cheap passthrough check: is this thread inside a model run?
pub(crate) fn modelled() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

impl Ctx {
    /// Scheduling point: offer the baton; the scheduler may hand it
    /// right back (the zero-cost default) or to a peer.
    pub(crate) fn yield_point(&self) {
        self.shared.yield_point(self.id);
    }

    /// Scheduling point that parks this thread until `pred` holds.
    pub(crate) fn block_until(&self, pred: Pred) {
        self.shared.block_until(self.id, pred);
    }

    /// Registers a new virtual thread (runnable, not yet granted).
    pub(crate) fn register_child(&self) -> usize {
        self.shared.register()
    }
}

impl Shared {
    fn new(decisions: Vec<usize>, max_steps: u64) -> Self {
        Shared {
            m: OsMutex::new(Inner {
                threads: Vec::new(),
                active: None,
                decisions,
                trace: Vec::new(),
                preemptions: 0,
                steps: 0,
                max_steps,
                live: 0,
                cancelling: false,
                failure: None,
                done: false,
            }),
            cv: OsCondvar::new(),
        }
    }

    fn lock(&self) -> OsGuard<'_, Inner> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self) -> usize {
        let mut g = self.lock();
        g.threads.push(Run::Runnable);
        g.live += 1;
        g.threads.len() - 1
    }

    fn wait_for_grant<'a>(&'a self, mut g: OsGuard<'a, Inner>, me: usize) -> OsGuard<'a, Inner> {
        while g.active != Some(me) {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        g
    }

    /// Panics with the teardown sentinel if the execution is being
    /// cancelled. Must be called with the baton held; drops the lock
    /// before unwinding.
    fn check_cancel(g: OsGuard<'_, Inner>) {
        if g.cancelling {
            drop(g);
            panic::panic_any(Cancelled);
        }
        drop(g);
    }

    fn yield_point(&self, me: usize) {
        let mut g = self.lock();
        debug_assert_eq!(g.active, Some(me), "yield from a thread without the baton");
        self.reschedule(&mut g);
        let g = self.wait_for_grant(g, me);
        Self::check_cancel(g);
    }

    fn block_until(&self, me: usize, pred: Pred) {
        let mut g = self.lock();
        debug_assert_eq!(g.active, Some(me), "block from a thread without the baton");
        g.threads[me] = Run::Blocked(pred);
        self.reschedule(&mut g);
        let mut g = self.wait_for_grant(g, me);
        g.threads[me] = Run::Runnable;
        Self::check_cancel(g);
    }

    /// Marks `me` finished and passes the baton on. Never blocks.
    fn finish(&self, me: usize) {
        let mut g = self.lock();
        g.threads[me] = Run::Finished;
        g.live -= 1;
        if g.active == Some(me) {
            self.reschedule(&mut g);
        }
    }

    /// Records the first failure and switches the execution into
    /// teardown: every remaining thread is woken to unwind.
    fn fail(&self, message: String) {
        let mut g = self.lock();
        if g.failure.is_none() {
            g.failure = Some(message);
        }
        g.cancelling = true;
    }

    fn reschedule(&self, g: &mut Inner) {
        g.steps += 1;
        if g.steps > g.max_steps && !g.cancelling {
            g.failure
                .get_or_insert_with(|| "scheduling-point budget exceeded (non-terminating schedule? model the wait with block_until)".to_owned());
            g.cancelling = true;
        }
        if g.live == 0 {
            g.active = None;
            g.done = true;
            self.cv.notify_all();
            return;
        }
        let grantable: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, run)| match run {
                Run::Runnable => true,
                Run::Blocked(pred) => g.cancelling || pred(),
                Run::Finished => false,
            })
            .map(|(id, _)| id)
            .collect();
        if grantable.is_empty() {
            // Every live thread is parked on a predicate nothing can
            // flip: a genuine deadlock of the modelled code. Record it
            // and tear the execution down.
            if !g.cancelling {
                g.failure.get_or_insert_with(|| {
                    format!(
                        "deadlock: {} thread(s) blocked with no runnable peer",
                        g.live
                    )
                });
                g.cancelling = true;
            }
            let first_live = g
                .threads
                .iter()
                .position(|run| !matches!(run, Run::Finished))
                .expect("live > 0");
            g.active = Some(first_live);
            self.cv.notify_all();
            return;
        }
        if g.cancelling {
            // Teardown: grant in any order, no trace recording.
            g.active = Some(grantable[0]);
            self.cv.notify_all();
            return;
        }
        let cont = g.active.filter(|a| grantable.contains(a));
        let mut candidates = Vec::with_capacity(grantable.len());
        if let Some(c) = cont {
            candidates.push(c);
        }
        candidates.extend(grantable.iter().copied().filter(|&t| Some(t) != cont));
        let pos = g.trace.len();
        let idx = g.decisions.get(pos).copied().unwrap_or(0);
        assert!(
            idx < candidates.len(),
            "mc replay divergence: decision {idx} of {} candidates at point {pos}",
            candidates.len()
        );
        if cont.is_some() && idx != 0 {
            g.preemptions += 1;
        }
        g.active = Some(candidates[idx]);
        g.trace.push(Choice {
            candidates,
            chosen: idx,
            continuation: cont.is_some(),
        });
        self.cv.notify_all();
    }
}

/// Spawns the OS thread backing a virtual thread. The body waits for its
/// first baton grant, runs, stores its result, raises `finished`, and
/// hands the baton on.
pub(crate) fn spawn_vthread<T, F>(
    shared: Arc<Shared>,
    id: usize,
    f: F,
    result: Arc<OsMutex<Option<std::thread::Result<T>>>>,
    finished: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::spawn(move || {
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                shared: Arc::clone(&shared),
                id,
            });
        });
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            let g = shared.lock();
            let g = shared.wait_for_grant(g, id);
            Shared::check_cancel(g);
            f()
        }));
        match out {
            Ok(v) => {
                *result.lock().unwrap_or_else(PoisonError::into_inner) = Some(Ok(v));
            }
            Err(payload) => {
                if !payload.is::<Cancelled>() {
                    shared.fail(describe_panic(payload.as_ref()));
                    *result.lock().unwrap_or_else(PoisonError::into_inner) = Some(Err(payload));
                }
            }
        }
        // SeqCst: shadow state publishing a virtual thread's exit to `join`'s
        // predicate; the baton is the real sync.
        finished.store(true, Ordering::SeqCst);
        shared.finish(id);
        CTX.with(|c| c.borrow_mut().take());
    })
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

struct ExecOutcome {
    taken: Vec<usize>,
    /// Per scheduling point: (candidate count, chosen, continuation).
    shape: Vec<(usize, usize, bool)>,
    preemptions: usize,
    failure: Option<String>,
}

fn run_once<F>(decisions: Vec<usize>, max_steps: u64, body: &Arc<F>) -> ExecOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let shared = Arc::new(Shared::new(decisions, max_steps));
    let root = shared.register();
    debug_assert_eq!(root, 0);
    let result = Arc::new(OsMutex::new(None));
    let finished = Arc::new(AtomicBool::new(false));
    let b = Arc::clone(body);
    let os = spawn_vthread(Arc::clone(&shared), root, move || b(), result, finished);
    // Hand the baton to the root thread and wait for the execution to
    // quiesce (all virtual threads finished).
    {
        let mut g = shared.lock();
        g.active = Some(root);
        shared.cv.notify_all();
        while !g.done {
            g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
    os.join().ok();
    let g = shared.lock();
    ExecOutcome {
        taken: g.trace.iter().map(|c| c.chosen).collect(),
        shape: g
            .trace
            .iter()
            .map(|c| (c.candidates.len(), c.chosen, c.continuation))
            .collect(),
        preemptions: g.preemptions,
        failure: g.failure.clone(),
    }
}

/// Exhaustively explores the scheduling space of `body` under `config`.
///
/// `body` is the whole scenario: it constructs fresh state, spawns
/// virtual threads via [`crate::thread::spawn`], joins them, and asserts
/// its invariants. It is re-run once per schedule, so it must be
/// deterministic apart from scheduling.
///
/// # Errors
///
/// Returns the first failing schedule — assertion panic, deadlock, or
/// step-budget blowout — with its replayable decision vector.
///
/// # Panics
///
/// Panics if called from inside another model run.
pub fn model<F>(config: &Config, body: F) -> Result<Report, ModelError>
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(ctx().is_none(), "nested sched::model is not supported");
    let body = Arc::new(body);
    let mut decisions: Vec<usize> = Vec::new();
    let mut report = Report {
        schedules: 0,
        complete: true,
        points: 0,
        max_depth: 0,
        max_preemptions_used: 0,
    };
    loop {
        if report.schedules >= config.max_schedules {
            report.complete = false;
            break;
        }
        let exec = run_once(decisions.clone(), config.max_steps, &body);
        report.schedules += 1;
        report.points += exec.shape.len() as u64;
        report.max_depth = report.max_depth.max(exec.shape.len());
        report.max_preemptions_used = report.max_preemptions_used.max(exec.preemptions);
        if let Some(message) = exec.failure {
            return Err(ModelError {
                message,
                decisions: exec.taken,
                schedules_before: report.schedules - 1,
            });
        }
        // Lexicographic DFS: find the deepest scheduling point with an
        // untried alternative that fits the preemption budget; bump it
        // and truncate everything after (defaults re-fill the suffix).
        let mut spent = Vec::with_capacity(exec.shape.len() + 1);
        spent.push(0usize);
        for &(_, chosen, continuation) in &exec.shape {
            let cost = usize::from(continuation && chosen != 0);
            spent.push(spent.last().copied().unwrap_or(0) + cost);
        }
        let mut next = None;
        for i in (0..exec.shape.len()).rev() {
            let (n, chosen, continuation) = exec.shape[i];
            let alt = chosen + 1;
            if alt >= n {
                continue;
            }
            // Any non-zero pick at a continuation point costs one
            // preemption; everything else is free.
            let cost = usize::from(continuation);
            if spent[i] + cost > config.preemption_bound {
                continue;
            }
            let mut d: Vec<usize> = exec.taken[..i].to_vec();
            d.push(alt);
            next = Some(d);
            break;
        }
        match next {
            Some(d) => decisions = d,
            None => break,
        }
    }
    Ok(report)
}

/// Re-executes exactly one schedule — the decision vector from a
/// [`ModelError`] — and returns its failure message, if it still fails.
///
/// # Panics
///
/// Panics if called from inside a model run.
pub fn replay<F>(decisions: &[usize], max_steps: u64, body: F) -> Option<String>
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(ctx().is_none(), "nested sched::replay is not supported");
    let body = Arc::new(body);
    run_once(decisions.to_vec(), max_steps, &body).failure
}
