//! Schedulers: the environment's half of the game.
//!
//! A [`Scheduler`] picks the next enabled event. The paper's liveness
//! properties are conditioned on *fair* runs; [`FairScheduler`] realizes
//! fairness by FIFO processing, [`RandomScheduler`] explores the schedule
//! space with a seed, and the lower-bound crate supplies the unfair
//! adversary `Ad` as a third implementation of the same trait.

use crate::client::ClientLogic;
use crate::object::ObjectState;
use crate::sim::{SimEvent, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chooses the next event to execute.
pub trait Scheduler<S: ObjectState, L: ClientLogic<State = S>> {
    /// Returns the next event, or `None` to stop (e.g., quiescence or an
    /// adversary declaring victory).
    fn next_event(&mut self, sim: &Simulation<S, L>) -> Option<SimEvent>;
}

/// FIFO scheduler: the oldest actionable RMW (by trigger order) goes first,
/// applies before later deliveries. Every RMW by a correct client on a
/// correct object is eventually applied and delivered, so runs driven to
/// quiescence by this scheduler are fair.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairScheduler;

impl FairScheduler {
    /// Creates a fair scheduler.
    pub fn new() -> Self {
        FairScheduler
    }
}

impl<S: ObjectState, L: ClientLogic<State = S>> Scheduler<S, L> for FairScheduler {
    fn next_event(&mut self, sim: &Simulation<S, L>) -> Option<SimEvent> {
        sim.first_enabled_event()
    }
}

/// Seeded uniformly-random scheduler over the enabled events. Still fair
/// with probability 1 in finite runs driven to quiescence (every enabled
/// event is eventually chosen), but explores interleavings.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<S: ObjectState, L: ClientLogic<State = S>> Scheduler<S, L> for RandomScheduler {
    fn next_event(&mut self, sim: &Simulation<S, L>) -> Option<SimEvent> {
        let events = sim.enabled_events();
        if events.is_empty() {
            None
        } else {
            let i = self.rng.gen_range(0..events.len());
            Some(events[i])
        }
    }
}

/// One scripted scheduling decision for [`ScriptedScheduler`].
///
/// This is the injection point model checkers use to force a specific
/// delivery interleaving: a choice either names an exact event or picks
/// the *k*-th currently-enabled event (in trigger order, the order
/// [`Simulation::enabled_events`] returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryChoice {
    /// The `k`-th enabled event at this step.
    Index(usize),
    /// Exactly this event; the run stops if it is not enabled.
    Event(SimEvent),
}

/// Replays a fixed sequence of [`DeliveryChoice`]s, then stops.
///
/// Unlike [`FairScheduler`] this makes the environment's nondeterminism
/// externally controlled: `rsb-mc` drives its schedule exploration and
/// counterexample replay through this scheduler. A choice that cannot be
/// resolved (index out of range, event not enabled) stops the run; use
/// [`ScriptedScheduler::remaining`] to detect a script that did not fully
/// execute.
#[derive(Debug, Clone)]
pub struct ScriptedScheduler {
    script: Vec<DeliveryChoice>,
    pos: usize,
}

impl ScriptedScheduler {
    /// Creates a scheduler that plays `script` front to back.
    #[must_use]
    pub fn new(script: Vec<DeliveryChoice>) -> Self {
        ScriptedScheduler { script, pos: 0 }
    }

    /// Choices not yet consumed (nonzero after a run means the script was
    /// cut short by an unresolvable choice).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.script.len() - self.pos
    }
}

impl<S: ObjectState, L: ClientLogic<State = S>> Scheduler<S, L> for ScriptedScheduler {
    fn next_event(&mut self, sim: &Simulation<S, L>) -> Option<SimEvent> {
        let choice = *self.script.get(self.pos)?;
        let resolved = match choice {
            DeliveryChoice::Index(k) => sim.enabled_events().get(k).copied(),
            DeliveryChoice::Event(ev) => sim.enabled_events().contains(&ev).then_some(ev),
        };
        if resolved.is_some() {
            self.pos += 1;
        }
        resolved
    }
}

/// Outcome of [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The scheduler returned `None` (quiescence or adversary stop).
    Quiescent {
        /// Events executed before stopping.
        steps: u64,
    },
    /// The step budget was exhausted first.
    BudgetExhausted,
}

impl RunOutcome {
    /// Whether the run reached quiescence within budget.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }
}

/// Drives the simulation with `scheduler` until it stops or `max_steps`
/// events have executed.
///
/// # Panics
///
/// Panics if the scheduler returns an event that is not enabled — that is
/// a bug in the scheduler, not a legal run.
pub fn run<S, L>(
    sim: &mut Simulation<S, L>,
    scheduler: &mut impl Scheduler<S, L>,
    max_steps: u64,
) -> RunOutcome
where
    S: ObjectState,
    L: ClientLogic<State = S>,
{
    for steps in 0..max_steps {
        match scheduler.next_event(sim) {
            None => return RunOutcome::Quiescent { steps },
            Some(ev) => sim
                .step(ev)
                .unwrap_or_else(|e| panic!("scheduler chose disabled event {ev:?}: {e}")),
        }
    }
    RunOutcome::BudgetExhausted
}

/// Drives the simulation until `done(sim)` holds, the scheduler stops, or
/// the budget runs out. Returns whether `done` held on exit.
pub fn run_until<S, L>(
    sim: &mut Simulation<S, L>,
    scheduler: &mut impl Scheduler<S, L>,
    max_steps: u64,
    mut done: impl FnMut(&Simulation<S, L>) -> bool,
) -> bool
where
    S: ObjectState,
    L: ClientLogic<State = S>,
{
    for _ in 0..max_steps {
        if done(sim) {
            return true;
        }
        match scheduler.next_event(sim) {
            None => return done(sim),
            Some(ev) => sim
                .step(ev)
                .unwrap_or_else(|e| panic!("scheduler chose disabled event {ev:?}: {e}")),
        }
    }
    done(sim)
}

/// Convenience: drives with [`FairScheduler`] until all invoked operations
/// have returned. Returns `true` on success within the budget.
pub fn run_to_completion<S, L>(sim: &mut Simulation<S, L>, max_steps: u64) -> bool
where
    S: ObjectState,
    L: ClientLogic<State = S>,
{
    let mut fair = FairScheduler::new();
    run_until(sim, &mut fair, max_steps, |s| {
        s.history().iter().all(super::sim::OpRecord::is_complete)
    })
}
