//! Workload generation for the register emulations: deterministic value
//! streams, concurrency scenarios, and failure-injection plans.
//!
//! Everything is seeded and reproducible: a [`Scenario`] plus a seed fully
//! determines the run (the simulator is deterministic).

#![forbid(unsafe_code)]

mod keyed;
mod scenario;
mod seeds;
mod values;

pub use keyed::{key_rank, KeyDist, KeySpace, KeyedAction, KeyedOp, KeyedOpStream, KeyedScenario};
pub use scenario::{run_scenario, FailurePlan, Scenario, ScenarioOutcome};
pub use seeds::SeedSequence;
pub use values::ValueStream;
