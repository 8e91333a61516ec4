//! Executable lower-bound machinery for *"Space Bounds for Reliable
//! Storage: Fundamental Limits of Coding"* (PODC 2016).
//!
//! The paper's Theorem 1 — storage cost `Ω(min(f, c)·D)` for lock-free
//! regular registers with symmetric black-box coding — is proved through
//! a chain of constructions, each of which is implemented and measurable
//! here:
//!
//! * [`Snapshot`] — the quantities `‖S(t, w)‖`, `F_ℓ(t)`, `C±ℓ(t)`
//!   (Definitions 6 and the sets of Section 4), computed live from a
//!   simulation via the block source tags;
//! * [`AdversaryAd`] — the scheduling adversary of Definition 7, a
//!   drop-in [`rsb_fpsm::Scheduler`]; [`run_blowup`] drives any protocol
//!   to the Lemma-3 dichotomy (`|C⁺| = c` or `|F| > f`) and reports the
//!   measured storage against `min((f+1)ℓ, c(D−ℓ+1))`;
//! * [`rs_colliding_values`] / [`brute_force_collision`] — Claim 1's
//!   pigeonhole made constructive (analytically for linear codes,
//!   by enumeration for arbitrary black-box codes);
//! * [`substitution_experiment`] — Definition 5 / Figure 2: replacing a
//!   written value preserves the entire structural run.
//!
//! # Example: drive ABD into the frozen-objects arm of the dichotomy
//!
//! ```
//! use rsb_lowerbound::{run_blowup, AdOutcome, AdversaryParams};
//! use rsb_registers::{Abd, RegisterConfig, RegisterProtocol};
//! use rsb_fpsm::OpRequest;
//! use rsb_coding::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = RegisterConfig::new(5, 2, 1, 64)?; // f = 2, D = 512 bits
//! let proto = Abd::new(cfg);
//! let mut sim = proto.new_sim();
//! let c = 4; // concurrency level
//! for i in 0..c {
//!     let w = proto.add_client(&mut sim);
//!     sim.invoke(w, OpRequest::Write(Value::seeded(i as u64 + 1, 64)))?;
//! }
//! let params = AdversaryParams::theorem1(512, 2, c);
//! let report = run_blowup(&mut sim, params, 1_000_000);
//! // Replication fills f + 1 = 3 objects with ≥ ℓ = D/2 bits each.
//! assert_eq!(report.outcome, AdOutcome::FrozenExceedsF);
//! assert!(report.certifies_bound());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod adversary;
mod collisions;
mod substitution;
mod tracking;

pub use adversary::{run_blowup, AdOutcome, AdversaryAd, BlowupReport};
pub use collisions::{
    brute_force_collision, build_u_sets, rs_colliding_values, verify_collision, Collision,
    CollisionError,
};
pub use substitution::{substitution_experiment, NegativeControl, SubstitutionReport};
pub use tracking::{live_sources, outstanding_writes, AdversaryParams, Snapshot};
