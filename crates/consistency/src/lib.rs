//! Operation histories and consistency/liveness checkers for register
//! emulations.
//!
//! The paper's correctness conditions (its Section 2 and Appendix A) are
//! made executable here:
//!
//! * [`check_weak_regularity`] — MWRegWeak, the condition under which the
//!   `Ω(min(f, c)·D)` lower bound is proved;
//! * [`check_strong_regularity`] — MWRegWO, the condition the Section-5
//!   algorithm guarantees;
//! * [`check_strong_safety`] — the weaker condition of the Appendix-E
//!   register (which escapes the lower bound);
//! * [`check_liveness`] — wait-freedom / FW-termination / lock-freedom
//!   assertions over quiescent fair runs;
//! * [`check_atomicity`] — linearizability, the strictly stronger
//!   condition the paper contrasts regularity against.
//!
//! Histories come from anywhere, but [`History::from_fpsm`] converts the
//! `rsb-fpsm` simulator's records directly.

#![forbid(unsafe_code)]

mod atomicity;
mod condition;
mod history;
mod liveness;
mod regularity;

pub use atomicity::check_atomicity;
pub use condition::{check, Condition};
pub use history::{History, HistoryError, HistoryOp, OpKind};
pub use liveness::{check_liveness, LivenessLevel, LivenessViolation};
pub use regularity::{
    check_strong_regularity, check_strong_safety, check_weak_regularity, Violation,
};
