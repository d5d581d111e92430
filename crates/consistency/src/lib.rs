//! Consistency checkers for shared-memory histories in the crash-recovery
//! model.
//!
//! The paper's central definitional contribution (§III) is a pair of
//! correctness criteria extending atomicity (linearizability) to histories
//! containing *crash* and *recovery* events:
//!
//! * **Persistent atomicity** — a history is persistent atomic if it can be
//!   *completed* (every pending invocation either dropped, or given a reply
//!   placed before the same process's **next invocation**) into a history
//!   equivalent to a legal sequential one that preserves operation
//!   precedence.
//! * **Transient atomicity** — identical, except the inserted reply may be
//!   placed anywhere before the same process's **next write reply**
//!   ("weak completion", §III-C), which tolerates a crashed writer's
//!   unfinished write appearing to overlap its next write.
//!
//! This crate implements both checkers (plus plain linearizability for
//! crash-stop histories and the safe/regular criteria discussed in §VI) as
//! decision procedures over recorded [`History`] values, so the simulator
//! and integration tests can *certify* that the emulation algorithms meet
//! their criterion — and that the paper's lower-bound counterexamples
//! (runs ρ1–ρ4) really violate it.
//!
//! # Example
//!
//! ```
//! use rmem_consistency::{History, check_persistent, check_transient};
//! use rmem_types::{Op, OpResult, ProcessId, Value};
//!
//! // p0 writes 1; p1 reads 1 afterwards: atomic in any model.
//! let mut h = History::new();
//! let w = h.invoke(ProcessId(0), Op::Write(Value::from_u32(1)));
//! h.reply(w, OpResult::Written);
//! let r = h.invoke(ProcessId(1), Op::Read);
//! h.reply(r, OpResult::ReadValue(Value::from_u32(1)));
//!
//! assert!(check_persistent(&h).is_ok());
//! assert!(check_transient(&h).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomicity;
pub mod exactly_once;
pub mod freshness;
pub mod history;
pub mod intervals;
pub mod linearize;
pub mod oracle;
pub mod regular;
pub mod shrink;

pub use atomicity::{
    check_linearizable, check_per_register, check_persistent, check_transient, Criterion, Verdict,
    Violation,
};
pub use exactly_once::{check_exactly_once, DuplicateApplication, ExactlyOnceReport};
pub use freshness::{
    check_freshness, FreshnessKind, FreshnessOp, FreshnessReport, FreshnessViolation,
};
pub use history::{Event, History, WellFormedError};
pub use regular::{check_regular_swmr, check_safe_swmr};
pub use shrink::shrink;
