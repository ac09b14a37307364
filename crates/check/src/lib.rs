//! # sbs-check — independent verdicts on register executions
//!
//! Every experiment in this workspace ends the same way: a harness produces
//! a [`History`] of completed reads and writes, and this crate decides
//! whether the history satisfies the specification the paper claims —
//! without knowing anything about the protocol that produced it.
//!
//! - [`check_regularity`] — the regular-register condition of §2.2 (each
//!   read returns the last completed or a concurrent write), plus the
//!   measured stabilization point `τ_stab`
//!   ([`RegularityReport::first_clean_from`]).
//! - [`count_inversions`] — new/old inversions (Figure 1), the anomaly that
//!   distinguishes regular from atomic.
//! - [`check_linearizable`] / [`atomic_stabilization_point`] — exact
//!   register linearizability, decided by replaying the history into the
//!   workspace's one atomicity checker, `sbs_obs::ConsistencyMonitor`
//!   (whose starting state, [`InitialState`], is re-exported here); used
//!   for the SWSR/SWMR/MWMR *atomic* claims (Theorems 3 and 4).
//! - [`summarize`] / [`Ratio`] — statistics for the experiment tables.
//!
//! ```
//! use sbs_check::{check_linearizable, History, InitialState, OpKind, OpRecord};
//! use sbs_sim::{OpId, ProcessId, SimTime};
//!
//! let rec = |id, a, b, kind| OpRecord {
//!     client: ProcessId(0), op: OpId(id),
//!     invoked: SimTime::from_nanos(a), responded: SimTime::from_nanos(b),
//!     kind,
//! };
//! let h = History::new(vec![
//!     rec(1, 0, 10, OpKind::Write(5u64)),
//!     rec(2, 20, 30, OpKind::Read(5u64)),
//! ]);
//! assert!(check_linearizable(&h, &InitialState::Any).unwrap().linearizable);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod atomic;
mod diff;
mod history;
mod regularity;
mod stats;

pub use atomic::{atomic_stabilization_point, check_linearizable, LinError, LinReport};
pub use diff::{equivalent_write_histories, HistoryDivergence};
pub use history::{DuplicateWrite, History, OpKind, OpRecord};
pub use regularity::{
    check_regularity, count_inversions, Inversion, RegularityReport, RegularityViolation,
};
pub use sbs_obs::InitialState;
pub use stats::{summarize, DurationSummary, Ratio};
