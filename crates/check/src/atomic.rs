//! Linearizability checking for read/write registers.
//!
//! The paper's *eventual atomicity* (§2.2) says that after `τ_stab` the
//! merged read/write history is linearizable as a register. This module
//! decides it by replay: a finished history's invocations and completions
//! are fed, in time order, into the one atomicity checker of the
//! workspace, `sbs_obs::ConsistencyMonitor`, whose cluster-and-zone test
//! is exact for histories with unique write values and polynomial
//! whatever the overlap (see its module docs). The monitor borrows the
//! history's values, so a check clones none of them.
//!
//! Quiescent points — instants where no operation is in flight — still
//! structure the answer: a report names the quiescent segment whose
//! operation exposed the violation, and the stabilization point is the
//! earliest quiescent boundary from which the rest of the history
//! replays clean.
//!
//! Unique write values are required (see
//! [`History::validate_unique_writes`]).

use crate::history::{History, OpRecord};
use sbs_obs::{ConsistencyMonitor, InitialState};
use sbs_sim::SimTime;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;
use std::ops::Range;

/// Verdict of [`check_linearizable`].
#[derive(Clone, Debug)]
pub struct LinReport {
    /// True if the whole history is linearizable as a register.
    pub linearizable: bool,
    /// Operations examined.
    pub ops_checked: usize,
    /// Number of quiescent segments.
    pub segments: usize,
    /// Index (in segment order) of the quiescent segment holding the
    /// operation whose completion exposed the violation, when not
    /// linearizable.
    pub failed_segment: Option<usize>,
}

/// Checker errors (histories the checker cannot decide).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinError {
    /// Two writes used the same value.
    DuplicateWrites,
}

impl fmt::Display for LinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinError::DuplicateWrites => write!(f, "history writes duplicate values"),
        }
    }
}

impl std::error::Error for LinError {}

/// Decides whether `h` is linearizable as a single register starting from
/// `initial`.
///
/// # Errors
///
/// Returns [`LinError`] if the history has duplicate write values.
pub fn check_linearizable<V>(
    h: &History<V>,
    initial: &InitialState<V>,
) -> Result<LinReport, LinError>
where
    V: Clone + Eq + Hash + Ord + fmt::Debug,
{
    if h.validate_unique_writes().is_err() {
        return Err(LinError::DuplicateWrites);
    }
    let segments = quiescent_segments(h.ops());
    let failed = first_violation(h.ops(), initial.as_ref());
    Ok(LinReport {
        linearizable: failed.is_none(),
        ops_checked: h.len(),
        segments: segments.len(),
        failed_segment: failed.map(|i| segments.partition_point(|s| s.end <= i)),
    })
}

/// The measured atomic-stabilization point: the earliest quiescent boundary
/// from which the rest of the history is linearizable. Returns the
/// invocation time of the first operation of that suffix (`None` if even
/// the final segment is broken).
///
/// The register contents at the boundary are grounded in the *full*
/// history: the feasible values are those of prefix writes not superseded
/// by a later completed prefix write. (Quiescent boundaries guarantee no
/// operation spans the cut.) With no prefix write at all, the contents are
/// arbitrary — the paper allows reads before the first post-fault write to
/// return anything.
///
/// # Errors
///
/// Propagates [`LinError`] as [`check_linearizable`].
pub fn atomic_stabilization_point<V>(h: &History<V>) -> Result<Option<SimTime>, LinError>
where
    V: Clone + Eq + Hash + Ord + fmt::Debug,
{
    if h.validate_unique_writes().is_err() {
        return Err(LinError::DuplicateWrites);
    }
    let ops = h.ops();
    // Walk boundaries from the earliest; the first suffix that replays
    // clean gives the stabilization point.
    for seg in quiescent_segments(ops) {
        let cut = ops[seg.start].invoked;
        if first_violation(&ops[seg.start..], boundary_values(h, cut)).is_none() {
            return Ok(Some(cut));
        }
    }
    Ok(None)
}

/// The register values feasible at instant `cut` (a quiescent boundary):
/// every write completed before `cut` that is not strictly superseded by
/// another write also completed before `cut`. `Any` when no write
/// completed yet.
fn boundary_values<V>(h: &History<V>, cut: SimTime) -> InitialState<&V>
where
    V: Clone + Eq + Hash + Ord + fmt::Debug,
{
    let done: Vec<&OpRecord<V>> = h.writes().filter(|w| w.responded < cut).collect();
    if done.is_empty() {
        return InitialState::Any;
    }
    let candidates: BTreeSet<&V> = done
        .iter()
        .filter(|w| !done.iter().any(|w2| w.precedes(w2)))
        .map(|w| w.kind.value())
        .collect();
    InitialState::OneOf(candidates)
}

/// Replays `ops` into a monitor whose register starts in `initial`:
/// every invocation and completion in time order, invocations first at
/// equal times (so an operation completing at `t` stays concurrent with
/// one invoked at `t`, as `responded < invoked` demands). Returns the
/// index of the operation whose completion exposed the first violation.
fn first_violation<V: Ord>(ops: &[OpRecord<V>], initial: InitialState<&V>) -> Option<usize> {
    let mut events: Vec<(SimTime, bool, usize)> = ops
        .iter()
        .enumerate()
        .flat_map(|(i, op)| [(op.invoked, false, i), (op.responded, true, i)])
        .collect();
    events.sort_unstable();
    let mut monitor = ConsistencyMonitor::starting_from(initial);
    events.into_iter().find_map(|(at, completes, i)| {
        let kind = &ops[i].kind;
        if !completes {
            let write = kind.is_write().then(|| kind.value());
            monitor.op_invoked(i as u64, "", at.as_nanos(), write);
            return None;
        }
        let read = (!kind.is_write()).then(|| kind.value());
        monitor
            .op_completed(i as u64, at.as_nanos(), read)
            .map(|_| i)
    })
}

/// Splits ops (already sorted by invocation) at quiescent points: a new
/// segment starts at op `i` when every earlier op responded strictly before
/// op `i` was invoked. Returns each segment's index range into `ops`.
fn quiescent_segments<V>(ops: &[OpRecord<V>]) -> Vec<Range<usize>> {
    let mut segments = Vec::new();
    let mut start = 0;
    let mut frontier: Option<SimTime> = None;
    for (i, op) in ops.iter().enumerate() {
        if frontier.is_some_and(|fr| fr < op.invoked) {
            segments.push(start..i);
            start = i;
        }
        frontier = frontier.max(Some(op.responded));
    }
    if start < ops.len() {
        segments.push(start..ops.len());
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::fixtures::{op, read, write};
    use crate::history::OpKind;

    fn any() -> InitialState<u64> {
        InitialState::Any
    }

    #[test]
    fn sequential_history_linearizes() {
        let h = History::new(vec![
            write(1, 0, 10, 100),
            read(2, 20, 30, 100),
            write(3, 40, 50, 200),
            read(4, 60, 70, 200),
        ]);
        let rep = check_linearizable(&h, &any()).unwrap();
        assert!(rep.linearizable);
        assert_eq!(rep.segments, 4);
    }

    #[test]
    fn stale_sequential_read_fails() {
        let h = History::new(vec![
            write(1, 0, 10, 100),
            write(2, 20, 30, 200),
            read(3, 40, 50, 100),
        ]);
        let rep = check_linearizable(&h, &any()).unwrap();
        assert!(!rep.linearizable);
        assert_eq!(rep.failed_segment, Some(2));
    }

    #[test]
    fn concurrent_read_may_see_either_side_of_a_write() {
        // Read overlaps the write: both old and new values linearize.
        for seen in [100u64, 200] {
            let h = History::new(vec![
                write(1, 0, 10, 100),
                write(2, 20, 60, 200),
                read(3, 30, 50, seen),
            ]);
            assert!(
                check_linearizable(&h, &any()).unwrap().linearizable,
                "value {seen} must be allowed"
            );
        }
    }

    #[test]
    fn figure_1_inversion_is_not_linearizable() {
        // The new/old inversion of Figure 1: regular but not atomic.
        let h = History::new(vec![
            write(1, 0, 10, 0),
            write(2, 20, 100, 1),
            read(3, 30, 40, 1),
            read(4, 50, 60, 0),
        ]);
        let rep = check_linearizable(&h, &any()).unwrap();
        assert!(!rep.linearizable, "new/old inversion must be rejected");
    }

    #[test]
    fn unknown_initial_pins_on_first_read() {
        let h = History::new(vec![
            read(1, 0, 10, 55),
            read(2, 20, 30, 55), // consistent with pinned initial
        ]);
        assert!(check_linearizable(&h, &any()).unwrap().linearizable);
        let h2 = History::new(vec![read(1, 0, 10, 55), read(2, 20, 30, 56)]);
        assert!(
            !check_linearizable(&h2, &any()).unwrap().linearizable,
            "two sequential reads disagreeing on the initial value"
        );
    }

    #[test]
    fn concrete_initial_constrains_first_read() {
        let h = History::new(vec![read(1, 0, 10, 55)]);
        let ok = InitialState::OneOf(BTreeSet::from([55u64]));
        let bad = InitialState::OneOf(BTreeSet::from([54u64]));
        assert!(check_linearizable(&h, &ok).unwrap().linearizable);
        assert!(!check_linearizable(&h, &bad).unwrap().linearizable);
    }

    #[test]
    fn concurrent_writes_linearize_in_either_order() {
        // Two overlapping writes by different clients; a later read may see
        // either, but sequential reads must agree with a single order.
        let h = History::new(vec![
            op(0, 1, 0, 50, OpKind::Write(1u64)),
            op(2, 2, 10, 60, OpKind::Write(2u64)),
            read(3, 70, 80, 1), // w2 then w1 is a valid order
        ]);
        assert!(check_linearizable(&h, &any()).unwrap().linearizable);
        let h2 = History::new(vec![
            op(0, 1, 0, 50, OpKind::Write(1u64)),
            op(2, 2, 10, 60, OpKind::Write(2u64)),
            read(3, 70, 80, 1),
            read(4, 90, 95, 2), // …but then flipping back to 2 is invalid
        ]);
        assert!(!check_linearizable(&h2, &any()).unwrap().linearizable);
    }

    #[test]
    fn read_of_future_write_fails() {
        let h = History::new(vec![read(1, 0, 10, 100), write(2, 20, 30, 100)]);
        // The read pins initial to 100 — fine under Any…
        assert!(check_linearizable(&h, &any()).unwrap().linearizable);
        // …but impossible if the initial is known to be something else.
        let init = InitialState::OneOf(BTreeSet::from([0u64]));
        assert!(!check_linearizable(&h, &init).unwrap().linearizable);
    }

    #[test]
    fn stabilization_point_skips_the_corrupt_prefix() {
        let h = History::new(vec![
            write(1, 0, 10, 100),
            read(2, 20, 30, 666), // corrupted read pre-stabilization
            write(3, 40, 50, 200),
            read(4, 60, 70, 200),
            read(5, 80, 90, 200),
        ]);
        assert!(!check_linearizable(&h, &any()).unwrap().linearizable);
        let point = atomic_stabilization_point(&h).unwrap();
        assert_eq!(point, Some(SimTime::from_nanos(40)));
    }

    #[test]
    fn stabilization_point_none_when_tail_is_broken() {
        let h = History::new(vec![
            write(1, 0, 10, 100),
            write(2, 20, 30, 200),
            read(3, 40, 50, 100), // stale at the very end
        ]);
        assert_eq!(atomic_stabilization_point(&h).unwrap(), None);
    }

    #[test]
    fn duplicate_writes_are_rejected() {
        let h = History::new(vec![write(1, 0, 10, 7), write(2, 20, 30, 7)]);
        assert_eq!(
            check_linearizable(&h, &any()).unwrap_err(),
            LinError::DuplicateWrites
        );
        assert_eq!(
            atomic_stabilization_point(&h).unwrap_err(),
            LinError::DuplicateWrites
        );
    }

    #[test]
    fn quiescent_segmentation_respects_overlap_chains() {
        // op1 overlaps op2 overlaps op3 → one segment, even though op1 and
        // op3 are disjoint.
        let h = History::new(vec![
            write(1, 0, 30, 1),
            read(2, 20, 60, 1),
            read(3, 40, 80, 1),
        ]);
        let segs = quiescent_segments(h.ops());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len(), 3);
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<u64> = History::new(vec![]);
        let rep = check_linearizable(&h, &any()).unwrap();
        assert!(rep.linearizable);
        assert_eq!(rep.segments, 0);
    }

    #[test]
    fn deep_concurrency_is_decided_quickly() {
        // 16 concurrent reads over one write.
        let mut ops = vec![write(1, 0, 1000, 9)];
        for i in 0..16u64 {
            ops.push(read(10 + i, 10 + i, 900 + i, 9));
        }
        let h = History::new(ops);
        assert!(check_linearizable(&h, &any()).unwrap().linearizable);
    }

    /// A write of 2 pending for 200 ms over a completed write of 1, while
    /// 8 readers complete 20 sequential reads each: rounds 0–9 return 1,
    /// rounds 10–19 return 2. No quiescent point falls inside the write,
    /// so its segment holds 161 operations. `stale` makes the last
    /// reader's round-10 read, invoked after the first reader's round-10
    /// read of 2 completed, return 1.
    fn stalled_write(stale: bool) -> History<u64> {
        const MS: u64 = 1_000_000;
        let mut ops = vec![write(1, 0, MS, 1), write(2, 2 * MS, 202 * MS, 2)];
        for round in 0..20u64 {
            for reader in 0..8u64 {
                let start = 2 * MS + 10 * MS * round + reader * MS / 2;
                let seen = if round < 10 || (stale && round == 10 && reader == 7) {
                    1
                } else {
                    2
                };
                ops.push(read(10 + 8 * round + reader, start, start + 3 * MS, seen));
            }
        }
        History::new(ops)
    }

    #[test]
    fn stalled_write_gets_a_verdict() {
        let rep = check_linearizable(&stalled_write(false), &any()).unwrap();
        assert!(rep.linearizable);
        assert_eq!(rep.segments, 2);
        let rep = check_linearizable(&stalled_write(true), &any()).unwrap();
        assert!(!rep.linearizable, "a read of 1 after a read of 2 completed");
        assert_eq!(rep.failed_segment, Some(1));
    }
}
